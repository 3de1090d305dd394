"""Checks on the package source: compile cost, block-size and 2F1 kernel
owners, the numpy submodules it reaches, the stdlib parser it does not, and
that every function in it runs in some CLI run."""

import inspect
import re
import sys
import tokenize
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qtunnel"
MODULES = sorted(PACKAGE.glob("*.py"))

# CPython's parser grows its token array in doublings, so a module past
# 4,096 tokens costs ~240 KB more at each compile without a bytecode cache
_TOKEN_LIMIT = 4096


def parser_tokens(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
                   for tok in tokenize.tokenize(fh.readline))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_stays_below_the_parser_token_doubling(path):
    assert parser_tokens(path) < _TOKEN_LIMIT


def test_only_modes_names_the_block_size():
    # the kernel sums a call in one pass; modes.grid_blocks, which
    # backreaction.q_factors and cli._run_mode_evolve iterate, is the one
    # bound on its working set
    users = {p.name for p in MODULES if "_BLOCK_PAIRS" in p.read_text()}
    assert users == {"modes.py"}
    assert not re.search(r"^_\w*(CHUNK|BLOCK)\w* =", (PACKAGE / "specfun.py").read_text(), re.M)


def test_no_module_mentions_numpy_polynomial_or_linalg():
    # both page in LAPACK (leggauss and hermgauss solve for their nodes with
    # it); grid's 24-node Gauss-Legendre table is the package's one rule.
    # RunConfig.polynomial, the smooth barrier's coefficients, is no use of them
    for path in MODULES:
        text = path.read_text().replace("def polynomial(", "").replace("self.polynomial()", "")
        assert not re.search("polynomial|linalg", text), path.name


def test_only_specfun_and_modes_name_the_2f1_kernel():
    # modes.log_derivative is the one map from a mode to its 2F1 parameters
    users = {p.name for p in MODULES if "hyp2f1_ex" in p.read_text()}
    assert users == {"specfun.py", "modes.py"}


def test_the_2f1_digits_policy_lives_in_modes():
    # the kernel returns per-pair bounds and decides nothing: modes.log_derivative
    # reads the verdict and raises both 2F1 PrecisionError texts
    kernel = (PACKAGE / "specfun.py").read_text()
    assert "DIGITS_TOL" not in kernel and "PrecisionError" not in kernel
    for text in ("2F1 overflows", "2F1 series cancels"):
        assert {p.name for p in MODULES if text in p.read_text()} == {"modes.py"}


# numpy names new in 2.0, against pyproject's numpy>=1.24: the array-API
# aliases and functions (np.astype, not the method)
_NUMPY_2_NAMES = ("trapezoid", "concat", "cumulative_sum", "cumulative_prod", "astype",
                  "isdtype", "vecdot", "unique_values", "unique_counts", "unique_inverse",
                  "unique_all", "permute_dims", "matrix_transpose", "pow", "acos", "asin",
                  "atan", "atan2", "acosh", "asinh", "atanh")


def test_no_module_uses_a_numpy_2_name():
    names = "|".join(_NUMPY_2_NAMES)
    pattern = re.compile(rf"\b(?:np|numpy)\.({names})\b|^\s*from\s+numpy\s+import\s.*\b({names})\b",
                         re.M)
    assert "numpy>=1.24" in (PACKAGE.parents[1] / "pyproject.toml").read_text()
    for path in MODULES:
        found = pattern.search(path.read_text())
        assert not found, (path.name, found and found.group())


def test_no_module_imports_argparse():
    # config.parse_flags reads the command line; argparse would load gettext
    for path in MODULES:
        assert not re.search(r"^\s*(import|from)\s+argparse\b", path.read_text(), re.M), path.name


# with each scenario at its defaults and validate of a config file, these runs
# reach every function of the package: two modes, help, a malformed flag, and
# the edges of guard-only code (Airy's z >= 2 integral, Delta V_bar past its
# first two Gauss-Legendre panels, the 2F1 verdict text, the 2F1 overflow,
# the perturbative-regime check); each with its exit code
_EDGE_RUNS = [(["backreaction", "--modes", "1:1:0.15;1:1.5:0.1"], 0), (["-h"], 0),
              (["rect", "--grid"], 2), (["fig2", "--hbar", "1e-2"], 0), (["fig3", "--a", "20"], 0),
              (["fig3", "--a", "21"], 3), (["fig3", "--m", "1e-8"], 3),
              (["backreaction", "--c", "30"], 3)]


def _run_time_code(code: types.CodeType, in_function: bool = False):
    """The code objects under ``code`` that run when called: functions,
    methods, lambdas and the comprehensions inside functions.  Class bodies
    (not CO_OPTIMIZED) and module-level comprehensions run at import."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            at_import = not const.co_flags & inspect.CO_OPTIMIZED or (
                not in_function and const.co_name in ("<listcomp>", "<setcomp>", "<dictcomp>",
                                                      "<genexpr>"))
            if not at_import:
                yield const
            yield from _run_time_code(const, in_function=not at_import)


def _pop_package_modules() -> dict:
    return {name: sys.modules.pop(name) for name in list(sys.modules)
            if name.partition(".")[0] == "qtunnel"}


def test_every_src_function_runs_from_the_cli(tmp_path, capsys):
    """A function that only tests call does not belong in ``src/``; its
    check belongs in the tests.  A fresh import of the package, under
    ``sys.setprofile``, runs ``cli.main`` on the runs above, and every
    function, method, lambda and comprehension of ``src/qtunnel`` but those
    of ``errors.py`` and ``__main__.py`` must have been called."""
    expected = [code for path in MODULES if path.name not in ("errors.py", "__main__.py")
                for code in _run_time_code(compile(path.read_bytes(), str(path), "exec",
                                                   dont_inherit=True))]
    config = tmp_path / "run.cfg"
    config.write_text("scenario = fig3\ngrid_points = 64\n")
    saved, called = _pop_package_modules(), set()
    sys.setprofile(lambda frame, event, _: event == "call" and called.add(frame.f_code))
    try:
        from qtunnel import cli, config as cfgmod

        runs = [([s], 0) for s in cfgmod.SCENARIOS]
        for argv, code in [*runs, (["validate", "--config", str(config)], 0), *_EDGE_RUNS]:
            assert cli.main([*argv, "--out", str(tmp_path / "out.csv")]) == code, argv
    finally:
        sys.setprofile(None)
        _pop_package_modules()
        sys.modules.update(saved)
    capsys.readouterr()
    missing = [f"{Path(code.co_filename).name}:{code.co_firstlineno} {code.co_qualname}"
               for code in expected if code not in called]
    assert not missing, "only tests call: " + ", ".join(missing)
