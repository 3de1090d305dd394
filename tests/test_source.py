"""Static checks on the package source: compile cost, block-size and 2F1
kernel owners, the numpy submodules it reaches and the stdlib parser it does not."""

import re
import tokenize
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
    # it); core's 24-node Gauss-Legendre table is the package's one rule.
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


def test_no_module_imports_argparse():
    # config.parse_flags reads the command line; argparse would load gettext
    for path in MODULES:
        assert not re.search(r"^\s*(import|from)\s+argparse\b", path.read_text(), re.M), path.name
