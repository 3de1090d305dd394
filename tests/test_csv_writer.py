"""The table-driven CSV writer against the per-value ``%.12g`` formatter.

Every value the writer emits must read exactly as ``"%.12g" % v``.  The
reference below is the row formatter that the writer replaced; the tests
compare bytes, over arbitrary doubles, rounding ties, mantissa roll-overs,
powers of ten and their neighbours, the extremes of double range, the
fixed/scientific seams and row blocks of every size around the writer's
block length, and the streamed write that ``cli.run`` makes of them.  rect
and sweep rows, which ``cli.run`` formats with ``"%.12g"`` without the
writer, must have the writer's bytes on the same columns.
"""

import errno
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtunnel import cli, csvfmt
from qtunnel.cli import main
from qtunnel.config import RunConfig
from qtunnel.errors import PrecisionError


def reference_rows(cols):
    """The writer's reference: ``%.12g`` per value, one line per row."""
    row_format = ",".join(["%.12g"] * len(cols))
    return "".join(row_format % row + "\n" for row in zip(*(c.tolist() for c in cols)))


def written(cols):
    """The text of the blocks that the writer yields for ``cols``."""
    return b"".join(csvfmt.csv_rows(cols)).decode("ascii")


def assert_rows_match(values, ncols=1):
    """Write ``values`` as rows of ``ncols`` columns (any remainder dropped)."""
    values = np.asarray(values, dtype=float)
    table = values[: values.size // ncols * ncols].reshape(-1, ncols)
    cols = [np.ascontiguousarray(table[:, j]) for j in range(ncols)]
    assert written(cols) == reference_rows(cols)


def with_neighbours(values):
    """``values`` and the doubles next to them on both sides (finite ones)."""
    values = np.asarray(values, dtype=float)
    top = np.finfo(float).max
    return np.concatenate([values, np.nextafter(values, -top), np.nextafter(values, top)])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=60),
       st.integers(1, 4))
def test_any_finite_double(values, ncols):
    assert_rows_match(values * ncols, ncols)


def test_rounding_ties():
    e = np.arange(-20, 21)
    k = np.array([0, 1, 4, 9, 99, 12345, 99999999999, 100000000000, 123456789012,
                  314159265358, 999999999998, 999999999999])
    ties = ((k[:, None] + 0.5) * 10.0 ** e[None, :]).ravel()
    assert_rows_match(with_neighbours(np.concatenate([ties, -ties])), 3)
    # doubles whose exact 12-digit scaled mantissa lies 2.5e-4 to 5e-4 from a
    # half-integer: at the edge of the writer's tie band, past the 2.3e-4
    # that its scaling can round by
    k = k[k >= 10**11]
    shift = np.concatenate([np.arange(20, 61), -np.arange(20, 61)]) * 1e-5
    candidates = (((k[:, None] + 0.5 + shift).ravel())[:, None] * 10.0 ** (e - 11)).ravel()
    near = []
    for v in candidates.tolist():
        exact = Decimal(v).scaleb(11 - Decimal(v).adjusted())
        if Decimal("2.5e-4") <= abs(exact % 1 - Decimal("0.5")) <= Decimal("5e-4"):
            near.append(v)
    assert len(near) > 1000
    assert_rows_match(with_neighbours(np.concatenate([near, np.negative(near)])), 3)


def test_mantissa_rollover():
    rollover = 999999999999.5 * 10.0 ** np.arange(-300, 297)
    assert_rows_match(with_neighbours(np.concatenate([rollover, -rollover])), 2)


def test_powers_of_ten_and_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    assert_rows_match(with_neighbours(np.concatenate([powers, -powers])), 4)


def test_extremes_of_double_range():
    extremes = [5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                2.2250738585072014e-308, 0.0, -0.0]
    assert_rows_match(with_neighbours(extremes), 1)


def test_fixed_scientific_seams():
    seams = [9.9999999999995e-5, 1e-4, 999999999999.5, 1e12, 99999999999.95, 1e11, 0.1, 1.0]
    assert_rows_match(with_neighbours(seams + [-s for s in seams]), 1)


@pytest.mark.parametrize("ncols", [1, 5, 9])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_blocks_at_the_chunk_size(ncols, offset):
    """Rows that end just before, at and just after a block boundary, with
    values that take the fallback (zeros and ties) in every block."""
    rows = csvfmt._BLOCK_VALUES // ncols * 2 + offset
    rng = np.random.default_rng(rows * ncols)
    values = rng.standard_normal(rows * ncols) * 10.0 ** rng.integers(-12, 14, rows * ncols)
    values[::97] = 0.0
    values[5::89] = 123456789012.5
    assert_rows_match(values, ncols)


def test_scalar_columns_broadcast_over_rows():
    cfg = RunConfig(scenario="fig1a", values={})
    xs = np.linspace(-1.0, 3.0, 7)
    head, cols = cli._csv_table(cfg, {"x": xs, "V": xs**2, "E": 2.0 / 3.0})
    header, names, rows = (head + written(cols)).split("\n", 2)
    assert header == f"# qtunnel v1, scenario=fig1a, params={cfg.canonical()}"
    assert names == "x,V,E"
    assert rows == reference_rows([xs, xs**2, np.full(7, 2.0 / 3.0)])


@pytest.mark.parametrize("argv", [
    ["rect"],  # one row of 14 Python floats, formatted by "%.12g" without csvfmt
    ["fig1a", "--grid-points", "300"],  # zeros outside the barrier and a scalar E
    ["sweep"],  # lists of Python floats, as rect
    ["mode-evolve", "--grid-points", "200"],
    ["fig3", "--grid-points", "20000"],  # 25 blocks streamed to the file
])
def test_scenario_rows_match_reference(tmp_path, monkeypatch, argv):
    tables, calls = [], []
    runner, csv_rows = cli._RUNNERS[argv[0]], csvfmt.csv_rows

    def recording_runner(cfg):
        tables.append(runner(cfg))
        return tables[-1]

    def recording(cols):
        calls.append(list(csv_rows(cols)))
        return iter(calls[-1])

    monkeypatch.setitem(cli._RUNNERS, argv[0], recording_runner)
    monkeypatch.setattr(csvfmt, "csv_rows", recording)
    out = tmp_path / "run.csv"
    assert main([*argv, "--out", str(out)]) == 0
    [(_, cols)] = tables
    arrays = [np.array(c, dtype=float) for c in cols]
    text = b"".join(csv_rows(arrays)).decode("ascii")
    assert text == reference_rows(arrays)
    assert out.read_text().split("\n", 2)[2] == text
    if isinstance(cols[0], list):
        assert calls == []
    else:
        [blocks] = calls
        assert len(blocks) == -(-len(arrays[0]) // (csvfmt._BLOCK_VALUES // len(cols)))


def test_write_error_after_first_block_leaves_no_file(tmp_path, monkeypatch, capsys):
    csv_rows = csvfmt.csv_rows

    def failing(cols):
        blocks = csv_rows(cols)
        yield next(blocks)
        # the temporary file holds the first block when the write fails
        [tmp] = tmp_path.iterdir()
        assert tmp.name.endswith(".tmp") and tmp.stat().st_size > 0
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(csvfmt, "csv_rows", failing)
    out = tmp_path / "fig3.csv"
    assert main(["fig3", "--grid-points", "20000", "--out", str(out)]) == 2
    assert f"output error: cannot write {out}: No space left on device" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_nonfinite_values_are_named_and_nothing_is_written(tmp_path, monkeypatch, capsys):
    cfg = RunConfig(scenario="fig1a", values={})
    with pytest.raises(PrecisionError, match="non-finite values in V, E$"):
        cli._csv_table(cfg, {"x": [0.0, 1.0], "V": [1.0, math.nan], "E": math.inf})

    def nan_profile(cfg):
        return cli._csv_table(cfg, {"x": [0.0, 1.0], "V_tot": [-math.inf, 1.0]})

    monkeypatch.setitem(cli._RUNNERS, "fig1a", nan_profile)
    out = tmp_path / "nan.csv"
    assert main(["fig1a", "--out", str(out)]) == 3
    assert "non-finite values in V_tot" in capsys.readouterr().err
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []
