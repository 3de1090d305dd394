"""Special-function kernel against independent high-precision oracles.

The oracles here are deliberately not the kernel's own algorithms: the
hypergeometric reference is the raw power series summed term by term in
50-digit arithmetic, or mpmath's arbitrary-precision 2F1, and derivative
checks use finite differences of the oracle.
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from qtunnel import core, specfun
from qtunnel.errors import ConvergenceError, DomainError

mp.mp.dps = 50


def series_oracle(a, b, c, z, terms=200):
    """Brute-force Gauss power series in extended precision (mpc result)."""
    total = mp.mpc(1)
    term = mp.mpc(1)
    a, b, c, z = mp.mpc(a), mp.mpc(b), mp.mpc(c), mp.mpf(z)
    for n in range(terms):
        term *= (a + n) * (b + n) * z / ((c + n) * (n + 1))
        total += term
    return total


def hyp2f1(a, b, c, z, w=None):
    """The kernel's result for the one set (a, b, c) at a scalar or 1-D z,
    with w = 1 - z unless given: value and dz shaped like z, bounds
    (2,) + z.shape."""
    z = np.asarray(z, dtype=float)
    w = 1.0 - z if w is None else np.asarray(w, dtype=float)
    res = specfun.hyp2f1_ex([a], [b], [c], z.ravel(), w.ravel())
    return res._replace(value=res.value[0].reshape(z.shape)[()],
                        dz=res.dz[0].reshape(z.shape)[()],
                        bounds=res.bounds[:, 0].reshape((2,) + z.shape))


# --- log_gamma -------------------------------------------------------------

def test_log_gamma_matches_mpmath():
    # a complex grid with |Im z| <= 50 on both sides of Re z = 1/2 (the
    # reflection seam) and down to Re z = -12, points 1e-8 from the poles,
    # and |Im z| up to 1000, where sin(pi z) overflows and Gamma underflows.
    # exp(log_gamma) is compared with Gamma wherever Gamma is a double, and
    # log_gamma modulo 2 pi i with mpmath's everywhere.  The tolerance is the
    # rounding of the sums: eps |log Gamma|, and eps |log Gamma(z + 10)| (~20)
    # for the shifted points.
    grid = (np.linspace(-12.3, 15.7, 29)[:, None] + 1j * np.linspace(-50.0, 50.0, 21)).ravel()
    poles = [-n + d for n in (0, 1, 3, 7) for d in (1e-8, -1e-8, 1e-8j)]
    far = [0.3 + 300j, -0.5 - 1000j, 1.0 + 1000j, 12.0 - 700j]
    z = np.concatenate([grid, poles, far, [0.5, 1.0, 2.0, 3.5]])
    got = specfun.log_gamma(z)
    for zi, lg in zip(z, got):
        want = mp.loggamma(mp.mpc(zi.real, zi.imag))
        tol = 1e-15 * (20.0 + abs(complex(want)))
        if abs(want.real) < 700:
            gamma = complex(mp.exp(want))
            assert abs(np.exp(lg) - gamma) <= tol * abs(gamma), zi
        turns = complex(lg - want).imag / (2.0 * math.pi)
        assert abs(complex(lg - want) - 2j * math.pi * round(turns)) <= tol, zi


def test_log_gamma_keeps_the_shape():
    z = np.array([[1.5, 2.0 + 1j], [-0.5, 20.0]])
    got = specfun.log_gamma(z)
    assert got.shape == (2, 2)
    assert np.array_equal(got.ravel(), specfun.log_gamma(z.ravel()))
    assert specfun.log_gamma(np.empty((0, 4))).shape == (0, 4)


# --- hyp2f1 ---------------------------------------------------------------

def test_hyp2f1_empty_series():
    assert hyp2f1(0.3 + 1j, -2.0, 1.7, 0.0).value == 1.0


def test_hyp2f1_log_case_value():
    # 2F1(1,1;2;z) = -ln(1-z)/z, so z = 1/2 gives 2 ln 2
    expected = 2.0 * math.log(2.0)
    assert complex(series_oracle(1, 1, 2, 0.5)).real == pytest.approx(expected, rel=1e-14)
    assert hyp2f1(1.0, 1.0, 2.0, 0.5).value == pytest.approx(expected, rel=1e-10)


def test_hyp2f1_complex_parameters_z09():
    # frozen from the 50-digit series oracle
    expected = 0.84906703229542594 - 0.083615098169028495j
    a, b, c = 1 - 0.1j, -0.1j, 1 + 0.5j
    assert complex(series_oracle(a, b, c, 0.9, terms=600)) == pytest.approx(expected, rel=1e-14)
    got = hyp2f1(a, b, c, 0.9).value
    assert got == pytest.approx(expected, rel=1e-10)


def test_hyp2f1_matches_oracle_random_sweep():
    rng = np.random.default_rng(21)
    for _ in range(25):
        a = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        b = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        c = complex(rng.uniform(0.5, 3), rng.uniform(-1, 1))
        z = rng.uniform(0.0, 0.95)
        ref = complex(mp.hyp2f1(a, b, c, mp.mpf(z)))
        assert hyp2f1(a, b, c, z).value == pytest.approx(ref, rel=1e-10)


def test_hyp2f1_contiguous_relation():
    # c(c-1)(z-1) F(c-1) + c[c-1-(2c-a-b-1)z] F(c) + (c-a)(c-b) z F(c+1) = 0
    rng = np.random.default_rng(7)
    for _ in range(40):
        a = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        b = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        c = complex(rng.uniform(0.5, 3), rng.uniform(-1, 1))
        z = rng.uniform(0.0, 0.9)
        f_m = hyp2f1(a, b, c - 1, z).value
        f_0 = hyp2f1(a, b, c, z).value
        f_p = hyp2f1(a, b, c + 1, z).value
        residual = (
            c * (c - 1) * (z - 1) * f_m
            + c * (c - 1 - (2 * c - a - b - 1) * z) * f_0
            + (c - a) * (c - b) * z * f_p
        )
        assert abs(residual) <= 1e-8 * abs(f_0)


def test_hyp2f1_degenerate_parameter_flagged():
    a, b = 0.7, 0.3
    c = a + b + 1.0 + 3e-7  # c-a-b within 1e-6 of an integer
    result = hyp2f1(a, b, c, 0.8)
    assert result.degraded
    ref = complex(mp.hyp2f1(a, b, c, mp.mpf("0.8")))
    assert result.value == pytest.approx(ref, rel=1e-5)
    clean = hyp2f1(a, b, 2.7, 0.8)
    assert not clean.degraded


def test_hyp2f1_near_one_with_exact_complement():
    w = 1e-13
    a, b, c = 1 - 0.1j, -0.1j, 1 + 0.5j
    ref = complex(mp.hyp2f1(a, b, c, 1 - mp.mpf(w)))
    got = hyp2f1(a, b, c, 1.0 - w, w).value
    assert got == pytest.approx(ref, rel=1e-10)


def test_hyp2f1_domain_and_pole_errors():
    with pytest.raises(DomainError):
        hyp2f1(1.0, 1.0, 2.0, -0.1)
    with pytest.raises(DomainError):
        hyp2f1(1.0, 1.0, 2.0, 1.0)
    with pytest.raises(DomainError):
        hyp2f1(1.0, 1.0, -2.0, 0.3)
    with pytest.raises(DomainError):
        hyp2f1(1.0, 1.0, 2.0, 0.9, 0.3)


def test_hyp2f1_convergence_error():
    with pytest.raises(ConvergenceError):
        hyp2f1(5000.0, 5000.0, 1.0, 0.5)


def test_convergence_error_behind_degenerate_set_names_its_caller():
    # set 0 is degenerate (c - a - b near 1): its two shifted copies put four
    # w-series ahead of set 1's failing one on z > 1/2
    with pytest.raises(ConvergenceError) as err:
        specfun.hyp2f1_ex([0.7, 1e4], [0.3, 1e4], [2.0000003, 2.5], np.array([1e-9, 0.6]),
                          np.array([1.0 - 1e-9, 0.4]))
    assert str(err.value).endswith("(a, b, c) = ((10000+0j), (10000+0j), (2.5+0j)), z = 0.6")


# --- array z ----------------------------------------------------------------

# crosses the z = 1/2 seam between the series and the transformed branch and
# runs up to z = 1 - 1e-12, with 1 - z given exactly
SEAM_W = np.concatenate([np.geomspace(1e-12, 0.45, 12), [0.5, 0.5 + 1e-12],
                         np.linspace(0.55, 1.0, 6)])
SEAM_Z = 1.0 - SEAM_W


@pytest.mark.parametrize("a, b, c", [
    (1 - 0.3j, -0.3j, 1 + 0.5j),
    (1 - 0.066j, -0.066j, 1 + 0.5j),
    (0.4 + 0.2j, -1.1j, 1.9 - 0.3j),
])
def test_hyp2f1_array_matches_oracle_across_seam(a, b, c):
    res = hyp2f1(a, b, c, SEAM_Z, SEAM_W)
    assert res.value.shape == res.dz.shape == SEAM_Z.shape
    assert not res.degraded
    for z, w, f, df in zip(SEAM_Z, SEAM_W, res.value, res.dz):
        zm = 1 - mp.mpf(float(w))
        ref = complex(mp.hyp2f1(a, b, c, zm))
        ref_dz = complex(mp.mpf(1) * a * b / c * mp.hyp2f1(a + 1, b + 1, c + 1, zm))
        assert f == pytest.approx(ref, rel=1e-10), f"z = {z}"
        assert df == pytest.approx(ref_dz, rel=1e-10), f"z = {z}"


@pytest.mark.parametrize("a, b, c", [
    (1 - 0.3j, -0.3j, 1 + 0.5j),
    (0.7, 0.3, 2.0000003),  # degenerate c-a-b on the z > 1/2 points
])
def test_hyp2f1_array_equals_scalar_calls(a, b, c):
    res = hyp2f1(a, b, c, SEAM_Z, SEAM_W)
    scalars = [hyp2f1(a, b, c, float(z), float(w))
               for z, w in zip(SEAM_Z, SEAM_W)]
    assert [r.value for r in scalars] == res.value.tolist()
    assert [r.dz for r in scalars] == res.dz.tolist()
    assert sum(r.terms for r in scalars) == res.terms
    assert any(r.degraded for r in scalars) == res.degraded


def test_hyp2f1_array_vanishing_parameter_is_exact():
    res = hyp2f1(1.0 + 0.3j, 0.0, 1.0 + 0.5j, SEAM_Z, SEAM_W)
    assert np.all(res.value == 1.0)
    assert np.all(res.dz == 0.0)
    assert res.terms == 0


def test_hyp2f1_array_errors():
    with pytest.raises(DomainError):
        hyp2f1(1.0, 1.0, 2.0, np.array([0.1, -0.1, 0.3]))
    with pytest.raises(DomainError):
        hyp2f1(1.0, 1.0, 2.0, np.array([0.1, 1.0]))
    with pytest.raises(DomainError):
        hyp2f1(1.0, 1.0, 2.0, np.array([0.2, 0.9]), np.array([0.8, 0.3]))
    with pytest.raises(DomainError):
        hyp2f1(1.0, 1.0, -2.0, np.array([0.1, 0.3]))
    with pytest.raises(ConvergenceError):
        hyp2f1(5000.0, 5000.0, 1.0, np.array([0.1, 0.5]))


# --- several parameter sets in one call ---------------------------------------

# mode-function parameters (1 - ix, -ix; 1 + iy) with omega_-/rho = x from 0.05
# to 5, whose series stop at different orders, plus a vanishing b and a c-a-b
# within 1e-6 of an integer on the z > 1/2 points; z includes 0 and 1/2
BATCH_SETS = [(1 - 1j * x, -1j * x, 1 + 1j * y)
              for x, y in [(0.05, 0.5), (0.3, 1.0), (1.0, 0.7), (2.5, 3.0), (5.0, 2.0)]]
BATCH_SETS += [(1.0 + 0.3j, 0.0, 1.0 + 0.5j), (0.7, 0.3, 2.0000003)]
BATCH_HEAD = np.concatenate([[0.0, 1e-9], np.linspace(0.05, 0.5, 10)])
BATCH_Z = np.concatenate([BATCH_HEAD, SEAM_Z])
BATCH_W = np.concatenate([1.0 - BATCH_HEAD, SEAM_W])


def test_hyp2f1_batched_equals_one_set_calls():
    a, b, c = zip(*BATCH_SETS)
    res = specfun.hyp2f1_ex(a, b, c, BATCH_Z, BATCH_W)
    singles = [hyp2f1(*p, BATCH_Z, BATCH_W) for p in BATCH_SETS]
    assert res.value.shape == res.dz.shape == (len(BATCH_SETS), BATCH_Z.size)
    assert res.bounds.shape == (2, len(BATCH_SETS), BATCH_Z.size)
    for row, single in enumerate(singles):
        assert res.value[row].tobytes() == single.value.tobytes()
        assert res.dz[row].tobytes() == single.dz.tobytes()
        assert res.bounds[:, row].tobytes() == single.bounds.tobytes()
    lengths = [single.terms for single in singles]
    assert len(set(lengths)) == len(lengths)  # the sets stop at different orders
    assert res.terms == sum(lengths)
    assert [single.degraded for single in singles] == [False] * 6 + [True]
    assert res.degraded
    # the bounds read 1.0 on set 5, exact with b = 0, and on set 6's
    # degraded pairs
    assert np.all(res.bounds[:, 5] == 1.0)
    assert np.all(res.bounds[:, 6, BATCH_Z > 0.5] == 1.0)


@pytest.mark.parametrize("x, y", [(8.0, 7.5), (13.0, 10.0)])
def test_hyp2f1_cancellation_bound_covers_rounding(x, y):
    # the default mode's parameters at barrier widths ~15 and ~20: the series
    # cancels, and each pair's bounds times epsilon cover its error of F and
    # dF/dz
    a, b, c = 1 - 1j * x, -1j * x, 1 + 1j * y
    z = np.linspace(0.1, 0.5, 5)
    res = hyp2f1(a, b, c, z)
    assert np.all(res.bounds.max(axis=1) > 100)
    eps = np.finfo(float).eps
    for zi, f, df, (bound, dz_bound) in zip(z, res.value, res.dz, res.bounds.T):
        zm = mp.mpf(float(zi))
        ref = complex(mp.hyp2f1(a, b, c, zm))
        ref_dz = complex(mp.mpf(1) * a * b / c * mp.hyp2f1(a + 1, b + 1, c + 1, zm))
        assert abs(f - ref) <= eps * bound * abs(ref)
        assert abs(df - ref_dz) <= eps * dz_bound * abs(ref_dz)


# mode-function sets (1 - ix, -ix; 1 + iy) from x = 0.05 to 13, each on
# points of both branches
ACCURACY_SETS = [(0.05, 0.5), (0.3, 1.0), (1.0, 0.7), (2.5, 3.0), (5.0, 2.0), (8.0, 7.5),
                 (13.0, 10.0)]
ACCURACY_Z = np.array([0.01, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 0.99])


@pytest.mark.parametrize("x, y", ACCURACY_SETS)
def test_hyp2f1_value_and_dz_accuracy(x, y):
    # on z <= 1/2 the series is summed until every later term of F, and of
    # dF/dz, is below 1e-17, so what is left is rounding: 4 eps times the
    # pair's bound covers both.  A stop rule on F's terms alone left dF/dz
    # 61 eps times its bound off at x = 0.05, z = 1/2.  On z > 1/2 the
    # log-Gamma prefactors add rounding that the bound does not count; there
    # the kernel keeps its 12 significant digits
    a, b, c = 1 - 1j * x, -1j * x, 1 + 1j * y
    eps = np.finfo(float).eps
    mp.mp.dps = 40
    try:
        for zi in ACCURACY_Z:
            res = hyp2f1(a, b, c, zi)
            zm = mp.mpf(float(zi))
            ref = complex(mp.hyp2f1(a, b, c, zm))
            ref_dz = complex(a * b / c * mp.hyp2f1(a + 1, b + 1, c + 1, zm))
            tol, dz_tol = 4 * eps * res.bounds if zi <= 0.5 else (core.DIGITS_TOL,) * 2
            assert abs(res.value - ref) <= tol * abs(ref), zi
            assert abs(res.dz - ref_dz) <= dz_tol * abs(ref_dz), zi
    finally:
        mp.mp.dps = 50


PROBES = np.array([0.013, 0.2, 0.37, 0.49])


@pytest.mark.parametrize("others", [
    np.linspace(0.001, 0.3, 40),  # shorter series only
    np.linspace(0.02, 0.5, 40),  # up to z = 1/2
    np.linspace(0.02, 0.98, 40),  # across to z > 1/2
    np.linspace(0.001, 0.5, 9000),  # more pairs than a block of modes.grid_blocks
])
def test_hyp2f1_pair_length_is_its_own(others):
    # a pair's length, and so its value, dz and bounds, comes from its own
    # set and z, not from the call's other points
    a, b, c = 1 - 2.5j, -2.5j, 1 + 3j
    alone = [hyp2f1(a, b, c, np.array([p])) for p in PROBES]
    rest = hyp2f1(a, b, c, others)
    res = hyp2f1(a, b, c, np.concatenate([others, PROBES]))
    for k, one in enumerate(alone):
        assert res.value[others.size + k].tobytes() == one.value.tobytes()
        assert res.dz[others.size + k].tobytes() == one.dz.tobytes()
        assert res.bounds[:, others.size + k].tobytes() == one.bounds.tobytes()
    assert res.bounds[:, :others.size].tobytes() == rest.bounds.tobytes()
    assert res.terms == rest.terms + sum(one.terms for one in alone)


def test_hyp2f1_work_on_the_default_fig3_grid(monkeypatch, tmp_path):
    # the series lengths of the default fig3 call (2,000 points) stay within
    # 1.25 times those of the stop rule on F's terms alone (51,562): a loose
    # tail bound would add work without adding digits
    from qtunnel.cli import main
    calls = []
    kernel = specfun.hyp2f1_ex

    def counting(*args, **kwargs):
        calls.append(kernel(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(specfun, "hyp2f1_ex", counting)
    assert main(["fig3", "--out", str(tmp_path / "fig3.csv")]) == 0
    assert len(calls) == 1
    assert calls[0].terms <= 1.25 * 51562


def test_hyp2f1_one_loop_equals_each_branch_alone():
    # the z <= 1/2 and z > 1/2 points of a call share one series loop; each
    # point keeps the bits it has in a call on its own branch's points
    a, b, c = zip(*BATCH_SETS)
    res = specfun.hyp2f1_ex(a, b, c, BATCH_Z, BATCH_W)
    near = BATCH_Z <= 0.5
    parts = [specfun.hyp2f1_ex(a, b, c, BATCH_Z[m], BATCH_W[m]) for m in (near, ~near)]
    for field in ("value", "dz", "bounds"):
        joined = np.concatenate([getattr(p, field) for p in parts], axis=-1)
        assert np.concatenate([getattr(res, field)[..., m] for m in (near, ~near)],
                              axis=-1).tobytes() == joined.tobytes()
    assert res.terms == sum(p.terms for p in parts)
    assert res.degraded and parts[1].degraded and not parts[0].degraded


def test_hyp2f1_convergence_error_names_the_callers_set():
    # the z = 0.6 point fails in a w-series of the transformation, whose own
    # parameters are (1e4, 1e4, 19998.5); the error names the caller's set
    with pytest.raises(ConvergenceError,
                       match=r"\(a, b, c\) = \(\(10000\+0j\), \(10000\+0j\), "
                             r"\(2\.5\+0j\)\), z = 0\.6$"):
        hyp2f1(1e4, 1e4, 2.5, np.array([1e-9, 0.6]))


def test_hyp2f1_overflowing_terms_raise_early():
    # the series' coefficients overflow a double before the z = 0.1 terms
    # fall off; the coefficient build stops there, long before the
    # 10,000-term limit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError,
                           match=r"^2F1 series terms overflow a double at \(a, b, c\) = "
                                 r"\(\(5000\+0j\), \(5000\+0j\), \(1\+0j\)\), z = 0\.1$"):
            hyp2f1(5000.0, 5000.0, 1.0, np.array([0.1, 0.5]))


# --- pieces of one call ------------------------------------------------------

def assert_pieces_match_whole(a, b, c, z, w, pieces):
    """The call on all of z equals bit for bit the calls on ``pieces``
    consecutive sub-grids, and its series lengths add up over them."""
    whole = specfun.hyp2f1_ex(a, b, c, z, w)
    parts = [specfun.hyp2f1_ex(a, b, c, zp, wp)
             for zp, wp in zip(np.array_split(z, pieces), np.array_split(w, pieces))]
    for field in ("value", "dz", "bounds"):
        joined = np.concatenate([getattr(p, field) for p in parts], axis=-1)
        assert getattr(whole, field).tobytes() == joined.tobytes()
    assert whole.terms == sum(p.terms for p in parts)
    assert whole.degraded == any(p.degraded for p in parts)


def test_hyp2f1_pieces_of_one_set_across_the_seam():
    # 15,000 direct-series pairs and 2 x 15,000 w-series pairs in one pass
    w = np.linspace(1.0, 1e-3, 30000)
    assert_pieces_match_whole([1 - 0.3j], [-0.3j], [1 + 0.5j], 1.0 - w, w, pieces=8)


def test_hyp2f1_pieces_of_a_batch_match_the_whole():
    # 6 direct series (b = 0 is exact) and 14 w-series (the degenerate set
    # has two shifted copies): ~25,000 pairs; each piece holds at most
    # 20 x 400 pairs
    a, b, c = zip(*BATCH_SETS)
    w = np.linspace(1.0, 0.02, 2500)
    assert_pieces_match_whole(a, b, c, 1.0 - w, w, pieces=7)


def test_hyp2f1_convergence_error_at_a_late_point_names_it():
    # of 20,000 points only z = 0.25, late in the grid, overflows: the call
    # on the whole grid names it as the call on its piece does
    z = np.linspace(1e-9, 1e-6, 20000)
    z[17000] = 0.25
    texts = []
    for zp in (z, z[16000:18000]):
        with pytest.raises(ConvergenceError) as err:
            hyp2f1(5000.0, 5000.0, 1.0, zp)
        texts.append(str(err.value))
    assert texts[0] == texts[1]
    assert texts[0].endswith("(5000+0j), (1+0j)), z = 0.25")


@pytest.mark.parametrize("a, z", [(300.0, 0.7), (5000.0, 0.9)])
def test_hyp2f1_overflow_bounds_are_inf(a, z):
    # the z > 1/2 prefactors overflow a double: the kernel returns the pair
    # with inf in both bounds, and no warning; modes.log_derivative raises
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = hyp2f1(a, a, 1.5, np.array([0.0, z]))
    assert not (np.isfinite(res.value[1]) and np.isfinite(res.dz[1]))
    assert (res.bounds[:, 1] == math.inf).all()
    assert (res.bounds[:, 0] * np.finfo(float).eps <= core.DIGITS_TOL).all()


def test_hyp2f1_large_finite_value_kept():
    res = hyp2f1(60.0, 60.0, 1.5, np.array([0.9]))
    ref = complex(mp.hyp2f1(60, 60, 1.5, mp.mpf("0.9")))
    assert abs(ref) == pytest.approx(3.04e150, rel=1e-3)
    assert res.value[0] == pytest.approx(ref, rel=1e-10)


def test_hyp2f1_cancellation_guard():
    # barrier width 40: the terms reach ~1e16 |F|, so no digit of F is left;
    # the kernel returns the pair, and its bounds fail the 12-digit verdict
    assert hyp2f1(1 - 0.07j, -0.07j, 1 + 0.5j, 0.5).bounds.max() < 1.2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = hyp2f1(1 - 40j, -40j, 1 + 20j, np.array([0.1, 0.5]))
    assert np.isfinite(res.value).all() and np.isfinite(res.dz).all()
    assert res.bounds[:, 1].max() * np.finfo(float).eps > core.DIGITS_TOL


# --- dF/dz (hyp2f1_ex(...).dz) ---------------------------------------------

def test_hyp2f1_dz_first_term():
    a, b, c = 0.4 + 0.2j, -1.1j, 1.9
    assert hyp2f1(a, b, c, 0.0).dz == pytest.approx(a * b / c, rel=1e-14)


def test_hyp2f1_dz_log_case():
    # finite differences of the oracle series at z = 1/2
    h = mp.mpf("1e-12")
    fd = complex((series_oracle(1, 1, 2, mp.mpf("0.5") + h, 400)
                  - series_oracle(1, 1, 2, mp.mpf("0.5") - h, 400)) / (2 * h))
    got = hyp2f1(1.0, 1.0, 2.0, 0.5).dz
    assert got == pytest.approx(fd, rel=1e-9)
    # analytic value: d/dz[-ln(1-z)/z] at 1/2 = 4 + 4 ln(1/2)
    assert got == pytest.approx(4.0 + 4.0 * math.log(0.5), rel=1e-10)


def test_hyp2f1_dz_vanishing_parameter():
    assert hyp2f1(0.0, 1.3, 2.2, 0.7).dz == 0.0
