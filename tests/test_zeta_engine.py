import math

import mpmath as mp
import numpy as np
import pytest

from zetascope import zeta_engine
from zetascope.errors import (
    BoundaryZeroError,
    PathThroughZeroError,
    PoleAtOneError,
    ToleranceUnreachableError,
)
from zetascope.zeta_engine import (
    SelbergSpec,
    _zeta_taylor,
    chi_factor,
    count_zeros,
    hardy_z,
    log_zeta_derivs,
    log_zeta_tracked,
    riemann_count_estimate,
    selberg_zeta_prime_over_zeta,
    weighted_von_mangoldt,
    zero_density_envelope,
    zero_ordinates,
    zeta,
    zeta_array,
    zeta_derivs,
)

# classical constants, frozen from 30-digit independent evaluations
ZETA3 = 1.2020569031595942854
LOG_DERIV_AT_2 = -0.5699609930945328064
FIRST_ZEROS = [
    14.1347251417347, 21.0220396387716, 25.0108575801457, 30.4248761258595,
    32.9350615877392, 37.5861781588257, 40.9187190121475, 43.3270732809150,
    48.0051508811672, 49.7738324776723,
]


def test_classical_values():
    assert zeta(2.0).value == pytest.approx(math.pi**2 / 6.0, abs=1e-12)
    assert zeta(3.0).value == pytest.approx(ZETA3, abs=1e-12)
    assert zeta(-1.0).value == pytest.approx(-1.0 / 12.0, abs=1e-12)


def test_independent_truncation_settings_agree():
    """Oracle: the series against mpmath at 30 digits."""
    s = np.array([2.0 + 0j, 3.0 + 0j, 0.75 + 50j])
    with mp.workdps(30):
        ref = np.array([complex(mp.zeta(mp.mpc(x.real, x.imag))) for x in s])
    assert np.max(np.abs(zeta_array(s) - ref)) < 1e-12


def test_pole_and_validation():
    with pytest.raises(PoleAtOneError):
        zeta(1.0)
    with pytest.raises(PoleAtOneError):
        zeta_array(np.array([2.0, 1.0 + 1e-14j]))
    with pytest.raises(PoleAtOneError):
        zeta_derivs(2, 1.0)


def test_first_zero_is_small():
    assert abs(zeta(0.5 + 1j * FIRST_ZEROS[0]).value) < 1e-4


def test_est_error_is_honest():
    ev = zeta(0.6 + 123.456j, tol=1e-10)
    finer = zeta(0.6 + 123.456j, tol=1e-13)
    assert abs(ev.value - finer.value) <= ev.est_error + finer.est_error


def test_log_zeta_tracked_real_axis():
    got = log_zeta_tracked(2.0, 0.0)
    assert got == pytest.approx(math.log(math.pi**2 / 6.0), abs=1e-12)


def test_log_zeta_tracked_consistency(rng):
    """exp(tracked log) must reproduce zeta; random strip points."""
    checked = 0
    while checked < 100:
        sigma0 = float(rng.uniform(0.55, 0.95))
        t = float(rng.uniform(10.0, 1e4))
        try:
            lz = log_zeta_tracked(sigma0, t)
        except PathThroughZeroError:
            continue  # path skimmed a zero; resample
        direct = zeta_array(np.array([complex(sigma0, t)]))[0]
        assert np.exp(lz) == pytest.approx(direct, abs=1e-9 * max(1.0, abs(direct)))
        checked += 1


def test_imaginary_part_continuous_along_t():
    ts = np.arange(100.0, 101.0, 1e-3)
    vals = np.array([log_zeta_tracked(0.8, float(t)).imag for t in ts])
    assert np.max(np.abs(np.diff(vals))) < 0.5  # no 2 pi branch jumps


def test_log_zeta_deriv_k0_matches_tracked():
    for (sig, t) in ((0.75, 50.0), (0.8, 1000.0)):
        d0 = log_zeta_derivs(0, sig, t)[0][0]
        assert d0 == pytest.approx(log_zeta_tracked(sig, t), abs=1e-8)


def test_log_zeta_deriv_at_two():
    derivs, err = log_zeta_derivs(1, 2.0, 0.0)
    assert derivs[1] == pytest.approx(LOG_DERIV_AT_2, abs=1e-10)
    # coarse Dirichlet-series cross-check: sum Lambda(n)/n^2 to 10^6
    from zetascope.zeta_engine import von_mangoldt_table

    lam = von_mangoldt_table(1_000_000)
    n = np.arange(2, 1_000_001, dtype=float)
    dirichlet = -np.sum(lam[2:] / n**2)
    assert derivs[1] == pytest.approx(dirichlet, abs=3e-5)


def test_log_zeta_deriv_vs_finite_difference():
    sig, t = 0.8, 200.0
    h = 1e-3
    for k in (1, 2, 3, 4):
        dk = log_zeta_derivs(k, sig, t)[0][k]
        up = log_zeta_derivs(k - 1, sig + h, t)[0][k - 1]
        dn = log_zeta_derivs(k - 1, sig - h, t)[0][k - 1]
        fd = (up - dn) / (2.0 * h)
        assert abs(dk - fd) / max(abs(dk), 1e-12) < 1e-5


def test_zeta_derivs_on_dirichlet_region():
    derivs, _ = zeta_derivs(2, 3.0 + 0j)
    n = np.arange(1, 200_000, dtype=float)
    for k in range(3):
        series = np.sum((-np.log(n)) ** k * n ** (-3.0))
        assert derivs[k] == pytest.approx(series, abs=1e-8)


def test_functional_equation(rng):
    pts = rng.uniform(0.2, 0.8, 100) + 1j * rng.uniform(10.0, 1e3, 100)
    lhs = chi_factor(pts) * zeta_array(1.0 - pts) / zeta_array(pts)
    assert np.max(np.abs(lhs - 1.0)) < 1e-8


def test_zero_ordinates_match_classical():
    zs = zero_ordinates(50.0)
    assert len(zs) == 10
    assert np.max(np.abs(zs - np.array(FIRST_ZEROS))) < 1e-9
    assert abs(len(zs) - riemann_count_estimate(50.0)) < 1.0


def test_hardy_z_is_real_zeta_magnitude():
    ts = np.array([20.0, 30.0, 40.0])
    assert np.allclose(np.abs(hardy_z(ts)), np.abs(zeta_array(0.5 + 1j * ts)), atol=1e-12)


def test_count_zeros_examples():
    assert count_zeros(0.6, 0.0, 50.0).count == 0
    # N(T), the classical zero counts
    for height, zeros in ((50.0, 10), (100.0, 29), (150.0, 52), (300.0, 138)):
        full = count_zeros(0.1, 0.0, height)
        assert full.count == zeros, height
        assert full.winding_residual < 0.25
    assert count_zeros(0.3, 0.0, 0.0).count == 0


def test_count_zeros_additive():
    a = count_zeros(0.2, 5.0, 20.0)
    b = count_zeros(0.2, 25.0, 15.0)
    c = count_zeros(0.2, 5.0, 35.0)
    assert a.count + b.count == c.count


def test_count_zeros_validation():
    with pytest.raises(ValueError):
        count_zeros(2.5, 0.0, 10.0)
    with pytest.raises(ToleranceUnreachableError):
        count_zeros(0.5, 0.0, 1e7)  # refused before any evaluation


def test_zero_density_envelope():
    log_env, expo = zero_density_envelope(0.75, 100.0)
    assert expo == pytest.approx(2.0 / 3.0)
    assert expo == pytest.approx(2.0 - 2.0 / (3.0 - 2.0 * 0.75))
    assert log_env == pytest.approx((2.0 / 3.0) * math.log(100.0) + 100.0 * math.log(math.log(100.0)))
    assert zero_density_envelope(0.999, 100.0)[1] == pytest.approx(0.0, abs=4e-3)
    assert zero_density_envelope(0.501, 100.0)[1] == pytest.approx(1.0, abs=2e-3)


def test_weighted_von_mangoldt():
    assert weighted_von_mangoldt(8, 4.0) == pytest.approx(math.log(2.0) / 2.0)
    assert weighted_von_mangoldt(8, 4.0) == pytest.approx(0.3465736, abs=1e-7)
    assert weighted_von_mangoldt(16, 4.0) == 0.0  # n = x^2 edge
    assert weighted_von_mangoldt(6, 4.0) == 0.0  # not a prime power
    assert weighted_von_mangoldt(3, 4.0) == pytest.approx(math.log(3.0))
    assert weighted_von_mangoldt(17, 4.0) == 0.0  # beyond x^2


def test_circle_enclosing_zero_is_rejected():
    with pytest.raises(PathThroughZeroError):
        log_zeta_derivs(1, 0.6, FIRST_ZEROS[0], radius=0.25)


def test_zero_csv_roundtrip(tmp_path):
    from zetascope.zeta_engine import zeros_from_csv, zeros_to_csv

    path = tmp_path / "zeros.csv"
    zeros_to_csv(path, FIRST_ZEROS)
    back = zeros_from_csv(path)
    assert np.max(np.abs(back - np.array(FIRST_ZEROS))) < 1e-11


@pytest.mark.parametrize("s", [0.75 + 100j, 0.9 + 1e5j, 2.0 + 0j, -1.0 + 3j])
def test_scalar_and_array_evaluators_agree_exactly(s):
    """zeta and zeta_array share one core: same bits, same truncation point."""
    from zetascope.zeta_engine import _zeta_eval

    ev = zeta(s)
    vals, errs, n_trunc = _zeta_eval(np.array([s]), 1e-11)
    assert ev.value == zeta_array([s])[0] == vals[0]
    assert ev.est_error == errs[0]
    assert ev.terms_used == n_trunc


def test_tolerance_below_rounding_floor_is_refused_up_front(monkeypatch):
    """No pass runs when even the first truncation's rounding floor exceeds tol."""
    from zetascope import zeta_engine

    passes = []
    blocked_sum = zeta_engine._blocked_sum
    monkeypatch.setattr(zeta_engine, "_blocked_sum", lambda *a: passes.append(a) or blocked_sum(*a))
    with pytest.raises(ToleranceUnreachableError, match="rounding floor"):
        zeta(0.75 + 1e4j, tol=1e-20)
    assert passes == []


@pytest.mark.parametrize("s", [1.001, 0.9999, 0.999 + 0.001j, 1.01 + 0.01j, 0.98, 0.999, 1.0001,
                               1.05])
def test_est_error_near_the_pole_against_mpmath(s):
    """Oracle: near s = 1, where the tail N^(1-s) / (s - 1) is most of the
    value, the estimate bounds the true error (mpmath at 30 digits)."""
    ev = zeta(s)
    with mp.workdps(30):
        ref = complex(mp.zeta(mp.mpc(complex(s).real, complex(s).imag)))
    assert abs(ev.value - ref) <= ev.est_error


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c", [1.001, 0.999 + 0.001j, 1.01 + 0.01j, 0.98, 0.0, -1.0, -2.0,
                               -0.5 + 0.3j])
def test_taylor_data_at_the_pole_and_trivial_zeros_against_mpmath(c):
    """Oracle: zeta derivatives, k <= 7, near the pole and at the trivial
    zeros, where a factor of the first term left out vanishes, are each
    within their own bound (mpmath at 30 digits), with no warning."""
    derivs, err = _zeta_taylor(np.array([complex(c)]), 7)
    with mp.workdps(30):
        ref = np.array([complex(mp.zeta(mp.mpc(complex(c).real, complex(c).imag), derivative=k))
                        for k in range(8)])
    assert np.all(np.abs(derivs[0] - ref) <= err[0])


_PROGRESSIONS = {
    "imag-9-rising": 0.75 + 1j * np.linspace(100.0, 101.6, 9),
    "imag-41-falling": 0.5 + 1j * np.linspace(1000.0, 994.0, 41),
    "imag-64-rising": 0.9 + 1j * (500.0 + 0.05 * np.arange(64)),
    "real-33-rising": np.linspace(2.0, 10.0, 33).astype(complex),
    "real-41-falling": np.linspace(2.95, -1.05, 41).astype(complex),
    "complex-64-falling": (1.5 + 300.0j) - (0.01 + 0.2j) * np.arange(64),
}


@pytest.mark.parametrize("name", sorted(_PROGRESSIONS))
def test_progression_matches_points_one_at_a_time(name):
    """An evenly spaced input, summed as centres times offsets, gives the
    values of the same points evaluated one at a time."""
    s = _PROGRESSIONS[name]
    vals = zeta_array(s)
    single = np.array([zeta_array([x])[0] for x in s])
    assert np.all(np.abs(vals - single) <= 1e-12 * (1.0 + np.abs(single)))
    # Taylor data: each value within its own bound of the one-at-a-time value
    derivs, err = _zeta_taylor(s, 3)
    single = np.array([_zeta_taylor(np.array([x]), 3)[0][0] for x in s])
    assert np.all(np.abs(derivs - single) <= err)


def test_progression_at_height_against_mpmath():
    """Oracle: at 0.9 + 1e5 i the factored sum is as accurate as the
    one-at-a-time sum (both carry the rounding of the phase t log n)."""
    s = 0.9 + 1j * (1e5 + 0.05 * np.arange(64))
    vals = zeta_array(s)
    picks = np.arange(0, 64, 9)
    with mp.workdps(30):
        ref = np.array([complex(mp.zeta(mp.mpc(s[i].real, s[i].imag))) for i in picks])
    err = np.max(np.abs(vals[picks] - ref))
    single_err = np.max(np.abs([zeta_array([s[i]])[0] for i in picks] - ref))
    assert err <= 2.0 * single_err + 1e-13


def test_only_progressions_are_factored(monkeypatch):
    """Only an input whose raveled points are an arithmetic progression
    reaches the main sum with more than one offset: rows of progressions,
    with one common step or not, are its own centres like any other input."""
    from zetascope import zeta_engine

    blocked_sum, seen = zeta_engine._blocked_sum, []
    # the width of the right factor: one column per offset and order
    monkeypatch.setattr(zeta_engine, "_blocked_sum",
                        lambda *a: seen.append(a[2]) or blocked_sum(*a))
    prog = 0.75 + 1j * (200.0 + 0.1 * np.arange(64))
    moved = prog.copy()
    moved[17] += 1e-7j
    # rows of progressions: one common step, one step per row, one row broken
    rows = 0.75 + 1j * (200.0 + 3.7 * np.arange(3)[:, None] + 0.01 * np.arange(21))
    steps = 0.75 + 1j * (200.0 + np.array([[0.01], [0.011], [0.012]]) * np.arange(21))
    broken = rows.copy()
    broken[1, 7] += 1e-7j
    cases = [
        (prog, 8),
        (np.random.default_rng(3).permutation(prog), 1),
        (moved, 1),
        (0.75 + 200.0j + 0.25 * np.exp(2j * math.pi * np.arange(64) / 64), 1),
        (prog[:8], 1),
        (rows, 1),
        (steps, 1),
        (broken, 1),
    ]
    for s, offsets in cases:
        seen.clear()
        zeta_array(s)
        assert set(seen) == {offsets}
    # Taylor data of orders 0..2: 8 offsets times 3 orders, then the rounding
    # floor's absolute sums of orders 0..3 at the one real part
    seen.clear()
    _zeta_taylor(prog, 2)
    assert seen == [8 * 3, 4]
    single = np.array([zeta_array([x])[0] for x in rows.ravel()]).reshape(rows.shape)
    assert np.all(np.abs(zeta_array(rows) - single) <= 1e-12 * np.abs(single))


@pytest.mark.filterwarnings("error")
def test_progression_near_the_pole():
    """The factored grid holds input points only: a progression whose next
    point would be s = 1 evaluates without a division by zero, and one that
    contains s = 1 is refused."""
    s = np.linspace(0.979, 0.999, 21).astype(complex)
    vals = zeta_array(s)
    single = np.array([zeta_array([x])[0] for x in s])
    assert np.all(np.abs(vals - single) <= 1e-12 * (1.0 + np.abs(single)))
    with pytest.raises(PoleAtOneError):
        zeta_array(np.linspace(0.9, 1.1, 21))


@pytest.mark.parametrize("evaluate", [
    lambda: zeta_array(0.9 + 1e5j + 0.25 * np.exp(2j * math.pi * np.arange(64) / 64)),
    lambda: zeta_array(np.array([0.9 + 1e7j])),
    lambda: _zeta_taylor(0.9 + 1e5j + 0.01j * np.arange(64), 11),
], ids=["circle-nodes-1e5", "one-point-1e7", "taylor-64-centres-1e5"])
def test_evaluator_memory_is_bounded_per_block(evaluate):
    """No temporary of zeta_array or of the Taylor kernel grows with the
    length of the sum: the peak traced allocation stays under 24 MiB at 33k
    and at 3.3M terms."""
    import tracemalloc

    zeta_array([2.0])  # the Bernoulli table is built once, outside the trace
    tracemalloc.start()
    try:
        evaluate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2**20


_batched = zeta_engine._log_zeta_line_derivs


def _one_shift(kmax, sigma, taus):
    rows = [log_zeta_derivs(kmax, sigma, t) for t in taus]
    return np.array([d for d, _ in rows]), np.array([e for _, e in rows])


def _no_own_table(sigma0, taus):
    raise AssertionError("a shift missed the branch table")


def _from_table(kmax, sigma, taus):
    """Looked up in the branch table of a grid of step 0.13 widened by a step
    each side, as a log scan builds it: no shift is a table point, and the
    last lies outside the grid, within a step. The bound is the batched
    call's, which the table changes only through log zeta itself."""
    grid = taus[0] - 0.05 + 0.13 * np.arange(3)
    line = zeta_engine._log_zeta_line(sigma, np.concatenate([[grid[0] - 0.13], grid,
                                                             [grid[-1] + 0.13]]))
    assert not np.isin(taus, line[0]).any() and taus[-1] > grid[-1]
    zeta_d = _zeta_taylor(sigma + 1j * taus, kmax)[0]
    err = _batched(kmax, sigma, taus)[1]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zeta_engine, "_log_zeta_line", _no_own_table)
        return zeta_engine._log_from_zeta(zeta_d, sigma, taus, line), err


@pytest.mark.parametrize("evaluate, kmax, tau", [
    (_batched, 2, 500.0), (_batched, 2, 2000.0), (_batched, 2, 5000.0),
    (_one_shift, 2, 500.0), (_one_shift, 2, 2000.0), (_one_shift, 2, 5000.0),
    (_one_shift, 7, 2000.0), (_from_table, 2, 2000.0), (_from_table, 2, 5000.0),
], ids=["500.0", "2000.0", "5000.0",
        "one-shift-500.0", "one-shift-2000.0", "one-shift-5000.0", "one-shift-k7-2000.0",
        "table-2000.0", "table-5000.0"])
def test_batched_log_derivs_against_mpmath(evaluate, kmax, tau, mp_log_zeta_derivs):
    """Oracle: log-zeta derivatives of a run of shifts, batched, one shift
    at a time through log_zeta_derivs, or looked up in a wider branch table;
    for k >= 1 the reported error is a bound, up to the order cap of the log
    scan."""
    taus = tau + np.array([0.0, 0.15, 0.3])
    derivs, err = evaluate(kmax, 0.75, taus)
    for t, d, e in zip(taus, derivs, err):
        ref = mp_log_zeta_derivs(0.75, t, kmax)
        assert np.max(np.abs(d[1:] - ref[1:])) <= e, t
        # log zeta itself carries the error of the zeta value
        assert abs(d[0] - ref[0]) <= max(e, 1e-9 * (1.0 + np.max(np.abs(d)))), t


def test_table_miss_anchors_an_own_table(monkeypatch):
    """A shift outside the branch table, or one the table is too coarse for
    (a principal step above 1 rad to the next table point), gives the
    derivatives of line=None: the call anchors a table of its own run."""
    taus = 2000.0 + np.array([0.0, 0.15, 0.3])
    zeta_d = _zeta_taylor(0.75 + 1j * taus, 2)[0]
    own = zeta_engine._log_from_zeta(zeta_d, 0.75, taus)
    assert np.array_equal(own, zeta_engine._log_zeta_line_derivs(2, 0.75, taus)[0])
    short = zeta_engine._log_zeta_line(0.75, 2000.0 + 0.1 * np.arange(-1, 3))
    params, vals, arg = zeta_engine._log_zeta_line(0.75, np.linspace(1998.0, 2002.0, 41))
    ends = np.searchsorted(params, [1999.0, 2001.0])  # zeta turns by 1.74 rad between
    coarse = (params[ends], vals[ends], arg[ends])
    anchors = []
    real = zeta_engine.log_zeta_tracked
    monkeypatch.setattr(zeta_engine, "log_zeta_tracked",
                        lambda *a: anchors.append(a) or real(*a))
    for line in (short, coarse):
        assert np.array_equal(zeta_engine._log_from_zeta(zeta_d, 0.75, taus, line), own)
    assert len(anchors) == 4


@pytest.mark.parametrize("t", [500.0, 1000.0, 2000.0, 5000.0])
def test_batched_zeta_derivs_against_mpmath(t):
    """Oracle: batched zeta derivatives, k <= 7, each within its own bound."""
    centres = 0.75 + 1j * (t + np.array([0.0, 0.37, 0.74]))
    derivs, err = _zeta_taylor(centres, 7)
    for c, d, e in zip(centres, derivs, err):
        with mp.workdps(30):
            ref = np.array([complex(mp.zeta(mp.mpc(c.real, c.imag), derivative=k))
                            for k in range(8)])
        assert np.all(np.abs(d - ref) <= e), c


def test_line_continuation_sees_a_zero_right_of_the_line():
    """Continued along Re s = 0.4 past the zero at 1/2 + 14.13i, log zeta misses
    the horizontal continuation by 2 pi: the batch refuses."""
    from zetascope.zeta_engine import _log_zeta_line_derivs

    with pytest.raises(PathThroughZeroError, match="right of the line"):
        _log_zeta_line_derivs(1, 0.4, np.array([14.0, 14.3]))


@pytest.mark.parametrize("s", [2.0 + 50.0j, 1.5 + 30.3j, 0.8 + 1000.0j])
def test_selberg_residual_bounds_true_error(s, zeros_to_1060):
    """The explicit formula's reported residual measures its true error
    against mpmath zeta'/zeta at 30 digits."""
    value, residual = selberg_zeta_prime_over_zeta(s, SelbergSpec(x=40.0, zeros=zeros_to_1060))
    with mp.workdps(30):
        ref = complex(mp.zeta(mp.mpc(s), derivative=1) / mp.zeta(mp.mpc(s)))
    assert abs(value - ref) <= residual + 1e-9
