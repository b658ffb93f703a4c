import collections
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from zetascope import scan as scan_module
from zetascope import zeta_engine
from zetascope.errors import (
    PathThroughZeroError,
    WindowConstraintError,
    ZeroConstantTermError,
)
from zetascope.scan import (
    _CHUNK,
    Hit,
    ScanResult,
    ScanWindow,
    _candidate_indices,
    _refine_all,
    _run_scan,
    density_estimate,
    refine_hit,
    scan_derivs,
    scan_log_derivs,
    scan_zeta_derivs,
)
from zetascope.zeta_engine import (
    _abs_sum,
    _em_series,
    _taylor_model,
    _truncation,
    _zeta_taylor,
    log_zeta_derivs,
    zeta_derivs,
)


def test_window_constraint_rejection():
    with pytest.raises(WindowConstraintError) as err:
        ScanWindow(t=1e4, h=10.0, eps=0.1)
    assert err.value.h_min == pytest.approx(20.7526, abs=1e-3)
    assert "20.75" in str(err.value)
    with pytest.raises(WindowConstraintError):
        ScanWindow(t=100.0, h=200.0, eps=0.1)  # H > T


def test_window_default_step_and_grid():
    w = ScanWindow(t=1000.0, h=20.0, eps=0.1)
    assert w.step == pytest.approx(2.0 * math.pi / (20.0 * math.log(1000.0)))
    g = w.grid()
    assert g[0] == 1000.0
    assert g[-1] <= 1000.0 + 20.0
    # the default step has no value at t = 1: such a window names its own
    with pytest.raises(ValueError, match="t > 1"):
        ScanWindow(t=1.0, h=1.0, eps=0.35)
    assert ScanWindow(t=1.0, h=1.0, eps=0.35, step=0.1).step == 0.1


@pytest.mark.parametrize("name, value", [
    ("step", math.inf), ("step", math.nan), ("t", math.inf), ("t", math.nan),
    ("h", math.inf), ("h", math.nan),
])
def test_window_refuses_non_finite_numbers(name, value):
    """An infinite step made the grid [nan], on which the Taylor model's
    centre search never ended; each non-finite number is refused here."""
    args = {"t": 1e4, "h": 25.0, "eps": 0.35, "step": 0.01, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
        ScanWindow(**args)


def test_degenerate_two_point_grid():
    w = ScanWindow(t=2.0, h=1.26, eps=0.1, step=1.26)
    assert len(w.grid()) == 2


def test_refine_hit_known_minimum():
    hit = refine_hit(3.1, lambda t: np.abs(np.sin(t)), 0.1)
    assert abs(hit.tau - math.pi) < 1e-6


def test_refine_hit_constant_objective():
    hit = refine_hit(5.0, lambda t: np.full_like(t, 7.25), 0.5)
    assert hit.tau == 5.0


def test_refine_never_leaves_radius():
    hit = refine_hit(3.0, lambda t: -t, 0.05)  # pushes right, must clamp
    assert hit.tau <= 3.05 + 1e-12


_V_AT = -0.0456789123  # the vertex of the asymmetric V below


@pytest.mark.parametrize("name, objective, taus0, radius", [
    ("|sin| near pi and 2 pi", lambda t: np.abs(np.sin(t)), [3.1, 6.2, 3.18, 6.35], 0.1),
    ("constant", lambda t: np.full(np.shape(t), 7.25), [5.0, -2.0, 1e3], 0.5),
    ("-t clamps right", lambda t: -np.asarray(t), [3.0, 10.0, 1e4], 0.05),
    # a flat first candidate keeps its shift while the others move
    ("flat, then |sin|", lambda t: np.where(np.asarray(t) < 50.0, np.abs(np.sin(t)), -1.0),
     [60.0, 3.1, 6.2, 60.0, 9.5], 0.1),
    # a kinked minimum with slopes 10 and 1, which no level's grid meets
    ("asymmetric V", lambda t: np.where(np.asarray(t) < _V_AT, 10.0 * (_V_AT - np.asarray(t)),
                                        np.asarray(t) - _V_AT),
     [0.0, -0.03, 0.02], 0.1),
])
def test_refine_all_matches_refine_hit(name, objective, taus0, radius):
    """Lockstep refinement gives each candidate the hit refine_hit gives it
    alone, in exactly 1 + 6 objective calls (the starting points, then one
    61-point grid per level) for any number of candidates, with no vertex
    fit: a kinked minimum lands where it is, not where equal slopes put it."""
    shapes = []

    def counted(t):
        shapes.append(np.shape(t))
        return objective(t)

    taus, vals = _refine_all(taus0, counted, radius)
    assert len(shapes) == 7
    assert shapes[0] == (len(taus0),) and (len(taus0), 61) in shapes
    for tau0, tau, val in zip(taus0, taus, vals):
        hit = refine_hit(tau0, objective, radius)
        assert abs(tau - hit.tau) <= 1e-12 * max(1.0, abs(tau0)), name
        assert val == hit.residuals[0]
        assert tau0 - radius <= tau <= tau0 + radius
    if name.startswith("-t"):
        assert np.allclose(taus, np.add(taus0, radius), rtol=0.0, atol=1e-12)
    if name.startswith("|sin|"):
        assert np.allclose(taus, [math.pi, 2 * math.pi, math.pi, 2 * math.pi], atol=1e-6)
    if name == "asymmetric V":
        assert np.all(np.abs(taus - _V_AT) <= 2e-10)


def test_self_referential_log_scan():
    targets, _ = log_zeta_derivs(1, 0.75, 500.0)
    w = ScanWindow(t=495.0, h=10.0, eps=1e-3)
    result = scan_log_derivs(tuple(targets), 0.75, w)
    assert result.wall_time > 0.0
    assert len(result.hits) >= 1
    best = min(result.hits, key=lambda h: abs(h.tau - 500.0))
    assert abs(best.tau - 500.0) < w.step
    assert best.max_residual < 1e-3


def test_self_referential_zeta_scan():
    targets, _ = zeta_derivs(2, 0.75 + 777.7j)
    w = ScanWindow(t=770.0, h=15.0, eps=1e-3)
    result = scan_zeta_derivs(tuple(targets), 0.75, w)
    assert len(result.hits) >= 1
    best = min(result.hits, key=lambda h: abs(h.tau - 777.7))
    assert abs(best.tau - 777.7) < w.step
    assert best.max_residual < 1e-3


def test_eps_monotone_hit_sets():
    targets, _ = zeta_derivs(0, 0.9 + 10000.0j)
    lo = scan_zeta_derivs((1.0,), 0.9, ScanWindow(t=1e4, h=25.0, eps=0.25))
    hi = scan_zeta_derivs((1.0,), 0.9, ScanWindow(t=1e4, h=25.0, eps=0.5))
    lo_taus = {round(h.tau, 6) for h in lo.hits}
    hi_taus = {round(h.tau, 6) for h in hi.hits}
    assert lo_taus <= hi_taus


def test_scan_near_one_is_nonempty():
    # |zeta(0.9 + it) - 1| dips below 0.35 repeatedly at this height
    w = ScanWindow(t=1e4, h=25.0, eps=0.35)
    result = scan_zeta_derivs((1.0,), 0.9, w)
    assert len(result.hits) >= 1
    for h in result.hits:
        assert h.max_residual < 0.35


def test_value_scan_near_the_critical_line():
    """The value mode computes no error bound and refuses no tolerance, so a
    scan at sigma0 = 0.51, whose rounding floor is above 1e-13, returns its
    hits; each is a true hit by mpmath."""
    result = scan_zeta_derivs((1.0,), 0.51, ScanWindow(t=1e4, h=21.0, eps=0.35))
    assert result.hits
    with mp.workdps(30):
        for h in result.hits:
            assert abs(mp.zeta(mp.mpc(0.51, h.tau)) - 1) < 0.35, h.tau


def test_zero_constant_target_rejected():
    w = ScanWindow(t=100.0, h=10.0, eps=0.1)
    with pytest.raises(ZeroConstantTermError):
        scan_zeta_derivs((0.0,), 0.75, w)


def test_thread_determinism():
    """Hits, skips and grid agree across thread counts for every objective."""
    cases = [
        # 4398 points each: a full chunk and a partial one
        ("log", tuple(log_zeta_derivs(1, 0.75, 1100.0)[0]),
         ScanWindow(t=1000.0, h=200.0, eps=1e-3)),
        ("zeta", (1.0,), ScanWindow(t=1000.0, h=10.0, eps=0.35)),
        ("zeta", tuple(zeta_derivs(1, 0.75 + 300.0j)[0]), ScanWindow(t=295.0, h=10.0, eps=1e-2)),
        ("zeta", (1.0,), ScanWindow(t=1000.0, h=200.0, eps=0.35)),
    ]
    for i in (0, 3):
        assert len(cases[i][2].grid()) % _CHUNK and len(cases[i][2].grid()) > _CHUNK
    for mode, targets, w in cases:
        a, *rest = (scan_derivs(targets, 0.75, w, mode=mode, threads=k) for k in (1, 2, 3))
        assert a.hits
        for b in rest:
            assert [(h.tau, h.residuals) for h in a.hits] == [(h.tau, h.residuals) for h in b.hits]
            assert (a.skipped, a.n_grid) == (b.skipped, b.n_grid)
    with pytest.raises(ValueError, match="threads"):
        scan_zeta_derivs((1.0,), 0.75, cases[1][2], threads=0)


def test_scan_front_end_refusals():
    w = ScanWindow(t=100.0, h=10.0, eps=0.1)
    with pytest.raises(ValueError, match="mode"):
        scan_derivs((1.0,), 0.75, w, mode="plain")
    with pytest.raises(ValueError, match="cap is 8 for the log scan"):
        scan_log_derivs((1.0,) * 9, 0.75, w)


def test_candidate_indices_edges():
    """Ties are minima; inf and NaN neighbours neither block nor add slope."""
    vals = np.array([0.3, 0.1, 0.1, 0.5, np.inf, 0.2, np.nan, 0.4, 0.05, 0.05, np.inf])
    assert _candidate_indices(vals, 0.25) == [1, 2, 5, 8, 9]
    # shallow dips above eps + 1.5 * slope are not candidates
    assert _candidate_indices(np.array([0.32, 0.3, 0.31, np.nan, 0.3, np.nan]), 0.25) == []
    assert _candidate_indices(np.array([]), 0.25) == []


def test_skip_recording():
    """Grid points where evaluation fails are skipped with a diagnostic."""
    w = ScanWindow(t=10.0, h=5.0, eps=0.5, step=1.0)
    grid = w.grid()

    def objective(taus):
        taus = np.ravel(taus)  # objectives take shifts of any shape
        resid = (np.abs(np.sin(taus)) + 0.6)[:, None]  # never below eps
        bad = np.abs(taus - 12.0) < 0.5
        resid[bad] = math.inf
        return resid, {int(i): "synthetic zero on path" for i in np.flatnonzero(bad)}

    result = _run_scan(lambda taus0, step: lambda taus: np.ones((np.size(taus), 1)),
                       lambda zeta_d, taus, line: objective(taus), grid, w, 0.75, "zeta",
                       threads=1)
    assert result.hits == []
    assert any(abs(s["tau"] - 12.0) < 0.5 for s in result.skipped)


def test_density_estimate_arithmetic():
    w = ScanWindow(t=100.0, h=10.0, eps=0.1, step=0.5)
    empty = ScanResult(hits=[], skipped=[], n_grid=21, window=w, sigma0=0.75, mode="log")
    assert density_estimate(empty) == 0.0
    full = ScanResult(
        hits=[Hit(tau=100.0 + 0.5 * i, residuals=(0.05,)) for i in range(21)],
        skipped=[], n_grid=21, window=w, sigma0=0.75, mode="log",
    )
    # 21 points at step 0.5 over h = 10 overshoots by one step; clipped to 1
    assert density_estimate(full) == 1.0


def test_hit_record_schema():
    h = Hit(tau=1.5, residuals=(0.1, 0.2), wall_time=0.25)
    rec = h.to_record(0.75, 0.3)
    assert set(rec) == {"tau", "sigma0", "n", "eps", "residuals", "wall_time"}
    assert rec["n"] == 2


def test_refine_hit_inf_bracket_makes_no_nan_call():
    """A minimum bracketed by inf makes the refinement try no NaN shift and warn of nothing."""
    seen = []

    def objective(ts):
        ts = np.asarray(ts, dtype=float)
        seen.extend(np.atleast_1d(ts).tolist())
        return np.where(np.abs(ts - 3.0) <= 0.004, np.abs(ts - 3.0) + 0.1, math.inf)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hit = refine_hit(3.0, objective, 0.1)
    assert not np.any(np.isnan(seen))
    assert abs(hit.tau - 3.0) <= 0.004


@pytest.mark.parametrize("mode", ["log", "zeta"])
def test_grid_objective_matches_per_point(mode, monkeypatch, mp_log_zeta_derivs):
    """Over a whole window the batched grid objective agrees to 1e-9 relative
    with a per-point reference: mpmath on every 16th point for the log mode,
    zeta_derivs on every point for the zeta mode."""
    if mode == "log":
        targets = log_zeta_derivs(1, 0.75, 500.0)[0]
        per_point = lambda t: mp_log_zeta_derivs(0.75, t, 1)
        every = 16
    else:
        targets = zeta_derivs(2, 0.75 + 500.0j)[0]
        per_point = lambda t: zeta_derivs(2, complex(0.75, t))[0]
        every = 1
    w = ScanWindow(t=495.0, h=10.0, eps=1e-3)
    got, real_run = [], scan_module._run_scan

    def run(fit, transform, *a):  # the grid pass transforms one chunk per call, first
        return real_run(fit, lambda *t: got.append(transform(*t)) or got[-1], *a)

    monkeypatch.setattr(scan_module, "_run_scan", run)
    scan_derivs(tuple(targets), 0.75, w, mode=mode)
    grid = w.grid()
    got = got[: -(-len(grid) // _CHUNK)]
    assert all(not reasons for _, reasons in got)
    batched = np.concatenate([resid for resid, _ in got])
    assert len(batched) == len(grid)
    for t, row in zip(grid[::every], batched[::every]):
        ref = np.abs(per_point(t) - targets)
        assert np.max(np.abs(row - ref)) <= 1e-9 * (1.0 + np.max(np.abs(targets)) + np.max(ref)), t


def test_log_batch_falls_back_to_per_shift_transform(monkeypatch):
    """A batch whose log transform fails goes one shift at a time through
    the same transform, on the zeta data it already has: a shift that still
    fails is the only skip, recorded with its reason, and the hit stays."""
    real = scan_module._log_from_zeta

    def per_shift(zeta_d, sigma0, t, line=None):
        if len(t) > 1:
            raise PathThroughZeroError("synthetic continuation failure")
        if abs(t[0] - 497.0) < 0.01:
            raise PathThroughZeroError("synthetic zero at the shift")
        return real(zeta_d, sigma0, t, line)

    monkeypatch.setattr(scan_module, "_log_from_zeta", per_shift)
    targets = tuple(log_zeta_derivs(1, 0.75, 500.0)[0])
    result = scan_log_derivs(targets, 0.75, ScanWindow(t=495.0, h=10.0, eps=1e-3, step=0.25))
    assert result.skipped == [{"tau": 497.0, "reason": "synthetic zero at the shift"}]
    assert any(abs(h.tau - 500.0) < 0.25 for h in result.hits)


def test_log_scan_anchors_the_branch_once(monkeypatch):
    """A log scan continues log zeta horizontally once at each end of its
    window, however many chunks and refined candidates: a window of 4839
    points (2 chunks) at the benchmark's height 2000."""
    targets = tuple(log_zeta_derivs(1, 0.75, 2003.2862719709167)[0])
    anchors, refined = [], []
    real_anchor, real_refine = zeta_engine.log_zeta_tracked, scan_module._refine_all
    monkeypatch.setattr(zeta_engine, "log_zeta_tracked",
                        lambda *a: anchors.append(a) or real_anchor(*a))
    monkeypatch.setattr(scan_module, "_refine_all",
                        lambda taus0, *a: refined.append(len(taus0)) or real_refine(taus0, *a))
    w = ScanWindow(t=2000.0, h=200.0, eps=0.6)
    result = scan_log_derivs(targets, 0.75, w)
    assert len(w.grid()) > _CHUNK and refined[0] >= 2 and result.hits
    assert len(anchors) <= 2


def test_log_scan_reads_each_grid_point_once(monkeypatch):
    """The window's branch table takes the grid chunks' own values, so the
    Euler-Maclaurin kernel reads each grid point of a log scan once. A grid
    point enters it again only as a candidate, which centres the
    refinement's model, or as a refined shift: on the benchmark's window at
    t = 2000 with two targets, where every grid point was read twice when
    the table evaluated the grid apart."""
    targets = tuple(log_zeta_derivs(1, 0.75, 2003.2862719709167)[0])
    seen, candidates = [], []
    real_series, real_refine = zeta_engine._em_series, scan_module._refine_all
    monkeypatch.setattr(zeta_engine, "_em_series",
                        lambda s, *a: seen.extend(np.ravel(s).tolist()) or real_series(s, *a))
    monkeypatch.setattr(scan_module, "_refine_all",
                        lambda taus0, *a: candidates.extend(taus0) or real_refine(taus0, *a))
    w = ScanWindow(t=2000.0, h=12.5, eps=1e-3)
    result = scan_log_derivs(targets, 0.75, w)
    assert candidates and result.hits
    counts = collections.Counter(seen)
    again = collections.Counter(candidates + [h.tau for h in result.hits])
    assert [counts[0.75 + 1j * t] for t in w.grid()] == [1 + again[t] for t in w.grid()]


@pytest.mark.parametrize("sigma0, t, h", [(0.75, 2000.0, 12.5), (0.9, 1e5, 44.3)])
def test_window_table_from_chunk_values_matches_the_certified_table(sigma0, t, h):
    """The branch table a log scan builds from its chunks' values (order 0
    of a two-target model) has the points and, to 1e-12, the argument of
    the table built from certified zeta_array values, and keeps the chunks'
    values as its own: on the benchmark's window and on one at t = 1e5 with
    H just above t^(27/82)."""
    w = ScanWindow(t=t, h=h, eps=0.3)
    grid = w.grid()
    taus = np.concatenate([[grid[0] - w.step], grid, [grid[-1] + w.step]])
    values = _taylor_model(2, sigma0, taus, 0.0)(taus)[:, 0]
    params, vals, arg = zeta_engine._log_zeta_line(sigma0, taus, values)
    certified = zeta_engine._log_zeta_line(sigma0, taus)
    assert np.array_equal(params, certified[0])
    assert np.array_equal(vals[np.isin(params, taus)], values)
    assert np.max(np.abs(arg - certified[2])) <= 1e-12


def test_log_scan_without_a_window_table(monkeypatch):
    """When the window's branch table cannot be built, every objective call
    anchors its own run, and the scan finds the same hits."""
    targets = tuple(log_zeta_derivs(1, 0.75, 500.0)[0])
    w = ScanWindow(t=495.0, h=10.0, eps=1e-3)
    expected = [h.tau for h in scan_log_derivs(targets, 0.75, w).hits]

    def no_table(sigma0, taus, values=None):
        raise PathThroughZeroError("synthetic zero right of the line")

    monkeypatch.setattr(scan_module, "_log_zeta_line", no_table)
    assert expected and [h.tau for h in scan_log_derivs(targets, 0.75, w).hits] == expected


@pytest.mark.parametrize("t, h", [(1e4, 25.0), (1e5, 50.0)])
def test_zeta_scan_hits_land_on_true_minima(t, h):
    """Every hit of the README's `scan --mode zeta` window (t = 1e4) and of
    the benchmark's (t = 1e5) lies within 5e-9 of the true minimiser of
    |zeta(0.9 + i tau) - 1|: the root of Re(conj(zeta - 1) i zeta'), its
    tau-derivative over 2, one Newton step of mpmath from the hit. Refined
    on the direct kernel, whose rounding steered the last vertex fits, the
    hits sat up to 8e-8 away."""
    result = scan_zeta_derivs((1.0,), 0.9, ScanWindow(t=t, h=h, eps=0.35))
    assert result.hits
    with mp.workdps(20):
        for hit in result.hits:
            s = mp.mpc(0.9, hit.tau)
            z0, z1, z2 = (mp.zeta(s, derivative=k) for k in range(3))
            slope = mp.re(mp.conj(z0 - 1) * 1j * z1)
            curvature = abs(z1) ** 2 - mp.re(mp.conj(z0 - 1) * z2)
            assert abs(float(slope / curvature)) < 5e-9, hit.tau


@pytest.mark.parametrize("t, step", [(1e3, None), (1e5, None), (1e3, 0.5)],
                         ids=["1000.0", "100000.0", "1000.0-coarse"])
def test_taylor_model_within_its_bounds(t, step, monkeypatch):
    """At every shift a refinement tries, about adjacent and lone
    candidates, each order of the Taylor model lies within `_zeta_taylor`'s
    own error bound there plus the model's truncation bound (log N)^k A
    (|delta| log N)^m / m!, m = kmax - k + 1, with delta the distance to
    the nearest of the model's centres, for sigma0 0.51 and 0.9 and n = 1,
    7 and 12. Orders are compared apart: order 11 is about 11! (log N)^11
    in size. At the default step, step log N < 1 and the centres are the
    candidates; at step 0.5 it is about 2.9, and each candidate gets 3."""
    calls = []
    real = zeta_engine._em_series
    monkeypatch.setattr(zeta_engine, "_em_series",
                        lambda s, kmax, n_trunc: calls.append((s, kmax, n_trunc)) or real(s, kmax, n_trunc))
    step = ScanWindow(t=t, h=t**0.5, eps=0.35, step=step).step
    taus0 = t + step * np.array([3.25, 4.25, 17.6])
    for sigma0 in (0.51, 0.9):
        runs = []
        for n in (1, 7, 12):
            derivs = _taylor_model(n, sigma0, taus0, step)
            call = calls[-1]  # the model's one kernel call; zeta_derivs makes more
            b = zeta_derivs(n - 1, complex(sigma0, taus0[1] + 0.3 * step))[0]
            tried = []  # the candidates, then each level's rows of 61 shifts
            _refine_all(taus0, lambda ts: tried.extend(np.atleast_2d(ts)) or
                        np.max(np.abs(derivs(ts) - b), axis=1), step)
            runs.append((n, derivs, call, tried))
        # the reference row by row: each level row is a progression the kernel
        # factors, and the runs share their first rows
        reference = {row.tobytes(): row for *_, rows in runs for row in rows}
        reference = {key: _zeta_taylor(sigma0 + 1j * row, 11) for key, row in reference.items()}
        for n, derivs, (s, kmax, n_trunc), rows in runs:
            direct, err = (np.concatenate(part) for part in
                           zip(*(reference[row.tobytes()] for row in rows)))
            p = np.concatenate(rows)
            q = len(s) // len(taus0)
            log_n = math.log(n_trunc)
            assert q == (1 if step * log_n < 1.0 else 3)
            delta = np.min(np.abs(p[:, None] - s.imag), axis=1)
            assert np.max(delta) <= step / q
            ks = np.arange(n)
            m = kmax - ks + 1
            trunc = (log_n**ks * _abs_sum(sigma0, n_trunc)
                     * (delta[:, None] * log_n) ** m / [math.factorial(j) for j in m])
            gap = np.abs(derivs(p) - direct[:, :n])
            assert np.all(gap <= err[:, :n] + trunc), (sigma0, n)


def _record_models(monkeypatch):
    """Wrap the scan's `_taylor_model`: per call, its (n, sigma0, taus0, step)
    and the Euler-Maclaurin kernel calls made while building it, each (s,
    kmax, n_trunc). Kernel calls elsewhere (targets, branch tracking) are
    not counted."""
    models, real_model, real_series = [], scan_module._taylor_model, zeta_engine._em_series

    def model(*args):
        calls = []
        with monkeypatch.context() as m:
            m.setattr(zeta_engine, "_em_series", lambda *a: calls.append(a) or real_series(*a))
            derivs = real_model(*args)
        models.append((args, calls))
        return derivs

    monkeypatch.setattr(scan_module, "_taylor_model", model)
    return models


@pytest.mark.parametrize("targets, window", [
    ((1.0,), ScanWindow(t=1000.0, h=200.0, eps=0.35)),  # about 4.4k points: 2 chunks
    (tuple(zeta_derivs(2, 0.75 + 300.0j)[0]), ScanWindow(t=295.0, h=10.0, eps=0.5)),
])
def test_zeta_scan_kernel_calls(targets, window, monkeypatch):
    """A zeta scan builds one Taylor model per grid chunk at step 0, one
    about all its candidates at the window's step and one at step 0 to
    verify the refined shifts, however many candidates it refines: one
    Euler-Maclaurin kernel call each."""
    refined, real_refine = [], scan_module._refine_all
    models = _record_models(monkeypatch)
    monkeypatch.setattr(scan_module, "_refine_all",
                        lambda taus0, *a: refined.append(len(taus0)) or real_refine(taus0, *a))
    result = scan_zeta_derivs(targets, 0.75, window)
    chunks = -(-len(window.grid()) // _CHUNK)
    assert refined[0] >= 2 and result.hits
    assert [args[3] for args, _ in models] == [0.0] * chunks + [window.step, 0.0]
    assert all(len(calls) == 1 for _, calls in models)
    kmax = [calls[0][1] for _, calls in models]
    assert kmax[-2] >= len(targets) and kmax[-1] == len(targets) - 1


@pytest.mark.parametrize("mode, tau, window", [
    ("zeta", 777.7, ScanWindow(t=770.0, h=15.0, eps=1e-3, step=0.2)),
    ("log", 500.0, ScanWindow(t=495.1, h=10.0, eps=1e-3, step=0.2)),
], ids=["zeta", "log"])
def test_coarse_step_scans_refine_on_the_model(mode, tau, window, monkeypatch):
    """With step log N >= 1 the Taylor model puts several centres about each
    candidate, so a coarse-step scan of either mode still makes one kernel
    call per chunk, one for the model and one to verify, and lands on the
    shift its targets came from: midway between two grid points, on the
    grid of the first refinement level."""
    refined, real_refine = [], scan_module._refine_all
    models = _record_models(monkeypatch)
    monkeypatch.setattr(scan_module, "_refine_all",
                        lambda taus0, *a: refined.append(len(taus0)) or real_refine(taus0, *a))
    if mode == "zeta":
        targets = tuple(zeta_derivs(1, complex(0.75, tau))[0])
    else:
        targets = tuple(log_zeta_derivs(1, 0.75, tau)[0])
    result = scan_derivs(targets, 0.75, window, mode=mode)
    calls = [call for _, model_calls in models for call in model_calls]
    assert np.min(np.abs(window.grid() - tau)) > 0.4 * window.step
    assert window.step * math.log(calls[0][2]) >= 1.0
    assert len(models) == len(calls) == -(-len(window.grid()) // _CHUNK) + 2
    assert calls[-2][0].size >= 3 * refined[0]
    assert any(abs(h.tau - tau) < 1e-9 for h in result.hits)


@pytest.mark.parametrize("mode", ["log", "zeta"])
@pytest.mark.parametrize("step", [0.23, 0.3])
def test_kinked_minimum_lands_on_its_shift(mode, step):
    """Targets taken at tau = 500 are met exactly there, so the residual has
    a kink at 500 with unequal slopes, and no refinement level's grid meets
    it. A hit lands within 1e-9 of 500; vertex fits that assumed equal
    slopes put it 1.7e-8 to 1.3e-7 away on these windows."""
    if mode == "zeta":
        targets = tuple(zeta_derivs(1, 0.75 + 500.0j)[0])
    else:
        targets = tuple(log_zeta_derivs(1, 0.75, 500.0)[0])
    window = ScanWindow(t=495.0, h=10.0, eps=1e-3, step=step)
    result = scan_derivs(targets, 0.75, window, mode=mode)
    assert min(abs(h.tau - 500.0) for h in result.hits) <= 1e-9


@pytest.mark.parametrize("n", [1, 2, 7])
def test_model_at_step_zero_is_the_kernel(n):
    """At step 0 the Taylor model returns the kernel's values bit for bit,
    k! times its Taylor data at each shift: on a 4096-point progression,
    whose main sum the kernel factors, and on unsorted shifts, which the
    model sorts into its centres."""
    fact = np.array([math.factorial(k) for k in range(n)], dtype=float)
    grid = ScanWindow(t=1000.0, h=200.0, eps=0.35).grid()[:_CHUNK]
    unsorted = 1000.0 + 200.0 * np.random.default_rng(5).random(300)
    for taus in (grid, unsorted):
        s = 0.75 + 1j * taus
        direct = _em_series(s, n - 1, _truncation(s))[0] * fact
        assert np.array_equal(_taylor_model(n, 0.75, taus, 0.0)(taus), direct)


def test_log_scan_hits_land_on_true_minima():
    """Every hit of a one-target log scan on the benchmark's window (t =
    2000) lies within 5e-9 of the true minimiser of |L(tau) - b|, L = log
    zeta(0.75 + i tau) on the branch of b: the root of Re(conj(L - b) i L'),
    one Newton step of mpmath from the hit. The target sits 0.1 off log
    zeta at a point, so the minimum is smooth. Refined on the direct kernel
    rather than the Taylor model, the hits sat up to 1.9e-8 away."""
    b = log_zeta_derivs(0, 0.75, 2003.2862719709167)[0][0] + 0.1
    result = scan_log_derivs((b,), 0.75, ScanWindow(t=2000.0, h=12.5, eps=0.5))
    assert result.hits
    with mp.workdps(20):
        for hit in result.hits:
            s = mp.mpc(0.75, hit.tau)
            z0, z1, z2 = (mp.zeta(s, derivative=k) for k in range(3))
            principal = mp.log(z0)
            k = round((b.imag - float(mp.im(principal))) / (2 * math.pi))
            lz = principal + 2j * mp.pi * k - b
            l1 = z1 / z0
            l2 = z2 / z0 - l1**2
            slope = mp.re(mp.conj(lz) * 1j * l1)
            curvature = abs(l1) ** 2 - mp.re(mp.conj(lz) * l2)
            assert abs(float(slope / curvature)) < 5e-9, hit.tau
