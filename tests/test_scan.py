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
    _ZETA_CHUNK,
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
from zetascope.zeta_engine import log_zeta_derivs, zeta_derivs


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


@pytest.mark.parametrize("name, objective, taus0, radius", [
    ("|sin| near pi and 2 pi", lambda t: np.abs(np.sin(t)), [3.1, 6.2, 3.18, 6.35], 0.1),
    ("constant", lambda t: np.full(np.shape(t), 7.25), [5.0, -2.0, 1e3], 0.5),
    ("-t clamps right", lambda t: -np.asarray(t), [3.0, 10.0, 1e4], 0.05),
    # a flat first candidate gets no vertex fit while the others do
    ("flat, then |sin|", lambda t: np.where(np.asarray(t) < 50.0, np.abs(np.sin(t)), -1.0),
     [60.0, 3.1, 6.2, 60.0, 9.5], 0.1),
])
def test_refine_all_matches_refine_hit(name, objective, taus0, radius):
    """Lockstep refinement gives each candidate the hit refine_hit gives it
    alone, in at most 1 + 3 x 2 objective calls for any number of candidates."""
    shapes = []

    def counted(t):
        shapes.append(np.shape(t))
        return objective(t)

    taus, vals = _refine_all(taus0, counted, radius)
    assert len(shapes) <= 7
    assert shapes[0] == (len(taus0),) and (len(taus0), 21) in shapes
    for tau0, tau, val in zip(taus0, taus, vals):
        hit = refine_hit(tau0, objective, radius)
        assert abs(tau - hit.tau) <= 1e-12 * max(1.0, abs(tau0)), name
        assert val == hit.residuals[0]
        assert tau0 - radius <= tau <= tau0 + radius
    if name.startswith("-t"):
        assert np.allclose(taus, np.add(taus0, radius), rtol=0.0, atol=1e-12)
    if name.startswith("|sin|"):
        assert np.allclose(taus, [math.pi, 2 * math.pi, math.pi, 2 * math.pi], atol=1e-6)


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
        # 101 points: a full chunk and a partial one
        ("log", tuple(log_zeta_derivs(1, 0.75, 500.0)[0]),
         ScanWindow(t=495.0, h=10.0, eps=1e-3, step=0.1)),
        ("zeta", (1.0,), ScanWindow(t=1000.0, h=10.0, eps=0.35)),
        ("zeta", tuple(zeta_derivs(1, 0.75 + 300.0j)[0]), ScanWindow(t=295.0, h=10.0, eps=1e-2)),
        # about 4.4k points: a full zeta chunk and a partial one
        ("zeta", (1.0,), ScanWindow(t=1000.0, h=200.0, eps=0.35)),
    ]
    assert len(cases[0][2].grid()) % _CHUNK and len(cases[0][2].grid()) > _CHUNK
    assert len(cases[3][2].grid()) % _ZETA_CHUNK and len(cases[3][2].grid()) > _ZETA_CHUNK
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

    result = _run_scan(objective, grid, w, 0.75, "log", threads=1)
    assert result.hits == []
    assert any(abs(s["tau"] - 12.0) < 0.5 for s in result.skipped)


def test_density_estimate_arithmetic():
    w = ScanWindow(t=100.0, h=10.0, eps=0.1, step=0.5)
    empty = ScanResult(hits=[], skipped=[], n_grid=21, window=w, sigma0=0.75, mode="log")
    assert density_estimate(empty) == 0.0
    full = ScanResult(
        hits=[Hit(tau=100.0 + 0.5 * i, residuals=(0.05,), refined=True) for i in range(21)],
        skipped=[], n_grid=21, window=w, sigma0=0.75, mode="log",
    )
    # 21 points at step 0.5 over h = 10 overshoots by one step; clipped to 1
    assert density_estimate(full) == 1.0


def test_hit_record_schema():
    h = Hit(tau=1.5, residuals=(0.1, 0.2), refined=True, wall_time=0.25)
    rec = h.to_record(0.75, 0.3)
    assert set(rec) == {"tau", "sigma0", "n", "eps", "residuals", "refined", "wall_time"}
    assert rec["n"] == 2


def test_refine_hit_inf_bracket_makes_no_nan_call():
    """A minimum bracketed by inf gets no vertex fit: no NaN shift, no warning."""
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
    captured = []
    monkeypatch.setattr(scan_module, "_run_scan", lambda objective, *a: captured.append(objective))
    scan_derivs(tuple(targets), 0.75, w, mode=mode)
    grid = w.grid()
    got = [captured[0](grid[a : a + _CHUNK]) for a in range(0, len(grid), _CHUNK)]
    assert all(not reasons for _, reasons in got)
    batched = np.concatenate([resid for resid, _ in got])
    for t, row in zip(grid[::every], batched[::every]):
        ref = np.abs(per_point(t) - targets)
        assert np.max(np.abs(row - ref)) <= 1e-9 * (1.0 + np.max(np.abs(targets)) + np.max(ref)), t


def test_log_chunk_falls_back_to_per_point(monkeypatch):
    """A chunk whose line continuation fails goes point by point, so a circle
    that meets a zero is recorded as a skip, as before."""
    real = scan_module.log_zeta_derivs

    def failing_line(kmax, sigma0, taus, line=None):
        raise PathThroughZeroError("synthetic continuation failure")

    def per_point(kmax, sigma0, t, **kwargs):
        if abs(t - 497.0) < 0.01:
            raise PathThroughZeroError("synthetic zero on circle")
        return real(kmax, sigma0, t, **kwargs)

    monkeypatch.setattr(scan_module, "_log_zeta_line_derivs", failing_line)
    monkeypatch.setattr(scan_module, "log_zeta_derivs", per_point)
    targets = tuple(real(1, 0.75, 500.0)[0])
    result = scan_log_derivs(targets, 0.75, ScanWindow(t=495.0, h=10.0, eps=1e-3, step=0.25))
    assert result.skipped == [{"tau": 497.0, "reason": "synthetic zero on circle"}]
    assert any(abs(h.tau - 500.0) < 0.25 for h in result.hits)


def test_log_scan_anchors_the_branch_once(monkeypatch):
    """A log scan continues log zeta horizontally once at each end of its
    window, however many chunks and refined candidates: the benchmark's
    window of 303 points (5 chunks) at height 2000."""
    targets = tuple(log_zeta_derivs(1, 0.75, 2003.2862719709167)[0])
    anchors, refined = [], []
    real_anchor, real_refine = zeta_engine.log_zeta_tracked, scan_module._refine_all
    monkeypatch.setattr(zeta_engine, "log_zeta_tracked",
                        lambda *a: anchors.append(a) or real_anchor(*a))
    monkeypatch.setattr(scan_module, "_refine_all",
                        lambda taus0, *a: refined.append(len(taus0)) or real_refine(taus0, *a))
    w = ScanWindow(t=2000.0, h=12.5, eps=0.6)
    result = scan_log_derivs(targets, 0.75, w)
    assert len(w.grid()) > 4 * _CHUNK and refined[0] >= 2 and result.hits
    assert len(anchors) <= 2


def test_log_scan_without_a_window_table(monkeypatch):
    """When the window's branch table cannot be built, every objective call
    anchors its own run, and the scan finds the same hits."""
    targets = tuple(log_zeta_derivs(1, 0.75, 500.0)[0])
    w = ScanWindow(t=495.0, h=10.0, eps=1e-3)
    expected = [h.tau for h in scan_log_derivs(targets, 0.75, w).hits]

    def no_table(sigma0, taus):
        raise PathThroughZeroError("synthetic zero right of the line")

    monkeypatch.setattr(scan_module, "_log_zeta_line", no_table)
    assert expected and [h.tau for h in scan_log_derivs(targets, 0.75, w).hits] == expected
