"""Grid scan of a window [T, T+H] for shifts matching derivative targets.

One front end, `scan_derivs`, checks the targets once and runs one
pipeline in either mode: plain zeta derivatives (the Taylor data of weak
universality) or log-zeta derivatives (the Omega-result);
`scan_zeta_derivs` and `scan_log_derivs` name its two modes. The scan grid
is finer than the fastest Euler-product oscillation in the window. The
scan reads zeta one way, through the Taylor model of
`zeta_engine._taylor_model`: zeta's derivatives to order n - 1, with no
error bound, from one Euler-Maclaurin kernel call about a set of shifts.
The pipeline `_run_scan` builds it at step 0 about each chunk of `_CHUNK`
grid points, where it gives the kernel's values; at the window's step about
all grid dips, which nested local refinement polishes in lockstep
(`_refine_all`); and at step 0 about the refined shifts, which gives each
hit its residuals. The log mode adds one transform,
`zeta_engine._log_from_zeta`: the log-series recurrence, with log zeta
itself looked up in one branch table of the scan line, built once per
window (`zeta_engine._log_zeta_line`). Candidate selection keeps a
first-order safety margin so a sharp minimum sitting between grid points is
still caught.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import PathThroughZeroError, WindowConstraintError, ZeroConstantTermError
from .zeta_engine import _log_from_zeta, _log_zeta_line, _taylor_model

__all__ = [
    "ScanWindow",
    "Hit",
    "ScanResult",
    "scan_derivs",
    "scan_log_derivs",
    "scan_zeta_derivs",
    "refine_hit",
    "density_estimate",
]

MAX_ORDER_LOG = 8    # log Taylor kernel bounds, checked against mpmath to order 7
MAX_ORDER_ZETA = 12  # Taylor kernel bounds, growing like (log N)^k, checked to order 11
# grid points per objective call: one batch shape, whatever the thread count;
# 64 centres x 64 offsets in the factored main sum
_CHUNK = 4096


@dataclass(frozen=True)
class ScanWindow:
    """Window [t, t+h] with the short-interval constraint t^nu <= h <= t."""

    t: float
    h: float
    eps: float
    nu: float = 27.0 / 82.0
    step: float | None = None

    def __post_init__(self):
        if self.t <= 0:
            raise ValueError("t must be positive")
        if self.h <= 0:
            raise ValueError("h must be positive")
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        if not 0.0 < self.nu <= 1.0:
            raise ValueError("nu must lie in (0, 1]")
        h_min = self.t**self.nu
        if self.h < h_min or self.h > self.t:
            raise WindowConstraintError(self.t, self.h, self.nu, h_min)
        if self.step is None:
            if self.t <= 1.0:
                raise ValueError("the default step 2 pi / (20 log t) needs t > 1; give a step")
            # finer than the fastest oscillation scale log p <= log t
            object.__setattr__(self, "step", 2.0 * math.pi / (20.0 * math.log(self.t)))
        if self.step <= 0:
            raise ValueError("step must be positive")

    def grid(self) -> np.ndarray:
        n = int(math.floor(self.h / self.step)) + 1
        return self.t + self.step * np.arange(n)


@dataclass(frozen=True)
class Hit:
    """A verified shift; wall_time is that of the scan's whole refine-and-verify batch."""

    tau: float
    residuals: tuple
    wall_time: float = 0.0

    @property
    def max_residual(self) -> float:
        return max(self.residuals)

    def to_record(self, sigma0: float, eps: float) -> dict:
        return {
            "tau": self.tau,
            "sigma0": sigma0,
            "n": len(self.residuals),
            "eps": eps,
            "residuals": list(self.residuals),
            "wall_time": self.wall_time,
        }


@dataclass
class ScanResult:
    hits: list
    skipped: list
    n_grid: int
    window: ScanWindow
    sigma0: float
    mode: str
    wall_time: float = 0.0


def _refine_all(taus0, objective, radius: float):
    """Nested local minimisation of an objective around every tau0, in lockstep.

    objective maps an array of shifts of any shape to their values in ravel
    order: in a scan, the max residual on a Taylor model of zeta about the
    candidates (`zeta_engine._taylor_model`). It is called once on the
    starting points, then per level once on a (K, 21) array and once on
    the flat array of all vertex candidates: at most 7 calls for any number
    K of starting points. Three grid levels shrink by a factor 10, each
    followed by a vertex fit that handles both smooth (parabolic) and kinked
    (V-shaped) minima; the fit needs a finite bracketing triple. A level
    grid slides inside [tau0 - radius, tau0 + radius] rather than being
    clipped, and no search leaves that interval. Returns (best shifts, their
    values), one per starting point; the first of equal values is kept.
    """
    taus0 = np.asarray(taus0, dtype=float)
    lo, hi = taus0 - radius, taus0 + radius
    best_t = taus0.copy()
    best_v = np.asarray(objective(taus0), dtype=float).reshape(taus0.shape)
    rows = np.arange(len(taus0))
    r = radius
    for _ in range(3):
        mid = taus0 + np.clip(best_t - taus0, r - radius, radius - r)
        # the clip only catches rounding at the interval's ends
        ts = np.clip(np.linspace(mid - r, mid + r, 21, axis=-1), lo[:, None], hi[:, None])
        vs = np.asarray(objective(ts), dtype=float).reshape(ts.shape)
        i = np.argmin(vs, axis=1)
        better = vs[rows, i] < best_v
        best_t[better], best_v[better] = ts[better, i[better]], vs[better, i[better]]
        r /= 10.0
        # vertex candidates from the bracketing triple of each interior minimum
        k = rows[(0 < i) & (i < 20)]
        cols = i[k, None] + np.arange(-1, 2)
        finite = np.all(np.isfinite(vs[k[:, None], cols]), axis=1)
        k, cols = k[finite], cols[finite]
        (t1, t2, t3), (v1, v2, v3) = ts[k[:, None], cols].T, vs[k[:, None], cols].T
        denom = v1 - 2.0 * v2 + v3
        slope = np.maximum(np.abs(v2 - v1), np.abs(v3 - v2)) / np.maximum(t2 - t1, 1e-300)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_par = t2 + 0.5 * (t3 - t2) * (v1 - v3) / denom
            t_v = 0.5 * (t1 + t3) + (v1 - v3) / (2.0 * slope)
        par, vee = denom > 0, slope > 0
        owner = np.concatenate([k[par], k[vee]])
        if not owner.size:
            continue
        cts = np.clip(np.concatenate([t_par[par], t_v[vee]]), lo[owner], hi[owner])
        cvs = np.asarray(objective(cts), dtype=float)
        # parabolic candidates first, then V-shaped: each owner once per group
        n_par = int(np.sum(par))
        for group in (slice(None, n_par), slice(n_par, None)):
            o, t, v = owner[group], cts[group], cvs[group]
            better = v < best_v[o]
            best_t[o[better]], best_v[o[better]] = t[better], v[better]
    return best_t, best_v


def refine_hit(tau0: float, objective, radius: float) -> Hit:
    """Nested local minimisation of an objective around tau0.

    objective maps a 1-D array of shifts to an array of values, one call per
    batch: tau0 itself, then per level its 21 grid points and its vertex
    candidates. This is `_refine_all` on one starting point: three grid
    levels shrinking by a factor 10, each followed by a vertex fit; the
    search never leaves [tau0 - radius, tau0 + radius].
    """
    t, v = _refine_all([tau0], lambda ts: objective(np.ravel(ts)), radius)
    return Hit(tau=float(t[0]), residuals=(float(v[0]),))


def _candidate_indices(vals: np.ndarray, eps: float) -> list:
    """Grid indices worth refining: local minima below a slope-aware bar.

    The bar eps + 1.5 * |local slope| * step accepts dips whose true minimum
    may sit between grid points; it is evaluated from the measured neighbour
    differences, so no derivative model is needed. A NaN neighbour neither
    blocks a minimum nor adds to its slope.
    """
    v = np.asarray(vals, dtype=float)
    padded = np.concatenate(([math.inf], v, [math.inf]))
    left, right = padded[:-2], padded[2:]
    with np.errstate(invalid="ignore"):
        slope_gap = np.maximum(np.where(np.isfinite(left), np.abs(v - left), 0.0),
                               np.where(np.isfinite(right), np.abs(right - v), 0.0))
        keep = np.isfinite(v) & ~(v > left) & ~(v > right) & (v < eps + 1.5 * slope_gap)
    return np.flatnonzero(keep).tolist()


def _run_scan(fit, grid: np.ndarray, window: ScanWindow, sigma0: float,
              mode: str, threads: int) -> ScanResult:
    """Shared driver: evaluate the grid, refine candidates, verify hits.

    fit(taus0, step) returns a function of shifts within step of taus0,
    which gives (residuals, reasons) at an array of them of any shape:
    residuals[i] = |derivs - targets| at the i-th shift in ravel order, a row
    of inf where the shift could not be evaluated, and reasons maps those
    rows to why. Each chunk of `_CHUNK` grid points is fit(chunk, 0) on the
    chunk; the chunks are shared over `threads` workers and do not depend
    on the thread count, so neither do the hits. All candidates are refined
    together (`_refine_all`) on the max residual of fit(candidates,
    window.step). fit(refined, 0) on the refined shifts gives each hit its
    residuals, and records as skips the shifts it could not evaluate; each
    hit's wall_time is the time of that whole refine-and-verify batch.
    """
    t_start = time.monotonic()
    starts = range(0, len(grid), _CHUNK)

    def eval_chunk(a):
        chunk = grid[a : a + _CHUNK]
        return fit(chunk, 0.0)(chunk)

    if threads == 1:
        # in this thread: a worker thread gets its own malloc arena,
        # about 4 MiB more peak RSS on a single-threaded scan
        done = list(map(eval_chunk, starts))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            done = list(pool.map(eval_chunk, starts))  # re-raises a worker's error
    vals = np.empty(len(grid))
    reasons = {}
    for a, (resid, why) in zip(starts, done):
        vals[a : a + len(resid)] = np.max(resid, axis=1)
        reasons.update((a + i, msg) for i, msg in why.items())
    skipped = [{"tau": float(grid[i]), "reason": reasons[i]} for i in sorted(reasons)]

    hits = []
    candidates = _candidate_indices(vals, window.eps)
    if candidates:
        t0 = time.monotonic()
        taus0 = grid[candidates]
        model = fit(taus0, window.step)
        refined, _ = _refine_all(taus0, lambda ts: np.max(model(ts)[0], axis=1), window.step)
        residuals, why = fit(refined, 0.0)(refined)
        batch_time = time.monotonic() - t0
        for i, tau in enumerate(refined.tolist()):
            if i in why:
                skipped.append({"tau": tau, "reason": why[i]})
            elif float(np.max(residuals[i])) < window.eps:
                hits.append(Hit(tau=tau, residuals=tuple(residuals[i].tolist()),
                                wall_time=batch_time))
    # adjacent grid dips can land on the same minimum; keep the first
    deduped = []
    for h in sorted(hits, key=lambda h: h.tau):
        if not deduped or abs(h.tau - deduped[-1].tau) > window.step / 2.0:
            deduped.append(h)
    return ScanResult(
        hits=deduped, skipped=skipped, n_grid=len(grid), window=window,
        sigma0=sigma0, mode=mode, wall_time=time.monotonic() - t_start,
    )


def scan_derivs(targets, sigma0: float, window: ScanWindow, *, mode: str = "log",
                threads: int = 1) -> ScanResult:
    """Scan the window for shifts tau where derivatives match the targets.

    mode "zeta" matches d^k/ds^k zeta(sigma0 + i tau) and mode "log" matches
    d^k/ds^k log zeta(sigma0 + i tau) against targets[k], k < n; the grid
    objective is max_k |derivative - target|, and dips below the window
    tolerance become verified hits. Both modes are one pipeline on zeta's
    derivatives, to order n - 1 with no error bound, all read through one
    closure, fit(taus0, step): the Taylor model `zeta_engine._taylor_model`
    of one kernel call about taus0, and on it the residuals at shifts within
    step of them. `_run_scan` calls it at step 0 per grid chunk and on the
    refined shifts, where it gives the kernel's values, and at the window's
    step about the candidates of the refinement. The log mode adds one
    transform, `zeta_engine._log_from_zeta`: the log-series recurrence, with
    log zeta itself from one branch table of the line
    (`zeta_engine._log_zeta_line`), built before the chunks over the grid
    widened by a step each side, which holds every shift refinement tries.
    A batch with a shift the table cannot serve anchors a table of its own
    run, as does every batch when the window's table cannot be built. A
    batch whose own table fails goes one shift at a time through the same
    transform, on the zeta data already computed; a shift that still fails
    is skipped and recorded on the grid and in the verification, and gets
    residual inf in the refinement. The zeta mode needs a nonzero constant
    target (a zero one would ask the scan to find a zeta zero off the
    critical line).
    """
    if mode not in ("log", "zeta"):
        raise ValueError(f"unknown scan mode {mode!r}; use 'log' or 'zeta'")
    b = np.array([complex(a) for a in targets], dtype=complex)
    n = len(b)
    if n < 1:
        raise ValueError("need at least one target")
    if mode == "zeta" and abs(b[0]) == 0.0:
        raise ZeroConstantTermError("the constant target b_0 must be nonzero")
    cap = MAX_ORDER_LOG if mode == "log" else MAX_ORDER_ZETA
    if n - 1 >= cap:
        raise ValueError(f"derivative order cap is {cap} for the {mode} scan")
    if not 0.5 < sigma0 < 1.0:
        raise ValueError("sigma0 must lie in (1/2, 1)")
    if threads < 1:
        raise ValueError("threads must be at least 1")

    grid, line = window.grid(), None
    if mode == "log":
        # refinement stays within one step of a grid point, so the branch
        # table of the grid widened by a step each side serves every call
        try:
            line = _log_zeta_line(sigma0, np.concatenate(
                [[grid[0] - window.step], grid, [grid[-1] + window.step]]))
        except PathThroughZeroError:
            pass  # every call anchors its own run

    def fit(taus0, step):
        """The function giving (|derivs - b|, skip reasons) at shifts within step of taus0."""
        derivs = _taylor_model(n, sigma0, taus0, step)

        def residuals(taus):
            t = np.ravel(taus)
            zeta_d = derivs(t)
            if mode == "zeta":
                return np.abs(zeta_d - b), {}
            try:
                return np.abs(_log_from_zeta(zeta_d, sigma0, t, line) - b), {}
            except PathThroughZeroError:
                pass  # one shift at a time, recording skips
            resid, reasons = np.full((len(t), n), math.inf), {}
            for i in range(len(t)):
                try:
                    log_d = _log_from_zeta(zeta_d[i : i + 1], sigma0, t[i : i + 1], line)
                    resid[i] = np.abs(log_d[0] - b)
                except PathThroughZeroError as exc:
                    reasons[i] = str(exc)
            return resid, reasons

        return residuals

    return _run_scan(fit, grid, window, sigma0, mode, threads)


def scan_log_derivs(targets, sigma0: float, window: ScanWindow, *,
                    threads: int = 1) -> ScanResult:
    """scan_derivs in mode "log": match log-zeta derivatives."""
    return scan_derivs(targets, sigma0, window, mode="log", threads=threads)


def scan_zeta_derivs(targets, sigma0: float, window: ScanWindow, *,
                     threads: int = 1) -> ScanResult:
    """scan_derivs in mode "zeta": match plain zeta derivatives."""
    return scan_derivs(targets, sigma0, window, mode="zeta", threads=threads)


def density_estimate(result: ScanResult) -> float:
    """Fraction of the window occupied by hit neighbourhoods.

    (number of hits) * step / H, clipped to [0, 1]: the empirical stand-in
    for a positive-lower-density statement.
    """
    frac = len(result.hits) * result.window.step / result.window.h
    return min(max(frac, 0.0), 1.0)
