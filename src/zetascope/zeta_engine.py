"""Direct zeta evaluation, branch-tracked logarithms, Cauchy-circle
derivatives, Selberg's explicit formula, and rectangle zero counting.

The evaluator is Euler-Maclaurin with a truncation point scaling linearly in
|Im s| and a Bernoulli correction series whose terms shrink geometrically
once the truncation point passes |Im s| / (2 pi). `_em_eval` has one main
sum, over points c_j + z_m: a matrix product of n^-c_j and n^-z_m per block
of n, then the tail `_em_tail`. Circle nodes are centres plus node offsets;
an evenly spaced input is ceil(L / M) centres plus M = ceil(sqrt L) steps,
so about 2 sqrt(L) exponentials per n serve L points; any other input is its
own centres with the one offset 0. One core, `_zeta_eval`, holds the
truncation and retry policy of the certified `zeta` and `zeta_array`; its
pole and envelope checks and starting truncation point (`_truncation`) also
serve the circles. All Cauchy-circle Taylor data (here and in
`universality.taylor_coeffs`) comes from one node-doubling kernel over a
batch of centres, `_circle_derivs`:
`zeta_derivs` runs it on one centre and the scan on a chunk of grid points.

Branch convention: log zeta is the principal branch on the real segment
(1, inf) and is continued along horizontal segments from sigma = 10, where
|zeta - 1| < 2^-9 keeps the principal branch unambiguous.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import loggamma

from .errors import (
    BoundaryZeroError,
    InsufficientZerosError,
    PathThroughZeroError,
    PoleAtOneError,
    ToleranceUnreachableError,
)
from .primes import primes_up_to

__all__ = [
    "ZetaEval",
    "SelbergSpec",
    "ZeroCount",
    "zeta",
    "zeta_array",
    "log_zeta_tracked",
    "log_zeta_derivs",
    "zeta_derivs",
    "chi_factor",
    "siegel_theta",
    "hardy_z",
    "zero_ordinates",
    "riemann_count_estimate",
    "count_zeros",
    "zero_density_envelope",
    "von_mangoldt_table",
    "weighted_von_mangoldt",
    "selberg_zeta_prime_over_zeta",
    "selberg_log_zeta",
    "zeros_to_csv",
    "zeros_from_csv",
]

_IM_LIMIT = 1.0e8  # accuracy envelope of the plain Euler-Maclaurin evaluator
_EDGE_SAMPLES_LIMIT = 1 << 20  # start samples per count_zeros edge (memory cap)


# ----------------------------------------------------------------------
# Euler-Maclaurin evaluator
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _bernoulli_over_factorial(kmax: int = 64) -> np.ndarray:
    """B_{2k}/(2k)! for k = 1..kmax, built once (shared immutable cache)."""
    import mpmath as mp

    with mp.workdps(40):
        vals = [float(mp.bernoulli(2 * k) / mp.factorial(2 * k)) for k in range(1, kmax + 1)]
    return np.array(vals)


@dataclass(frozen=True)
class ZetaEval:
    value: complex
    est_error: float
    terms_used: int


def _em_eval(s: np.ndarray, n_trunc: int, n_bern: int, offsets: np.ndarray | None = None):
    """Euler-Maclaurin at every s_j + z_m with fixed truncation settings.

    Returns values and error estimates of shape (len(s), len(z)); offsets
    None means z = [0]. The main sum separates as sum_n n^-s_j n^-z_m, one
    matrix product per block of n, so (len(s) + len(z)) * n_trunc complex
    exponentials replace len(s) * len(z) * n_trunc. log n is formed per
    block, and the memory bound is per block, not per call: each factor
    holds at most max(2^13, len(s), len(z)) complex entries, however long
    the sum. 2^13 entries are 128 KiB, glibc's default mmap threshold, so
    the factors come from the heap and are reused rather than mapped and
    page-faulted afresh for every block.
    """
    z = np.zeros(1) if offsets is None else offsets
    vals = np.zeros((len(s), len(z)), dtype=complex)
    block = max(1, (1 << 13) // max(len(s), len(z)))
    for i in range(1, n_trunc, block):
        neg = -np.log(np.arange(i, min(i + block, n_trunc), dtype=float))
        left, right = np.outer(s, neg), np.outer(neg, z)
        vals += np.exp(left, out=left) @ np.exp(right, out=right)
    return vals, _em_tail(vals, s[:, None] + z, n_trunc, n_bern)


def _em_tail(vals: np.ndarray, s: np.ndarray, n_trunc: int, n_bern: int) -> np.ndarray:
    """Adds the Euler-Maclaurin tail at s to the main sums vals, in place.

    Returns the error estimate: the remainder bound plus the rounding floor.
    """
    bern = _bernoulli_over_factorial()
    nf = float(n_trunc)
    vals += nf ** (1.0 - s) / (s - 1.0) + 0.5 * nf ** (-s)
    # correction terms, built iteratively to avoid factorial overflow
    term = bern[0] * s * nf ** (-s - 1.0)
    for k in range(1, n_bern + 1):
        vals += term
        ratio = (bern[k] / bern[k - 1]) * (s + (2 * k - 1)) * (s + 2 * k) / nf**2
        term = term * ratio
    # classical remainder bound: |next term| * |s + 2K + 1| / (sigma + 2K + 1)
    sigma = s.real
    guard = np.abs(s + (2 * n_bern + 1)) / np.maximum(sigma + 2 * n_bern + 1, 1.0)
    err = np.abs(term) * guard * 2.0
    err += _em_floor(sigma, n_trunc)
    return err


def _em_floor(sigma: np.ndarray, n_trunc: int) -> np.ndarray:
    """Floating-point accumulation floor of _em_eval: eps * log2(N) * sum |n^-s|.

    It grows with N, so no longer sum can bring an estimate below it.
    """
    one_minus = np.where(np.abs(1.0 - sigma) < 1e-9, 1e-9, 1.0 - sigma)
    with np.errstate(over="ignore"):
        absum = 1.0 + np.abs((float(n_trunc) ** np.minimum(one_minus, 300.0) - 1.0) / one_minus)
    return 1.1e-16 * math.log2(n_trunc) * absum


def _truncation(points: np.ndarray) -> int:
    """Pole and envelope checks at the points, and the starting truncation point."""
    if np.any(np.abs(points - 1.0) < 1e-12):
        raise PoleAtOneError("zeta has a pole at s = 1")
    tmax = float(np.max(np.abs(points.imag)))
    if tmax > _IM_LIMIT:
        raise ToleranceUnreachableError(
            f"|Im s| = {tmax:g} outside the evaluator envelope {_IM_LIMIT:g}"
        )
    return int(max(24, (tmax + 60.0) / 3.0 + 8))


def _centres_offsets(flat: np.ndarray):
    """(centres, offsets, index) with flat[i] ~ (centres[:, None] + offsets).flat[index[i]].

    An arithmetic progression of L >= 9 points, each within 4 eps max|s| of
    it, becomes ceil(L / M) centres times M = ceil(sqrt L) offsets. The last
    centre is flat[L - M], so every grid point is an input point and no point
    outside the input is evaluated. Any other input is its own centres with
    the one offset 0.
    """
    size = len(flat)
    k = np.arange(size)
    if size >= 9:
        d = (flat[-1] - flat[0]) / (size - 1)
        if np.max(np.abs(flat - (flat[0] + d * k))) <= 8.9e-16 * np.max(np.abs(flat)):
            m = math.isqrt(size - 1) + 1
            starts = np.minimum(np.arange(0, size, m), size - m)
            row = k // m
            return flat[starts], d * np.arange(m), row * m + k - starts[row]
    return flat, np.zeros(1), k


def _zeta_eval(flat: np.ndarray, tol: float):
    """The certified evaluator: (values, error estimates, truncation point) at flat.

    Retries with longer sums until every estimate is within tol, and refuses
    before a pass whose rounding floor already exceeds tol. An evenly spaced
    flat is summed as centres times offsets (`_centres_offsets`).
    """
    n_trunc = _truncation(flat)
    n_bern = 30
    centres, offsets, index = _centres_offsets(flat)
    for _ in range(4):
        floor = float(np.max(_em_floor(flat.real, n_trunc)))
        if floor > tol:
            raise ToleranceUnreachableError(
                f"could not certify tolerance {tol:g} (rounding floor {floor:.3g} "
                f"at {n_trunc} terms)"
            )
        vals, err = (a.ravel()[index] for a in _em_eval(centres, n_trunc, n_bern, offsets))
        if float(np.max(err)) <= tol:
            return vals, err, n_trunc
        n_trunc = int(n_trunc * 1.8) + 16
        n_bern = min(n_bern + 8, 60)
    raise ToleranceUnreachableError(
        f"could not certify tolerance {tol:g} (max error {float(np.max(err)):.3g})"
    )


def zeta_array(s, tol: float = 1e-11) -> np.ndarray:
    """Vectorised zeta via Euler-Maclaurin, certified to tol per point."""
    s_arr = np.asarray(s, dtype=complex)
    if s_arr.size == 0:
        return np.zeros(s_arr.shape, dtype=complex)
    return _zeta_eval(s_arr.ravel(), tol)[0].reshape(s_arr.shape)


def zeta(s: complex, tol: float = 1e-11) -> ZetaEval:
    """Scalar zeta with a certified error estimate."""
    vals, err, n_trunc = _zeta_eval(np.array([complex(s)]), tol)
    return ZetaEval(complex(vals[0]), float(err[0]), n_trunc)


# ----------------------------------------------------------------------
# Branch tracking
# ----------------------------------------------------------------------

def _adaptive_track(points_fn, params: np.ndarray, *, max_step: float = 1.0,
                    min_gap: float = 1e-9, tol: float = 1e-11):
    """Evaluate zeta along a path, refining until arg steps are small.

    Returns (params, values, arg_steps) with arg_steps[i] the principal
    argument of values[i+1] / values[i]. Raises PathThroughZeroError when
    refinement stalls or a value collapses toward zero.
    """
    params = np.asarray(params, dtype=float)
    vals = zeta_array(points_fn(params), tol=tol)
    for _ in range(48):
        if np.any(np.abs(vals) < 1e-12):
            raise PathThroughZeroError("zeta vanishes on the tracking path")
        steps = np.angle(vals[1:] / vals[:-1])
        bad = np.abs(steps) > max_step
        if not np.any(bad):
            return params, vals, steps
        gaps = params[1:][bad] - params[:-1][bad]
        if float(np.min(np.abs(gaps))) < min_gap:
            raise PathThroughZeroError("argument jump persists below minimum step")
        mids = 0.5 * (params[:-1][bad] + params[1:][bad])
        new_vals = zeta_array(points_fn(mids), tol=tol)
        params = np.concatenate([params, mids])
        vals = np.concatenate([vals, new_vals])
        order = np.argsort(params, kind="stable")
        params, vals = params[order], vals[order]
    raise PathThroughZeroError("tracking did not stabilise")


def log_zeta_tracked(sigma0: float, t: float) -> complex:
    """log zeta(sigma0 + i t) continued along the horizontal segment.

    Seeds the principal branch at sigma = 10 (where zeta is within 2^-9 of 1)
    and varies the argument continuously down to sigma0. The real part is
    log|zeta| exactly.
    """
    s_end = complex(sigma0, t)
    if abs(s_end - 1.0) < 1e-9:
        raise PoleAtOneError("tracking endpoint at the pole")
    if sigma0 >= 10.0:
        v = zeta_array(np.array([s_end]))[0]
        return complex(math.log(abs(v)), math.atan2(v.imag, v.real))
    # denser sampling where the argument moves fastest (small sigma)
    coarse = np.linspace(10.0, max(2.0, sigma0), 12)
    fine = np.linspace(min(2.0, 10.0), sigma0, 28) if sigma0 < 2.0 else np.array([sigma0])
    sigmas = np.unique(np.concatenate([coarse, fine]))[::-1]  # 10 -> sigma0
    u = np.linspace(0.0, 1.0, len(sigmas))
    sig_of_u = lambda uu: np.interp(uu, u, sigmas)
    _, vals, steps = _adaptive_track(lambda uu: sig_of_u(uu) + 1j * t, u)
    v0, v_end = vals[0], vals[-1]
    total_arg = math.atan2(v0.imag, v0.real) + float(np.sum(steps))
    return complex(math.log(abs(v_end)), total_arg)


def _circle_derivs(f, count: int, radius: float, kmax: int, nodes: int, rounds: int,
                   settle: float):
    """Cauchy-circle Taylor data of F_j(c_j + radius e^(i phi)) for count centres c_j.

    f(rows, phis) returns the (len(rows), len(phis)) values of the centres
    `rows` at the node angles phis. Each round doubles the equispaced nodes
    (at least `nodes`, 2(kmax+1)) and yields (derivs, change): d^k F_j/ds^k
    for k <= kmax, shape (count, kmax+1), and each centre's largest change
    from the round before (inf on the first). A centre settles once its
    change is below settle * (1 + max_k |d^k F_j|): it keeps its values and
    is not evaluated again. Both arrays are updated in place; the rounds end
    when every centre has settled or after `rounds`.
    """
    ks = np.arange(kmax + 1)
    fact = np.array([math.factorial(int(k)) for k in ks], dtype=float)
    derivs = np.zeros((count, kmax + 1), dtype=complex)
    change = np.full(count, math.inf)
    rows = np.arange(count)
    m = max(nodes, 2 * (kmax + 1))
    for r in range(rounds):
        phis = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
        vals = np.asarray(f(rows, phis))
        # one (rows, nodes) product per order keeps the temporaries small
        coeff = np.stack([(vals * w).mean(axis=1) for w in np.exp(-1j * np.outer(ks, phis))],
                         axis=1)
        new = coeff * fact / radius ** ks.astype(float)
        if r:
            change[rows] = np.max(np.abs(new - derivs[rows]), axis=1)
        derivs[rows] = new
        yield derivs, change
        rows = rows[~(change[rows] < settle * (1.0 + np.max(np.abs(derivs[rows]), axis=1)))]
        if not rows.size:
            return
        m *= 2


def _zeta_circles(centres: np.ndarray, radius: float, kmax: int, nodes: int, settle: float):
    """d^k zeta/ds^k for k <= kmax at every centre, on circles of one radius.

    Each round evaluates every node of every unsettled circle in one
    separable Euler-Maclaurin pass. Returns (derivs of shape
    (len(centres), kmax + 1), each centre's last change).
    """
    def f(rows, phis):
        c, z = centres[rows], radius * np.exp(1j * phis)
        return _em_eval(c, _truncation(c[:, None] + z), 30, z)[0]

    for derivs, change in _circle_derivs(f, len(centres), radius, kmax, nodes, 5, settle):
        pass
    return derivs, change


def _circle_log_values(center: complex, radius: float, phis: np.ndarray) -> np.ndarray:
    """Branch-consistent log zeta at the circle nodes of angles phis.

    Anchors the branch at angle 0 via horizontal tracking, then continues
    around the circle (phis ascending from 0, tracked on to 2 pi). A nonzero
    net winding means the circle encloses a zero, which invalidates any
    log-based contour use.
    """
    anchor = log_zeta_tracked(center.real + radius, center.imag)
    pts_fn = lambda ph: center + radius * np.exp(1j * ph)
    params, vals, steps = _adaptive_track(pts_fn, np.append(phis, 2.0 * math.pi), max_step=0.9)
    cum = np.concatenate([[0.0], np.cumsum(steps)])
    if abs(cum[-1]) > 0.5:
        raise PathThroughZeroError(
            f"circle around {center:g} (r={radius:g}) encloses a zero "
            f"(net winding {cum[-1] / (2 * math.pi):.2f})"
        )
    idx = np.searchsorted(params, phis)
    # real part of the anchor must match log|zeta| at angle 0 by construction
    return np.log(np.abs(vals[idx])) + 1j * (anchor.imag + cum[idx])


def log_zeta_derivs(kmax: int, sigma0: float, t: float, radius: float | None = None,
                    nodes: int = 64, settle: float = 1e-11) -> tuple[np.ndarray, float]:
    """Derivatives d^k/ds^k log zeta at sigma0 + i t for k = 0..kmax.

    Cauchy circle quadrature of the tracked logarithm; the trapezoidal rule
    on a circle is spectrally accurate, and node doubling continues until
    successive derivative sets agree to `settle`. Returns (array of k+1
    values, estimated error).
    """
    if radius is None:
        radius = 0.8 * (sigma0 - 0.5)
    radius = min(radius, 0.5 * abs(complex(sigma0, t) - 1.0))
    if radius <= 0:
        raise ValueError("radius must be positive (sigma0 too close to 1/2?)")
    center = complex(sigma0, t)
    f = lambda rows, phis: _circle_log_values(center, radius, phis)[None, :]
    for derivs, change in _circle_derivs(f, 1, radius, kmax, nodes, 5, settle):
        pass
    return derivs[0], float(change[0])


def _log_zeta_line_derivs(kmax: int, sigma0: float, taus) -> tuple[np.ndarray, np.ndarray]:
    """log_zeta_derivs at sigma0 + i tau for every tau of a short run, in one batch.

    For k >= 1 the Taylor coefficients a_j of zeta on the circles of
    log_zeta_derivs (one batched kernel) give those of log zeta by the
    log-series recurrence b_k = (a_k - (1/k) sum_{0<j<k} j b_j a_{k-j}) / a_0,
    which needs no branch. log zeta itself is continued along Re s = sigma0
    from log_zeta_tracked at the lowest tau and checked against
    log_zeta_tracked at the highest; they differ by 2 pi times the number of
    zeros in [sigma0, 10] x [min tau, max tau]. A mismatch or a failed
    continuation raises PathThroughZeroError. Zeros inside a circle but left
    of the line are not seen (none exist off the critical line).

    Returns (derivs of shape (len(taus), kmax + 1), per tau a first-order
    error estimate of the k >= 1 values from the circle changes).
    """
    order = np.argsort(taus, kind="stable")
    t = np.asarray(taus, dtype=float)[order]
    params, vals, steps = _adaptive_track(lambda u: sigma0 + 1j * u, t)
    arg = log_zeta_tracked(sigma0, float(t[0])).imag + np.concatenate([[0.0], np.cumsum(steps)])
    if len(t) > 1 and abs(arg[-1] - log_zeta_tracked(sigma0, float(t[-1])).imag) > 1e-6:
        raise PathThroughZeroError(
            f"log zeta continued along Re s = {sigma0:g} over [{t[0]:g}, {t[-1]:g}] "
            f"misses the horizontal continuation: a zero lies right of the line"
        )
    idx = np.searchsorted(params, t)
    centres = sigma0 + 1j * t
    radius = min(0.8 * (sigma0 - 0.5), 0.5 * float(np.min(np.abs(centres - 1.0))))
    zeta_d, change = _zeta_circles(centres, radius, kmax, 64, 1e-11)
    fact = np.array([math.factorial(k) for k in range(kmax + 1)], dtype=float)
    a = zeta_d / fact
    b = np.empty_like(a)
    b[:, 0] = np.log(np.abs(vals[idx])) + 1j * arg[idx]
    for k in range(1, kmax + 1):
        acc = sum(j * b[:, j] * a[:, k - j] for j in range(1, k))
        b[:, k] = (a[:, k] - acc / k) / a[:, 0]
    derivs = b * fact
    err = change / np.abs(a[:, 0]) * (1.0 + np.max(np.abs(derivs), axis=1))
    undo = np.argsort(order)
    return derivs[undo], err[undo]


def zeta_derivs(kmax: int, center: complex, radius: float | None = None,
                nodes: int = 128) -> tuple[np.ndarray, float]:
    """Plain zeta derivatives at a point by Cauchy circle quadrature.

    The batched circle kernel with one centre. No branch issues here; the
    only excluded point is the pole at s = 1.
    """
    center = complex(center)
    if radius is None:
        radius = min(1.5, 0.5 * abs(center - 1.0))
    if abs(center - 1.0) <= radius:
        raise PoleAtOneError("derivative circle encloses the pole at s = 1")
    derivs, change = _zeta_circles(np.array([center]), radius, kmax, nodes, 1e-9)
    return derivs[0], float(change[0])


# ----------------------------------------------------------------------
# Functional equation factor and the critical-line scan
# ----------------------------------------------------------------------

def _log_sin(z: np.ndarray) -> np.ndarray:
    """log(sin z) safe for large |Im z| (any fixed branch; callers exp it)."""
    z = np.asarray(z, dtype=complex)
    upper = z.imag >= 0
    out = np.empty(z.shape, dtype=complex)
    zu = np.where(upper, z, np.conj(z))
    # sin z = (i/2) e^{-iz} (1 - e^{2iz}) for Im z >= 0, and log(i/2) is
    # -log 2 + i pi/2
    val = -1j * zu + np.log1p(-np.exp(2j * zu)) + (-math.log(2.0) + 0.5j * math.pi)
    out[upper] = val[upper]
    out[~upper] = np.conj(val[~upper])
    return out


def chi_factor(s) -> np.ndarray:
    """chi(s) = 2^s pi^(s-1) sin(pi s / 2) Gamma(1 - s), computed in logs."""
    s = np.asarray(s, dtype=complex)
    logchi = (
        s * math.log(2.0)
        + (s - 1.0) * math.log(math.pi)
        + _log_sin(math.pi * s / 2.0)
        + loggamma(1.0 - s)
    )
    return np.exp(logchi)


def siegel_theta(t) -> np.ndarray:
    """Riemann-Siegel theta: Im log Gamma(1/4 + it/2) - (t/2) log pi."""
    t = np.asarray(t, dtype=float)
    return loggamma(0.25 + 0.5j * t).imag - 0.5 * t * math.log(math.pi)


def hardy_z(t, tol: float = 1e-10) -> np.ndarray:
    """Hardy's real-valued Z(t) = e^{i theta(t)} zeta(1/2 + it)."""
    t = np.asarray(t, dtype=float)
    vals = np.exp(1j * siegel_theta(t)) * zeta_array(0.5 + 1j * t, tol=tol)
    return vals.real


def riemann_count_estimate(t: float) -> float:
    """Smooth zero-count estimate theta(t)/pi + 1 (exact up to S(t))."""
    return float(siegel_theta(t)) / math.pi + 1.0


@functools.lru_cache(maxsize=8)
def _zero_scan(t_hi_rounded: float) -> tuple[float, ...]:
    t_lo, t_hi = 10.0, float(t_hi_rounded)
    step = 0.05
    for _ in range(3):
        grid = np.arange(t_lo, t_hi + step, step)
        z = hardy_z(grid)
        flips = np.flatnonzero(np.signbit(z[:-1]) != np.signbit(z[1:]))
        lo, hi = grid[flips].copy(), grid[flips + 1].copy()
        zlo = z[flips].copy()
        for _ in range(52):
            mid = 0.5 * (lo + hi)
            zm = hardy_z(mid)
            left = np.signbit(zlo) != np.signbit(zm)
            hi = np.where(left, mid, hi)
            lo = np.where(left, lo, mid)
            zlo = np.where(left, zlo, zm)
        found = 0.5 * (lo + hi)
        expected = riemann_count_estimate(t_hi)
        if abs(len(found) - expected) < 0.95:
            return tuple(float(v) for v in found)
        step /= 2.0  # a close pair may have been missed; rescan finer
    raise ToleranceUnreachableError(
        f"sign-change count {len(found)} disagrees with estimate {expected:.2f}"
    )


def zero_ordinates(t_hi: float) -> np.ndarray:
    """Ordinates of the nontrivial zeros with 0 < gamma <= t_hi.

    Located by sign changes of Hardy's Z on the critical line and verified
    against the smooth counting estimate; refined by bisection.
    """
    if t_hi < 14.0:
        return np.array([], dtype=float)
    bucket = 50.0 * math.ceil(t_hi / 50.0)
    zs = np.array(_zero_scan(bucket))
    return zs[zs <= t_hi]


# ----------------------------------------------------------------------
# Rectangle zero counting by the argument principle
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroCount:
    alpha: float
    t: float
    h: float
    count: int
    winding_residual: float


def count_zeros(alpha: float, t: float, h: float) -> ZeroCount:
    """Zeros of zeta in the rectangle alpha < sigma < 2, t <= Im s <= t + h.

    Tracks the argument of zeta around the boundary and snaps the winding
    number to an integer. A boundary edge on the real axis would hit the
    pole at s = 1, so it is shifted to Im s = -1 (no zeros have |ordinate|
    below 14) and the pole, once interior, is credited back.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (0, 2)")
    if h < 0:
        raise ValueError("h must be nonnegative")
    if h == 0:
        return ZeroCount(alpha, t, h, 0, 0.0)
    t_lo, t_hi = float(t), float(t + h)
    if t_lo == 0.0:
        t_lo = -1.0
    if t_hi == 0.0:
        t_hi = 1.0
    if abs(t_lo) < 1e-6 or abs(t_hi) < 1e-6:
        raise BoundaryZeroError("horizontal edge passes too close to the pole at s = 1")
    pole_inside = (alpha < 1.0) and (t_lo < 0.0 < t_hi)

    def edge(fn, a, b, height):
        # arg zeta turns about log(height / 2 pi) radians per unit of ordinate
        # left of the critical line; about one radian per start step keeps each
        # true step far below the whole turn that principal angles cannot see
        rate = 1.0 + math.log1p(height / (2.0 * math.pi))
        samples = max(64, math.ceil(abs(b - a) * rate))
        if samples > _EDGE_SAMPLES_LIMIT:
            raise ToleranceUnreachableError(
                f"edge from {a:g} to {b:g} needs {samples} samples to track the argument"
            )
        try:
            _, _, steps = _adaptive_track(fn, np.linspace(a, b, samples), max_step=0.9)
        except PathThroughZeroError as exc:
            raise BoundaryZeroError(str(exc)) from exc
        return float(np.sum(steps))

    top = max(abs(t_lo), abs(t_hi))
    total = 0.0
    total += edge(lambda x: x + 1j * t_lo, alpha, 2.0, abs(t_lo))   # bottom, left to right
    total += edge(lambda y: 2.0 + 1j * y, t_lo, t_hi, top)          # right, upward
    total -= edge(lambda x: x + 1j * t_hi, alpha, 2.0, abs(t_hi))   # top, right to left
    total -= edge(lambda y: alpha + 1j * y, t_lo, t_hi, top)        # left, downward
    winding = total / (2.0 * math.pi)
    snapped = round(winding)
    residual = abs(winding - snapped)
    if residual >= 0.25:
        raise BoundaryZeroError(
            f"winding {winding:.4f} too far from an integer; boundary suspect"
        )
    count = int(snapped) + (1 if pole_inside else 0)
    return ZeroCount(alpha, t, h, count, residual)


def zero_density_envelope(alpha: float, h: float) -> tuple[float, float]:
    """Short-interval zero-density envelope H^(4(1-a)/(3-2a)) (log H)^100.

    Returns (log of the envelope, exponent 4(1-alpha)/(3-2alpha)).
    """
    if not 0.5 < alpha < 1.0:
        raise ValueError("alpha must lie in (1/2, 1)")
    if h <= 1.0:
        raise ValueError("H must exceed 1")
    exponent = 4.0 * (1.0 - alpha) / (3.0 - 2.0 * alpha)
    log_value = exponent * math.log(h) + 100.0 * math.log(math.log(h))
    return log_value, exponent


# ----------------------------------------------------------------------
# Selberg's explicit formula
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _von_mangoldt_cached(limit: int) -> np.ndarray:
    arr = np.zeros(limit + 1)
    for p in primes_up_to(limit).primes:
        p = int(p)
        q = p
        lp = math.log(p)
        while q <= limit:
            arr[q] = lp
            q *= p
    return arr


def von_mangoldt_table(limit: int) -> np.ndarray:
    """Array L with L[n] = log p if n is a power of the prime p, else 0."""
    return _von_mangoldt_cached(int(limit)).copy()


def _damped_weights(x: float, limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, Lambda(n), Lambda_x(n)) for n = 2..limit.

    Selberg's damped weight Lambda_x(n) = Lambda(n) clip(log(x^2/n)/log x, 0, 1)
    is the full weight below x, tapers linearly in log n on [x, x^2] and is
    zero beyond x^2.
    """
    n = np.arange(2, limit + 1, dtype=float)
    lam = _von_mangoldt_cached(max(limit, 4))[2 : limit + 1]
    return n, lam, lam * np.clip(np.log(x * x / n) / math.log(x), 0.0, 1.0)


def weighted_von_mangoldt(n: int, x: float) -> float:
    """Selberg's damped weight Lambda_x(n) at one n (see _damped_weights)."""
    if n < 1:
        raise ValueError("n must be positive")
    if x <= 1:
        raise ValueError("x must exceed 1")
    if n == 1 or n > x * x:
        return 0.0
    return float(_damped_weights(x, int(n))[2][-1])


@dataclass(frozen=True)
class SelbergSpec:
    """Inputs for the explicit formula: damping point x and known zeros.

    zeros holds positive ordinates in ascending order; `singularities` adds
    their conjugates, the trivial zeros and the pole.
    """

    x: float
    zeros: np.ndarray = field(default_factory=lambda: np.array([]))
    coverage: float | None = None  # ordinate up to which the list is complete

    def __post_init__(self):
        if self.x <= 2:
            raise ValueError("x must exceed 2")
        zs = np.asarray(self.zeros, dtype=float)
        if zs.size and np.any(np.diff(zs) < 0):
            raise ValueError("zeros must be ascending")
        object.__setattr__(self, "zeros", zs)
        if self.coverage is None:
            # a complete list scanned to T has its last zero within a couple
            # of mean gaps of T
            have = float(zs[-1]) + 2.0 if zs.size else 0.0
            object.__setattr__(self, "coverage", have)

    def check_coverage(self, t: float, window: float = 50.0):
        need = abs(t) + window
        if self.coverage < need - 1e-9:
            raise InsufficientZerosError(
                f"zero list covers ordinates to {self.coverage:g} but "
                f"coverage to {need:g} is required"
            )

    def trivial_cutoff(self, sigma: float) -> int:
        # smallest q >= 1 with x^(-2q - sigma) below 1e-16, at most 64
        q = math.floor((16.0 * math.log(10.0) / math.log(self.x) - sigma) / 2) + 1
        return min(64, max(1, q))

    def singularities(self, sigma: float) -> tuple[np.ndarray, np.ndarray]:
        """Points z and multiplicities m of the explicit formula at Re s = sigma:
        each zero and its conjugate (+1), the trivial zeros -2q up to
        trivial_cutoff(sigma) (+1), and the pole at 1 (-1)."""
        g = self.zeros
        trivial = -2.0 * np.arange(1, self.trivial_cutoff(sigma) + 1)
        z = np.concatenate([0.5 + 1j * g, 0.5 - 1j * g, trivial, [1.0]])
        m = np.ones(len(z))
        m[-1] = -1.0
        return z, m


def _kernel(s, z, x: float):
    """K(s, z) = (x^(z-s) - x^(2(z-s))) / (s-z)^2, the term of a singularity z
    in log(x) times zeta'/zeta(s)."""
    d = z - s
    return (np.exp(d * math.log(x)) - np.exp(2.0 * d * math.log(x))) / d**2


def selberg_zeta_prime_over_zeta(s: complex, spec: SelbergSpec) -> tuple[complex, float]:
    """zeta'/zeta(s) via the explicit formula, and its residual.

    -sum Lambda_x(n) n^-s + sum_z m_z K(s, z) / log x. The residual compares
    against the direct Cauchy-circle derivative of the tracked logarithm, a
    fully independent evaluation path.
    """
    s = complex(s)
    spec.check_coverage(s.imag)
    x = spec.x
    n, _, w = _damped_weights(x, int(x * x))
    z, m = spec.singularities(s.real)
    value = complex(-np.sum(w * n ** (-s)) + np.sum(m * _kernel(s, z, x)) / math.log(x))
    direct = log_zeta_derivs(1, s.real, s.imag)[0][1]
    return value, abs(value - direct)


def _f_kernel(s: complex, z: np.ndarray, x: float) -> np.ndarray:
    """F(s, z) = integral from s+10 to s of K(w, z) dw.

    Straight horizontal segment, parameterised w = s + u with u from 10 down
    to 0; the integrand decays like x^(-u), so panels concentrate near u = 0.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    xs, ws = np.polynomial.legendre.leggauss(24)
    edges = np.array([0.0, 0.2, 0.45, 0.8, 1.4, 2.4, 4.0, 6.5, 10.0])
    out = np.zeros(z.shape, dtype=complex)
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        vals = _kernel(s + mid + half * xs, z[:, None], x)
        out += -half * np.sum(ws * vals, axis=1)  # minus: path runs s+10 -> s
    return out


def selberg_log_zeta(s: complex, spec: SelbergSpec) -> complex:
    """log zeta(s) via the integrated explicit formula.

    sum Lambda_x(n) n^-s / log n + sum (Lambda - Lambda_x)(n) n^-(s+10) / log n
    + sum_z m_z F(s, z) / log x: the first sum ends at x^2, and the second,
    log zeta(s+10) less the damped part, at 2x^2 + 10, where the +10 shift
    has made its terms negligible. Branch matches the horizontal tracking
    convention because the formula integrates zeta'/zeta from s+10.
    """
    s = complex(s)
    spec.check_coverage(s.imag)
    x = spec.x
    n, lam, w = _damped_weights(x, int(2 * x * x) + 10)
    log_n = np.log(n)
    primes = np.sum(w * n ** (-s) / log_n) + np.sum((lam - w) * n ** (-(s + 10.0)) / log_n)
    z, m = spec.singularities(s.real)
    return complex(primes + np.sum(m * _f_kernel(s, z, x)) / math.log(x))


# ----------------------------------------------------------------------
# Zero list serialisation
# ----------------------------------------------------------------------

def zeros_to_csv(path, ordinates) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "ordinate"])
        for i, g in enumerate(ordinates, start=1):
            writer.writerow([i, f"{float(g):.12f}"])


def zeros_from_csv(path) -> np.ndarray:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:2] != ["index", "ordinate"]:
            raise ValueError("expected header index,ordinate")
        return np.array([float(row[1]) for row in reader])
