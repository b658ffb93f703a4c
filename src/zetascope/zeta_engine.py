"""Direct zeta evaluation, zeta Taylor data, branch-tracked logarithms,
Selberg's explicit formula, and rectangle zero counting.

One Euler-Maclaurin kernel, `_em_series`, gives zeta^(k)(s) / k! for k <=
kmax at every point of an input of any shape, with a truncation point
(`_truncation`) scaling linearly in |Im s| and 30 Bernoulli terms, whose
terms shrink geometrically once the truncation point passes |Im s| /
(2 pi). Its main sum is one blocked loop, `_blocked_sum`: a matrix product
of n^-c_j and the right factor n^-z_m (-log n)^k / k! per block of n. An
input whose points, raveled, form an arithmetic progression of L points is
ceil(L / M) centres c_j times M = ceil(sqrt L) steps z_m. The steps come
from products (`_progression_exp`), one exponential per power of two below
M. So do the centres of a progression whose real parts span at most 1 /
log N, where long double is wider than double: one per power of two from
one anchor row n^-c_0 (`_anchored_rows`), the only row that carries the
large phase t_0 log n, reduced mod 2 pi in long double. About 2 log2(sqrt
L) + 2 exponentials per n then serve L points (14 at L = 1833, where one
per entry of both factors took 86); other centres take one exponential
per entry. Any other input is its own centres with the one offset 0, and
at kmax = 0 a row sum. Its tail is a power series about each point,
summed by Horner's rule, and `_em_remainder` bounds the remainder of each
order. Values and Taylor data differ only in their
rounding floor: the certified `zeta` and `zeta_array` are the kernel's
order-0 rows (`_zeta_eval`) with the floor `_em_floor` of the main sum and
the rounding of the tail; `_zeta_taylor`, which `zeta_derivs` runs on one
centre and `log_zeta_derivs` on one shift, adds absolute sums one order up
and the phase t log n. `_em_floor` leaves that phase out, so at height a
value's estimate misses its true error (ROADMAP item 2, the open defect).
`_taylor_model`, with no bound, gives zeta's derivatives near a set of
shifts from one kernel call about them, and at step 0 the kernel's values:
it is the one way the scan (`zetascope.scan`) reads zeta.

Branch convention: log zeta is the principal branch on the real segment
(1, inf) and on Re s >= 1.1, where |Im log zeta| <= log zeta(1.1) < pi, and
is continued from sigma = 1.1 along horizontal segments; `log_zeta_tracked`
takes the principal log of one value on Re s >= 1.1. Shifts on one line Re
s = sigma0 share a branch table, `_log_zeta_line`: one track along the
line, anchored by that continuation at its lowest shift and checked
against it at its highest. `_log_from_zeta` turns zeta derivatives from
any source into log zeta derivatives, looking log zeta itself up in a
table: the log scan's, one per window, built on the values of the scan's
own grid kernel calls (so the kernel reads each grid point once, and a
lookup of a grid point cancels its rounding), or one of the run's own, on
certified values, as in `_log_zeta_line_derivs` (`_zeta_taylor`, that
transform and a bound), the kernel of `log_zeta_derivs`.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field

import numpy as np

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


def _blocked_sum(s: np.ndarray, n_trunc: int, width: int, right=None, left=None) -> np.ndarray:
    """sum_{n<N} n^-s_j right(-log n)[n, m], one matrix product per block of n.

    right maps a block's values of -log n to its (block, width) right
    factor; None means width 1 and a factor of ones, a row sum with no BLAS
    call (which would otherwise run on BLAS's own threads). left maps the
    block's first n and its values of -log n to its (len(s), block) left
    factor n^-s_j; None means one exponential per entry, and
    `_anchored_rows` serves evenly spaced rows. log n is formed per block,
    and the memory bound is per block, not per call: each factor holds at
    most max(2^13, len(s), width) entries, however long the sum. 2^13
    complex entries are 128 KiB, glibc's default mmap threshold, so the
    factors come from the heap and are reused rather than mapped and
    page-faulted afresh for every block.
    """
    vals = np.zeros((len(s), width), dtype=complex)
    block = max(1, (1 << 13) // max(len(s), width))
    for i in range(1, n_trunc, block):
        neg = -np.log(np.arange(i, min(i + block, n_trunc), dtype=float))
        if left is None:
            rows = np.outer(s, neg)
            np.exp(rows, out=rows)
        else:
            rows = left(i, neg)
        if right is None:
            vals[:, 0] += rows.sum(axis=1)
        else:
            vals += rows @ right(neg)
    return vals


def _progression_exp(neg: np.ndarray, p: np.ndarray, first) -> np.ndarray:
    """exp(p_j neg) for an arithmetic progression p_0, ..., p_(m-1): (m, len(neg)).

    Row 0 is `first`, the caller's exp(p_0 neg). Each power of two 2^k < m
    costs one exponential, at the input's own difference p_(2^k) - p_0,
    which is exact by Sterbenz wherever its two terms lie within a factor 2
    of each other, as the ordinates of a progression at height do; 2^k times
    a rounded step would not be. Rows [2^k, 2^(k+1)) are then rows [0, 2^k)
    times that factor, so row j is `first` times the factors of the set bits
    of j: the value at p_0 plus the sum of their differences, which is p_j
    when the progression is exact. Error: each factor's argument is one
    rounded product, and its exponential is correct to about u (4 + |phase|)
    relative, u = 2^-53, with a phase below |neg| |p_(m-1) - p_0| <= L |d|
    log N for the L points of step d that the progression spans and n < N.
    An entry is a product of at most f = 1 + ceil(log2 m) of them, whose
    roundings add, so it lies within f u (4 + L |d| log N) of exp(p_j neg)
    relative, beyond the error of `first`.
    """
    m = len(p)
    out = np.empty((m, len(neg)), dtype=complex)
    out[0] = first
    w = 1
    while w < m:
        top = min(2 * w, m)
        np.multiply(out[: top - w], np.exp((p[w] - p[0]) * neg), out=out[w:top])
        w = top
    return out


_TWO_PI_LD = 8 * np.arctan(np.longdouble(1.0))  # 2 pi to long double's precision
_LONG_PHASE = np.finfo(np.longdouble).nmant > 52  # long double is wider than double


def _anchored_rows(c: np.ndarray, n0: int, neg: np.ndarray) -> np.ndarray:
    """n^-c_j for the centres c of a factored progression, n from n0 on: (len(c), len(neg)).

    Only the anchor row n^-c_0 carries the large phase t_0 log n, reduced
    mod 2 pi in long double (64 mantissa bits on x86-64 Linux, so the phase
    keeps about 11 more bits than in double); its cos and sin are taken in
    double and scaled by n^-sigma_0. Every other row is the anchor times
    `_progression_exp` of the differences c_j - c_0, so all rows share the
    anchor's rounding. The last centre, which `_centres_offsets` may clamp
    off the progression, is the anchor times one more exponential. No bound
    is claimed for the reduction: `_em_floor` is unchanged. `_em_series`
    uses these rows only where long double is wider than double (a
    double-precision anchor would hand its one rounded phase to every
    point) and the centres' real parts span at most 1 / log N (so no row
    exceeds the anchor by more than a factor e, and none keeps what the
    anchor loses to underflow).
    """
    log_n = np.log(np.arange(n0, n0 + len(neg), dtype=np.longdouble))
    phase = np.fmod(log_n * np.longdouble(c[0].imag), _TWO_PI_LD).astype(float)
    anchor = np.exp(c[0].real * neg) * (np.cos(phase) - 1j * np.sin(phase))
    rows = _progression_exp(neg, c, anchor)
    rows[-1] = anchor * np.exp((c[-1] - c[0]) * neg)
    return rows


def _powers(neg: np.ndarray, kmax: int) -> np.ndarray:
    """The power table (-log n)^k / k! for k <= kmax, one row per value of -log n."""
    table = np.empty((len(neg), kmax + 1))
    table[:, 0] = 1.0
    table[:, 1:] = np.outer(neg, 1.0 / np.arange(1, kmax + 1))
    return np.cumprod(table, axis=1, out=table)


def _abs_sum(sigma, n_trunc: int):
    """1 + |(N^(1-sigma) - 1) / (1 - sigma)|, the integral majorant of sum_{n<N} n^-sigma.

    For 0 <= sigma < 1 it exceeds the sum by about 1 - 1 / (1 - sigma) -
    zeta(sigma): 0.46 at sigma = 0.51, 0.43 at 0.9.
    """
    one_minus = np.where(np.abs(1.0 - sigma) < 1e-9, 1e-9, 1.0 - sigma)
    with np.errstate(over="ignore"):
        return 1.0 + np.abs((float(n_trunc) ** np.minimum(one_minus, 300.0) - 1.0) / one_minus)


def _em_floor(sigma: np.ndarray, n_trunc: int, rows=0.0) -> np.ndarray:
    """Rounding floor of a value's main sum: (u log2 N + rows) sum_{n<N} |n^-s|, u = 2^-53.

    u log2 N grows with N, so no longer sum can bring an estimate below it.
    rows, per term and relative, is what a factored point's offset and move
    add (`_factoring_error`, `_zeta_eval`). The floor leaves out the
    rounding of the argument s log n, whose imaginary part is the phase t
    log n, and the binary powers' phases (ROADMAP item 2), which at height
    are most of the true error.
    """
    return (1.1e-16 * math.log2(n_trunc) + rows) * _abs_sum(sigma, n_trunc)


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


def _centres_offsets(s: np.ndarray):
    """(centres, offsets, index) with s.flat[i] ~ (centres[:, None] + offsets).flat[index[i]].

    s.ravel(), when it is an arithmetic progression of L >= 9 points, each
    within 4 eps max|s| of it, becomes ceil(L / M) centres times M = ceil(sqrt
    L) offsets, counted from the end with the smaller real part: the point
    whose terms n^-s are the largest is a centre, with no offset's factor
    to round and no move (`_factoring_error`). The last centre is point L -
    M, so every grid point is an input point and no point outside the input
    is evaluated. Any other input is its own centres with the one offset 0.
    """
    flat = s.ravel()
    size = flat.size
    if size >= 9:
        k = np.arange(size)
        d = (flat[-1] - flat[0]) / (size - 1)
        if np.max(np.abs(flat - (flat[0] + d * k))) <= 8.9e-16 * np.max(np.abs(flat)):
            if flat[-1].real < flat[0].real:
                centres, offsets, index = _centres_offsets(flat[::-1])
                return centres, offsets, index[::-1]
            m = math.isqrt(size - 1) + 1
            starts = np.minimum(np.arange(0, size, m), size - m)
            row = k // m
            return flat[starts], d * np.arange(m), row * m + k - starts[row]
    return flat, np.zeros(1), np.arange(size)


def _factoring_error(s: np.ndarray, n_trunc: int):
    """(rows, moved) per point of s.ravel(): what its factoring by `_centres_offsets` costs.

    rows, per term and relative, charges the factor n^-z_m of the point's
    offset m. `_progression_exp` builds it as the product of its factors
    for the b set bits of m (none for a centre, m = 0, whose factor is 1),
    each correct to 4u relative beside its exponent, u = 2^-53. The
    exponents' real parts add to Re z_m (-log n), and each is a rounded
    product of a rounded multiple of the step, so their sum is within 3u
    |Re z_m| log N of the offset's: rows = u (4 b + 3 |Re z_m| log N).
    moved = p - s is how far the kernel's point p = c_j + z_m lies from the
    input point s (`_centres_offsets` accepts points within 8.9e-16 max|s|
    of its progression). Both are 0 for an input that is not factored.
    """
    centres, offsets, index = _centres_offsets(s)
    m = index % len(offsets)
    bits = np.array([bin(j).count("1") for j in range(len(offsets))])
    rows = 1.1e-16 * (4.0 * bits + 3.0 * np.abs(offsets.real) * math.log(n_trunc))[m]
    return rows, (centres[:, None] + offsets).ravel()[index] - s.ravel()


_N_BERN = 30  # Bernoulli terms of every Euler-Maclaurin tail


def _em_series(s: np.ndarray, kmax: int, n_trunc: int):
    """Euler-Maclaurin Taylor data: zeta^(k)(s) / k! for k <= kmax at every point of s.

    The one kernel behind values and derivatives. Returns (coeffs, tail),
    both (s.size, kmax + 1) in the order of s.ravel(): the coefficients,
    and per order the size of the tail's terms, N^-sigma sum_j |bracket_j|
    |decay_(k-j)| below, which at k = 0 is |tail|; the callers' rounding
    floors need it. The main sum sum_{n<N} n^-s (-log n)^k / k! is the
    centres of `_centres_offsets` times its offsets times the power table,
    one product per block of n (`_blocked_sum`); one offset at kmax = 0 is
    a row sum. The offsets' factor is built by binary powers
    (`_progression_exp`, charged by `_factoring_error`), and so are the
    centres of a progression whose real parts span at most 1 / log N, from
    one extended-precision anchor row (`_anchored_rows`), where long double
    is wider than double; other centres take one exponential per entry. The tail N^-s
    decay(u) bracket(u), with decay(u) = e^(-u log N) and bracket(u) = N /
    (s - 1 + u) + 1/2 + sum_j beta_j (s + u)(s + 1 + u) ... (s + 2j - 2 +
    u) N^(1 - 2j) over the `_N_BERN` Bernoulli terms, is a power series in
    u, its sum by Horner's rule, per block of 240 points. The tail is added
    at the main sum's points. The remainder is bounded apart, by
    `_em_remainder`.
    """
    centres, offsets, index = _centres_offsets(s)
    if len(offsets) == 1 and not kmax:
        sums = _blocked_sum(centres + offsets[0], n_trunc, 1)
    else:
        def right(neg):  # n^-z_m (-log n)^k / k!, for every offset z_m and order k
            out = _progression_exp(neg, offsets, 1.0).T
            if kmax:
                out = (out[:, :, None] * _powers(neg, kmax)[:, None, :]).reshape(len(neg), -1)
            return out
        left = None
        if (len(offsets) > 1 and _LONG_PHASE
                and abs(centres[-1].real - centres[0].real) * math.log(n_trunc) <= 1.0):
            left = functools.partial(_anchored_rows, centres)
        sums = _blocked_sum(centres, n_trunc, len(offsets) * (kmax + 1), right, left)
    coeffs = sums.reshape(-1, kmax + 1)[index]
    points = (centres[:, None] + offsets).ravel()[index]  # the main sum's points

    nf = float(n_trunc)
    orders = range(kmax + 1)
    decay = [(-math.log(nf)) ** k / math.factorial(k) for k in orders]  # e^(-u log N)
    conv = np.array([[decay[k - j] if j <= k else 0.0 for j in orders] for k in orders])
    odd = np.arange(2 * _N_BERN - 3, 0, -2)[:, None] / nf  # (2j - 1) / N
    shift = (2.0 * odd + 1.0 / nf) / nf
    bern = _bernoulli_over_factorial()
    tail = np.empty(coeffs.shape)
    for a in range(0, points.size, 240):
        c = points[a : a + 240]
        p = len(c)
        # Horner over the Bernoulli terms, the orders of u laid end to end:
        # h <- beta_j + h (c + u + 2j - 1)(c + u + 2j) / N^2, for j = _N_BERN - 1 .. 1
        x = np.concatenate([c / nf] * (kmax + 1))
        quad = (x + odd) * (x + (odd + 1.0 / nf))
        twice = 2.0 * x[p:] / nf  # the u coefficient (2c + 4j - 1) / N^2 is twice + shift_j
        betas = np.zeros((_N_BERN, x.size), dtype=complex)  # beta_30 .. beta_1 at order 0
        betas[:, :p] = bern[_N_BERN - 1 :: -1][:, None]
        h = betas[0]
        for j in range(_N_BERN - 1):
            new = h * quad[j] + betas[j + 1]
            if kmax:
                new[p:] += h[:-p] * (twice + shift[j])
                new[2 * p :] += h[: -2 * p] * nf**-2
            h = new
        rest = h * x  # times (c + u) / N
        rest[p:] += h[:-p] / nf
        rest[:p] += 0.5
        # N^(1-s) / (s - 1 + u) apart: its exponent (1 - s) log N is small near the pole
        series = nf ** (1.0 - c) / (c - 1.0) * (-1.0 / (c - 1.0)) ** np.arange(kmax + 1)[:, None]
        series += rest.reshape(kmax + 1, p) * nf**-c
        coeffs[a : a + 240] += (conv @ series).T
        tail[a : a + 240] = (np.abs(conv) @ np.abs(series)).T
    return coeffs, tail


def _em_remainder(points: np.ndarray, kmax: int, n_trunc: int) -> np.ndarray:
    """A bound on the Euler-Maclaurin remainder of each coefficient of `_em_series`.

    Returns (len(points), kmax + 1). At k = 0 it is the classical bound at
    c: twice |first term left out| |c + 2K + 1| / (sigma + 2K + 1), K =
    `_N_BERN`. For k >= 1 it is Cauchy's, |R^(k)(c)| / k! <= max_{|s-c|=rho}
    |R(s)| / rho^k on rho = k / log N, with that bound majorised on the
    circle. At a trivial zero a factor c + i of the first term left out is 0,
    and so is the k = 0 bound: the tail is exact there. Per block of 240
    points, as the tail.
    """
    ks = np.arange(kmax + 1)
    log_nf = math.log(n_trunc)
    rho = ks / log_nf
    top = 2 * _N_BERN + 1
    # log 2 |beta_(K+1)| / rho^k
    scale = [math.log(2.0 * abs(_bernoulli_over_factorial()[_N_BERN]))
             - (k * math.log(k / log_nf) if k else 0.0) for k in range(kmax + 1)]
    out = np.empty((len(points), kmax + 1))
    for a in range(0, len(points), 240):
        c = points[a : a + 240, None]
        # |c + i| + rho for the factors c .. c + 2K of the first term left out,
        # and for the c + 2K + 1 of the guard
        factors = np.abs(c[:, :, None] + np.arange(top + 1)) + rho[:, None]
        edge = c.real - rho + top
        with np.errstate(divide="ignore"):
            log_r = np.sum(np.log(factors), axis=2) - edge * log_nf - np.log(np.maximum(edge, 1.0))
        out[a : a + 240] = np.exp(log_r + scale)
    return out


def _zeta_eval(s: np.ndarray, tol: float):
    """The certified evaluator: (values, error estimates, truncation point) at s.

    Values and estimates are flat, in the order of s.ravel(): the order-0
    rows of `_em_series` at `_truncation`'s point. It refuses before the
    pass when the rounding floor `_em_floor` already exceeds tol, and after
    it when any estimate does. The floor charges per term the factoring's
    rows and the real part of its move p - s times log N
    (`_factoring_error`), unless that move is one unit in the last place
    of Re s: the real part of the argument s log n is rounded by up to 2u
    |Re s| log n, u = 2^-53, and the floor leaves that out with the phase
    (ROADMAP item 2). An estimate is the remainder bound, that floor, and
    the rounding of the tail, 4u |tail|, with the tail's part of the move,
    |Re(p - s)| (log N + 1 / |s - 1|) |tail| (as in `_zeta_taylor`). Near
    the pole the tail's leading term N^(1-s) / (s - 1) is most of the
    value, and four roundings meet it at full size, each at most u |tail|
    to first order: the exponential in N^(1-s), the division by s - 1, its
    sum with the rest of the tail and the sum with the main part. Its
    exponent (1 - s) log N adds 2u |1 - s| log N |tail|: small near the
    pole, and at height part of the phase rounding `_em_floor` leaves out.
    A tol that is not positive, or not finite (NaN, which no comparison
    refuses, or inf, which every estimate meets), is a ValueError, also for
    an empty input, which then gives empty values and truncation point 0.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    flat = s.ravel()
    if flat.size == 0:
        return flat, np.zeros(0), 0
    n_trunc = _truncation(flat)
    rows, moved = _factoring_error(flat, n_trunc)
    dx, log_n = np.abs(moved.real), math.log(n_trunc)
    dx[dx <= np.abs(np.spacing(flat.real))] = 0.0  # within the argument's own rounding
    floor = _em_floor(flat.real, n_trunc, rows + dx * log_n)
    if float(np.max(floor)) > tol:
        raise ToleranceUnreachableError(
            f"could not certify tolerance {tol:g} (rounding floor {float(np.max(floor)):.3g} "
            f"at {n_trunc} terms)"
        )
    coeffs, tail = _em_series(s, 0, n_trunc)
    err = (_em_remainder(flat, 0, n_trunc)[:, 0] + floor
           + (4.4e-16 + dx * (log_n + 1.0 / np.abs(flat - 1.0))) * tail[:, 0])
    if float(np.max(err)) > tol:
        raise ToleranceUnreachableError(
            f"could not certify tolerance {tol:g} (max error {float(np.max(err)):.3g})"
        )
    return coeffs[:, 0], err, n_trunc


def zeta_array(s, tol: float = 1e-11) -> np.ndarray:
    """Vectorised zeta via Euler-Maclaurin, certified to tol per point; the shape of s is kept."""
    s_arr = np.asarray(s, dtype=complex)
    return _zeta_eval(s_arr, tol)[0].reshape(s_arr.shape)


def zeta(s: complex, tol: float = 1e-11) -> ZetaEval:
    """Scalar zeta with a certified error estimate."""
    vals, err, n_trunc = _zeta_eval(np.array([complex(s)]), tol)
    return ZetaEval(complex(vals[0]), float(err[0]), n_trunc)


def _zeta_taylor(centres: np.ndarray, kmax: int):
    """zeta^(k)(c_j) for k <= kmax at every centre, with a bound on each error.

    `_em_series` at `_truncation`'s point, times k!. Returns (derivs, err),
    both (len(centres), kmax + 1). err adds to the remainder bound
    `_em_remainder` the rounding floor eps log2 N sum_n (log n)^k n^-sigma,
    the factoring's rows times that sum, and the rounding of the point, of
    the argument s log n (at height its phase t log n) and the factoring's
    move (`_factoring_error`): r = 2 eps |c| + |p - c|. It moves zeta^(k)
    by r |zeta^(k+1)|, at most r (sum_n (log n)^(k+1) n^-sigma + (log N + (k
    + 1) / |c - 1|) |tail_k| k!), since each further order of the tail
    about c, N^-c bracket, adds log N or 1 / |c - 1|. The tail near the
    pole at s = 1 is most of zeta^(k), and its 2 `_N_BERN` sums and products
    add their own rounding.
    """
    c = np.asarray(centres, dtype=complex)
    n_trunc = _truncation(c)
    ks = np.arange(kmax + 1)
    fact = np.array([math.factorial(k) for k in range(kmax + 2)], dtype=float)
    coeffs, tail = _em_series(c, kmax, n_trunc)
    rows, moved = _factoring_error(c, n_trunc)
    # |sum_n n^-sigma (-log n)^k / k!| per real part, one order beyond kmax
    sigmas, which = np.unique(c.real, return_inverse=True)
    absum = np.abs(_blocked_sum(sigmas, n_trunc, kmax + 2,
                                lambda neg: _powers(neg, kmax + 1)))[which] * fact
    r = (4.4e-16 * np.abs(c) + np.abs(moved))[:, None]
    floor = ((2.2e-16 * math.log2(n_trunc) + rows[:, None]) * absum[:, :-1] + r * absum[:, 1:]
             + (r * (math.log(n_trunc) + (ks + 1) / np.abs(c - 1.0)[:, None])
                + 2.2e-16 * (2 * _N_BERN + ks + 4)) * tail * fact[:-1])
    return coeffs * fact[:-1], _em_remainder(c, kmax, n_trunc) * fact[:-1] + floor


def _taylor_model(n: int, sigma0: float, taus0: np.ndarray, step: float):
    """zeta^(k), k < n, at shifts within step of the candidates taus0, from one kernel call.

    The scan's one reader of zeta, in both modes: at step 0 about the very
    shifts it is then asked for (a grid chunk, or the refined shifts), and
    at the window's step about the candidates of the refinement, every shift
    of which lies within `step` of its own candidate. Each candidate gets q
    centres, evenly spaced, q the least odd integer above step log N for the
    truncation point N of `_truncation` at the centres: taus0 + step (2i + 1
    - q) / q, i < q, whose middle one is the candidate itself (q = 1 when
    step log N < 1). Each shift then lies within r = step / q of a centre.
    `_em_series` at the centres c = sigma0 + i tau_c, to order kmax, gives
    a_j = zeta^(j)(c) / j!. At c + i delta, zeta^(k) is sum_{j>=k} j! / (j -
    k)! a_j (i delta)^(j-k); each order k < n is summed to j = kmax by
    Horner's rule about the nearest centre. Returns derivs(taus), the (size,
    n) derivatives at the shifts in ravel order.

    The order kmax: in the main sum the series of order k is, term by term,
    n^-c (-log n)^k times the Taylor series of e^(-i delta log n), whose
    remainder after degree m - 1 is at most |delta log n|^m / m!, since
    the exponent is imaginary. With n < N and x = r log N < 1, the part of
    order k left out is at most (log N)^k A x^m / m!, m = kmax - k + 1 >=
    kmax - n + 2, A = sum_{n<N} n^-sigma0 (majorised by `_abs_sum`). The
    Euler-Maclaurin tail is about one more term at n = N, its bracket
    varying by O(r / |c - 1|) over the disc, inside the margin by which the
    majorant exceeds A. kmax is the least order whose A x^m / m! at order
    n - 1 is below 2^-53: the rounding of one term of order k's size (log
    N)^k, far below the direct kernel's own floor (`_zeta_taylor`). x < 1
    keeps the Horner sums, whose terms add up to e^x A (log N)^k, from
    cancelling.

    The pole at s = 1: the tail about c converges on |u| < |c - 1|. Since N
    >= 24, r < 1 / log N < 1/3, so r is below a third of |c - 1| wherever
    |Im c| >= 1, as at every centre of a window with t >= step + 1. Nearer
    the pole, q grows on by 2 until 3 r <= |c - 1| at every centre; that
    ends, since |c - 1| >= 1 - sigma0 > 0. At step 0, q = 1, kmax = n - 1,
    and Horner's rule at delta = 0 returns k! a_k: the kernel's values.
    """
    q = 1
    while True:
        centres = np.sort((taus0[:, None] + step * (np.arange(1 - q, q, 2) / q)).ravel())
        s = sigma0 + 1j * centres
        n_trunc = _truncation(s)
        x = step / q * math.log(n_trunc)
        if x < 1.0 and 3.0 * step / q <= float(np.min(np.abs(s - 1.0))):
            break
        q += 2
    m, drop = 1, float(_abs_sum(sigma0, n_trunc)) * x
    while drop >= 2.0**-53:
        m += 1
        drop *= x / m
    kmax = n - 2 + m
    a = _em_series(s, kmax, n_trunc)[0]
    # coef[c, d, k] = (k + d)! / d! a_(k+d), the coefficient of (i delta)^d in order k
    j = np.arange(kmax + 1)[:, None] + np.arange(n)
    falling = np.array([[math.perm(d + k, k) for k in range(n)] for d in range(kmax + 1)])
    coef = np.where(j <= kmax, a[:, np.minimum(j, kmax)] * falling, 0.0)
    mids = 0.5 * (centres[1:] + centres[:-1])

    def derivs(taus):
        t = np.ravel(taus)
        owner = np.searchsorted(mids, t)
        z = 1j * (t - centres[owner])[:, None]
        c = coef[owner]
        h = c[:, kmax]
        for d in range(kmax - 1, -1, -1):
            h = h * z + c[:, d]
        return h

    return derivs


# ----------------------------------------------------------------------
# Branch tracking
# ----------------------------------------------------------------------

def _adaptive_track(points_fn, params: np.ndarray, *, max_step: float = 1.0, values=None):
    """Evaluate zeta along a path, refining until arg steps are small.

    Returns (params, values, arg_steps) with arg_steps[i] the principal
    argument of values[i+1] / values[i]. values, when given, are zeta at
    points_fn(params) from any source, and the track takes them as they
    are; otherwise they come from zeta_array, certified to 1e-11, as do the
    midpoints a refinement inserts. params must increase, since a
    refinement sorts its midpoints in. Raises PathThroughZeroError when
    refinement stalls (an arg step above max_step across a parameter gap
    below 1e-9) or a value collapses toward zero.
    """
    params = np.asarray(params, dtype=float)
    vals = zeta_array(points_fn(params), tol=1e-11) if values is None else np.asarray(values)
    for _ in range(48):
        if np.any(np.abs(vals) < 1e-12):
            raise PathThroughZeroError("zeta vanishes on the tracking path")
        steps = np.angle(vals[1:] / vals[:-1])
        bad = np.abs(steps) > max_step
        if not np.any(bad):
            return params, vals, steps
        gaps = params[1:][bad] - params[:-1][bad]
        if float(np.min(np.abs(gaps))) < 1e-9:
            raise PathThroughZeroError("argument jump persists below minimum step")
        mids = 0.5 * (params[:-1][bad] + params[1:][bad])
        new_vals = zeta_array(points_fn(mids), tol=1e-11)
        params = np.concatenate([params, mids])
        vals = np.concatenate([vals, new_vals])
        order = np.argsort(params, kind="stable")
        params, vals = params[order], vals[order]
    raise PathThroughZeroError("tracking did not stabilise")


def log_zeta_tracked(sigma0: float, t: float) -> complex:
    """log zeta(sigma0 + i t) continued along the horizontal segment from sigma = 1.1.

    On Re s > 1, log zeta(s) = sum_p sum_k p^(-ks) / k, real on the real
    axis, so |Im log zeta(s)| <= log zeta(sigma) <= log zeta(1.1) = 2.36 < pi
    on Re s >= 1.1: the branch is principal there, and for sigma0 >= 1.1
    the result is the principal log of one certified value. Otherwise the
    principal value at 1.1 + i t starts the track exactly, and one
    `_adaptive_track` adds the principal arg steps over s = 1.1 + u (sigma0
    - 1.1) + i t, u = linspace(0, 1, 28), a progression the kernel factors.
    The real part is log|zeta| exactly.
    """
    s_end = complex(sigma0, t)
    if abs(s_end - 1.0) < 1e-9:
        raise PoleAtOneError("tracking endpoint at the pole")
    if sigma0 >= 1.1:
        return complex(np.log(zeta_array(np.array([s_end]))[0]))
    _, vals, steps = _adaptive_track(lambda u: 1.1 + u * (sigma0 - 1.1) + 1j * t,
                                     np.linspace(0.0, 1.0, 28))
    v0, v_end = vals[0], vals[-1]
    total_arg = math.atan2(v0.imag, v0.real) + float(np.sum(steps))
    return complex(math.log(abs(v_end)), total_arg)


def log_zeta_derivs(kmax: int, sigma0: float, t: float,
                    radius: float | None = None) -> tuple[np.ndarray, float]:
    """Derivatives d^k/ds^k log zeta at sigma0 + i t for k = 0..kmax.

    The kernel `_log_zeta_line_derivs` on the one shift t. Returns (array of
    k+1 values, that kernel's error bound of the k >= 1 values). First zeta
    is tracked once around the circle |s - sigma0 - i t| = radius (default
    0.8 (sigma0 - 1/2), at most half the distance to the pole); a net
    winding there means the disk holds a zero, so log zeta is not analytic
    on it, and raises PathThroughZeroError.
    """
    center = complex(sigma0, t)
    if radius is None:
        radius = 0.8 * (sigma0 - 0.5)
    radius = min(radius, 0.5 * abs(center - 1.0))
    if radius <= 0:
        raise ValueError("radius must be positive (sigma0 too close to 1/2?)")
    _, _, steps = _adaptive_track(lambda ph: center + radius * np.exp(1j * ph),
                                  np.linspace(0.0, 2.0 * math.pi, 65), max_step=0.9)
    winding = float(np.sum(steps))
    if abs(winding) > 0.5:
        raise PathThroughZeroError(
            f"circle around {center:g} (r={radius:g}) encloses a zero "
            f"(net winding {winding / (2 * math.pi):.2f})"
        )
    derivs, err = _log_zeta_line_derivs(kmax, sigma0, [t])
    return derivs[0], float(err[0])


def _log_zeta_line(sigma0: float, taus, values=None):
    """The branch of log zeta along Re s = sigma0 over a run of shifts: (params, values, arg).

    One `_adaptive_track` along the line through the sorted taus gives zeta
    at params (the taus and any points it inserted) with principal steps of
    at most 1 rad between neighbours. values, when given, are zeta at
    sigma0 + i taus from any source, such as the log scan's own kernel
    values, so that a lookup of one of them cancels its rounding exactly;
    the track then evaluates only the points it inserts. arg is anchored by
    `log_zeta_tracked` at the lowest tau, moved onto the angle of the
    table's own value there (the two values round differently, and a
    lookup, `_line_arg`, cancels only the table's rounding), and checked
    against it at the highest. The two differ by 2 pi times the number of
    zeros in [sigma0, 1.1] x [min tau, max tau], so a mismatch raises
    PathThroughZeroError ("right of the line"), as does a failed track.
    Zeros left of the line are not seen (none exist off the critical line);
    `log_zeta_derivs` checks a disk around its one point.
    """
    order = np.argsort(taus)
    t = np.asarray(taus, dtype=float)[order]
    if values is not None:
        values = np.asarray(values)[order]
    params, vals, steps = _adaptive_track(lambda u: sigma0 + 1j * u, t, values=values)
    anchor = log_zeta_tracked(sigma0, float(t[0])).imag
    anchor += np.angle(vals[0] * np.exp(-1j * anchor))  # onto the table's own first value
    arg = anchor + np.concatenate([[0.0], np.cumsum(steps)])
    if len(t) > 1 and abs(arg[-1] - log_zeta_tracked(sigma0, float(t[-1])).imag) > 1e-6:
        raise PathThroughZeroError(
            f"log zeta continued along Re s = {sigma0:g} over [{t[0]:g}, {t[-1]:g}] "
            f"misses the horizontal continuation: a zero lies right of the line"
        )
    return params, vals, arg


def _line_arg(line, t: np.ndarray, z: np.ndarray):
    """arg zeta at the shifts t, where zeta is z, looked up in a `_log_zeta_line` table.

    With lo the table point at or below a shift, arg = arg[lo] + angle(z /
    values[lo]). None when a shift lies outside the table, |z| < 1e-12, or a
    principal step lo -> shift or shift -> lo + 1 exceeds 1 rad: the rule
    `_adaptive_track` applies between neighbours.
    """
    params, vals, arg = line
    lo = np.searchsorted(params, t, side="right") - 1
    if np.any(lo < 0) or np.any(t > params[-1]) or np.any(np.abs(z) < 1e-12):
        return None
    step_in = np.angle(z / vals[lo])
    step_out = np.angle(vals[np.minimum(lo + 1, len(params) - 1)] / z)
    if np.any(np.abs(step_in) > 1.0) or np.any(np.abs(step_out) > 1.0):
        return None
    return arg[lo] + step_in


def _log_from_zeta(zeta_d: np.ndarray, sigma0: float, t: np.ndarray, line=None) -> np.ndarray:
    """d^k/ds^k log zeta at sigma0 + i t, k <= kmax, from zeta's derivatives there.

    zeta_d is (len(t), kmax + 1), zeta^(k) at each shift, from any source:
    the kernel, or a Taylor model of it. For k >= 1 the Taylor coefficients
    a_j = zeta^(j) / j! give those of log zeta by the log-series recurrence
    b_k = (a_k - (1/k) sum_{0<j<k} j b_j a_{k-j}) / a_0, which needs no
    branch. log zeta itself is log|a_0| plus the argument looked up
    (`_line_arg`) in a branch table of the line, `_log_zeta_line`: `line`,
    a table the caller built once over a wider run, or, when it is None or
    a shift fails the lookup, a table of this run's own. A failed own table
    or lookup raises PathThroughZeroError.
    """
    arg = None if line is None else _line_arg(line, t, zeta_d[:, 0])
    if arg is None:
        arg = _line_arg(_log_zeta_line(sigma0, t), t, zeta_d[:, 0])
        if arg is None:
            raise PathThroughZeroError(
                f"a shift in [{t.min():g}, {t.max():g}] on Re s = {sigma0:g} has |zeta| "
                f"below 1e-12 or turns more than 1 rad from its own line table"
            )
    fact = np.array([math.factorial(k) for k in range(zeta_d.shape[1])], dtype=float)
    a = zeta_d / fact
    b = np.empty_like(a)
    b[:, 0] = np.log(np.abs(a[:, 0])) + 1j * arg
    for k in range(1, len(fact)):
        acc = sum(j * b[:, j] * a[:, k - j] for j in range(1, k))
        b[:, k] = (a[:, k] - acc / k) / a[:, 0]
    return b * fact


def _log_zeta_line_derivs(kmax: int, sigma0: float, taus) -> tuple[np.ndarray, np.ndarray]:
    """d^k/ds^k log zeta at sigma0 + i tau, k <= kmax, for every tau of a run, in one batch.

    The zeta derivatives of one batched `_zeta_taylor` call, turned into
    log zeta derivatives by `_log_from_zeta` on a branch table of the run's
    own. Returns (derivs of shape (len(taus), kmax + 1), per tau a
    first-order error bound of the k >= 1 values: the largest error bound
    of the zeta derivatives over |zeta|, times 1 + max_k |derivs|).
    """
    t = np.asarray(taus, dtype=float)
    zeta_d, zeta_err = _zeta_taylor(sigma0 + 1j * t, kmax)
    derivs = _log_from_zeta(zeta_d, sigma0, t)
    err = np.max(zeta_err, axis=1) / np.abs(zeta_d[:, 0]) * (1.0 + np.max(np.abs(derivs), axis=1))
    return derivs, err


def zeta_derivs(kmax: int, center: complex) -> tuple[np.ndarray, float]:
    """Plain zeta derivatives d^k zeta/ds^k at a point for k = 0..kmax.

    The Taylor kernel `_zeta_taylor` on one centre. Returns (array of k+1
    values, the largest of their error bounds). The only excluded point is
    the pole at s = 1.
    """
    derivs, err = _zeta_taylor(np.array([complex(center)]), kmax)
    return derivs[0], float(np.max(err))


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
    from scipy.special import loggamma  # scipy is loaded only where it is used

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
    from scipy.special import loggamma

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
    against the smooth counting estimate; refined by bisection. An infinite
    or NaN t_hi is a ValueError.
    """
    if not math.isfinite(t_hi):
        raise ValueError(f"t_hi must be finite, got {t_hi!r}")
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
    below 14) and the pole, once interior, is credited back. t and h must be
    finite, h nonnegative.
    """
    if not 0.0 < alpha < 2.0:
        raise ValueError("alpha must lie in (0, 2)")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    if not 0.0 <= h < math.inf:
        raise ValueError(f"h must be nonnegative and finite, got {h!r}")
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
    against `log_zeta_derivs`, from the Euler-Maclaurin Taylor data of zeta,
    a path independent of the explicit formula.
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
