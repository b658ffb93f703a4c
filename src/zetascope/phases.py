"""Phase assignments on primes and twisted Euler-product sums.

A phase assignment maps primes to turns theta_p in [0, 1); the twist enters
as exp(-2*pi*i*theta_p). Unassigned primes carry phase 0. It is stored as
two sorted arrays, int64 primes and their turns, so every lookup is one
binary search. Only primes that come from outside the package are checked
by Miller-Rabin; primes the package sieved itself are trusted. All sums
here are finite; the bound `log_euler_deriv` reports covers its prime-power
truncation and its rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .primes import PrimeTable, is_prime

_U = 2.0**-53  # unit roundoff of float64

__all__ = [
    "PhaseAssignment",
    "LogDerivSpec",
    "alternating_phases",
    "prime_phase_sum",
    "prime_phase_sum_deriv",
    "log_euler_deriv",
    "default_ell_max",
]


class PhaseAssignment:
    """Immutable map prime -> phase in turns, reduced into [0, 1).

    Primes not present default to phase 0, matching the convention that only
    finitely many coordinates are ever twisted. The map is held as a sorted
    int64 array of primes and a float array of turns. The public constructor
    checks every prime with Miller-Rabin, because its input comes from the
    caller; primes the package sieved itself enter through `_from_sorted`,
    which checks nothing.
    """

    __slots__ = ("_primes", "_turns")

    def __init__(self, entries: Mapping[int, float] | Iterable[tuple[int, float]] = ()):
        items = entries.items() if isinstance(entries, Mapping) else entries
        store = {}
        for p, th in items:
            p = int(p)
            if not is_prime(p):
                raise ValueError(f"phase assigned to non-prime {p}")
            store[p] = float(th)
        ps = sorted(store)
        self._set(ps, [store[p] for p in ps])

    @classmethod
    def _from_sorted(cls, primes: np.ndarray, turns: np.ndarray) -> "PhaseAssignment":
        """Assignment over ascending, distinct primes the package sieved; no checks."""
        obj = cls.__new__(cls)
        obj._set(primes, turns)
        return obj

    def _set(self, primes, turns) -> None:
        reduced = np.remainder(np.asarray(turns, dtype=float), 1.0)
        # the remainder of a tiny negative turn rounds up to exactly 1.0
        self._turns = np.where(reduced < 1.0, reduced, 0.0)
        # a view, so that freezing it leaves the caller's array writable
        self._primes = np.asarray(primes, dtype=np.int64).view()
        self._primes.flags.writeable = False
        self._turns.flags.writeable = False

    def get(self, p: int) -> float:
        return float(self.phases_for(np.array([int(p)]))[0])

    def phases_for(self, primes) -> np.ndarray:
        """Turns at each given prime, 0 where unassigned; float arrays of
        integer values are accepted."""
        q = np.asarray(primes).astype(np.int64, copy=False)
        out = np.zeros(q.shape, dtype=float)
        if len(self._primes):
            idx = np.minimum(np.searchsorted(self._primes, q), len(self._primes) - 1)
            hit = self._primes[idx] == q
            out[hit] = self._turns[idx[hit]]
        return out

    def items(self) -> list[tuple[int, float]]:
        """(prime, turns) pairs as Python numbers, primes ascending."""
        return list(zip(self._primes.tolist(), self._turns.tolist()))

    def __len__(self):
        return len(self._primes)

    def __eq__(self, other):
        return (isinstance(other, PhaseAssignment)
                and np.array_equal(self._primes, other._primes)
                and np.array_equal(self._turns, other._turns))

    def shifted(self, shifts: Mapping[int, float]) -> "PhaseAssignment":
        moved = PhaseAssignment(shifts)._primes  # checks the caller's primes
        delta = np.array([float(shifts[p]) for p in moved.tolist()])
        return self.merged(PhaseAssignment._from_sorted(moved, self.phases_for(moved) + delta))

    def negated(self) -> "PhaseAssignment":
        return PhaseAssignment._from_sorted(self._primes, -self._turns)

    def merged(self, other: "PhaseAssignment") -> "PhaseAssignment":
        """Union of both assignments; on a prime in both, other's phase wins."""
        keep = ~np.isin(self._primes, other._primes, assume_unique=True)
        ps = np.concatenate([self._primes[keep], other._primes])
        order = np.argsort(ps)
        turns = np.concatenate([self._turns[keep], other._turns])
        return PhaseAssignment._from_sorted(ps[order], turns[order])

    def to_records(self):
        """Serialisable (prime, theta) sequence."""
        return [{"prime": p, "theta": t} for p, t in self.items()]

    def __repr__(self):
        return f"PhaseAssignment({len(self)} primes)"


def alternating_phases(table: PrimeTable) -> PhaseAssignment:
    """Phase 0 on the 1st, 3rd, 5th, ... prime and 1/2 on the rest."""
    turns = np.zeros(len(table.primes), dtype=float)
    turns[1::2] = 0.5
    return PhaseAssignment._from_sorted(table.primes, turns)


def _as_array(primes, dtype) -> np.ndarray:
    """Any iterable of primes as an array; an array input is not iterated in Python."""
    return np.asarray(primes if isinstance(primes, np.ndarray) else list(primes), dtype=dtype)


def _twists(primes: np.ndarray, theta: PhaseAssignment) -> np.ndarray:
    return np.exp(-2j * np.pi * theta.phases_for(primes))


def prime_phase_sum(primes, s: complex, theta: PhaseAssignment) -> complex:
    """Sum of exp(-2*pi*i*theta_p) * p^(-s) over the given primes."""
    ps = _as_array(primes, float)
    if ps.size == 0:
        return 0j
    return complex(np.sum(_twists(ps, theta) * ps ** (-complex(s))))


def prime_phase_sum_deriv(primes, k: int, sigma0: float, theta: PhaseAssignment) -> complex:
    """k-th s-derivative of the twisted prime sum at s = sigma0.

    Exact finite sum: exp(-2*pi*i*theta_p) * (-log p)^k * p^(-sigma0).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    ps = _as_array(primes, float)
    if ps.size == 0:
        return 0j
    return complex(np.sum(_twists(ps, theta) * (-np.log(ps)) ** k * ps ** (-sigma0)))


def default_ell_max(primes, k: int, sigma0: float, tol: float = 1e-14) -> int:
    """Smallest prime-power depth ell >= max(2, k + 1), at most 10_000, whose
    rigorous tail bound `_tail_bound` is below tol.

    The smallest prime's own term of that bound is a lower bound on the whole
    bound, and it costs only scalar arithmetic. The search first finds the
    depth where that term falls below tol (with a margin of 1e-9 relative,
    for any difference of rounding from the array code), then steps up from
    there with full-array bounds. The first full-array probe is usually the
    answer already; every depth skipped has a term, and so a bound, at or
    above tol.
    """
    return _depth_and_bound(_as_array(primes, float), k, sigma0, tol)[0]


def _depth_and_bound(ps: np.ndarray, k: int, sigma0: float, tol: float) -> tuple[int, float]:
    """default_ell_max's depth and the `_tail_bound` its search computed
    there (every depth the search returns was probed)."""
    if ps.size == 0:
        return 1, 0.0
    p0 = float(ps.min())
    x0, log_p0 = p0 ** (-sigma0), math.log(p0)

    def lowest_below(ell):
        t, q = _tail_terms(x0, log_p0, k, ell + 1)
        return q < 1.0 and t / (1.0 - q) < tol * (1.0 + 1e-9)

    bounds = {}

    def below(ell):
        bounds[ell] = _tail_bound(ps, k, sigma0, ell)
        return bounds[ell] < tol

    ell = _first_depth(below, _first_depth(lowest_below, max(2, k + 1)))
    return ell, bounds[ell]


def _first_depth(below, ell: int) -> int:
    """First depth >= ell where below holds, or 10_000 if none is up to there;
    below must be false up to some depth and true after it. The step doubles
    until below holds, then bisection finds the first depth."""
    lo, step = ell - 1, 1
    while not below(ell):
        if ell >= 10_000:
            return ell
        lo, ell, step = ell, min(ell + step, 10_000), 2 * step
    while ell - lo > 1:  # below(ell), and lo is below the first depth or not below(lo)
        mid = (lo + ell) // 2
        lo, ell = (lo, mid) if below(mid) else (mid, ell)
    return ell


@dataclass(frozen=True)
class LogDerivSpec:
    """Order, abscissa, and prime-power depth for log-Euler derivatives.

    ell_max = None defers the depth choice to default_ell_max at call time,
    which guarantees the ell-tail bound sits below tol.
    """

    k: int
    sigma0: float
    ell_max: int | None = None
    tol: float = 1e-14

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be nonnegative")
        if not 0.5 < self.sigma0 <= 1.0:
            raise ValueError("sigma0 must lie in (1/2, 1]")
        if self.ell_max is not None and self.ell_max < 1:
            raise ValueError("ell_max must be at least 1")


class LogDerivResult(NamedTuple):
    value: complex
    tail_bound: float


def _tail_terms(x, log_p, k: int, nxt: int):
    """First dropped term t = nxt^(k-1) (log p)^k x^nxt of each prime, with
    x = p^(-sigma0), and the worst ratio q of the terms after it; x and log_p
    are arrays or Python floats alike."""
    if k == 0:
        return x**nxt / nxt, x
    return float(nxt) ** (k - 1) * log_p**k * x**nxt, x * ((nxt + 1) / nxt) ** (k - 1)


def _tail_bound(ps: np.ndarray, k: int, sigma0: float, ell_max: int) -> float:
    """Rigorous bound on the dropped ell > ell_max part of the double sum.

    Per prime, terms t(ell) = ell^(k-1) (log p)^k p^(-ell*sigma0) decay at
    worst by q = p^(-sigma0) * ((ell+1)/ell)^(k-1) once ell > ell_max; the
    tail is then t(ell_max+1) / (1 - q) whenever q < 1.
    """
    t, q = _tail_terms(ps ** (-sigma0), np.log(ps), k, ell_max + 1)
    if np.any(q >= 1.0):
        return math.inf
    return float(np.sum(t / (1.0 - q)))


def log_euler_deriv(primes, spec: LogDerivSpec, theta: PhaseAssignment) -> LogDerivResult:
    """k-th derivative at sigma0 of the log of the twisted Euler product.

    Expands log(1 - e(-theta_p) p^(-s))^(-1) into prime powers,
    (-1)^k sum over p and ell <= ell_max of e(-ell theta_p) mag(ell, p) with
    mag = (ell log p)^k p^(-ell sigma0) / ell, and sums every term in one
    pass. The returned bound covers all that the value leaves out or rounds:

    - the power tail ell > ell_max (`_tail_bound`);
    - a cut per power: every prime has mag <= lead p^(-s), with
      lead = (ell log p_max)^k / ell and s = ell sigma0, and that is at most
      drop_tol = tol 1e-3 / (ell_max * #primes) from p = x_ell on. The
      primes from the first one past the cut, a, are charged in closed
      form, at the smaller of count * lead a^(-s) and
      lead (a^(-s) + a^(1-s) / (s - 1)) (s > 1);
    - the terms before the cut that are still at most drop_tol, charged at
      their size;
    - rounding, at most (15 y + 13 ell + 13 k + 110 + 1.5 log2 N) u mag per
      term, with u = 2^-53, N the number of terms and y = ell sigma0 log p.
      The exponent y is rounded and exp amplifies that; the twist's angle
      ell theta_p is rounded at the scale of ell. log, exp, pow, cos and sin
      are taken at 4 ulp, a pairwise sum of N terms at (log2 N + 26) u times
      the sum of their sizes, and real and imaginary errors are added.
    """
    ps = np.sort(_as_array(primes, np.int64)).astype(float)
    if ps.size == 0:
        return LogDerivResult(0j, 0.0)
    k, sigma0 = spec.k, spec.sigma0
    if spec.ell_max is None:
        ell_max, tail = _depth_and_bound(ps, k, sigma0, spec.tol)
    else:
        ell_max, tail = spec.ell_max, _tail_bound(ps, k, sigma0, spec.ell_max)
    n = len(ps)
    logs = np.log(ps)
    drop_tol = spec.tol * 1e-3 / (ell_max * n)
    ells = np.arange(1.0, ell_max + 1.0)
    s = ells * sigma0
    lead = (ells * logs[-1]) ** k / ells
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cut = np.searchsorted(ps, np.exp(np.log(lead / drop_tol) / s))
        past = cut < n
        a, s_p, lead_p = ps[cut[past]], s[past], lead[past]
        head = lead_p * a ** (-s_p)
        integral = np.where(s_p > 1.0, head + lead_p * a ** (1.0 - s_p) / (s_p - 1.0), math.inf)
        charged = float(np.sum(np.minimum((n - cut[past]) * head, integral)))
    # the (ell, p) pairs before each cut, ell-major
    ell_at = np.repeat(ells, cut)
    p_at = np.arange(len(ell_at)) - np.repeat(np.cumsum(cut) - cut, cut)
    lp = logs[p_at]
    expo = ell_at * sigma0 * lp
    mag = (ell_at * lp) ** k * np.exp(-expo) / ell_at
    small = mag <= drop_tol
    charged += float(np.sum(mag[small]))
    mag[small] = 0.0
    turns = ell_at * theta.phases_for(ps)[p_at]
    angle = 2.0 * np.pi * (turns - np.floor(turns))
    value = (-1.0) ** k * complex(np.sum(mag * np.cos(angle)), -np.sum(mag * np.sin(angle)))
    rounding = _U * (15.0 * float(np.dot(mag, expo)) + 13.0 * float(np.dot(mag, ell_at))
                     + (13 * k + 110 + 1.5 * math.log2(max(len(mag), 1))) * float(np.sum(mag)))
    return LogDerivResult(value, tail + charged + rounding)
