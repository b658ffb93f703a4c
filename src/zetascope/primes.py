"""Prime generation, short-interval counts, and prime-block construction.

Blocks are narrow windows [U_j, U_j + V) with U_j = U0 * 2^j and
V = U0^((1+3*sigma0)/4); they feed the phase-target solver, which needs
every block nonempty (and ideally with at least three primes).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBlockError, ThinBlockWarning

__all__ = [
    "PrimeTable",
    "BlockSystem",
    "primes_up_to",
    "primes_in_range",
    "is_prime",
    "short_interval_count",
    "build_blocks",
]


def _simple_sieve(limit: int) -> np.ndarray:
    if limit < 2:
        return np.array([], dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def primes_in_range(lo: int, hi: int) -> np.ndarray:
    """Primes p with lo <= p <= hi via a segmented sieve.

    Only materialises base primes up to sqrt(hi), so narrow windows far out
    stay cheap.
    """
    lo = max(int(lo), 2)
    hi = int(hi)
    if hi < lo:
        return np.array([], dtype=np.int64)
    if hi <= 1_000_000 and lo <= 2:
        return _simple_sieve(hi)
    base = _simple_sieve(math.isqrt(hi))
    mask = np.ones(hi - lo + 1, dtype=bool)
    for p in base:
        p = int(p)
        start = max(p * p, ((lo + p - 1) // p) * p)
        if start > hi:
            continue
        mask[start - lo :: p] = False
    out = np.flatnonzero(mask) + lo
    return out[out >= 2].astype(np.int64)


@dataclass(frozen=True)
class PrimeTable:
    """Ascending primes up to a limit."""

    limit: int
    primes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "primes", np.asarray(self.primes, dtype=np.int64))

    def __len__(self):
        return len(self.primes)


def primes_up_to(limit: int) -> PrimeTable:
    """Exactly the primes <= limit, ascending (empty for limit < 2)."""
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    return PrimeTable(limit=int(limit), primes=_simple_sieve(int(limit)))


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond 10^18."""
    n = int(n)
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def short_interval_count(x: float, h: float) -> tuple[int, float]:
    """Count primes in (x, x+h] and the density prediction h/log(x).

    Returns (count, prediction). The count is exact (segmented sieve); the
    prediction is the short-interval prime-counting heuristic.
    """
    if x <= 1:
        raise ValueError("x must exceed 1")
    if h < 0:
        raise ValueError("h must be nonnegative")
    lo = math.floor(x) + 1
    hi = math.floor(x + h)
    count = 0 if hi < lo else len(primes_in_range(lo, hi))
    return count, h / math.log(x)


def _block_bounds(u_j: float, v: float) -> tuple[int, int]:
    """Integer bounds [lo, hi] equivalent to u_j <= p < u_j + v.

    Using ceil on both edges removes floating-point ambiguity: an integer p
    satisfies p < u_j + v exactly when p <= ceil(u_j + v) - 1.
    """
    lo = math.ceil(u_j)
    hi = math.ceil(u_j + v) - 1
    return lo, hi


@dataclass(frozen=True)
class BlockSystem:
    """Disjoint prime windows [U_j, U_j + V) with their log nodes.

    nodes[j] = -log(U_j) are the (distinct) interpolation nodes used by the
    phase-target solver.
    """

    u0: float
    n: int
    v: float
    sigma0: float
    blocks: tuple[np.ndarray, ...]
    nodes: tuple[float, ...]

    @property
    def all_primes(self) -> np.ndarray:
        return np.concatenate(self.blocks) if self.blocks else np.array([], dtype=np.int64)

    def radius(self, j: int) -> float:
        """Sum of p^(-sigma0) over block j: the reachable disk radius."""
        return float(np.sum(self.blocks[j].astype(float) ** (-self.sigma0)))

    @property
    def thin_blocks(self) -> tuple[int, ...]:
        return tuple(j for j, b in enumerate(self.blocks) if len(b) < 3)


def build_blocks(u0: float, n: int, sigma0: float, *, warn_thin: bool = True) -> BlockSystem:
    """Construct the N prime blocks [U0*2^j, U0*2^j + V).

    V = U0^((1+3*sigma0)/4) < U0, so blocks are pairwise disjoint. Raises
    EmptyBlockError when a window holds no prime; emits ThinBlockWarning when
    a window holds fewer than three.
    """
    if not 1 < u0 < math.inf:
        raise ValueError(f"u0 must exceed 1 and be finite, got {u0!r}")
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.5 < sigma0 < 1:
        raise ValueError("sigma0 must lie in (1/2, 1)")
    v = u0 ** ((1 + 3 * sigma0) / 4)
    blocks = []
    nodes = []
    for j in range(n):
        u_j = u0 * 2**j
        lo, hi = _block_bounds(u_j, v)
        ps = primes_in_range(lo, hi)
        if len(ps) == 0:
            raise EmptyBlockError(j, u_j, u_j + v)
        if warn_thin and len(ps) < 3:
            warnings.warn(
                f"block {j} = [{u_j:g}, {u_j + v:g}) holds only {len(ps)} prime(s)",
                ThinBlockWarning,
                stacklevel=2,
            )
        blocks.append(ps)
        nodes.append(-math.log(u_j))
    return BlockSystem(
        u0=float(u0), n=int(n), v=float(v), sigma0=float(sigma0),
        blocks=tuple(blocks), nodes=tuple(nodes),
    )
