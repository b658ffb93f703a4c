"""The prime-log torus curve, frequency vectors, and Weyl integrals.

The curve winds through the torus with one coordinate per prime, the p-th
moving at speed log(p)/2pi. Coordinates are reduced mod 1 in double-double
arithmetic so that absolute phase accuracy stays near 1e-10 even for
t ~ 1e12, where plain double products have already lost five digits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .primes import PrimeTable, is_prime

__all__ = [
    "TorusPoint",
    "FrequencyVector",
    "curve_point",
    "curve_coords",
    "frequency_nonzero",
    "weyl_integral",
]

_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp splitting constant


def _two_prod(a, b):
    """Exact product a*b = p + e in double-double (no fma required)."""
    p = a * b
    ah = a * _SPLIT
    ah = ah - (ah - a)
    al = a - ah
    bh = b * _SPLIT
    bh = bh - (bh - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


@functools.lru_cache(maxsize=100_000)
def _speed_dd(p: int) -> tuple[float, float]:
    """log(p)/(2 pi) as a head/tail double pair, seeded at 40 digits."""
    import mpmath as mp

    with mp.workdps(40):
        v = mp.log(p) / (2 * mp.pi)
        hi = float(v)
        lo = float(v - mp.mpf(hi))
    return hi, lo


def _turns(t, hi, lo):
    """(t * (hi + lo)) mod 1 in double-double; broadcasts over t or speeds."""
    p1, e1 = _two_prod(t, hi)
    # reduce the head first, then fold in the exact pieces
    r = p1 - np.floor(p1)
    return (r + (e1 + t * lo)) % 1.0


@dataclass(frozen=True)
class TorusPoint:
    """Finite torus point: one coordinate in [0, 1) per prime."""

    coords: dict

    def __post_init__(self):
        object.__setattr__(
            self, "coords", {int(p): float(v) % 1.0 for p, v in self.coords.items()}
        )

    def get(self, p: int) -> float:
        return self.coords.get(int(p), 0.0)


def curve_point(t: float, table: PrimeTable) -> TorusPoint:
    """Curve position at time t: coordinate (t log p / 2pi) mod 1 per prime."""
    primes = [int(p) for p in table.primes]
    hi, lo = np.array([_speed_dd(p) for p in primes], dtype=float).reshape(-1, 2).T
    return TorusPoint(dict(zip(primes, _turns(float(t), hi, lo).tolist())))


def curve_coords(ts: np.ndarray, p: int) -> np.ndarray:
    """Vectorised single-coordinate version of curve_point."""
    hi, lo = _speed_dd(int(p))
    return _turns(np.asarray(ts, dtype=float), hi, lo)


@dataclass(frozen=True)
class FrequencyVector:
    """Finitely supported integer vector indexed by primes."""

    entries: dict

    def __post_init__(self):
        clean = {}
        for p, n in sorted(self.entries.items()):
            p, n = int(p), int(n)
            if n == 0:
                continue
            if not is_prime(p):
                raise ValueError(f"frequency support must be prime, got {p}")
            clean[p] = n
        object.__setattr__(self, "entries", clean)

    @property
    def omega(self) -> float:
        """The real frequency sum n_p * log(p)."""
        return math.fsum(n * math.log(p) for p, n in self.entries.items())

    def pairing(self, point: TorusPoint) -> float:
        """Inner product sum n_p * theta_p (mod 1 irrelevant to callers)."""
        return math.fsum(n * point.get(p) for p, n in self.entries.items())


def frequency_nonzero(freq: FrequencyVector) -> bool:
    """Exact nonvanishing test for sum n_p log p.

    The sum is log of the rational prod p^(n_p); unique factorisation makes
    it zero only for the zero vector, decided here in integer arithmetic.
    """
    num = 1
    den = 1
    for p, n in freq.entries.items():
        if n > 0:
            num *= p**n
        else:
            den *= p ** (-n)
    return num != den


def weyl_integral(freq: FrequencyVector, t0: float, h: float) -> tuple[complex, float]:
    """Closed-form oscillatory integral of exp(i t omega) over [t0, t0+h].

    Returns (value, bound) with |value| <= bound = 2/|omega| for nonzero
    frequencies; the zero frequency integrates to h exactly.
    """
    if not freq.entries:
        return complex(h), float(h)
    if not frequency_nonzero(freq):
        raise ValueError("frequency vector has vanishing log sum but is nonzero")
    om = freq.omega
    value = (np.exp(1j * (t0 + h) * om) - np.exp(1j * t0 * om)) / (1j * om)
    return complex(value), 2.0 / abs(om)
