"""Smooth bump, its periodised rescaling, Fourier data, and curve means.

The product mollifier multiplies one rescaled bump per prime coordinate and
so concentrates on a small torus box; its average along the prime-log curve
tends to 1 as the window grows, which is the quantitative equidistribution
statement the scan machinery leans on.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._panels import _panel_rule
from .curve import curve_coords
from .errors import QuadratureFailureError
from .phases import PhaseAssignment
from .primes import PrimeTable

__all__ = [
    "MollifierSpec",
    "FourierData",
    "bump",
    "bump_normalizer",
    "scaled_bump",
    "fourier_coeffs",
    "mollifier_product",
    "truncation_remainder",
    "mean_over_curve",
]


def _raw_bump(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) < 1.0
    out = np.zeros_like(x)
    # clip keeps the evaluation finite right at the support edge
    denom = np.clip(1.0 - x[inside] ** 2, 1e-300, None)
    out[inside] = np.exp(-1.0 / denom)
    return out


@functools.lru_cache(maxsize=1)
def bump_normalizer() -> float:
    """1 / integral of exp(-1/(1-x^2)) over [-1, 1].

    The panel rule at order 48 on 16 panels over [-0.9, 0.9] plus a quarter
    as many on each end piece, where the bump is flat but its derivatives
    spike; doubling must move the integral by at most 1e-12.
    """
    def edges(panels):
        return np.concatenate(
            [np.linspace(-1.0, -0.9, panels // 4 + 1)[:-1],
             np.linspace(-0.9, 0.9, panels + 1)[:-1],
             np.linspace(0.9, 1.0, panels // 4 + 1)]
        )

    return 1.0 / float(_panel_rule(_raw_bump, edges, 16, order=48, tol=1e-12,
                                   message="bump normaliser did not converge"))


def bump(x) -> np.ndarray:
    """Normalised bump: c * exp(-1/(1-x^2)) inside (-1, 1), zero outside.

    Integrates to 1, peaks at c/e (about 0.829, so it also stays below 1).
    """
    return bump_normalizer() * _raw_bump(x)


def scaled_bump(theta, delta: float) -> np.ndarray:
    """1-periodised (1/delta) * bump(theta/delta)."""
    th = np.asarray(theta, dtype=float)
    wrapped = th - np.round(th)  # nearest-integer reduction onto [-1/2, 1/2]
    return bump(wrapped / delta) / delta


@dataclass(frozen=True)
class MollifierSpec:
    """Bump width, prime cutoff, and Fourier truncation order.

    delta defaults to 1/Q, the usual coupling between the box size and the
    prime cutoff.
    """

    q: float
    delta: float | None = None
    m_cutoff: int = 64

    def __post_init__(self):
        if not 2 <= self.q < math.inf:
            raise ValueError(f"q must be at least 2 and finite, got {self.q!r}")
        if self.delta is None:
            object.__setattr__(self, "delta", 1.0 / self.q)
        if not 0.0 < self.delta < 0.5:
            raise ValueError("delta must lie in (0, 1/2)")
        if self.m_cutoff < 1:
            raise ValueError("m_cutoff must be positive")


@dataclass(frozen=True)
class FourierData:
    """Cosine coefficients of the periodised scaled bump.

    alpha[n] for n = 0..m; the expansion is even so alpha_{-n} = alpha_n.
    decay_constant is the measured envelope constant max |alpha_n| n^2
    delta^3, beta_norm the product-expansion l1 envelope exp(3 q).
    """

    delta: float
    alpha: np.ndarray
    decay_constant: float
    beta_norm_log: float

    def reconstruct(self, theta) -> np.ndarray:
        th = np.asarray(theta, dtype=float)
        n = np.arange(1, len(self.alpha))
        return self.alpha[0] + 2.0 * np.cos(2.0 * math.pi * np.outer(th, n)) @ self.alpha[1:]

    def tail_envelope(self) -> float:
        """Bound on the dropped sum over |n| > m from the measured decay."""
        m = len(self.alpha) - 1
        return 2.0 * self.decay_constant / (self.delta**3 * m)


def fourier_coeffs(spec: MollifierSpec) -> FourierData:
    """alpha_n for n = 0..m by the panel rule at order 40 over the bump
    support, a few panels per period of cos(2 pi m theta), each node with
    its m + 1 cosines. Doubling must move no alpha_n by more than 1e-10 and
    alpha_0 must come out as 1 (the bump integrates to 1); either failure
    raises QuadratureFailureError.
    """
    d = spec.delta
    m = spec.m_cutoff
    ns = np.arange(0, m + 1)
    alpha = _panel_rule(
        lambda th: np.cos(2.0 * math.pi * np.outer(ns, th)) * scaled_bump(th, d),
        lambda panels: np.linspace(-d, d, panels + 1), max(32, int(4 * m * d) + 8),
        order=40, tol=1e-10, message="Fourier coefficients did not converge",
    )
    if abs(alpha[0] - 1.0) > 1e-10:
        raise QuadratureFailureError(f"alpha_0 = {alpha[0]!r} deviates from 1")
    decay = float(np.max(np.abs(alpha[1:]) * ns[1:] ** 2.0 * d**3))
    return FourierData(delta=d, alpha=alpha, decay_constant=decay, beta_norm_log=3.0 * float(spec.q))


def mollifier_product(theta: PhaseAssignment, spec: MollifierSpec, table: PrimeTable) -> float:
    """Product of the periodised scaled bump over all primes up to q.

    Vanishes exactly when any coordinate is farther than delta from the
    nearest integer.
    """
    if table.limit < spec.q:
        raise ValueError("prime table does not reach the cutoff q")
    ps = table.primes[table.primes <= spec.q]
    vals = scaled_bump(theta.phases_for(ps), spec.delta)
    return float(np.prod(vals))


def truncation_remainder(spec: MollifierSpec, table: PrimeTable) -> float:
    """Log of the expansion remainder envelope q exp(3 pi(q) log(1/delta)) / (m log q).

    Returned in log scale; the linear value overflows long before the
    envelope is meaningful.
    """
    pi_q = int(np.count_nonzero(table.primes <= spec.q))
    return (
        math.log(spec.q)
        + 3.0 * pi_q * math.log(1.0 / spec.delta)
        - math.log(spec.m_cutoff)
        - math.log(math.log(spec.q))
    )


def mean_over_curve(spec: MollifierSpec, t0: float, h: float, theta: PhaseAssignment,
                    table: PrimeTable) -> tuple[float, float]:
    """Average of the mollifier along the curve over [t0, t0 + h].

    Returns (mean, |mean - 1|). The integrand is a product of pi(q) bump
    factors; the panel rule at order 12 takes panels a sixth of the
    narrowest support window wide (at least h 1e-7), and doubling must move
    the mean by at most 1e-6. Capped at pi(q) <= 6 because the joint support
    thins out exponentially in the number of coordinates. t0 must be finite
    and h positive and finite.
    """
    ps = [int(p) for p in table.primes[table.primes <= spec.q]]
    if len(ps) > 6:
        raise ValueError("mean_over_curve caps the coordinate count at pi(q) <= 6")
    if not math.isfinite(t0):
        raise ValueError(f"t0 must be finite, got {t0!r}")
    if not 0.0 < h < math.inf:
        raise ValueError(f"window height h must be positive and finite, got {h!r}")
    d = spec.delta

    def integrand(t):
        return np.prod([scaled_bump(curve_coords(t, p) - theta.get(p), d) for p in ps], axis=0)

    # narrowest t-structure: support half-width delta on the fastest coordinate
    fastest = max(math.log(p) for p in ps) / (2.0 * math.pi)
    panels = int(math.ceil(h / max(d / fastest / 6.0, h * 1e-7)))
    mean = float(_panel_rule(integrand, lambda count: np.linspace(t0, t0 + h, count + 1), panels,
                             order=12, tol=1e-6 * h, message="curve mean unstable")) / h
    return mean, abs(mean - 1.0)
