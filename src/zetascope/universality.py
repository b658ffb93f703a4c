"""Weak universality pipeline: approximate an analytic target by zeta shifts.

The route: truncate the target's Taylor series at a degree killing the
geometric tail, locate shifts whose zeta derivatives match the Taylor data,
then certify the approximation on a shrunken disk via a three-part budget
(target truncation, coefficient match, zeta truncation), each part below a
third of the tolerance.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergenceError, NoHitsError
from .scan import MAX_ORDER_ZETA, ScanWindow, scan_zeta_derivs
from .omega import _threshold_exponent
from .zeta_engine import _circle_derivs, zeta_array

__all__ = [
    "UniversalityTarget",
    "DiskCheck",
    "UniversalityReport",
    "boundary_max",
    "choose_taylor_degree",
    "taylor_coeffs",
    "choose_disk_shrink",
    "check_disk_approximation",
    "run_universality",
    "threshold_base",
    "window_start_log_bound_universality",
]


@dataclass(frozen=True)
class UniversalityTarget:
    """A nonvanishing analytic target on the disk |s - s0| <= r.

    g must accept numpy arrays of complex points. Nonvanishing is
    spot-checked on concentric rings only: a certified check is impossible
    for a black-box evaluator, and this remains a documented soundness
    assumption of the whole pipeline.
    """

    g: object
    s0: complex
    r: float
    delta0: float
    eps: float

    def __post_init__(self):
        s0 = complex(self.s0)
        object.__setattr__(self, "s0", s0)
        if not 0.5 < s0.real < 1.0:
            raise ValueError("Re s0 must lie in (1/2, 1)")
        if self.r <= 0:
            raise ValueError("r must be positive")
        if not 0.0 < self.delta0 < 1.0:
            raise ValueError("delta0 must lie in (0, 1)")
        g_center = abs(complex(np.asarray(self.g(np.array([s0])))[0]))
        if not 0.0 < self.eps < min(1.0, g_center):
            raise ValueError("eps must lie in (0, min(1, |g(s0)|))")
        phis = np.exp(2j * math.pi * np.arange(32) / 32.0)
        for rho in (0.0, 0.5 * self.r, self.r):
            vals = np.asarray(self.g(s0 + rho * phis))
            if np.any(np.abs(vals) < 1e-280):
                raise ValueError(f"target vanishes on the ring |s - s0| = {rho:g}")


def boundary_max(g, s0: complex, r: float, samples: int = 256) -> float:
    """Max of |g| on the circle |s - s0| = r by sampling plus subdivision.

    The value is a grid maximum: it can undershoot the true supremum by
    O((r * 2 pi / samples)^2 * |g''|), which downstream budgets absorb.
    """
    if samples < 64:
        raise ValueError("need at least 64 boundary samples")
    s0 = complex(s0)
    phis = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    width = 2.0 * math.pi / samples
    best_phi = 0.0
    best = -math.inf
    for _ in range(6):
        vals = np.abs(np.asarray(g(s0 + r * np.exp(1j * phis))))
        i = int(np.argmax(vals))
        if float(vals[i]) > best:
            best = float(vals[i])
            best_phi = float(phis[i])
        phis = best_phi + np.linspace(-width, width, 33)
        width /= 8.0
    return best


def choose_taylor_degree(m_g: float, delta0: float, eps: float) -> int:
    """Smallest degree n >= 1 with m_g * delta0^n / (1 - delta0) < eps / 3."""
    if not 0.0 < delta0 < 1.0:
        raise ValueError("delta0 must lie in (0, 1)")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if m_g < 0:
        raise ValueError("m_g must be nonnegative")
    n = 1
    while m_g * delta0**n / (1.0 - delta0) >= eps / 3.0:
        n += 1
        if n > 10_000:
            raise ValueError("no finite degree reaches the truncation budget")
    return n


def taylor_coeffs(g, s0: complex, r_c: float, n: int, *, return_error: bool = False):
    """Derivatives g^(k)(s0) for k < n by trapezoidal circle quadrature.

    Runs the Cauchy-circle kernel `zeta_engine._circle_derivs`,
    doubling the node count until two successive estimates agree to 1e-10
    relative to the largest derivative. High orders on small circles
    amplify evaluation noise by k!/r_c^k, so doubling also stops once the
    change plateaus at that noise floor; the floor is the reported error.
    """
    s0 = complex(s0)
    if r_c <= 0:
        raise ValueError("circle radius must be positive")
    f = lambda phis: np.asarray(g(s0 + r_c * np.exp(1j * phis)))
    prev_change = math.inf
    for derivs, change in _circle_derivs(f, r_c, n - 1, 64, 7):
        scale = 1.0 + float(np.max(np.abs(derivs)))
        if change < 1e-10 * scale:
            return (derivs, change) if return_error else derivs
        if 0.3 * prev_change < change < 1e-5 * scale:
            # spectral convergence is done and the residual wiggle is
            # the evaluation-noise floor
            return (derivs, max(change, prev_change)) if return_error else derivs
        prev_change = change
    raise NoConvergenceError("Taylor coefficients did not stabilise under node doubling")


def choose_disk_shrink(m_zeta: float, n: int, eps: float, delta0: float) -> float:
    """Largest delta in (0, delta0] with m_zeta * delta^n / (1-delta) < eps/3.

    The left side grows strictly in delta, so bisection applies; returns 0.0
    when even a vanishing disk fails (m_zeta would have to be infinite).
    """
    if m_zeta <= 0:
        raise ValueError("m_zeta must be positive")
    budget = eps / 3.0

    def ok(d):
        return m_zeta * d**n / (1.0 - d) < budget

    if ok(delta0):
        return delta0
    if not ok(1e-12):
        return 0.0
    lo, hi = 1e-12, delta0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * delta0:
            break
    return lo


@dataclass(frozen=True)
class DiskCheck:
    sup_diff: float
    margin: float
    verdict: bool


def check_disk_approximation(tau: float, target: UniversalityTarget, delta: float) -> DiskCheck:
    """Measure sup |zeta(s + i tau) - g(s)| over the disk |s - s0| <= delta*r.

    Premise: g is analytic on |s - s0| <= r and the shifted disk keeps the
    pole s = 1 outside, so the difference is analytic there and, by the
    maximum modulus principle, largest on the boundary circle. `sup_diff`
    is the `boundary_max` of that circle and the verdict compares it with
    eps. `sup_diff + margin` bounds the true supremum: the margin is the
    arc cover times a Lipschitz bound from Cauchy's estimate on the circle
    r_mid, whose maxima M_mid are themselves sampled by `boundary_max`.
    """
    s0, r, g = target.s0, target.r, target.g
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must lie in [0, 1)")
    if abs(s0 + 1j * tau - 1.0) <= r:
        raise ValueError("the shifted disk of radius r must keep the pole s = 1 outside")
    d_r = delta * r
    sup = boundary_max(lambda z: zeta_array(z + 1j * tau) - np.asarray(g(z)), s0, d_r, 128)
    # Lipschitz margin: |f'| <= M_mid / (r_mid - d_r) inside the sample disk,
    # and each point of the circle lies within the arc d_r pi / 128 of one
    # of boundary_max's 128 first-pass samples
    r_mid = d_r + 0.5 * (r - d_r)
    m_zeta_mid = boundary_max(lambda z: zeta_array(z + 1j * tau), s0, r_mid, 128)
    m_g_mid = boundary_max(g, s0, r_mid, 128)
    lip = (m_zeta_mid + m_g_mid) / (r_mid - d_r)
    return DiskCheck(sup_diff=sup, margin=lip * d_r * math.pi / 128, verdict=sup < target.eps)


@dataclass(frozen=True)
class HitReport:
    tau: float
    m_zeta: float
    delta: float
    sup_diff: float
    margin: float
    verdict: bool
    budgets: dict
    match_residuals: tuple

    def to_record(self) -> dict:
        return {
            "tau": self.tau,
            "M_zeta": self.m_zeta,
            "delta": self.delta,
            "sup_diff": self.sup_diff,
            "margin": self.margin,
            "verdict": self.verdict,
            "budgets": dict(self.budgets),
        }


@dataclass(frozen=True)
class UniversalityReport:
    n: int
    delta1: float
    m_g: float
    coeffs: tuple
    hits: tuple

    @property
    def any_verdict(self) -> bool:
        return any(h.verdict for h in self.hits)

    def to_record(self) -> dict:
        return {
            "N": self.n,
            "delta1": self.delta1,
            "M_g": self.m_g,
            "hits": [h.to_record() for h in self.hits],
        }


def threshold_base(n: int, g_at_s0: complex, g_norm: float, delta0: float,
                   r: float, eps: float) -> float:
    """The target-complexity base entering the doubly exponential threshold.

    |log g(s0)| + ((1 + |g(s0)|) exp(delta0 r) / eps) * (G / |g(s0)|)^((n-1)^2)
    with G the derivative-sum norm of the target.
    """
    g0 = complex(g_at_s0)
    if g0 == 0:
        raise ValueError("g(s0) must be nonzero")
    return abs(cmath.log(g0)) + (
        (1.0 + abs(g0)) * math.exp(delta0 * r) / eps
    ) * (g_norm / abs(g0)) ** ((n - 1) ** 2)


def window_start_log_bound_universality(base: float, sigma0: float, c2: float = 1.0) -> float:
    """log C2 + (8/(1-sigma0) + 8/(sigma0-1/2)) * log(base), mirroring the
    log-scale convention of the derivative-target threshold."""
    return math.log(c2) + _threshold_exponent(sigma0) * math.log(base)


def run_universality(target: UniversalityTarget, t_start: float, h: float, *,
                     nu: float = 27.0 / 82.0, step: float | None = None,
                     threads: int = 1) -> UniversalityReport:
    """Full pipeline: degree choice, Taylor match scan, disk certification.

    The scan runs over t1 in [t_start, t_start + h] on the line Re s = Re s0
    and each matching t1 yields the shift tau = t1 - Im s0. All three budget
    parts are evaluated per hit and reported separately.
    """
    if t_start <= target.r:
        raise ValueError("t_start must exceed r so shifted disks avoid the pole")
    g, s0, r, d0, eps = target.g, target.s0, target.r, target.delta0, target.eps
    m_g = boundary_max(g, s0, r, 256)
    n = choose_taylor_degree(m_g, d0, eps)
    if n - 1 >= MAX_ORDER_ZETA:
        raise ValueError(
            f"target needs Taylor degree {n}, beyond the scan's derivative cap"
        )
    coeffs, coeff_err = taylor_coeffs(g, s0, r, n, return_error=True)
    delta1 = (eps / 3.0) * math.exp(-d0 * r)
    if coeff_err >= delta1 / 2.0:
        raise NoConvergenceError(
            f"Taylor data noise floor {coeff_err:.3g} eats the match "
            f"tolerance {delta1:.3g}"
        )
    window = ScanWindow(t=t_start, h=h, eps=delta1, nu=nu, step=step)
    result = scan_zeta_derivs(coeffs, s0.real, window, threads=threads)
    if not result.hits:
        raise NoHitsError(
            f"no shift in [{t_start:g}, {t_start + h:g}] matches the Taylor "
            f"data within {delta1:.3g}"
        )
    t0_shift = s0.imag
    hit_reports = []
    e91 = m_g * d0**n / (1.0 - d0)
    for hit in result.hits:
        tau = hit.tau - t0_shift
        m_zeta = boundary_max(lambda z: zeta_array(z + 1j * tau), s0, r, 256)
        delta = choose_disk_shrink(m_zeta, n, eps, d0)
        ks = np.arange(n)
        fact = np.array([math.factorial(int(k)) for k in ks], dtype=float)
        e92 = float(np.sum(np.array(hit.residuals) * (d0 * r) ** ks / fact))
        e93 = m_zeta * delta**n / (1.0 - delta)
        check = check_disk_approximation(tau, target, delta)
        hit_reports.append(
            HitReport(
                tau=tau, m_zeta=m_zeta, delta=delta, sup_diff=check.sup_diff,
                margin=check.margin, verdict=check.verdict,
                budgets={"e91": e91, "e92": e92, "e93": e93},
                match_residuals=hit.residuals,
            )
        )
    return UniversalityReport(
        n=n, delta1=delta1, m_g=m_g, coeffs=tuple(coeffs), hits=tuple(hit_reports)
    )
