"""Constructive phase-target solver.

Given derivative targets for the log of a truncated twisted Euler product,
build a phase assignment realising them: fix the alternating background on
off-block primes, subtract its contribution, distribute the remainder over
the prime blocks through a power-moment (Vandermonde) system, and realise
each block value exactly as a closed planar linkage of one circle per prime.

The power-moment system is solved by the Bjorck-Pereyra dual recurrence in
50-digit arithmetic: with nodes around -log(U0) ~ -10 the monomial basis
amplifies any float64 rounding of the solution far above the 1e-10
round-trip contract, so the solution is carried in extended precision and
only viewed as complex128 downstream.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .errors import (
    DegenerateNodesError,
    InfeasiblePartitionError,
    ResidualExceededError,
    UnreachableError,
    ZetascopeError,
)
from .phases import LogDerivSpec, PhaseAssignment, alternating_phases, log_euler_deriv
from .primes import BlockSystem, build_blocks, primes_up_to

__all__ = [
    "TargetSpec",
    "BoundConstants",
    "TailConstants",
    "LogScaleValue",
    "VandermondeSolution",
    "ConstructionReport",
    "tail_constants",
    "solve_vandermonde",
    "align_phases",
    "prime_cutoff_lower_bound",
    "window_start_log_bound",
    "construct_phases",
    "calibrate_u0",
]

_DPS = 50


@dataclass(frozen=True)
class TargetSpec:
    """Derivative targets a_k (k < n) at abscissa sigma0, tolerance eps."""

    n: int
    sigma0: float
    targets: tuple
    eps: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        targets = tuple(complex(a) for a in self.targets)
        if len(targets) != self.n:
            raise ValueError("need exactly n targets")
        if not 0.5 < self.sigma0 < 1.0:
            raise ValueError("sigma0 must lie in (1/2, 1)")
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        if not all(math.isfinite(a.real) and math.isfinite(a.imag) for a in targets):
            raise ValueError("targets must be finite")
        object.__setattr__(self, "targets", targets)

    @property
    def norm(self) -> float:
        return math.fsum(abs(a) for a in self.targets)


@dataclass(frozen=True)
class BoundConstants:
    """Effective constants of the threshold formulas; the sources prove
    existence only, so these are configurable knobs with default 1."""

    c1: float = 1.0
    c2: float = 1.0
    C1: float = 1.0

    def __post_init__(self):
        for name in ("c1", "c2", "C1"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class LogScaleValue:
    """A positive quantity carried as its natural log (often too large
    for a float in linear scale)."""

    log: float

    @property
    def value(self) -> float:
        try:
            return math.exp(self.log)
        except OverflowError:
            return math.inf

    def __repr__(self):
        return f"LogScaleValue(log={self.log:.6g}, value={self.value:.6g})"


def _threshold_exponent(sigma0: float) -> float:
    return 8.0 / (1.0 - sigma0) + 8.0 / (sigma0 - 0.5)


def prime_cutoff_lower_bound(spec: TargetSpec, constants: BoundConstants) -> LogScaleValue:
    """c1 * (norm + 1/eps)^(8/(1-sigma0) + 8/(sigma0-1/2)), in log scale."""
    base = spec.norm + 1.0 / spec.eps
    return LogScaleValue(math.log(constants.c1) + _threshold_exponent(spec.sigma0) * math.log(base))


def window_start_log_bound(spec: TargetSpec, constants: BoundConstants) -> float:
    """log C1 + (8/(1-sigma0) + 8/(sigma0-1/2)) * log(norm + 1/eps).

    The log-scale size of the doubly exponential window-start threshold's
    inner argument; the linear threshold itself is never representable.
    """
    base = spec.norm + 1.0 / spec.eps
    return math.log(constants.C1) + _threshold_exponent(spec.sigma0) * math.log(base)


# ----------------------------------------------------------------------
# Tail constants over the off-block primes
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TailConstants:
    """Per-order contributions of the alternating background phases,
    summed over primes <= q outside the blocks."""

    values: tuple
    q: float
    excluded: frozenset
    tail_bounds: tuple


@functools.lru_cache(maxsize=4096)
def _tail_term(q_int: int, sigma0: float, excluded: frozenset, k: int):
    table = primes_up_to(q_int)
    theta1 = alternating_phases(table)
    off_block = ~np.isin(table.primes, np.fromiter(excluded, dtype=np.int64, count=len(excluded)))
    rest = table.primes[off_block]
    res = log_euler_deriv(rest, LogDerivSpec(k, sigma0, tol=1e-13), theta1)
    return res.value, res.tail_bound


def tail_constants(spec: TargetSpec, blocks: BlockSystem | None, q: float) -> TailConstants:
    """Exact finite sums of log-Euler derivatives over primes <= q off-block,
    with power tails below 1e-13.

    Cached per (q, sigma0, block set, order): calibration sweeps revisit the
    same grids constantly and the sums are deterministic.
    """
    excluded = frozenset(int(p) for p in blocks.all_primes) if blocks is not None else frozenset()
    if excluded and q <= max(excluded):
        raise ValueError("q must exceed every block prime")
    values = []
    bounds = []
    for k in range(spec.n):
        v, b = _tail_term(int(q), spec.sigma0, excluded, k)
        values.append(v)
        bounds.append(b)
    return TailConstants(tuple(values), float(q), excluded, tuple(bounds))


# ----------------------------------------------------------------------
# Power-moment (dual Vandermonde) solve
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class VandermondeSolution:
    """Solution of sum_j nodes_j^k z_j = rhs_k, k < n.

    exact holds 50-digit values (the returned solution of record); values is
    the complex128 view used by consumers with looser needs. residual is the
    exact-arithmetic round-trip defect of `exact`.
    """

    nodes: tuple
    exact: tuple
    residual: float

    @property
    def values(self) -> np.ndarray:
        return np.array([complex(z) for z in self.exact])


def solve_vandermonde(nodes, rhs) -> VandermondeSolution:
    """Bjorck-Pereyra dual solve of the power-moment system.

    Nodes must be pairwise distinct reals; rhs may be complex. The recurrence
    runs in 50-digit arithmetic, and the reported residual is measured there.
    """
    nodes = [float(x) for x in nodes]
    b = [complex(r) for r in rhs]
    n = len(nodes)
    if len(b) != n:
        raise ValueError("nodes and rhs must have equal length")
    scale = max(1.0, max(abs(x) for x in nodes))
    for i in range(n):
        for j in range(i + 1, n):
            if abs(nodes[i] - nodes[j]) < 1e-12 * scale:
                raise DegenerateNodesError(
                    f"nodes {i} and {j} coincide within tolerance: {nodes[i]!r}, {nodes[j]!r}"
                )
    with mp.workdps(_DPS):
        x = [mp.mpf(v) for v in nodes]
        z = [mp.mpc(v) for v in b]
        # Newton sweep
        for k in range(n - 1):
            for i in range(n - 1, k, -1):
                z[i] = z[i] - x[k] * z[i - 1]
        # back substitution sweep
        for k in range(n - 2, -1, -1):
            for i in range(k + 1, n):
                z[i] = z[i] / (x[i] - x[i - k - 1])
            for i in range(k, n - 1):
                z[i] = z[i] - z[i + 1]
        residual = 0.0
        for k in range(n):
            acc = mp.mpc(0)
            for j in range(n):
                acc += x[j] ** k * z[j]
            residual = max(residual, float(abs(acc - mp.mpc(b[k]))))
        exact = tuple(z)
    return VandermondeSolution(tuple(nodes), exact, residual)


# ----------------------------------------------------------------------
# Planar phase alignment (closed linkage of prime circles)
# ----------------------------------------------------------------------

def _fsum_phasor(radii: np.ndarray, phases: np.ndarray) -> complex:
    ang = -2.0 * math.pi * phases
    re = math.fsum(r * math.cos(a) for r, a in zip(radii, ang))
    im = math.fsum(r * math.sin(a) for r, a in zip(radii, ang))
    return complex(re, im)


def _greedy_split(radii: np.ndarray):
    """Longest-processing-time balance into two groups (indices)."""
    order = np.argsort(-radii, kind="stable")
    g = [[], []]
    s = [0.0, 0.0]
    for idx in order:
        side = 0 if s[0] <= s[1] else 1
        g[side].append(int(idx))
        s[side] += float(radii[idx])
    return g[0], g[1], s[0], s[1]


def _kk_split(radii: np.ndarray):
    """Karmarkar-Karp differencing; returns the two groups and their sums.

    Reaches far smaller imbalances than the greedy split when the radii are
    heterogeneous, which is what makes small targets reachable without
    iterative optimisation.
    """
    import heapq

    heap = [(-float(r), i, {int(i)}, set()) for i, r in enumerate(radii)]
    heapq.heapify(heap)
    while len(heap) > 1:
        d1, i1, plus1, minus1 = heapq.heappop(heap)
        d2, i2, plus2, minus2 = heapq.heappop(heap)
        diff = -(-d1 - (-d2))  # as negative key: -(|d1| - |d2|)
        heapq.heappush(heap, (diff, min(i1, i2), plus1 | minus2, minus1 | plus2))
    _, _, plus, minus = heap[0]
    s_plus = float(np.sum(radii[sorted(plus)])) if plus else 0.0
    s_minus = float(np.sum(radii[sorted(minus)])) if minus else 0.0
    return sorted(plus), sorted(minus), s_plus, s_minus


def _two_arm_angles(s1: float, s2: float, z: complex):
    """Angles for arms of lengths s1, s2 meeting at z (law of cosines)."""
    az = abs(z)
    if az < 1e-300:
        return 0.0, math.pi  # requires s1 == s2; callers guarantee it
    psi = math.atan2(z.imag, z.real)
    c1 = (s1 * s1 + az * az - s2 * s2) / (2.0 * s1 * az)
    c2 = (s2 * s2 + az * az - s1 * s1) / (2.0 * s2 * az)
    a1 = math.acos(min(1.0, max(-1.0, c1)))
    a2 = math.acos(min(1.0, max(-1.0, c2)))
    return psi + a1, psi - a2


def _turns(angle: float) -> float:
    # e(-2 pi theta) convention: arm angle phi corresponds to -phi/(2 pi) turns
    return (-angle / (2.0 * math.pi)) % 1.0


def align_phases(radii, target, *, tol: float = 1e-12) -> np.ndarray:
    """Phases theta_j with sum r_j e(-2 pi i theta_j) = target, residual < tol.

    Strategy: split the radii into two groups whose sums bracket |target|
    (greedy, then differencing when the greedy imbalance is too coarse) and
    close the triangle with the law of cosines; each group shares one phase.
    When even the differencing imbalance exceeds |target|, one radius is
    peeled off as a third arm, which covers targets all the way to zero.

    Raises UnreachableError when |target| > sum r_j, InfeasiblePartitionError
    when no split brackets |target| (a dominant radius, or m too small).
    """
    r = np.asarray(radii, dtype=float)
    if r.ndim != 1 or len(r) == 0:
        raise ValueError("radii must be a nonempty 1-d sequence")
    if np.any(r <= 0):
        raise ValueError("radii must be positive")
    z = complex(target)
    az = abs(z)
    total = float(math.fsum(r))
    if az > total * (1.0 + 1e-13) + 1e-300:
        raise UnreachableError(
            f"|target| = {az:.6g} exceeds the reachable radius {total:.6g}"
        )
    phases = np.empty(len(r), dtype=float)

    if len(r) == 1:
        if abs(az - r[0]) > max(tol, 1e-13 * r[0]):
            raise InfeasiblePartitionError(
                f"single radius {r[0]:.6g} only reaches the circle |z| = {r[0]:.6g}"
            )
        phases[0] = _turns(math.atan2(z.imag, z.real))
        return phases

    def finish_two_arm(g1, g2, s1, s2):
        a1, a2 = _two_arm_angles(s1, s2, z)
        phases[g1] = _turns(a1)
        phases[g2] = _turns(a2)

    g1, g2, s1, s2 = _greedy_split(r)
    if abs(s1 - s2) <= az <= s1 + s2:
        finish_two_arm(g1, g2, s1, s2)
    else:
        g1, g2, s1, s2 = _kk_split(r)
        if g1 and g2 and abs(s1 - s2) <= az <= s1 + s2:
            finish_two_arm(g1, g2, s1, s2)
        else:
            # peel the largest radius of the heavier group off as a third arm
            if s2 > s1:
                g1, g2, s1, s2 = g2, g1, s2, s1
            star = max(g1, key=lambda i: r[i])
            rest1 = [i for i in g1 if i != star]
            a_sum = float(math.fsum(r[rest1]))
            r_star = float(r[star])
            lo = max(abs(a_sum - s2), abs(az - r_star))
            hi = min(a_sum + s2, az + r_star)
            if not rest1 or not g2 or lo > hi + 1e-13:
                raise InfeasiblePartitionError(
                    f"no two-group split brackets |target| = {az:.6g} "
                    f"(best imbalance {abs(s1 - s2):.6g})"
                )
            t_mid = 0.5 * (lo + hi)
            if az < 1e-300:
                gamma = 0.0
                z2 = z - r_star
            else:
                psi = math.atan2(z.imag, z.real)
                cg = (az * az + r_star * r_star - t_mid * t_mid) / (2.0 * az * r_star)
                gamma = psi + math.acos(min(1.0, max(-1.0, cg)))
                z2 = z - r_star * complex(math.cos(gamma), math.sin(gamma))
            a1, a2 = _two_arm_angles(a_sum, s2, z2)
            phases[star] = _turns(gamma)
            phases[rest1] = _turns(a1)
            phases[g2] = _turns(a2)

    resid = abs(_fsum_phasor(r, phases) - z)
    if resid > tol:
        raise ZetascopeError(
            f"phase alignment residual {resid:.3e} above tolerance {tol:.1e}"
        )
    return phases


# ----------------------------------------------------------------------
# End-to-end construction
# ----------------------------------------------------------------------

@dataclass
class BlockDiagnostics:
    index: int
    size: int
    radius: float
    target_abs: float
    solve_residual: float
    thin: bool


@dataclass
class ConstructionReport:
    """Everything a caller needs to audit a construction run."""

    u0: float
    q: float
    v: float
    n: int
    sigma0: float
    eps: float
    blocks: list
    residuals: tuple
    tail_bounds: tuple
    thin_blocks: tuple
    ok: bool

    @property
    def max_residual(self) -> float:
        return max(self.residuals)

    def to_record(self) -> dict:
        return {
            "u0": self.u0,
            "q": self.q,
            "v": self.v,
            "n": self.n,
            "sigma0": self.sigma0,
            "eps": self.eps,
            "blocks": [
                {
                    "index": b.index,
                    "size": b.size,
                    "radius": b.radius,
                    "target_abs": b.target_abs,
                    "solve_residual": b.solve_residual,
                    "thin": b.thin,
                }
                for b in self.blocks
            ],
            "residuals": list(self.residuals),
            "max_residual": self.max_residual,
            "thin_blocks": list(self.thin_blocks),
            "ok": self.ok,
        }


def _attempt(spec: TargetSpec, u0: float,
             feas_margin: float) -> tuple[PhaseAssignment, ConstructionReport]:
    """One construction at block start u0, each block target within
    feas_margin of its disk radius, and prime cutoff q = 2^(n+1) u0: one
    doubling past the blocks keeps the background sum longer than them.
    Each residual is one sum of the returned assignment over every prime up
    to q at power tails below 1e-15, apart from the solve's linear model."""
    blocks = build_blocks(u0, spec.n, spec.sigma0, warn_thin=False)  # reported, not warned
    q = float(2 ** (spec.n + 1)) * u0
    tail = tail_constants(spec, blocks, q)
    rhs = [a - g for a, g in zip(spec.targets, tail.values)]
    sol = solve_vandermonde(blocks.nodes, rhs)
    z = sol.values
    diag = []
    solved = []
    for j in range(spec.n):
        ps = blocks.blocks[j]
        radii = ps.astype(float) ** (-spec.sigma0)
        radius = float(np.sum(radii))
        if abs(z[j]) > feas_margin * radius:
            raise UnreachableError(
                f"block {j}: |target| = {abs(z[j]):.4g} exceeds "
                f"{feas_margin:.2f} * radius = {feas_margin * radius:.4g} at u0 = {u0:g}"
            )
        th = align_phases(radii, complex(z[j]))
        resid = abs(_fsum_phasor(radii, th) - complex(z[j]))
        solved.append(th)
        diag.append(
            BlockDiagnostics(
                index=j, size=len(ps), radius=radius, target_abs=float(abs(z[j])),
                solve_residual=resid, thin=len(ps) < 3,
            )
        )
    table = primes_up_to(int(q))
    block_ps = blocks.all_primes  # ascending: the blocks are disjoint and ordered
    solved_only = PhaseAssignment._from_sorted(block_ps, np.concatenate(solved))
    assignment = alternating_phases(table).merged(solved_only)
    deep = [log_euler_deriv(table.primes, LogDerivSpec(k, spec.sigma0, tol=1e-15), assignment).value
            for k in range(spec.n)]
    residuals = [abs(v - a) for v, a in zip(deep, spec.targets)]
    report = ConstructionReport(
        u0=float(u0), q=float(q), v=blocks.v, n=spec.n, sigma0=spec.sigma0,
        eps=spec.eps, blocks=diag, residuals=tuple(residuals),
        tail_bounds=tail.tail_bounds, thin_blocks=blocks.thin_blocks,
        ok=max(residuals) < spec.eps,
    )
    if not report.ok:
        raise ResidualExceededError(
            f"verified residual {report.max_residual:.4g} >= eps = {spec.eps:g} at u0 = {u0:g}",
            report=report,
        )
    return assignment, report


def _calibration_grid(u0_min: float = 3.0, u0_max: float = 2.0e5) -> list:
    grid = []
    u = u0_min
    while u <= u0_max:
        grid.append(round(u, 3))
        u *= 1.35
    return grid


def calibrate_u0(spec: TargetSpec, *, u0_grid=None):
    """Smallest grid u0 for which the full construction verifies below eps.

    An attempt refuses a block target beyond 0.9 of its disk radius, so the
    search moves on from marginal blocks; the default grid is 3 * 1.35^i.
    """
    grid = list(u0_grid) if u0_grid is not None else _calibration_grid()
    last_error = None
    for u0 in grid:
        try:
            assignment, report = _attempt(spec, u0, 0.9)
            return u0, assignment, report
        except ZetascopeError as exc:
            last_error = exc
    raise UnreachableError(
        f"no u0 in the calibration grid solves the target system "
        f"(last failure: {last_error})"
    )


def construct_phases(spec: TargetSpec, constants: BoundConstants | None = None,
                     *, u0: float | None = None):
    """Build a phase assignment whose log-Euler derivatives hit the targets.

    Pipeline: choose u0 (explicit, from the threshold formulas when
    constants are given, else by calibration), take q = 2^(n+1) u0, build
    blocks, subtract the alternating tail, solve the power-moment system,
    realise each block (an explicit or formula u0 lets its target use the
    whole disk radius), and verify the returned assignment by one deeper
    sum over every prime up to q per order.

    Returns (assignment, report); raises with the offending parameters when
    a block is empty, a block target is outside its disk, or the final
    residual is not below eps.
    """
    if u0 is not None:
        return _attempt(spec, float(u0), 1.0)
    if constants is not None:
        base = spec.norm + 1.0 / spec.eps
        log_u0 = math.log(constants.c2) + max(
            8.0 / (1.0 - spec.sigma0) * math.log(base),
            1.0 / (spec.sigma0 - 0.5) * math.log(1.0 / spec.eps),
        )
        if log_u0 > math.log(5.0e8):
            raise ZetascopeError(
                f"threshold-formula u0 = exp({log_u0:.3g}) is far beyond sieve "
                "range; pass an explicit u0 or use calibration"
            )
        return _attempt(spec, math.exp(log_u0), 1.0)
    _, assignment, report = calibrate_u0(spec)
    return assignment, report
