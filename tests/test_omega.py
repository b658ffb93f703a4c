import cmath
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from zetascope.errors import (
    DegenerateNodesError,
    InfeasiblePartitionError,
    UnreachableError,
    ZetascopeError,
)
from zetascope.omega import (
    BoundConstants,
    TargetSpec,
    align_phases,
    calibrate_u0,
    construct_phases,
    prime_cutoff_lower_bound,
    solve_vandermonde,
    tail_constants,
    window_start_log_bound,
)
from zetascope.phases import LogDerivSpec, PhaseAssignment, alternating_phases, log_euler_deriv
from zetascope.primes import build_blocks, primes_up_to


def phasor_sum(radii, phases):
    return sum(r * cmath.exp(-2j * math.pi * t) for r, t in zip(radii, phases))


# ----------------------------------------------------------------------
# tail constants
# ----------------------------------------------------------------------

def test_tail_constants_tiny_cutoff():
    spec = TargetSpec(1, 0.75, (0.0,), 0.5)
    tc = tail_constants(spec, None, 3.0)
    # oracle: log(1 - 2^-0.75)^-1 - log(1 + 3^-0.75), alternating twist
    want = -math.log(1.0 - 2.0**-0.75) - math.log(1.0 + 3.0**-0.75)
    assert tc.values[0] == pytest.approx(want, abs=1e-12)
    assert tc.values[0].real == pytest.approx(0.5391559, abs=1e-6)


def test_tail_constants_no_primes():
    spec = TargetSpec(1, 0.75, (0.0,), 0.5)
    tc = tail_constants(spec, None, 1.0)
    assert tc.values[0] == 0


def test_tail_constants_against_double_sum_oracle():
    spec = TargetSpec(2, 0.6, (0.0, 0.0), 0.5)
    tc = tail_constants(spec, None, 100.0)
    table = primes_up_to(100)
    theta = alternating_phases(table)
    for k in (0, 1):
        want = 0j
        for p in table.primes:
            p = int(p)
            for ell in range(1, 200):
                term = (
                    cmath.exp(-2j * math.pi * ell * theta.get(p))
                    * (-ell * math.log(p)) ** k
                    / (ell * p ** (ell * 0.6))
                )
                want += term
                if abs(term) < 1e-18:
                    break
        assert tc.values[k] == pytest.approx(want, abs=1e-12)


# ----------------------------------------------------------------------
# power-moment solve
# ----------------------------------------------------------------------

def test_vandermonde_single_node():
    sol = solve_vandermonde([-3.7], [2.5 + 1j])
    assert sol.values[0] == pytest.approx(2.5 + 1j)


def test_vandermonde_two_nodes_closed_form():
    x0, x1 = -1.0, -2.0
    w0, w1 = 1.0 + 0j, 3.0 + 0j
    sol = solve_vandermonde([x0, x1], [w0, w1])
    z1 = (w1 - x0 * w0) / (x1 - x0)
    z0 = w0 - z1
    assert sol.values[0] == pytest.approx(z0)
    assert sol.values[1] == pytest.approx(z1)


def test_vandermonde_roundtrip_residuals(rng):
    for u0 in (10.0, 100.0, 1000.0):
        for n in (3, 6):
            nodes = [-(math.log(u0) + j * math.log(2.0)) for j in range(n)]
            rhs = [complex(rng.normal(), rng.normal()) for _ in range(n)]
            sol = solve_vandermonde(nodes, rhs)
            norm = sum(abs(r) for r in rhs)
            assert sol.residual <= 1e-10 * (1.0 + norm)
            # independent matrix-multiply check at 40 digits
            with mp.workdps(40):
                res = 0.0
                for k in range(n):
                    acc = mp.mpc(0)
                    for j in range(n):
                        acc += mp.mpf(nodes[j]) ** k * sol.exact[j]
                    res = max(res, abs(acc - mp.mpc(rhs[k])))
            assert float(res) <= 1e-10 * (1.0 + norm)


def test_vandermonde_degenerate_nodes():
    with pytest.raises(DegenerateNodesError):
        solve_vandermonde([-2.0, -2.0 + 1e-15], [1.0, 2.0])


# ----------------------------------------------------------------------
# phase alignment
# ----------------------------------------------------------------------

def test_align_two_equal_arms():
    phases = align_phases([1.0, 1.0], 1.0 + 0j)
    # e(-2 pi i /6) + e(+2 pi i /6) pattern: one arm at +1/6 turn, one at -1/6
    assert sorted(phases) == pytest.approx([1.0 / 6.0, 5.0 / 6.0])
    assert phasor_sum([1.0, 1.0], phases) == pytest.approx(1.0, abs=1e-14)


def test_align_boundary_alignment():
    phases = align_phases([0.3, 0.3, 0.3], 0.9 + 0j)
    wrapped = np.minimum(phases, 1.0 - phases)
    assert np.max(wrapped) < 1e-7
    assert phasor_sum([0.3] * 3, phases) == pytest.approx(0.9, abs=1e-12)


def test_align_single_arm():
    phases = align_phases([1.0], 1j)
    assert phasor_sum([1.0], phases) == pytest.approx(1j, abs=1e-14)
    with pytest.raises(InfeasiblePartitionError):
        align_phases([1.0], 0.5)  # a single link only reaches its circle
    with pytest.raises(UnreachableError):
        align_phases([1.0], 1.5)


def test_align_zero_target_heterogeneous():
    radii = [0.035, 0.030, 0.025]
    phases = align_phases(radii, 0.0)
    assert abs(phasor_sum(radii, phases)) < 1e-12


def _edge_targets():
    """Feasible targets near the edges of the reachable annulus: just above
    the inner radius 2 r_max - R of a dominant radius, and near zero."""
    rng = np.random.default_rng(7)
    for _ in range(500):
        m = int(rng.integers(2, 51))
        radii = rng.uniform(0.01, 1.0, m)
        radii[0] = radii[1:].sum() * rng.uniform(1.01, 2.0)
        total = radii.sum()
        for k in (4, 6, 8):
            az = (2.0 * radii[0] - total) + 10.0**-k * total
            yield radii, az * np.exp(2j * math.pi * rng.uniform())
    for _ in range(500):
        m = int(rng.integers(3, 51))
        radii = rng.uniform(0.01, 1.0, m)
        total = radii.sum()
        for k in (3, 4, 6):
            az = 10.0**-k * total
            turn = rng.uniform()
            if az >= 2.0 * radii.max() - total:
                yield radii, az * np.exp(2j * math.pi * turn)


def test_align_random_feasible(rng):
    targets = []
    for _ in range(1000):
        m = int(rng.integers(2, 51))
        radii = rng.uniform(0.01, 1.0, m)
        total = radii.sum()
        lo = max(0.0, 2.0 * radii.max() - total)
        az = rng.uniform(lo, total)
        targets.append((radii, az * np.exp(2j * math.pi * rng.uniform())))
    edges = list(_edge_targets())
    assert len(edges) == 2988
    worst = 0.0
    for radii, z in targets + edges:
        phases = align_phases(radii, z)
        worst = max(worst, abs(phasor_sum(radii, phases) - z))
    assert worst < 1e-12


def test_align_refuses_just_inside_inner_radius():
    rng = np.random.default_rng(7)
    for _ in range(50):
        radii = rng.uniform(0.01, 1.0, int(rng.integers(2, 20)))
        radii[0] = radii[1:].sum() * rng.uniform(1.01, 2.0)
        inner = 2.0 * radii[0] - radii.sum()
        with pytest.raises(InfeasiblePartitionError):
            align_phases(radii, inner * (1.0 - 1e-6) * np.exp(2j * math.pi * rng.uniform()))


def test_align_unreachable_matches_two_arm_oracle(rng):
    """For m = 2 the reachable set is an annulus; a brute-force phase grid
    confirms the boundary that the error semantics rely on."""
    for _ in range(20):
        r1, r2 = rng.uniform(0.2, 1.0, 2)
        grid = np.linspace(0.0, 1.0, 512, endpoint=False)
        vals = np.abs(
            r1 * np.exp(-2j * np.pi * grid[:, None])
            + r2 * np.exp(-2j * np.pi * grid[None, :])
        )
        reach_lo, reach_hi = vals.min(), vals.max()
        assert reach_hi == pytest.approx(r1 + r2, abs=1e-3)
        assert reach_lo == pytest.approx(abs(r1 - r2), abs=1e-3)
        with pytest.raises(UnreachableError):
            align_phases([r1, r2], (r1 + r2) * 1.01)
        if abs(r1 - r2) > 0.02:
            with pytest.raises(InfeasiblePartitionError):
                align_phases([r1, r2], abs(r1 - r2) * 0.5)
        phases = align_phases([r1, r2], (abs(r1 - r2) + r1 + r2) / 2.0)
        assert abs(
            phasor_sum([r1, r2], phases) - (abs(r1 - r2) + r1 + r2) / 2.0
        ) < 1e-12


# ----------------------------------------------------------------------
# bound calculators
# ----------------------------------------------------------------------

def test_prime_cutoff_bound_examples():
    spec = TargetSpec(1, 0.75, (0.0,), 0.5)
    v = prime_cutoff_lower_bound(spec, BoundConstants())
    assert v.log == pytest.approx(64.0 * math.log(2.0))
    assert v.value == pytest.approx(2.0**64, rel=1e-9)

    near_one = TargetSpec(1, 0.75, (0.0,), 1.0 - 1e-12)
    v1 = prime_cutoff_lower_bound(near_one, BoundConstants(c1=3.0))
    assert v1.value == pytest.approx(3.0, rel=1e-9)

    spec9 = TargetSpec(1, 0.9, (3.0,), 0.1)
    v9 = prime_cutoff_lower_bound(spec9, BoundConstants())
    assert v9.log == pytest.approx(100.0 * math.log(13.0))


def test_window_start_log_bound_examples():
    # norm + 1/eps = e  ->  returned value is exactly the exponent sum
    eps = 0.9
    spec = TargetSpec(1, 0.75, (math.e - 1.0 / eps,), eps)
    assert window_start_log_bound(spec, BoundConstants()) == pytest.approx(64.0)

    spec_b = TargetSpec(1, 0.75, (0.0,), 1.0 - 1e-12)
    assert window_start_log_bound(spec_b, BoundConstants()) == pytest.approx(0.0, abs=1e-9)

    spec_c = TargetSpec(1, 0.6, (1.0,), 0.5)
    want = math.log(2.0) + (20.0 + 80.0) * math.log(3.0)
    assert window_start_log_bound(spec_c, BoundConstants(C1=2.0)) == pytest.approx(want)


@pytest.mark.parametrize("name", ["c1", "c2", "C1"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_bound_constants_must_be_positive_and_finite(name, value):
    """A constant that is not positive and finite is refused by name, before
    any threshold formula turns it into some other parameter's NaN or inf."""
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
        BoundConstants(**{name: value})


# ----------------------------------------------------------------------
# end-to-end construction
# ----------------------------------------------------------------------

def reverify(spec, assignment, q):
    table = primes_up_to(int(q))
    ps = [int(p) for p in table.primes]
    resid = 0.0
    for k in range(spec.n):
        val = log_euler_deriv(ps, LogDerivSpec(k, spec.sigma0, ell_max=220), assignment).value
        resid = max(resid, abs(val - spec.targets[k]))
    return resid


def test_construct_simple_target():
    spec = TargetSpec(1, 0.75, (1.0,), 0.1)
    assignment, report = construct_phases(spec)
    assert report.ok
    assert report.max_residual < 0.1
    assert reverify(spec, assignment, report.q) < 0.1


@pytest.mark.parametrize("spec", [
    TargetSpec(1, 0.75, (1.0,), 0.1),
    TargetSpec(2, 0.9, (0.56 + 0.07j, -0.26 - 0.6j), 0.25),
], ids=["n1", "n2"])
def test_report_residuals_are_those_of_the_assignment(spec):
    """The reported residuals are an independent re-sum of the returned
    assignment over every prime up to q, at a fixed deep power depth."""
    warnings.filterwarnings("ignore")
    assignment, report = construct_phases(spec)
    table = primes_up_to(int(report.q))
    for k in range(spec.n):
        val = log_euler_deriv(table.primes, LogDerivSpec(k, spec.sigma0, ell_max=220), assignment).value
        assert abs(abs(val - spec.targets[k]) - report.residuals[k]) < 1e-13


def test_construct_zero_block_targets():
    """Targets equal to the off-block background: every block value is 0."""
    warnings.filterwarnings("ignore")
    sigma0, n, u0 = 0.75, 2, 898.1
    blocks = build_blocks(u0, n, sigma0, warn_thin=False)
    q = 2 ** (n + 1) * u0
    probe = TargetSpec(n, sigma0, (0.0, 0.0), 0.25)
    tail = tail_constants(probe, blocks, q)
    spec = TargetSpec(n, sigma0, tail.values, 0.25)
    assignment, report = construct_phases(spec, u0=u0)
    for b in report.blocks:
        assert b.target_abs < 1e-10
        assert b.solve_residual < 1e-12
    assert report.max_residual < 0.25
    assert reverify(spec, assignment, report.q) < 0.25


def test_construct_infeasible_far_target():
    """Oracle: random-phase sampling shows the target sits far outside the
    reachable set at desk scale, so the construction must refuse."""
    rng = np.random.default_rng(11)
    a = (0.0 + 0j, 1.0 + 0j, -1.0 + 0j)
    spec = TargetSpec(3, 0.6, a, 0.25)
    u0 = 110.0
    blocks = build_blocks(u0, 3, 0.6, warn_thin=False)
    q = 2**4 * u0
    tail = tail_constants(spec, blocks, q)
    block_ps = [int(p) for p in blocks.all_primes]
    best = math.inf
    for _ in range(400):
        solved = {int(p): float(rng.uniform()) for p in block_ps}
        pa = PhaseAssignment(solved)
        resid = 0.0
        for k in range(3):
            bv = log_euler_deriv(block_ps, LogDerivSpec(k, 0.6, ell_max=30), pa).value
            resid = max(resid, abs(tail.values[k] + bv - a[k]))
        best = min(best, resid)
    assert best > 1.0  # nowhere near eps = 0.25
    with pytest.raises((UnreachableError, ZetascopeError)):
        calibrate_u0(spec, u0_grid=[10.0, 33.0, u0, 365.0, 1213.0])


def test_construct_formula_mode_overflows_cleanly():
    spec = TargetSpec(1, 0.75, (1.0,), 0.1)
    with pytest.raises(ZetascopeError):
        construct_phases(spec, BoundConstants())  # u0 = 11^32 is not sievable


def test_target_spec_validation():
    with pytest.raises(ValueError):
        TargetSpec(0, 0.75, (), 0.1)
    with pytest.raises(ValueError):
        TargetSpec(1, 0.4, (1.0,), 0.1)
    with pytest.raises(ValueError):
        TargetSpec(1, 0.75, (1.0,), 1.5)
    with pytest.raises(ValueError):
        TargetSpec(2, 0.75, (1.0,), 0.1)


def test_report_serialisation():
    spec = TargetSpec(1, 0.75, (1.0,), 0.1)
    _, report = construct_phases(spec)
    rec = report.to_record()
    assert rec["ok"] is True
    assert len(rec["blocks"]) == 1
    assert rec["max_residual"] == report.max_residual
