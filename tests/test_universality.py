import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetascope.errors import NoConvergenceError, NoHitsError
from zetascope.universality import (
    UniversalityTarget,
    boundary_max,
    check_disk_approximation,
    choose_disk_shrink,
    choose_taylor_degree,
    run_universality,
    taylor_coeffs,
    threshold_base,
    window_start_log_bound_universality,
)
from zetascope.zeta_engine import zeta_array, zeta_derivs


def zeta_shift(tau):
    return lambda z: zeta_array(np.asarray(z, dtype=complex) + 1j * tau, tol=1e-9)


def test_boundary_max_examples():
    const = lambda z: np.full_like(np.asarray(z, dtype=complex), -3.5 + 0j)
    assert boundary_max(const, 0.75, 1.0) == pytest.approx(3.5)
    ident = lambda z: np.asarray(z, dtype=complex)
    assert boundary_max(ident, 0.0, 2.0) == pytest.approx(2.0, rel=1e-9)
    assert boundary_max(np.exp, 0.0, 1.0) == pytest.approx(math.e, rel=1e-9)


def test_choose_taylor_degree_examples():
    assert choose_taylor_degree(2.0, 0.5, 0.3) == 6
    assert choose_taylor_degree(1.0, 0.01, 0.3) == 1
    assert choose_taylor_degree(0.0, 0.5, 0.3) == 1


@settings(max_examples=50, deadline=None)
@given(
    m_g=st.floats(0.1, 100.0),
    delta0=st.floats(0.05, 0.9),
    eps=st.floats(0.01, 0.9),
    shrink=st.floats(0.1, 0.99),
)
def test_choose_taylor_degree_monotone(m_g, delta0, eps, shrink):
    assert choose_taylor_degree(m_g, delta0, eps * shrink) >= choose_taylor_degree(
        m_g, delta0, eps
    )


def test_taylor_coeffs_exponential():
    derivs = taylor_coeffs(np.exp, 0.0, 1.0, 8)
    assert np.max(np.abs(derivs - 1.0)) < 1e-10


def test_taylor_coeffs_geometric_oracle():
    g = lambda z: 1.0 / (np.asarray(z, dtype=complex) - 2.0)
    derivs = taylor_coeffs(g, 0.0, 1.0, 6)
    want = np.array([-math.factorial(k) / 2.0 ** (k + 1) for k in range(6)])
    assert np.max(np.abs(derivs - want)) < 1e-10


def test_taylor_coeffs_polynomial_exact():
    g = lambda z: 3.0 + 2.0 * np.asarray(z, dtype=complex) ** 2
    derivs = taylor_coeffs(g, 0.5, 0.5, 6)
    z0 = 0.5
    want = np.array([3.0 + 2.0 * z0**2, 4.0 * z0, 4.0, 0.0, 0.0, 0.0])
    assert np.max(np.abs(derivs - want)) < 1e-10


def test_choose_disk_shrink_examples():
    assert choose_disk_shrink(1.0, 6, 0.3, 0.5) == 0.5
    d_small = choose_disk_shrink(50.0, 6, 0.3, 0.5)
    d_big = choose_disk_shrink(500.0, 6, 0.3, 0.5)
    assert d_big < d_small < 0.5
    # returned value satisfies the budget; 1% above violates or grazes it
    assert 50.0 * d_small**6 / (1.0 - d_small) < 0.1
    bumped = 1.01 * d_small
    assert 50.0 * bumped**6 / (1.0 - bumped) >= 0.1 - 1e-9


def test_taylor_two_routes_agree():
    """Circle quadrature on the shift target vs the derivative engine."""
    tau = 300.0
    direct, _ = zeta_derivs(5, 0.75 + 1j * tau)
    via_target = taylor_coeffs(zeta_shift(tau), 0.75, 0.125, 6)
    assert np.max(np.abs(direct - via_target)) < 1e-7


def test_target_validation():
    with pytest.raises(ValueError):
        UniversalityTarget(g=lambda z: np.asarray(z) - 0.75, s0=0.75, r=0.1,
                           delta0=0.5, eps=0.05)  # zero at the centre
    with pytest.raises(ValueError):
        UniversalityTarget(g=np.exp, s0=0.3, r=0.1, delta0=0.5, eps=0.05)
    with pytest.raises(ValueError):
        UniversalityTarget(g=np.exp, s0=0.75, r=0.1, delta0=0.5, eps=3.0)


def test_check_disk_identity_target():
    tau = 300.0
    target = UniversalityTarget(g=zeta_shift(tau), s0=0.75, r=0.125, delta0=0.5,
                                eps=0.05)
    check = check_disk_approximation(tau, target, 0.5)
    assert check.sup_diff < 1e-9
    assert check.verdict


def test_check_disk_point_case():
    tau = 300.0
    target = UniversalityTarget(g=zeta_shift(tau), s0=0.75, r=0.125, delta0=0.5,
                                eps=0.05)
    check = check_disk_approximation(tau, target, 0.0)
    assert check.sup_diff < 1e-10


def test_check_disk_samples_one_circle(monkeypatch):
    """The disk check evaluates zeta and g only on |s - s0| = delta r."""
    from zetascope import universality

    tau, s0, r, delta = 300.0, 0.75 + 0.01j, 0.125, 0.5
    seen = []

    def g(z):
        z = np.asarray(z, dtype=complex)
        seen.append(z.ravel())
        return np.exp(z)

    def spy_zeta(s, *args, **kwargs):
        seen.append(np.asarray(s, dtype=complex).ravel() - 1j * tau)
        return zeta_array(s, *args, **kwargs)

    target = UniversalityTarget(g=g, s0=s0, r=r, delta0=0.5, eps=0.5)
    seen.clear()
    monkeypatch.setattr(universality, "zeta_array", spy_zeta)
    check_disk_approximation(tau, target, delta)
    pts = np.concatenate(seen)
    assert len(pts) > 256
    assert np.max(np.abs(np.abs(pts - s0) - delta * r)) < 1e-12


def test_target_construction_point_count():
    """Construction sends g the centre once and two 32-point rings."""
    sizes = []

    def g(z):
        sizes.append(np.size(z))
        return np.exp(np.asarray(z, dtype=complex))

    UniversalityTarget(g=g, s0=0.75, r=0.125, delta0=0.5, eps=0.5)
    assert sum(sizes) == 65


def test_check_disk_huge_constant_fails():
    big = lambda z: np.full_like(np.asarray(z, dtype=complex), 1e6 + 0j)
    target = UniversalityTarget(g=big, s0=0.75, r=0.125, delta0=0.5, eps=0.1)
    check = check_disk_approximation(50.0, target, 0.25)
    # coarse scan oracle: |zeta| on the shifted disk never comes near 1e6
    pts = 0.75 + 0.03 * np.exp(2j * np.pi * np.arange(64) / 64.0)
    assert np.max(np.abs(zeta_array(pts + 50.0j))) < 1e2
    assert not check.verdict
    assert check.sup_diff > 1e5



def test_check_disk_rejects_pole_by_distance():
    """Im s0 < 0 lowers the shifted centre: tau = 0.5 > r, yet 0.75 + 0i is
    0.25 from the pole, inside the r = 0.3 disk."""
    target = UniversalityTarget(g=np.exp, s0=0.75 - 0.5j, r=0.3, delta0=0.5, eps=0.1)
    with pytest.raises(ValueError, match="pole"):
        check_disk_approximation(0.5, target, 0.5)


def test_check_disk_rejects_full_disk():
    """delta = 1 is caller input outside [0, 1): the checked disk would be
    the whole disk of the target, on whose edge g need not be analytic."""
    target = UniversalityTarget(g=zeta_shift(300.0), s0=0.75, r=0.125, delta0=0.5,
                                eps=0.05)
    with pytest.raises(ValueError, match="delta"):
        check_disk_approximation(300.0, target, 1.0)


@pytest.mark.parametrize("tau", [300.0, 1000.3])
def test_check_disk_bounds_dense_interior(tau):
    """Maximum modulus oracle: the boundary supremum is not below a dense
    interior polar grid, and the grid argmax agrees with mpmath at 30
    digits."""
    import mpmath

    s0, r, delta = 0.75, 0.125, 0.5
    radii = np.linspace(0.0, delta * r, 65)
    phis = np.exp(2j * np.pi * np.arange(512) / 512.0)
    pts = (s0 + np.outer(radii, phis)).ravel()
    zetas = zeta_array(pts + 1j * tau)
    targets = {"one": (lambda z: np.ones_like(np.asarray(z, dtype=complex)), lambda s: 1),
               "exp": (lambda z: np.exp(np.asarray(z, dtype=complex)), mpmath.exp)}
    for name, (g, g_mp) in targets.items():
        target = UniversalityTarget(g=g, s0=s0, r=r, delta0=0.5, eps=0.5)
        check = check_disk_approximation(tau, target, delta)
        diffs = zetas - g(pts)
        i = int(np.argmax(np.abs(diffs)))
        dense = float(np.abs(diffs[i]))
        assert check.sup_diff >= dense * (1.0 - 1e-9), name
        with mpmath.workdps(30):
            s = mpmath.mpc(pts[i].real, pts[i].imag)
            want = mpmath.zeta(s + mpmath.mpc(0, tau)) - g_mp(s)
        assert abs(complex(want) - diffs[i]) < 1e-9, name

def test_budget_chain_inequality():
    """If every coefficient matches within delta1, the weighted sum stays
    under eps/3: the finite partial sum of exp(delta0 r) certifies it."""
    eps, d0, r, n = 0.05, 0.5, 0.125, 8
    delta1 = (eps / 3.0) * math.exp(-d0 * r)
    partial = sum(delta1 * (d0 * r) ** k / math.factorial(k) for k in range(n))
    assert partial < eps / 3.0


def test_threshold_base_example():
    base = threshold_base(3, math.exp(0.75), 3.0 * math.exp(0.75), 0.5, 0.125, 0.1)
    want = 0.75 + (1.0 + math.exp(0.75)) * math.exp(1.0 / 16.0) * 10.0 * 81.0
    assert base == pytest.approx(want, rel=1e-12)
    assert window_start_log_bound_universality(base, 0.75) == pytest.approx(
        64.0 * math.log(base)
    )


def test_pipeline_self_referential():
    tau_star = 300.0
    target = UniversalityTarget(g=zeta_shift(tau_star), s0=0.75, r=0.125,
                                delta0=0.5, eps=0.05)
    report = run_universality(target, 290.0, 20.0)
    assert report.any_verdict
    hit = max(report.hits, key=lambda h: h.verdict)
    assert abs(hit.tau - tau_star) < 0.06
    assert hit.sup_diff < 0.05
    for key in ("e91", "e92", "e93"):
        assert hit.budgets[key] < 0.05 / 3.0
    # soundness: certified budgets imply the measured disk gap under eps
    assert hit.sup_diff < target.eps
    rec = report.to_record()
    assert set(rec["hits"][0]["budgets"]) == {"e91", "e92", "e93"}


def test_pipeline_no_hits_for_alien_target():
    """exp is nowhere near a zeta shift on desk-scale windows."""
    target = UniversalityTarget(g=np.exp, s0=0.75, r=0.125, delta0=0.5, eps=0.3)
    with pytest.raises(NoHitsError):
        run_universality(target, 50.0, 12.0)


def test_taylor_coeffs_noise_plateau():
    """Evaluation noise stops the doubling at its floor, which is reported."""
    noise = np.random.default_rng(1)
    g = lambda z: np.exp(z) + 1e-14 * noise.standard_normal(np.shape(z))
    derivs, err = taylor_coeffs(g, 0.0, 0.5, 8, return_error=True)
    assert np.max(np.abs(derivs - 1.0)) < 1e-8
    assert err > 1e-10


def test_taylor_coeffs_refuses_circle_near_a_pole():
    with pytest.raises(NoConvergenceError):
        taylor_coeffs(lambda z: 1.0 / (z - 1.001), 0.0, 1.0, 6)
