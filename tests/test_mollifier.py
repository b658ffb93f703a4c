import math
import tracemalloc

import numpy as np
import pytest

from zetascope.errors import QuadratureFailureError
from zetascope.mollifier import (
    MollifierSpec,
    _panel_rule,
    bump,
    bump_normalizer,
    fourier_coeffs,
    mean_over_curve,
    mollifier_product,
    scaled_bump,
    truncation_remainder,
)
from zetascope.phases import PhaseAssignment
from zetascope.primes import primes_up_to


def test_bump_support_and_normalisation():
    assert bump(1.0) == 0.0
    assert bump(-1.0) == 0.0
    assert bump(1.5) == 0.0
    # quadrature check of the unit integral (plain trapezoid oracle)
    xs = np.linspace(-1, 1, 200_001)
    integral = np.trapezoid(bump(xs), xs)
    assert abs(integral - 1.0) < 1e-10


def test_bump_peak_value():
    # adaptive-quadrature oracle for the normaliser: c = 1/0.443994...
    assert bump_normalizer() == pytest.approx(1.0 / 0.44399381616807, rel=1e-10)
    assert bump(0.0) == pytest.approx(bump_normalizer() * math.exp(-1.0), rel=1e-12)
    assert bump(0.0) == pytest.approx(0.8285688, abs=1e-6)
    assert np.max(bump(np.linspace(-1, 1, 4001))) <= 1.0


def test_fourier_alpha0_and_symmetry():
    spec = MollifierSpec(q=4, delta=0.25, m_cutoff=64)
    data = fourier_coeffs(spec)
    assert abs(data.alpha[0] - 1.0) < 1e-10
    # the expansion is stored as real cosine coefficients: even symmetry and
    # vanishing imaginary part are structural here; cross-check alpha_1
    # against a dense trapezoid oracle at doubled resolution
    th = np.linspace(-0.25, 0.25, 400_001)
    alpha1 = np.trapezoid(scaled_bump(th, 0.25) * np.cos(2 * math.pi * th), th)
    assert data.alpha[1] == pytest.approx(alpha1, abs=1e-9)


def test_fourier_reconstruction_within_tail_envelope():
    spec = MollifierSpec(q=4, delta=0.25, m_cutoff=96)
    data = fourier_coeffs(spec)
    th = np.linspace(-0.5, 0.5, 81)
    err = np.max(np.abs(data.reconstruct(th) - scaled_bump(th, 0.25)))
    assert err <= data.tail_envelope()


def test_decay_constant_stability():
    consts = []
    for d in (0.25, 0.125, 0.0625):
        data = fourier_coeffs(MollifierSpec(q=4, delta=d, m_cutoff=256))
        consts.append(data.decay_constant)
    centre = math.sqrt(max(consts) * min(consts))
    assert all(c <= 2.0 * centre and c >= centre / 2.0 for c in consts)


def test_mollifier_product_values():
    table = primes_up_to(3)
    spec = MollifierSpec(q=3, delta=1.0 / 3.0)
    zero = PhaseAssignment({})
    expected = (bump(0.0) / spec.delta) ** 2  # two primes up to 3
    assert mollifier_product(zero, spec, table) == pytest.approx(expected, rel=1e-12)

    off = PhaseAssignment({2: 0.5})
    assert mollifier_product(off, spec, table) == 0.0

    shifted = PhaseAssignment({2: 1.0, 3: 2.0})  # integer shifts wrap to zero
    assert mollifier_product(shifted, spec, table) == pytest.approx(expected, rel=1e-12)


def test_mollifier_product_support_characterisation(rng):
    table = primes_up_to(5)
    spec = MollifierSpec(q=5, delta=0.2)
    for _ in range(50):
        theta = PhaseAssignment({2: rng.uniform(), 3: rng.uniform(), 5: rng.uniform()})
        val = mollifier_product(theta, spec, table)
        assert val >= 0.0
        dists = [min(theta.get(p), 1 - theta.get(p)) for p in (2, 3, 5)]
        if val > 0:
            assert all(d < spec.delta for d in dists)


def test_truncation_remainder_example():
    table = primes_up_to(3)
    spec = MollifierSpec(q=3, delta=1.0 / 3.0, m_cutoff=100)
    log_r = truncation_remainder(spec, table)
    assert math.exp(log_r) == pytest.approx(3.0 * 729.0 / (100.0 * math.log(3.0)), rel=1e-12)
    assert math.exp(log_r) == pytest.approx(19.907, abs=2e-3)
    # remainder drops linearly in the cutoff
    bigger = MollifierSpec(q=3, delta=1.0 / 3.0, m_cutoff=1000)
    assert truncation_remainder(bigger, table) == pytest.approx(log_r - math.log(10.0))


def test_mean_over_curve_deviation_shrinks():
    table = primes_up_to(3)
    spec = MollifierSpec(q=3, delta=1.0 / 3.0)
    zero = PhaseAssignment({})
    devs = []
    for h in (1e3, 1e4, 1e5):
        _, dev = mean_over_curve(spec, 100.0, h, zero, table)
        devs.append(dev)
    assert devs[0] > devs[1] > devs[2]


def test_mean_single_coordinate_full_periods():
    table = primes_up_to(2)
    spec = MollifierSpec(q=2, delta=0.25)
    period = 2.0 * math.pi / math.log(2.0)
    mean, dev = mean_over_curve(spec, 50.0, 1e5 * period, PhaseAssignment({}), table)
    assert dev < 1e-2
    assert mean == pytest.approx(1.0, abs=1e-8)  # integer period count: exact


def test_panel_rule_weights_sum_to_length():
    """The curve mean's partition: a flat integrand integrates to h."""
    fastest = math.log(3.0) / (2.0 * math.pi)
    panels = int(math.ceil(1000.0 / ((1.0 / 3.0) / fastest / 6.0)))
    total = _panel_rule(np.ones_like, lambda count: np.linspace(100.0, 1100.0, count + 1), panels,
                        order=12, tol=1e-9, message="flat")
    assert total == pytest.approx(1000.0, abs=1e-9)


def test_panel_rule_exact_on_polynomials():
    """order nodes per panel integrate degree 2 order - 1 exactly, on any partition."""
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=2 * 5)  # degree 9 = 2 * 5 - 1
    poly = np.polynomial.Polynomial(coeffs)
    exact = poly.integ()(2.0) - poly.integ()(-1.0)
    cuts = np.sort(rng.uniform(-1.0, 2.0, size=6))

    def edges(panels):
        inner = np.sort(np.concatenate([cuts, np.linspace(-1.0, 2.0, panels + 1)[1:-1]]))
        return np.concatenate([[-1.0], inner, [2.0]])

    total = _panel_rule(poly, edges, 3, order=5, tol=1e-12, message="polynomial")
    assert total == pytest.approx(exact, abs=1e-12 * (1.0 + abs(exact)))


def test_panel_rule_vector_integrand_in_runs():
    """Values per node and panel counts large enough to split into many runs
    give the same sums as one run would."""
    ns = np.arange(0, 300)
    f = lambda th: np.cos(np.outer(ns, th)) * np.exp(-th * th)
    got = _panel_rule(f, lambda count: np.linspace(-3.0, 3.0, count + 1), 600,
                      order=8, tol=1e-10, message="vector")
    x, w = np.polynomial.legendre.leggauss(8)
    e = np.linspace(-3.0, 3.0, 1201)
    nodes = ((e[:-1] + e[1:])[:, None] / 2 + (e[1] - e[0]) / 2 * x).ravel()
    want = f(nodes) @ np.tile(w * (e[1] - e[0]) / 2, 1200)
    assert got.shape == (300,)
    assert np.max(np.abs(got - want)) < 1e-12


def test_panel_rule_refuses_a_step():
    """A jump inside a panel moves the sum under doubling: the caller's message is raised."""
    step = lambda t: (t > 0.3).astype(float)
    with pytest.raises(QuadratureFailureError, match="step sum"):
        _panel_rule(step, lambda count: np.linspace(0.0, 1.0, count + 1), 4,
                    order=6, tol=1e-6, message="step sum")


def test_fourier_memory_does_not_grow_with_m():
    """Each node carries m + 1 cosines; the rule holds a bounded run of them
    (the whole (m + 1) x nodes matrix took 433 MiB at m = 512)."""
    tracemalloc.start()
    try:
        fourier_coeffs(MollifierSpec(q=3, m_cutoff=512))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_mean_coordinate_cap():
    table = primes_up_to(17)  # pi(17) = 7 > 6
    spec = MollifierSpec(q=17, delta=1.0 / 17.0)
    with pytest.raises(ValueError):
        mean_over_curve(spec, 100.0, 100.0, PhaseAssignment({}), table)


def test_spec_validation():
    with pytest.raises(ValueError):
        MollifierSpec(q=1.5)
    with pytest.raises(ValueError):
        MollifierSpec(q=4, delta=0.6)
    spec = MollifierSpec(q=8)
    assert spec.delta == pytest.approx(1.0 / 8.0)
