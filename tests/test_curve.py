import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetascope.curve import (
    FrequencyVector,
    curve_coords,
    curve_point,
    frequency_nonzero,
    weyl_integral,
)
from zetascope.primes import primes_up_to

TABLE = primes_up_to(30)


def wrap_dist(a, b=0.0):
    d = (a - b) % 1.0
    return min(d, 1.0 - d)


def test_curve_at_zero():
    pt = curve_point(0.0, TABLE)
    assert all(v == 0.0 for v in pt.coords.values())


def test_curve_exact_period():
    t = 2.0 * math.pi / math.log(2.0)
    pt = curve_point(t, TABLE)
    assert wrap_dist(pt.get(2)) < 1e-12


def test_curve_half_period():
    t = math.pi / math.log(2.0)
    pt = curve_point(t, TABLE)
    assert wrap_dist(pt.get(2), 0.5) < 1e-12


def test_flow_property():
    t, dt = 1234.5678, 17.25
    a = curve_point(t, TABLE)
    b = curve_point(t + dt, TABLE)
    d = curve_point(dt, TABLE)
    for p in TABLE.primes:
        p = int(p)
        assert wrap_dist((b.get(p) - a.get(p)) % 1.0, d.get(p)) < 1e-9


def test_large_t_phase_accuracy():
    """Oracle: 50-digit reduction of t log(p) / 2 pi mod 1."""
    for t in (1e6, 1e9, 1e12):
        for p in (2, 3, 29):
            got = curve_coords(np.array([t]), p)[0]
            with mp.workdps(50):
                want = float(mp.frac(mp.mpf(t) * mp.log(p) / (2 * mp.pi)))
            assert wrap_dist(got, want) < 1e-10


def test_frequency_nonzero_examples():
    assert not frequency_nonzero(FrequencyVector({}))
    assert frequency_nonzero(FrequencyVector({2: 1, 3: -1}))
    assert frequency_nonzero(FrequencyVector({2: 2, 3: -1, 5: 1, 7: -1}))


@settings(max_examples=100, deadline=None)
@given(
    n2=st.integers(-5, 5), n3=st.integers(-5, 5), n5=st.integers(-5, 5),
    n7=st.integers(-5, 5),
)
def test_frequency_nonzero_vs_fraction_oracle(n2, n3, n5, n7):
    entries = {2: n2, 3: n3, 5: n5, 7: n7}
    fv = FrequencyVector(entries)
    frac = Fraction(1)
    for p, n in entries.items():
        frac *= Fraction(p) ** n
    assert frequency_nonzero(fv) == (frac != 1)


def test_weyl_integral_closed_forms():
    fv = FrequencyVector({2: 1, 3: -1})
    value, bound = weyl_integral(fv, 100.0, 1000.0)
    assert bound == pytest.approx(2.0 / math.log(1.5))
    assert bound == pytest.approx(4.9326, abs=1e-4)
    assert abs(value) <= bound

    value0, bound0 = weyl_integral(FrequencyVector({}), 0.0, 100.0)
    assert value0 == 100.0 and bound0 == 100.0

    om = fv.omega
    full, _ = weyl_integral(fv, 0.0, 2.0 * math.pi / om)
    assert abs(full) < 1e-9


def test_weyl_bound_random(rng):
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    for _ in range(200):
        entries = {p: int(rng.integers(-5, 6)) for p in primes}
        fv = FrequencyVector(entries)
        if not frequency_nonzero(fv):
            continue
        t0 = float(rng.uniform(0, 1e6))
        h = float(rng.uniform(1, 1e5))
        value, bound = weyl_integral(fv, t0, h)
        assert abs(value) <= bound * (1.0 + 1e-12)


def test_equidistribution_trend():
    fv = FrequencyVector({2: 1, 3: -1})
    om = fv.omega
    means = []
    for h in (1e2, 1e4, 1e6):
        value, _ = weyl_integral(fv, 5.0, h)
        means.append(abs(value) / h)
    assert means[0] > means[1] > means[2]


def test_frequency_validation():
    with pytest.raises(ValueError):
        FrequencyVector({4: 1})
    fv = FrequencyVector({3: 0, 2: 1})
    assert 3 not in fv.entries  # zero entries dropped


@pytest.mark.parametrize("t", [0.0, 1e3, 123456.789, 7.7e11])
def test_curve_point_matches_curve_coords_exactly(t):
    table = primes_up_to(2000)
    pt = curve_point(t, table)
    for p in table.primes:
        assert pt.coords[int(p)] == curve_coords([t], int(p))[0]
