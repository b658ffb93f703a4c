import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetascope.phases import (
    LogDerivSpec,
    PhaseAssignment,
    _tail_bound,
    alternating_phases,
    default_ell_max,
    log_euler_deriv,
    prime_phase_sum,
    prime_phase_sum_deriv,
)
from zetascope.primes import is_prime, primes_up_to

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def oracle_sum(primes, s, theta):
    """Term-by-term oracle with scalar cmath arithmetic."""
    total = 0j
    for p in primes:
        total += cmath.exp(-2j * math.pi * theta.get(p)) * p ** (-s)
    return total


def oracle_log_deriv(primes, k, sigma0, theta, ell_max):
    """Independent double-sum oracle, scalar arithmetic throughout."""
    total = 0j
    for p in primes:
        for ell in range(1, ell_max + 1):
            total += (
                cmath.exp(-2j * math.pi * ell * theta.get(p))
                * (-ell * math.log(p)) ** k
                / (ell * p ** (ell * sigma0))
            )
    return total


def test_alternating_pattern():
    table = primes_up_to(10)
    th = alternating_phases(table)
    assert dict(th.items()) == {2: 0.0, 3: 0.5, 5: 0.0, 7: 0.5}
    assert len(alternating_phases(primes_up_to(1))) == 0
    assert dict(alternating_phases(primes_up_to(2)).items()) == {2: 0.0}


def test_phase_assignment_validates_and_reduces():
    th = PhaseAssignment({2: 1.25, 3: -0.5})
    assert th.get(2) == pytest.approx(0.25)
    assert th.get(3) == pytest.approx(0.5)
    assert th.get(5) == 0.0  # unassigned defaults to zero
    with pytest.raises(ValueError):
        PhaseAssignment({4: 0.1})


def test_phase_sum_closed_forms():
    z = PhaseAssignment({})
    assert prime_phase_sum([2, 3], 1.0, z) == pytest.approx(5.0 / 6.0)
    half = PhaseAssignment({2: 0.5})
    assert prime_phase_sum([2], 1.0, half) == pytest.approx(-0.5)
    assert prime_phase_sum([], 2.0, z) == 0


def test_phase_sum_matches_oracle():
    theta = PhaseAssignment({2: 0.0, 3: 0.2, 5: 0.7})
    s = 0.75 + 10j
    got = prime_phase_sum([2, 3, 5], s, theta)
    assert got == pytest.approx(oracle_sum([2, 3, 5], s, theta), abs=1e-14)


def test_phase_sum_deriv_closed_forms():
    z = PhaseAssignment({})
    expect = -math.log(2) / 2 - math.log(3) / 3
    assert prime_phase_sum_deriv([2, 3], 1, 1.0, z) == pytest.approx(expect)
    assert expect == pytest.approx(-0.71278, abs=1e-5)
    # k = 0 reduces to the plain sum
    th = PhaseAssignment({2: 0.3, 3: 0.6})
    assert prime_phase_sum_deriv([2, 3], 0, 0.8, th) == pytest.approx(
        prime_phase_sum([2, 3], 0.8, th)
    )


def test_phase_sum_deriv_oracle_k2():
    table = primes_up_to(7)
    th = alternating_phases(table)
    got = prime_phase_sum_deriv([2, 3, 5, 7], 2, 0.75, th)
    want = 0j
    for p in [2, 3, 5, 7]:
        want += cmath.exp(-2j * math.pi * th.get(p)) * math.log(p) ** 2 * p ** (-0.75)
    assert got == pytest.approx(want, abs=1e-14)


def test_log_euler_deriv_single_prime_values():
    z = PhaseAssignment({})
    spec = LogDerivSpec(k=0, sigma0=1.0, ell_max=60)
    val, bound = log_euler_deriv([2], spec, z)
    assert val == pytest.approx(math.log(2.0), abs=1e-10)
    assert bound < 1e-10

    spec1 = LogDerivSpec(k=1, sigma0=1.0, ell_max=60)
    val1, _ = log_euler_deriv([2], spec1, z)
    assert val1 == pytest.approx(-math.log(2.0), abs=1e-10)

    half = PhaseAssignment({2: 0.5})
    val2, _ = log_euler_deriv([2], spec, half)
    assert val2 == pytest.approx(-math.log(1.5), abs=1e-10)
    assert val2 == pytest.approx(-0.4054651, abs=1e-7)


def test_log_euler_deriv_matches_double_sum_oracle():
    theta = PhaseAssignment({2: 0.13, 3: 0.5, 5: 0.81, 7: 0.44})
    for k in (0, 1, 2):
        spec = LogDerivSpec(k=k, sigma0=0.6, ell_max=120)
        got, _ = log_euler_deriv([2, 3, 5, 7], spec, theta)
        want = oracle_log_deriv([2, 3, 5, 7], k, 0.6, theta, 120)
        assert got == pytest.approx(want, abs=1e-12)


def test_tail_bound_is_honest():
    theta = PhaseAssignment({2: 0.3})
    shallow = LogDerivSpec(k=1, sigma0=0.7, ell_max=6)
    deep = LogDerivSpec(k=1, sigma0=0.7, ell_max=200)
    v_shallow, bound = log_euler_deriv([2, 3, 5], shallow, theta)
    v_deep, _ = log_euler_deriv([2, 3, 5], deep, theta)
    assert abs(v_deep - v_shallow) <= bound


def test_default_ell_max_controls_tail():
    """The default depth is the first whose rigorous tail bound is below tol,
    the value at that depth is within its reported bound of a deep sum, and
    the search's bound is the one the explicit depth computes, bit for bit."""
    table = primes_up_to(1000)
    ps = table.primes.astype(float)
    theta = alternating_phases(table)
    for k in (0, 2):
        ell = default_ell_max(ps, k, 0.6, tol=1e-14)
        assert _tail_bound(ps, k, 0.6, ell) < 1e-14
        assert not _tail_bound(ps, k, 0.6, ell - 1) < 1e-14
        value, bound = log_euler_deriv(table.primes, LogDerivSpec(k, 0.6, tol=1e-14), theta)
        explicit = log_euler_deriv(table.primes, LogDerivSpec(k, 0.6, ell_max=ell, tol=1e-14), theta)
        assert explicit == (value, bound)
        deep, _ = log_euler_deriv(table.primes, LogDerivSpec(k, 0.6, ell_max=400), theta)
        assert abs(value - deep) <= bound


def doubling_depth(ps, k, sigma0, tol):
    """The earlier depth search: double from max(2, k + 1), then bisect."""
    if ps.size == 0:
        return 1
    below = lambda ell: _tail_bound(ps, k, sigma0, ell) < tol
    hi = max(2, k + 1)
    lo = hi - 1
    while not below(hi):
        if hi >= 10_000:
            return hi
        lo, hi = hi, min(2 * hi, 10_000)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if below(mid) else (mid, hi)
    return hi


def test_default_ell_max_matches_doubling_search():
    """Starting at the smallest prime's own tail term changes no depth."""
    for top in (2, 10, 1000, 60000):
        primes = primes_up_to(top).primes.astype(float)
        for drop in (0, 1, 3):
            ps = primes[drop:]
            for k in range(4):
                for sigma0 in (0.51, 0.6, 0.75, 0.9, 1.0):
                    for tol in (1e-13, 1e-14, 1e-15):
                        want = doubling_depth(ps, k, sigma0, tol)
                        assert default_ell_max(ps, k, sigma0, tol) == want, (top, drop, k, sigma0, tol)


def per_ell_sum(ps, k, sigma0, theta, ell_max, drop_tol=0.0):
    """Prime-power sum one power at a time, skipping terms at most drop_tol."""
    ps = np.asarray(ps, dtype=float)
    logs, th = np.log(ps), theta.phases_for(ps)
    total = 0j
    for ell in range(1, ell_max + 1):
        mag = (ell * logs) ** k * ps ** (-ell * sigma0) / ell
        keep = mag > drop_tol
        total += np.sum(np.exp(-2j * np.pi * ell * th[keep]) * mag[keep])
    return (-1) ** k * total


def test_cut_sum_matches_per_ell_reference():
    """The one-pass sum with its cut per power agrees with a per-power sum
    that drops the same small terms, and with one that drops none, to within
    its reported bound."""
    table = primes_up_to(60000)
    rng = np.random.default_rng(14)
    theta = alternating_phases(table).merged(
        PhaseAssignment._from_sorted(table.primes[::7], rng.uniform(size=len(table.primes[::7]))))
    for k in (0, 1):
        for sigma0 in (0.6, 0.75, 0.9):
            spec = LogDerivSpec(k, sigma0, ell_max=220)
            value, bound = log_euler_deriv(table.primes, spec, theta)
            drop_tol = spec.tol * 1e-3 / (220 * len(table.primes))
            reference = per_ell_sum(table.primes, k, sigma0, theta, 220, drop_tol)
            deep = per_ell_sum(table.primes, k, sigma0, theta, 300)
            assert abs(value - reference) <= bound
            assert abs(value - deep) <= bound


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("sigma0", [0.6, 0.9])
def test_log_euler_deriv_bound_holds_against_mpmath(k, sigma0):
    """At the default depth the reported bound covers the true error of the
    value, rounding included, against the infinite series at 40 digits:
    the k-th derivative of -log(1 - y) with y = e(-theta_p) p^(-s) is
    (-log p)^k Li_{1-k}(y)."""
    table = primes_up_to(1000)
    theta = alternating_phases(table)
    value, bound = log_euler_deriv(table.primes, LogDerivSpec(k, sigma0, tol=1e-14), theta)
    with mpmath.workdps(40):
        exact = mpmath.mpf(0)
        for p, turns in theta.items():
            y = (-1) ** round(2 * turns) * mpmath.mpf(p) ** (-mpmath.mpf(sigma0))
            exact += (-mpmath.log(p)) ** k * mpmath.polylog(1 - k, y)
        err = float(abs(mpmath.mpc(value) - exact))
    assert err <= bound


def test_log_vs_linear_proxy_bound():
    """The gap between the log-Euler derivative and the linear prime sum is
    controlled by the second-power tail sum (prime-power expansion shape)."""
    rng = np.random.default_rng(5)
    ps = [11, 13, 17, 19, 23]
    for k in (0, 1, 2):
        for _ in range(5):
            theta = PhaseAssignment({p: rng.uniform() for p in ps})
            sigma0 = rng.uniform(0.55, 0.95)
            full, _ = log_euler_deriv(ps, LogDerivSpec(k, sigma0, ell_max=150), theta)
            lin = prime_phase_sum_deriv(ps, k, sigma0, theta)
            # constant from the ell >= 2 tail with the worst prime p = min(ps)
            c_k = sum(
                ell ** max(k - 1, 0) * min(ps) ** (-(ell - 2) * sigma0)
                for ell in range(2, 200)
            )
            bound = c_k * sum(math.log(p) ** k * p ** (-2 * sigma0) for p in ps)
            assert abs(full - lin) <= bound


@settings(max_examples=40, deadline=None)
@given(
    shift=st.integers(min_value=-3, max_value=3),
    t2=st.floats(0, 1, exclude_max=True),
    t3=st.floats(0, 1, exclude_max=True),
)
def test_integer_shift_periodicity(shift, t2, t3):
    theta = PhaseAssignment({2: t2, 3: t3})
    shifted = theta.shifted({2: float(shift), 3: float(-shift)})
    s = 0.8 + 3j
    assert prime_phase_sum([2, 3], s, theta) == pytest.approx(
        prime_phase_sum([2, 3], s, shifted), abs=1e-14
    )


@settings(max_examples=40, deadline=None)
@given(
    t2=st.floats(0, 1, exclude_max=True),
    t5=st.floats(0, 1, exclude_max=True),
    sig=st.floats(0.55, 2.0),
    t=st.floats(-20.0, 20.0),
)
def test_conjugation_symmetry(t2, t5, sig, t):
    theta = PhaseAssignment({2: t2, 5: t5})
    s = complex(sig, t)
    lhs = prime_phase_sum([2, 5], s.conjugate(), theta.negated())
    rhs = prime_phase_sum([2, 5], s, theta)
    assert lhs == pytest.approx(rhs.conjugate(), abs=1e-13)


def test_serialization_records():
    th = PhaseAssignment({3: 0.25, 2: 0.0})
    assert th.to_records() == [
        {"prime": 2, "theta": 0.0},
        {"prime": 3, "theta": 0.25},
    ]


def test_merged_other_wins_on_overlap():
    base = PhaseAssignment({2: 0.1, 3: 0.2, 7: 0.3})
    other = PhaseAssignment({3: 0.9, 5: 0.4})
    assert dict(base.merged(other).items()) == {2: 0.1, 3: 0.9, 5: 0.4, 7: 0.3}
    assert dict(other.merged(base).items()) == {2: 0.1, 3: 0.2, 5: 0.4, 7: 0.3}
    assert base.merged(PhaseAssignment()) == base
    assert PhaseAssignment().merged(base) == base


def test_phases_for_lookups():
    th = PhaseAssignment({3: 0.25, 7: 0.75})
    want = [0.0, 0.25, 0.0, 0.75, 0.0, 0.0]
    assert th.phases_for(np.array([2, 3, 5, 7, 11, 10**6])).tolist() == want
    # prime_phase_sum hands over float arrays of integer values
    assert th.phases_for(np.array([2.0, 3.0, 5.0, 7.0, 11.0, 1e6])).tolist() == want
    assert th.phases_for([3, 7]).tolist() == [0.25, 0.75]
    assert th.phases_for(np.array([], dtype=np.int64)).shape == (0,)
    empty = PhaseAssignment()
    assert empty.phases_for(np.array([2, 3.0])).tolist() == [0.0, 0.0]
    assert empty.get(2) == 0.0 and th.get(1009) == 0.0


def test_items_ascending_python_numbers():
    th = PhaseAssignment([(13, 0.5), (2, 1.75), (5, -0.25), (2, 0.125)])  # last 2 wins
    items = list(th.items())
    assert items == [(2, 0.125), (5, 0.75), (13, 0.5)]
    assert all(type(p) is int and type(t) is float for p, t in items)
    recs = alternating_phases(primes_up_to(30)).to_records()
    assert [r["prime"] for r in recs] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert all(type(r["prime"]) is int and type(r["theta"]) is float for r in recs)


def test_equality():
    a = PhaseAssignment({2: 0.5, 3: 0.25})
    assert a == PhaseAssignment({3: 1.25, 2: -0.5})
    assert a != PhaseAssignment({2: 0.5, 3: 0.5})
    assert a != PhaseAssignment({2: 0.5, 5: 0.25})
    assert a != PhaseAssignment({2: 0.5})
    assert a != dict(a.items())
    assert alternating_phases(primes_up_to(50)) == PhaseAssignment(
        alternating_phases(primes_up_to(50)).items())
    assert a.negated().negated() == a


def test_sieved_primes_skip_miller_rabin(monkeypatch):
    import zetascope.phases
    from zetascope.omega import TargetSpec, construct_phases

    calls = []

    def counting(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(zetascope.phases, "is_prime", counting)
    assert len(alternating_phases(primes_up_to(10**5))) == 9592
    assignment, report = construct_phases(TargetSpec(1, 0.75, (1.0,), 0.1))
    assert report.ok and len(assignment) > 0
    assert calls == []
    PhaseAssignment({2: 0.5, 3: 0.0})  # primes from a caller are sieved
    assert calls == []
    with pytest.raises(ValueError, match="non-prime 9"):
        PhaseAssignment({2: 0.5, 9: 0.0, 15: 0.1})
    big = 1048583  # the least prime above the sieve range 2^20
    assert zetascope.phases._SIEVE_LIMIT == 1 << 20
    assert len(PhaseAssignment({2: 0.5, 1009: 0.0, big: 0.25})) == 3
    assert calls == [big]  # Miller-Rabin only above the sieve range
    with pytest.raises(ValueError, match=f"non-prime {big + 2}"):
        PhaseAssignment({3: 0.5, big + 2: 0.0})  # 1048585 = 5 x 209717
    assert calls == [big, big + 2]
    with pytest.raises(ValueError, match="non-prime -3"):
        PhaseAssignment({-3: 0.5})
