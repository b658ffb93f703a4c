import functools

import mpmath as mp
import numpy as np
import pytest


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture(scope="session")
def zeros_to_110():
    from zetascope.zeta_engine import zero_ordinates

    return zero_ordinates(110.0)


@pytest.fixture(scope="session")
def zeros_to_1060():
    from zetascope.zeta_engine import zero_ordinates

    return zero_ordinates(1060.0)


def _mp_arg_change(t, a, b, za, zb):
    step = float(mp.arg(zb / za))
    if abs(step) <= 0.3:
        return step
    m = 0.5 * (a + b)
    zm = mp.zeta(mp.mpc(m, t))
    return _mp_arg_change(t, a, m, za, zm) + _mp_arg_change(t, m, b, zm, zb)


@functools.lru_cache(maxsize=None)
def _mp_log_zeta_derivs(sigma, t, kmax):
    """log zeta and its derivatives to order kmax at sigma + i t from mpmath
    at 30 digits. The argument is continued from sigma = 10 along Im s = t;
    the Taylor coefficients a_k of zeta give those of log zeta by the
    log-series recurrence b_k = (a_k - (1/k) sum_{0<j<k} j b_j a_{k-j}) / a_0."""
    with mp.workdps(30):
        xs = np.linspace(10.0, sigma, 9)
        zs = [mp.zeta(mp.mpc(x, t)) for x in xs]
        arg = float(mp.arg(zs[0])) + sum(
            _mp_arg_change(t, a, b, za, zb) for a, b, za, zb in zip(xs, xs[1:], zs, zs[1:])
        )
        s = mp.mpc(sigma, t)
        a = [mp.zeta(s, derivative=k) / mp.factorial(k) for k in range(kmax + 1)]
        b = [None]
        for k in range(1, kmax + 1):
            acc = sum(j * b[j] * a[k - j] for j in range(1, k))
            b.append((a[k] - acc / k) / a[0])
        return np.array([complex(mp.log(abs(a[0])), arg)]
                        + [complex(b[k] * mp.factorial(k)) for k in range(1, kmax + 1)])


@pytest.fixture(scope="session")
def mp_log_zeta_derivs():
    """(sigma, t, kmax) -> the mpmath reference of log zeta derivatives."""
    return _mp_log_zeta_derivs
