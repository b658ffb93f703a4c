"""Seeded inputs and independent output checks for the zetascope benchmark.

Nothing here imports zetascope. Inputs are built with numpy and mpmath
alone, so they stay the same when the program changes, and the checks
compare the program's outputs with computations it took no part in. This
module runs in the parent process only: the timed worker never sees mpmath
work, so the program's caches and mpmath's start cold there.

Each workload has a fixed make-up (window, heights, orders, tolerances) and
the seed moves the target inside it. Where the number of refined scan
candidates would change with the target, the target stays inside one grid
cell of a fixed window: one refined candidate costs about a sixth of a
scan, so a target free to roam the window would make CPU time depend on
the seed rather than on the program.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

WORKLOADS = ("scan_log", "scan_zeta_height", "universality", "omega_batch")

_DPS = 30


def _default_step(t: float) -> float:
    """Grid step 2 pi / (20 log t) of a scan window starting at t."""
    return 2.0 * math.pi / (20.0 * math.log(t))


def _calibration_u0(i: int) -> float:
    """The i-th block start 3 * 1.35^i of the default calibration ladder."""
    return round(3.0 * 1.35**i, 3)


# Sizes. "full" is what the benchmark measures; "tiny" is for the smoke test.
SIZES = {
    "full": {
        # window of 303 grid points at height 2000; tau* inside cell 79
        "scan_log": {"sigma0": 0.75, "t": 2000.0, "h": 12.5, "eps": 1e-3, "cell": 79},
        # about 1.8k grid points at t = 1e5 with n_trunc about 33k; the
        # start moves by less than one grid step; 16 fixed zeta() points
        "scan_zeta_height": {"sigma0": 0.9, "t": 1.0e5, "h": 50.0, "eps": 0.35,
                             "certify": [(0.9, 1.0e5 + 1.0 + 3.0 * j) for j in range(16)]},
        # tau* inside cell 182 of the 264-point window [994, 1006]
        "universality": {"t": 994.0, "h": 12.0, "cell": 182, "s0": 0.75, "r": 0.125,
                         "delta0": 0.5, "eps": 0.05},
        # (n, sigma0, calibration-ladder index of the block start, eps)
        "omega_batch": {"slots": [
            (1, 0.60, 14, 0.10), (1, 0.75, 12, 0.10), (1, 0.90, 12, 0.25),
            (2, 0.60, 26, 0.10), (2, 0.75, 26, 0.10), (2, 0.90, 26, 0.25),
            (1, 0.60, 16, 0.25), (1, 0.75, 14, 0.25), (1, 0.90, 14, 0.10),
            (2, 0.75, 26, 0.25),
        ]},
    },
    "tiny": {
        "scan_log": {"sigma0": 0.75, "t": 100.0, "h": 5.0, "eps": 1e-3, "cell": 30},
        "scan_zeta_height": {"sigma0": 0.9, "t": 2000.0, "h": 13.0, "eps": 0.35,
                             "certify": [(0.9, 2001.0 + 3.0 * j) for j in range(3)]},
        "universality": {"t": 296.0, "h": 8.0, "cell": 60, "s0": 0.75, "r": 0.125,
                         "delta0": 0.5, "eps": 0.05},
        "omega_batch": {"slots": [(1, 0.75, 12, 0.10), (1, 0.90, 14, 0.25),
                                  (2, 0.75, 18, 0.10)]},
    },
}


# ----------------------------------------------------------------------
# mpmath references
# ----------------------------------------------------------------------

def _zeta(sigma: float, t: float):
    return mp.zeta(mp.mpc(sigma, t))


def _arg_change(t: float, a: float, b: float, za, zb, depth: int = 0) -> float:
    step = float(mp.arg(zb / za))
    if abs(step) <= 0.3:
        return step
    if depth > 40:
        raise RuntimeError(f"argument continuation at t = {t} did not settle")
    m = 0.5 * (a + b)
    zm = _zeta(m, t)
    return (_arg_change(t, a, m, za, zm, depth + 1)
            + _arg_change(t, m, b, zm, zb, depth + 1))


def log_zeta(sigma: float, t: float) -> complex:
    """log zeta(sigma + i t), its argument continued along Im s = t from the right.

    For sigma >= 2, |zeta - 1| <= zeta(2) - 1 < 1, so the principal logarithm
    there is the branch continued from sigma = +inf (and from sigma = 10);
    below 2 the argument is followed in steps of at most 0.3 radians.
    """
    with mp.workdps(_DPS):
        z_hi = _zeta(2.0, t)
        arg = float(mp.arg(z_hi))
        sig = np.linspace(2.0, sigma, 27)
        zs = [z_hi] + [_zeta(float(x), t) for x in sig[1:]]
        for i in range(len(sig) - 1):
            arg += _arg_change(t, float(sig[i]), float(sig[i + 1]), zs[i], zs[i + 1])
        return complex(float(mp.log(abs(zs[-1]))), arg)


def log_zeta_prime(sigma: float, t: float) -> complex:
    """zeta'/zeta at sigma + i t."""
    with mp.workdps(_DPS):
        s = mp.mpc(sigma, t)
        return complex(mp.zeta(s, derivative=1) / mp.zeta(s))


def zeta_value(sigma: float, t: float) -> complex:
    with mp.workdps(_DPS):
        return complex(_zeta(sigma, t))


# ----------------------------------------------------------------------
# Prime sums for the omega workload
# ----------------------------------------------------------------------

def sieve(limit: int) -> np.ndarray:
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask)


def _power_depth(ps: np.ndarray, k: int, sigma0: float, tol: float) -> int:
    """Smallest depth L whose dropped prime powers sum to less than tol.

    The l-th power of p adds l^(k-1) (log p)^k p^(-l sigma0) in absolute value.
    For l > L successive terms shrink by at most
    p^(-sigma0) * max(1, ((L+2)/(L+1))^(k-1)) < 1, so the tail of p is at most
    its (L+1)-th term over one minus that ratio.
    """
    logs = np.log(ps)
    for depth in range(1, 400):
        nxt = depth + 1
        term = float(nxt) ** (k - 1) * logs**k * ps ** (-nxt * sigma0)
        ratio = ps ** (-sigma0) * max(1.0, ((nxt + 1) / nxt) ** (k - 1))
        if np.all(ratio < 1.0) and float(np.sum(term / (1.0 - ratio))) < tol:
            return depth
    raise RuntimeError("no power depth reaches the tail tolerance")


def log_euler(ps: np.ndarray, theta: np.ndarray, k: int, sigma0: float, tol: float) -> complex:
    """k-th s-derivative at sigma0 of sum_p log(1 - e(-theta_p) p^(-s))^(-1).

    Summed over every prime given, to a power depth whose tail is below tol.
    """
    ps = ps.astype(float)
    depth = _power_depth(ps, k, sigma0, tol)
    logs = np.log(ps)
    total = 0j
    for ell in range(1, depth + 1):
        mag = float(ell) ** (k - 1) * logs**k * ps ** (-ell * sigma0)
        total += complex(np.sum(mag * np.exp(-2j * math.pi * ell * theta)))
    return (-1.0) ** k * total


def _block_indices(primes: np.ndarray, u0: float, n: int, sigma0: float) -> list:
    """Positions in primes of the blocks [u0 2^j, u0 2^j + u0^((1+3 sigma0)/4))."""
    v = u0 ** ((1.0 + 3.0 * sigma0) / 4.0)
    out = []
    for j in range(n):
        lo = u0 * 2**j
        # integer p satisfies lo <= p < lo + v exactly when ceil(lo) <= p <= ceil(lo + v) - 1
        sel = (primes >= math.ceil(lo)) & (primes <= math.ceil(lo + v) - 1)
        out.append(np.flatnonzero(sel))
    return out


def _two_group_phases(radii: np.ndarray, z: complex) -> np.ndarray:
    """Phases (in turns) with sum r_i e(-theta_i) = z, from two equal-phase groups."""
    order = np.argsort(-radii, kind="stable")
    ga, gb = order[0::2], order[1::2]
    sa, sb = float(radii[ga].sum()), float(radii[gb].sum())
    az = abs(z)
    if not abs(sa - sb) <= az <= sa + sb:
        raise RuntimeError("block value outside the two-group linkage range")
    psi = math.atan2(z.imag, z.real)
    a1 = math.acos(min(1.0, max(-1.0, (sa * sa + az * az - sb * sb) / (2.0 * sa * az))))
    a2 = math.acos(min(1.0, max(-1.0, (sb * sb + az * az - sa * sa) / (2.0 * sb * az))))
    theta = np.empty(len(radii))
    theta[ga] = (-(psi + a1) / (2.0 * math.pi)) % 1.0
    theta[gb] = (-(psi - a2) / (2.0 * math.pi)) % 1.0
    return theta


def _omega_target(rng, n: int, sigma0: float, ladder: int, eps: float) -> dict:
    """Targets realised by a known phase assignment on the primes <= 2^(n+1) u0.

    Off-block primes carry the alternating background (0 on the 1st, 3rd, ...
    prime, 1/2 on the others). Block j gets the value rho_j R_j e^(i phi),
    R_j its disk radius. For n = 2 both blocks share phi and rho_j lies in
    [0.55, 0.65]: any smaller block start then needs a block value beyond its
    disk, so calibration climbs the same ladder on every seed.
    """
    u0 = _calibration_u0(ladder)
    q = 2.0 ** (n + 1) * u0
    primes = sieve(int(q))
    theta = np.where(np.arange(len(primes)) % 2 == 0, 0.0, 0.5)
    phi = np.exp(2j * math.pi * rng.uniform())
    lo, hi = (0.3, 0.6) if n == 1 else (0.55, 0.65)
    for idx in _block_indices(primes, u0, n, sigma0):
        radii = primes[idx].astype(float) ** (-sigma0)
        theta[idx] = _two_group_phases(radii, rng.uniform(lo, hi) * radii.sum() * phi)
    targets = [log_euler(primes, theta, k, sigma0, 1e-13) for k in range(n)]
    return {"n": n, "sigma0": sigma0, "eps": eps, "u0": u0,
            "targets": [[a.real, a.imag] for a in targets]}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

def make_inputs(workload: str, seed: int, size: str = "full") -> dict:
    """Inputs of one run; the same (workload, seed, size) gives the same inputs."""
    p = SIZES[size][workload]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "scan_log":
        step = _default_step(p["t"])
        tau = p["t"] + step * (p["cell"] + 0.1 + 0.8 * rng.uniform())
        targets = [log_zeta(p["sigma0"], tau), log_zeta_prime(p["sigma0"], tau)]
        return {**p, "tau_star": tau, "targets": [[a.real, a.imag] for a in targets]}
    if workload == "scan_zeta_height":
        t = p["t"] + _default_step(p["t"]) * rng.uniform()
        return {**p, "t": t, "targets": [[1.0, 0.0]]}
    if workload == "universality":
        tau = p["t"] + _default_step(p["t"]) * (p["cell"] + 0.1 + 0.8 * rng.uniform())
        return {**p, "tau_star": tau}
    if workload == "omega_batch":
        return {"specs": [_omega_target(rng, *slot) for slot in p["slots"]]}
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------

def _check_scan_log(inp: dict, out: dict) -> tuple[list, int]:
    if out.get("error"):
        return [], 1
    problems = []
    targets = [complex(*a) for a in inp["targets"]]
    hits = out["hits"]
    if not any(abs(tau - inp["tau_star"]) < out["step"] for tau, _ in hits):
        problems.append("no hit within one grid step of tau*")
    for tau, _ in hits:
        ref = [log_zeta(inp["sigma0"], tau), log_zeta_prime(inp["sigma0"], tau)]
        resid = max(abs(r - a) for r, a in zip(ref, targets))
        if not resid < inp["eps"]:
            problems.append(f"hit {tau}: mpmath residual {resid:.3g} >= eps")
    return problems, 0


def _check_scan_zeta_height(inp: dict, out: dict) -> tuple[list, int]:
    problems = []
    failed = 0
    if out.get("error"):
        failed += 1
    elif not out["hits"]:
        problems.append("no hits")
    for tau, _ in out["hits"] or []:
        resid = abs(zeta_value(inp["sigma0"], tau) - 1.0)
        if not resid < inp["eps"]:
            problems.append(f"hit {tau}: |zeta - 1| = {resid:.3g} >= eps")
    # certified evaluations: an operation fails when the true error exceeds
    # the error estimate zeta() reports
    for (sigma, t), ev in zip(inp["certify"], out["certified"]):
        if ev is None:
            failed += 1
            continue
        re, im, est = ev
        if abs(complex(re, im) - zeta_value(sigma, t)) > est:
            failed += 1
    return problems, failed


def _check_universality(inp: dict, out: dict) -> tuple[list, int]:
    if out.get("error"):
        return [], 1
    problems = []
    tau_star, eps, s0, r = inp["tau_star"], inp["eps"], inp["s0"], inp["r"]
    near = [h for h in out["hits"] if h["verdict"] and abs(h["tau"] - tau_star) < 1.0]
    if not near:
        return ["no hit with a true verdict within 1 of tau*"], 0
    hit = near[0]
    if not all(v < eps / 3.0 for v in hit["budgets"].values()):
        problems.append(f"budget at or above eps/3: {hit['budgets']}")
    # ring sample of the certified disk |s - s0| <= delta r
    sup = 0.0
    for frac in (1.0, 0.5):
        for j in range(12):
            s = s0 + frac * hit["delta"] * r * complex(math.cos(j * math.pi / 6.0),
                                                      math.sin(j * math.pi / 6.0))
            diff = abs(zeta_value(s.real, s.imag + hit["tau"])
                       - zeta_value(s.real, s.imag + tau_star))
            sup = max(sup, diff)
    if not sup < eps:
        problems.append(f"mpmath ring sup {sup:.3g} >= eps")
    return problems, 0


def _check_omega(inp: dict, out: dict) -> tuple[list, int]:
    problems = []
    failed = 0
    for i, (spec, res) in enumerate(zip(inp["specs"], out["constructions"])):
        if res is None:
            failed += 1
            continue
        primes = sieve(int(res["q"]))
        pairs = np.array(res["pairs"], dtype=float).reshape(-1, 2)
        given = pairs[:, 0].astype(np.int64)
        if not np.all(np.isin(given, primes)):
            problems.append(f"target {i}: phases on numbers that are not primes <= q")
            continue
        theta = np.zeros(len(primes))
        theta[np.searchsorted(primes, given)] = pairs[:, 1]
        eps = spec["eps"]
        for k, a in enumerate(spec["targets"]):
            val = log_euler(primes, theta, k, spec["sigma0"], eps / 100.0)
            if not abs(val - complex(*a)) < eps:
                problems.append(f"target {i}, order {k}: residual {abs(val - complex(*a)):.3g}")
    return problems, failed


_CHECKS = {
    "scan_log": _check_scan_log,
    "scan_zeta_height": _check_scan_zeta_height,
    "universality": _check_universality,
    "omega_batch": _check_omega,
}


def check(workload: str, inputs: dict, outputs: dict) -> tuple[list, int]:
    """(problems with the outputs, failed operations in the round)."""
    return _CHECKS[workload](inputs, outputs)
