"""Timed process of one benchmark run: a fresh, single-threaded interpreter.

    python3 -B perfbench/worker.py <workload> <seconds> <trace 0|1>  < inputs.json

run.py starts it with the thread counts pinned to 1 and the inputs on
stdin. It imports zetascope from the checkout's `src`, finishes the
program's one-time lazy set-up and reads its own CPU time: that is the
set-up time, from the process's start. Then it runs whole rounds of the
workload until their CPU time reaches `seconds`. Before every round it
empties each function cache of zetascope that the set-up left empty, so
each round starts as cold as the first. With trace 1 it alternates
untraced and traced rounds, so that the tracing overhead can be measured
in the same process. Its last stdout line is a JSON record.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _round_scan_log(zs, inp):
    window = zs.ScanWindow(t=inp["t"], h=inp["h"], eps=inp["eps"])
    try:
        res = zs.scan_log_derivs([complex(*a) for a in inp["targets"]], inp["sigma0"],
                                 window, threads=1)
    except zs.ZetascopeError as exc:
        return 1, {"error": str(exc)}
    return 1, {"step": window.step, "hits": [[h.tau, list(h.residuals)] for h in res.hits]}


def _round_scan_zeta_height(zs, inp):
    window = zs.ScanWindow(t=inp["t"], h=inp["h"], eps=inp["eps"])
    out = {}
    try:
        res = zs.scan_zeta_derivs([complex(*a) for a in inp["targets"]], inp["sigma0"],
                                  window, threads=1)
        out["hits"] = [[h.tau, list(h.residuals)] for h in res.hits]
    except zs.ZetascopeError as exc:
        out["error"], out["hits"] = str(exc), None
    certified = []
    for sigma, t in inp["certify"]:
        try:
            ev = zs.zeta(complex(sigma, t))
            certified.append([ev.value.real, ev.value.imag, ev.est_error])
        except zs.ZetascopeError:
            certified.append(None)
    out["certified"] = certified
    return 1 + len(certified), out


def _round_universality(zs, inp):
    import numpy as np

    zeta_engine = sys.modules["zetascope.zeta_engine"]
    tau = inp["tau_star"]

    def g(z):
        # the CLI's built-in target zeta-shift:tau
        return zeta_engine.zeta_array(np.asarray(z, dtype=complex) + 1j * tau, tol=1e-9)

    try:
        target = zs.UniversalityTarget(g=g, s0=inp["s0"], r=inp["r"], delta0=inp["delta0"],
                                       eps=inp["eps"])
        report = zs.run_universality(target, inp["t"], inp["h"], threads=1)
    except zs.ZetascopeError as exc:
        return 1, {"error": str(exc)}
    hits = [{"tau": h.tau, "verdict": h.verdict, "delta": h.delta, "sup_diff": h.sup_diff,
             "budgets": dict(h.budgets)} for h in report.hits]
    return 1, {"degree": report.n, "hits": hits}


def _round_omega_batch(zs, inp):
    out = []
    for spec in inp["specs"]:
        target = zs.TargetSpec(n=spec["n"], sigma0=spec["sigma0"],
                               targets=tuple(complex(*a) for a in spec["targets"]),
                               eps=spec["eps"])
        try:
            assignment, report = zs.construct_phases(target)
        except zs.ZetascopeError:
            out.append(None)
            continue
        out.append({"q": report.q, "u0": report.u0,
                    "pairs": [[int(p), float(t)] for p, t in assignment.items()]})
    return len(out), {"constructions": out}


ROUNDS = {
    "scan_log": _round_scan_log,
    "scan_zeta_height": _round_scan_zeta_height,
    "universality": _round_universality,
    "omega_batch": _round_omega_batch,
}


def main(argv):
    workload, seconds, trace = argv[1], float(argv[2]), argv[3] == "1"
    sys.path.insert(0, SRC)
    import zetascope as zs

    zs.zeta(2.0)  # the lazy set-up: the Bernoulli table of the evaluator
    setup_s = time.process_time()

    import json
    import resource
    import statistics

    if not os.path.abspath(zs.__file__).startswith(SRC + os.sep):
        print(f"zetascope imported from {zs.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    inp = json.loads(sys.stdin.read())
    run_round = ROUNDS[workload]

    # function caches the set-up filled stay; all others are emptied per round
    caches = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and name.startswith("zetascope"):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)) and hasattr(obj, "cache_info"):
                    caches[id(obj)] = obj
    per_round = [c for c in caches.values() if c.cache_info().currsize == 0]

    def timed_round():
        for c in per_round:
            c.cache_clear()
        c0, w0 = time.process_time(), time.perf_counter()
        ops, out = run_round(zs, inp)
        return time.process_time() - c0, time.perf_counter() - w0, ops, out

    cpu, wall, traced_cpu, layers = [], [], [], []
    outputs = []
    tracer = None
    if trace:
        from tracing import Tracer
    while True:
        c, w, ops, out = timed_round()
        cpu.append(c)
        wall.append(w)
        outputs.append(json.dumps(out, sort_keys=True))
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                c, _, _, out = timed_round()
            finally:
                tracer.uninstall()
            traced_cpu.append(c)
            layers.append(tracer.metrics())
            outputs.append(json.dumps(out, sort_keys=True))
        if sum(cpu) + sum(traced_cpu) >= seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "setup_s": setup_s,
        "round_cpu_s": cpu,
        "round_wall_s": wall,
        "peak_rss_mib": peak_rss_mib,
        "rounds": len(outputs),
        "ops_per_round": ops,
        "identical_outputs": len(set(outputs)) == 1,
        "outputs": json.loads(outputs[0]),
    }
    if trace:
        per_layer = {k: statistics.median([m[k] for m in layers]) for k in layers[0]}
        per_layer["trace.overhead_s"] = statistics.median(traced_cpu) - statistics.median(cpu)
        record["per_layer"] = per_layer
        record["traced_round_cpu_s"] = traced_cpu
        record["spans"] = tracer.span_records()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
