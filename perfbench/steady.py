"""Steadiness check: run every workload ten times and report spreads.

    python3 perfbench/steady.py                   # 10 seeds per workload
    python3 perfbench/steady.py --sets 2          # two sets of 10, medians compared

Each run is a run.py measurement of BENCHMARK.json's run_seconds, with its
own seed and a fresh worker process. For every end-to-end metric the table
gives the median, the quartiles (statistics.quantiles, n=4), the spread
(q3 - q1) / median and the metric's bound from BENCHMARK.json. A spread
above the bound makes the set NOT steady; one above a third of the bound is
flagged. The exception is setup_s: each run times one cold set-up of well
under a second, so its spread is reported but not held to the bound, and
what is held is its median. With two sets the second median of every
metric, setup_s too, must not be worse than the first by more than the
bound. Wall time per round is listed beside CPU time as a reference figure.
Raw values go to .perfbench/steady.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

import run

RUNS = 10


def machine() -> dict:
    import mpmath
    import numpy
    import scipy

    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__, "machine": platform.machine()}


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf")}


def main(argv=None) -> int:
    spec = run._spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    seconds = spec["run_seconds"]

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    raw = {w: [[] for _ in range(args.sets)] for w in names}
    seed = args.first_seed
    for s in range(args.sets):
        for _ in range(RUNS):
            for w in names:
                res = run.measure(w, seed, seconds, trace=False)
                res["seed"] = seed
                raw[w][s].append(res)
                print(f"set {s + 1} seed {seed} {w}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} "
                      + " ".join(f"{k}={v:.4g}" for k, v in res["metrics"].items())
                      + f" wall_s={res['wall_s']:.4g}", flush=True)
            seed += 1

    mach = machine()
    print("\nmachine: " + ", ".join(f"{k} {v}" for k, v in mach.items()))
    ok = True
    report = {"machine": mach, "seconds": seconds, "workloads": {}}
    for w in names:
        print(f"\n{w}")
        print(f"  {'metric':<14}{'set':>4}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
        entry = report["workloads"][w] = {"sets": []}
        medians = {}
        for s, runs in enumerate(raw[w]):
            shares = {r["failed"] / r["attempted"] for r in runs}
            correct = all(r["correct"] for r in runs)
            ok = ok and correct and len(shares) == 1
            stats = {}
            for m in list(bounds) + ["wall_s"]:
                vals = [r["metrics"][m] if m in bounds else r[m] for r in runs]
                st = summarize(vals)
                st["values"] = vals
                stats[m] = st
                bound = bounds.get(m)
                flag = ""
                if m == "setup_s":
                    flag = " (not held)"
                elif bound is not None:
                    flag = "" if st["spread"] < bound / 3 else (" >1/3 bound" if st["spread"] <= bound else " OVER BOUND")
                    ok = ok and st["spread"] <= bound
                print(f"  {m:<14}{s + 1:>4}{st['median']:>12.5g}{st['q1']:>12.5g}{st['q3']:>12.5g}"
                      f"{st['spread']:>9.2%}{'' if bound is None else f'{bound:>8.2f}'}{flag}")
                medians.setdefault(m, []).append(st["median"])
            print(f"  correct in every run: {correct}; failed share(s): {sorted(shares)}")
            entry["sets"].append({"stats": stats, "correct": correct, "failed_shares": sorted(shares),
                                  "seeds": [r["seed"] for r in runs]})
        if args.sets == 2:
            for m, bound in bounds.items():
                a, b = medians[m]
                worse = (b - a) / a if better[m] == "lower" else (a - b) / a
                ok = ok and worse <= bound
                print(f"  {m}: second median worse than first by {worse:+.2%} (bound {bound:.0%})")

    os.makedirs(os.path.join(run.ROOT, ".perfbench"), exist_ok=True)
    with open(os.path.join(run.ROOT, ".perfbench", "steady.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
