"""One benchmark run of one workload of zetascope.

    python3 perfbench/run.py --workload scan_log --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Builds the workload's inputs from the seed
(numpy and mpmath only, in this process), runs the timed worker in a fresh
interpreter with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
ZETASCOPE_THREADS pinned to 1, checks the worker's outputs against
independent mpmath computations, and prints one line per metric, then the
result as a JSON object on the last line. With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
ones. A traced run also writes its spans to .perfbench/ in the checkout.
Exits 2 without a result when the checkout holds no zetascope sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               ZETASCOPE_THREADS="1", PYTHONHASHSEED="0")
    return env


def run_worker(workload: str, inputs: dict, seconds: float, trace: bool) -> tuple[dict, float]:
    """Run the timed worker; returns its record and its wall time."""
    cmd = [sys.executable, "-B", os.path.join(HERE, "worker.py"), workload, str(seconds),
           "1" if trace else "0"]
    w0 = time.perf_counter()
    proc = subprocess.run(cmd, input=json.dumps(inputs), capture_output=True, text=True,
                          env=_worker_env(), cwd=ROOT, timeout=150)
    wall = time.perf_counter() - w0
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """One run: inputs, timed worker, checks. Returns the result object."""
    inputs = oracle.make_inputs(workload, seed, size)
    rec, wall = run_worker(workload, inputs, seconds, trace)
    problems, failed_per_round = oracle.check(workload, inputs, rec["outputs"])
    if not rec["identical_outputs"]:
        problems.append("rounds of the same inputs gave different outputs")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    cpu_s = statistics.median(rec["round_cpu_s"])
    if trace:
        metrics = dict(rec["per_layer"])
        out = rec["outputs"]
        built = sum(c is not None for c in out.get("constructions", []))
        metrics["grid_points_per_s"] = metrics["scan.grid_points"] / cpu_s
        metrics["constructions_per_s"] = built / cpu_s
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        with open(os.path.join(ROOT, ".perfbench", f"trace-{workload}-s{seed}.json"), "w") as fh:
            json.dump({"workload": workload, "seed": seed, "per_layer": rec["per_layer"],
                       "spans": rec["spans"]}, fh)
    else:
        metrics = {"cpu_s": cpu_s, "setup_s": rec["setup_s"],
                   "peak_rss_mib": rec["peak_rss_mib"]}
    rounds = rec["rounds"]
    return {
        "correct": not problems,
        "attempted": rounds * rec["ops_per_round"],
        "failed": rounds * failed_per_round,
        "metrics": metrics,
        # reference figures, not metrics: wall time includes time the host
        # took the core away
        "wall_s": statistics.median(rec["round_wall_s"]),
        "worker_wall_s": wall,
        "rounds": rounds,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs for the smoke test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "zetascope", "__init__.py")):
        print(f"error: no zetascope sources under {ROOT}/src", file=sys.stderr)
        return 2
    spec = _spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    res = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": res["metrics"][m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {res['metrics'][m['name']]:.6g} {m['unit']}")
    print(f"# reference: wall_s = {res['wall_s']:.6g} s per round, "
          f"{res['rounds']} rounds, worker wall {res['worker_wall_s']:.3f} s")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
