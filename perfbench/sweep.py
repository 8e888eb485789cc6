"""Run the benchmark over workloads and seeds and keep the results.

Usage, from the root of a checkout:

    python3 perfbench/sweep.py --seeds 1-10 --out base.jsonl
    python3 perfbench/sweep.py --seeds 1-10 --root ../parent --root . \\
        --out parent.jsonl --out change.jsonl

Each run is ``perfbench/run.py`` of the given checkout; each result line
of ``--out`` holds the workload, seed, input digest, attempted and failed
counts and every metric value.  With two roots the runs alternate which
side goes first, seed by seed.  At the end it prints each workload's
failed_frac and, per workload and metric, the median with its unit, the
quartiles and the spread (interquartile distance over the median) with
the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("oracle", "cocycle", "pointwise", "cli")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_one(root, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    digest = next(line.rsplit("sha256=", 1)[1] for line in lines if line.startswith("inputs "))
    result = json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "trace": trace, "digest": digest,
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def load(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def metric_specs():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def spread_table(records):
    """(workload, metric, n, median, q1, q3, spread) for every metric in the records."""
    rows = []
    for workload in dict.fromkeys(r["workload"] for r in records):
        runs = [r for r in records if r["workload"] == workload]
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            rows.append((workload, name, len(values), med, q1, q3, (q3 - q1) / med if med else 0.0))
    return rows


def print_spreads(records, out=sys.stdout):
    specs = metric_specs()
    for workload in dict.fromkeys(r["workload"] for r in records):
        runs = [r for r in records if r["workload"] == workload]
        failed, attempted = sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)
        print(f"{workload}: failed_frac {failed / attempted} ({failed} of {attempted} cases)",
              file=out)
    for workload, name, n, med, q1, q3, spread in spread_table(records):
        spec = specs[name]
        bound = spec.get("bound")
        note = "" if bound is None else f"bound {bound}" + (" STEADY" if spread < bound / 3 else "")
        print(f"{workload:10s} {name:44s} n={n:2d} median {med:.6g} {spec['unit']} "
              f"[{q1:.6g}, {q3:.6g}] spread {spread:.4f} {note}", file=out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", action="append", type=Path,
                        help="checkout to benchmark (repeat for a paired run); default this one")
    parser.add_argument("--out", action="append", type=Path, required=True,
                        help="JSON-lines result file, one per --root; appended to")
    args = parser.parse_args(argv)
    roots = args.root or [HERE.parent]
    if len(roots) != len(args.out):
        parser.error("give one --out per --root")
    results = {root: [] for root in roots}
    for i, seed in enumerate(parse_seeds(args.seeds)):
        for workload in args.workloads.split(","):
            for root, out in (zip(roots, args.out) if i % 2 == 0
                              else reversed(list(zip(roots, args.out)))):
                record = run_one(root.resolve(), workload, seed, args.seconds, args.trace)
                results[root].append(record)
                with open(out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record) + "\n")
                print(f"{root} {workload} seed={seed} attempted={record['attempted']} "
                      f"failed={record['failed']}", flush=True)
    for root in roots:
        print(f"\n{root}")
        print_spreads(results[root])
    return 0


if __name__ == "__main__":
    sys.exit(main())
