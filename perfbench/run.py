"""Exact-verdict benchmark for lievessiot.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 28 --trace 0

One client in one process sends cases in a closed loop: the next case
starts when the previous verdict is in (for ``cli``, one child process at
a time).  The seed fixes the generated inputs; lievessiot receives only
those.  Every answer is checked against the verdict the case was built
to have.

A case's cost is the CPU time it takes this process and its children,
in units of ``ref``: the CPU time of a fixed reference computation
(reference_seconds) timed just before and just after it.  On a shared
host the processor's speed drifts by tens of percent over seconds, and
seconds measured minutes apart disagree by as much; the reference slows
down with the case, so the ratio holds.  ``verdict_ref.p50`` and
``verdict_ref.p90`` are quantiles of the cost per case, and
``verdicts_per_kref`` is cases per 1000 ref.  The table before the JSON
line also gives the median ref in seconds.  ``setup_s`` is the median
import time of lievessiot and lievessiot.cli in fresh processes, timed
in stretches spread over the run.

The last line of stdout is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
same metrics as a table, the failure share and a digest of the inputs.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` first runs
cases untraced for part of the time, then replays the same cases under
the tracer (tracer.py) and reports per-layer metrics per case, the
tracing overhead as traced against untraced verdicts per 1000 ref, and the
share of each case's wall time that top-level spans cover.  Spans are
written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from fractions import Fraction
from pathlib import Path

import gauss as gs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_CODE = ("import time; t = time.process_time(); import lievessiot, lievessiot.cli; "
              "print(time.process_time() - t)")
SETUP_REPEATS = 15
SEGMENTS = 3  # stretches of the loop, with SETUP_REPEATS / SEGMENTS import timings after each
REF_EVERY = 0.2  # CPU seconds of cases between two timings of the reference
REF_TERMS = 4000
REF_POLYS = [gs.rand_poly_exact(random.Random(f"reference:{k}"), 12, 50) for k in range(4)]
REF_SECONDS = []  # every timing of the reference in this run
UNTRACED_SHARE = 0.4  # of --seconds, in a traced run, before the traced replay
TRACE_MARK = "perfbench-trace "

END_TO_END = [
    ("verdict_ref.p50", "ref"), ("verdict_ref.p90", "ref"), ("verdicts_per_kref", "1/kref"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
]


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in report order."""
    from tracer import COUNTED, SPAN_NAMES

    out = []
    for name in SPAN_NAMES:
        out += [(f"{name}.calls", "calls/case", "lower"), (f"{name}.busy_s", "s/case", "lower"),
                (f"{name}.self_s", "s/case", "lower")]
    out += [(name, "calls/case", "lower") for *_, name in COUNTED]
    out += [
        ("ratfunc.Poly.gcd.calls.deg_ge16", "calls/case", "lower"),
        ("ratfunc.Poly.gcd.coprime_frac", "ratio", "lower"),
        ("cli.spawn_s", "s", "lower"), ("cli.import_s", "s", "lower"),
        ("cli.command_s", "s", "lower"),
        ("trace.verdicts_per_kref.untraced", "1/kref", "higher"),
        ("trace.verdicts_per_kref.traced", "1/kref", "higher"),
        ("trace.top_coverage_min", "ratio", "higher"),
    ]
    return out


def setup_samples(env, count):
    """Import times of lievessiot in `count` fresh processes."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    return [float(subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True,
                                 text=True).stdout) for _ in range(count)]


def measure(wl, cases, seconds, env):
    """The closed loop in SEGMENTS stretches, with import timings after each.

    Returns the loop's submissions and the median import time.  Spreading
    the imports over the run lets their median see the same host as the
    cases do.
    """
    setup_samples(env, 1)  # warm-up: file cache and bytecode
    runs, setup = [], []
    for _ in range(SEGMENTS):
        runs += run_cases(wl, cases, time.perf_counter() + seconds / SEGMENTS, first=len(runs))
        setup += setup_samples(env, SETUP_REPEATS // SEGMENTS)
    return runs, statistics.median(setup)


def run_cases(wl, cases, deadline, limit=None, check=True, first=0):
    """Closed loop over cases, from case `first`, until the deadline (or `limit` cases).

    Returns (case index, cost in ref, answer, verdict) per submission.
    The reference computation (reference_seconds) is timed before the
    first case, after the last, and whenever REF_EVERY CPU seconds of
    cases have run; ref, for a case, is the mean of the timings just
    before and just after it.  With check=False the verdict is left as
    None for the caller to fill in.
    """
    out, pending, busy = [], [], 0.0
    before = reference_seconds()
    while len(out) + len(pending) != limit and (
            not (out or pending) or time.perf_counter() < deadline):
        pending.append(_submit(wl, cases, first + len(out) + len(pending), check))
        busy += pending[-1][1]
        if busy >= REF_EVERY:
            before, busy = _settle(out, pending, before), 0.0
    _settle(out, pending, before)
    return out


def _settle(out, pending, before):
    """Move pending submissions to `out`, costed in ref; return the new timing."""
    after = reference_seconds()
    unit = (before + after) / 2
    out += [(k, cpu / unit, answer, verdict) for k, cpu, answer, verdict in pending]
    pending.clear()
    return after


def reference_seconds():
    """CPU seconds of one run of the reference computation.

    It multiplies fixed Gaussian-integer polynomials and sums Fractions:
    the pure-Python integer, tuple and Fraction work lievessiot does, in
    code (gauss.py and the standard library) that lievessiot does not
    touch.  A case timed in units of it keeps its cost when the host's
    processor runs faster or slower, which on a shared host it does by
    tens of percent over seconds.
    """
    start = cpu_seconds()
    acc = gs.ONE
    for p in REF_POLYS:
        acc = gs.pmul(acc, p)
    total = Fraction(0)
    for k in range(1, REF_TERMS):
        total += Fraction(k, k + 7)
    seconds = cpu_seconds() - start
    REF_SECONDS.append(seconds)
    return seconds


def _submit(wl, cases, k, check):
    case = cases[k % len(cases)]
    start = cpu_seconds()
    try:
        answer = wl.submit(case)
    except Exception as exc:  # a raising case counts as failed, the run goes on
        answer = exc
    cpu = cpu_seconds() - start
    return k, cpu, answer, _verdict(wl, case, answer) if check else None


def cpu_seconds():
    """CPU seconds used so far by this process and by the children it has waited for.

    On an otherwise idle machine a case's CPU time equals its wall time
    (one thread, no I/O); on a shared host it leaves out the time the
    case spent waiting for a processor, which other tenants decide.
    """
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _verdict(wl, case, answer):
    """True iff the answer is the case's expected verdict; a raising case or check is False."""
    if isinstance(answer, Exception):
        traceback.print_exception(answer, file=sys.stderr)
        return False
    try:
        return wl.check(case, answer)
    except Exception:  # malformed output is a wrong verdict, the run goes on
        traceback.print_exc()
        return False


def end_to_end(runs, setup_s, workload):
    costs = [cost for _, cost, _, _ in runs]
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return {
        "verdict_ref.p50": statistics.median(costs),
        "verdict_ref.p90": statistics.quantiles(costs, n=10)[-1] if len(costs) > 1 else costs[0],
        "verdicts_per_kref": 1000 * len(costs) / sum(costs),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


def traced(args, wl, cases, env):
    """Untraced pass, then the same cases traced; per-layer metrics per case."""
    import workloads
    from tracer import Tracer

    start = time.perf_counter()
    plain = run_cases(wl, cases, start + UNTRACED_SHARE * args.seconds)
    tracer = Tracer()
    children = []
    if args.workload == "cli":
        wl = workloads.make("cli", env=env, root=ROOT, traced=True)
    else:
        tracer.install()
        wl.submit = _case_spans(tracer, wl.submit)
    try:
        runs = run_cases(wl, cases, start + args.seconds, limit=len(plain), check=False)
    finally:
        tracer.uninstall()
    for i, (k, wall, answer, _) in enumerate(runs):
        runs[i] = (k, wall, answer, _verdict(wl, cases[k % len(cases)], answer))
        if args.workload == "cli" and not isinstance(answer, Exception):
            children += [json.loads(line[len(TRACE_MARK):]) for line in answer.stderr.splitlines()
                         if line.startswith(TRACE_MARK)]
    n = len(runs)
    if args.workload == "cli":
        totals = _sum_children(tracer, children)
    else:
        totals = tracer.summary()
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")
    metrics = {}
    for name, (calls, busy, self_s) in totals["stats"].items():
        metrics.update({f"{name}.calls": calls / n, f"{name}.busy_s": busy / n,
                        f"{name}.self_s": self_s / n})
    for name, count in totals["counts"].items():
        if name != "ratfunc.Poly.gcd.coprime":
            metrics[name] = count / n
    gcd_calls = totals["stats"]["ratfunc.Poly.gcd"][0]
    metrics["ratfunc.Poly.gcd.coprime_frac"] = (
        totals["counts"]["ratfunc.Poly.gcd.coprime"] / gcd_calls if gcd_calls else 0.0)
    if args.workload == "cli":
        metrics["cli.spawn_s"] = _spawn_s(env)
        metrics["cli.import_s"] = statistics.median(c["import_s"] for c in children)
        metrics["cli.command_s"] = statistics.median(c["command_s"] for c in children)
    else:
        metrics.update({"cli.spawn_s": 0.0, "cli.import_s": 0.0, "cli.command_s": 0.0})
    metrics["trace.verdicts_per_kref.untraced"] = 1000 * n / sum(c for _, c, _, _ in plain[:n])
    metrics["trace.verdicts_per_kref.traced"] = 1000 * n / sum(c for _, c, _, _ in runs)
    metrics["trace.top_coverage_min"] = min(totals["coverage"]) if totals["coverage"] else 0.0
    return plain + runs, metrics


def _case_spans(tracer, submit):
    def traced_submit(case):
        tracer.begin_case()
        start = time.perf_counter()
        try:
            return submit(case)
        finally:
            tracer.end_case(len(tracer.cases), time.perf_counter() - start)

    return traced_submit


def _spawn_s(env, repeats=SETUP_REPEATS):
    """Median wall time of a bare interpreter that does nothing."""
    cmd = [sys.executable, "-c", "pass"]
    values = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        values.append(time.perf_counter() - start)
    return statistics.median(values)


def _sum_children(tracer, children):
    totals = tracer.summary()
    for child in children:
        for name, values in child["stats"].items():
            totals["stats"][name] = [a + b for a, b in zip(totals["stats"][name], values)]
        for name, count in child["counts"].items():
            totals["counts"][name] += count
        totals["coverage"] += child["coverage"]
    return totals


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("oracle", "cocycle", "pointwise", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lievessiot" / "__init__.py").is_file():
        print(f"perfbench: no lievessiot sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    import lievessiot
    import lievessiot.homspace

    if Path(lievessiot.__file__).resolve().parent != (SRC / "lievessiot").resolve():
        print(f"perfbench: imported lievessiot from {lievessiot.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    warnings.simplefilter("ignore", lievessiot.homspace.NotASolutionWarning)
    import workloads

    wl = workloads.make(args.workload, env=env, root=ROOT)
    spec, cases = wl.build(random.Random(f"{args.workload}:{args.seed}"))
    digest = hashlib.sha256(json.dumps(spec).encode()).hexdigest()
    print(f"inputs {args.workload} seed={args.seed} cases={len(cases)} sha256={digest}")
    gc.collect()
    gc.freeze()  # the collector no longer walks the inputs, however many there are

    if args.trace:
        runs, metrics = traced(args, wl, cases, env)
        units = {name: unit for name, unit, _ in per_layer_metrics()}
        tail = "traced"
    else:
        runs, setup_s = measure(wl, cases, args.seconds, env)
        metrics = end_to_end(runs, setup_s, args.workload)
        units = dict(END_TO_END)
        tail = f"{sum(cost > metrics['verdict_ref.p90'] for _, cost, _, _ in runs)} beyond p90"
    failed = sum(not verdict for *_, verdict in runs)
    print(f"{args.workload}: {len(runs)} cases, {failed} failed, failed_frac {failed / len(runs)}, "
          f"{tail}")
    for name, unit in units.items():
        print(f"  {name:44s} {metrics[name]:.6g} {unit}")
    print(f"  {'ref (median of ' + str(len(REF_SECONDS)) + ')':44s} "
          f"{statistics.median(REF_SECONDS):.6g} s")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
