"""Compare two result sets written by sweep.py: a parent and a change.

Usage:

    python3 perfbench/compare.py parent.jsonl change.jsonl

Runs pair up by workload and seed; a pair whose input digests differ is
an error, since its two runs did not see the same inputs.  Each
(metric, workload) is reported, with each side's median and quartiles,
as one of:

- improved: the change wins at least 9 of 10 pairs (ties count for
  neither side) and the medians differ, in the metric's better
  direction, by more than the parent's interquartile distance;
- regressed: the change's median is worse than the parent's by more
  than the metric's bound in BENCHMARK.json (per-layer metrics have no
  bound: the change loses 9 of 10 pairs by more than that distance);
- unresolved: neither, while the parent's own spread (interquartile
  distance over the median) is wider than the bound, unless every run
  of the change reads better than every run of the parent;
- unchanged: otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from sweep import load

HERE = Path(__file__).resolve().parent
WIN_SHARE = 0.9


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def classify(base, head, better, bound):
    """Verdict for paired lists of parent and change values of one metric."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    losses = sum(sign * (h - b) < 0 for b, h in zip(base, head))
    mb, mh = statistics.median(base), statistics.median(head)
    q1, q3 = quartiles(base)
    gap = sign * (mh - mb)  # > 0 when the change is better
    if wins >= WIN_SHARE * len(base) and gap > q3 - q1:
        return "improved"
    if bound is None:
        if losses >= WIN_SHARE * len(base) and -gap > q3 - q1:
            return "regressed"
        return "unchanged"
    if -gap > bound * abs(mb):
        return "regressed"
    all_better = min(sign * h for h in head) > max(sign * b for b in base)
    if mb and (q3 - q1) / abs(mb) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base = {(r["workload"], r["seed"], r["trace"]): r for r in load(argv[0])}
    head = {(r["workload"], r["seed"], r["trace"]): r for r in load(argv[1])}
    keys = sorted(base.keys() & head.keys())
    if not keys:
        print("no (workload, seed) pair appears in both result sets", file=sys.stderr)
        return 2
    for key in keys:
        if base[key]["digest"] != head[key]["digest"]:
            print(f"inputs differ for {key}: {base[key]['digest']} vs {head[key]['digest']}",
                  file=sys.stderr)
            return 2
    verdicts = []
    for workload, trace in dict.fromkeys((w, t) for w, _, t in keys):
        pairs = [(base[k], head[k]) for k in keys if (k[0], k[2]) == (workload, trace)]
        failed = sum(h["failed"] for _, h in pairs), sum(h["attempted"] for _, h in pairs)
        print(f"{workload} ({'traced' if trace else 'untraced'}): {len(pairs)} pairs, "
              f"change failed {failed[0]}/{failed[1]}")
        for name in pairs[0][0]["metrics"]:
            if name not in metrics or name not in pairs[0][1]["metrics"]:
                continue
            b = [p["metrics"][name] for p, _ in pairs]
            h = [q["metrics"][name] for _, q in pairs]
            m = metrics[name]
            verdict = classify(b, h, m["better"], m.get("bound"))
            verdicts.append(verdict)
            mb, mh = statistics.median(b), statistics.median(h)
            (b1, b3), (h1, h3) = quartiles(b), quartiles(h)
            ratio = f"{mh / mb:.3f}" if mb else "n/a"
            print(f"  {name:44s} {verdict:10s} parent {mb:.6g} [{b1:.6g}, {b3:.6g}]  "
                  f"change {mh:.6g} [{h1:.6g}, {h3:.6g}]  change/parent {ratio} {m['unit']}")
    print("summary: " + ", ".join(f"{v} {verdicts.count(v)}" for v in
                                  ("improved", "unchanged", "unresolved", "regressed")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
