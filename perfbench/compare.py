#!/usr/bin/env python3
"""Compare two benchmark result sets, or show the spread of one.

    python3 perfbench/compare.py BASE.jsonl [CHANGE.jsonl] [--workload NAME]

Each file holds the records `run.py` appends, one JSON object per run.
Only runs with `--trace 0` that passed their checks are used, and every
run of both sets must have measured the same run length. For each
workload and end-to-end metric in BENCHMARK.json the table gives each
side's median and quartiles (Python's `statistics.quantiles(n=4)`), its
spread (quartile distance over median) against the metric's bound, the
pairs each side won (runs paired by seed, else by order), and a verdict:

  better      the change wins at least 9 of 10 pairs and the medians
              differ by more than the base's own quartile distance;
  worse       the change's median is worse than the base's by more than
              the bound, and the spreads are within the bound (or every
              change run is worse than every base run);
  unresolved  a spread is wider than the bound, unless every change run
              beats every base run;
  no worse    otherwise.

With one file it prints the spread table only. The figures a run
reports but BENCHMARK.json does not bound (the latency percentiles, and
`instances_per_s` on batch-stream) follow each workload's table, and a
workload BENCHMARK.json does not name (solve-hot) is shown the same
way: reported, not bounded.

Exit status is 1 when, on a workload BENCHMARK.json names, a verdict is
`worse` or a spread exceeds its bound; 2 when the sets cannot be
compared; else 0.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path, workload):
    runs = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec.get("trace") or not rec.get("correct"):
            continue
        if workload and rec["workload"] != workload:
            continue
        runs.setdefault(rec["workload"], []).append(rec)
    return runs


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def pairs(base, change):
    """Runs paired by seed when both sides ran the same seeds, else in order."""
    by_seed = lambda runs: {r["seed"]: r for r in runs}
    b, c = by_seed(base), by_seed(change)
    if len(b) == len(base) and len(c) == len(change) and set(b) == set(c):
        return [(b[s], c[s]) for s in sorted(b)]
    return list(zip(base, change))


def verdict(metric, base, change):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    name = metric["name"]
    bv = [r["metrics"][name]["value"] for r in base]
    cv = [r["metrics"][name]["value"] for r in change]
    bmed, bq1, bq3, bspread = stats(bv)
    cmed, _, _, cspread = stats(cv)
    beats = (lambda c, b: c < b) if lower else (lambda c, b: c > b)
    matched = [(b["metrics"][name]["value"], c["metrics"][name]["value"]) for b, c in pairs(base, change)]
    c_wins = sum(1 for b, c in matched if beats(c, b))
    b_wins = sum(1 for b, c in matched if beats(b, c))
    worse_by = (cmed - bmed) / bmed if lower else (bmed - cmed) / bmed
    all_better = all(beats(c, b) for c in cv for b in bv)
    all_worse = all(beats(b, c) for c in cv for b in bv)
    if matched and c_wins >= 0.9 * len(matched) and abs(cmed - bmed) > (bq3 - bq1):
        word = "better"
    elif worse_by > bound and (max(bspread, cspread) <= bound or all_worse):
        word = "worse"
    elif max(bspread, cspread) > bound and not all_better:
        word = "unresolved"
    else:
        word = "no worse"
    return word, b_wins, c_wins, len(matched), worse_by


def quartiles(values):
    med, q1, q3, spread = stats(values)
    return f"{med:>12.4f} [{q1:>10.4f}, {q3:>10.4f}] {spread:>7.3f}"


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--workload")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    named = [w["name"] for w in spec["workloads"]]
    base = load(args.base, args.workload)
    change = load(args.change, args.workload) if args.change else None
    lengths = {r["seconds"] for side in (base, change or {}) for runs in side.values() for r in runs}
    if len(lengths) > 1:
        print(f"compare.py: the runs measured different lengths ({sorted(lengths)} s); compare runs of one length", file=sys.stderr)
        sys.exit(2)
    status = 0
    for workload in sorted(base, key=lambda w: (w not in named, w)):
        bounded = workload in named
        b = base[workload]
        c = change.get(workload, []) if change is not None else None
        print(
            f"{workload}: base {len(b)} runs"
            + (f", change {len(c)} runs" if c is not None else "")
            + ("" if bounded else "; not in BENCHMARK.json: reported, not bounded")
        )
        head = f"  {'metric':<16} {'unit':<6} {'bound':>6}  {'base median [q1, q3]':>38} {'spread':>7}"
        if c is not None:
            head += f"  {'change median [q1, q3]':>38} {'spread':>7}  {'wins b/c':>9} {'worse by':>9}  verdict"
        print(head)
        for metric in metrics:
            name = metric["name"]
            bv = [r["metrics"][name]["value"] for r in b]
            bound = f"{metric['bound']:>6.2f}" if bounded else f"{'-':>6}"
            line = f"  {name:<16} {metric['unit']:<6} {bound}  {quartiles(bv)}"
            if bounded and stats(bv)[3] > metric["bound"]:
                status = 1
            if c:
                cv = [r["metrics"][name]["value"] for r in c]
                word, b_wins, c_wins, n, worse_by = verdict(metric, b, c)
                if bounded and word == "worse":
                    status = 1
                if not bounded:
                    word = "(not bounded)"
                line += f"  {quartiles(cv)}  {b_wins:>4}/{c_wins:<4} {worse_by:>+9.3f}  {word}"
            print(line)
        for name, first in b[0].get("reported", {}).items():
            bv = [r["reported"][name]["value"] for r in b]
            line = f"  {name:<16} {first['unit']:<6} {'-':>6}  {quartiles(bv)}"
            cv = [r["reported"][name]["value"] for r in c or []]
            if cv:
                line += f"  {quartiles(cv)}  {'':>9} {'':>9}  (reported, not bounded)"
            print(line)
    sys.exit(status)


if __name__ == "__main__":
    main()
