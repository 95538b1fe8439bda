#!/usr/bin/env python3
"""Build the commit under test and run the repository benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--results FILE]

Builds `mst` (the server under test) and the `perfbench` load generator
in release mode, into $CARGO_TARGET_DIR (default `.bench_build` at the
repository root), then runs one workload, or in turn every workload
BENCHMARK.json names (`all`, the default). `solve-hot`, which
BENCHMARK.json does not name, runs only when asked for by name. Every
run measures BENCHMARK.json's `run_seconds`; `--seconds` is accepted
only with that value. The last line of standard output is the run's
JSON result; the full record, with its provenance, is appended to
--results (default `<target>/perfbench/results.jsonl`) for `compare.py`.

Exit status: 0 when every reply and self-check passed; 1 when a check
failed or the run was invalid; 2 when the build or the run broke.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Every workload perfbench implements; BENCHMARK.json names the ones it bounds.
IMPLEMENTED = ["solve-hot", "solve-cold", "batch-stream"]


def benchmark():
    """The run length and the workload names from BENCHMARK.json."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return int(spec["run_seconds"]), [w["name"] for w in spec["workloads"]]
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"run.py: cannot read run_seconds and workloads from {ROOT / 'BENCHMARK.json'}: {e}", file=sys.stderr)
        sys.exit(2)


def commit_id():
    """The git commit, or `unknown` outside a git checkout."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for manifest, extra in ((ROOT / "Cargo.toml", ["-p", "mst-cli"]), (ROOT / "perfbench" / "Cargo.toml", [])):
        if not manifest.is_file():
            print(f"run.py: {manifest} is missing; run from a checkout of the repository", file=sys.stderr)
            sys.exit(2)
        cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", str(manifest)] + extra
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=IMPLEMENTED + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--results", type=Path)
    args = parser.parse_args()
    seconds, named = benchmark()
    if args.seconds is not None and args.seconds != seconds:
        print(f"run.py: --seconds must be BENCHMARK.json's run_seconds ({seconds}), got {args.seconds}", file=sys.stderr)
        sys.exit(2)

    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    build(target)
    work = target / "perfbench"
    work.mkdir(parents=True, exist_ok=True)
    results = args.results or work / "results.jsonl"
    commit = commit_id()

    status = 0
    lines = {}
    for workload in named if args.workload == "all" else [args.workload]:
        record = work / f"record-{workload}.json"
        record.unlink(missing_ok=True)
        cmd = [
            str(target / "release" / "perfbench"),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(seconds),
            "--trace", str(args.trace),
            "--mst", str(target / "release" / "mst"),
            "--work", str(work),
            "--commit", commit,
            "--record", str(record),
        ]
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        out = run.stdout.rstrip("\n").split("\n")
        status = max(status, run.returncode)
        if args.workload != "all":
            print("\n".join(out))
        else:
            print("\n".join(out[:-1]))
            try:
                lines[workload] = json.loads(out[-1])
            except ValueError:
                status = max(status, 2)
        if record.exists():
            with open(results, "a") as sink:
                sink.write(record.read_text().strip() + "\n")
    if args.workload == "all":
        # One line for all workloads: each metric under `<workload>/<name>`.
        summary = {
            "correct": status == 0 and all(line.get("correct") for line in lines.values()),
            "attempted": sum(line.get("attempted", 0) for line in lines.values()),
            "failed": sum(line.get("failed", 0) for line in lines.values()),
            "metrics": {
                f"{workload}/{name}": metric
                for workload, line in lines.items()
                for name, metric in line.get("metrics", {}).items()
            },
        }
        print(json.dumps(summary))
    sys.exit(status)


if __name__ == "__main__":
    main()
