#!/usr/bin/env python3
"""Record e2ebench over every workload as one cloudrtt-bench/2 file.

  python3 scripts/bench_record.py --seconds 30 --out BENCH_26.json

For each workload BENCHMARK.json names, runs

  python3 e2ebench/run.py --workload W --seed 42 --seconds S --trace T

once with --trace 0 (the end-to-end medians) and once with --trace 1 (the
per-layer medians). run.py checks every run it makes: exit status, a clean
store::fsck, and the dataset hashes (and default_report's report.json hash)
against e2ebench/references.json, traced runs included.

The file holds the git revision (marked -dirty when tracked files differ
from it), the CPU count, the seed and the seconds, and per workload
`correct`, `attempted`, `failed`, both sets of medians and the references
the runs were checked against. It is written whatever the outcome. The exit
status is 1 unless every invocation printed a result line with `correct:
true` and `failed: 0`: the result line is read, not run.py's exit status,
which is 0 when runs fail.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "cloudrtt-bench/2"
SEED = 42


def git(*argv):
    done = subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True,
                          check=False)
    return done.stdout.strip() if done.returncode == 0 else None


def git_rev():
    """HEAD's revision, marked -dirty when tracked files differ from it."""
    head = git("rev-parse", "HEAD")
    if head is None:
        return "unknown"
    return head + ("-dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def invoke(workload, trace, seconds):
    """One run.py invocation, its log relayed; returns its result line."""
    argv = [sys.executable, str(ROOT / "e2ebench" / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)]
    print(f"bench_record: {workload} --trace {trace}", flush=True)
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(f"  {line}", flush=True)
    if done.stderr.strip():
        sys.stderr.write(done.stderr)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        return None
    return result if isinstance(result, dict) else None


def record_workload(workload, reference, seconds):
    """Both invocations of one workload; returns its entry and its problems."""
    entry = {"correct": True, "attempted": 0, "failed": 0,
             "end_to_end": {}, "per_layer": {}, "references": reference}
    problems = []
    if not reference:
        problems.append(f"no reference for seed {SEED} in e2ebench/references.json")
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = invoke(workload, trace, seconds)
        if result is None:
            problems.append(f"--trace {trace} printed no result line")
            continue
        entry["attempted"] += result.get("attempted", 0)
        entry["failed"] += result.get("failed", 0)
        entry[section] = result.get("metrics", {})
        if result.get("correct") is not True or result.get("failed") != 0:
            problems.append(f"--trace {trace}: correct {json.dumps(result.get('correct'))}, "
                            f"failed {result.get('failed')} of {result.get('attempted')}")
    entry["correct"] = not problems
    return entry, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, required=True,
                        help="run.py --seconds for each invocation")
    parser.add_argument("--out", required=True, help="where to write the record")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    refs = json.loads((ROOT / "e2ebench" / "references.json").read_text())
    record = {"schema": SCHEMA, "git_rev": git_rev(), "cpus": os.cpu_count(),
              "seed": SEED, "seconds": args.seconds, "workloads": {}}
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        reference = refs.get(workload, {}).get(str(SEED), {})
        entry, problems = record_workload(workload, reference, args.seconds)
        record["workloads"][workload] = entry
        failures += [f"{workload}: {problem}" for problem in problems]

    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    for name, entry in record["workloads"].items():
        run_s = entry["end_to_end"].get("run_s", {}).get("value")
        print(f"bench_record: {name}: correct {str(entry['correct']).lower()}, "
              f"failed {entry['failed']} of {entry['attempted']}, run_s {run_s}")
    print(f"bench_record: wrote {args.out}")
    for failure in failures:
        print(f"bench_record: FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
