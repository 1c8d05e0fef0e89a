#!/usr/bin/env python3
"""Toy-scale self-check of e2ebench: every workload shape in seconds.

  python3 e2ebench/selfcheck.py

For each workload at a tiny fleet (240 Speedchecker / 80 Atlas probes, 6
Speedchecker days):
  - run.py --trace 0 and --trace 1 print every metric BENCHMARK.json names
    for that mode, each with its unit, and report correct with no failed
    run (a traced run counts as failed unless it reproduces the hashes of
    its untraced twin);
  - the traced run accounts for its run_s within 0.95-1.05;
  - e2e_bench's untraced and traced hashes equal what the cloudrtt CLI
    prints for the same configuration.
Exits non-zero at the first failure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import workloads  # noqa: E402

SCALE, DAYS, SEED = "240x80", 6, 42


def fail(message):
    raise SystemExit(f"selfcheck FAILED: {message}")


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def check_runner(spec, workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--scale", SCALE, "--days", str(DAYS)],
        capture_output=True, text=True, check=False)
    if done.returncode != 0:
        fail(f"run.py {workload} --trace {trace} exited {done.returncode}: "
             f"{done.stderr[-1000:]}")
    result = last_json(done.stdout)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload} --trace {trace}: {result} \n{done.stdout[-2000:]}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None or got.get("unit") != metric["unit"]:
            fail(f"{workload}: {metric['name']} missing or without unit {metric['unit']}")
        if not isinstance(got["value"], (int, float)):
            fail(f"{workload}: {metric['name']} is not a number")
    if len(result["metrics"]) != len(wanted):
        fail(f"{workload}: extra metrics {sorted(result['metrics'])}")
    if trace:
        accounted = result["metrics"]["obs.accounted_frac"]["value"]
        if not 0.95 <= accounted <= 1.05:
            fail(f"{workload}: obs.accounted_frac {accounted} outside 0.95-1.05")
    print(f"ok  run.py {workload} --trace {trace}: {len(wanted)} metrics with units")


def bench_hashes(binary, workload, mode, work):
    shutil.rmtree(work, ignore_errors=True)
    done = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(SEED), "--mode", mode,
         "--work", str(work), "--scale", SCALE, "--days", str(DAYS)],
        capture_output=True, text=True, env=run.clean_env(), check=False)
    result = last_json(done.stdout)
    if done.returncode != 0 or not result["ok"]:
        fail(f"e2e_bench {workload} {mode}: {result['error']}")
    return {k: result[k] for k in run.HASH_KEYS if result[k]}


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    build_dir = run.build()
    work = run.WORK / "selfcheck"
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_runner(spec, workload, trace)
        cli = workloads.cli_hashes(build_dir / "cloudrtt", workload, SEED,
                                   work / "cli", SCALE, DAYS)
        for mode in ("run", "traced"):
            got = bench_hashes(build_dir / "e2e_bench", workload, mode,
                                work / mode)
            if got != cli:
                fail(f"{workload} {mode}: e2e_bench {got} != cloudrtt {cli}")
        print(f"ok  {workload}: untraced and traced e2e_bench hashes match the CLI {cli}")
    shutil.rmtree(work, ignore_errors=True)
    print("selfcheck passed")


if __name__ == "__main__":
    main()
