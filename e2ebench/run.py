#!/usr/bin/env python3
"""e2ebench: the end-to-end, layer-accounted benchmark of cloudrtt.

  python3 e2ebench/run.py --workload paper_stream --seed 42 --seconds 30 \
      --trace 0

Builds the package in e2ebench/ (simulator libraries, e2e_bench, the
cloudrtt CLI) into $CARGO_TARGET_DIR/e2ebench (default .bench_build), then
measures one workload for --seconds, every run a fresh e2e_bench process
with an empty path cache and a fresh store directory:

  --trace 0  set-up-only runs (Study construction) plus full runs of the
             user's path; prints the end-to-end metrics as medians.
  --trace 1  pairs of one untraced and one traced run at the same seed;
             prints the per-layer metrics of the traced runs, their
             accounting against run_s, the tracing overhead, and the
             untraced runs' simulator speed.

Every run is checked: exit status, store::fsck on the store it leaves, and
the dataset (and report.json) hashes against references.json, which holds
what `cloudrtt --dataset-hash` prints for the same configuration. For a seed
with no reference the hashes are printed, and every run of the invocation
must agree with the first. A failed run counts in `failed` and its timings
are dropped. The last line of stdout is the result as one JSON object.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

SETUP_RUNS = 9          # set-up-only processes per --trace 0 invocation
MIN_RUNS = 2            # full runs per --trace 0 invocation, however slow
PROCESS_TIMEOUT_S = 120  # one e2e_bench process; the invocation stays < 180 s
HASH_KEYS = ("sc", "atlas", "report")


def log(*parts):
    print(*parts, flush=True)


def build():
    """Configure, then (re)build e2e_bench and the CLI; returns the dir."""
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "e2ebench"
    steps = [["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(build_dir), "-j", str(min(4, os.cpu_count() or 1)),
              "--target", "e2e_bench", "cloudrtt"]]
    for step in steps:
        done = subprocess.run(step, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
            raise SystemExit(f"e2ebench: build step failed: {' '.join(step)}")
    return build_dir


def clean_env():
    """e2e_bench gets its configuration from arguments only."""
    return {k: v for k, v in os.environ.items() if not k.startswith("CLOUDRTT_")}


class Runner:
    """Launches e2e_bench processes and checks what each one reports."""

    def __init__(self, args, binary, deadline):
        self.args = args
        self.binary = binary
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.reference = None
        refs = json.loads((HERE / "references.json").read_text())
        if args.scale is None and args.days is None:
            self.reference = refs.get(args.workload, {}).get(str(args.seed))
        self.seen = None  # hashes of the first good run, for unreferenced seeds

    def launch(self, mode, tag):
        """One fresh e2e_bench process; returns its parsed result or None."""
        work = WORK / f"{self.args.workload}-{os.getpid()}-{tag}"
        shutil.rmtree(work, ignore_errors=True)
        argv = [str(self.binary), "--workload", self.args.workload,
                "--seed", str(self.args.seed), "--mode", mode, "--work", str(work)]
        if self.args.scale is not None:
            argv += ["--scale", self.args.scale]
        if self.args.days is not None:
            argv += ["--days", str(self.args.days)]
        self.attempted += 1
        budget = max(5.0, self.deadline + PROCESS_TIMEOUT_S - time.monotonic())
        start_ns = time.monotonic_ns()
        proc = subprocess.Popen(argv + ["--start-ns", str(start_ns)], env=clean_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=min(budget, PROCESS_TIMEOUT_S))
        except subprocess.TimeoutExpired:
            proc.kill()  # a hung run is a failed run
            out, err = proc.communicate()
        except BaseException:
            proc.kill()
            proc.wait()
            shutil.rmtree(work, ignore_errors=True)
            raise
        result = None
        try:
            result = json.loads(out.strip().splitlines()[-1])
        except (ValueError, IndexError):
            pass
        problem = self.check(mode, proc.returncode, result)
        if mode == "traced" and result is not None and problem is None:
            trace = work / "trace.json"
            if trace.exists():
                dest = WORK / "traces" / f"{self.args.workload}-seed{self.args.seed}.trace.json"
                dest.parent.mkdir(parents=True, exist_ok=True)
                shutil.move(str(trace), dest)
        shutil.rmtree(work, ignore_errors=True)
        if problem is not None:
            self.failed += 1
            log(f"  FAILED {mode} run: {problem}")
            if err.strip():
                log("  stderr: " + err.strip().splitlines()[-1][:400])
            return None
        return result

    def check(self, mode, returncode, result):
        if result is None:
            return f"exit {returncode}, no result"
        if returncode != 0 or not result.get("ok"):
            return f"exit {returncode}: {result.get('error')}"
        if mode == "setup":
            return None
        if result["fsck_error"]:
            return "store unhealthy: " + result["fsck_error"]
        hashes = {k: result[k] for k in HASH_KEYS if result[k]}
        if self.reference is not None:
            for key, want in self.reference.items():
                if hashes.get(key) != want:
                    return f"{key} hash {hashes.get(key)} != reference {want}"
        elif self.seen is None:
            self.seen = hashes
            log(f"  no reference for seed {self.args.seed}: " +
                " ".join(f"{k}={v}" for k, v in hashes.items()))
        elif hashes != self.seen:
            return f"hashes {hashes} differ from this invocation's first run {self.seen}"
        return None

    def time_left(self, expected_s):
        """Start another run only if at most half of it would overrun."""
        return time.monotonic() + expected_s / 2 <= self.deadline


def median(values):
    return statistics.median(values) if values else 0.0


def measure_end_to_end(runner):
    setups, runs, walls = [], [], []
    for index in range(SETUP_RUNS):
        result = runner.launch("setup", f"setup{index}")
        if result is not None:
            setups.append(result["setup_s"])
    while len(runs) < MIN_RUNS or runner.time_left(median(walls)):
        started = time.monotonic()
        result = runner.launch("run", f"run{len(walls)}")
        walls.append(time.monotonic() - started)
        if result is not None:
            runs.append(result)
            log(f"  run {len(walls)}: run_s={result['run_s']:.3f} "
                f"setup_s={result['setup_s']:.4f} sim_s={result['sim_s']:.3f} "
                f"tasks={result['tasks']} peak_rss_mib={result['peak_rss_mib']:.1f}")
        elif not runner.time_left(0):
            break
    setups += [r["setup_s"] for r in runs]
    log(f"  {len(runs)} full run(s), {len(setups)} set-up samples")
    return {
        "run_s": median([r["run_s"] for r in runs]),
        "setup_s": median(setups),
        "peak_rss_mib": median([r["peak_rss_mib"] for r in runs]),
    }, bool(runs)


def measure_layers(runner):
    plain, traced, walls = [], [], []
    while not walls or runner.time_left(median(walls)):
        started = time.monotonic()
        base = runner.launch("run", f"pair{len(walls)}")
        result = runner.launch("traced", f"traced{len(walls)}")
        walls.append(time.monotonic() - started)
        if base is None or result is None:
            if not runner.time_left(0):
                break
            continue
        if any(base[k] != result[k] for k in HASH_KEYS):
            runner.failed += 1
            log("  FAILED traced run: hashes differ from the untraced run")
            continue
        plain.append(base)
        traced.append(result)
        log(f"  pair {len(walls)}: untraced run_s={base['run_s']:.3f} "
            f"traced run_s={result['run_s']:.3f} "
            f"accounted={result['layers']['obs.accounted_frac']:.4f}")
    if not traced:
        return {}, False
    layers = {name: median([r["layers"][name] for r in traced])
              for name in traced[0]["layers"]}
    layers["obs.trace_overhead_frac"] = (
        median([r["run_s"] for r in traced]) / median([r["run_s"] for r in plain]) - 1.0)
    # The simulator's speed on the user's path: tasks per wall second inside
    # Study::run of the untraced twins.
    layers["measure.sim_tasks_per_s"] = median([r["tasks"] / r["sim_s"] for r in plain])
    return layers, True


def main():
    # A SIGTERM unwinds like an exception, so the running e2e_bench is killed
    # and reaped (Runner.launch) instead of left behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    parser = argparse.ArgumentParser(description="e2ebench workload runner")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", help="fleet override, e.g. 240x80 (self-check)")
    parser.add_argument("--days", type=int, help="Speedchecker days override")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"e2ebench: unknown workload {args.workload}")
    binary = build() / "e2e_bench"
    WORK.mkdir(exist_ok=True)

    runner = Runner(args, binary, time.monotonic() + args.seconds)
    log(f"e2ebench {args.workload} seed {args.seed} trace {args.trace}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    values, measured = (measure_layers if args.trace else measure_end_to_end)(runner)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if measured and missing:
        raise SystemExit(f"e2ebench: e2e_bench did not report {missing}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    for name, metric in metrics.items():
        log(f"  {name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps({
        "correct": measured and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
