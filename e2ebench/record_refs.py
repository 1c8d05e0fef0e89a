#!/usr/bin/env python3
"""Record reference dataset hashes for the e2ebench workloads with the CLI.

The references are what `cloudrtt ... --dataset-hash` prints for each
workload's configuration, so the benchmark's correctness oracle comes from
the user-facing binary, not from the e2e_bench binary it checks:

  paper_stream    cloudrtt study --stream --scale paper --threads 3
  default_report  cloudrtt study (defaults), plus FNV-1a of report.json
  faulted_resume  an *uninterrupted* run with the workload's fault flags;
                  the benchmark's stop-and-resume run must reproduce it

Usage (from the repository root, after the benchmark has built the CLI):

  python3 e2ebench/record_refs.py --seeds 42,57 \
      --cli .bench_build/e2ebench/cloudrtt

Merges the results into e2ebench/references.json. Re-record after any
change that deliberately re-baselines the dataset hash.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True,
                        help="comma-separated seeds, e.g. 42,57")
    parser.add_argument("--cli", required=True, help="path to the cloudrtt CLI")
    args = parser.parse_args()

    path = HERE / "references.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    scratch = Path(".bench_work") / "record_refs"
    for workload in workloads.WORKLOADS:
        for seed in args.seeds.split(","):
            entry = workloads.cli_hashes(args.cli, workload, int(seed), scratch)
            refs.setdefault(workload, {})[str(int(seed))] = entry
            print(workload, seed, entry, flush=True)
            path.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
