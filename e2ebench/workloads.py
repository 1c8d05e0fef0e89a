"""The e2ebench workloads: the cloudrtt call each one stands for.

e2e_bench.cpp builds the same configurations from the seed; the CLI arguments
here are how record_refs.py and selfcheck.py ask the user-facing binary for
the same run, so e2e_bench's hashes can be checked against it.
"""

import os
import shutil
import subprocess

WORKLOADS = {
    "paper_stream": {
        "cli": ["--scale", "paper", "--threads", "3", "--stream",
                "--checkpoint-dir", "{dir}/store"],
        "report": False,
    },
    "default_report": {
        "cli": [],
        "report": True,
    },
    "faulted_resume": {
        # The reference is the uninterrupted run; e2e_bench stops after
        # day 5 and resumes in a fresh Study.
        "cli": ["--fault-profile", "harsh", "--io-fault-profile", "mild",
                "--fault-seed", "1337", "--threads", "2", "--no-export"],
        "report": False,
    },
}


def cli_hashes(cli, workload, seed, scratch, scale=None, days=None):
    """What `cloudrtt study --dataset-hash` prints for the workload's run:
    {"sc", "atlas"} plus "report" (FNV-1a of report.json) where it writes one.
    Artefacts go to `scratch`, which is emptied first and removed after."""
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    argv = [str(cli), "study", "--seed", str(seed), "--dataset-hash", "--quiet",
            "--out", f"{scratch}/out"]
    argv += [a.format(dir=scratch) for a in WORKLOADS[workload]["cli"]]
    if scale is not None:
        argv += ["--scale", scale]
    if days is not None:
        argv += ["--days", str(days)]
    env = {k: v for k, v in os.environ.items() if not k.startswith("CLOUDRTT_")}
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    line = next(l for l in done.stdout.splitlines() if l.startswith("dataset-hash "))
    fields = dict(item.split("=", 1) for item in line.split()[1:])
    hashes = {"sc": fields["sc"], "atlas": fields["atlas"]}
    if WORKLOADS[workload]["report"]:
        hashes["report"] = fnv1a_file(scratch / "out" / "report.json")
    shutil.rmtree(scratch)
    return hashes


def fnv1a_file(path):
    """FNV-1a 64 of a file's bytes, as e2e_bench prints it (16 hex digits)."""
    value = 0xCBF29CE484222325
    with open(path, "rb") as handle:
        for byte in handle.read():
            value = ((value ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{value:016x}"
