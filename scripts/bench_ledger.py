#!/usr/bin/env python3
"""Run the benchmark on one checkout and append the results to a ledger file.

    python3 scripts/bench_ledger.py --pr N --label parent --checkout /path/to/parent
    python3 scripts/bench_ledger.py --pr N --label change

For every workload in ``BENCHMARK.json`` this runs, unchanged,
``python3 DIR/perfbench/run.py --workload W --seconds S`` from the root of
the checkout DIR (default: this repository), with S the benchmark's
``run_seconds`` (and ``--seed N`` when given, recorded in each entry).  Each run adds one entry to ``BENCH_<N>.json`` at the root
of this repository: the run's final JSON line, the label, the checkout's git
sha and whether its tracked files differ from that commit, the CPU count and
model, and the Python and NumPy versions.  Alternate ``parent`` and
``change`` runs to build the paired comparison a claimed gain needs.

A run that exits non-zero (perfbench does when a run is not correct), or
whose last stdout line is not a result, adds no entry: the script stops
there with one line on stderr and the run's exit status, or 1 when that
status was 0.  Exit status 0 when every run gave a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def ledger_entry(run_line: str, *, workload: str, label: str, seconds: float, git: dict,
                 machine: dict, seed: int | None = None) -> dict:
    """One ledger entry from the final stdout line of a perfbench run."""
    result = json.loads(run_line)
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError("not a perfbench result line")
    entry = {"label": label, "workload": workload, "seconds": seconds, **git, **machine,
             "result": result}
    if seed is not None:
        entry["seed"] = seed
    return entry


def git_state(checkout: str) -> dict:
    def git(*args):
        return subprocess.run(["git", "-C", checkout, *args], capture_output=True,
                              text=True, check=True).stdout.strip()

    return {"git_sha": git("rev-parse", "HEAD"),
            "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def machine_info() -> dict:
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu_count": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__}


def stop(workload: str, reason: str, proc: subprocess.CompletedProcess) -> int:
    """Report a run that gave no result in one stderr line, with the last
    line of its stderr, and return the status to exit with."""
    last = "".join(f" ({line})" for line in proc.stderr.strip().splitlines()[-1:])
    print(f"bench_ledger: {workload} {reason}; no entry added{last}", file=sys.stderr)
    return proc.returncode or 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="writes BENCH_<PR>.json")
    parser.add_argument("--label", choices=("parent", "change"), required=True)
    parser.add_argument("--checkout", default=ROOT, help="source checkout to benchmark")
    parser.add_argument("--seed", type=int, help="run seed passed to perfbench/run.py (default: its own)")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    checkout = os.path.abspath(args.checkout)
    state, machine = git_state(checkout), machine_info()
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    seconds = bench["run_seconds"]
    for workload in (w["name"] for w in bench["workloads"]):
        proc = subprocess.run([sys.executable, os.path.join(checkout, "perfbench", "run.py"),
                               "--workload", workload, "--seconds", str(seconds),
                               *(["--seed", str(args.seed)] if args.seed is not None else [])],
                              capture_output=True, text=True, cwd=checkout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0:
            return stop(workload, f"exited with status {proc.returncode}", proc)
        try:
            entry = ledger_entry(lines[-1] if lines else "", workload=workload, label=args.label,
                                 seconds=seconds, git=state, machine=machine, seed=args.seed)
        except ValueError:
            return stop(workload, "ended with a line that is not a result", proc)
        ledger = []
        if os.path.exists(path):
            with open(path) as fh:
                ledger = json.load(fh)
        ledger.append(entry)
        with open(path, "w") as fh:
            json.dump(ledger, fh, indent=1)
            fh.write("\n")
        wall = entry["result"]["metrics"]["wall_s"]["value"]
        print(f"{args.label} {workload}: wall_s {wall:.4f} correct {entry['result']['correct']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
