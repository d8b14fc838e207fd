#!/usr/bin/env python3
"""u22lab benchmark: three workloads, end-to-end metrics and per-layer traces.

    python3 perfbench/run.py --workload battery-mc --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  ``--workload all`` runs every workload, each in a fresh process.
With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run.  See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREADS = str(len(os.sched_getaffinity(0)))
# no more threads than cores; set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS
os.environ["PYTHONPATH"] = SRC
sys.path.insert(0, SRC)
if not os.path.isfile(os.path.join(SRC, "u22lab", "__init__.py")):
    sys.exit(f"perfbench: no u22lab sources under {SRC}; run from the root of a source checkout")

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import u22lab  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOAD_NAMES = ("battery-mc", "battery-algebra", "requests")
SETUP_PROBES = 5  # fresh interpreters timed per run for setup_s
IMPORTTIME_PROBES = 3
CHILD_TIMEOUT_S = 60
OUT_DIR = os.path.join(ROOT, ".perfbench")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _probe_seconds(probe: str) -> float:
    """Seconds until a fresh interpreter running ``probe`` prints its first line."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", probe], stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("setup probe timed out")
    if proc.returncode != 0 or not first.strip().startswith(SRC):
        fail(f"setup probe failed or imported u22lab from {first.strip()!r}, not from {SRC}")
    return ready


def setup_probe() -> float:
    """Time for a fresh interpreter to be ready to serve the CLI."""
    return _probe_seconds("import u22lab, u22lab.cli; print(u22lab.__file__, flush=True)")


def import_seconds() -> dict:
    """Cumulative import times of u22lab and u22lab.points from -X importtime."""
    found = {"u22lab": [], "u22lab.points": []}
    for _ in range(IMPORTTIME_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import u22lab"],
                              capture_output=True, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            fail(f"import probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
            if m and m.group(2) in found:
                found[m.group(2)].append(int(m.group(1)) * 1e-6)
    return {"import.u22lab_s": statistics.median(found["u22lab"]),
            "import.points_s": statistics.median(found["u22lab.points"])}


def cli_parse_seconds() -> float:
    """Median time to build the CLI parser and parse one decompose command."""
    from u22lab import cli

    times = []
    for _ in range(51):
        start = time.perf_counter()
        cli.build_parser().parse_args(["decompose", "--input", "-"])
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; failed operations sort last as +inf."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Measurement:
    """Whole rounds of one workload, timed per operation and per round."""

    def __init__(self, make_round, seed):
        self.make_round = make_round
        self.seed = seed
        self.round_s = []
        self.p50_s = []  # per round, over its operations; a failed one counts as inf
        self.p90_s = []
        self.claim_runtimes = {cid: [] for cid in workloads.claims.CLAIM_IDS}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_round(self, index, tracer=None):
        ops = self.make_round(self.seed, index)
        outputs = []
        round_latencies = []
        gc.collect()  # the previous round's checks leave garbage the program should not pay for
        start = time.perf_counter()
        for op in ops:
            t0 = time.perf_counter()
            try:
                out = tracer.op(op.name, op.run) if tracer else op.run()
                round_latencies.append(time.perf_counter() - t0)
            except workloads.OP_ERRORS as exc:
                out = exc
                round_latencies.append(math.inf)
            outputs.append(out)
        self.round_s.append(time.perf_counter() - start)
        self.p50_s.append(percentile(round_latencies, 0.50))
        self.p90_s.append(percentile(round_latencies, 0.90))
        for op, out in zip(ops, outputs):  # checks are not timed
            self.attempted += 1
            if isinstance(out, BaseException):
                self.failed += 1
                if not op.may_fail:
                    self.problems.append(f"round {index} {op.name}: unexpected {out!r}")
                continue
            self.problems += [f"round {index} {op.name}: {p}" for p in op.check(out)]
            if op.name == "verify":
                for record in out:
                    self.claim_runtimes[record.claim_id].append(record.runtime_s)

    def run_for(self, seconds, between_rounds=None):
        """Run rounds while the next one, at the median pace, still fits.

        ``between_rounds(elapsed)`` runs after each round; its time does not
        count against ``seconds``.
        """
        start = time.perf_counter()
        paused = 0.0
        index = 0
        while True:
            self.run_round(index)
            index += 1
            if between_rounds is not None:
                pause = time.perf_counter()
                between_rounds(pause - start - paused)
                paused += time.perf_counter() - pause
            elapsed = time.perf_counter() - start - paused
            if elapsed + statistics.median(self.round_s) > seconds:
                return index


def end_to_end(name, seed, seconds) -> tuple[dict, Measurement]:
    probes = []

    def probe_when_due(elapsed):
        # spread over the run, so the probes see the host the rounds see
        while len(probes) < min(SETUP_PROBES, 1 + int(elapsed * SETUP_PROBES / seconds)):
            probes.append(setup_probe())

    probe_when_due(0.0)
    meas = Measurement(workloads.WORKLOADS[name], seed)
    meas.run_for(seconds, between_rounds=probe_when_due)
    probe_when_due(seconds)
    metrics = {
        "setup_s": (statistics.median(probes), "s"),
        "wall_s": (statistics.mean(meas.round_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "req_p50_s": (statistics.mean(meas.p50_s), "s"),
        "req_p90_s": (statistics.mean(meas.p90_s), "s"),
    }
    return metrics, meas


# (metric, span, field) per round; see tracer.py for the spans and fields
LAYER_METRICS = (
    ("measures.sample_calls", "measures.sample", "calls"),
    ("measures.samples_drawn", "measures.sample", "units"),
    ("measures.sample_s", "measures.sample", "total_s"),
    ("measures.integrate_calls", "measures.integrate", "calls"),
    ("measures.integrate_s", "measures.integrate", "total_s"),
    ("measures.probe_calls", "measures.probe", "calls"),
    ("measures.probe_s", "measures.probe", "total_s"),
    # the probe minus the sampling and integrand evaluation inside it
    ("measures.reduce_s", "measures.probe", "self_s"),
    ("representation.eval_calls", "representation.eval", "calls"),
    ("representation.eval_points", "representation.eval", "units"),
    ("representation.eval_s", "representation.eval", "total_s"),
    ("representation.gram_s", "representation.gram", "total_s"),
    ("groups.decompose_calls", "groups.decompose", "calls"),
    ("groups.decompose_s", "groups.decompose", "total_s"),
    ("groups.p_factor_calls", "groups.p_factor", "calls"),
    ("groups.membership_calls", "groups.membership", "calls"),
    ("groups.membership_s", "groups.membership", "total_s"),
    ("groups.random_calls", "groups.random", "calls"),
    ("groups.random_s", "groups.random", "total_s"),
    ("matrices.frob_calls", "matrices.frob", "calls"),
    ("matrices.exp_calls", "matrices.exp", "calls"),
    ("matrices.exp_s", "matrices.exp", "total_s"),
    ("matrices.json_s", "matrices.json", "total_s"),
    ("orbits.classify_calls", "orbits.classify", "calls"),
    ("orbits.classify_s", "orbits.classify", "total_s"),
    ("orbits.chart_s", "orbits.chart", "total_s"),
    ("extension.act_k_calls", "extension.act_k", "calls"),
    ("extension.act_k_s", "extension.act_k", "total_s"),
    ("extension.extend_s", "extension.extend", "total_s"),
    ("lie.rank_s", "lie.rank", "total_s"),
    ("rank1.check_s", "rank1.check", "total_s"),
)


def per_layer(name, seed, seconds) -> tuple[dict, Measurement]:
    """Untraced rounds for half the time, then the same rounds traced."""
    meas = Measurement(workloads.WORKLOADS[name], seed)
    rounds = meas.run_for(seconds / 2.0)
    untraced = statistics.mean(meas.round_s)
    runtimes = {cid: list(v) for cid, v in meas.claim_runtimes.items()}  # untraced rounds only
    with tracing.Tracer() as tr:
        for index in range(rounds):
            meas.run_round(index, tracer=tr)
    traced = statistics.mean(meas.round_s[rounds:])
    span = tr.summary()

    metrics = {f"claims.{cid}_s": (statistics.median(v) if v else 0.0, "s") for cid, v in runtimes.items()}
    for metric, key, field in LAYER_METRICS:
        metrics[metric] = (span[key][field] / rounds, "count" if field in ("calls", "units") else "s")
    samples = span["measures.sample"]["units"]
    metrics.update({
        "measures.reuse_ratio": (span["representation.eval"]["units"] / samples if samples else 0.0, "ratio"),
        "cli.parse_s": (cli_parse_seconds(), "s"),
        "trace.overhead_s": (traced - untraced, "s"),
    })
    metrics.update({k: (v, "s") for k, v in import_seconds().items()})
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.json"), "w") as fh:
        json.dump({"workload": name, "seed": seed, "rounds": rounds, "spans": span,
                   "ops": [{"name": n, "start": a, "end": b} for n, a, b in tr.ops]}, fh)
    return metrics, meas


def run_all(args) -> int:
    """Each workload in a fresh process; prints one result line per workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if lines else {"correct": False}
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.abspath(u22lab.__file__).startswith(SRC):
        fail(f"imported u22lab from {u22lab.__file__}, not from {SRC}")
    if args.workload == "all":
        return run_all(args)
    measure = per_layer if args.trace else end_to_end
    metrics, meas = measure(args.workload, args.seed, args.seconds)
    for problem in meas.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = not meas.problems
    print(f"{args.workload}: seed {args.seed}, {len(meas.round_s)} rounds, "
          f"{meas.attempted} attempted, {meas.failed} failed, correct {correct}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:28s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": meas.attempted,
        "failed": meas.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
