#!/usr/bin/env python3
"""Run claims of the verification battery over many suite seeds.

    python3 scripts/seed_sweep.py --claims C07 C08 --seeds 1-200

Each (claim, seed) runs through ``run_claims`` at the default config with
that seed.  One JSON line goes to stdout for every pair that fails: a fail
verdict, with its measured value and tolerance, or a raised ``U22Error``,
with its type and message; any other exception is a bug and stops the
sweep.  A fail verdict carries the claim's detail too, so the line says
what the verdict rests on without a rerun.  Passing pairs print nothing.
At the end, one line per claim goes to stderr: the seeds run, the failing
pairs and their rate, as ``C04: 1000 seeds, 7 failed (0.70 %)``.  Exit
status 0 when every pair passed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from u22lab import U22Error  # noqa: E402
from u22lab.claims import CLAIM_IDS, SuiteConfig, run_claims  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    """'1-200', '10,11,104' or a mix such as '1-5,104'."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def sweep(claim_ids, seeds):
    """Yield one dict per failing (claim, seed)."""
    for seed in seeds:
        config = SuiteConfig(seed=seed)
        for cid in claim_ids:
            try:
                (record,) = run_claims(config, [cid])
            except U22Error as exc:
                yield {"claim": cid, "seed": seed, "error": f"{type(exc).__name__}: {exc}"}
                continue
            if record.verdict != "pass":
                yield {"claim": cid, "seed": seed, "verdict": record.verdict,
                       "measured": record.measured, "tolerance": record.tolerance, "detail": record.detail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--claims", nargs="+", required=True, choices=CLAIM_IDS, metavar="CLAIM",
                        help="claim ids, e.g. C07 C08")
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1-200 or 10,11,104")
    args = parser.parse_args(argv)
    failures = dict.fromkeys(args.claims, 0)
    for line in sweep(args.claims, args.seeds):
        print(json.dumps(line), flush=True)
        failures[line["claim"]] += 1
    for cid, count in failures.items():
        print(f"{cid}: {len(args.seeds)} seeds, {count} failed ({100 * count / len(args.seeds):.2f} %)", file=sys.stderr)
    return 1 if any(failures.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
