"""Smoke test of the seed-sweep command (scripts/seed_sweep.py)."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_sweep_prints_one_line_per_failing_pair():
    # C07 passes on both seeds; C10 fails by design on every seed
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "seed_sweep.py"),
         "--claims", "C07", "C10", "--seeds", "10-11"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(line["claim"], line["seed"], line["verdict"]) for line in lines] == [
        ("C10", 10, "fail"), ("C10", 11, "fail")]
    assert all(line["measured"] == 2.0 and line["tolerance"] == 0.5 for line in lines)


def test_unknown_claim_id_is_a_usage_error():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "seed_sweep.py"),
         "--claims", "C7", "--seeds", "1-200"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == "" and "invalid choice: 'C7'" in proc.stderr
