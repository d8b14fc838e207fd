"""Smoke test of the seed-sweep command (scripts/seed_sweep.py)."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from u22lab.groups import DecompositionFailed

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
    # the claim's detail rides along: what the failing verdict rests on
    assert all(line["detail"]["union_span_rank"] == 14 and line["detail"]["bracket_closure_dimension"] == 15
               for line in lines)


def test_sweep_ends_with_one_rate_line_per_claim():
    # stdout holds only the failing pairs; stderr one line per claim
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "seed_sweep.py"),
         "--claims", "C10", "C07", "--seeds", "10-11,20"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert [json.loads(line)["seed"] for line in proc.stdout.splitlines()] == [10, 11, 20]
    assert proc.stderr.splitlines() == ["C10: 3 seeds, 3 failed (100.00 %)", "C07: 3 seeds, 0 failed (0.00 %)"]


def test_unknown_claim_id_is_a_usage_error():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "seed_sweep.py"),
         "--claims", "C7", "--seeds", "1-200"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == "" and "invalid choice: 'C7'" in proc.stderr


def _load_sweep():
    spec = importlib.util.spec_from_file_location("seed_sweep", os.path.join(ROOT, "scripts", "seed_sweep.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_library_error_is_a_failing_pair(monkeypatch):
    sweep = _load_sweep()

    def refuse(config, claim_ids):
        raise DecompositionFailed("reconstruction residual 1e-3")

    monkeypatch.setattr(sweep, "run_claims", refuse)
    assert list(sweep.sweep(["C07"], [5])) == [
        {"claim": "C07", "seed": 5, "error": "DecompositionFailed: reconstruction residual 1e-3"}]


def test_a_bug_stops_the_sweep(monkeypatch):
    sweep = _load_sweep()

    def broken(config, claim_ids):
        raise KeyError("a bug")

    monkeypatch.setattr(sweep, "run_claims", broken)
    with pytest.raises(KeyError):
        list(sweep.sweep(["C07"], [5]))
