"""Tests of the benchmark itself: every check rejects a corrupted output,
and a reduced-size pass of each workload runs clean.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from u22lab import claims, groups  # noqa: E402

SMOKE_SAMPLES = 200_000


@pytest.fixture(scope="module")
def records():
    config = claims.SuiteConfig(seed=5, mc_samples=SMOKE_SAMPLES)
    ids = workloads.MC_CLAIMS + ("C03", "C10", "C11", "C12")
    return config, {r.claim_id: r for r in claims.run_claims(config, ids)}


def corrupt(record, path, change):
    """Copy of ``record`` with detail[path...] (or a field) replaced by change(old)."""
    if path[0] in ("verdict", "measured"):
        return dataclasses.replace(record, **{path[0]: change(getattr(record, path[0]))})
    detail = copy.deepcopy(record.detail)
    node = detail
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = change(node[path[-1]])
    return dataclasses.replace(record, detail=detail)


def test_closed_forms():
    assert checks.rank1_character_value(2.0) == pytest.approx(2 * (0.5772156649 + np.log(2) - 0.4229808288), rel=1e-9)
    # at small eps, E1(eps) ~ -gamma - ln eps, so the slope tends to pi^2 / 2
    assert checks.vacuum_slope(np.logspace(-6, -9, 7), 30.0) == pytest.approx(np.pi**2 / 2, rel=1e-5)


def test_real_outputs_pass(records):
    config, recs = records
    for record in recs.values():
        assert checks.check_claim(record, config) == [], record.claim_id


@pytest.mark.parametrize("cid, path, change", [
    ("C06", ("vacuum_slope",), lambda v: v * 1.05),
    ("C06", ("vacuum_slope",), lambda v: v * 0.95),
    ("C06", ("control_verdict",), lambda v: "special witness confirmed"),
    ("C06", ("vacuum_classification",), lambda v: "convergent"),
    ("C04", ("haar_invariance", "base"), lambda v: v * 1.2),
    ("C04", ("haar_invariance", "moved"), lambda v: v * 0.8),
    ("C04", ("box_translation", "mass"), lambda v: v + 0.1),
    ("C04", ("pi_multiplicativity", "residual"), lambda v: 1e-6),
    ("C09", ("projected_value",), lambda v: v * 1.5),
    ("C09", ("smallest_eigenvalue",), lambda v: -v),
    ("C09", ("hermiticity_residual",), lambda v: 1e-3),
    ("C03", ("label_flips",), lambda v: 1),
    ("C10", ("union_span_rank",), lambda v: 16),
    ("C10", ("bracket_closure_dimension",), lambda v: 16),
    ("C10", ("verdict",), lambda v: "pass"),
    ("C11", ("char_value",), lambda v: v * (1 + 1e-5)),
    ("C12", ("max_double_distance",), lambda v: 1e-3),
    ("C12", ("measured",), lambda v: 1.0),
])
def test_corrupted_claim_is_rejected(records, cid, path, change):
    config, recs = records
    assert checks.check_claim(corrupt(recs[cid], path, change), config)


@pytest.fixture(scope="module")
def request_round():
    ops = workloads.requests(3, 0)
    outputs = {}
    for op in ops:
        try:
            outputs[id(op)] = op.run()
        except workloads.OP_ERRORS:
            assert op.may_fail
    return ops, outputs


def _first(request_round, name):
    ops, outputs = request_round
    op = next(op for op in ops if op.name == name and id(op) in outputs)
    return op, json.loads(outputs[id(op)])


def test_request_mix(request_round):
    ops, outputs = request_round
    names = [op.name for op in ops]
    assert len(ops) == 100
    assert {n: names.count(n) for n in set(names)} == {
        "decompose": 64, "non-member": 8, "orbit": 20, "degenerate": 4, "ill-conditioned": 4}
    for op in ops:
        if id(op) in outputs:
            assert op.check(outputs[id(op)]) == [], op.name
    # the inputs follow the seed, except the ill-conditioned class
    again = workloads.requests(3, 0)
    assert [op.name for op in again] == names


def _entry(doc, block, i, j, scale):
    doc[block]["data"]["x" if block == "p" else "m"][i][j][0] += scale


@pytest.mark.parametrize("mutate", [
    lambda d: _entry(d, "k", 0, 1, 1e-6),  # perturbed k
    lambda d: _entry(d, "p", 1, 0, 1e-6),  # perturbed X
    lambda d: d["p"]["data"]["s"].update(r1=d["p"]["data"]["s"]["r1"] * (1 + 1e-7)),
    lambda d: d.update(error="not a group member"),
])
def test_corrupted_decompose_is_rejected(request_round, mutate):
    op, doc = _first(request_round, "decompose")
    mutate(doc)
    assert op.check(json.dumps(doc))


@pytest.mark.parametrize("name, mutate", [
    ("decompose", lambda d: d.update(reconstruction_residual=float("nan"))),
    ("orbit", lambda d: d["coordinates"].update(r1=float("inf"))),
])
def test_malformed_reply_is_rejected(request_round, name, mutate):
    op, doc = _first(request_round, name)
    assert op.check("{}")
    mutate(doc)  # json.dumps writes the bare NaN / Infinity tokens
    assert op.check(json.dumps(doc))


def test_accepted_non_member_is_rejected(request_round):
    op, _ = _first(request_round, "non-member")
    _, member_reply = _first(request_round, "decompose")
    assert op.check(json.dumps(member_reply))


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(label="+-" if d["label"] != "+-" else "++"),
    lambda d: d.update(index=d["index"] % 4 + 1),
    lambda d: d["coordinates"].update(r2=d["coordinates"]["r2"] * (1 + 1e-6)),
    lambda d: d.update(label="degenerate"),
])
def test_corrupted_orbit_is_rejected(request_round, mutate):
    op, doc = _first(request_round, "orbit")
    mutate(doc)
    assert op.check(json.dumps(doc))


def test_degenerate_reported_as_labelled_is_rejected(request_round):
    op, _ = _first(request_round, "degenerate")
    _, labelled = _first(request_round, "orbit")
    assert op.check(json.dumps(labelled))


@pytest.mark.parametrize("make_round", [
    workloads.battery(workloads.MC_CLAIMS, mc_samples=SMOKE_SAMPLES),
    workloads.battery(workloads.ALGEBRA_CLAIMS),
    workloads.requests,
], ids=["battery-mc", "battery-algebra", "requests"])
def test_smoke_round(make_round):
    meas = run.Measurement(make_round, seed=11)
    meas.run_round(0)
    assert meas.problems == []
    assert meas.attempted == len(make_round(11, 0))
    expected_failures = sum(op.may_fail for op in make_round(11, 0))
    assert meas.failed <= expected_failures


def test_tracer_counts_and_restores():
    original = groups.iwasawa_decompose
    meas = run.Measurement(workloads.requests, seed=2)
    with tracer.Tracer() as tr:
        assert groups.iwasawa_decompose is not original
        meas.run_round(0, tracer=tr)
    assert groups.iwasawa_decompose is original
    assert workloads.groups.iwasawa_decompose is original
    spans = tr.summary()
    # 64 well-conditioned and 4 ill-conditioned decompositions per round
    assert spans["groups.decompose"]["calls"] == 68
    assert spans["orbits.classify"]["calls"] >= 24
    assert spans["matrices.frob"]["calls"] > 0
    assert len(tr.ops) == 100


def _bench_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ([m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]])


@pytest.mark.parametrize("trace", [0, 1])
def test_command_reports_every_metric(trace):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "requests", "--seed", "4",
                           "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] % 100 == 0
    assert result["failed"] * 25 <= result["attempted"]  # at most the 4 ill-conditioned of 100
    end_to_end, layer = _bench_metrics()
    assert sorted(result["metrics"]) == sorted(layer if trace else end_to_end)


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "requests", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
