"""scripts/bench_compare.py on a committed ledger, BENCH_21.json, against the
figures its CHANGES.md entry gives: parent and change medians, the median
paired ratio and the parent's own spread; and each standing on small
ledgers made up here."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("bench_compare", os.path.join(ROOT, "scripts", "bench_compare.py"))
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)


def load(name):
    with open(os.path.join(ROOT, name)) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def rows():
    found = bench_compare.compare(load("BENCH_21.json"), load("BENCHMARK.json"))
    return {(r["workload"], r["metric"]): r for r in found}


def test_every_workload_and_end_to_end_metric_has_a_row(rows):
    bench = load("BENCHMARK.json")
    assert set(rows) == {(w["name"], m["name"]) for w in bench["workloads"] for m in bench["end_to_end"]}
    assert all(r["pairs"] == 10 for r in rows.values())


def as_written(value: float, text: str) -> str:
    """``value`` to as many significant digits as ``text`` has."""
    return f"{value:.{len(text.lstrip('0.').replace('.', ''))}g}"


@pytest.mark.parametrize("workload, metric, parent, change, paired", [
    ("battery-algebra", "setup_s", "0.164", "0.208", "1.01"),
    ("requests", "wall_s", "0.0491", "0.0557", "1.07"),
    ("battery-mc", "wall_s", "1.064", "1.073", "1.01"),
])
def test_medians_and_paired_ratio_match_the_ledger_entry(rows, workload, metric, parent, change, paired):
    row = rows[workload, metric]
    assert as_written(row["parent_median"], parent) == parent
    assert as_written(row["change_median"], change) == change
    assert as_written(row["paired_ratio"], paired) == paired


def test_a_ratio_beyond_the_bound_inside_the_parents_spread_is_unresolved(rows):
    row = rows["battery-algebra", "setup_s"]
    assert round(row["parent_spread"], 2) == 0.32 and round(row["ratio"], 2) == 1.26
    assert row["standing"] == "unresolved"
    assert rows["requests", "wall_s"]["standing"] == "within"


def one_metric_row(parent, change, better="lower"):
    """The row of a one-workload, one-metric ledger of paired runs."""
    def run(label, value):
        return {"label": label, "workload": "w",
                "result": {"metrics": {"m": {"value": value}}, "failed": 0, "attempted": 1, "correct": True}}

    ledger = [run(label, v) for p, c in zip(parent, change) for label, v in (("parent", p), ("change", c))]
    bench = {"workloads": [{"name": "w"}], "end_to_end": [{"name": "m", "unit": "s", "better": better,
                                                            "bound": 0.25}]}
    (row,) = bench_compare.compare(ledger, bench)
    return row


def test_a_ratio_beyond_the_bound_and_the_spread_is_beyond():
    parent = [1.0, 1.01, 0.99, 1.0]
    row = one_metric_row(parent, [1.5 * p for p in parent])
    assert row["standing"] == "beyond" and row["pairs_won"] == 0 and row["paired_ratio"] == pytest.approx(1.5)


@pytest.mark.parametrize("ratio, better, standing", [
    (0.70, "lower", "gain"),  # 1 - 0.70 > 0.25
    (0.82, "lower", "within"),  # better, but by less than the bound
    (1.30, "higher", "gain"),  # 1.30 - 1 > 0.25
    (1.20, "higher", "within"),
])
def test_a_ratio_better_by_more_than_the_bound_is_a_gain(ratio, better, standing):
    parent = [1.0, 1.01, 0.99, 1.0]
    row = one_metric_row(parent, [ratio * p for p in parent], better)
    assert row["ratio"] == pytest.approx(ratio) and row["standing"] == standing


def test_main_prints_one_row_per_metric(capsys):
    assert bench_compare.main([os.path.join(ROOT, "BENCH_21.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 15 + 3
    assert any(line.startswith("battery-algebra  setup_s") and "unresolved" in line for line in lines)
