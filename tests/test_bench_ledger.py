"""The ledger entry built by scripts/bench_ledger.py, from a canned run line
(no benchmark is launched)."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("bench_ledger", os.path.join(ROOT, "scripts", "bench_ledger.py"))
bench_ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ledger)

RUN_LINE = json.dumps({
    "correct": True, "attempted": 5, "failed": 0,
    "metrics": {"wall_s": {"value": 0.15, "unit": "s"}, "peak_rss_mb": {"value": 90.7, "unit": "MB"}},
})
GIT = {"git_sha": "0" * 40, "git_dirty": False}
MACHINE = {"cpu_count": 2, "cpu_model": "Example CPU", "python": "3.11.0", "numpy": "2.4.0"}


def test_entry_holds_the_run_line_and_its_context():
    entry = bench_ledger.ledger_entry(RUN_LINE, workload="battery-algebra", label="change",
                                      seconds=30, git=GIT, machine=MACHINE)
    assert entry == {"label": "change", "workload": "battery-algebra", "seconds": 30, **GIT, **MACHINE,
                     "result": json.loads(RUN_LINE)}
    json.dumps(entry)  # the ledger file is plain JSON


def test_entry_records_a_given_seed():
    entry = bench_ledger.ledger_entry(RUN_LINE, workload="battery-mc", label="parent", seconds=30,
                                      git=GIT, machine=MACHINE, seed=15)
    assert entry["seed"] == 15 and entry["result"] == json.loads(RUN_LINE)


@pytest.mark.parametrize("line", ["[]", '{"correct": true}', "perfbench: failed"])
def test_a_line_that_is_not_a_result_is_rejected(line):
    with pytest.raises(ValueError):
        bench_ledger.ledger_entry(line, workload="requests", label="parent", seconds=30, git=GIT,
                                  machine=MACHINE)


def test_machine_info_names_versions():
    info = bench_ledger.machine_info()
    assert info["cpu_count"] >= 1 and info["python"].count(".") == 2 and info["numpy"]
