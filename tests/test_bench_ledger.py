"""scripts/bench_ledger.py: its ledger entry, from a canned run line, and its
main loop, on a stub checkout whose perfbench/run.py prints canned output
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


# A checkout whose perfbench/run.py prints a result for the workload "good",
# crashes with status 3 for "crash", ends with a line that is not a result
# for "garbage", and prints an incorrect result with status 1 for "wrong".
STUB_RUN = f"""
import sys
workload = sys.argv[sys.argv.index("--workload") + 1]
if workload == "good":
    print("round 1 done")
    print({RUN_LINE!r})
elif workload == "crash":
    print("round 1 done")
    sys.stderr.write("Traceback (most recent call last):\\n  ...\\nRuntimeError: boom\\n")
    sys.exit(3)
elif workload == "garbage":
    print("perfbench: finished")
else:
    print({RUN_LINE.replace("true", "false")!r})
    sys.exit(1)
"""


def stub_ledger(tmp_path, monkeypatch, workloads):
    """A stub checkout committed to git, and a ledger root whose
    BENCHMARK.json lists ``workloads``; returns main's arguments."""
    import subprocess

    checkout = tmp_path / "checkout"
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "perfbench" / "run.py").write_text(STUB_RUN)
    git = ["git", "-C", str(checkout), "-c", "user.name=stub", "-c", "user.email=stub@example.com"]
    subprocess.run(["git", "init", "-q", str(checkout)], check=True)
    subprocess.run([*git, "add", "-A"], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "stub"], check=True)
    root = tmp_path / "root"
    root.mkdir()
    (root / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "workloads": [{"name": w} for w in workloads]}))
    monkeypatch.setattr(bench_ledger, "ROOT", str(root))
    return ["--pr", "7", "--label", "change", "--checkout", str(checkout)], root / "BENCH_7.json"


def test_every_result_becomes_an_entry(tmp_path, monkeypatch, capsys):
    argv, ledger = stub_ledger(tmp_path, monkeypatch, ["good", "good"])
    assert bench_ledger.main(argv) == 0
    entries = json.loads(ledger.read_text())
    assert [e["result"] for e in entries] == [json.loads(RUN_LINE)] * 2
    assert entries[0]["git_dirty"] is False and len(entries[0]["git_sha"]) == 40
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("workload, status, message", [
    ("crash", 3, "bench_ledger: crash exited with status 3; no entry added (RuntimeError: boom)"),
    ("wrong", 1, "bench_ledger: wrong exited with status 1; no entry added"),
    ("garbage", 1, "bench_ledger: garbage ended with a line that is not a result; no entry added"),
])
def test_a_run_without_a_result_stops_the_ledger(tmp_path, monkeypatch, capsys, workload, status, message):
    # the run before it keeps its entry; the failing run and those after it add none
    argv, ledger = stub_ledger(tmp_path, monkeypatch, ["good", workload, "good"])
    assert bench_ledger.main(argv) == status
    assert capsys.readouterr().err == message + "\n"
    assert [e["workload"] for e in json.loads(ledger.read_text())] == ["good"]
