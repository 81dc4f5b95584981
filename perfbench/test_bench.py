"""Tests of the benchmark itself (smoke mode; not part of tier-1).

    python -m pytest perfbench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import expected, run
from perfbench.plan import END_TO_END, GATED, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


#: Runs argv as a child subreaper (Linux prctl), so a process the run
#: leaves behind is re-parented here when the run exits, not to init;
#: prints how many there were as its last line of standard error.
REAPER = """
import ctypes, os, subprocess, sys
ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
code = subprocess.call(sys.argv[1:])
orphans = 0
while True:
    try:
        os.waitpid(-1, 0)
    except ChildProcessError:
        break
    orphans += 1
print(f"left running: {orphans}", file=sys.stderr)
sys.exit(code)
"""


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    """One benchmark run; ``.left_running`` counts the processes it
    started that were still alive when it exited (None off Linux)."""
    argv = [sys.executable, "perfbench/run.py", *args]
    if sys.platform == "linux":
        argv = [sys.executable, "-c", REAPER, *argv]
    done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    done.left_running = None
    if sys.platform == "linux":
        last = done.stderr.strip().splitlines()[-1]
        done.left_running = int(last.rsplit(":", 1)[1])
    return done


def test_benchmark_json_matches_plan():
    assert [w["name"] for w in SPEC["workloads"]] == list(GATED)
    assert {m["name"]: (m["unit"], m["better"])
            for m in SPEC["end_to_end"]} == \
        {name: (unit, better) for name, (unit, better, _) in END_TO_END.items()}
    assert {m["name"]: (m["unit"], m["better"])
            for m in SPEC["per_layer"]} == \
        {name: spec[:2] for name, spec in PER_LAYER.items()}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_expected_table_is_consistent():
    assert expected.cross_check() == []


def test_cross_check_catches_a_policy_order_violation(monkeypatch):
    monkeypatch.setitem(expected.CASES, ("kinase_sw1", "unfixed"),
                        (expected.OPTIMAL, 300.0))
    assert any("kinase_sw1" in p for p in expected.cross_check())


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", trace, "--smoke")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] >= 1
    names = END_TO_END if trace == "0" else PER_LAYER
    assert set(last["metrics"]) == set(names)
    for name, metric in last["metrics"].items():
        assert metric["unit"] == names[name][0]
        assert isinstance(metric["value"], float)
    assert proc.left_running in (0, None)
    if workload != "serve_mixed":  # the one mix that fails jobs by design
        assert proc.returncode == 0, proc.stdout[-2000:]
        assert last["correct"] and last["failed"] == 0


def test_wrong_expected_objective_fails_the_run(monkeypatch, capsys):
    status, objective = expected.CASES[("chip_sw1", "fixed")]
    monkeypatch.setitem(expected.CASES, ("chip_sw1", "fixed"),
                        (status, objective + 1))
    code = run.main(["--workload", "matrix_fixed", "--seed", "5",
                     "--seconds", "1", "--smoke"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not last["correct"] and last["failed"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "matrix_fixed", "--seed", "1",
                  "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
