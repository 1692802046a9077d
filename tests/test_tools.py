"""The scripts under tools/ run to their end against the package as it
is. Each reads names inside the package, private ones among them, that
no other test reaches through it, so a rename there would otherwise
break a tool silently. So does the benchmark's own command, on a small
load: it imports `wormdb.bench` and `Database.create` as it stands."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

CHECKOUT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, last_line", [
    ("code_lines.py", [], "total"),
    ("index_cost.py", ["--page-size", "512", "--load", "10", "300",
                       "--window", "500"], "commits   501-1000"),
    ("log_cost.py", ["--seed", "3", "--rows", "5000", "--txns", "1000"],
     "write_amp "),
], ids=["code_lines", "index_cost", "log_cost"])
def test_a_tool_runs_to_its_end(script, args, last_line):
    result = subprocess.run(
        [sys.executable, str(CHECKOUT / "tools" / script), *args],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert last_line in result.stdout.splitlines()[-1]


@pytest.mark.parametrize("workload, rows", [("oltp", "2000"), ("scan", "500")])
def test_the_benchmark_command_runs_correct(workload, rows):
    """`perfbench/run.py`, as BENCHMARK.json runs it, on a small load:
    it exits 0 and its last line is a correct result with no failed
    operation, reporting the end-to-end metrics BENCHMARK.json names."""
    result = subprocess.run(
        [sys.executable, str(CHECKOUT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--rows", rows],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["correct"] is True
    assert report["failed"] == 0
    declared = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    assert list(report["metrics"]) == \
        [metric["name"] for metric in declared["end_to_end"]]
