"""Tests of the benchmark itself, at small sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

CHECKOUT = Path(__file__).resolve().parent.parent
RUN = CHECKOUT / "perfbench" / "run.py"
SMALL = {"scan": ["--rows", "500", "--ops", "2"],
         "oltp": ["--rows", "2000", "--ops", "80"],
         "oltp_disk": ["--rows", "1000", "--ops", "30"]}


def _run(workload: str, trace: int, *extra: str, cwd: Path = CHECKOUT,
         script: Path = RUN) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    return result


def _declared(kind: str) -> list[str]:
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    return [metric["name"] for metric in spec[kind]]


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_counts_repeat_for_a_seed(workload):
    first, second = (_result(_run(workload, 1, *SMALL[workload]))
                     for _ in range(2))
    assert sorted(first["metrics"]) == sorted(_declared("per_layer"))
    counts = {name for name, metric in first["metrics"].items()
              if metric["unit"] in ("count", "B", "ratio")}
    assert {"dfs.bytes_read", "dfs.namenode_mutations",
            "engine.page_reads"} <= counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["attempted"] == second["attempted"]


def test_untraced_run_reports_every_end_to_end_metric():
    first, second = (_result(_run("oltp", 0, "--rows", "2000"))
                     for _ in range(2))
    assert sorted(first["metrics"]) == sorted(_declared("end_to_end"))
    assert all(metric["value"] > 0 for metric in first["metrics"].values())
    # a fixed transaction count makes the byte ratios exact for a seed
    for name in ("read_amp", "write_amp", "space_amp"):
        assert first["metrics"][name] == second["metrics"][name], name


def test_without_wormdb_source_it_fails_without_a_result(tmp_path):
    shutil.copytree(CHECKOUT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    proc = _run("scan", 0, cwd=tmp_path,
                script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
