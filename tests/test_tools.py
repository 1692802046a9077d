"""The scripts under tools/ run to their end against the package as it
is. Each reads names inside the package, private ones among them, that
no other test reaches through it, so a rename there would otherwise
break a tool silently."""

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
