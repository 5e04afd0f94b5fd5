"""Smoke runs of the scripts under scripts/, at sizes that take well under a second."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["oracle_fuzz.py", "--count", "200"], ["200 sheaves checked", "no disagreements"]),
        (
            ["scaling_bench.py", "10", "--comb", "4", "--blocked", "10", "--slalom", "4"],
            [
                "parse", "report", "write", "check", "gc",
                "pulsing", "comb", "blocked", "slalom", "  EVASION", "NO_EVASION",
            ],
        ),
        (["criteria_gap.py", "--count", "200"], ["200 random scenes", "NO_EVASION", "no EVASION draw has kernel_dim 0"]),
        (
            [
                "pair_check.py", str(ROOT), "--pairs", "2", "--turn", "0",
                "--pulsing", "10", "--blocked", "10", "--comb", "3", "--random", "5",
            ],
            ["pulsing", "blocked", "comb", "random", "ratio", "wins", "reports identical outside timing_ms"],
        ),
    ],
    ids=["oracle_fuzz", "scaling_bench", "criteria_gap", "pair_check"],
)
def test_script_runs(argv, expected):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert all(part in result.stdout for part in expected), result.stdout
