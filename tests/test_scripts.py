"""Smoke runs of the scripts under scripts/, at sizes that take well under a second."""

import json
import math
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
            [
                "scaling_bench.py",
                "--family", "pulsing=10", "--family", "comb=4", "--family", "blocked=10", "--family", "slalom=4",
            ],
            [
                "rescaled", "parse", "report", "write", "check", "gc",
                "pulsing", "comb", "blocked", "slalom", "  EVASION", "NO_EVASION",
            ],
        ),
        (["criteria_gap.py", "--count", "200"], ["200 random scenes", "NO_EVASION", "no EVASION draw has kernel_dim 0"]),
        (
            [
                "pair_check.py", str(ROOT), "--pairs", "2", "--turn", "0",
                "--family", "pulsing=10", "--family", "blocked=10", "--family", "comb=3", "--family", "slalom=3",
                "--random", "5",
            ],
            [
                "pulsing", "blocked", "comb", "slalom", "random", "rescaled ms", "ratio", "wins", "difference",
                "raw ms", "reports identical outside timing_ms",
            ],
        ),
    ],
    ids=["oracle_fuzz", "scaling_bench", "criteria_gap", "pair_check"],
)
def test_script_runs(argv, expected):
    result = run_script(argv)
    assert all(part in result.stdout for part in expected), result.stdout


def run_script(argv: list[str], code: int = 0, timeout: float = 60) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )
    assert result.returncode == code, result.stderr
    return result


def test_scaling_bench_writes_rows_and_slopes(tmp_path):
    out = tmp_path / "bench.json"
    argv = ["--family", "pulsing=10,20", "--family", "comb=3", "--family", "blocked=10", "--family", "slalom=4,8"]
    argv += ["--family", "staircase=3", "--out", str(out)]
    result = run_script(["scaling_bench.py", *argv])
    data = json.loads(out.read_text())
    rows = {(r["family"], r["size"], r["stage"]): r for r in data["rows"]}
    assert data["repeats"] == 5
    # every stage of every case, but no path stage for the NO_EVASION blocked scene
    cases = [("pulsing", 10), ("pulsing", 20), ("comb", 3), ("blocked", 10), ("slalom", 4), ("slalom", 8)]
    cases.append(("staircase", 3))
    stages = ("parse", "fibres", "validate", "build_sheaf", "lp", "path", "report", "write", "check")
    assert set(rows) == {(f, n, s) for f, n in cases for s in stages} - {("blocked", 10, "path")}
    assert all(r["q1_ms"] <= r["median_ms"] <= r["q3_ms"] for r in rows.values())
    # each repeat is rescaled by the speed probe around it, which is never exactly the reference speed
    assert data["reference_probe_s"] == 2e-4
    assert all(r["raw_median_ms"] > 0 for r in rows.values())
    assert any(r["median_ms"] != r["raw_median_ms"] for r in rows.values())
    assert rows[("slalom", 8, "path")]["critical_times"] == 32
    # staircase 3: births at t = 1, 2, 3 and one death at t = 6
    assert rows[("staircase", 3, "fibres")]["critical_times"] == 4
    (staircase,) = [line.split() for line in result.stdout.splitlines() if line.split()[:1] == ["staircase"]]
    assert staircase[:3] == ["staircase", "3", "4"] and staircase[-1] == "EVASION"
    # one slope per (family, stage) run at two sizes, from the two medians
    slopes = {(s["family"], s["stage"]): s for s in data["slopes"]}
    assert {family for family, _ in slopes} == {"pulsing", "slalom"}
    path = slopes[("slalom", "path")]
    assert path["sizes"] == [4, 8]
    a, b = rows[("slalom", 4, "path")]["median_ms"], rows[("slalom", 8, "path")]["median_ms"]
    assert path["slope"] == pytest.approx(math.log(b / a) / math.log(2), abs=1e-3)


def test_scaling_bench_runs_only_the_families_it_is_given(tmp_path):
    out = tmp_path / "bench.json"
    run_script(["scaling_bench.py", "--family", "slalom=4", "--out", str(out)])
    rows = json.loads(out.read_text())["rows"]
    assert {(row["family"], row["size"]) for row in rows} == {("slalom", 4)}


def test_scaling_bench_adds_a_row_of_random_draws(tmp_path):
    out = tmp_path / "bench.json"
    result = run_script(["scaling_bench.py", "--family", "slalom=4", "--random", "4", "--out", str(out)])
    rows = {(r["family"], r["stage"]): r for r in json.loads(out.read_text())["rows"]}
    stages = ("parse", "fibres", "validate", "build_sheaf", "lp", "path", "report", "write", "check")
    # Random(1)'s first four draws hold EVASION ones, so the path column is a median over those
    assert set(rows) == {(family, stage) for family in ("slalom", "random") for stage in stages}
    assert {r["size"] for (family, _), r in rows.items() if family == "random"} == {4}
    assert all(r["q1_ms"] <= r["median_ms"] <= r["q3_ms"] for r in rows.values())
    (random,) = [line.split() for line in result.stdout.splitlines() if line.split()[:1] == ["random"]]
    assert random[:2] == ["random", "4"] and random[-2:] == ["2/4", "EVASION"]
    assert int(random[2]) == rows[("random", "check")]["critical_times"]


def test_pair_check_leaves_an_empty_family_out():
    argv = ["pair_check.py", str(ROOT), "--pairs", "2", "--turn", "0", "--family", "slalom=3", "--random", "0"]
    result = run_script(argv)
    assert "reports identical outside timing_ms" in result.stdout
    assert [line.split()[0] for line in result.stdout.splitlines()[3:-1]] == ["slalom"]


@pytest.mark.parametrize(
    "argv",
    [["scaling_bench.py", "--family", "pulsing=3"], ["pair_check.py", str(ROOT), "--family", "blocked=3"]],
    ids=["scaling_bench", "pair_check"],
)
def test_a_size_the_family_refuses_is_a_usage_error(argv):
    result = run_script(argv, code=2)
    assert result.stderr.splitlines()[-1].endswith("argument --family: " + argv[-1] + ": n_critical_times must be even")


# one-token mutants of the trusted base that accept a covered path or list a
# rectangle again; each is killed by the test in tests/test_geometry.py named
# for its case
PATH_CHECKER_MUTANTS = [
    "scene.py:50:15 <=-><",  # Box.contains: a held point on the left edge
    "scene.py:50:28 <=-><",  # ... the right edge
    "scene.py:50:50 <=-><",  # ... the bottom edge
    "scene.py:50:63 <=-><",  # ... the top edge
    "certify.py:30:19 <=-><",  # _segment_meets_box: a jump along the left or bottom edge
    "certify.py:30:26 <=-><",  # ... the right or top edge
    "certify.py:37:11 >->>=",  # ... a jump touching a box at one corner
    "certify.py:72:74 <=-><",  # the hops end at a zero-length segment
    "certify.py:85:19 max->min",  # a rectangle with two overlapping lives is listed twice
]
MODULES = [str(ROOT / "src" / "evasion" / name) for name in ("scene.py", "certify.py")]


def test_the_path_checker_mutants_are_killed():
    only = [arg for name in PATH_CHECKER_MUTANTS for arg in ("--only", name)]
    selection = ["tests/test_geometry.py", "-k", "TestVerifyEvasionPath or rectangle_on_the_segments"]
    result = run_script(["mutants.py", *MODULES, *only, "--", *selection], timeout=600)
    n = len(PATH_CHECKER_MUTANTS)
    assert f"{n} mutants, {n} killed, 0 survived" in result.stdout, result.stdout


def test_mutants_names_a_survivor_that_is_not_listed():
    # tests/test_scene.py probes no point against a box
    argv = ["mutants.py", *MODULES, "--only", PATH_CHECKER_MUTANTS[0], "--", "tests/test_scene.py"]
    result = run_script(argv, code=1, timeout=600)
    assert f"SURVIVED {PATH_CHECKER_MUTANTS[0]}" in result.stdout
    assert f"  {PATH_CHECKER_MUTANTS[0]}: NOT LISTED" in result.stdout
