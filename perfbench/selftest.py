"""The benchmark's own test: generator shapes, repeatable counts, no failures.

Run from the root of a checkout (about a minute on two cores):

  python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from program import load_program  # noqa: E402
from workloads import COMB_WALLS, PULSING_TIMES, blocked_scene, comb_scene  # noqa: E402


def bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def traced(workload: str, seed: int) -> dict:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0 and result["correct"], proc.stderr
    return {name: m["value"] for name, m in result["metrics"].items()}


def counts(metrics: dict) -> dict:
    return {name: v for name, v in metrics.items() if not name.endswith("_s")}


@pytest.fixture(scope="module")
def prog():
    return load_program()


@pytest.mark.parametrize(
    "name, shape, verdict",
    [("pulsing", (399, 400), True), ("blocked", (400, 400), False), ("comb", (1176, 1225), True)],
)
def test_generator_shapes_and_verdicts(prog, name, shape, verdict):
    geometry = prog.geometry
    if name == "pulsing":
        scene = prog.randgen.pulsing_box_scene(PULSING_TIMES)
    elif name == "blocked":
        scene = blocked_scene(geometry, prog.randgen, PULSING_TIMES)
    else:
        scene = comb_scene(geometry, COMB_WALLS)
    sheaf = geometry.build_sheaf(scene)
    cob = prog.sheaf.assemble_coboundary(sheaf).coboundary
    assert (cob.rows, cob.cols) == shape
    assert prog.oracle.dp_section_exists(sheaf)[0] is verdict


def test_translates_share_the_coboundary(prog):
    # OutputCheck re-verifies every translate against the first one's matrix
    scene = prog.randgen.pulsing_box_scene(PULSING_TIMES)
    a = prog.sheaf.assemble_coboundary(prog.geometry.build_sheaf(scene))
    b = prog.sheaf.assemble_coboundary(prog.geometry.build_sheaf(scene.shifted(-997, 41, -3)))
    assert (a.row_labels, a.column_labels, a.coboundary) == (b.row_labels, b.column_labels, b.coboundary)


def test_traced_counts_repeat_for_a_seed():
    first, second = traced("random", 7), traced("random", 7)
    assert counts(first) == counts(second)
    # the self times partition the traced check time
    layers = sum(v for name, v in first.items() if name.endswith("_s") and not name.startswith("trace."))
    assert layers == pytest.approx(first["trace.check_s"], rel=0.01)
    linalg = sum(v for name, v in first.items() if name.startswith("linalg."))
    outside = first["geometry.scene_fibres_s"] + sum(v for n, v in first.items() if n.startswith("cli."))
    assert outside > linalg


@pytest.mark.parametrize("workload", ["pulsing", "blocked", "comb"])
def test_layer_map_and_no_failures(workload):
    m = traced(workload, 3)
    solved = m["linalg.solve_square_sparse_s"] > 0
    assert solved is (workload == "blocked")
    path_layers = ("geometry.extract_path_self_s", "oracle.flow_decompose_s", "geometry.verify_evasion_path_s")
    assert all((m[name] > 0) is (workload != "blocked") for name in path_layers)
    assert (m["geometry.path_segments"] > 0) is (workload != "blocked")


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "pulsing", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
