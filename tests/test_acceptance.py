"""Acceptance suite: one test per shipping criterion, one printed line each.

Everything here runs at the advertised tolerances (exact equality unless a
runtime bound is part of the criterion). Later criteria re-examine the
certificates and paths produced by the earlier ones, so this module keeps a
small shared scoreboard; running a late criterion on its own skips instead
of silently passing.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction
from random import Random

import pytest

from evasion.certify import verify_evasion_path
from evasion.cli import main, scene_from_jsonable, sheaf_from_jsonable
from evasion.cones import is_valid_certificate, lp_positive_kernel
from evasion.geometry import build_sheaf, extract_path, scene_fibres
from evasion.linalg import kernel_basis
from evasion.randgen import pulsing_box_scene, random_function_like_sheaf, random_scene
from evasion.sheaf import global_sections, refine

from conftest import load_fixture
from golden import (
    BLOCKED_COBOUNDARY,
    BLOCKED_COLUMNS,
    BLOCKED_KERNEL_GENERATOR,
    BLOCKED_ROWS,
    OPEN_COBOUNDARY,
    OPEN_COLUMNS,
    OPEN_ROWS,
    OPEN_WITNESS_SUPPORT,
    geometric_name,
    reorder_to_golden,
)
from reference_chains import enumerate_sections

SCOREBOARD: dict = {"infeasible": [], "evasion": []}


@contextmanager
def criterion(cid: str, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {cid}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {cid}: PASS - {description}")


def scene_sections(name: str):
    scene = scene_from_jsonable(load_fixture(name))
    sections = global_sections(build_sheaf(scene))
    return scene, sections


def record(scene, sections) -> None:
    if sections.decision.feasible:
        SCOREBOARD["evasion"].append((scene, sections))
    else:
        SCOREBOARD["infeasible"].append((sections.coboundary, sections.decision.certificate))


def test_c01_golden_coboundary_open_crossing():
    with criterion("C1", "open-crossing scene reproduces the hand-checked 7x8 coboundary in < 1 s"):
        t0 = time.perf_counter()
        scene, sections = scene_sections("crossing_open.json")
        golden = reorder_to_golden(sections, OPEN_ROWS, OPEN_COLUMNS)
        elapsed = time.perf_counter() - t0
        assert golden == OPEN_COBOUNDARY
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_c02_golden_coboundary_blocked_crossing():
    with criterion("C2", "blocked-crossing scene reproduces the hand-checked 7x8 coboundary in < 1 s"):
        t0 = time.perf_counter()
        scene, sections = scene_sections("crossing_blocked.json")
        golden = reorder_to_golden(sections, BLOCKED_ROWS, BLOCKED_COLUMNS)
        elapsed = time.perf_counter() - t0
        assert golden == BLOCKED_COBOUNDARY
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_c03_verdicts_with_witness_support_and_certificate():
    with criterion("C3", "crossing verdicts: exact witness support, certified infeasibility, 1-dim kernels"):
        scene, sections = scene_sections("crossing_open.json")
        assert sections.decision.feasible
        support = {
            geometric_name(cell, lab)
            for (cell, lab), v in zip(sections.column_labels, sections.decision.witness)
            if v
        }
        assert support == OPEN_WITNESS_SUPPORT
        assert sections.kernel_dim == 1
        record(scene, sections)

        scene_b, sections_b = scene_sections("crossing_blocked.json")
        assert not sections_b.decision.feasible
        assert is_valid_certificate(sections_b.coboundary, sections_b.decision.certificate)
        assert sections_b.kernel_dim == 1
        (gen,) = kernel_basis(sections_b.coboundary)
        named = {
            geometric_name(cell, lab): v
            for (cell, lab), v in zip(sections_b.column_labels, gen)
        }
        scale = named["v1.t"]
        assert {k: v / scale for k, v in named.items()} == {
            k: Fraction(v) for k, v in BLOCKED_KERNEL_GENERATOR.items()
        }
        record(scene_b, sections_b)


def test_c04_strand_fixture_section_counts():
    with criterion("C4", "strand fixtures: section counts 1 / 0 / 2-dim family / 4, lens kernel dim 3"):
        line = sheaf_from_jsonable(load_fixture("line.json"))
        assert len(enumerate_sections(line, cap=10)) == 1
        assert global_sections(line).decision.feasible

        reversal = sheaf_from_jsonable(load_fixture("reversal.json"))
        assert enumerate_sections(reversal, cap=10) == []
        sections = global_sections(reversal)
        assert not sections.decision.feasible
        record(None, sections)

        bubble = sheaf_from_jsonable(load_fixture("bubble.json"))
        bubble_sections = global_sections(bubble)
        assert bubble_sections.decision.feasible
        assert bubble_sections.kernel_dim == 2  # one-parameter family of section rays

        lens = sheaf_from_jsonable(load_fixture("double_lens.json"))
        lens_sections = global_sections(lens)
        assert lens_sections.decision.feasible
        assert len(enumerate_sections(lens, cap=100)) == 4
        assert lens_sections.kernel_dim == 3


def test_c05_triptych_verdicts():
    with criterion("C5", "triptych scenes: EVASION / NO_EVASION / NO_EVASION"):
        expected = {
            "corridor_open.json": True,
            "blackout.json": False,
            "crossing_blocked_wide.json": False,
        }
        for name, feasible in expected.items():
            scene, sections = scene_sections(name)
            assert sections.decision.feasible == feasible, name
            record(scene, sections)


def test_c06_oracle_equivalence_bulk(base_seed):
    with criterion("C6", "10^4 random function-like sheaves: sweep and simplex agree, < 60 s"):
        rng = Random(base_seed)
        t0 = time.perf_counter()
        disagreements = 0
        outcomes = {True: 0, False: 0}
        for _ in range(10_000):
            sheaf = random_function_like_sheaf(rng)
            sections = global_sections(sheaf)  # decided by the sweep
            exists = lp_positive_kernel(sections.coboundary).feasible  # the bounded simplex
            if exists != sections.decision.feasible:
                disagreements += 1
            outcomes[exists] += 1
            if not sections.decision.feasible:
                assert is_valid_certificate(sections.coboundary, sections.decision.certificate)
        elapsed = time.perf_counter() - t0
        assert disagreements == 0
        assert outcomes[True] > 0 and outcomes[False] > 0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_c07_refinement_invariance_on_random_scenes(base_seed):
    with criterion("C7", "100 random scenes x 1-5 refinements: verdicts stable, witnesses project"):
        rng = Random(base_seed + 7)
        for _ in range(100):
            scene = random_scene(rng)
            sheaf = build_sheaf(scene)
            base = global_sections(sheaf)
            record(scene, base)
            refined_sheaf = sheaf
            for _ in range(rng.randint(1, 5)):
                refined_sheaf = _refine_at_random_time(rng, refined_sheaf)
            refined = global_sections(refined_sheaf)
            assert refined.decision.feasible == base.decision.feasible
            assert refined.kernel_dim == base.kernel_dim
            if base.decision.feasible:
                _check_witness_projects(sheaf, base, refined_sheaf, refined)
            else:
                record(None, refined)


def _refine_at_random_time(rng: Random, sheaf):
    times = sheaf.strat.vertex_times
    while True:
        # halves and quarters around the existing times, rejecting collisions
        t = Fraction(rng.randint(-8, 8 + 4 * len(times)), 4) + times[0]
        if t not in times:
            return refine(sheaf, t)


def _check_witness_projects(base_sheaf, base, refined_sheaf, refined):
    """The refined witness, restricted to the original vertices (matched by
    time) and renormalised, must be a valid witness of the original system:
    in the kernel, nonnegative, nonzero."""
    original_times = {t: i for i, t in enumerate(base_sheaf.strat.vertex_times)}
    col_index = {pair: i for i, pair in enumerate(base.column_labels)}
    projected = [Fraction(0)] * len(base.column_labels)
    for (cell, lab), v in zip(refined.column_labels, refined.decision.witness):
        if not v:
            continue
        vi = int(cell[1:]) - 1
        t = refined_sheaf.strat.vertex_times[vi]
        if t in original_times:
            key = (f"v{original_times[t] + 1}", lab)
            projected[col_index[key]] += v
    total = sum(projected)
    assert total > 0, "refined witness lost all mass on original vertices"
    projected = [v / total for v in projected]
    assert not any(base.coboundary.mul_vec(projected))
    assert all(v >= 0 for v in projected)


def test_c08_certificate_soundness_scoreboard():
    if not SCOREBOARD["infeasible"]:
        pytest.skip("criteria 3-7 must run in the same session")
    with criterion("C8", "every infeasibility certificate from C3-C7 re-verifies strictly"):
        assert len(SCOREBOARD["infeasible"]) >= 3
        for matrix, certificate in SCOREBOARD["infeasible"]:
            assert is_valid_certificate(matrix, certificate)


def test_c09_path_validity_scoreboard():
    evasions = [(s, g) for s, g in SCOREBOARD["evasion"] if s is not None]
    if not evasions:
        pytest.skip("criteria 3-7 must run in the same session")
    with criterion("C9", "every EVASION verdict from C3, C5, C7 yields a verified path"):
        assert len(evasions) >= 2
        for scene, sections in evasions:
            path = extract_path(scene, scene_fibres(scene), sections)  # raises if verification fails
            verify_evasion_path(scene, path)


def test_c10_scaling_family(tmp_path):
    with criterion("C10", "pulsing family: cmd_check < 0.1 s / 1 s / 30 s at 10 / 100 / 1000 critical times"):
        from evasion.cli import scene_to_jsonable

        budgets = {10: 0.1, 100: 1.0, 1000: 30.0}
        for n, budget in budgets.items():
            scene = pulsing_box_scene(n)
            scene_file = tmp_path / f"pulsing_{n}.json"
            scene_file.write_text(json.dumps(scene_to_jsonable(scene)))
            t0 = time.perf_counter()
            code = main(["check", str(scene_file), "--path", str(tmp_path / f"path_{n}.json")])
            elapsed = time.perf_counter() - t0
            assert code == 0
            assert elapsed < budget, f"{n} critical times took {elapsed:.2f}s (budget {budget}s)"
