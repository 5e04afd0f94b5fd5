import argparse
import copy
import errno
import gc
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from array import array
from collections import Counter
from contextlib import redirect_stdout
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import evasion.cli as cli
import evasion.formats as formats
import evasion.geometry as geometry
from evasion.certify import verify_evasion_path
from evasion.cli import (
    main,
    matrix_to_jsonable,
    path_to_jsonable,
    render_scene_svg,
    run_check,
    scene_to_jsonable,
    sections_to_jsonable,
    sheaf_from_jsonable,
    write_json,
)
from evasion.cones import FeasibilityResult
from evasion.formats import format_rational, parse_rational, path_from_jsonable, scene_from_jsonable
from evasion.linalg import Matrix, kernel_basis
from evasion.randgen import FAMILIES, blocked_scene, comb_scene, pulsing_box_scene, random_scene
from evasion.scene import EvasionPath, PathSegment, Scene
from evasion.sheaf import UnsupportedSheafError, section_chain, sweep_sections

from conftest import fixture_path, fixtures_with, load_fixture


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def scene_command(command: str, tmp_path: Path) -> list[str]:
    """The arguments of a command on a scene file, the file left off: "path"
    is `check --path`, writing the path file `path.json` under tmp_path."""
    return ["check", "--path", str(tmp_path / "path.json")] if command == "path" else [command]


class TestCheck:
    def test_open_crossing_exits_zero_with_witness(self, capsys):
        code, report = run_cli(capsys, "check", fixture_path("crossing_open.json"))
        assert code == 0
        assert report["verdict"] == "EVASION"
        assert set(report["sections"]["witness"]["support"]) == {
            "v1.g0",
            "v2.g1",
            "v3.g1",
            "v4.g0",
        }
        assert report["sections"]["kernel_dim"] == 1
        assert report["path"]["segments"][0]["t"][0] is None

    def test_blocked_crossing_exits_two_with_certificate(self, capsys):
        code, report = run_cli(capsys, "check", fixture_path("crossing_blocked.json"))
        assert code == 2
        assert report["verdict"] == "NO_EVASION"
        assert "certificate" in report["sections"]
        assert "witness" not in report["sections"]

    def test_teleport_has_a_sign_free_section_but_no_evasion(self, capsys):
        # the six-box scene: the one sign-free section is -1 on v3.g2, so no positive section exists
        code, report = run_cli(capsys, "check", fixture_path("teleport.json"))
        assert code == 2
        assert report["verdict"] == "NO_EVASION"
        assert report["sections"]["kernel_dim"] == 1
        assert report["sections"]["columns"] == ["v1.g0", "v2.g0", "v3.g0", "v3.g1", "v3.g2", "v4.g0", "v5.g0"]
        _, sections, _, _ = run_check(scene_from_jsonable(load_fixture("teleport.json")))
        assert kernel_basis(sections.coboundary) == [(1, 1, 1, 1, -1, 1, 1)]

    def test_truncated_json_reports_parse_location(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"window": {"x": [0, 9], "y": [0')
        code, report = run_cli(capsys, "check", str(bad))
        assert code == 1
        assert "location" in report and report["location"]["line"] == 1

    def test_float_coordinates_are_rejected(self, capsys, tmp_path):
        bad = tmp_path / "floaty.json"
        bad.write_text(json.dumps({"window": {"x": [0, 9.5], "y": [0, 9]}, "boxes": []}))
        code, report = run_cli(capsys, "check", str(bad))
        assert code == 1
        assert "float" in report["error"]

    def test_disconnected_scene_reports_violation(self, capsys, tmp_path):
        bad = tmp_path / "island.json"
        bad.write_text(
            json.dumps(
                {
                    "window": {"x": [0, 10], "y": [0, 10]},
                    "boxes": [{"t": [0, 1], "x": [4, 5], "y": [4, 5]}],
                }
            )
        )
        code, report = run_cli(capsys, "check", str(bad))
        assert code == 1
        assert any("disconnected" in v for v in report["violations"])

    @pytest.mark.parametrize("command", ["check", "path", "sheaf"])
    def test_a_disconnected_scene_is_one_whole_report(self, capsys, tmp_path, command):
        # the island starts inside a blackout and outlives it: the edge (1, 2)
        # is the first sample at fault, named by its midpoint
        island = tmp_path / "island.json"
        island.write_text(
            json.dumps(
                {
                    "window": {"x": [0, 10], "y": [0, 10]},
                    "boxes": [{"t": [0, 1], "x": [0, 10], "y": [0, 10]}, {"t": ["1/2", 2], "x": [4, 5], "y": [4, 5]}],
                }
            )
        )
        assert run_cli(capsys, *scene_command(command, tmp_path), str(island)) == (
            1,
            {"error": "scene validation failed", "violations": ["coverage is disconnected at t=3/2"]},
        )
        assert not (tmp_path / "path.json").exists()

    def test_oracle_flag_cross_checks(self, capsys):
        code, report = run_cli(capsys, "check", "--oracle", fixture_path("crossing_open.json"))
        assert code == 0
        assert report["oracle"] == {"section_exists": True}
        code, report = run_cli(capsys, "check", "--oracle", fixture_path("crossing_blocked.json"))
        assert code == 2
        assert report["oracle"]["section_exists"] is False

    @pytest.mark.parametrize("name, matrices", [("corridor_open.json", 1), ("crossing_blocked.json", 2)])
    def test_the_oracle_builds_the_coboundary_and_no_restriction(self, capsys, monkeypatch, name, matrices):
        # the coboundary, plus the simplex's dual solve on NO_EVASION
        built, post_init = [], Matrix.__post_init__
        monkeypatch.setattr(Matrix, "__post_init__", lambda M: built.append(M) or post_init(M))
        code, report = run_cli(capsys, "check", "--oracle", fixture_path(name))
        assert report["oracle"] == {"section_exists": code == 0}
        assert len(built) == matrices

    @pytest.mark.parametrize("name, feasible", [("crossing_open.json", True), ("crossing_blocked.json", False)])
    def test_an_oracle_that_disagrees_is_an_error(self, capsys, monkeypatch, name, feasible):
        # a simplex that decides the other way round
        flipped = FeasibilityResult(certificate=()) if feasible else FeasibilityResult(witness=())
        monkeypatch.setattr(cli, "lp_positive_kernel", lambda matrix: flipped)
        assert run_cli(capsys, "check", "--oracle", fixture_path(name)) == (
            1,
            {
                "error": "the simplex cross-check disagrees with the decision",
                "decision_feasible": feasible,
                "simplex_feasible": not feasible,
            },
        )

    def test_a_plot_scans_each_distinct_fibre_once(self):
        # 81 cells share 2 fibres on pulsing n=40; a fibre's y extents are one pass over its owner array
        scans = []

        class Counted(array):
            def __iter__(self):
                scans.append(id(self))
                return super().__iter__()

        scene = pulsing_box_scene(40)
        fibres = geometry.scene_fibres(scene)
        distinct = {id(f): f for f in (*fibres[1], *fibres[2])}.values()
        for fibre in distinct:
            object.__setattr__(fibre, "owner", Counted(fibre.owner.typecode, fibre.owner))
        render_scene_svg(scene, fibres)
        assert sorted(scans) == sorted(id(fibre.owner) for fibre in distinct)

    def test_path_and_plot_outputs(self, capsys, tmp_path):
        path_file = tmp_path / "path.json"
        svg_file = tmp_path / "scene.svg"
        code, _ = run_cli(
            capsys,
            "check",
            "--path",
            str(path_file),
            "--plot",
            str(svg_file),
            fixture_path("crossing_open.json"),
        )
        assert code == 0
        payload = json.loads(path_file.read_text())
        assert payload["segments"]
        assert svg_file.read_text().startswith("<svg")

    def test_reports_are_deterministic_modulo_timing(self, capsys):
        _, first = run_cli(capsys, "check", fixture_path("crossing_open.json"))
        _, second = run_cli(capsys, "check", fixture_path("crossing_open.json"))
        first.pop("timing_ms")
        second.pop("timing_ms")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_fibres_are_timed_apart_from_validation(self, capsys):
        _, report = run_cli(capsys, "check", fixture_path("crossing_open.json"))
        assert set(report["timing_ms"]) == {"parse", "fibres", "validate", "build_sheaf", "lp", "path"}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check"], "evasion check: the following arguments are required: scene"),
        (["check", "--bogus", "scene.json"], "evasion: unrecognized arguments: --bogus"),
        *(
            (
                [command, "scene.json"],
                f"evasion: argument command: invalid choice: '{command}' (choose from 'check', 'sheaf', 'lp', 'matrix')",
            )
            for command in ("path", "oracle")  # `check --path` and `lp` do their work
        ),
        # `evasion sheaf` then `evasion matrix` print the coboundary
        (["check", "--matrix", "scene.json"], "evasion: unrecognized arguments: --matrix"),
        (["lp", "--matrix", "sheaf.json"], "evasion: unrecognized arguments: --matrix"),
    ],
)
def test_usage_errors_exit_one_with_one_json_report(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out) == {"error": message}
    assert captured.err == ""


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: evasion check")


# argparse's help texts at 80 columns, as written before `main` read each
# command's arguments with that command's own parser
HELP_TEXTS = {
    (): """\
usage: evasion [-h] {check,sheaf,lp,matrix} ...

Decide whether an evader can avoid a time-varying planar coverage region.

positional arguments:
  {check,sheaf,lp,matrix}
    check               full pipeline on a scene file
    sheaf               print the cone sheaf built from a scene
    lp                  global sections of an abstract sheaf file
    matrix              labelled coboundary of a sheaf file

options:
  -h, --help            show this help message and exit
""",
    ("check",): """\
usage: evasion check [-h] [--oracle] [--path OUT] [--plot OUT_SVG] scene

positional arguments:
  scene

options:
  -h, --help      show this help message and exit
  --oracle        cross-check the decision with the bounded simplex, meant for
                  small scenes (45 s on a pulsing scene with 2000 critical
                  times, against 0.06 s without it)
  --path OUT      write the evasion path JSON here
  --plot OUT_SVG  write an SVG rendering of gaps and path
""",
    ("sheaf",): """\
usage: evasion sheaf [-h] scene

positional arguments:
  scene

options:
  -h, --help  show this help message and exit
""",
    ("lp",): """\
usage: evasion lp [-h] sheaf

positional arguments:
  sheaf

options:
  -h, --help  show this help message and exit
""",
    ("matrix",): """\
usage: evasion matrix [-h] sheaf

positional arguments:
  sheaf

options:
  -h, --help  show this help message and exit
""",
}


@pytest.mark.parametrize("words", list(HELP_TEXTS), ids=lambda words: " ".join(("evasion", *words)))
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_texts_are_argparse_own_byte_for_byte(capsys, monkeypatch, words, flag):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal's width
    with pytest.raises(SystemExit) as exc:
        main([*words, flag])
    captured = capsys.readouterr()
    assert exc.value.code == 0
    assert captured.out == HELP_TEXTS[words]
    assert captured.err == ""


class _DeadStdout(io.StringIO):
    """A stdout whose writes raise `error`; it has no file descriptor."""

    def __init__(self, error: OSError):
        super().__init__()
        self.error = error
        self.writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        raise self.error


@pytest.mark.parametrize(
    "error, message",
    [
        (BrokenPipeError(errno.EPIPE, "Broken pipe"), ""),  # the reader has gone: a quiet end
        (OSError(errno.ENOSPC, "No space left on device"), "[Errno 28] No space left on device"),
    ],
    ids=["broken-pipe", "disk-full"],
)
@pytest.mark.parametrize("name", ["crossing_open.json", "crossing_blocked.json", "malformed"])
def test_a_report_that_cannot_be_written_ends_the_run_once(capsys, monkeypatch, tmp_path, error, message, name):
    if name == "malformed":  # its error report goes to the same dead stream
        (tmp_path / name).write_text('{"window": ')
        scene = str(tmp_path / name)
    else:
        scene = fixture_path(name)
    dead = _DeadStdout(error)
    monkeypatch.setattr(sys, "stdout", dead)
    assert main(["check", scene]) == 1
    assert dead.writes == 1  # no second report after the first failed write
    assert capsys.readouterr().err == (f"evasion: cannot write the report: {message}\n" if message else "")


def test_a_closed_stdout_is_named_once_on_stderr(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["check", fixture_path("crossing_open.json")]) == 1
    assert capsys.readouterr().err == "evasion: cannot write the report: stdout is closed\n"


@pytest.mark.parametrize("stdout", [None, _DeadStdout(OSError(errno.ENOSPC, "No space left on device"))])
def test_a_lost_report_with_stderr_closed_too_ends_quietly(monkeypatch, stdout):
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(sys, "stderr", None)
    assert main(["check", fixture_path("crossing_open.json")]) == 1


def _close_stdout() -> None:
    os.close(1)


def _limit_file_size() -> None:
    # CPython ignores SIGXFSZ, so a write past the limit fails with EFBIG
    resource.setrlimit(resource.RLIMIT_FSIZE, (0, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))


@pytest.mark.parametrize(
    "channel, stderr",
    [
        ("pipe", ""),
        ("closed", "evasion: cannot write the report: stdout is closed\n"),
        ("file-too-large", "evasion: cannot write the report: [Errno 27] File too large\n"),
    ],
)
def test_a_dead_channel_ends_the_process_without_a_traceback(tmp_path, channel, stderr):
    argv = [sys.executable, "-m", "evasion.cli", "check", fixture_path("crossing_open.json")]
    if channel == "pipe":  # the reader closed its end before the report was written
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
    elif channel == "closed":
        result = subprocess.run(argv, stderr=subprocess.PIPE, text=True, preexec_fn=_close_stdout)
    else:
        with (tmp_path / "report.json").open("w") as out:
            result = subprocess.run(argv, stdout=out, stderr=subprocess.PIPE, text=True, preexec_fn=_limit_file_size)
    assert (result.returncode, result.stderr) == (1, stderr)


# the Python-level ("call") and C-level ("c_call") calls of one warm
# in-process `evasion check`, sys.setprofile(None) included, on CPython
# 3.11.7; each bound is the count measured when it was set
FIXED_COST_BOUNDS = {"window-only": (187, 359), "random": (356, 658)}


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="another CPython minor version makes a different number of standard-library calls",
)
@pytest.mark.parametrize("name", list(FIXED_COST_BOUNDS))
def test_the_fixed_cost_of_a_check_is_counted_in_calls(tmp_path, name):
    if name == "window-only":
        scene = {"window": {"x": ["0", "1"], "y": ["0", "1"]}, "boxes": []}
    else:
        scene = scene_to_jsonable(random_scene(Random(1), 10))
    scene_file = tmp_path / "scene.json"
    scene_file.write_text(json.dumps(scene))
    events = Counter()

    def count(frame, event, arg):
        events[event] += 1

    argv = ["check", str(scene_file)]
    with redirect_stdout(io.StringIO()):
        main(argv)  # first use: the parser and the caches of a first check
        gc.collect()  # so that no finalizer of the caller's garbage runs, and counts, inside the check
        sys.setprofile(count)
        try:
            main(argv)
        finally:
            sys.setprofile(None)
    calls, c_calls = FIXED_COST_BOUNDS[name]
    assert events["call"] <= calls and events["c_call"] <= c_calls, events


class TestSheafRoundTrip:
    def test_sheaf_output_feeds_lp_with_identical_verdict(self, capsys, tmp_path):
        code, sheaf_json = run_cli(capsys, "sheaf", fixture_path("crossing_open.json"))
        assert code == 0
        ranks = {cell: len(stalk["labels"]) for cell, stalk in sheaf_json["stalks"].items()}
        assert ranks == {
            "e1": 1, "v1": 1, "e2": 2, "v2": 3, "e3": 3, "v3": 3, "e4": 2, "v4": 1, "e5": 1,
        }
        sheaf_file = tmp_path / "sheaf.json"
        sheaf_file.write_text(json.dumps(sheaf_json))
        code, lp_report = run_cli(capsys, "lp", str(sheaf_file))
        assert code == 0
        code, check_report = run_cli(capsys, "check", fixture_path("crossing_open.json"))
        assert lp_report["sections"]["witness"] == check_report["sections"]["witness"]

    def test_blocked_variant_differs_only_in_restrictions(self, capsys):
        _, open_sheaf = run_cli(capsys, "sheaf", fixture_path("crossing_open.json"))
        _, blocked_sheaf = run_cli(capsys, "sheaf", fixture_path("crossing_blocked.json"))
        assert open_sheaf["stalks"] == blocked_sheaf["stalks"]
        assert open_sheaf["restrictions"] != blocked_sheaf["restrictions"]

    def test_empty_scene_gives_rank_one_sheaf(self, capsys, tmp_path):
        scene = tmp_path / "empty.json"
        scene.write_text(json.dumps({"window": {"x": [0, 4], "y": [0, 4]}, "boxes": []}))
        code, sheaf_json = run_cli(capsys, "sheaf", str(scene))
        assert code == 0
        assert all(len(s["labels"]) == 1 for s in sheaf_json["stalks"].values())


class TestLp:
    def test_reversal_fixture_is_infeasible(self, capsys):
        code, report = run_cli(capsys, "lp", fixture_path("reversal.json"))
        assert code == 2
        assert report["sections"]["certificate"]

    def test_double_lens_fixture_is_feasible(self, capsys):
        code, report = run_cli(capsys, "lp", fixture_path("double_lens.json"))
        assert code == 0
        assert report["sections"]["kernel_dim"] == 3

    def test_nonfree_fixture_is_feasible_with_lambda_witness(self, capsys):
        code, report = run_cli(capsys, "lp", fixture_path("nonfree_feasible.json"))
        assert code == 0
        assert any(k.startswith("v1.") for k in report["sections"]["witness"]["support"])

    def test_cone_map_violation_names_the_incidence(self, capsys, tmp_path):
        bad = {
            "vertices": ["0"],
            "stalks": {
                "e1": {"labels": ["u"]},
                "v1": {"labels": ["a"]},
                "e2": {"labels": ["u"]},
            },
            "restrictions": [
                {"from": "v1", "to": "e1", "matrix": {"rows": 1, "cols": 1, "entries": ["-1"]}},
                {"from": "v1", "to": "e2", "matrix": {"rows": 1, "cols": 1, "entries": ["1"]}},
            ],
        }
        f = tmp_path / "bad_sheaf.json"
        f.write_text(json.dumps(bad))
        code, report = run_cli(capsys, "lp", str(f))
        assert code == 1
        (violation,) = report["violations"]
        assert (violation["vertex"], violation["edge"]) == ("v1", "e1")


SCENES = {
    **{name: load_fixture(name) for name in fixtures_with("window")},
    **{f"{name}={sizes[0]}": scene_to_jsonable(build(sizes[0])) for name, (build, _, sizes) in FAMILIES.items()},
}


@pytest.mark.parametrize("scene", SCENES.values(), ids=SCENES)
def test_matrix_prints_the_check_coboundary(capsys, tmp_path, scene):
    # `evasion matrix` is the one command that prints a coboundary; on the
    # sheaf of a scene it prints the matrix, rows and columns of the check
    scene_file, sheaf_file = tmp_path / "scene.json", tmp_path / "sheaf.json"
    scene_file.write_text(json.dumps(scene))
    code, sheaf = run_cli(capsys, "sheaf", str(scene_file))
    assert code == 0
    sheaf_file.write_text(json.dumps(sheaf))
    code, printed = run_cli(capsys, "matrix", str(sheaf_file))
    assert code == 0
    _, sections, _, _ = run_check(scene_from_jsonable(scene))
    expected = io.StringIO()
    write_json({"matrix": matrix_to_jsonable(sections.coboundary)}, expected)
    assert printed["matrix"] == json.loads(expected.getvalue())["matrix"]
    assert printed["rows"] == list(sections.row_names) and printed["columns"] == list(sections.column_names)


class TestMatrixOraclePath:
    def test_matrix_command_prints_labelled_coboundary(self, capsys, tmp_path):
        _, sheaf_json = run_cli(capsys, "sheaf", fixture_path("crossing_open.json"))
        f = tmp_path / "sheaf.json"
        f.write_text(json.dumps(sheaf_json))
        code, report = run_cli(capsys, "matrix", str(f))
        assert code == 0
        assert report["matrix"]["rows"] == 7 and report["matrix"]["cols"] == 8
        assert len(report["rows"]) == 7 and len(report["columns"]) == 8

    def test_lp_prints_the_sweep_chain_as_the_witness_support(self, capsys):
        # the chain's vertex generators, each at weight 1/k
        sections = sweep_sections(sheaf_from_jsonable(load_fixture("double_lens.json")))
        chain = section_chain(sections.sheaf, sections.chain)
        weight = format_rational(Fraction(1, sections.sheaf.strat.k))
        code, report = run_cli(capsys, "lp", fixture_path("double_lens.json"))
        assert code == 0
        assert report["sections"]["witness"]["support"] == {f"{cell}.{label}": weight for cell, label in chain[1::2]}

    def test_zero_restriction_columns_go_to_the_simplex(self, capsys, tmp_path):
        # v1->e2 and v2->e2 are zero, so e2 imposes nothing: a section exists
        def one(entry):
            return {"rows": 1, "cols": 1, "entries": [entry]}

        sheaf = {
            "vertices": ["0", "1"],
            "stalks": {cell: {"labels": ["a"]} for cell in ("e1", "v1", "e2", "v2", "e3")},
            "restrictions": [
                {"from": "v1", "to": "e1", "matrix": one("1")},
                {"from": "v1", "to": "e2", "matrix": one("0")},
                {"from": "v2", "to": "e2", "matrix": one("0")},
                {"from": "v2", "to": "e3", "matrix": one("1")},
            ],
        }
        f = tmp_path / "zero_columns.json"
        f.write_text(json.dumps(sheaf))
        code, report = run_cli(capsys, "lp", str(f))
        assert code == 0 and report["verdict"] == "EVASION"
        with pytest.raises(UnsupportedSheafError, match="v1->e2 column 0"):
            sweep_sections(sheaf_from_jsonable(sheaf))

    @pytest.mark.parametrize("name", fixtures_with("window"))
    def test_path_and_check_write_the_same_path(self, capsys, tmp_path, name):
        # the path file holds the bytes of the report's path, written alone
        path_file = tmp_path / "path.json"
        code, report = run_cli(capsys, "check", fixture_path(name), "--path", str(path_file))
        if code == 0:
            written = io.StringIO()
            write_json(report["path"], written)
            assert path_file.read_text() == written.getvalue()
        else:
            assert code == 2 and "path" not in report and not path_file.exists()


# ---------------------------------------------------------------------------
# one pass of the pipeline: the fibres are built once and handed on

PIPELINE_SCENES = [
    pytest.param(lambda: pulsing_box_scene(20), id="pulsing"),
    pytest.param(lambda: comb_scene(4), id="comb"),
    *(
        pytest.param(lambda name=name: scene_from_jsonable(load_fixture(name)), id=name)
        for name in fixtures_with("window")
    ),
]


@pytest.mark.parametrize("make", PIPELINE_SCENES)
def test_check_and_path_never_hash_the_scene(capsys, tmp_path, monkeypatch, make):
    scene = make()
    scene_file = tmp_path / "scene.json"
    scene_file.write_text(json.dumps(scene_to_jsonable(scene)))

    def unhashable(self):
        raise AssertionError("the pipeline hashed the scene")

    monkeypatch.setattr(Scene, "__hash__", unhashable)
    _, sections, path, _ = run_check(scene)
    assert (path is not None) is sections.decision.feasible
    code, report = run_cli(capsys, "check", "--path", str(tmp_path / "path.json"), str(scene_file))
    assert code == (0 if path is not None else 2), report


@pytest.mark.parametrize("command", ["check", "path"])
@pytest.mark.parametrize("name", ["crossing_open.json", "crossing_blocked.json"])
def test_a_check_builds_and_validates_the_fibres_once(capsys, tmp_path, monkeypatch, command, name):
    calls = Counter()

    def counting(fn_name):
        fn = getattr(geometry, fn_name)

        def counted(*args):
            calls[fn_name] += 1
            return fn(*args)

        return counted

    for fn_name in ("scene_fibres", "validate_fibres"):
        monkeypatch.setattr(geometry, fn_name, counting(fn_name))
    code, _ = run_cli(capsys, *scene_command(command, tmp_path), fixture_path(name))
    assert code in (0, 2)
    assert calls == {"scene_fibres": 1, "validate_fibres": 1}


@pytest.mark.parametrize(
    "scene, expected",
    [(comb_scene(24), 602), (blocked_scene(400), 2)],
    ids=["comb", "blocked"],
)
def test_a_check_builds_no_component_objects(monkeypatch, scene, expected):
    # a check reads component counts and restriction targets off the owner
    # arrays; the component objects are built only when a reader asks
    built = []
    make = geometry.GapComponent
    monkeypatch.setattr(geometry, "GapComponent", lambda *args: built.append(args) or make(*args))
    fibres, sections, path, _ = run_check(scene)
    assert built == []
    assert (path is not None) is sections.decision.feasible is (expected == 602)
    times, vertex_fibres, edge_fibres = fibres
    distinct = {id(f): f for f in (*vertex_fibres, *edge_fibres)}
    assert sum(len(f.components) for f in distinct.values()) == len(built) == expected


@pytest.mark.parametrize("command", ["check", "path", "sheaf"])
def test_empty_interior_window_is_one_input_error(capsys, tmp_path, command):
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({"window": {"x": [3, 3], "y": [0, 5]}, "boxes": []}))
    assert run_cli(capsys, *scene_command(command, tmp_path), str(flat)) == (1, {"error": "window has empty interior"})


def test_plot_of_a_box_free_scene_draws_no_critical_time(capsys, tmp_path):
    scene_file, svg_file = tmp_path / "empty.json", tmp_path / "empty.svg"
    scene_file.write_text(json.dumps({"window": {"x": [0, 5], "y": [0, 5]}, "boxes": []}))
    code, _ = run_cli(capsys, "check", "--plot", str(svg_file), str(scene_file))
    assert code == 0
    svg = svg_file.read_text()
    # the synthetic t=0 vertex is drawn as a gap cell, not as a dashed line
    assert "stroke-dasharray" not in svg
    assert svg.count('fill="#9fd49f"') == 3


def test_plot_skips_a_box_outside_the_drawn_time_range(capsys, tmp_path):
    # the second box lies outside the window, so it makes no critical time and falls past t=3
    scene = {
        "window": {"x": [0, 5], "y": [0, 5]},
        "boxes": [{"t": [1, 2], "x": [0, 1], "y": [0, 1]}, {"t": [100, 101], "x": [6, 7], "y": [0, 1]}],
    }
    scene_file, svg_file = tmp_path / "far.json", tmp_path / "far.svg"
    scene_file.write_text(json.dumps(scene))
    code, _ = run_cli(capsys, "check", "--plot", str(svg_file), str(scene_file))
    assert code == 0
    assert svg_file.read_text().count('fill="#5a5a5a"') == 1


def test_the_readme_lists_every_subcommand():
    # the README's command block names exactly the subcommands the parser has
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    named = {line.split()[1] for line in block.splitlines() if line.startswith("evasion ")}
    (subcommands,) = (a.choices for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert named == set(subcommands)


def test_module_entry_point_runs(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "evasion.cli", "check", fixture_path("crossing_open.json")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["verdict"] == "EVASION"


def test_path_json_round_trip():
    from evasion.certify import verify_evasion_path
    from evasion.cli import path_to_jsonable
    from evasion.formats import path_from_jsonable, scene_from_jsonable
    from evasion.geometry import build_sheaf, extract_path, scene_fibres
    from evasion.sheaf import global_sections

    from conftest import load_fixture

    scene = scene_from_jsonable(load_fixture("crossing_open.json"))
    path = extract_path(scene, scene_fibres(scene), global_sections(build_sheaf(scene)))
    rebuilt = path_from_jsonable(json.loads(json.dumps(path_to_jsonable(path))))
    assert rebuilt.segments == path.segments
    verify_evasion_path(scene, rebuilt)


def test_rational_parsing_round_trip():
    from fractions import Fraction

    import pytest

    from evasion.formats import format_rational, parse_rational

    for text in ("3", "-7", "5/3", "-22/7"):
        assert format_rational(parse_rational(text)) == text
    # past the digits `str` writes an int in, both forms are still written out
    assert format_rational(Fraction(10**4300)) == "1" + "0" * 4300
    assert format_rational(Fraction(1, 10**4300)) == "1/1" + "0" * 4300
    assert parse_rational(4) == Fraction(4)
    # any string Fraction reads exactly is accepted, not only "p" and "p/q"
    for text, value in (("4.5", Fraction(9, 2)), ("1e1", 10), ("1_000", 1000), (" 2 ", 2)):
        assert parse_rational(text) == value
    for bad in (1.5, True, "x", "1/0", None):
        with pytest.raises(ValueError):
            parse_rational(bad)


def _read_by_fraction(text: str):
    """The value `Fraction` reads from a literal with no exponent, or the
    message `parse_rational` gives when it reads none: the literal quoted
    whole up to 100 characters, else its first 100 and its length."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        echo = repr(text) if len(text) <= 100 else f"{text[:100]!r}... ({len(text)} characters)"
        return f"unsupported rational literal: {echo}"


def _read_by_parser(text: str):
    try:
        value = parse_rational(text)
    except ValueError as exc:
        return str(exc)
    assert type(value) is Fraction
    return value


INTEGER_LIKE_LITERALS = [
    "0", "-0", "007", "-007", "+5", " 2 ", "1_000", "-", "", "--5", "-+5", "5-",
    "\u0663", "-\u0663", "\u00b2", "9" * 4300, "-" + "9" * 4300, "9" * 4301, "-" + "9" * 4301,
    "9" * 99 + "-", "9" * 100 + "-",  # quoted whole at 100 characters, by prefix and length past it
]


@pytest.mark.parametrize(
    "text", INTEGER_LIKE_LITERALS, ids=lambda text: ascii(text) if len(text) < 9 else f"{text[:2]}_{len(text)}_chars"
)
def test_integer_literals_read_as_fraction_reads_them(text):
    assert _read_by_parser(text) == _read_by_fraction(text)


@given(
    st.sampled_from(["", "-", "+"]),
    st.text("0123456789", max_size=80) | st.text(st.characters(categories=["Nd", "No"]), max_size=4),
)
@settings(max_examples=300, deadline=None)
def test_signed_digit_strings_read_as_fraction_reads_them(sign, digits):
    text = sign + digits
    assert _read_by_parser(text) == _read_by_fraction(text)


def test_check_plot_builds_the_fibres_once(capsys, monkeypatch, tmp_path):
    scene_file = tmp_path / "pulsing.json"
    scene_file.write_text(json.dumps(scene_to_jsonable(pulsing_box_scene(400))))
    build, calls = geometry.scene_fibres, []

    def counted(scene):
        calls.append(scene)
        return build(scene)

    monkeypatch.setattr(geometry, "scene_fibres", counted)
    code, _ = run_cli(capsys, "check", "--plot", str(tmp_path / "pulsing.svg"), str(scene_file))
    assert code == 0
    assert len(calls) == 1
    assert (tmp_path / "pulsing.svg").read_text().startswith("<svg")


def test_plot_renders_without_a_path_on_blocked_scenes(capsys, tmp_path):
    svg_file = tmp_path / "blocked.svg"
    code, _ = run_cli(capsys, "check", "--plot", str(svg_file), fixture_path("crossing_blocked.json"))
    assert code == 2
    assert svg_file.read_text().startswith("<svg")


def test_malformed_scene_schema_is_a_clean_input_error(capsys, tmp_path):
    bad = tmp_path / "missing_keys.json"
    bad.write_text(json.dumps({"window": {"x": [0, 9], "y": [0, 9]}, "boxes": [{"t": [0, 1]}]}))
    code, report = run_cli(capsys, "check", str(bad))
    assert code == 1
    assert "malformed scene" in report["error"]


def test_malformed_sheaf_schema_is_a_clean_input_error(capsys, tmp_path):
    bad = tmp_path / "missing_matrix.json"
    bad.write_text(
        json.dumps(
            {
                "vertices": ["0"],
                "stalks": {"e1": {"labels": ["s"]}, "v1": {"labels": ["s"]}, "e2": {"labels": ["s"]}},
                "restrictions": [{"from": "v1", "to": "e1"}],
            }
        )
    )
    code, report = run_cli(capsys, "lp", str(bad))
    assert code == 1
    assert "malformed sheaf" in report["error"]


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda path: None, "[Errno 2] No such file or directory: '{}'"),
        (lambda path: path.mkdir(), "[Errno 21] Is a directory: '{}'"),
        (
            lambda path: path.write_bytes(b'\xef\xbb\xbf{"window": 1}'),
            "malformed JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)",
        ),
    ],
    ids=["missing", "directory", "byte-order-mark"],
)
@pytest.mark.parametrize("command", ["check", "sheaf", "lp", "matrix"])
def test_an_unreadable_input_keeps_its_message(capsys, tmp_path, make, message, command):
    path = tmp_path / "input.json"
    make(path)
    code, report = run_cli(capsys, command, str(path))
    assert code == 1
    assert report["error"] == message.format(path)
    if "JSON" in message:  # as `json.loads` refuses it
        assert report["location"] == {"line": 1, "column": 1}


@pytest.mark.parametrize("command", ["check", "lp"])
def test_json_nested_too_deeply_to_parse_is_malformed(capsys, tmp_path, command):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 200_000 + "]" * 200_000)
    code, report = run_cli(capsys, command, str(bad))
    assert code == 1
    assert report["error"].startswith("malformed JSON")


@pytest.mark.parametrize(
    "command, text, column",
    [
        # the location is the number's first character, its sign included; a long
        # fraction or string before it is no integer
        ("check", '{"window": {"x": [0, 1.N, "N"],\n "y": [0, -N]}, "boxes": []}', 11),
        ("lp", '{"vertices": ["0"],\n "stalks": {"e1": {"labels": [N]}}, "restrictions": []}', 31),
    ],
    ids=["check", "lp"],
)
def test_an_integer_past_the_digit_limit_is_located_malformed_json(capsys, tmp_path, command, text, column):
    bad = tmp_path / "long_integer.json"
    bad.write_text(text.replace("N", "9" * 5000))
    code, report = run_cli(capsys, command, str(bad))
    assert code == 1
    assert report["error"] == "malformed JSON: an integer of 5000 digits exceeds the 4300-digit limit"
    assert report["location"] == {"line": 2, "column": column}


def test_sheaf_labels_must_be_a_list(capsys, tmp_path):
    bad = tmp_path / "string_labels.json"
    bad.write_text(
        json.dumps(
            {
                "vertices": [],
                "stalks": {"e1": {"labels": "ab"}},
                "restrictions": [],
            }
        )
    )
    code, report = run_cli(capsys, "lp", str(bad))
    assert code == 1
    assert "e1" in report["error"] and "list" in report["error"]


@pytest.mark.parametrize(
    "box, axis",
    [
        ({"t": [2, 1], "x": [0, 4], "y": [0, 4]}, "t"),  # read as a box alive at no time
        ({"t": [1, 2], "x": [4, 0], "y": [0, 4]}, "x"),  # read as a box covering nothing
    ],
)
def test_reversed_box_interval_is_rejected(capsys, tmp_path, box, axis):
    bad = tmp_path / "reversed.json"
    bad.write_text(json.dumps({"window": {"x": [0, 4], "y": [0, 4]}, "boxes": [box]}))
    code, report = run_cli(capsys, "check", str(bad))
    assert code == 1
    assert f"box 0 {axis} interval" in report["error"] and "reversed" in report["error"]


@pytest.mark.parametrize(
    "window, box, message",
    [
        ({"x": [0, 4], "y": [0, 4]}, {"t": ["1/3", "1/4"], "x": [0, 1], "y": [0, 1]}, "box 0 t interval [1/3, 1/4]"),
        ({"x": [0, 4], "y": [0, 4]}, {"t": [0, 1], "x": [0, 1], "y": ["-1/3", "-1/2"]}, "box 0 y interval [-1/3, -1/2]"),
        ({"x": ["7/2", "10/3"], "y": [0, 4]}, None, "window x interval [7/2, 10/3]"),
        ({"x": [0, 4], "y": [0, 4]}, {"t": [2, "3/2"], "x": [0, 1], "y": [0, 1]}, "box 0 t interval [2, 3/2]"),
    ],
    ids=["tied-integer-parts", "negative-ends", "window", "integer-and-fraction"],
)
def test_reversed_intervals_keep_their_messages(window, box, message):
    data = {"window": window, "boxes": [] if box is None else [box]}
    with pytest.raises(ValueError) as exc:
        scene_from_jsonable(data)
    assert str(exc.value) == f"{message} is reversed"


def test_equal_interval_ends_are_accepted():
    data = {"window": {"x": [0, 4], "y": [0, 4]}, "boxes": [{"t": ["1/3", "2/6"], "x": ["-1/2", "-1/2"], "y": [0, 4]}]}
    box = scene_from_jsonable(data).boxes[0]
    assert box.t == (Fraction(1, 3), Fraction(1, 3)) and box.x == (Fraction(-1, 2), Fraction(-1, 2))


def test_reading_a_scene_compares_no_fractions(monkeypatch):
    # interval ends are ordered by cross-multiplying their integer ratios
    data = json.loads(json.dumps(scene_to_jsonable(pulsing_box_scene(400))))
    calls = []
    richcmp = Fraction._richcmp
    monkeypatch.setattr(Fraction, "_richcmp", lambda a, b, op: calls.append(op) or richcmp(a, b, op))
    scene = scene_from_jsonable(data)
    assert (len(calls), len(scene.boxes)) == (0, 200)


def test_each_distinct_literal_string_is_parsed_once(monkeypatch):
    # 200 boxes and the window hold 1204 literals, 401 of them distinct; every
    # distinct literal string enters the memo's __missing__, integers included
    data = json.loads(json.dumps(scene_to_jsonable(pulsing_box_scene(400))))
    calls = []
    missing = formats._Literals.__missing__

    def counted(memo, literal):
        calls.append(literal)
        return missing(memo, literal)

    monkeypatch.setattr(formats._Literals, "__missing__", counted)
    assert scene_from_jsonable(data) == pulsing_box_scene(400)
    assert len(calls) == len(set(calls)) == 401


LONG_INTEGER = "9" * 4300


@pytest.mark.parametrize(
    "literal, outcome",
    [
        ("0", Fraction(0)),
        ("-0", Fraction(0)),
        ("007", Fraction(7)),
        ("+3", Fraction(3)),
        (" 2 ", Fraction(2)),
        ("1_000", Fraction(1000)),
        ("\u0663", Fraction(3)),  # ARABIC-INDIC DIGIT THREE, read by Fraction, not as a plain integer
        (LONG_INTEGER, Fraction(int(LONG_INTEGER))),
        (LONG_INTEGER + "9", f"unsupported rational literal: {'9' * 100!r}... (4301 characters)"),
        ("1/2", Fraction(1, 2)),
        ("4.5", Fraction(9, 2)),
        ("1e1", Fraction(10)),
        ("1e1.5", "unsupported rational literal: '1e1.5'"),
        ("1/0", "unsupported rational literal: '1/0'"),
        ("", "unsupported rational literal: ''"),
    ],
    ids=[
        "zero", "minus-zero", "leading-zeros", "plus", "spaces", "underscore", "arabic-indic", "4300-digits",
        "4301-digits", "fraction", "decimal", "exponent", "fractional-exponent", "zero-denominator", "empty",
    ],
)
def test_a_scene_literal_reads_as_parse_rational_reads_it(literal, outcome):
    # the t interval holds the literal twice; the x interval orders it after -1/2 by its integer ratio
    box = {"t": [literal, literal], "x": ["-1/2", literal], "y": ["0", "1"]}
    data = {"window": {"x": ["0", "9"], "y": ["0", "9"]}, "boxes": [box]}
    if isinstance(outcome, str):
        with pytest.raises(ValueError) as exc:
            parse_rational(literal)
        assert str(exc.value) == outcome
        with pytest.raises(ValueError) as exc:
            scene_from_jsonable(data)
        assert str(exc.value) == f"box 0 t: {outcome}"
    else:
        assert parse_rational(literal) == outcome
        read = scene_from_jsonable(data).boxes[0]
        assert (read.t, read.x) == ((outcome, outcome), (Fraction(-1, 2), outcome))
        assert all(type(end) is Fraction for end in (*read.t, *read.x))


WINDOW = {"x": ["0", "4"], "y": ["0", "4"]}
GOOD_BOX = {"t": ["1", "2"], "x": ["0", "1"], "y": ["0", "1"]}


@pytest.mark.parametrize(
    "boxes, window, message",
    [
        (
            [{**GOOD_BOX, "t": ["2", "1"], "y": ["0", "1/0"]}],
            WINDOW,
            "box 0 t interval [2, 1] is reversed",
        ),
        (
            [{**GOOD_BOX, "t": ["1/0", "2"], "x": ["1", "0"]}],
            WINDOW,
            "box 0 t: unsupported rational literal: '1/0'",
        ),
        (
            [GOOD_BOX, {"t": ["1", "2"], "y": ["0", "1"]}],
            {**WINDOW, "x": ["0", "four"]},
            "malformed scene JSON: box 1 has no 'x'",
        ),
        (
            [GOOD_BOX, GOOD_BOX, {**GOOD_BOX, "y": ["1", "0"]}],
            {"x": ["0", "4"]},
            "box 2 y interval [1, 0] is reversed",
        ),
    ],
    ids=["reversed-t-before-bad-y", "bad-t-before-reversed-x", "missing-field-before-bad-window", "last-box-first"],
)
def test_the_first_fault_in_reading_order_is_named(capsys, tmp_path, boxes, window, message):
    # each file holds two faults; a box is read whole, t then x then y, and the window last
    bad = tmp_path / "two_faults.json"
    bad.write_text(json.dumps({"window": window, "boxes": boxes}))
    code, report = run_cli(capsys, "check", str(bad))
    assert (code, report["error"]) == (1, message)


@pytest.mark.parametrize(
    "later, outcome",
    [
        (1, (Fraction(1), Fraction(2))),
        (1.0, "box 1 t: unsupported rational value: 1.0 (floats are not accepted)"),
        (True, "box 1 t: not a rational: True"),
    ],
    ids=["int", "float", "bool"],
)
def test_a_number_equal_to_an_earlier_literal_string_is_read_on_its_own(later, outcome):
    # "1", 1, 1.0 and True hash alike; only the string is memoised
    box = {"t": ["1", "2"], "x": ["1", "2"], "y": ["1", "2"]}
    data = {"window": {"x": ["0", "9"], "y": ["0", "9"]}, "boxes": [box, {**box, "t": [later, "2"]}]}
    if isinstance(outcome, str):
        with pytest.raises(ValueError) as exc:
            scene_from_jsonable(data)
        assert str(exc.value) == outcome
    else:
        assert scene_from_jsonable(data).boxes[1].t == outcome


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda children: st.lists(children) | st.lists(children).map(tuple) | st.dictionaries(st.text(), children),
    max_leaves=25,
)


# a flat object of string values shaped like a pulsing path's chain: e1..e401 and v1..v400
CHAIN_LIKE = {f"{'v' if n % 2 else 'e'}{n // 2 + 1}": f"c{n % 3}" for n in range(801)}


@given(JSON_VALUES)
@example(CHAIN_LIKE)
@example({"a": "x", "b": 1, "c": "y"})  # a string value first by key, then not: the per-key fallback
@example({"a": "1", "A": "2", "a\u0000": "3", "\u00e9": "4", "\u00e9\"": ["5"]})  # code-point order, escaped keys
@example(["a", 1])
@example({"a": "x", "b": [1], "": {}})
@example({"\u00e9\"\n": ["\x00", "\u2603", "\U0001f600"], "z": ()})
@example([[], {}, (), ""])
@settings(max_examples=200, deadline=None)
def test_the_writer_writes_the_bytes_of_json_dumps(value):
    out = io.StringIO()
    write_json(value, out)
    assert out.getvalue() == json.dumps(value, indent=2, sort_keys=True)


class _Count(int):
    """An int subclass, which the writer hands to `json.dumps`."""


def test_numbers_and_literals_are_written_as_json_dumps_writes_them():
    numbers = [0, -1, 10**30, 0.1, 1e16, 1e-7, -0.0, True, False, None]
    fallback = [float("nan"), float("inf"), float("-inf"), _Count(7)]
    value = {"numbers": numbers, "nested": [{"n": numbers}, [numbers, tuple(numbers)]], "fallback": fallback}
    for v in (value, *numbers, *fallback):
        out = io.StringIO()
        write_json(v, out)
        assert out.getvalue() == json.dumps(v, indent=2, sort_keys=True)


@given(st.integers(0, 4), st.integers(0, 4), st.data())
@settings(max_examples=100, deadline=None)
def test_dense_entries_are_written_as_the_dense_list(rows, cols, data):
    values = data.draw(st.lists(st.fractions(-3, 3, max_denominator=3), min_size=rows * cols, max_size=rows * cols))
    M = Matrix(rows, cols, tuple({j: v for j, v in enumerate(values[i * cols : (i + 1) * cols]) if v} for i in range(rows)))
    out = io.StringIO()
    write_json({"matrix": matrix_to_jsonable(M), "after": [1]}, out)
    dense = {"rows": rows, "cols": cols, "entries": [format_rational(v) for v in values]}
    assert out.getvalue() == json.dumps({"matrix": dense, "after": [1]}, indent=2, sort_keys=True)


def test_a_dense_matrix_is_written_one_row_at_a_time(tmp_path):
    # comb m=12's coboundary has about 100,000 entries, nearly all "0"
    scene_file, sheaf_file, report = tmp_path / "comb.json", tmp_path / "sheaf.json", tmp_path / "report.json"
    scene_file.write_text(json.dumps(scene_to_jsonable(comb_scene(12))))
    with sheaf_file.open("w") as out, redirect_stdout(out):
        assert main(["sheaf", str(scene_file)]) == 0
    with redirect_stdout(io.StringIO()):
        main(["matrix", str(sheaf_file)])  # first use: the parser and its caches
    with report.open("w") as out, redirect_stdout(out):
        tracemalloc.start()
        try:
            code = main(["matrix", str(sheaf_file)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == 0
    assert json.loads(report.read_text())["matrix"]["rows"] > 200
    assert peak < report.stat().st_size / 2


@pytest.mark.parametrize("collector", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize(
    "scene, code",
    [("crossing_open.json", 0), ("crossing_blocked.json", 2), (None, 1)],
    ids=["evasion", "no-evasion", "malformed"],
)
def test_main_leaves_the_collector_as_it_found_it(capsys, tmp_path, collector, scene, code):
    if scene is None:
        path = tmp_path / "broken.json"
        path.write_text('{"window": ')
    else:
        path = fixture_path(scene)
    was = gc.isenabled()
    (gc.enable if collector else gc.disable)()
    try:
        assert main(["check", str(path)]) == code
        assert gc.isenabled() is collector
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


def _collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def test_a_check_runs_no_collection_and_leaves_no_growing_garbage(tmp_path, monkeypatch):
    files = []
    for n in (40, 400):
        files.append(tmp_path / f"pulsing{n}.json")
        files[-1].write_text(json.dumps(scene_to_jsonable(pulsing_box_scene(n))))
    emitted = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda payload: (emit(payload), emitted.append(_collections())))
    assert gc.isenabled()
    with redirect_stdout(io.StringIO()):
        main(["check", str(files[0])])  # first use: the parser and its caches
        gc.collect()  # so that the few allocations before main cannot set off a collection
        before = _collections()
        assert main(["check", str(files[1])]) == 0
    # pulsing n=400 sets off several collections when the collector is left on
    assert emitted[-1] == before
    left = []
    gc.disable()
    try:
        gc.collect()
        for scene_file in files:
            with redirect_stdout(io.StringIO()):
                main(["check", str(scene_file)])
            left.append(gc.collect())
    finally:
        gc.enable()
    assert left[0] == left[1]


def test_the_writer_leaves_no_reference_cycle():
    _, sections, path, _ = run_check(pulsing_box_scene(40))
    payload = {
        "sections": sections_to_jsonable(sections) | {"matrix": matrix_to_jsonable(sections.coboundary)},
        "path": path_to_jsonable(path),
    }
    gc.disable()
    try:
        gc.collect()
        write_json(payload, io.StringIO())
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_report_formats_no_label_pairs():
    # the report's names come straight from the cell ids and stalk labels
    _, sections, path, _ = run_check(pulsing_box_scene(40))
    report = sections_to_jsonable(sections)
    path_to_jsonable(path)
    assert report["columns"] is sections.column_names and report["rows"] is sections.row_names
    assert "row_labels" not in vars(sections) and "column_labels" not in vars(sections)


def _one_vertex_sheaf(v1_labels, entries):
    cols = len(v1_labels)
    return {
        "vertices": ["0"],
        "stalks": {"e1": {"labels": ["u"]}, "v1": {"labels": v1_labels}, "e2": {"labels": ["u"]}},
        "restrictions": [
            {"from": "v1", "to": "e1", "matrix": {"rows": 1, "cols": cols, "entries": entries}},
            {"from": "v1", "to": "e2", "matrix": {"rows": 1, "cols": cols, "entries": ["1"] * cols}},
        ],
    }


def _without(sheaf, *path):
    # a copy of the sheaf with the field at `path` removed
    sheaf = json.loads(json.dumps(sheaf))
    *parents, last = path
    node = sheaf
    for key in parents:
        node = node[key]
    del node[last]
    return sheaf


def _with_v1_stalk(stalk):
    sheaf = _one_vertex_sheaf(["a"], ["1"])
    sheaf["stalks"]["v1"] = stalk
    return sheaf


def _with_stalks(sheaf, **stalks):
    sheaf["stalks"].update(stalks)
    return sheaf


def _restricted_twice(sheaf: dict) -> dict:
    sheaf["restrictions"].append(sheaf["restrictions"][0])
    return sheaf


@pytest.mark.parametrize(
    "sheaf, named",
    [
        (_one_vertex_sheaf(["a", "a"], ["1", "1"]), ["v1", "'a'"]),  # two columns named v1.a
        (_one_vertex_sheaf(["a"], "1"), ["v1->e1", "entries", "list"]),  # a string read per character
        (_one_vertex_sheaf(["a"], ["1", "0"]), ["v1->e1", "1x1", "2"]),
        ({**_one_vertex_sheaf(["a"], ["1"]), "vertices": "0"}, ["vertices", "list"]),
        (_without(_one_vertex_sheaf(["a"], ["1"]), "restrictions", 0, "from"), ["restriction 0", "'from'"]),
        (
            _without(_one_vertex_sheaf(["a"], ["1"]), "restrictions", 1, "matrix", "rows"),
            ["restriction v1->e2", "'rows'"],
        ),
        ({**_one_vertex_sheaf(["a"], ["1"]), "restrictions": {}}, ["restrictions", "list"]),
        (_with_v1_stalk(["a"]), ["stalk over v1", "object"]),
        (
            _with_v1_stalk({"labels": ["a", "b"], "generators": [["1"]]}),
            ["stalk over v1", "labels must parallel generators"],
        ),
        (_with_v1_stalk({"labels": ["a"], "generators": [["0"]]}), ["stalk over v1", "zero vector"]),
        # a second v1 stalk would silently replace the first
        pytest.param(
            json.dumps(_one_vertex_sheaf(["a"], ["1"])).replace('"e2": {', '"v1": {"labels": ["b"]}, "e2": {'),
            ["malformed JSON", "duplicate key", "'v1'"],
            id="duplicate-key",
        ),
        # a rational that does not parse names its vertex or stalk
        pytest.param(
            {**_one_vertex_sheaf(["a"], ["1"]), "vertices": ["x"]}, ["vertex v1", "'x'"], id="vertex-time-not-rational"
        ),
        pytest.param(
            _with_v1_stalk({"labels": ["a"], "generators": [["1/0"]]}),
            ["generators of the stalk over v1", "'1/0'"],
            id="generator-zero-denominator",
        ),
        pytest.param(
            _with_v1_stalk({"labels": ["a"], "generators": [[1.5]]}),
            ["generators of the stalk over v1", "float"],
            id="generator-float",
        ),
        pytest.param(
            {**_one_vertex_sheaf(["a"], ["1"]), "stalks": []},
            ["malformed sheaf JSON: stalks must be an object, got []"],
            id="stalks-not-an-object",
        ),
        pytest.param(
            _restricted_twice(_one_vertex_sheaf(["a"], ["1"])),
            ["duplicate restriction v1->e1"],
            id="duplicate-restriction",
        ),
        pytest.param(
            _with_v1_stalk({"labels": ["a"], "generators": [["1", "0"]], "ambient_dim": 1}),
            ["the stalk over v1: generator dimension mismatch"],
            id="generator-dimension",
        ),
        *(
            pytest.param(
                _with_v1_stalk({"labels": ["a"], "generators": [["1"]], "ambient_dim": dim}),
                [f"ambient_dim of the stalk over v1 must be a non-negative integer, got {dim!r}"],
                id=f"ambient-dim-{dim}",
            )
            for dim in (-1, True)
        ),
        # stalks for a second vertex and a third edge would be silently ignored
        pytest.param(
            _with_stalks(_one_vertex_sheaf(["a"], ["1"]), v2={"labels": ["a"]}, e3={"labels": ["u"]}),
            ["stalks for cells the stratification lacks: v2, e3"],
            id="stalks-for-missing-cells",
        ),
    ],
)
def test_ambiguous_sheaf_json_is_rejected(capsys, tmp_path, sheaf, named):
    bad = tmp_path / "ambiguous.json"
    bad.write_text(sheaf if isinstance(sheaf, str) else json.dumps(sheaf))
    code, report = run_cli(capsys, "lp", str(bad))
    assert code == 1
    assert all(part in report["error"] for part in named), report["error"]


def _violation(vertex, edge, generator, message) -> dict:
    return {"vertex": vertex, "edge": edge, "generator": generator, "message": message}


# the line spanned by v1's generators is no positive cone, and it maps v1.b to -1 in both edges
LINE_OVER_V1 = _with_v1_stalk({"labels": ["a", "b"], "generators": [["1"], ["-1"]]})
LINE_OVER_E1 = _with_stalks(_one_vertex_sheaf(["a"], ["1"]), e1={"labels": ["u", "w"], "generators": [["1"], ["-1"]]})


@pytest.mark.parametrize("command", ["lp", "matrix"])
@pytest.mark.parametrize(
    "sheaf, violations",
    [
        pytest.param(
            LINE_OVER_V1,
            [
                _violation("v1", None, None, "stalk over v1 is not a positive cone"),
                _violation("v1", "e1", "b", "image of v1.b under v1->e1 leaves the edge cone"),
                _violation("v1", "e2", "b", "image of v1.b under v1->e2 leaves the edge cone"),
            ],
            id="vertex-stalk-and-images",
        ),
        pytest.param(
            LINE_OVER_E1, [_violation(None, "e1", None, "stalk over e1 is not a positive cone")], id="edge-stalk"
        ),
    ],
)
def test_a_sheaf_validation_failure_is_one_whole_report(capsys, tmp_path, command, sheaf, violations):
    bad = tmp_path / "faulty.json"
    bad.write_text(json.dumps(sheaf))
    assert run_cli(capsys, command, str(bad)) == (1, {"error": "sheaf validation failed", "violations": violations})


@pytest.mark.parametrize(
    "times, message",
    [
        (["0", "2", "1"], "v3 (1) is not after v2 (2)"),
        (["0", "1/2", "2/4"], "v3 (1/2) is not after v2 (1/2)"),
    ],
    ids=["decreasing", "repeated"],
)
def test_sheaf_vertex_times_out_of_order_are_named(capsys, tmp_path, times, message):
    # the reader checks the order of the times it reads; a Stratification does not
    stalks = {f"{'v' if n % 2 else 'e'}{n // 2 + 1}": {"labels": ["a"]} for n in range(2 * len(times) + 1)}
    one = {"rows": 1, "cols": 1, "entries": ["1"]}
    restrictions = [
        {"from": f"v{i}", "to": f"e{j}", "matrix": one} for i in range(1, len(times) + 1) for j in (i, i + 1)
    ]
    bad = tmp_path / "unordered.json"
    bad.write_text(json.dumps({"vertices": times, "stalks": stalks, "restrictions": restrictions}))
    code, report = run_cli(capsys, "lp", str(bad))
    assert (code, report) == (1, {"error": f"vertex times must be strictly increasing: {message}"})


def _sheaf_declaring(size: int, fault: str) -> dict:
    """A sheaf file of a few hundred bytes that declares `size` rows it does not spell out."""

    def flat(rows: int) -> dict:
        return {"rows": rows, "cols": 0, "entries": []}

    if fault == "generator-free-stalk":  # e2 is {0} in a space of `size` coordinates
        cells = {"e1": ["u"], "v1": [], "e2": [], "v2": [], "e3": ["u"]}
        stalks = {cell: {"labels": labels} for cell, labels in cells.items()}
        stalks["e2"].update(ambient_dim=size, generators=[])
        rows = {"e1": 1, "e2": size, "e3": 1}
        incidences = [("v1", "e1"), ("v1", "e2"), ("v2", "e2"), ("v2", "e3")]
        restrictions = [{"from": v, "to": e, "matrix": flat(rows[e])} for v, e in incidences]
        return {"vertices": ["0", "1"], "stalks": stalks, "restrictions": restrictions}
    stalks = {"e1": {"labels": ["u"]}, "v1": {"labels": []}, "e2": {"labels": ["u"]}}
    restrictions = [{"from": "v1", "to": e, "matrix": flat(1)} for e in ("e1", "e2")]
    if fault == "tall-restriction":
        restrictions[0]["matrix"] = flat(size)
    else:  # a restriction between cells the stratification lacks
        restrictions.append({"from": "v7", "to": "e9", "matrix": flat(size)})
    return {"vertices": ["0"], "stalks": stalks, "restrictions": restrictions}


@pytest.mark.parametrize(
    "fault, message",
    [
        ("tall-restriction", "restriction v1->e1 has shape 500000x0, expected 1x0"),
        ("non-incident-restriction", "restrictions for non-incident cells: v7->e9"),
        ("generator-free-stalk", "the stalk over e2 has no generators, so its ambient_dim must be 0, got 500000"),
    ],
    ids=["tall-restriction", "non-incident-restriction", "generator-free-stalk"],
)
def test_a_sheaf_file_costs_memory_in_proportion_to_what_it_spells_out(capsys, tmp_path, fault, message):
    bad = tmp_path / "declared.json"
    bad.write_text(json.dumps(_sheaf_declaring(500_000, fault)))
    assert bad.stat().st_size < 600
    cli.build_parser()  # first use, outside the traced call
    tracemalloc.start()
    try:
        code = main(["lp", str(bad)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, json.loads(capsys.readouterr().out)) == (1, {"error": message})
    assert peak < 5 * 2**20


def test_a_free_stalk_costs_memory_in_proportion_to_its_labels(capsys, tmp_path):
    # v1 has no generators, so the sheaf has no section; 2000 dense unit generators took a 31 MB peak
    n = 20_000
    stalks = {"e1": {"labels": [f"c{i}" for i in range(n)]}, "v1": {"labels": []}, "e2": {"labels": ["u"]}}
    restrictions = [
        {"from": "v1", "to": e, "matrix": {"rows": rows, "cols": 0, "entries": []}} for e, rows in (("e1", n), ("e2", 1))
    ]
    sheaf = tmp_path / "free.json"
    sheaf.write_text(json.dumps({"vertices": ["0"], "stalks": stalks, "restrictions": restrictions}))
    cli.build_parser()  # first use, outside the traced call
    tracemalloc.start()
    try:
        code = main(["lp", str(sheaf)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    report = json.loads(capsys.readouterr().out)
    assert (code, report["verdict"]) == (2, "NO_EVASION")
    assert report["sections"] == {"certificate": [], "columns": [], "kernel_dim": 0, "rows": []}
    assert peak < 5 * 2**20


WINDOW = {"x": [0, 4], "y": [0, 4]}


# the box cases' ids are pinned so that their test names do not change
@pytest.mark.parametrize(
    "scene, named",
    [
        # an object would be read as no boxes
        pytest.param({"window": WINDOW, "boxes": {}}, ["boxes", "list"], id="boxes0-named0"),
        # so would an empty string
        pytest.param({"window": WINDOW, "boxes": ""}, ["boxes", "list"], id="-named1"),
        pytest.param({"window": WINDOW, "boxes": [[[0, 1], [1, 2], [1, 2]]]}, ["box 0", "object"], id="boxes2-named2"),
        pytest.param(
            {"window": WINDOW, "boxes": [{"t": [0, 1], "x": [1, 2]}]},
            ["malformed scene JSON", "box 0", "'y'"],
            id="boxes3-named3",
        ),
        pytest.param({"window": {"x": [0, 4]}}, ["malformed scene JSON", "window", "'y'"], id="window-without-y"),
        pytest.param({"window": [0, 4]}, ["malformed scene JSON", "window", "object"], id="window-as-list"),
        # the second t would silently win
        pytest.param(
            '{"window": {"x": [0, 4], "y": [0, 4]}, "boxes": [{"t": [0, 1], "x": [1, 2], "y": [1, 2], "t": [2, 3]}]}',
            ["malformed JSON", "duplicate key", "'t'"],
            id="duplicate-key",
        ),
        # a rational that does not parse names its box or window field
        pytest.param(
            {"window": WINDOW, "boxes": [{"t": [0, "1/0"], "x": [1, 2], "y": [1, 2]}]},
            ["box 0 t", "'1/0'"],
            id="box-t-zero-denominator",
        ),
        pytest.param({"window": {"x": [0, 4], "y": [0, "x"]}}, ["window y", "'x'"], id="window-y-not-rational"),
        pytest.param(
            {"window": WINDOW, "boxes": [{"t": [0, 1], "x": [1, 2.5], "y": [1, 2]}]},
            ["box 0 x", "float"],
            id="box-x-float",
        ),
        pytest.param(
            {"window": WINDOW, "boxes": [{"t": [0, 1], "x": [1, 2], "y": ["1e-99999", 2]}]},
            ["box 0 y", "'1e-99999'", "4300 digits"],
            id="box-y-exponent-too-large",
        ),
        pytest.param(
            {"window": WINDOW, "boxes": [{"t": [0, "1e1.5"], "x": [1, 2], "y": [1, 2]}]},
            ["box 0 t", "'1e1.5'"],
            id="box-t-fractional-exponent",
        ),
    ],
)
def test_ambiguous_scene_json_is_rejected(capsys, tmp_path, scene, named):
    bad = tmp_path / "ambiguous.json"
    bad.write_text(scene if isinstance(scene, str) else json.dumps(scene))
    code, report = run_cli(capsys, "check", str(bad))
    assert code == 1
    assert all(part in report["error"] for part in named), report["error"]


def test_exponents_that_write_a_literal_out_past_the_digit_limit_are_refused():
    from fractions import Fraction

    from evasion.formats import MAX_LITERAL_DIGITS, parse_rational

    assert parse_rational(f"1e{MAX_LITERAL_DIGITS - 1}") == 10 ** (MAX_LITERAL_DIGITS - 1)
    assert parse_rational(f"1e-{MAX_LITERAL_DIGITS - 1}") == Fraction(1, 10 ** (MAX_LITERAL_DIGITS - 1))
    too_long = (f"1e{MAX_LITERAL_DIGITS}", f"1e-{MAX_LITERAL_DIGITS}", "12e4299", "1.5e-4299", "1E+5_000_000")
    for bad in too_long:
        with pytest.raises(ValueError, match="digits written out"):
            parse_rational(bad)


def test_a_huge_exponent_ends_a_check_at_once(tmp_path):
    # Fraction would try to build 10**999999999 from this 16-byte literal
    scene = tmp_path / "huge.json"
    scene.write_text(json.dumps({"window": WINDOW, "boxes": [{"t": [0, "1e999999999"], "x": [1, 2], "y": [1, 2]}]}))
    src = os.pathsep.join(filter(None, [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "evasion.cli", "check", str(scene)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=30,
    )
    assert result.returncode == 1
    report = json.loads(result.stdout)
    assert report == {"error": "box 0 t: unsupported rational literal: '1e999999999' (over 4300 digits written out)"}


# the longest integer literal the reader accepts
NINES = "9" * 4300


def _exact(text: str) -> Fraction:
    """A written rational read back exactly: `Decimal` reads integers of any
    length, where `int` and `Fraction` strings stop at 4300 digits."""
    p, _, q = text.partition("/")
    return Fraction(Decimal(p)) / Fraction(Decimal(q or "1"))


# vertices at -N, 0 and N for N of 4300 nines; the path hops four times
# in (0, N), at kN/5 for k = 1..4, and 2N needs 4301 digits
LONG_HOPS_SCENE = {
    "window": {"x": [0, 9], "y": [0, 9]},
    "boxes": [
        {"t": ["-" + NINES, 0], "x": [0, 5], "y": [0, 8]},
        {"t": [0, NINES], "x": [4, 6], "y": [6, 9]},
        {"t": ["-" + NINES, NINES], "x": [2, 8], "y": [8, 9]},
    ],
}


def test_path_times_past_the_literal_bound_are_written_out(capsys, tmp_path):
    data = LONG_HOPS_SCENE
    scene_file, path_file, svg_file = tmp_path / "scene.json", tmp_path / "path.json", tmp_path / "scene.svg"
    scene_file.write_text(json.dumps(data))
    code, report = run_cli(capsys, "check", str(scene_file), "--path", str(path_file), "--plot", str(svg_file))
    assert code == 0 and report["verdict"] == "EVASION"
    assert json.loads(path_file.read_text()) == report["path"]
    assert svg_file.read_text().startswith("<svg")
    segments = report["path"]["segments"]
    assert max(len(t) for seg in segments for t in seg["t"] if t is not None) > 4300
    path = EvasionPath(
        tuple(
            PathSegment(*(None if t is None else _exact(t) for t in seg["t"]), tuple(map(_exact, seg["point"])))
            for seg in segments
        ),
        tuple(report["path"]["chain"].items()),
    )
    assert [seg.start for seg in path.segments[1:]] == [Fraction(k * (10**4300 - 1), 5) for k in range(1, 5)]
    verify_evasion_path(scene_from_jsonable(data), path)


def test_a_path_file_past_the_literal_bound_is_refused_by_a_bounded_message(capsys, tmp_path):
    # the path reader takes no literal past the bound back; it names the
    # first such hop time by its first 100 characters and its length
    scene_file, path_file = tmp_path / "scene.json", tmp_path / "path.json"
    scene_file.write_text(json.dumps(LONG_HOPS_SCENE))
    assert main(["check", str(scene_file), "--path", str(path_file)]) == 0
    capsys.readouterr()
    data = json.loads(path_file.read_text())
    times = [t for seg in data["segments"] for t in seg["t"] if t is not None]
    first = next(t for t in times if len(t.partition("/")[0]) > 4300)
    assert len(first) == 4303
    with pytest.raises(ValueError) as exc:
        path_from_jsonable(data)
    assert str(exc.value) == f"unsupported rational literal: {first[:100]!r}... (4303 characters)"


_SEGMENT = {"t": [None, None], "point": ["1", "1"]}


@pytest.mark.parametrize(
    "data, message",
    [
        ({}, "the path has no 'segments'"),
        ([_SEGMENT], "the path must be an object, got ["),
        ({"segments": "abc"}, "segments must be a list, got 'abc'"),
        ({"segments": [1]}, "segment 0 must be an object, got 1"),
        ({"segments": [_SEGMENT, {"t": [None], "point": ["1", "1"]}]}, "segment 1 t must be a two-element list"),
        ({"segments": [_SEGMENT, {"t": [None, None]}]}, "segment 1 has no 'point'"),
        ({"segments": [{}]}, "segment 0 has no 't'"),  # the first field missing is named
        ({"segments": [{"t": [None, None], "point": ["1"]}]}, "segment 0 point must be a two-element list"),
        ({"segments": [_SEGMENT], "chain": [["e1", "g0"]]}, "chain must be an object"),
    ],
    ids=[
        "empty", "top-level-list", "segments-string", "segment-not-object", "short-t", "no-point", "no-t-nor-point",
        "short-point", "chain-list",
    ],
)
def test_a_malformed_path_file_is_a_located_value_error(data, message):
    with pytest.raises(ValueError) as exc:
        path_from_jsonable(data)
    assert type(exc.value) is ValueError
    assert str(exc.value).startswith("malformed path JSON: ") and message in str(exc.value)


def test_a_disconnected_sample_past_the_literal_bound_is_named(capsys, tmp_path):
    # a floating box alive on [a, b], bridged to the frame at t = a and at
    # t = b only; the edge sample (a + b) / 2 has a denominator of 4401 digits
    a, b = Fraction(1, 10**2200), Fraction(2, 10**2200 + 1)
    ta, tb = f"1/1{'0' * 2200}", f"2/1{'0' * 2199}1"
    data = {
        "window": {"x": [0, 9], "y": [0, 9]},
        "boxes": [
            {"t": [ta, tb], "x": [4, 5], "y": [4, 5]},
            {"t": [ta, ta], "x": [0, 4], "y": [4, 5]},
            {"t": [tb, tb], "x": [5, 9], "y": [4, 5]},
        ],
    }
    scene_file = tmp_path / "scene.json"
    scene_file.write_text(json.dumps(data))
    code, report = run_cli(capsys, "check", str(scene_file))
    assert code == 1 and report["error"] == "scene validation failed"
    (violation,) = report["violations"]
    prefix = "coverage is disconnected at t="
    assert violation.startswith(prefix)
    assert _exact(violation[len(prefix) :]) == (a + b) / 2


# ---------------------------------------------------------------------------
# fuzzing the readers: every input ends in exit 0, 1 or 2 and one JSON report

FUZZ_INPUTS = [
    ("check", name) for name in ("crossing_open.json", "crossing_blocked.json", "two_gap_corridor.json")
] + [("lp", name) for name in ("double_lens.json", "nonfree_feasible.json", "reversal.json")]
REPLACEMENTS = (None, True, 1.5, -3, 0, "x", "-1/2", [], {}, [1, 2], ["2", "1"], {"rows": -1})


def _nodes(node, path=()):
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _nodes(child, (*path, key))


MUTATIONS = {
    "swap": lambda node: True,
    "drop": lambda node: True,
    "reverse": lambda node: isinstance(node, list),
    "negate": lambda node: isinstance(node, str) or (isinstance(node, int) and not isinstance(node, bool)),
}


@st.composite
def mutated_inputs(draw):
    command, name = draw(st.sampled_from(FUZZ_INPUTS))
    data = load_fixture(name)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(sorted(MUTATIONS)))
        targets = [(path, node) for path, node in _nodes(data) if MUTATIONS[kind](node)]
        if not targets:
            continue
        path, node = draw(st.sampled_from(targets))
        if not path:
            data = node[::-1] if kind == "reverse" else copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
            continue
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if kind == "drop":
            del parent[key]
        elif kind == "reverse":
            parent[key] = node[::-1]
        elif kind == "negate":
            parent[key] = "-" + node if isinstance(node, str) else -node - 1
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
    return command, data


@given(mutated_inputs())
@settings(max_examples=300, deadline=None)
def test_mutated_fixtures_end_in_one_json_report(case):
    command, data = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(data))
        out = io.StringIO()
        with redirect_stdout(out):
            code = main([command, str(path)])
    report = json.loads(out.getvalue())
    assert isinstance(report, dict)
    assert code in (0, 1, 2)
    assert ("error" in report) == (code == 1)
