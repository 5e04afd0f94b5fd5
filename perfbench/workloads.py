"""The four benchmark workloads and the output checks that score them.

Each workload is a list of scene files plus the verdict every file must get.
The program only ever sees those files: the benchmark writes them with its
own serialiser, so their bytes do not depend on the code under test.

- pulsing: one gap component per cell, 400 critical times, verdict EVASION.
  The simplex dominates; geometry and assembly are small.
- blocked: pulsing plus one instantaneous full-window blackout, verdict
  NO_EVASION. Same sheaf shape, but the decider must prove the optimum is
  zero and build a certificate, and no path is extracted.
- comb: m zero-width full-height walls, about m+1 components per cell. The
  only workload with large stalks, so validation, assembly and path
  extraction all carry weight.
- random: 1000 seeded draws of `randgen.random_scene`, half of each
  verdict. Many small checks, where fibre building and per-call overhead
  dominate. With 300 draws the 90th percentile moved by about a fifth from
  seed to seed, with the set of scenes; 1000 draws hold it steady.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random

WORKLOADS = ("pulsing", "blocked", "comb", "random")
PULSING_TIMES = 400
COMB_WALLS = 24
RANDOM_DRAWS = 1000
RANDOM_MAX_BOXES = 10
EVASION, NO_EVASION = "EVASION", "NO_EVASION"


def comb_scene(geometry, m: int):
    """m zero-width full-height walls at x = 1..m in the window (0, m+1)^2.

    Wall w is alive on [0, 2w] and [2w+1, 2m+1], so it opens exactly once
    and the walls open one after another."""
    top = m + 1
    boxes = []
    for w in range(1, m + 1):
        boxes.append(geometry.Box.make((0, 2 * w), (w, w), (0, top)))
        boxes.append(geometry.Box.make((2 * w + 1, 2 * m + 1), (w, w), (0, top)))
    return geometry.Scene.make((0, top), (0, top), boxes)


def blocked_scene(geometry, randgen, n: int):
    """The pulsing scene with n critical times, plus a full-window blackout
    at the single instant t = n + 1/2, after the last pulse."""
    base = randgen.pulsing_box_scene(n)
    instant = Fraction(2 * n + 1, 2)
    blackout = geometry.Box.make((instant, instant), base.window_x, base.window_y)
    return geometry.Scene(base.window_x, base.window_y, base.boxes + (blackout,))


def scene_text(scene) -> str:
    """Scene JSON in the format `evasion check` reads ("p" or "p/q" strings)."""

    def iv(pair) -> list[str]:
        return [str(pair[0]), str(pair[1])]

    return json.dumps(
        {
            "window": {"x": iv(scene.window_x), "y": iv(scene.window_y)},
            "boxes": [{"t": iv(b.t), "x": iv(b.x), "y": iv(b.y)} for b in scene.boxes],
        },
        separators=(",", ":"),
    )


@dataclass(frozen=True)
class Sample:
    path: Path
    scene: object
    expected: str
    key: int  # samples with the same key share one coboundary


class Workload:
    """Scene files and expected verdicts for one workload and seed.

    `pass_len` is the number of distinct inputs: sample i uses input
    i mod pass_len. The pulsing, blocked and comb families have one input,
    and every sample of them is a fresh integer translate of it, written
    just before its check, so that no memo inside the program can turn a
    repeat into a hit. Translation by integers keeps the critical-time
    order and the component labels (they follow the anchor order), so all
    translates share one coboundary.
    """

    def __init__(self, name: str, prog, seed: int, workdir: Path):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        geometry, randgen = prog.geometry, prog.randgen
        self._caches = [geometry.scene_fibres, geometry.validate_scene]
        rng = Random(seed)
        if name == "random":
            self._scenes = [randgen.random_scene(rng, RANDOM_MAX_BOXES) for _ in range(RANDOM_DRAWS)]
            self._expected = [
                EVASION if prog.oracle.dp_section_exists(geometry.build_sheaf(s))[0] else NO_EVASION
                for s in self._scenes
            ]
            for i, scene in enumerate(self._scenes):
                self._path(i).write_text(scene_text(scene))
            self._offset = None
        else:
            if name == "pulsing":
                base = randgen.pulsing_box_scene(PULSING_TIMES)
            elif name == "blocked":
                base = blocked_scene(geometry, randgen, PULSING_TIMES)
            else:
                base = comb_scene(geometry, COMB_WALLS)
            self._scenes = [base]
            self._expected = [NO_EVASION if name == "blocked" else EVASION]
            self._offset = tuple(rng.randint(-1000, 1000) for _ in range(3))

    @property
    def pass_len(self) -> int:
        return len(self._scenes)

    def _path(self, i: int) -> Path:
        return self.workdir / f"scene{i:04d}.json"

    def sample(self, i: int) -> Sample:
        key = i % self.pass_len
        if self._offset is None:
            return Sample(self._path(key), self._scenes[key], self._expected[key], key)
        dt, dx, dy = self._offset
        scene = self._scenes[0].shifted(dt + 3 * i, dx + 2 * i, dy - i)
        path = self._path(0)
        path.write_text(scene_text(scene))
        return Sample(path, scene, self._expected[0], 0)

    def clear_caches(self) -> None:
        for fn in self._caches:
            clear = getattr(fn, "cache_clear", None)
            if clear is not None:
                clear()


class OutputCheck:
    """Re-verifies one `check` report; runs outside the timed region.

    Holds its own references to the program's functions, taken before any
    tracing wrapper is installed, so checking adds no spans.
    """

    def __init__(self, prog):
        self._build_sheaf = prog.geometry.build_sheaf
        self._assemble = prog.sheaf.assemble_coboundary
        self._is_valid_certificate = prog.cones.is_valid_certificate
        self._path_from_jsonable = prog.cli.path_from_jsonable
        self._verify_path = prog.geometry.verify_evasion_path
        self._path_error = prog.geometry.PathVerificationError
        self._parse = prog.linalg.parse_rational
        self._coboundaries: dict[int, tuple] = {}

    def _coboundary(self, sample: Sample):
        """(row labels, column labels, matrix or sparse rows) for the sample.

        The dense matrix is kept only where a certificate needs it, so that
        checking a large EVASION scene does not hold it in memory."""
        if sample.key not in self._coboundaries:
            sec = self._assemble(self._build_sheaf(sample.scene))
            rows = [f"{cell}.{lab}" for cell, lab in sec.row_labels]
            cols = [f"{cell}.{lab}" for cell, lab in sec.column_labels]
            body = sec.coboundary if sample.expected == NO_EVASION else sec.coboundary.to_sparse_rows()
            self._coboundaries[sample.key] = (rows, cols, body)
        return self._coboundaries[sample.key]

    def problem(self, sample: Sample, code: int, stdout: str) -> str | None:
        """None if the report is right, else what is wrong with it."""
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            return f"exit {code} with a report that is not JSON"
        verdict = report.get("verdict")
        if verdict != sample.expected:
            return f"exit {code}, verdict {verdict!r}, expected {sample.expected}"
        if code != (0 if verdict == EVASION else 2):
            return f"exit {code} for verdict {verdict}"
        rows, cols, body = self._coboundary(sample)
        sections = report["sections"]
        if sections["rows"] != rows or sections["columns"] != cols:
            return "coboundary labels differ from assemble_coboundary"
        if verdict == NO_EVASION:
            if "path" in report:
                return "NO_EVASION report carries a path"
            y = [self._parse(v) for v in sections["certificate"]]
            if not self._is_valid_certificate(body, y):
                return "certificate does not re-verify"
            return None
        return self._witness_problem(sections["witness"]["support"], cols, body) or self._path_problem(
            sample, report["path"]
        )

    def _witness_problem(self, support: dict, cols: list[str], rows: list[dict]) -> str | None:
        index = {label: j for j, label in enumerate(cols)}
        x = {}
        for label, value in support.items():
            if label not in index:
                return f"witness names unknown column {label}"
            x[index[label]] = self._parse(value)
        if any(v <= 0 for v in x.values()) or sum(x.values()) != 1:
            return "witness is not a positive vector summing to 1"
        for r in rows:
            if sum(v * x[j] for j, v in r.items() if j in x):
                return "witness is not in the coboundary kernel"
        return None

    def _path_problem(self, sample: Sample, path_json: dict) -> str | None:
        try:
            self._verify_path(sample.scene, self._path_from_jsonable(path_json))
        except self._path_error as exc:
            return f"path does not re-verify: {exc}"
        except (KeyError, TypeError, ValueError) as exc:
            return f"path is malformed: {exc!r}"
        return None
