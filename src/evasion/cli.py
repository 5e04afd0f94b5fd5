"""Command-line front end: the commands, the JSON writer, the SVG renderer
and the sheaf and matrix readers. Scene and path files and rational
literals are read by `evasion.formats`.

Subcommands:
  check   scene.json  -> full pipeline (validate, sheaf, decision, path), verdict report
  sheaf   scene.json  -> the constructed cone sheaf as JSON
  lp      sheaf.json  -> validate + coboundary + LP on an abstract sheaf
  matrix  sheaf.json  -> the labelled coboundary matrix, the one command that prints it
                         (a scene's: `evasion sheaf scene.json > s.json; evasion matrix s.json`)

Exit codes: 0 = evasion possible, 2 = no evasion, 1 = error, a report that
cannot be written included. Rationals are serialised as "p" or "p/q"
strings (on input, ints and any string `Fraction` reads exactly are
allowed, floats rejected) so reports stay exact and diffable; reports are
byte-identical across runs except for the timing block.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import re
import sys
import time
from collections import Counter
from collections.abc import Iterator
from fractions import Fraction
from functools import cache
from itertools import compress
from json.encoder import encode_basestring_ascii
from pathlib import Path

import evasion.geometry as geometry
from evasion.cones import PolyhedralCone, lp_positive_kernel
from evasion.formats import _fields, _list, format_rational, parse_rational

# perfbench reads both readers from this module, and its tracer hooks the
# `scene_from_jsonable` that cmd_check calls here
from evasion.formats import path_from_jsonable, scene_from_jsonable
from evasion.geometry import Fibres, SceneValidationError, build_sheaf, extract_path
from evasion.linalg import Matrix
from evasion.scene import EvasionPath, Scene
from evasion.sheaf import (
    ConeSheaf,
    GlobalSections,
    SheafValidationError,
    Stratification,
    assemble_coboundary,
    global_sections,
)

EXIT_EVASION = 0
EXIT_ERROR = 1
EXIT_NO_EVASION = 2


# ---------------------------------------------------------------------------
# formats: the payloads written, and the sheaf and matrix readers

def _interval_json(iv) -> list:
    return [format_rational(iv[0]), format_rational(iv[1])]


def scene_to_jsonable(scene: Scene) -> dict:
    return {
        "window": {"x": _interval_json(scene.window_x), "y": _interval_json(scene.window_y)},
        "boxes": [
            {"t": _interval_json(b.t), "x": _interval_json(b.x), "y": _interval_json(b.y)}
            for b in scene.boxes
        ],
    }


class DenseEntries:
    """A matrix's entries as dense row-major strings, which `write_json`
    writes one row at a time: the rows x cols list is never built."""

    def __init__(self, matrix: Matrix):
        self.matrix = matrix

    def rows(self) -> Iterator[list[str]]:
        M = self.matrix
        for nonzeros in M.nonzeros:
            row = ["0"] * M.cols
            for j, v in nonzeros.items():
                row[j] = format_rational(v)
            yield row


def matrix_to_jsonable(M: Matrix) -> dict:
    """Dense row-major `entries`, the one place a matrix is written out in full."""
    return {"rows": M.rows, "cols": M.cols, "entries": DenseEntries(M)}


def _count(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {value!r}")
    return value


def _rational(value, what: str) -> Fraction:
    """`parse_rational`, its error prefixed with the field at fault."""
    try:
        return parse_rational(value)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from exc


def matrix_from_jsonable(data) -> Matrix:
    rows, cols = _count(data["rows"], "rows"), _count(data["cols"], "cols")
    entries = _list(data["entries"], "entries")
    if len(entries) != rows * cols:
        raise ValueError(f"shape {rows}x{cols} needs {rows * cols} entries, got {len(entries)}")
    values = [parse_rational(e) for e in entries]
    nonzeros = tuple({j: v for j, v in enumerate(values[i * cols : (i + 1) * cols]) if v} for i in range(rows))
    return Matrix(rows, cols, nonzeros)


def sheaf_to_jsonable(S: ConeSheaf) -> dict:
    strat = S.strat

    def stalk_json(cone: PolyhedralCone) -> dict:
        out: dict = {"labels": list(cone.labels)}
        if not cone.is_free:
            out["ambient_dim"] = cone.ambient_dim
            out["generators"] = [[format_rational(c) for c in g] for g in cone.generators]
        return out

    stalks = (S.edge_stalks, S.vertex_stalks)  # cell n's stalk is stalks[n % 2][n // 2]
    return {
        "vertices": [format_rational(t) for t in strat.vertex_times],
        "stalks": {cell: stalk_json(stalks[n % 2][n // 2]) for n, cell in enumerate(strat.cells)},
        "restrictions": [
            {"from": strat.vertex_id(i), "to": strat.edge_id(j), "matrix": matrix_to_jsonable(M)}
            for i, j, M in S.incidences()
        ],
    }


def _stalk_from_jsonable(cell: str, data) -> PolyhedralCone:
    what = f"the stalk over {cell}"
    (labels,) = _fields(data, ("labels",), what, "sheaf")
    labels = tuple(str(lab) for lab in _list(labels, f"labels of {what}"))
    repeated = [lab for lab, n in Counter(labels).items() if n > 1]
    if repeated:
        # two columns named alike would collide in the witness support
        raise ValueError(f"labels of {what} repeat {', '.join(map(repr, repeated))}")
    if "generators" not in data:
        return PolyhedralCone.free(labels)
    gens = [
        tuple(_rational(c, f"generators of {what}") for c in _list(g, f"generators of {what}"))
        for g in _list(data["generators"], f"generators of {what}")
    ]
    ambient = _count(data.get("ambient_dim", len(gens[0]) if gens else 0), f"ambient_dim of {what}")
    if ambient and not gens:  # the stalk is {0}: no generator has a coordinate, and every image into it is 0
        raise ValueError(f"{what} has no generators, so its ambient_dim must be 0, got {ambient}")
    try:
        return PolyhedralCone(ambient, tuple(gens), labels)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from exc


def sheaf_from_jsonable(data) -> ConeSheaf:
    if not isinstance(data, dict) or "vertices" not in data:
        raise ValueError("sheaf JSON must be an object with a 'vertices' field")
    times = [_rational(t, f"the time of vertex v{i + 1}") for i, t in enumerate(_list(data["vertices"], "vertices"))]
    for i in range(1, len(times)):
        if times[i] <= times[i - 1]:
            late, early = format_rational(times[i]), format_rational(times[i - 1])
            raise ValueError(f"vertex times must be strictly increasing: v{i + 1} ({late}) is not after v{i} ({early})")
    strat = Stratification(tuple(times))
    stalks = data.get("stalks", {})
    if not isinstance(stalks, dict):
        raise ValueError(f"malformed sheaf JSON: stalks must be an object, got {stalks!r}")
    stalks = dict(stalks)  # each cell's stalk is popped, so that what is left names no cell

    def stalk(cell: str) -> PolyhedralCone:
        if cell not in stalks:
            raise ValueError(f"missing stalk for cell {cell}")
        return _stalk_from_jsonable(cell, stalks.pop(cell))

    vertex_stalks = tuple(map(stalk, strat.cells[1::2]))
    edge_stalks = tuple(map(stalk, strat.cells[0::2]))
    if stalks:
        raise ValueError(f"stalks for cells the stratification lacks: {', '.join(stalks)}")
    # the shape of each incident restriction, so that no matrix is built to a declared size
    shapes = {
        (strat.vertex_id(i), strat.edge_id(j)): (edge_stalks[j].ambient_dim, vertex_stalks[i].ambient_dim)
        for i in range(strat.k)
        for j in (i, i + 1)
    }
    maps: dict[tuple[str, str], Matrix | None] = {}  # None for cells the stratification lacks
    for n, r in enumerate(_list(data.get("restrictions", []), "restrictions")):
        source, target, matrix = _fields(r, ("from", "to", "matrix"), f"restriction {n}", "sheaf")
        key = (str(source), str(target))
        name = f"{key[0]}->{key[1]}"
        if key in maps:
            raise ValueError(f"duplicate restriction {name}")
        maps[key] = None
        want = shapes.get(key)
        if want is None:
            continue
        _fields(matrix, ("rows", "cols", "entries"), f"the matrix of the restriction {name}", "sheaf")
        try:
            shape = (_count(matrix["rows"], "rows"), _count(matrix["cols"], "cols"))
            if shape == want:
                maps[key] = matrix_from_jsonable(matrix)
        except ValueError as exc:
            raise ValueError(f"matrix of the restriction {name}: {exc}") from exc
        if shape != want:
            raise ValueError(f"restriction {name} has shape {shape[0]}x{shape[1]}, expected {want[0]}x{want[1]}")
    matrices = []  # in incidence order: v1->e1, v1->e2, v2->e2, ...
    for key in shapes:
        if key not in maps:
            raise ValueError(f"missing restriction {key[0]}->{key[1]}")
        matrices.append(maps.pop(key))
    if maps:
        extra = ", ".join(f"{a}->{b}" for a, b in maps)
        raise ValueError(f"restrictions for non-incident cells: {extra}")
    return ConeSheaf(strat, vertex_stalks, edge_stalks, tuple(matrices[0::2]), tuple(matrices[1::2]))


def sections_to_jsonable(sec: GlobalSections) -> dict:
    columns = sec.column_names
    out: dict = {"kernel_dim": sec.kernel_dim, "columns": columns, "rows": sec.row_names}
    decision = sec.decision
    if decision is None:
        return out
    witness = decision.witness
    if witness is not None:
        # each distinct value object is formatted once (the sweep's witness holds two)
        ids = list(map(id, witness))
        text = {i: format_rational(v) for i, v in dict(zip(ids, witness)).items() if v}
        held = list(map(text.__contains__, ids))
        out["witness"] = {"support": dict(zip(compress(columns, held), map(text.__getitem__, compress(ids, held))))}
    else:
        out["certificate"] = [format_rational(v) for v in decision.certificate]
    return out


def path_to_jsonable(path: EvasionPath) -> dict:
    segments = []
    for seg in path.segments:
        segments.append(
            {
                "t": [
                    None if seg.start is None else format_rational(seg.start),
                    None if seg.end is None else format_rational(seg.end),
                ],
                "point": [format_rational(seg.point[0]), format_rational(seg.point[1])],
            }
        )
    return {"segments": segments, "chain": dict(path.chain)}


# ---------------------------------------------------------------------------
# the writer

_quote = encode_basestring_ascii  # json's C string encoder, where CPython has it

# the text of a scalar of each exact type that `json.dumps` writes as a
# literal or by that type's `__repr__`, by one C-level call; a float's
# "nan", "inf" and "-inf" are then mended to json's spelling
_SCALARS = {
    str: _quote,
    int: int.__repr__,
    float: float.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def write_json(value, out) -> None:
    """Write `value` to the text stream `out` as exactly the text of
    `json.dumps(value, indent=2, sort_keys=True)`, a `DenseEntries` taken as
    its list of entries.

    Every report, path file and sheaf goes through here. `json.dumps` falls
    back to its pure-Python encoder when asked to indent; this writer makes
    one Python-level call per list or object and none per scalar in one. A
    scalar of an exact type in `_SCALARS` is written by that type's C-level
    formatter (strings by json's C `encode_basestring_ascii`), and each list
    of strings or object of string values is quoted whole. Anything else, a
    subclass of int or float say, goes to `json.dumps` itself. Object keys
    must be strings: an object sorts its keys, not its items, which is the
    same order, and an object of string values is quoted by one list
    comprehension over them. What is built is handed to `out` before each
    row of a `DenseEntries`, so a dense matrix is held one row at a time.
    """
    parts: list[str] = []
    _encode(value, "\n", parts, out)
    out.write("".join(parts))


def _encode(v, nl: str, parts: list[str], out) -> None:
    """Append the text of v to `parts`; nl is a newline and the indent of the
    line v is on. A module function, not a closure, so that writing leaves
    no reference cycle behind."""
    if isinstance(v, (list, tuple)):
        if not v:
            parts.append("[]")
            return
        inner = nl + "  "
        sep = "," + inner
        if isinstance(v[0], str):
            try:
                parts.append(f"[{inner}{sep.join(map(_quote, v))}{nl}]")
                return
            except TypeError:  # not a list of strings after all
                pass
        parts.append("[")
        for n, item in enumerate(v):
            fmt = _SCALARS.get(type(item))
            if fmt is None:
                parts.append(sep if n else inner)
                _encode(item, inner, parts, out)
            else:
                text = fmt(item)
                parts.append((sep if n else inner) + _NONFINITE.get(text, text))
        parts.append(nl + "]")
    elif isinstance(v, dict):
        if not v:
            parts.append("{}")
            return
        inner = nl + "  "
        sep = "," + inner
        keys = sorted(v)  # string keys are distinct, so this is the order of the sorted items
        if isinstance(v[keys[0]], str):
            try:
                parts.append(f"{{{inner}{sep.join([_quote(k) + ': ' + _quote(v[k]) for k in keys])}{nl}}}")
                return
            except TypeError:  # not an object of string values after all
                pass
        parts.append("{")
        for n, key in enumerate(keys):
            item = v[key]
            fmt = _SCALARS.get(type(item))
            if fmt is None:
                parts.append(f"{sep if n else inner}{_quote(key)}: ")
                _encode(item, inner, parts, out)
            else:
                text = fmt(item)
                parts.append(f"{sep if n else inner}{_quote(key)}: {_NONFINITE.get(text, text)}")
        parts.append(nl + "}")
    elif isinstance(v, DenseEntries):
        inner = nl + "  "
        sep = "," + inner
        lead = "[" + inner  # before the first entry, then sep between rows
        for row in v.rows():
            if row:
                out.write("".join(parts))
                parts[:] = [lead + sep.join(map(_quote, row))]
                lead = sep
        parts.append(nl + "]" if lead is sep else "[]")
    else:
        fmt = _SCALARS.get(type(v))
        text = json.dumps(v) if fmt is None else fmt(v)  # a subclass of int or float, say
        parts.append(_NONFINITE.get(text, text))


# ---------------------------------------------------------------------------
# svg rendering (time horizontally, spatial y vertically)

def render_scene_svg(scene: Scene, fibres: Fibres, path: EvasionPath | None = None) -> str:
    """The scene's gaps, boxes and path, from the fibres `scene_fibres` built."""
    vts, vertex_fibres, edge_fibres = fibres
    # a scene without critical times has one synthetic vertex at t=0, drawn
    # as a cell but given no dashed line; it shares its fibre with both
    # edges, while a real first vertex holds a box its left edge lacks
    times = () if vertex_fibres[0] is edge_fibres[0] else vts
    t_lo, t_hi = vts[0] - 1, vts[-1] + 1
    y_lo, y_hi = scene.window_y
    width, height, margin = 720.0, 360.0, 30.0

    @cache  # a fibre's gaps are drawn once per cell
    def sx(t: Fraction) -> float:
        return margin + float((t - t_lo) / (t_hi - t_lo)) * (width - 2 * margin)

    @cache
    def sy(y: Fraction) -> float:
        return height - margin - float((y - y_lo) / (y_hi - y_lo)) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}">',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" height="{height - 2 * margin}" '
        'fill="#f4f6f8" stroke="#333"/>',
    ]
    cells = []
    for j, ef in enumerate(edge_fibres):
        lo = vts[j - 1] if j >= 1 else t_lo
        hi = vts[j] if j < len(vts) else t_hi
        cells.append((lo, hi, ef))
    for i, vf in enumerate(vertex_fibres):
        eps = (t_hi - t_lo) / 400
        cells.append((vts[i] - eps, vts[i] + eps, vf))
    for lo, hi, fibre in cells:
        for ylo, yhi in fibre.y_extents:
            parts.append(
                f'<rect x="{sx(lo):.2f}" y="{sy(yhi):.2f}" width="{max(sx(hi) - sx(lo), 0.5):.2f}" '
                f'height="{max(sy(ylo) - sy(yhi), 0.5):.2f}" fill="#9fd49f" fill-opacity="0.35"/>'
            )
    for b in scene.boxes:
        lo, hi = max(b.t[0], t_lo), min(b.t[1], t_hi)
        if lo > hi:
            continue
        parts.append(
            f'<rect x="{sx(lo):.2f}" y="{sy(min(b.y[1], y_hi)):.2f}" '
            f'width="{max(sx(hi) - sx(lo), 1.0):.2f}" '
            f'height="{max(sy(max(b.y[0], y_lo)) - sy(min(b.y[1], y_hi)), 1.0):.2f}" '
            'fill="#5a5a5a" fill-opacity="0.75"/>'
        )
    for t in times:
        parts.append(
            f'<line x1="{sx(t):.2f}" y1="{margin}" x2="{sx(t):.2f}" y2="{height - margin}" '
            'stroke="#888" stroke-dasharray="4 3" stroke-width="0.7"/>'
        )
    if path is not None:
        pts = []
        for seg in path.segments:
            lo = seg.start if seg.start is not None else t_lo
            hi = seg.end if seg.end is not None else t_hi
            pts.append((sx(lo), sy(seg.point[1])))
            pts.append((sx(hi), sy(seg.point[1])))
        d = "M " + " L ".join(f"{x:.2f} {y:.2f}" for x, y in pts)
        parts.append(f'<path d="{d}" fill="none" stroke="#c0392b" stroke-width="2"/>')
    parts.append("</svg>")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# commands

class _ReportLost(Exception):
    """The report could not be written: stdout is closed (None), or writing
    to it raised the OSError this exception is raised from."""


def _emit(payload: dict) -> None:
    """Write the report to stdout and flush it, so that a dead channel shows
    here and not in the interpreter's final flush."""
    out = sys.stdout
    if out is None:
        raise _ReportLost("stdout is closed")
    try:
        write_json(payload, out)
        out.write("\n")
        out.flush()
    except OSError as exc:
        raise _ReportLost(exc) from exc


def _write_file(path_str: str, payload: dict) -> None:
    with open(path_str, "w") as out:
        write_json(payload, out)


def _fail(message: str, **extra) -> int:
    _emit({"error": message, **extra})
    return EXIT_ERROR


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        repeated = next(key for key, n in Counter(key for key, _ in pairs).items() if n > 1)
        raise ValueError(f"malformed JSON: duplicate key {repeated!r}")
    return obj


# built once: `json.loads` with a hook builds a decoder and its scanner on every call
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)

# a JSON string or number; a number's groups are its integer digits, fraction and exponent
_JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?(\d+)(\.\d+)?([eE][-+]?\d+)?')


def _load_json(path_str: str):
    """The parsed file and its SHA-256; a repeated key, nesting too deep to
    parse or an integer too long for `int` is malformed JSON, not a silent
    last-one-wins or a crash. The text is refused with a byte order mark, as
    `json.loads` refuses it."""
    with open(path_str, "rb") as file:
        raw = file.read()
    digest = hashlib.sha256(raw).hexdigest()
    text = raw.decode("utf-8")
    if text.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    try:
        return _DECODER.decode(text), digest
    except RecursionError:
        raise ValueError("malformed JSON: nested too deeply to parse") from None
    except json.JSONDecodeError:
        raise
    except ValueError as exc:
        # `_unique_keys` names its key; the other ValueError, `int`'s digit limit, names no place
        if not str(exc).startswith("malformed JSON"):
            _locate_long_integer(text)
        raise


def _locate_long_integer(text: str) -> None:
    """Raise a JSONDecodeError at the first integer of `text` past `int`'s digit
    limit. The text before it parsed, so its strings are whole tokens."""
    limit = sys.get_int_max_str_digits()
    for m in _JSON_TOKEN.finditer(text):
        digits, fraction, exponent = m.groups()
        if digits and not (fraction or exponent) and len(digits) > limit:
            message = f"an integer of {len(digits)} digits exceeds the {limit}-digit limit"
            raise json.JSONDecodeError(message, text, m.start())


def _decided(sections: GlobalSections, digest: str) -> dict:
    """The verdict, input digest and sections that `check` and `lp` report;
    the sections hold a witness exactly when the decision is feasible."""
    out = sections_to_jsonable(sections)
    return {"verdict": "EVASION" if "witness" in out else "NO_EVASION", "input_digest": digest, "sections": out}


def run_check(scene: Scene) -> tuple[Fibres, GlobalSections, EvasionPath | None, dict[str, float]]:
    """The stages of `evasion check`: gap fibres, scene validation, cone
    sheaf, decision ("lp") and, for EVASION only, the path.

    The fibres are built once and handed to validation, the sheaf builder
    and path extraction. Returns the fibres, the sections, the path (None
    for NO_EVASION) and the wall time of each stage in milliseconds. Each
    stage is looked up on its module when it runs, so that a wrapper
    installed there (a profiler's, say) sees the call.
    """
    timing: dict[str, float] = {}

    def stage(name: str, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        timing[name] = (time.perf_counter() - t0) * 1000
        return result

    fibres = stage("fibres", geometry.scene_fibres, scene)
    problem = stage("validate", geometry.validate_fibres, fibres)
    if problem is not None:
        raise SceneValidationError(problem)
    sections = stage("lp", global_sections, stage("build_sheaf", geometry.sheaf_from_fibres, fibres))
    path = stage("path", extract_path, scene, fibres, sections) if sections.decision.feasible else None
    return fibres, sections, path, timing


def cmd_check(args) -> int:
    t0 = time.perf_counter()
    data, digest = _load_json(args.scene)
    scene = scene_from_jsonable(data)
    parse_ms = (time.perf_counter() - t0) * 1000
    fibres, sections, path, timing = run_check(scene)
    timing["parse"] = parse_ms
    # drawn now, so that the fibres are not kept alive while the report is built
    svg = render_scene_svg(scene, fibres, path) if args.plot else None
    del fibres
    feasible = path is not None
    out = _decided(sections, digest)
    if args.oracle:
        t0 = time.perf_counter()
        cob = sections.coboundary
        exists = lp_positive_kernel(cob).feasible
        timing["oracle"] = (time.perf_counter() - t0) * 1000
        out["oracle"] = {"section_exists": exists}
        if exists != feasible:
            return _fail(
                "the simplex cross-check disagrees with the decision",
                decision_feasible=feasible,
                simplex_feasible=exists,
            )
    if path is not None:
        out["path"] = path_to_jsonable(path)
        if args.path_out:
            _write_file(args.path_out, out["path"])
    if svg is not None:
        Path(args.plot).write_text(svg)
    out["timing_ms"] = {k: round(v, 3) for k, v in timing.items()}
    _emit(out)
    return EXIT_EVASION if feasible else EXIT_NO_EVASION


def cmd_sheaf(args) -> int:
    data, _ = _load_json(args.scene)
    _emit(sheaf_to_jsonable(build_sheaf(scene_from_jsonable(data))))
    return EXIT_EVASION


def _load_sheaf(path_str: str) -> tuple[ConeSheaf, str]:
    data, digest = _load_json(path_str)
    return sheaf_from_jsonable(data), digest


def cmd_lp(args) -> int:
    sheaf, digest = _load_sheaf(args.sheaf)
    sections = global_sections(sheaf)
    _emit(_decided(sections, digest))
    return EXIT_EVASION if sections.decision.feasible else EXIT_NO_EVASION


def cmd_matrix(args) -> int:
    sheaf, _ = _load_sheaf(args.sheaf)
    sections = assemble_coboundary(sheaf)
    _emit(sections_to_jsonable(sections) | {"matrix": matrix_to_jsonable(sections.coboundary)})
    return EXIT_EVASION


class _Parser(argparse.ArgumentParser):
    """Raises on a usage error instead of exiting 2 (the NO_EVASION code), so
    that `main` reports it like any other input error."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once on first use. Its `commands` maps
    each command word to that command's own parser."""
    parser = _Parser(
        prog="evasion",
        description="Decide whether an evader can avoid a time-varying planar coverage region.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p = sub.add_parser("check", help="full pipeline on a scene file")
    p.add_argument("scene")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check the decision with the bounded simplex, meant for small scenes "
        "(45 s on a pulsing scene with 2000 critical times, against 0.06 s without it)",
    )
    p.add_argument("--path", dest="path_out", metavar="OUT", help="write the evasion path JSON here")
    p.add_argument("--plot", metavar="OUT_SVG", help="write an SVG rendering of gaps and path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sheaf", help="print the cone sheaf built from a scene")
    p.add_argument("scene")
    p.set_defaults(func=cmd_sheaf)

    p = sub.add_parser("lp", help="global sections of an abstract sheaf file")
    p.add_argument("sheaf")
    p.set_defaults(func=cmd_lp)

    p = sub.add_parser("matrix", help="labelled coboundary of a sheaf file")
    p.add_argument("sheaf")
    p.set_defaults(func=cmd_matrix)

    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """The arguments of one command. The command word's own parser reads
    the arguments after it, which is all the full parser would do with
    them; whatever it leaves over, and anything that does not start with a
    command word (no command, an unknown one, a help flag), goes to the full
    parser, so that every usage message and help text is argparse's own."""
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            return args
    return parser.parse_args(argv)


def _run(argv: list[str]) -> int:
    """Run one subcommand; every input error, usage errors included, becomes
    one JSON report and exit 1."""
    try:
        args = _parse(argv)
        return args.func(args)
    except json.JSONDecodeError as exc:
        return _fail(f"malformed JSON: {exc.msg}", location={"line": exc.lineno, "column": exc.colno})
    except SceneValidationError as exc:
        return _fail("scene validation failed", violations=[exc.problem])
    except SheafValidationError as exc:
        return _fail(
            "sheaf validation failed",
            violations=[
                {"vertex": v.vertex, "edge": v.edge, "generator": v.generator, "message": v.message}
                for v in exc.violations
            ],
        )
    except (OSError, ValueError) as exc:  # UnsupportedSheafError included
        return _fail(str(exc))


def _report_lost(cause) -> int:
    """End a run whose report could not be written, with exit 1 and no
    second report on the same dead stream. A closed pipe ends quietly, as a
    reader that stops early expects; a closed stdout or any other failed
    write is named in one line on stderr, if that is open. stdout's file
    descriptor, where it has one, is pointed at os.devnull, as the `signal`
    module's "Note on SIGPIPE" advises, so that the interpreter's final
    flush of what its buffer still holds neither fails nor prints."""
    if not isinstance(cause, BrokenPipeError) and sys.stderr is not None:
        try:
            print(f"evasion: cannot write the report: {cause}", file=sys.stderr)
        except OSError:
            pass
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # no stdout, or one without a descriptor
        return EXIT_ERROR
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)
    return EXIT_ERROR


def main(argv=None) -> int:
    """Run one subcommand (`_run`); a report that cannot be written ends the
    run with exit 1 (`_report_lost`).

    The cyclic garbage collector is paused for the subcommand and switched
    back on only if it was on. A subcommand's objects are acyclic and die
    with it, so reference counting frees them; the collector's passes, set
    off by the sheer number of allocations, would only re-walk live data
    (Mercurial's `util.nogc` pauses it the same way while building large
    containers)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(sys.argv[1:] if argv is None else argv)
    except _ReportLost as exc:
        return _report_lost(exc.args[0])
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
