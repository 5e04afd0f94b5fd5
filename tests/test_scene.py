"""The trusted base: the scene types, the readers of scene and path files,
and the path checker that reads them."""

import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest

import evasion.cli as cli
import evasion.formats as formats
import evasion.linalg as linalg
from evasion.scene import Box, Scene

PACKAGE = Path(__file__).parent.parent / "src" / "evasion"


def evasion_imports(module: str) -> set[str]:
    """The evasion modules that the module's source imports, read with `ast`."""
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = ("evasion" + (f".{node.module}" if node.module else "")) if node.level else node.module
            names |= {f"{base}.{alias.name}" for alias in node.names} if base == "evasion" else {base}
    return {name.split(".")[1] for name in names if name.startswith("evasion.")}


def test_the_path_checker_reaches_only_the_scene_types():
    # the trusted base is the checker, the readers of its files and the
    # scene types; importing any evasion module runs the package's __init__ too
    reached, todo = set(), ["__init__", "certify", "formats"]
    while todo:
        module = todo.pop()
        if module not in reached:
            reached.add(module)
            todo += evasion_imports(module)
    assert reached == {"__init__", "certify", "formats", "scene"}
    assert evasion_imports("scene") == set() == evasion_imports("__init__")
    assert evasion_imports("formats") == {"scene"}
    assert evasion_imports("geometry") >= {"certify", "scene"}
    # the names the other modules bind are the readers themselves, not copies
    assert cli.scene_from_jsonable is formats.scene_from_jsonable
    assert cli.path_from_jsonable is formats.path_from_jsonable
    assert linalg.parse_rational is formats.parse_rational
    readers = {"parse_rational", "format_rational", "scene_from_jsonable", "path_from_jsonable"}
    for source in PACKAGE.glob("*.py"):
        defined = {node.name for node in ast.walk(ast.parse(source.read_text())) if isinstance(node, ast.FunctionDef)}
        assert defined & readers == (readers if source.stem == "formats" else set()), source.stem


@pytest.mark.parametrize(
    "build, value",
    [
        (lambda: Box.make((0.1, 1), (0, 1), (0, 2)), "0.1"),
        (lambda: Box.make((0, 1), (0, 1), (True, 2)), "True"),
        (lambda: Scene.make((0, 1), (0, 2.0)), "2.0"),
        (lambda: Scene.make((0, 1), (0, 1)).shifted(0, False, 0), "False"),
        (lambda: Scene.make((0, 1), (0, 1)).shifted(0, 0, 0.5), "0.5"),
        (lambda: Box.make(("1/0", 1), (0, 1), (0, 2)), "'1/0'"),
        (lambda: Scene.make((0, 1), (0, "1/0")), "'1/0'"),
        (lambda: Scene.make((0, 1), (0, 1)).shifted("1/0", 0, 0), "'1/0'"),
        (lambda: Box.make(("1e5000", "1e5001"), (0, 1), (0, 2)), "'1e5000'"),
    ],
    ids=[
        "box-float",
        "box-bool",
        "scene-float",
        "shift-bool",
        "shift-float",
        "box-1/0",
        "scene-1/0",
        "shift-1/0",
        "box-literal",
    ],
)
def test_floats_and_bools_are_refused_by_name(build, value):
    # read silently, 0.1 would become its binary expansion and True the
    # integer 1; a string is a literal, read by the scene reader alone, which
    # refuses "1/0" and writes "1e5000" out no further than its digit bound
    with pytest.raises(ValueError, match=f"not an exact rational: {value}$"):
        build()


@pytest.mark.parametrize(
    "build, value",
    [
        (lambda: Box.make((0, 1, 7), (0, 1), (0, 1)), "(0, 1, 7)"),
        (lambda: Box.make("01", (0, 1), (0, 1)), "'01'"),
        (lambda: Box.make((0, 1), (0,), (0, 1)), "(0,)"),
        (lambda: Box.make((0, 1), (0, 1), 5), "5"),
        (lambda: Scene.make((0, 4, 9), (0, 4)), "(0, 4, 9)"),
    ],
    ids=["box-three-ends", "box-string", "box-one-end", "box-number", "scene-three-ends"],
)
def test_an_interval_that_is_not_a_pair_is_refused_by_name(build, value):
    # read silently, the first two entries would be taken and the rest
    # dropped, or the refusal would be an IndexError or a TypeError
    with pytest.raises(ValueError, match=re.escape(f"an interval must be a two-element list, got {value}") + "$"):
        build()


def test_boxes_share_a_rectangle_by_value():
    # built apart, from ints and Fractions, and at different times
    boxes = [
        Box.make((0, 1), (0, 1), (0, 2)),
        Box.make((0, 1), (0, 1), (1, 2)),
        Box.make((5, 6), (Fraction(0), Fraction(2, 2)), (0, Fraction(4, 2))),
        Box.make((2, 3), (0, 1), (1, 2)),
    ]
    shapes, index = Scene.make((0, 3), (0, 3), boxes).rectangles
    assert index == (0, 1, 0, 1)
    assert [(b.x, b.y) for b in shapes] == [((0, 1), (0, 2)), ((0, 1), (1, 2))]
