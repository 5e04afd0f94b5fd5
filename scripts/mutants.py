#!/usr/bin/env python3
"""One-token mutation testing of modules against a pytest selection.

Each module is parsed with `ast`, and every site of these operators gives
one mutant:

- a comparison flipped: `<` and `<=`, `>` and `>=`, `==` and `!=`;
- a name swapped: `bisect_left` and `bisect_right`, `max` and `min`;
- a boolean operator swapped: `and` and `or`;
- an integer constant moved by 1, up and down (two mutants).

A mutant is named `FILE:LINE:COL OLD->NEW`, where FILE is the module's file
name and LINE:COL the position of the token, or for a comparison that of its
left operand. The whole checkout is copied once under a temporary directory;
each mutant is written over its module there (as `ast.unparse` gives it back)
and `python -m pytest -x -q PYTEST_ARGS` runs in that copy, with the copy's
`src` first on the path. A failing run, or one past TIMEOUT seconds (a
mutant can turn a loop endless), kills the mutant; a passing run means it
survived.

`tests/equivalent_mutants.txt` lists the survivors that change no behaviour,
one a line: the mutant's name, then ` | ` and a one-line reason. The script
prints every survivor and exits 1 if any of them is not listed there, else 0.
`--only NAME` (repeatable) runs the named mutants alone, and exits 1 if one
of them names no mutant.

Usage: python scripts/mutants.py MODULE... [--only NAME ...] -- PYTEST_ARGS
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from collections.abc import Iterator
from pathlib import Path

THIS = Path(__file__).resolve().parent.parent
EQUIVALENT = THIS / "tests" / "equivalent_mutants.txt"
# seconds one pytest run may take; below the 600 s a caller's own limit
# allows a whole run, so a hanging mutant is reported by name
TIMEOUT = 120

FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!="}
SWAPS = {"bisect_left": "bisect_right", "bisect_right": "bisect_left", "max": "min", "min": "max"}


def sites(tree: ast.AST) -> list[tuple[int, int, str, str, ast.AST, object]]:
    """(line, column, old, new, node, how) of every mutation site, in source
    order; `how` is the new operator class, name or constant, or for a
    comparison the index of its operator and the new operator class."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                new = FLIPS.get(type(op))
                if new is not None:
                    left = node.left if i == 0 else node.comparators[i - 1]
                    found.append((left.lineno, left.col_offset, SYMBOLS[type(op)], SYMBOLS[new], node, (i, new)))
        elif isinstance(node, ast.Name) and node.id in SWAPS:
            found.append((node.lineno, node.col_offset, node.id, SWAPS[node.id], node, SWAPS[node.id]))
        elif isinstance(node, ast.BoolOp):
            old, new = ("and", ast.Or) if isinstance(node.op, ast.And) else ("or", ast.And)
            found.append((node.lineno, node.col_offset, old, new.__name__.lower(), node, new))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            for moved in (node.value + 1, node.value - 1):
                found.append((node.lineno, node.col_offset, str(node.value), str(moved), node, moved))
    return sorted(found, key=lambda site: site[:4])


def mutants(path: Path) -> Iterator[tuple[str, str]]:
    """(name, mutated source) of every mutant of the module, each made on a
    fresh parse of it."""
    source = path.read_text()
    for n in range(len(sites(ast.parse(source)))):
        tree = ast.parse(source)
        line, col, old, new, node, how = sites(tree)[n]
        if isinstance(node, ast.Compare):
            i, op = how
            node.ops[i] = op()
        elif isinstance(node, ast.Name):
            node.id = how
        elif isinstance(node, ast.BoolOp):
            node.op = how()
        else:
            node.value = how
        yield f"{path.name}:{line}:{col} {old}->{new}", ast.unparse(tree)


def equivalent() -> dict[str, str]:
    """Mutant name -> the reason it is listed as equivalent."""
    listed = {}
    for line in EQUIVALENT.read_text().splitlines() if EQUIVALENT.exists() else ():
        if line.strip() and not line.startswith("#"):
            name, _, reason = line.partition(" | ")
            listed[name.strip()] = reason.strip()
    return listed


def run(copy: Path, pytest_args: list[str]) -> bool:
    """Does the pytest selection pass in the copy?"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")])))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *pytest_args]
    try:
        done = subprocess.run(command, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("modules", nargs="+", type=Path)
    parser.add_argument("--only", action="append", metavar="NAME", help="run this mutant alone (repeatable)")
    args = parser.parse_args(argv[:split])
    pytest_args = argv[split + 1 :]

    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(THIS, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", "_work"))
        if not run(copy, pytest_args):
            print("the selection fails on the unmutated code", file=sys.stderr)
            return 1
        names, found, survivors, listed = set(), 0, [], equivalent()
        for module in args.modules:
            target = copy / module.resolve().relative_to(THIS)
            original = target.read_text()
            for name, source in mutants(module.resolve()):
                names.add(name)
                if args.only is not None and name not in args.only:
                    continue
                found += 1
                target.write_text(source)
                survived = run(copy, pytest_args)
                print(f"{'SURVIVED' if survived else 'killed  '} {name}", flush=True)
                if survived:
                    survivors.append(name)
            target.write_text(original)
    unknown = sorted(set(args.only or ()) - names)
    for name in unknown:
        print(f"no such mutant: {name}", file=sys.stderr)
    unlisted = [name for name in survivors if name not in listed]
    print(f"{found} mutants, {found - len(survivors)} killed, {len(survivors)} survived, {len(unlisted)} not listed as equivalent")
    for name in survivors:
        print(f"  {name}: {listed.get(name, 'NOT LISTED')}")
    return 1 if unlisted or unknown else 0


if __name__ == "__main__":
    sys.exit(main())
