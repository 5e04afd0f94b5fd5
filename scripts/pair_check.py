#!/usr/bin/env python3
"""Interleaved A/B timing of `evasion check` between this checkout and another.

Both `src/evasion` trees are imported into one process: the evasion modules
are dropped from `sys.modules` and imported again from the other tree's
`src`, as `perfbench/program.load_program` does, and each tree's `cli`
keeps its own module objects. The scenes are built once by this tree's
`evasion.randgen` and written as JSON files: each `--family NAME=N[,N...]`
at its sizes (by default pulsing=400, blocked=400, comb=24, slalom=100,
staircase=25 and jittered-pulsing=400, one scene each), and `--random`
seeded `random_scene(rng, 10)` draws, a family of its own unless there are
none. Slalom's path hops at every event, so its checks are mostly path
extraction and verification. Staircase and jittered pulsing are where the
fibre layer and scenes in general position cost most, and the benchmark's
workloads, which share rectangles, do not look there.

First, untimed, every command runs once in each tree and the two outputs
are compared byte for byte, exit codes included: on each scene file `check
--path --plot` (its report with `timing_ms` removed, its path file and its
SVG) and `sheaf`; on the sheaf that tree printed and on each sheaf file in
`tests/fixtures`, `lp` and `matrix`. Any difference is printed and makes
the exit status 1. Then each pair gives each tree one
turn per family, the tree that runs first alternating from pair to pair. A
turn runs in-process `cli.main(["check", file])` over the family's files,
as many rounds as make about `--turn` seconds in this tree's untimed pass,
and is timed as a whole. Running both trees in one process, turn by turn,
keeps the load of a shared machine from reading as a difference between
them. What is left of it, the machine's speed changing from one turn to the
next, is taken out by the benchmark's own speed probe
(`perfbench/speed.py`): its timer runs a fixed piece of exact arithmetic
every few milliseconds, and each turn's time, less the probe's own time
inside it, is rescaled by the probe times around it to a machine of fixed
speed.

For each family the script prints each tree's median rescaled time per
check with its quartiles over the pairs, the median of the paired ratios
(this tree over the other; below 1 means this tree is faster), the number
of pairs this tree won, and whether the difference is resolved: one tree
won at least 9 pairs in 10 (a tie counts for neither) and the two medians
differ by more than the other tree's quartile spread. All of these are
read from the rescaled times; the raw medians follow them.

Usage: python scripts/pair_check.py OTHER_CHECKOUT [--pairs N] [--turn SECONDS]
       [--seed S] [--family NAME=N[,N...] ...] [--random COUNT]
"""

import argparse
import importlib
import io
import json
import re
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path
from random import Random
from statistics import median, quantiles

THIS = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(THIS / "perfbench"))
from speed import INTERVAL_S, SpeedProbe  # noqa: E402

FIXTURES = THIS / "tests" / "fixtures"
TIMING = re.compile(r'"timing_ms": \{[^}]*\}')
DEFAULT_FAMILIES = ["pulsing=400", "blocked=400", "comb=24", "slalom=100", "staircase=25", "jittered-pulsing=400"]


def load_cli(checkout: Path):
    """`evasion.cli` imported afresh from the checkout's `src`."""
    src = checkout.resolve() / "src"
    if not (src / "evasion" / "__init__.py").is_file():
        raise SystemExit(f"no evasion package under {src}")
    for name in [m for m in sys.modules if m == "evasion" or m.startswith("evasion.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        cli = importlib.import_module("evasion.cli")
    finally:
        sys.path.remove(str(src))
    if Path(cli.__file__).resolve().parent != src / "evasion":
        raise SystemExit(f"evasion was imported from {cli.__file__}, not from {src}")
    return cli


def write_scenes(cli, randgen, families, args, workdir: Path) -> dict[str, list[str]]:
    """The scene files of each (family, sizes) and of the random draws, if any."""
    scenes: dict[str, list] = {}
    for name, sizes in families:
        scenes.setdefault(name, []).extend(map(randgen.FAMILIES[name][0], sizes))
    if args.random:
        rng = Random(args.seed)
        scenes["random"] = [randgen.random_scene(rng, 10) for _ in range(args.random)]
    files = {}
    for family, built in scenes.items():
        files[family] = []
        for n, scene in enumerate(built):
            path = workdir / f"{family}{n}.json"
            path.write_text(json.dumps(cli.scene_to_jsonable(scene)))
            files[family].append(str(path))
    return files


def run(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def taken(path: Path) -> str | None:
    """The file's text, or None if there is none; the file is removed."""
    if not path.exists():
        return None
    text = path.read_text()
    path.unlink()
    return text


def sheaf_outputs(cli, sheaf: str) -> dict[str, tuple[int, str]]:
    """The exit code and output of each sheaf command on the sheaf file."""
    commands = (["lp"], ["matrix"])
    return {" ".join(command): run(cli, [*command, sheaf]) for command in commands}


def scene_outputs(cli, scene: str, workdir: Path) -> dict[str, tuple]:
    """The exit code and output of each command on the scene file and on the
    sheaf it prints, with the files `check` writes and without its `timing_ms`."""
    path_file, svg_file, sheaf_file = (workdir / name for name in ("path.json", "plot.svg", "sheaf.json"))
    code, text = run(cli, ["check", "--path", str(path_file), "--plot", str(svg_file), scene])
    out: dict[str, tuple] = {"check": (code, TIMING.sub("", text), taken(path_file), taken(svg_file))}
    out["sheaf"] = code, text = run(cli, ["sheaf", scene])
    if code == 0:
        sheaf_file.write_text(text)
        out |= sheaf_outputs(cli, str(sheaf_file))
    return out


def timed(cli, paths: list[str], probe: SpeedProbe, rounds: int = 1) -> tuple[float, float]:
    """The turn's time less the probe's time inside it, raw and rescaled."""
    busy, t0 = probe.busy, time.perf_counter()
    for _ in range(rounds):
        for path in paths:
            run(cli, ["check", path])
    t1 = time.perf_counter()
    own = t1 - t0 - (probe.busy - busy)
    return own, own * probe.scale(t0, t1)


def spread(times: list[float], per: int) -> str:
    q1, _, q3 = quantiles(times, n=4, method="inclusive")
    return f"{1000 * median(times) / per:9.3f} [{1000 * q1 / per:.3f}, {1000 * q3 / per:.3f}]"


def resolved(this: list[float], other: list[float]) -> bool:
    """One tree won at least 9 pairs in 10 and the medians differ by more
    than the other tree's quartile spread."""
    wins = max(sum(a < b for a, b in zip(this, other)), sum(a > b for a, b in zip(this, other)))
    q1, _, q3 = quantiles(other, n=4, method="inclusive")
    return 10 * wins >= 9 * len(this) and abs(median(this) - median(other)) > q3 - q1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="the checkout to compare this one with")
    parser.add_argument("--pairs", type=int, default=10, help="timed pairs per family, at least 2")
    parser.add_argument("--turn", type=float, default=0.25, help="seconds of one tree's turn at a family")
    parser.add_argument("--seed", type=int, default=1, help="seed of the random scenes")
    parser.add_argument("--family", action="append", metavar="NAME=N[,N...]", help="a family and its sizes, repeatable")
    parser.add_argument("--random", type=int, default=200, help="number of random scenes")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    if args.random < 0:
        parser.error("--random must be at least 0")

    other = load_cli(args.other)
    this = load_cli(THIS)
    randgen = importlib.import_module("evasion.randgen")
    try:
        families = [randgen.parse_family(text) for text in args.family or DEFAULT_FAMILIES]
    except ValueError as exc:
        parser.error(f"argument --family: {exc}")
    trees = {"this": this, "other": other}
    with tempfile.TemporaryDirectory() as tmp, SpeedProbe() as probe:
        workdir = Path(tmp)
        files = write_scenes(this, randgen, families, args, workdir)
        inputs = [(family, path) for family, paths in files.items() for path in paths]
        inputs += [
            ("fixture", str(p)) for p in sorted(FIXTURES.glob("*.json")) if "vertices" in json.loads(p.read_text())
        ]
        differ = []
        for family, path in inputs:
            if family == "fixture":
                ours, theirs = sheaf_outputs(this, path), sheaf_outputs(other, path)
            else:
                ours, theirs = scene_outputs(this, path, workdir), scene_outputs(other, path, workdir)
            differ += [(family, path, command) for command in ours if ours[command] != theirs.get(command)]
        time.sleep(INTERVAL_S)  # so that the probe has run before the first timed turn
        rounds = {family: max(1, round(args.turn / timed(this, paths, probe)[0])) for family, paths in files.items()}
        for family, path, command in differ:
            print(f"outputs differ outside timing_ms: {family} {Path(path).name} `{command}`")
        print(f"this: {THIS}\nother: {args.other.resolve()}")
        print(
            f"{'family':16} {'checks':>6}  {'this rescaled ms [q1, q3]':>30}  {'other rescaled ms [q1, q3]':>30}  "
            f"ratio  {'wins':>5}  difference  raw ms: this  other"
        )
        for family, paths in files.items():
            checks = len(paths) * rounds[family]
            raw: dict[str, list[float]] = {"this": [], "other": []}
            times: dict[str, list[float]] = {"this": [], "other": []}
            for n in range(args.pairs):
                for name in ("this", "other") if n % 2 == 0 else ("other", "this"):
                    own, rescaled = timed(trees[name], paths, probe, rounds[family])
                    raw[name].append(own)
                    times[name].append(rescaled)
            ratios = [a / b for a, b in zip(times["this"], times["other"])]
            wins = sum(r < 1 for r in ratios)
            verdict = "resolved" if resolved(times["this"], times["other"]) else "unresolved"
            print(
                f"{family:16} {checks:6}  {spread(times['this'], checks):>30}  "
                f"{spread(times['other'], checks):>30}  {median(ratios):.3f}  "
                f"{f'{wins}/{args.pairs}':>5}  {verdict:10}  "
                f"{1000 * median(raw['this']) / checks:12.3f}  {1000 * median(raw['other']) / checks:.3f}"
            )
    summary = "reports identical outside timing_ms" if not differ else f"{len(differ)} outputs differ"
    print(f"{len(inputs)} inputs: {summary}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
