#!/usr/bin/env python3
"""Wall-clock scaling of the full decision pipeline on the scene families of
`evasion.randgen.FAMILIES`: pulsing, comb, blocked, slalom, staircase,
the jittered twins of pulsing and slalom, and the long-literal twins
deep-slalom and deep-jittered-pulsing, whose size is the literal length.
Each builder's docstring says what its family grows and why it is here. `--family NAME=N[,N...]`, which
may be repeated, runs a family at the given sizes. `--random COUNT` adds a
"random" row of size COUNT: COUNT `random_scene(rng, 10)` draws from
`Random(1)`, the small scenes where the fixed cost of a check (argument
parsing, file read, stage set-up, report) is a large share. Without either
option every registered family runs at its default sizes.

Each scene is written to a JSON file, and "parse" times reading it back as
`evasion check` does: `evasion.cli._load_json` (the file read, its SHA-256
and the JSON parse with the duplicate-key check), then
`evasion.cli.scene_from_jsonable`. The scene then runs through
`evasion.cli.run_check`, the pipeline of `evasion check`, and the other
columns are its `timing_ms` stages in milliseconds: fibres, validate,
build_sheaf, lp and path. "fibres" builds the gap fibres, and the later
stages take them from it, so "validate" is scene validation alone and
"build_sheaf" sheaf construction alone. "report" builds the report's
sections and path payload (`sections_to_jsonable` and `path_to_jsonable`),
and "write" serialises it with `evasion.cli.write_json` into memory.
"check" is the whole command: in-process `evasion.cli.main(["check",
file])` on the scene written to a file, its report sent to a buffer. The
cyclic garbage collector is paused around the timed `run_check`, as `main`
pauses it, so that no collection lands in whichever stage is running.

Each case runs REPEATS times and every column is the median over those runs.
A random row's repeat runs every draw once, and each of its columns is, per
repeat, the median over the draws (over the EVASION draws for "path"); its
"times" and "gc" are the lower medians over the draws, and its verdict counts
the EVASION draws.
The repeats are interleaved: repeat r of every case runs before repeat r+1
of any case, so that a spell of load on the host spreads over the cases
instead of moving a whole row. What is left of the load, the machine's
speed changing from one repeat to the next, is taken out by the
benchmark's own speed probe (`perfbench/speed.py`), as
`scripts/pair_check.py` takes it out: its timer runs a fixed piece of exact
arithmetic every few milliseconds, and every stage time of a repeat is
multiplied by the probe's scale around that repeat, so it reads as the
time on a machine where the probe takes `speed.REFERENCE_PROBE_S`. Rows
timed on different days or hosts are then comparable. The probe's own time
inside a stage, about 1% of it, is left in.
"times" is the number of critical times of the untimed warm-up check (a
scene with no box event has one vertex, at t=0).
"gc" is the number of cyclic-GC collections, all generations, during one
untimed warm-up `run_check` of the case with the collector on, read from
`gc.get_stats()` before and after it, so the count measures the pipeline's
allocation churn.
"peak KiB" is the `tracemalloc` peak of one more untimed `run_check` of the
case, with the collector paused as `main` pauses it: the most memory the
pipeline's Python objects held at once, the scene read before tracing
starts. The timed repeats run untraced.

With `--out FILE` the script also writes a JSON file: one row per (family,
size, stage) with the median, first and third quartile of the REPEATS
rescaled runs in ms and the median of the raw ones, the case's peak KiB as
`tracemalloc_peak_kib` and its warm-up collections as `gc` (a random
row's are the lower medians over the draws, as its "times" is), the probe
time the rows
are rescaled to, and one least-squares slope of log(median) against
log(size) per (family, stage) run at two sizes or more, the stage's growth
exponent.

Usage: python scripts/scaling_bench.py [--family NAME=N[,N...] ...] [--random COUNT] [--out FILE]
"""

import argparse
import gc
import io
import json
import os
import platform
import sys
import tempfile
import time
import tracemalloc
from contextlib import redirect_stdout
from math import log
from pathlib import Path
from random import Random
from statistics import median, median_low, quantiles

from evasion.cli import (
    _load_json,
    main as evasion_main,
    path_to_jsonable,
    run_check,
    scene_from_jsonable,
    scene_to_jsonable,
    sections_to_jsonable,
    write_json,
)
from evasion.randgen import FAMILIES, parse_family, random_scene

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from speed import INTERVAL_S, REFERENCE_PROBE_S, SpeedProbe  # noqa: E402

STAGES = ("parse", "fibres", "validate", "build_sheaf", "lp", "path", "report", "write", "check")
REPEATS = 5


def collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def read_scene(scene_file: Path):
    return scene_from_jsonable(_load_json(str(scene_file))[0])


def run_once(scene_file: Path) -> tuple[dict[str, float], str]:
    """Stage times in ms, with the collector paused around the check, and the verdict."""
    t0 = time.perf_counter()
    scene = read_scene(scene_file)
    parse_ms = (time.perf_counter() - t0) * 1000
    enabled = gc.isenabled()
    gc.disable()
    try:
        _, sections, path, timing = run_check(scene)
    finally:
        if enabled:
            gc.enable()
    timing["parse"] = parse_ms
    t0 = time.perf_counter()
    payload = {"sections": sections_to_jsonable(sections)}
    if path is not None:
        payload["path"] = path_to_jsonable(path)
    t1 = time.perf_counter()
    write_json(payload, io.StringIO())
    t2 = time.perf_counter()
    timing["report"], timing["write"] = (t1 - t0) * 1000, (t2 - t1) * 1000
    return timing, "EVASION" if sections.decision.feasible else "NO_EVASION"


def peak_kib(scene_file: Path) -> float:
    """The `tracemalloc` peak in KiB of one `run_check` of the scene, with the
    collector paused; the scene is read before tracing starts."""
    scene = read_scene(scene_file)
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        run_check(scene)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    return peak / 1024


def check_once(scene_file: Path) -> float:
    """Wall time in ms of in-process `evasion check` on the file."""
    with redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        evasion_main(["check", str(scene_file)])
        return (time.perf_counter() - t0) * 1000


def slope(points: list[tuple[int, float]]) -> float:
    """The least-squares slope of log(median) against log(size)."""
    xs = [log(size) for size, _ in points]
    ys = [log(ms) for _, ms in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def write_out(path: str, rows: list[dict]) -> None:
    """The rows, and the slope of each (family, stage) with two sizes or more, as JSON."""
    growth: dict[tuple[str, str], list[tuple[int, float]]] = {}
    for row in rows:
        growth.setdefault((row["family"], row["stage"]), []).append((row["size"], row["median_ms"]))
    slopes = [
        {"family": family, "stage": stage, "sizes": [size for size, _ in points], "slope": round(slope(points), 3)}
        for (family, stage), points in growth.items()
        if len({size for size, _ in points}) > 1 and all(ms > 0 for _, ms in points)
    ]
    data = {
        "command": ["scripts/scaling_bench.py", *sys.argv[1:]],
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "repeats": REPEATS,
        "reference_probe_s": REFERENCE_PROBE_S,
        "rows": rows,
        "slopes": slopes,
    }
    Path(path).write_text(json.dumps(data, indent=1) + "\n")


def verdict_of(verdicts: list[str]) -> str:
    """A family scene's verdict, or how many of the random draws are EVASION."""
    if len(verdicts) == 1:
        return verdicts[0]
    return f"{verdicts.count('EVASION')}/{len(verdicts)} EVASION"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--family", action="append", metavar="NAME=N[,N...]", help="a family and its sizes, repeatable")
    parser.add_argument("--random", type=int, default=0, metavar="COUNT", help="add a row of COUNT random draws")
    parser.add_argument("--out", metavar="FILE", help="also write the rows and growth slopes to FILE as JSON")
    args = parser.parse_args()
    try:
        families = [parse_family(text) for text in args.family or ()]
    except ValueError as exc:
        parser.error(f"argument --family: {exc}")
    if args.random < 0:
        parser.error("argument --random: COUNT must be at least 0")
    if not families and not args.random:
        families = [(name, sizes) for name, (_, _, sizes) in FAMILIES.items()]
    # each case is (family, size, its scenes): one scene, or the random draws
    cases = [(name, size, [FAMILIES[name][0](size)]) for name, sizes in families for size in sizes]
    if args.random:
        rng = Random(1)
        cases.append(("random", args.random, [random_scene(rng, 10) for _ in range(args.random)]))
    header = "".join(f" {stage:>11}" for stage in STAGES)
    print(f"stage medians in ms, rescaled to a machine where the speed probe takes {REFERENCE_PROBE_S * 1000} ms")
    print(f"{'family':>16} {'size':>6} {'times':>6}{header} {'gc':>4} {'peak KiB':>9}  verdict")
    rows = []
    with tempfile.TemporaryDirectory() as tmp, SpeedProbe() as probe:
        inputs = []  # (scene files, critical times, warm-up collections, peak KiB) of each case
        for n, (_, _, scenes) in enumerate(cases):
            files, counts, collected, peaks = [], [], [], []
            for m, scene in enumerate(scenes):
                files.append(Path(tmp) / f"scene{n}-{m}.json")
                files[-1].write_text(json.dumps(scene_to_jsonable(scene)))
                before = collections()
                counts.append(len(run_check(read_scene(files[-1]))[0][0]))  # the untimed warm-up, with the collector on
                collected.append(collections() - before)
                peaks.append(peak_kib(files[-1]))
            inputs.append((files, median_low(counts), median_low(collected), median_low(peaks)))
        time.sleep(INTERVAL_S)  # so that the probe has run before the first timed repeat
        # repeat r of every case before repeat r+1 of any, so that a spell of host load spreads over the cases
        repeats: list[list] = [[] for _ in cases]  # per case and repeat: rescaled and raw stage times, verdicts
        for _ in range(REPEATS):
            for runs, (files, _, _, _) in zip(repeats, inputs):
                rescaled: dict[str, list[float]] = {}
                unscaled: dict[str, list[float]] = {}
                verdicts = []
                for scene_file in files:
                    t0 = time.perf_counter()
                    timing, verdict = run_once(scene_file)
                    timing["check"] = check_once(scene_file)
                    scale = probe.scale(t0, time.perf_counter())
                    for stage, ms in timing.items():
                        rescaled.setdefault(stage, []).append(ms * scale)
                        unscaled.setdefault(stage, []).append(ms)
                    verdicts.append(verdict)
                medians = {stage: median(values) for stage, values in rescaled.items()}
                runs.append((medians, {stage: median(values) for stage, values in unscaled.items()}, verdicts))
        for (family, size, _), runs, (_, count, collected, peak) in zip(cases, repeats, inputs):
            columns = ""
            for stage in STAGES:
                if any(stage not in medians for medians, _, _ in runs):
                    columns += f" {'-':>11}"
                    continue
                q1, mid, q3 = quantiles([medians[stage] for medians, _, _ in runs], n=4, method="inclusive")
                columns += f" {mid:>9.3f}ms"
                row = {"family": family, "size": size, "critical_times": count, "stage": stage}
                row |= {"median_ms": round(mid, 4), "q1_ms": round(q1, 4), "q3_ms": round(q3, 4)}
                row["tracemalloc_peak_kib"], row["gc"] = round(peak, 1), collected
                rows.append(row | {"raw_median_ms": round(median(raws[stage] for _, raws, _ in runs), 4)})
            print(f"{family:>16} {size:>6} {count:>6}{columns} {collected:>4} {peak:>9.0f}  {verdict_of(runs[0][2])}")
    if args.out:
        write_out(args.out, rows)


if __name__ == "__main__":
    main()
