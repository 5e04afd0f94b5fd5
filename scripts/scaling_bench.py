#!/usr/bin/env python3
"""Wall-clock scaling of the full decision pipeline on two scene families.

- pulsing n: rank-one stalks at every cell and n critical times, so the
  numbers isolate the pipeline's bookkeeping (arrangement sweeps,
  coboundary assembly, decision, path extraction) as the timeline grows.
- comb m: m walls opening one after another, about m+1 gap components per
  cell and 2m+1 critical times, so stalks and arrangements grow too.

The fibre cache is cleared first and the gap fibres are timed as their own
stage, so "validate" is scene validation alone.

Usage: python scripts/scaling_bench.py [pulsing sizes ...] [--comb sizes ...]
"""

import argparse
import time

from evasion.geometry import build_sheaf, extract_path, scene_fibres, validate_scene
from evasion.randgen import comb_scene, pulsing_box_scene
from evasion.sheaf import global_sections


def run(scene) -> dict:
    out = {}
    scene_fibres.cache_clear()
    t0 = time.perf_counter()
    times, _, _ = scene_fibres(scene)
    out["fibres_s"] = time.perf_counter() - t0
    out["critical_times"] = len(times)
    t0 = time.perf_counter()
    report = validate_scene(scene)
    out["validate_s"] = time.perf_counter() - t0
    assert report.ok
    t0 = time.perf_counter()
    sheaf = build_sheaf(scene)
    out["build_sheaf_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    sections = global_sections(sheaf)
    out["global_sections_s"] = time.perf_counter() - t0
    out["verdict"] = "EVASION" if sections.decision.feasible else "NO_EVASION"
    out["kernel_dim"] = sections.kernel_dim
    t0 = time.perf_counter()
    path = extract_path(scene, sections)
    out["extract_path_s"] = time.perf_counter() - t0
    out["segments"] = len(path.segments)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("sizes", nargs="*", type=int, default=[10, 100, 1000], help="pulsing critical times")
    parser.add_argument("--comb", nargs="*", type=int, default=[10, 40], metavar="M", help="comb walls")
    args = parser.parse_args()
    print(f"{'family':>8} {'size':>6} {'times':>6} {'fibres':>9} {'validate':>9} {'sheaf':>9} {'sections':>9} {'path':>9}  verdict")
    cases = [("pulsing", n, pulsing_box_scene) for n in args.sizes] + [("comb", m, comb_scene) for m in args.comb]
    for family, size, make in cases:
        r = run(make(size))
        print(
            f"{family:>8} {size:>6} {r['critical_times']:>6} {r['fibres_s']:>8.3f}s {r['validate_s']:>8.3f}s "
            f"{r['build_sheaf_s']:>8.3f}s {r['global_sections_s']:>8.3f}s {r['extract_path_s']:>8.3f}s  {r['verdict']}"
        )


if __name__ == "__main__":
    main()
