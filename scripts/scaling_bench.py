#!/usr/bin/env python3
"""Wall-clock scaling of the full decision pipeline on the pulsing family.

The family has rank-one stalks at every cell, so the numbers isolate the
pipeline's bookkeeping (arrangement sweeps, coboundary assembly, decision,
path extraction) as the number of critical times grows. Both scene caches
are cleared first and the gap fibres are timed as their own stage, so
"validate" is scene validation alone.

Usage: python scripts/scaling_bench.py [sizes ...]
"""

import argparse
import time

from evasion.geometry import build_sheaf, extract_path, scene_fibres, validate_scene
from evasion.randgen import pulsing_box_scene
from evasion.sheaf import global_sections


def run(n: int) -> dict:
    scene = pulsing_box_scene(n)
    out = {"critical_times": n}
    scene_fibres.cache_clear()
    validate_scene.cache_clear()
    t0 = time.perf_counter()
    scene_fibres(scene)
    out["fibres_s"] = time.perf_counter() - t0
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
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("sizes", nargs="*", type=int, default=[10, 100, 1000])
    args = parser.parse_args()
    header = f"{'n':>6} {'fibres':>9} {'validate':>9} {'sheaf':>9} {'sections':>9} {'path':>9}  verdict"
    print(header)
    for n in args.sizes:
        r = run(n)
        print(
            f"{r['critical_times']:>6} {r['fibres_s']:>8.3f}s {r['validate_s']:>8.3f}s {r['build_sheaf_s']:>8.3f}s "
            f"{r['global_sections_s']:>8.3f}s {r['extract_path_s']:>8.3f}s  {r['verdict']}"
        )


if __name__ == "__main__":
    main()
