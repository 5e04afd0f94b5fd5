#!/usr/bin/env python3
"""The verdict of `evasion check` against the interval reference decider on
full-height registry families, at sizes the test suite cannot afford.

Every box of a full-height scene spans the window's whole height, so its
gap is a set of free x-intervals and evasion is reachability over time
(`tests/reference_interval.py`, which shares no fibre, sheaf or grid code
with the package). `tests/test_interval.py` compares the two deciders on
comb up to m=40 and on slalom and jittered slalom up to n=1600. Comb m=320
stays out of it: the reference rescans every wall for every interval at
every critical time, and takes over a minute there, where `run_check`
takes well under a second.

Each `--family NAME=N[,N...]` (repeatable; by default comb=320) runs
`evasion.cli.run_check` and `reference_interval_decision` on the family's
scene at each size. One line per scene gives both verdicts, the reference's
blocking time for NO_EVASION, and the seconds each decider took. A family
with a box that is not full-height is a usage error. The exit status is 1
if any two verdicts differ, else 0.

Usage: python scripts/interval_check.py [--family NAME=N[,N...] ...]
"""

import argparse
import sys
import time
from pathlib import Path

from evasion.cli import run_check
from evasion.randgen import FAMILIES, parse_family

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from reference_interval import reference_interval_decision  # noqa: E402

DEFAULT_FAMILIES = ["comb=320"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--family", action="append", metavar="NAME=N[,N...]", help="a family and its sizes, repeatable")
    args = parser.parse_args()
    try:
        families = [parse_family(text) for text in args.family or DEFAULT_FAMILIES]
    except ValueError as exc:
        parser.error(f"argument --family: {exc}")
    scenes = [(name, n, FAMILIES[name][0](n)) for name, sizes in families for n in sizes]
    for name, n, scene in scenes:
        y0, y1 = scene.window_y
        if any(b.y[0] > y0 or b.y[1] < y1 for b in scene.boxes):
            parser.error(f"argument --family: {name}={n} is not a full-height scene")
    print(f"{'family':>16} {'size':>6} {'check':>10} {'reference':>10} {'blocked at':>10} {'check s':>8} {'ref s':>8}")
    disagreements = 0
    for name, n, scene in scenes:
        t0 = time.perf_counter()
        _, sections, _, _ = run_check(scene)
        t1 = time.perf_counter()
        expected, blocked_at = reference_interval_decision(scene)
        t2 = time.perf_counter()
        verdict = "EVASION" if sections.decision.feasible else "NO_EVASION"
        disagreements += verdict != expected
        blocked = "-" if blocked_at is None else str(blocked_at)
        print(f"{name:>16} {n:>6} {verdict:>10} {expected:>10} {blocked:>10} {t1 - t0:>8.3f} {t2 - t1:>8.3f}")
    print("the verdicts agree" if not disagreements else f"{disagreements} verdicts differ")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
