#!/usr/bin/env python3
"""Tabulate the sign-free criterion against the positive one on random scenes.

`kernel_dim` is the dimension of the scene sheaf's sign-free global
sections, the homological criterion for evasion; the verdict is the
positive one, which decides it. Every evasion path gives a positive
section, so EVASION implies `kernel_dim` > 0, and the script exits 1 if a
draw is EVASION with `kernel_dim` = 0: a whole-class consistency check of
the sweep against `cycle_rank`. The converse fails, and the table counts
the NO_EVASION draws whose sign-free sections are nonzero: the gap that
positivity closes.

Each draw is `random_scene(rng, 10)` run through `evasion check`'s
pipeline (`cli.run_check`).

Usage: python scripts/criteria_gap.py --seed 0 --count 700
"""

import argparse
import os
import sys
from collections import Counter
from random import Random

from evasion.cli import run_check
from evasion.randgen import random_scene


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--count", type=int, default=700)
    parser.add_argument("--seed", type=int, default=int(os.environ.get("EVASION_SEED", "20240817")))
    args = parser.parse_args()

    rng = Random(args.seed)
    table: Counter = Counter()
    for draw in range(args.count):
        _, sections, _, _ = run_check(random_scene(rng, 10))
        verdict = "EVASION" if sections.decision.feasible else "NO_EVASION"
        table[sections.kernel_dim > 0, verdict] += 1
        if verdict == "EVASION" and sections.kernel_dim == 0:
            print(f"draw {draw} (seed {args.seed}) is EVASION with kernel_dim 0", file=sys.stderr)
            return 1
    print(f"{args.count} random scenes (seed {args.seed})")
    print(f"{'kernel_dim':<12}{'EVASION':>12}{'NO_EVASION':>12}")
    for positive in (True, False):
        row = "> 0" if positive else "= 0"
        print(f"{row:<12}{table[positive, 'EVASION']:>12}{table[positive, 'NO_EVASION']:>12}")
    print("no EVASION draw has kernel_dim 0")
    return 0


if __name__ == "__main__":
    sys.exit(main())
