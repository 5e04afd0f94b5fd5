#!/usr/bin/env python3
"""Fuzz the section sweep against the bounded simplex and a rational rank.

Draws random free function-like cone sheaves, which `global_sections`
decides by the reachability sweep, and insists the sweep's verdict, the
verdict of the simplex called directly on the coboundary, the sweep's
certificate and the decomposability of the simplex witness all line up,
that the sweep's kernel_dim (a cycle rank) is the coboundary's columns
minus its rank, and that the coboundary the decided sections build when
read is `assemble_coboundary`'s, labels included. On every feasible draw
the sweep's witness must decompose into exactly its own chain at weight 1/k.
The draws are born as image tuples, so every draw also goes through both
converters: the 0/1 matrices it builds on request must convert back to its
tuples (`generator_maps`), and the sheaf file `evasion sheaf` would write
must read back to the same decision, kernel_dim and chain; a draw that
breaks this is reported as "matrix round trip differs". End to end,
`evasion lp` run on that file must exit with the sweep's code and, on a
feasible draw, print as its witness support the vertex generators of the
sweep's chain, each at weight 1/k ("evasion lp differs").
Any disagreement prints the offending sheaf as JSON and exits nonzero.
The flow decomposition is the test reference in `tests/reference_chains.py`,
which the script finds next to itself in the checkout.

Usage: python scripts/oracle_fuzz.py --count 10000 --seed 7
"""

import argparse
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from random import Random

import evasion.cli as cli
from evasion.cli import sheaf_from_jsonable, sheaf_to_jsonable, write_json
from evasion.cones import is_valid_certificate, lp_positive_kernel
from evasion.formats import format_rational
from evasion.linalg import rank
from evasion.randgen import random_function_like_sheaf
from evasion.sheaf import ConeSheaf, assemble_coboundary, generator_maps, global_sections, section_chain

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from reference_chains import flow_decompose  # noqa: E402


def round_trip(sheaf, sections, path: Path) -> bool:
    """Do the sheaf's matrices convert back to its image tuples, and does the
    file `evasion sheaf` would write, written to `path`, decide as the sheaf does?"""
    try:
        matrices = [M for _, _, M in sheaf.incidences()]
        S = ConeSheaf(sheaf.strat, sheaf.vertex_stalks, sheaf.edge_stalks, tuple(matrices[0::2]), tuple(matrices[1::2]))
        with path.open("w") as out:
            write_json(sheaf_to_jsonable(sheaf), out)
        read = global_sections(sheaf_from_jsonable(json.loads(path.read_text())))
        maps = generator_maps(S).maps
    except ValueError:  # a matrix of the wrong shape or not 0/1
        return False
    alike = (read.decision, read.kernel_dim, read.chain) == (sections.decision, sections.kernel_dim, sections.chain)
    return maps == sheaf.maps and alike


def lp_agrees(path: Path, sections) -> bool:
    """Does `evasion lp` on the sheaf file exit with the sweep's code and, on a
    feasible draw, print the vertex generators of the sweep's chain, each at
    weight 1/k, as its witness support?"""
    printed = io.StringIO()
    with redirect_stdout(printed):
        code = cli.main(["lp", str(path)])
    feasible = sections.decision.feasible
    if code != (cli.EXIT_EVASION if feasible else cli.EXIT_NO_EVASION):
        return False
    if not feasible:
        return True
    weight = format_rational(Fraction(1, sections.sheaf.strat.k))
    chain = section_chain(sections.sheaf, sections.chain)
    support = {f"{cell}.{label}": weight for cell, label in chain[1::2]}
    return json.loads(printed.getvalue())["sections"]["witness"]["support"] == support


def report(what: str, trial: int, seed: int, sheaf) -> int:
    print(f"{what} at trial {trial} (seed {seed}):", file=sys.stderr)
    write_json(sheaf_to_jsonable(sheaf), sys.stderr)
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=int(os.environ.get("EVASION_SEED", "20240817")))
    args = parser.parse_args()

    rng = Random(args.seed)
    feasible = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sheaf.json"
        for trial in range(args.count):
            sheaf = random_function_like_sheaf(rng)
            sections = global_sections(sheaf)
            if not round_trip(sheaf, sections, path):
                return report("matrix round trip differs", trial, args.seed, sheaf)
            if not lp_agrees(path, sections):
                return report("evasion lp differs", trial, args.seed, sheaf)
            assembled = assemble_coboundary(sheaf)
            same = (sections.row_labels, sections.column_labels, sections.coboundary) == (
                assembled.row_labels,
                assembled.column_labels,
                assembled.coboundary,
            )
            simplex = lp_positive_kernel(sections.coboundary)
            ok = same and simplex.feasible == sections.decision.feasible
            ok = ok and sections.kernel_dim == sections.coboundary.cols - rank(sections.coboundary)
            if ok and sections.decision.feasible:
                feasible += 1
                decomposition = flow_decompose(sheaf, simplex.witness)
                S = sections.sheaf
                chain = section_chain(S, sections.chain)
                own = flow_decompose(S, sections.decision.witness)
                ok = bool(decomposition) and own == [(chain, Fraction(1, S.strat.k))]
            elif ok:
                ok = is_valid_certificate(sections.coboundary, sections.decision.certificate)
            if not ok:
                what = "disagreement" if same else "coboundary differs from assemble_coboundary's"
                return report(what, trial, args.seed, sheaf)
    print(f"{args.count} sheaves checked, {feasible} feasible, no disagreements (seed {args.seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
