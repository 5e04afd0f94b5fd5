"""The section chain of a free, function-like cone sheaf.

When every stalk is a free cone and every restriction sends each generator
to exactly one generator (a 0/1 matrix with exactly one 1 per column), a
nonzero global section is exactly a *section chain*: one generator label per
cell, such that each vertex choice restricts to the adjacent edge choices.

`dp_section_exists` runs the reachability sweep of sheaf.py and labels its
chain with `sheaf.section_chain`; it is what `evasion oracle` prints. The
independent cross-check of the sweep is the bounded simplex,
`cones.lp_positive_kernel` on the coboundary. Sheaves outside the class
raise UnsupportedSheafError.
"""

from __future__ import annotations

from evasion.sheaf import (
    CellLabel,
    ConeSheaf,
    FunctionSheaf,
    UnsupportedSheafError,
    _normalise,
    generator_maps,
    section_chain,
    section_sweep,
)

__all__ = ["UnsupportedSheafError", "dp_section_exists"]


def dp_section_exists(S: ConeSheaf | FunctionSheaf) -> tuple[bool, tuple[CellLabel, ...] | None]:
    """The production reachability sweep (`sheaf.section_sweep`), as a chain.

    Returns (True, chain) with the sweep's witness chain, or (False, None)
    when no compatible system of choices exists.
    """
    S = _normalise(S)
    chain, _ = section_sweep(S if isinstance(S, FunctionSheaf) else generator_maps(S))
    if chain is None:
        return False, None
    return True, section_chain(S, chain)
