"""The section chain of a free, function-like cone sheaf.

When every stalk is a free cone and every restriction sends each generator
to exactly one generator (a 0/1 matrix with exactly one 1 per column), a
nonzero global section is exactly a *section chain*: one generator label per
cell, such that each vertex choice restricts to the adjacent edge choices.

`dp_section_exists` runs the reachability sweep of sheaf.py and reports its
chain; it is what `evasion oracle` prints. The independent cross-check of
the sweep is the bounded simplex, `cones.lp_positive_kernel` on the
coboundary. Sheaves outside the class raise UnsupportedSheafError.
"""

from __future__ import annotations

from evasion.sheaf import (
    ConeSheaf,
    GeneratorMaps,
    SectionChain,
    UnsupportedSheafError,
    _normalise,
    generator_maps,
    section_sweep,
)

__all__ = ["SectionChain", "UnsupportedSheafError", "dp_section_exists"]


def _chain_from_vertex_choices(S: ConeSheaf, maps: GeneratorMaps, choices: list[int]) -> SectionChain:
    strat = S.strat
    cells: list[tuple[str, str]] = []
    for i, g in enumerate(choices):
        left_img, right_img = maps[i][0][g], maps[i][1][g]
        if i == 0:
            cells.append((strat.edge_id(0), S.edge_stalks[0].labels[left_img]))
        cells.append((strat.vertex_id(i), S.vertex_stalks[i].labels[g]))
        cells.append((strat.edge_id(i + 1), S.edge_stalks[i + 1].labels[right_img]))
    return SectionChain(tuple(cells))


def dp_section_exists(S: ConeSheaf) -> tuple[bool, SectionChain | None]:
    """The production reachability sweep (`sheaf.section_sweep`), as a chain.

    Returns (True, chain) with the sweep's witness chain, or (False, None)
    when no compatible system of choices exists.
    """
    S = _normalise(S)
    maps = generator_maps(S)
    choices, _ = section_sweep(S, maps)
    if choices is None:
        return False, None
    return True, _chain_from_vertex_choices(S, maps, choices)
