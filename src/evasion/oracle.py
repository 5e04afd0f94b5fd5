"""Chain-level views of free, function-like cone sheaves, for cross-checks.

When every stalk is a free cone and every restriction sends each generator
to exactly one generator (a 0/1 matrix with exactly one 1 per column), a
nonzero global section is exactly a *section chain*: one generator label per
cell, such that each vertex choice restricts to the adjacent edge choices.

The production decider for this class is the reachability sweep of
sheaf.py; `dp_section_exists` is a thin name for it that reports the chain.
`enumerate_sections` lists chains by brute force and `flow_decompose` splits
a kernel point, such as a simplex witness, into weighted chains. The
independent side of every cross-check is the bounded simplex,
`cones.lp_positive_kernel` on the coboundary. Sheaves outside the class
raise UnsupportedSheafError.
"""

from __future__ import annotations

from fractions import Fraction

from evasion.linalg import ZERO
from evasion.sheaf import (
    ConeSheaf,
    GeneratorMaps,
    SectionChain,
    UnsupportedSheafError,
    _assemble_sparse,
    _normalise,
    generator_maps,
    section_sweep,
)

__all__ = [
    "SectionChain",
    "UnsupportedSheafError",
    "dp_section_exists",
    "enumerate_sections",
    "flow_decompose",
]


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


def enumerate_sections(S: ConeSheaf, cap: int) -> list[SectionChain]:
    """All section chains in lexicographic order of vertex choices, up to cap."""
    if cap <= 0:
        return []
    S = _normalise(S)
    maps = generator_maps(S)
    k = S.strat.k
    chains: list[SectionChain] = []
    prefix: list[int] = []

    def walk(i: int, incoming: int | None) -> bool:
        if i == k:
            chains.append(_chain_from_vertex_choices(S, maps, prefix))
            return len(chains) >= cap
        left_f, right_f = maps[i]
        for g, (li, ri) in enumerate(zip(left_f, right_f)):
            if incoming is not None and li != incoming:
                continue
            prefix.append(g)
            if walk(i + 1, ri):
                return True
            prefix.pop()
        return False

    walk(0, None)
    return chains


def flow_decompose(S: ConeSheaf, x) -> list[tuple[SectionChain, Fraction]]:
    """Split a feasibility witness into weighted section chains.

    Conservation of each precompact edge generator's mass means the greedy
    walk (least positive generator at the first vertex, then the least
    positive compatible continuation) always completes a chain; each round
    zeroes at least one coordinate, so at most #generators chains come out.
    """
    if S.strat.k == 0:
        raise ValueError("flow decomposition needs at least one vertex; refine first")
    maps = generator_maps(S)
    k = S.strat.k
    x = tuple(Fraction(c) for c in x)
    rows, _, col_labels = _assemble_sparse(S)
    if len(x) != len(col_labels):
        raise ValueError(f"witness length {len(x)} does not match {len(col_labels)} generators")
    if any(c < 0 for c in x) or not any(x):
        raise ValueError("witness must be nonnegative and nonzero")
    for r in rows:
        if sum((v * x[j] for j, v in r.items()), ZERO):
            raise ValueError("witness is not in the coboundary kernel")
    offsets = []
    pos = 0
    for stalk in S.vertex_stalks:
        offsets.append(pos)
        pos += len(stalk.generators)
    work = list(x)
    out: list[tuple[SectionChain, Fraction]] = []
    while True:
        start = next((g for g in range(len(S.vertex_stalks[0].generators)) if work[offsets[0] + g] > 0), None)
        if start is None:
            break
        choices = [start]
        for i in range(1, k):
            target = maps[i - 1][1][choices[-1]]
            g = next(
                (
                    g
                    for g, li in enumerate(maps[i][0])
                    if work[offsets[i] + g] > 0 and li == target
                ),
                None,
            )
            if g is None:
                raise ValueError("witness mass is not conserved along edges; not a decomposable witness")
            choices.append(g)
        weight = min(work[offsets[i] + g] for i, g in enumerate(choices))
        for i, g in enumerate(choices):
            work[offsets[i] + g] -= weight
        out.append((_chain_from_vertex_choices(S, maps, choices), weight))
    if any(work):
        raise ValueError("witness mass left over after decomposition; not a decomposable witness")
    return out
