"""Section enumeration and flow decomposition of free, function-like sheaves.

Test references for the section chains of `evasion.oracle`: a brute-force
list of every chain, and the split of a kernel point, such as a simplex
witness, into weighted chains. Only tests and `scripts/oracle_fuzz.py` use
them; the production decision is the sweep of `evasion.sheaf`.
"""

from fractions import Fraction

from evasion.linalg import ZERO
from evasion.oracle import _chain_from_vertex_choices
from evasion.sheaf import ConeSheaf, SectionChain, _normalise, assemble_coboundary, generator_maps


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
    sections = assemble_coboundary(S)
    rows, col_labels = sections.coboundary.nonzeros, sections.column_labels
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
