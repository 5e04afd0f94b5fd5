"""Section enumeration and flow decomposition of free, function-like sheaves.

Test references for the section chains of `evasion.sheaf`: a brute-force
list of every chain, and the split of a kernel point, such as a simplex
witness, into weighted chains. Each walks the vertices itself and keeps its
own generator index per cell; only the labels come from the public
`section_chain`. Only tests and `scripts/oracle_fuzz.py` use them; the
production decision is the sweep of `evasion.sheaf`.

`reference_section_sweep` is that sweep with the NO_EVASION potential's
backward pass run over every precompact edge, the version `section_sweep`
replaced; the tests require equal output from both.
"""

from fractions import Fraction

from evasion.linalg import ZERO
from evasion.sheaf import CellLabel, ConeSheaf, FunctionSheaf, assemble_coboundary, generator_maps, refine, section_chain


def enumerate_sections(S: ConeSheaf, cap: int) -> list[tuple[CellLabel, ...]]:
    """All section chains in lexicographic order of vertex choices, up to cap."""
    if cap <= 0:
        return []
    if S.strat.k == 0:  # one vertex with identity restrictions carries the constant sections
        S = refine(S, 0)
    maps = generator_maps(S).maps
    k = S.strat.k
    chains: list[tuple[CellLabel, ...]] = []
    cells: list[int] = []  # generator per cell, e1 v1 e2 ... up to the edge the walk stands on

    def walk(i: int) -> bool:
        if i == k:
            chains.append(section_chain(S, tuple(cells)))
            return len(chains) >= cap
        left_f, right_f = maps[i]
        for g, (li, ri) in enumerate(zip(left_f, right_f)):
            if i and li != cells[-1]:
                continue
            step = (g, ri) if i else (li, g, ri)
            cells.extend(step)
            if walk(i + 1):
                return True
            del cells[-len(step):]
        return False

    walk(0)
    return chains


def flow_decompose(S: ConeSheaf, x) -> list[tuple[tuple[CellLabel, ...], Fraction]]:
    """Split a feasibility witness into weighted section chains.

    Conservation of each precompact edge generator's mass means the greedy
    walk (least positive generator at the first vertex, then the least
    positive compatible continuation) always completes a chain; each round
    zeroes at least one coordinate, so at most #generators chains come out.
    """
    if S.strat.k == 0:
        raise ValueError("flow decomposition needs at least one vertex; refine first")
    maps = generator_maps(S).maps
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
        pos += len(stalk.labels)
    work = list(x)
    out: list[tuple[tuple[CellLabel, ...], Fraction]] = []
    while True:
        start = next((g for g in range(len(S.vertex_stalks[0].labels)) if work[offsets[0] + g] > 0), None)
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
        cells = [maps[0][0][choices[0]]]
        for i, g in enumerate(choices):
            cells += (g, maps[i][1][g])
        out.append((section_chain(S, tuple(cells)), weight))
    if any(work):
        raise ValueError("witness mass left over after decomposition; not a decomposable witness")
    return out


def reference_section_sweep(S: FunctionSheaf):
    """`section_sweep` with the longest chains counted back over every
    precompact edge, reached or not."""
    k, maps = S.strat.k, S.maps
    sizes = [len(stalk.labels) for stalk in S.edge_stalks]
    reached: dict = dict.fromkeys(range(sizes[0]))
    reach = [reached]
    for left, right in maps:
        nxt: dict = {}
        for g, li in enumerate(left):
            if li in reached and right[g] not in nxt:
                nxt[right[g]] = g
        reach.append(nxt)
        reached = nxt
    if reached:
        target = min(reached)
        backwards = [target]
        for i in range(k - 1, -1, -1):
            g = reach[i + 1][target]
            target = maps[i][0][g]
            backwards += (g, target)
        return tuple(reversed(backwards)), None
    longest = [0] * sizes[k]
    blocks = [longest]
    for j in range(k - 1, 0, -1):
        left, right = maps[j]
        here = [0] * sizes[j]
        for li, ri in zip(left, right):
            if longest[ri] >= here[li]:
                here[li] = longest[ri] + 1
        block = here.copy()
        for d in reach[j]:
            block[d] = -j
        blocks.append(block)
        longest = here
    blocks.append([0] * sizes[0])
    return None, blocks[::-1]
