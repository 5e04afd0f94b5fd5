"""Gap counts of a scene at one time, from the coverage side.

At time t the covered part of the sphere (the plane plus a point at
infinity) is the union of the boxes alive at t and of the four closed
half-planes outside the open window, each closed up by the point at
infinity. Every intersection of some of these sets is empty or convex, or
the point at infinity with a convex set, so it is contractible, and by the
nerve theorem the coverage has the homotopy type of their nerve: one vertex
per set and one simplex per subset with a common point. The four
half-planes all hold the point at infinity, so any subset of them alone
spans a simplex. A subset with a box in it can meet only in the plane, and
there it has a common point iff its members meet pairwise, since
axis-parallel boxes, unbounded ones included, have Helly number 2.

Alexander duality on the sphere reads the gap, the open window less the
coverage, off the nerve's Betti numbers b0, b1 and b2 (over GF(2)): the
gap's reduced zeroth homology has the rank of the coverage's first
cohomology, and the coverage's second cohomology is nonzero iff the gap is
empty. So the coverage is connected iff b0 = 1, and then the gap has
1 + b1 - b2 components. The duality is natural: where the coverage shrinks,
from a critical time to an edge beside it, the restriction of the first
cohomology has the rank of the map the gaps' inclusion induces on reduced
zeroth homology (`restriction_rank`), which is the number of distinct edge
components the vertex components fall into, less one, if there are any.

This shares no code with the grid arrangement of `evasion.geometry`: it
reads only the scene's boxes and window, and it never clamps a box to the
window, since a box outside it lies in one of the half-planes.
"""

from itertools import combinations

from evasion.scene import Scene


def _meet(a, b) -> bool:
    """Whether two closed intervals meet; None is an unbounded end."""
    (a0, a1), (b0, b1) = a, b
    return (a0 is None or b1 is None or a0 <= b1) and (b0 is None or a1 is None or b0 <= a1)


def _rank(rows: list[int]) -> int:
    """The GF(2) rank of rows given as bit masks."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(pivots)


def _nerve(scene: Scene, boxes: list, top: int) -> list[list[tuple[int, ...]]]:
    """The simplices of dimension 0 to top of the nerve of the boxes and the
    four half-planes, each a sorted tuple of set indices: box k is set k,
    and the half-planes follow the boxes."""
    (wx0, wx1), (wy0, wy1) = scene.window_x, scene.window_y
    sets = [(b.x, b.y) for b in boxes]
    everywhere = (None, None)
    sets += [((None, wx0), everywhere), ((wx1, None), everywhere), (everywhere, (None, wy0)), (everywhere, (wy1, None))]
    meets = [[_meet(a[0], b[0]) and _meet(a[1], b[1]) for b in sets] for a in sets]
    # the boxes come first, so a simplex of half-planes alone grows only by
    # half-planes, and one with a box in it by a set meeting all its members
    levels = [[(i,) for i in range(len(sets))]]
    for _ in range(top):
        levels.append(
            [
                (*s, j)
                for s in levels[-1]
                for j in range(s[-1] + 1, len(sets))
                if s[0] >= len(boxes) or all(meets[i][j] for i in s)
            ]
        )
    return levels


def _boundary(lower: list[tuple[int, ...]], upper: list[tuple[int, ...]]) -> list[int]:
    """The GF(2) boundary of each simplex of `upper`, as a bit mask over `lower`."""
    index = {s: k for k, s in enumerate(lower)}
    rows = []
    for s in upper:
        row = 0
        for face in combinations(s, len(s) - 1):
            row |= 1 << index[face]
        rows.append(row)
    return rows


def nerve_betti(scene: Scene, t) -> tuple[int, int, int]:
    """b0, b1 and b2 of the nerve of the coverage at time t."""
    levels = _nerve(scene, [b for b in scene.boxes if b.alive(t)], 3)
    # the rank of the boundary map from each dimension down
    ranks = [0, *(_rank(_boundary(lower, upper)) for lower, upper in zip(levels, levels[1:]))]
    return tuple(len(levels[d]) - ranks[d] - ranks[d + 1] for d in range(3))


def restriction_rank(scene: Scene, tv, te) -> int:
    """The GF(2) rank of the restriction from the first Čech cohomology of
    the coverage at time tv to that at time te, where each box alive at te
    that meets the open window is alive at tv too, as on an edge beside a
    vertex.

    K_v is the nerve of the boxes alive at tv or te and K_e its full
    subcomplex on those alive at te. A box alive at te alone lies outside
    the open window, in one of the half-planes, so it changes neither
    union, and the inclusion of K_e in K_v is the inclusion of the coverage
    at te in that at tv. Alexander duality turns the restriction into the
    map the inclusion of the gap at tv in the gap at te induces on reduced
    zeroth homology.

    Over a field the restriction on H^1 has the rank of its dual, the map
    H_1(K_e) -> H_1(K_v), which is dim(Z1(K_e) + B1(K_v)) - dim B1(K_v) in
    the 1-chains C1 of K_v. Let C be the span of the edges of K_e. Then
    Z1(K_e) = C ∩ Z1(K_v), and as B1(K_v) lies in Z1(K_v), Z1(K_e) + B1(K_v)
    = (C + B1(K_v)) ∩ Z1(K_v): the kernel of the boundary on C + B1(K_v),
    whose image is the boundary of C. And dim(C + B1(K_v)) is dim C plus the
    rank of B1(K_v) with the coordinates of C struck out. So the rank is
    dim C + rank(struck-out boundaries of the triangles of K_v) - rank(the
    boundary on C) - rank(the boundaries of the triangles of K_v).
    """
    boxes = [b for b in scene.boxes if b.alive(tv) or b.alive(te)]
    kept = [b.alive(te) for b in boxes] + [True] * 4
    points, edges, triangles = _nerve(scene, boxes, 2)
    inside = [all(kept[i] for i in e) for e in edges]
    struck = ~sum(1 << k for k, held in enumerate(inside) if held)
    bounds = _boundary(edges, triangles)
    sub = _boundary(points, [e for e, held in zip(edges, inside) if held])
    return len(sub) + _rank([row & struck for row in bounds]) - _rank(sub) - _rank(bounds)
