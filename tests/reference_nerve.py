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
1 + b1 - b2 components.

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


def nerve_betti(scene: Scene, t) -> tuple[int, int, int]:
    """b0, b1 and b2 of the nerve of the coverage at time t."""
    (wx0, wx1), (wy0, wy1) = scene.window_x, scene.window_y
    sets = [(b.x, b.y) for b in scene.boxes if b.alive(t)]
    boxes = len(sets)
    everywhere = (None, None)
    sets += [((None, wx0), everywhere), ((wx1, None), everywhere), (everywhere, (None, wy0)), (everywhere, (wy1, None))]
    meets = [[_meet(a[0], b[0]) and _meet(a[1], b[1]) for b in sets] for a in sets]
    # the simplices of dimension 0 to 3, each a sorted tuple of set indices;
    # the boxes come first, so a simplex of half-planes alone grows only by
    # half-planes, and one with a box in it by a set meeting all its members
    levels = [[(i,) for i in range(len(sets))]]
    for _ in range(3):
        levels.append(
            [
                (*s, j)
                for s in levels[-1]
                for j in range(s[-1] + 1, len(sets))
                if s[0] >= boxes or all(meets[i][j] for i in s)
            ]
        )
    ranks = [0]  # the rank of the boundary map from each dimension down
    for lower, upper in zip(levels, levels[1:]):
        index = {s: k for k, s in enumerate(lower)}
        rows = []
        for s in upper:
            row = 0
            for face in combinations(s, len(s) - 1):
                row |= 1 << index[face]
            rows.append(row)
        ranks.append(_rank(rows))
    return tuple(len(levels[d]) - ranks[d] - ranks[d + 1] for d in range(3))
