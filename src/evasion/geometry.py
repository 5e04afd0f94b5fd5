"""Planar coverage scenes and their gap topology over time.

A scene is a rectangular spatial window W plus finitely many closed
axis-aligned boxes in space-time. At time t the *covered* region is the
complement of the open window interior together with every box alive at t;
the *gap* is what remains: an open subset of int(W). Everything an evader
can do lives inside the gap.

All computations run on the exact rectangle arrangement induced by the
window and the alive boxes: faces (open cells, open edges, vertices of the
grid) are each entirely covered or entirely gap, and two gap faces are
connected exactly when they are incident, so connected components come out
of a flood fill with no numeric slack. The grid's cover flags are painted
one rectangle at a time along its shorter side, a slice per grid column or
an extended slice per grid row. The fill writes each gap face's component
number into one flat owner array per fibre; a check reads only component
counts and the owners of single faces, and the component objects (label,
anchor, interior point, faces) are built from that array only when a reader
asks for them.

The scene contract, connected coverage, is read off the same cover flags by
Alexander duality: on the sphere (the plane plus a point at infinity, which
the fence covers) the rank of the gap's first homology is the number of
coverage components minus one. A connected open planar set has Euler
characteristic 1 minus its number of holes, so the coverage is connected
exactly when the gap's Euler characteristic equals its number of
components. The covered faces form a closed subcomplex of the grid, so that
characteristic is the number of gap faces of even dimension minus that of
odd ones, and face (i, j) has dimension congruent to i + j, the parity of
its flat index, as each grid column holds an odd number of faces. A fully
covered window has no gap, characteristic 0, and connected coverage.

The arrangement and the time sweep run on integer ranks. Each scene gets
one rank table that ranks its three axes once: the x and y coordinates of
the window and of one box per spatial rectangle (`Scene.rectangles`, by
value), and the times of the window-relevant boxes, so a sensor that
switches on and off many times is ranked, tested for relevance and clamped
once. Values are deduplicated by their (numerator, denominator) pair and
sorted by the exact key (integer part, value), so no `Fraction` is hashed
and two are compared only when they share an integer part. Window relevance
and clamping compare ranks, and the table keeps the sorted distinct x and y
coordinates, the window's four ranks among them, the critical times, and
each relevant box's rank rectangle, clamped to the window's ranks, and time
span. Ranking is strictly increasing on those finite sets and every
comparison the sweep, the arrangement, the validation and the restrictions
make is between their members, so ranks take every branch the rationals
would; `Fraction` values appear only in the outputs (grid coordinates,
vertex times, the anchors and interior points read off a fibre, the sample
time of a validation message).

The bridge to the sheaf layer: between consecutive critical times the alive
set is constant, so the gap is a product; at a critical time the coverage
dominates both neighbouring intervals, so each gap component at the vertex
persists into exactly one component on each side. Free cones on gap
components with those containment maps form the cone sheaf whose global
sections decide evasion. A map locates each vertex component in the edge
fibre by two bisections of the ranks of its least face's corner, and the
corners are worked out once per vertex fibre. Where a vertex and an edge
share one fibre, the bisections land on the seed face itself, so the same
lookup gives the identity. A fibre depends on the alive coverage geometry
alone, so samples are keyed by the distinct rank rectangles alive there,
and a scene builds one fibre per distinct key, shared by its samples. The
time sweep counts the alive boxes on each rectangle as they are born and
die, and takes the alive rectangles into a new key, a frozenset looked up
once, only at an event that changes them: O(events) Python steps plus one
C-level key copy per event.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import deque
from collections.abc import Collection
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import compress, count, starmap
from operator import floordiv, itemgetter

# perfbench/workloads.py reads Box, Scene, verify_evasion_path and PathVerificationError from this module
from evasion.certify import PathVerificationError, verify_evasion_path
from evasion.cones import PolyhedralCone
from evasion.formats import format_rational
from evasion.linalg import ZERO
from evasion.scene import Box, EvasionPath, Interval, PathSegment, Point, Scene
from evasion.sheaf import FunctionSheaf, GlobalSections, Stratification, section_chain

Face = tuple[int, int]
Rect = tuple[int, int, int, int]
Key = frozenset[Rect]


class SceneValidationError(ValueError):
    def __init__(self, problem: str):
        self.problem = problem
        super().__init__(f"invalid scene: {problem}")


class GeometryError(RuntimeError):
    """Internal invariant broke (a bug, not an input condition)."""


@dataclass(frozen=True)
class GapComponent:
    """One connected component of the open gap at a fixed time, for tests and
    tools that inspect a fibre; a check reads the fibre's owner array instead."""

    label: str
    anchor: Point  # lexicographically least face corner; the deterministic sort key
    interior_point: Point  # centre of the least open 2-face
    faces: frozenset[Face]


def component_label(c: int) -> str:
    """The label of component c of a fibre, and of its stalk generator."""
    return f"g{c}"


@dataclass(frozen=True)
class GapFibre:
    """Gap components of one alive coverage geometry, on its arrangement grid.

    Grid faces are indexed by (i, j): even indices are grid lines, odd
    indices are the open intervals between them. Face (i, j) sits at
    i * ny + j of the flat `owner` array, which holds the number of the gap
    component the face belongs to, or -1 if the face is covered. Components
    are numbered in the order of their least face corner. `seeds[c]` is the
    flat index of component c's least open 2-face: the lower-left corner of
    that face is the component's anchor, and its centre is the component's
    interior point. Everything else about a component is read off `owner`
    when asked for; `components` builds the component objects on first
    read, and a check never reads them. `xr` and `yr` are the scene table
    ranks of the grid lines, and `connected` says whether the coverage
    (window frame plus alive boxes) is connected, which the gap's Euler
    characteristic tells (module docstring). Samples with one alive key
    share one fibre; only the grid and the owner array are compared.
    """

    xs: tuple[Fraction, ...]
    ys: tuple[Fraction, ...]
    owner: array
    ny: int = field(repr=False, compare=False)  # faces per grid column, 2 * len(ys) - 1
    connected: bool = field(repr=False, compare=False)
    xr: tuple[int, ...] = field(repr=False, compare=False)
    yr: tuple[int, ...] = field(repr=False, compare=False)
    seeds: tuple[int, ...] = field(repr=False, compare=False)

    def face_centre(self, g: int) -> Point:
        i, j = divmod(g, self.ny)
        return _face_centre(self.xs, i), _face_centre(self.ys, j)

    def interior_point(self, c: int) -> Point:
        return self.face_centre(self.seeds[c])

    @cached_property
    def y_extents(self) -> tuple[Interval, ...]:
        """The least and the greatest y of each component, in one pass over
        `owner` on first read: face j spans ys[j // 2] to ys[(j + 1) // 2]."""
        ny, owner = self.ny, self.owner
        lo, hi = [ny] * len(self.seeds), [-1] * len(self.seeds)
        for g, c in enumerate(owner):
            if c >= 0:
                j = g % ny
                if j < lo[c]:
                    lo[c] = j
                if j > hi[c]:
                    hi[c] = j
        return tuple([(self.ys[a // 2], self.ys[(b + 1) // 2]) for a, b in zip(lo, hi)])

    @cached_property
    def components(self) -> tuple[GapComponent, ...]:
        """Component objects for reports and tests, built on first read."""
        ny, xs, ys = self.ny, self.xs, self.ys
        faces: list[list[Face]] = [[] for _ in self.seeds]
        for g, c in enumerate(self.owner):
            if c >= 0:
                faces[c].append(divmod(g, ny))
        comps = []
        for c, seed in enumerate(self.seeds):
            i, j = divmod(seed, ny)
            anchor = (xs[i // 2], ys[j // 2])
            comps.append(GapComponent(component_label(c), anchor, self.face_centre(seed), frozenset(faces[c])))
        return tuple(comps)


def _face_centre(coords: tuple[Fraction, ...], i: int) -> Fraction:
    """The centre of face interval i on an axis: a grid line, or the midpoint
    (a/b + c/d) / 2 of an open interval, built as one `Fraction` from the
    integer ratios."""
    k = i // 2
    if i % 2 == 0:
        return coords[k]
    (a, b), (c, d) = coords[k].as_integer_ratio(), coords[k + 1].as_integer_ratio()
    return Fraction(a * d + c * b, 2 * b * d)


def _ranks(values: list[Fraction]) -> tuple[tuple[Fraction, ...], list[int]]:
    """The sorted distinct values, and the rank of each value among them.

    Values are told apart by their (numerator, denominator) pair, which is
    exact since `Fraction`s are normalised, and sorted as (integer part,
    value, pair) tuples, so two values are compared as `Fraction`s only
    when they share an integer part, none is hashed, and the pairs, being
    distinct, are never compared."""
    pairs = [v.as_integer_ratio() for v in values]
    distinct = dict(zip(pairs, values))
    order = sorted(zip(starmap(floordiv, distinct), distinct.values(), distinct))
    rank = dict(zip(map(itemgetter(2), order), count()))
    return tuple(map(itemgetter(1), order)), list(map(rank.__getitem__, pairs))


@dataclass(frozen=True)
class _RankTable:
    """The integer coordinates of one scene.

    The x and y axes are ranked once over the window and one box per spatial
    rectangle (`_ranks`), the times over the window-relevant boxes, and
    window relevance and clamping compare those ranks. `xs` and `ys` are the
    sorted distinct coordinates and `window` the window's ranks (x0, x1, y0,
    y1) into them. The table keeps the window-relevant boxes only:
    `rects[b]` is box b clamped to the window as ranks (x0, x1, y0, y1) into
    `xs` and `ys`, and `spans[b]` its time interval as ranks into `ts`, the
    sorted critical times.
    """

    xs: tuple[Fraction, ...]
    ys: tuple[Fraction, ...]
    ts: tuple[Fraction, ...]
    window: Rect
    rects: tuple[Rect, ...]
    spans: tuple[tuple[int, int], ...]


def _rank_table(scene: Scene) -> _RankTable:
    """The scene's rank table. The x and y axes are ranked once, over the
    window and one box per spatial rectangle (`Scene.rectangles`), and
    relevance and clamping are worked out once per rectangle in that rank
    space; a box costs only its time span and a lookup of its rectangle's
    clamped ranks by index."""
    boxes = scene.boxes
    shapes, index = scene.rectangles
    xs, (wx0, wx1, *bx) = _ranks([*scene.window_x, *[c for b in shapes for c in b.x]])
    ys, (wy0, wy1, *by) = _ranks([*scene.window_y, *[c for b in shapes for c in b.y]])
    rects = {}
    for k, x0, x1, y0, y1 in zip(count(), bx[0::2], bx[1::2], by[0::2], by[1::2]):
        # does the closed box meet the open window interior?
        if x0 < wx1 and x1 > wx0 and y0 < wy1 and y1 > wy0:
            rects[k] = (max(x0, wx0), min(x1, wx1), max(y0, wy0), min(y1, wy1))
    relevant = list(map(rects.__contains__, index))
    ts, tr = _ranks([c for b in compress(boxes, relevant) for c in b.t])
    return _RankTable(
        xs,
        ys,
        ts,
        (wx0, wx1, wy0, wy1),
        tuple(map(rects.__getitem__, compress(index, relevant))),
        tuple(zip(tr[0::2], tr[1::2])),
    )


def _arrange(table: _RankTable, key: Collection[Rect]) -> GapFibre:
    """Gap components of the window with the key's rectangles covered, in
    any order, numbered in the order of their least face corner. The
    coverage is connected iff the gap's Euler characteristic, its faces at
    even flat indices minus those at odd ones, is the number of components.

    The grid lines and their doubled positions come from C-level passes
    over the key, and each rectangle is painted along its shorter side: one
    slice per grid column it spans when it is taller than wide, else one
    extended slice (step ny) per grid row."""
    # the x0, x1, y0 and y1 ranks of the window and of the key's rectangles
    x0s, x1s, y0s, y1s = zip(table.window, *key)
    xr = tuple(sorted({*x0s, *x1s}))
    yr = tuple(sorted({*y0s, *y1s}))
    xpos = dict(zip(xr, count(0, 2)))
    ypos = dict(zip(yr, count(0, 2)))
    nx, ny = 2 * len(xr) - 1, 2 * len(yr) - 1
    # cover flags of face (i, j) at i * ny + j; the outermost grid lines are
    # the window frame, which is covered and stops the fill at the border
    edge = b"\x01" * ny
    covered = bytearray(edge + (b"\x01" + bytes(ny - 2) + b"\x01") * (nx - 2) + edge)
    for x0, x1, y0, y1 in key:
        i0, i1, j0, j1 = xpos[x0], xpos[x1] + 1, ypos[y0], ypos[y1] + 1
        if i1 - i0 < j1 - j0:
            run = b"\x01" * (j1 - j0)
            for g in range(i0 * ny + j0, i1 * ny, ny):
                covered[g : g + j1 - j0] = run
        else:
            run = b"\x01" * (i1 - i0)
            for g in range(i0 * ny + j0, i0 * ny + j1):
                covered[g : g + (i1 - i0) * ny : ny] = run

    # A box covering a face covers its closure, so a gap face on a grid line
    # has gap faces on both sides of the line, one of them earlier in
    # row-major order. Each fill below therefore starts at its component's
    # least open 2-face, whose lower-left corner is the least corner of the
    # component (every gap face shares a corner with a gap 2-face of the
    # same component): components come out in anchor order. The fill marks
    # the faces it reaches as covered, so the next seed is the next 0 flag.
    euler = covered[0::2].count(0) - covered[1::2].count(0)
    owner = array("i", [-1]) * (nx * ny)
    seeds: list[int] = []
    stack: list[int] = []
    seed = covered.find(0)
    while seed >= 0:
        c, g = len(seeds), seed
        seeds.append(seed)
        covered[seed] = 1
        while True:
            owner[g] = c
            # the four neighbours, tested one by one: building a tuple of
            # them per face costs more than the four tests
            if not covered[g - ny]:
                covered[g - ny] = 1
                stack.append(g - ny)
            if not covered[g + ny]:
                covered[g + ny] = 1
                stack.append(g + ny)
            if not covered[g - 1]:
                covered[g - 1] = 1
                stack.append(g - 1)
            if not covered[g + 1]:
                covered[g + 1] = 1
                stack.append(g + 1)
            if not stack:
                break
            g = stack.pop()
        seed = covered.find(0, seed)
    connected = euler == len(seeds)
    xs = tuple(map(table.xs.__getitem__, xr))
    ys = tuple(map(table.ys.__getitem__, yr))
    return GapFibre(xs, ys, owner, ny, connected, xr, yr, tuple(seeds))


def _sample_keys(table: _RankTable) -> list[tuple[int, Key]]:
    """The alive key of every sample, in one sweep over the time ranks: the
    distinct rank rectangles of the boxes alive there, as runs of (number of
    samples, key) in sample order.

    Sample 2j is the edge sample before vertex j and sample 2j + 1 is vertex
    j, so a box alive on [ts[a], ts[b]] is alive at samples 2a + 1 through
    2b + 1: it is born at an odd sample and gone from an even one, and no
    sample has both. One dict from each alive rectangle to its number of
    alive boxes follows the events, and a new run with a frozenset of its
    rectangles as its key starts only where the set of rectangles changes.
    That is O(events) Python steps plus one C-level key copy per event. A
    scene without critical times has one vertex and no box.
    """
    n = 2 * max(len(table.ts), 1) + 1
    changes: dict[int, list[Rect]] = {}
    for rect, (t0, t1) in zip(table.rects, table.spans):
        changes.setdefault(2 * t0 + 1, []).append(rect)
        changes.setdefault(2 * t1 + 2, []).append(rect)
    alive: dict[Rect, int] = {}  # the number of alive boxes on each alive rectangle
    runs = []
    start, key = 0, frozenset()
    for s, rects in sorted(changes.items()):
        size = len(alive)
        if s % 2:  # boxes born
            for rect in rects:
                alive[rect] = alive.get(rect, 0) + 1
        else:  # boxes gone
            for rect in rects:
                alive[rect] -= 1
                if not alive[rect]:
                    del alive[rect]
        if len(alive) != size:
            runs.append((s - start, key))
            start, key = s, frozenset(alive)
    runs.append((n - start, key))
    return runs


# critical times, then the gap fibre at every vertex and at every edge sample
Fibres = tuple[tuple[Fraction, ...], tuple[GapFibre, ...], tuple[GapFibre, ...]]


def scene_fibres(scene: Scene) -> Fibres:
    """Critical times plus the gap fibre at every vertex and edge sample.

    The first stage of a check: validation, sheaf construction and path
    extraction each take this result, so a check builds the fibres once.
    Scenes with no critical box events still get one synthetic vertex at
    t=0 so the constant section is representable downstream. One fibre is
    built per distinct alive key, and every sample with that key gets the
    same object: each run of `_sample_keys` looks its key up once, so the
    samples cost O(events) Python steps plus one C-level key copy and hash
    per event. A window with empty interior is a ValueError.
    """
    table = _rank_table(scene)
    wx0, wx1, wy0, wy1 = table.window
    if wx0 >= wx1 or wy0 >= wy1:
        raise ValueError("window has empty interior")
    fibres: dict[Key, GapFibre] = {}
    samples: list[GapFibre] = []
    for length, key in _sample_keys(table):
        fibre = fibres.get(key)
        if fibre is None:
            fibre = fibres[key] = _arrange(table, key)
        samples += [fibre] * length
    return table.ts or (ZERO,), tuple(samples[1::2]), tuple(samples[0::2])


def validate_fibres(fibres: Fibres) -> str | None:
    """The first fault of the fibres, or None: coverage must be connected at
    every critical time and inside every edge, as each fibre's Euler count
    tells (`GapFibre.connected`). Gap components stay strictly inside the
    window by construction: the arrangement's outermost grid lines are the
    covered frame. The unbounded edges are not read: no box is alive there,
    so their fibre is the open window, whose coverage is connected. The
    message names the first sample time at fault, an edge by the midpoint
    of its vertex times, written out in full."""
    times, vertex_fibres, edge_fibres = fibres
    for j, vf in enumerate(vertex_fibres):
        if j and not edge_fibres[j].connected:
            t = (times[j - 1] + times[j]) / 2
        elif not vf.connected:
            t = times[j]
        else:
            continue
        return f"coverage is disconnected at t={format_rational(t)}"
    return None


def validate_scene(scene: Scene) -> str | None:
    """`validate_fibres` on the scene's fibres."""
    return validate_fibres(scene_fibres(scene))


def _edge_face(vf: GapFibre, c: int, ef: GapFibre) -> int:
    """The face of the edge fibre's grid, as an index into its `owner`,
    holding the least open 2-face of component c of the adjacent vertex
    fibre.

    The boxes alive on an edge are alive at its end vertices too, so the
    edge's grid lines are among the vertex's, and each open interval of the
    vertex grid lies inside one open interval of the edge grid: a bisection
    of its lower rank finds that interval. When the two fibres are one, it
    finds the seed face itself.
    """
    i, j = divmod(vf.seeds[c], vf.ny)
    return (2 * bisect_right(ef.xr, vf.xr[i // 2]) - 1) * ef.ny + 2 * bisect_right(ef.yr, vf.yr[j // 2]) - 1


def build_sheaf(scene: Scene) -> FunctionSheaf:
    """The cone sheaf of a scene, as integer generator maps: its fibres, built
    once and validated (SceneValidationError if the coverage is disconnected),
    then `sheaf_from_fibres`."""
    fibres = scene_fibres(scene)
    problem = validate_fibres(fibres)
    if problem is not None:
        raise SceneValidationError(problem)
    return sheaf_from_fibres(fibres)


def sheaf_from_fibres(fibres: Fibres) -> FunctionSheaf:
    """Free-cone sheaf on gap components over the critical stratification,
    from fibres that passed `validate_fibres`, as integer generator maps.

    Stalks are free cones on the gap components of the cell's sample time,
    labelled by position, so fibres with as many components share one cone.
    The image of a vertex component is the unique edge component
    containing it (the gap at a critical time is dominated by the coverage
    there, so the component persists to both sides): the edge fibre's owner
    of the face holding the component's least open 2-face, found as in
    `_edge_face` by two bisections of the face's lower-left corner ranks.
    Those corners are worked out once per distinct vertex fibre, and each
    distinct (vertex fibre, edge fibre) pair gets one image tuple, shared by
    every incidence that has it. A vertex and an edge with the same alive
    key share one fibre; the bisections then land on each seed's own face,
    and the image is the identity.
    """
    times, vertex_fibres, edge_fibres = fibres
    vertex_sizes = [len(f.seeds) for f in vertex_fibres]
    edge_sizes = [len(f.seeds) for f in edge_fibres]
    cones = {n: PolyhedralCone.free(tuple(map(component_label, range(n)))) for n in {*vertex_sizes, *edge_sizes}}
    corners: dict[int, list[tuple[int, int]]] = {}  # the seed corner ranks of each vertex fibre
    built: dict[tuple[int, int], tuple[int, ...]] = {}
    images = []
    for i, vf in enumerate(vertex_fibres):
        vid = id(vf)
        for side, ef in (("left", edge_fibres[i]), ("right", edge_fibres[i + 1])):
            key = (vid, id(ef))
            image = built.get(key)
            if image is None:
                if vid not in corners:
                    ny, xr, yr = vf.ny, vf.xr, vf.yr
                    corners[vid] = [(xr[s // ny // 2], yr[s % ny // 2]) for s in vf.seeds]
                owner, ny, xr, yr = ef.owner, ef.ny, ef.xr, ef.yr
                image = tuple(
                    [owner[(2 * bisect_right(xr, x) - 1) * ny + 2 * bisect_right(yr, y) - 1] for x, y in corners[vid]]
                )
                if -1 in image:
                    raise GeometryError(
                        f"component {component_label(image.index(-1))} at t={times[i]} "
                        f"does not persist to the {side} edge"
                    )
                built[key] = image
            images.append(image)
    return FunctionSheaf(
        strat=Stratification(times),
        vertex_stalks=tuple(map(cones.__getitem__, vertex_sizes)),
        edge_stalks=tuple(map(cones.__getitem__, edge_sizes)),
        maps=tuple(zip(images[0::2], images[1::2])),
    )


def _route(fibre: GapFibre, c: int, f0: int, f1: int) -> list[Point]:
    """Waypoints (face centres) of a face path from face f0 to face f1 inside
    gap component c. Consecutive waypoints live on incident faces, so each
    straight hop stays inside the open component."""
    owner, ny = fibre.owner, fibre.ny
    if owner[f0] != c or owner[f1] != c:
        raise GeometryError("route endpoints are not inside the expected gap component")
    if f0 == f1:
        return []
    prev: dict[int, int] = {f0: f0}
    queue = deque([f0])
    while queue:
        cur = queue.popleft()
        if cur == f1:
            break
        # gap faces are inside the covered frame, so no neighbour leaves the grid
        for nbr in (cur - ny, cur + ny, cur - 1, cur + 1):
            if owner[nbr] == c and nbr not in prev:
                prev[nbr] = cur
                queue.append(nbr)
    if f1 not in prev:
        raise GeometryError("gap component faces are not mutually reachable")
    faces = [f1]
    while faces[-1] != f0:
        faces.append(prev[faces[-1]])
    faces.reverse()
    return [fibre.face_centre(f) for f in faces[1:-1]]


def extract_path(scene: Scene, fibres: Fibres, sections: GlobalSections) -> EvasionPath:
    """Turn a feasible sweep decision's section chain into a concrete evasion path.

    `fibres` are the scene's `scene_fibres` and `sections` the global
    sections of the sheaf built from them. `sections.chain` names one gap
    component per cell, which must be a component of that cell's fibre, and
    each vertex component must persist into the components the chain names
    on both edges beside it (GeometryError otherwise). The path sits at a
    rational interior point of each vertex component, and migrates between
    those points by straight hops across the face graph strictly inside each
    open edge interval, where the gap fibre is constant. Components and
    routes are read off the fibres' owner arrays. The result is verified
    against the scene's boxes exactly before being returned.

    A vertex is keyed by (fibre identity, chosen component) and an edge by
    its transition: (left vertex key, edge fibre identity, edge component,
    right vertex key), the unbounded edges missing one side. Samples share
    fibres, so a long chain has few distinct keys. Each cell costs only
    C-level passes: the key lists are built with `zip` and `map`, and
    `dict` keeps each distinct key once, in time order. The range check
    and the interior point are worked out once per distinct vertex key (the
    point once per rank rectangle of its seed face), the end faces, the
    route and the hop list once per distinct transition, and Python walks
    only the edges whose transition moves the path (`itertools.compress`).
    """
    chain = sections.chain
    if chain is None:
        raise ValueError("extract_path needs the section chain of a feasible sweep decision")
    times, vertex_fibres, edge_fibres = fibres
    k = len(times)
    if len(chain) != 2 * k + 1:
        raise GeometryError("section chain does not have one gap component per cell")
    vkeys = list(zip(map(id, vertex_fibres), chain[1::2]))
    tkeys = list(zip([None, *vkeys], map(id, edge_fibres), chain[0::2], [*vkeys, None]))
    vertices = dict(zip(vkeys, vertex_fibres))  # each distinct vertex key once, with its fibre
    # an edge index that names no component of its fibre owns no face, which _route checks
    if not all(0 <= c < len(vf.seeds) for (_, c), vf in vertices.items()):
        raise GeometryError("section chain does not have one gap component per cell")
    # an interior point is the centre of the component's seed face, so it is
    # worked out once per rank rectangle of that face (the scene ranks of the
    # grid lines around it), which the fibres of one scene share
    points: dict[tuple[int, int, int, int], Point] = {}
    at: dict[tuple[int, int], Point] = {}
    for vkey, vf in vertices.items():
        i, j = divmod(vf.seeds[vkey[1]], vf.ny)
        rect = (vf.xr[i // 2], vf.xr[i // 2 + 1], vf.yr[j // 2], vf.yr[j // 2 + 1])
        if rect not in points:
            points[rect] = vf.interior_point(vkey[1])
        at[vkey] = points[rect]
    # a transition's route runs inside its edge component from the left
    # vertex's face to the right one's; on an unbounded edge it only checks
    # that the one vertex's component persists into it
    hops: dict[tuple, list[Point]] = {}  # the moving interior transitions
    for tkey, ef in dict(zip(tkeys, edge_fibres)).items():
        left, _, c, right = tkey
        ends = [_edge_face(vertices[vkey], vkey[1], ef) for vkey in (left, right) if vkey is not None]
        route = _route(ef, c, ends[0], ends[-1])
        if left is not None and right is not None:
            positions = [at[left], *route, at[right]]
            moves = [p for prev, p in zip(positions, positions[1:]) if p != prev]
            if moves:
                hops[tkey] = moves

    segments: list[PathSegment] = []
    cur_start: Fraction | None = None
    cur_point = at[vkeys[0]]
    for j in compress(range(k + 1), map(hops.__contains__, tkeys)):
        moves = hops[tkeys[j]]
        # hop h of m - 1 is at a + (b - a) h / m, one Fraction from the integer ratios of a = p/q and b = r/u
        (p, q), (r, u), m = times[j - 1].as_integer_ratio(), times[j].as_integer_ratio(), len(moves) + 1
        for h, nxt in enumerate(moves, 1):
            s = Fraction(p * u * m + (r * q - p * u) * h, q * u * m)
            segments.append(PathSegment(cur_start, s, cur_point))
            cur_start, cur_point = s, nxt
    segments.append(PathSegment(cur_start, None, cur_point))
    path = EvasionPath(segments=tuple(segments), chain=section_chain(sections.sheaf, chain))
    verify_evasion_path(scene, path)
    return path
