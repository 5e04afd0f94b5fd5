"""Planar coverage scenes and their gap topology over time.

A scene is a rectangular spatial window W plus finitely many closed
axis-aligned boxes in space-time. At time t the *covered* region is the
complement of the open window interior together with every box alive at t;
the *gap* is what remains: an open subset of int(W). Everything an evader
can do lives inside the gap.

All computations run on the exact rational rectangle arrangement induced by
the window and the alive boxes: faces (open cells, open edges, vertices of
the grid) are each entirely covered or entirely gap, and two gap faces are
connected exactly when they are incident, so connected components come out
of a union-find with no numeric slack.

The bridge to the sheaf layer: between consecutive critical times the alive
set is constant, so the gap is a product; at a critical time the coverage
dominates both neighbouring intervals, so each gap component at the vertex
persists into exactly one component on each side. Free cones on gap
components with those containment maps form the cone sheaf whose global
sections decide evasion.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from evasion.cones import PolyhedralCone
from evasion.linalg import Matrix, ONE, SparseRow, ZERO
from evasion.sheaf import ConeSheaf, GlobalSections, SectionChain, Stratification

Point = tuple[Fraction, Fraction]
Interval = tuple[Fraction, Fraction]
Face = tuple[int, int]


class SceneValidationError(ValueError):
    def __init__(self, report: "SceneReport"):
        self.report = report
        super().__init__("invalid scene: " + "; ".join(report.problems[:3]))


class GeometryError(RuntimeError):
    """Internal invariant broke (a bug, not an input condition)."""


class PathVerificationError(GeometryError):
    pass


def _interval(pair) -> Interval:
    lo, hi = Fraction(pair[0]), Fraction(pair[1])
    if lo > hi:
        raise ValueError(f"interval [{lo}, {hi}] is empty")
    return lo, hi


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned box in space-time; spatial degeneracy is allowed
    (a zero-width box is a wall segment and still separates gaps)."""

    t: Interval
    x: Interval
    y: Interval

    @classmethod
    def make(cls, t, x, y) -> "Box":
        return cls(_interval(t), _interval(x), _interval(y))

    def alive(self, at: Fraction) -> bool:
        return self.t[0] <= at <= self.t[1]

    def contains(self, p: Point) -> bool:
        return self.x[0] <= p[0] <= self.x[1] and self.y[0] <= p[1] <= self.y[1]


@dataclass(frozen=True)
class Scene:
    """Spatial window plus coverage boxes.

    Convention: coverage at time t is (plane minus int(window)) union the
    boxes alive at t, so every gap automatically sits strictly inside the
    window (the window complement is the fence).
    """

    window_x: Interval
    window_y: Interval
    boxes: tuple[Box, ...]

    @classmethod
    def make(cls, window_x, window_y, boxes=()) -> "Scene":
        return cls(_interval(window_x), _interval(window_y), tuple(boxes))

    def shifted(self, dt, dx, dy) -> "Scene":
        dt, dx, dy = Fraction(dt), Fraction(dx), Fraction(dy)

        def mv(iv: Interval, d: Fraction) -> Interval:
            return (iv[0] + d, iv[1] + d)

        return Scene(
            mv(self.window_x, dx),
            mv(self.window_y, dy),
            tuple(Box(mv(b.t, dt), mv(b.x, dx), mv(b.y, dy)) for b in self.boxes),
        )


@dataclass(frozen=True)
class SceneReport:
    ok: bool
    problems: tuple[str, ...]


@dataclass(frozen=True)
class GapComponent:
    """One connected component of the open gap at a fixed time."""

    label: str
    anchor: Point  # lexicographically least face corner; the deterministic sort key
    interior_point: Point  # centre of the least open 2-face
    faces: frozenset[Face]

    def y_extent(self, fibre: "GapFibre") -> Interval:
        ys = fibre.ys
        lo = min(ys[j // 2] for _, j in self.faces)
        hi = max(ys[j // 2 + 1] if j % 2 else ys[j // 2] for _, j in self.faces)
        return lo, hi


@dataclass(frozen=True)
class GapFibre:
    """Gap components at one time, on the arrangement grid of that time.

    Grid faces are indexed by (i, j): even indices are grid lines, odd
    indices are the open intervals between them.
    """

    time: Fraction
    xs: tuple[Fraction, ...]
    ys: tuple[Fraction, ...]
    components: tuple[GapComponent, ...]
    _face_index: dict[Face, int] = field(repr=False, compare=False, default_factory=dict)

    def locate(self, p: Point) -> int | None:
        """Component index containing p, or None if p is covered."""
        face = self._face_of(p)
        if face is None:
            return None
        return self._face_index.get(face)

    def _face_of(self, p: Point) -> Face | None:
        i = _axis_index(self.xs, p[0])
        j = _axis_index(self.ys, p[1])
        if i is None or j is None:
            return None
        return i, j

    def face_centre(self, face: Face) -> Point:
        return _face_centre(self.xs, face[0]), _face_centre(self.ys, face[1])


def _axis_index(coords: tuple[Fraction, ...], c: Fraction) -> int | None:
    if c <= coords[0] or c >= coords[-1]:
        return None
    k = bisect_left(coords, c)
    return 2 * k if coords[k] == c else 2 * k - 1


def _face_centre(coords: tuple[Fraction, ...], i: int) -> Fraction:
    k = i // 2
    return coords[k] if i % 2 == 0 else (coords[k] + coords[k + 1]) / 2


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def add(self, a) -> None:
        self.parent.setdefault(a, a)

    def find(self, a):
        p = self.parent
        while p[a] != a:
            p[a] = p[p[a]]
            a = p[a]
        return a

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _relevant(scene: Scene, box: Box) -> bool:
    # does the closed box meet the open window interior?
    return (
        box.x[0] < scene.window_x[1]
        and box.x[1] > scene.window_x[0]
        and box.y[0] < scene.window_y[1]
        and box.y[1] > scene.window_y[0]
    )


def _clamp(iv: Interval, lo: Fraction, hi: Fraction) -> Interval:
    return max(iv[0], lo), min(iv[1], hi)


def _alive_along(scene: Scene, times: list[Fraction]) -> list[list[Box]]:
    """Alive boxes at each time of an ascending sample list, in one sweep."""
    order = sorted(range(len(scene.boxes)), key=lambda i: scene.boxes[i].t[0])
    heap: list[tuple[Fraction, int]] = []
    nxt = 0
    out = []
    for t in times:
        while nxt < len(order) and scene.boxes[order[nxt]].t[0] <= t:
            idx = order[nxt]
            heapq.heappush(heap, (scene.boxes[idx].t[1], idx))
            nxt += 1
        while heap and heap[0][0] < t:
            heapq.heappop(heap)
        out.append([scene.boxes[i] for _, i in heap])
    return out


def gap_components(scene: Scene, t) -> GapFibre:
    """Connected components of the open gap at time t, with stable labels.

    Components are ordered (and labelled g0, g1, ...) by their least face
    corner, so repeated runs and nearby sample times agree on names.
    """
    t = Fraction(t)
    return _build_fibre(scene, t, [b for b in scene.boxes if b.alive(t)])


def _build_fibre(scene: Scene, t: Fraction, alive: list[Box]) -> GapFibre:
    rects = [
        (_clamp(b.x, *scene.window_x), _clamp(b.y, *scene.window_y))
        for b in alive
        if _relevant(scene, b)
    ]
    xs = tuple(sorted({scene.window_x[0], scene.window_x[1], *(c for r in rects for c in r[0])}))
    ys = tuple(sorted({scene.window_y[0], scene.window_y[1], *(c for r in rects for c in r[1])}))
    nx, ny = 2 * len(xs) - 1, 2 * len(ys) - 1
    covered = [[False] * ny for _ in range(nx)]
    xpos = {c: k for k, c in enumerate(xs)}
    ypos = {c: k for k, c in enumerate(ys)}
    for rx, ry in rects:
        for i in range(2 * xpos[rx[0]], 2 * xpos[rx[1]] + 1):
            row = covered[i]
            for j in range(2 * ypos[ry[0]], 2 * ypos[ry[1]] + 1):
                row[j] = True

    def is_gap(i: int, j: int) -> bool:
        return 0 < i < nx - 1 and 0 < j < ny - 1 and not covered[i][j]

    uf = _UnionFind()
    for i in range(1, nx - 1):
        for j in range(1, ny - 1):
            if not is_gap(i, j):
                continue
            uf.add((i, j))
            if is_gap(i - 1, j):
                uf.union((i, j), (i - 1, j))
            if is_gap(i, j - 1):
                uf.union((i, j), (i, j - 1))
    groups: dict[Face, list[Face]] = {}
    for face in uf.parent:
        groups.setdefault(uf.find(face), []).append(face)

    def corner(face: Face) -> Point:
        return xs[face[0] // 2], ys[face[1] // 2]

    comps = []
    for faces in groups.values():
        anchor = min(corner(f) for f in faces)
        two_faces = [f for f in faces if f[0] % 2 and f[1] % 2]
        if not two_faces:
            raise GeometryError("gap component without an open 2-face")
        least = min(two_faces, key=corner)
        centre = (
            (xs[least[0] // 2] + xs[least[0] // 2 + 1]) / 2,
            (ys[least[1] // 2] + ys[least[1] // 2 + 1]) / 2,
        )
        comps.append((anchor, centre, frozenset(faces)))
    comps.sort(key=lambda c: c[0])
    components = tuple(
        GapComponent(label=f"g{idx}", anchor=a, interior_point=c, faces=fs)
        for idx, (a, c, fs) in enumerate(comps)
    )
    face_index = {f: idx for idx, comp in enumerate(components) for f in comp.faces}
    return GapFibre(time=t, xs=xs, ys=ys, components=components, _face_index=face_index)


def point_uncovered(scene: Scene, t, p: Point) -> bool:
    """Direct point probe: strictly inside the window and in no alive box.

    Deliberately independent of the arrangement machinery; the tests hold
    the two against each other.
    """
    t = Fraction(t)
    x, y = Fraction(p[0]), Fraction(p[1])
    if not (scene.window_x[0] < x < scene.window_x[1] and scene.window_y[0] < y < scene.window_y[1]):
        return False
    return not any(b.alive(t) and b.contains((x, y)) for b in scene.boxes)


def critical_times(scene: Scene) -> tuple[Fraction, ...]:
    """Sorted times where the alive set of window-relevant boxes can change.

    Between consecutive returned times the alive set is constant, so the gap
    is a product of a fixed fibre with the open interval.
    """
    ts = {e for b in scene.boxes if _relevant(scene, b) for e in b.t}
    return tuple(sorted(ts))


def _coverage_connected(scene: Scene, alive: list[Box]) -> bool:
    """Coverage = window frame + alive boxes; connected iff the intersection
    graph of those closed pieces is connected."""
    uf = _UnionFind()
    uf.add("frame")
    for idx, b in enumerate(alive):
        uf.add(idx)
        inside_interior = (
            scene.window_x[0] < b.x[0]
            and b.x[1] < scene.window_x[1]
            and scene.window_y[0] < b.y[0]
            and b.y[1] < scene.window_y[1]
        )
        if not inside_interior:
            uf.union(idx, "frame")
        for jdx in range(idx):
            o = alive[jdx]
            if b.x[0] <= o.x[1] and o.x[0] <= b.x[1] and b.y[0] <= o.y[1] and o.y[0] <= b.y[1]:
                uf.union(idx, jdx)
    root = uf.find("frame")
    return all(uf.find(idx) == root for idx in range(len(alive)))


def _edge_sample(times: tuple[Fraction, ...], j: int) -> Fraction:
    if j == 0:
        return times[0] - 1
    if j == len(times):
        return times[-1] + 1
    return (times[j - 1] + times[j]) / 2


def _sample_schedule(times: tuple[Fraction, ...]):
    """Edge samples interleaved with vertex times, in ascending time order."""
    schedule: list[tuple[Fraction, str, int]] = []
    k = len(times)
    for j in range(k + 1):
        schedule.append((_edge_sample(times, j), "e", j))
        if j < k:
            schedule.append((times[j], "v", j))
    return schedule


@lru_cache(maxsize=16)
def validate_scene(scene: Scene) -> SceneReport:
    """Coverage must be connected at every critical time and inside every
    edge, and all gap components must stay strictly inside the window."""
    if scene.window_x[0] >= scene.window_x[1] or scene.window_y[0] >= scene.window_y[1]:
        raise ValueError("window has empty interior")
    times, vertex_fibres, edge_fibres = scene_fibres(scene)
    schedule = _sample_schedule(times)
    alive = _alive_along(scene, [s[0] for s in schedule])
    for (t, kind, idx), boxes in zip(schedule, alive):
        if not _coverage_connected(scene, boxes):
            return SceneReport(False, (f"coverage is disconnected at t={t}",))
        fibre = vertex_fibres[idx] if kind == "v" else edge_fibres[idx]
        for comp in fibre.components:
            xlo, ylo = comp.anchor
            if not (
                scene.window_x[0] <= xlo < scene.window_x[1]
                and scene.window_y[0] <= ylo < scene.window_y[1]
            ):
                return SceneReport(
                    False, (f"gap component {comp.label} escapes the window at t={t}",)
                )
    return SceneReport(True, ())


@lru_cache(maxsize=16)
def scene_fibres(scene: Scene) -> tuple[tuple[Fraction, ...], tuple[GapFibre, ...], tuple[GapFibre, ...]]:
    """Critical times plus the gap fibre at every vertex and edge sample.

    Scenes with no critical box events still get one synthetic vertex at
    t=0 so the constant section is representable downstream. Cached (scenes
    are immutable): validation, sheaf construction and path extraction all
    consume the same fibres.
    """
    times = critical_times(scene) or (Fraction(0),)
    schedule = _sample_schedule(times)
    alive = _alive_along(scene, [s[0] for s in schedule])
    k = len(times)
    vertex_fibres: list[GapFibre | None] = [None] * k
    edge_fibres: list[GapFibre | None] = [None] * (k + 1)
    for (t, kind, idx), boxes in zip(schedule, alive):
        fibre = _build_fibre(scene, t, boxes)
        if kind == "v":
            vertex_fibres[idx] = fibre
        else:
            edge_fibres[idx] = fibre
    return times, tuple(vertex_fibres), tuple(edge_fibres)


def build_sheaf(scene: Scene) -> ConeSheaf:
    """Free-cone sheaf on gap components over the critical stratification.

    Stalks are free cones on the gap components of the cell's sample time;
    the restriction of a vertex component is the unique edge component
    containing it (the gap at a critical time is dominated by the coverage
    there, so the component persists to both sides).
    """
    report = validate_scene(scene)
    if not report.ok:
        raise SceneValidationError(report)
    times, vertex_fibres, edge_fibres = scene_fibres(scene)
    vertex_stalks = tuple(PolyhedralCone.free([c.label for c in f.components]) for f in vertex_fibres)
    edge_stalks = tuple(PolyhedralCone.free([c.label for c in f.components]) for f in edge_fibres)
    left_maps, right_maps = [], []
    for i, vf in enumerate(vertex_fibres):
        for side, ef, maps in (("left", edge_fibres[i], left_maps), ("right", edge_fibres[i + 1], right_maps)):
            rows: list[SparseRow] = [{} for _ in ef.components]
            for c, comp in enumerate(vf.components):
                target = ef.locate(comp.interior_point)
                if target is None:
                    raise GeometryError(
                        f"component {comp.label} at t={vf.time} does not persist to the {side} edge"
                    )
                rows[target][c] = ONE
            maps.append(Matrix(len(rows), len(vf.components), tuple(rows)))
    return ConeSheaf(
        strat=Stratification(times),
        vertex_stalks=vertex_stalks,
        edge_stalks=edge_stalks,
        left_maps=tuple(left_maps),
        right_maps=tuple(right_maps),
    )


@dataclass(frozen=True)
class PathSegment:
    """Hold `point` from start to end (None = unbounded side)."""

    start: Fraction | None
    end: Fraction | None
    point: Point


@dataclass(frozen=True)
class EvasionPath:
    """Piecewise-constant-in-space evasion witness.

    Consecutive segments share their boundary time; the instantaneous move
    between their points happens inside the open gap at that time and is
    checked segment by segment and jump by jump.
    """

    segments: tuple[PathSegment, ...]
    chain: SectionChain


def _route(fibre: GapFibre, comp: GapComponent, start: Point, goal: Point) -> list[Point]:
    """Waypoints (face centres) of a face path from start to goal inside one
    gap component. Consecutive waypoints live on incident faces, so each
    straight hop stays inside the open component."""
    f0, f1 = fibre._face_of(start), fibre._face_of(goal)
    if f0 not in comp.faces or f1 not in comp.faces:
        raise GeometryError("route endpoints are not inside the expected gap component")
    if f0 == f1:
        return []
    prev: dict[Face, Face] = {f0: f0}
    queue = deque([f0])
    while queue:
        cur = queue.popleft()
        if cur == f1:
            break
        i, j = cur
        for nbr in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
            if nbr in comp.faces and nbr not in prev:
                prev[nbr] = cur
                queue.append(nbr)
    if f1 not in prev:
        raise GeometryError("gap component faces are not mutually reachable")
    faces = [f1]
    while faces[-1] != f0:
        faces.append(prev[faces[-1]])
    faces.reverse()
    return [fibre.face_centre(f) for f in faces[1:-1]]


def extract_path(scene: Scene, sections: GlobalSections) -> EvasionPath:
    """Turn a feasible global-sections witness into a concrete evasion path.

    The witness support must be a single section chain: one gap component
    per vertex, each persisting into the same component of the edge it
    shares with the next vertex (GeometryError otherwise). The path sits at
    a rational interior point of each chosen component, and migrates between
    those points by straight hops across the face graph strictly inside each
    open edge interval, where the gap fibre is constant. The result is
    verified against the scene exactly before being returned.
    """
    if sections.decision is None or not sections.decision.feasible:
        raise ValueError("extract_path needs a feasible global-sections decision")
    times, vertex_fibres, edge_fibres = scene_fibres(scene)
    k = len(times)
    support: dict[str, list[str]] = {}
    for (cell, lab), v in zip(sections.column_labels, sections.decision.witness):
        if v:
            support.setdefault(cell, []).append(lab)
    vertex_comps: list[GapComponent] = []
    for i, vf in enumerate(vertex_fibres):
        labels = support.get(f"v{i + 1}", [])
        comp = next((c for c in vf.components if [c.label] == labels), None)
        if comp is None:
            raise GeometryError(f"witness support is not a single chain: v{i + 1} carries {labels}")
        vertex_comps.append(comp)
    vertex_points = [c.interior_point for c in vertex_comps]
    edge_comps: list[GapComponent] = []
    cells: list[tuple[str, str]] = []
    for j, ef in enumerate(edge_fibres):
        ends = {ef.locate(vertex_points[i]) for i in (j - 1, j) if 0 <= i < k}
        if len(ends) != 1 or None in ends:
            raise GeometryError(f"witness support is not a single chain across e{j + 1}")
        edge_comps.append(ef.components[ends.pop()])
        cells.append((f"e{j + 1}", edge_comps[j].label))
        if j < k:
            cells.append((f"v{j + 1}", vertex_comps[j].label))

    segments: list[PathSegment] = []
    cur_start: Fraction | None = None
    cur_point = vertex_points[0]
    for i in range(k - 1):
        a, b = times[i], times[i + 1]
        ef = edge_fibres[i + 1]
        positions = [vertex_points[i], *_route(ef, edge_comps[i + 1], vertex_points[i], vertex_points[i + 1]), vertex_points[i + 1]]
        hops = [p for prev, p in zip(positions, positions[1:]) if p != prev]
        for h, nxt in enumerate(hops):
            s = a + (b - a) * Fraction(h + 1, len(hops) + 1)
            segments.append(PathSegment(cur_start, s, cur_point))
            cur_start, cur_point = s, nxt
    segments.append(PathSegment(cur_start, None, cur_point))
    path = EvasionPath(segments=tuple(segments), chain=SectionChain(tuple(cells)))
    verify_evasion_path(scene, path)
    return path


def _segment_meets_box(p: Point, q: Point, box: Box) -> bool:
    """Does the closed segment from p to q meet the closed box?

    Exact Liang-Barsky clipping: the parameters s in [0, 1] of p + s(q - p)
    inside the box's slab on each axis form an interval; the segment meets
    the box iff the intersection of those intervals is nonempty.
    """
    lo, hi = ZERO, ONE
    for a, d, (blo, bhi) in ((p[0], q[0] - p[0], box.x), (p[1], q[1] - p[1], box.y)):
        if d == 0:
            if not blo <= a <= bhi:
                return False
            continue
        s0, s1 = (blo - a) / d, (bhi - a) / d
        if s0 > s1:
            s0, s1 = s1, s0
        lo, hi = max(lo, s0), min(hi, s1)
        if lo > hi:
            return False
    return True


def verify_evasion_path(scene: Scene, path: EvasionPath) -> None:
    """Exact re-check of a path against the raw scene.

    Every held point must lie strictly inside the window and outside every
    box whose closed time interval meets the segment's closed time span,
    unbounded sides included. Every instantaneous move must keep its whole
    straight segment out of every box alive at its time (its ends are held
    points, so the convex window holds it). This costs O(#boxes) per segment
    and per jump. Raises PathVerificationError on any contact (which would
    be a bug)."""
    segs = path.segments
    if not segs or segs[0].start is not None or segs[-1].end is not None:
        raise PathVerificationError("path must cover the whole timeline")
    for a, b in zip(segs, segs[1:]):
        if a.end is None or b.start != a.end:
            raise PathVerificationError("consecutive segments must share their boundary time")
    (wxlo, wxhi), (wylo, wyhi) = scene.window_x, scene.window_y
    for seg in segs:
        if seg.start is not None and seg.end is not None and seg.start > seg.end:
            raise PathVerificationError("segment with reversed time interval")
        x, y = seg.point
        if not (wxlo < x < wxhi and wylo < y < wyhi):
            raise PathVerificationError(f"path point {seg.point} is not strictly inside the window")
        for box in scene.boxes:
            if (
                box.contains(seg.point)
                and (seg.end is None or box.t[0] <= seg.end)
                and (seg.start is None or seg.start <= box.t[1])
            ):
                raise PathVerificationError(
                    f"path point {seg.point} is covered by a box alive on [{box.t[0]}, {box.t[1]}]"
                )
    for a, b in zip(segs, segs[1:]):
        t = a.end
        for box in scene.boxes:
            if box.alive(t) and _segment_meets_box(a.point, b.point, box):
                raise PathVerificationError(f"jump from {a.point} to {b.point} at t={t} is covered")
