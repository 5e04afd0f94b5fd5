"""Reference gap fibres and scene validation, computed on Fractions.

The loop versions that `evasion.geometry` replaced with its integer rank
arrangement: a `Fraction` grid per sample with a union-find over its gap
faces, and a union-find over pairwise box contacts on raw coordinates for
coverage connectivity, which the arrangement reads off the gap's Euler
characteristic instead. They share no code with the production path beyond
the scene types and the critical times the tests sample them at, and the
tests require equal results.

Also here are the point probes the tests hold the arrangement against: the
direct box-membership probe `point_uncovered`, exact point location in a
reference fibre (`reference_locate`), and `locate`, which reads a
production fibre's owner array at the face holding a point. And
`gap_components`, the production arrangement at a single time t, keyed by
the boxes alive at t rather than by the time sweep of `scene_fibres`.

`reference_extract_path` is the path extraction that walks every cell in
Python, looking each face and route up per cell; `extract_path` works them
out once per distinct fibre transition, and the tests require the same path
or the same error from both. It shares `_edge_face`, `_route` and path
verification with the production path.

`reference_verify_evasion_path` is the path verifier that compares every
held point and every jump with every box; `verify_evasion_path` tests them
against the rectangles of the boxes alive on them alone, and the tests
require the same verdict and the same message from both. It shares only
the exact clipping test `_segment_meets_box` with the production path.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction

from evasion.certify import PathVerificationError, _segment_meets_box, verify_evasion_path
from evasion.geometry import Fibres, GeometryError, _arrange, _edge_face, _rank_table, _route
from evasion.scene import EvasionPath, PathSegment, Point, Scene
from evasion.sheaf import GlobalSections, section_chain


class UnionFind:
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


def _relevant(scene, box) -> bool:
    return (
        box.x[0] < scene.window_x[1]
        and box.x[1] > scene.window_x[0]
        and box.y[0] < scene.window_y[1]
        and box.y[1] > scene.window_y[0]
    )


def _clamp(iv, lo, hi):
    return max(iv[0], lo), min(iv[1], hi)


def reference_fibre(scene, t: Fraction):
    """(xs, ys, components) at time t; each component is
    (label, anchor, interior point, faces)."""
    alive = [b for b in scene.boxes if b.alive(t)]
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
            for j in range(2 * ypos[ry[0]], 2 * ypos[ry[1]] + 1):
                covered[i][j] = True

    def is_gap(i: int, j: int) -> bool:
        return 0 < i < nx - 1 and 0 < j < ny - 1 and not covered[i][j]

    uf = UnionFind()
    for i in range(1, nx - 1):
        for j in range(1, ny - 1):
            if not is_gap(i, j):
                continue
            uf.add((i, j))
            if is_gap(i - 1, j):
                uf.union((i, j), (i - 1, j))
            if is_gap(i, j - 1):
                uf.union((i, j), (i, j - 1))
    groups: dict = {}
    for face in uf.parent:
        groups.setdefault(uf.find(face), []).append(face)

    def corner(face):
        return xs[face[0] // 2], ys[face[1] // 2]

    comps = []
    for faces in groups.values():
        anchor = min(corner(f) for f in faces)
        least = min((f for f in faces if f[0] % 2 and f[1] % 2), key=corner)
        centre = (
            (xs[least[0] // 2] + xs[least[0] // 2 + 1]) / 2,
            (ys[least[1] // 2] + ys[least[1] // 2 + 1]) / 2,
        )
        comps.append((anchor, centre, frozenset(faces)))
    comps.sort(key=lambda c: c[0])
    return xs, ys, [(f"g{idx}", a, c, fs) for idx, (a, c, fs) in enumerate(comps)]


def coverage_connected(scene, alive) -> bool:
    """Coverage = window frame + alive boxes; connected iff the intersection
    graph of those closed pieces is connected."""
    uf = UnionFind()
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


def reference_samples(times: tuple[Fraction, ...]) -> list[Fraction]:
    """Edge samples interleaved with vertex times, in ascending order."""
    samples = [times[0] - 1]
    for a, b in zip(times, times[1:]):
        samples += [a, (a + b) / 2]
    return samples + [times[-1], times[-1] + 1]


def reference_validate(scene, times: tuple[Fraction, ...]) -> str | None:
    """The first fault as validate_scene names it, over every sample, or None."""
    for t in reference_samples(times):
        alive = [b for b in scene.boxes if b.alive(t)]
        if not coverage_connected(scene, alive):
            return f"coverage is disconnected at t={t}"
        for label, (xlo, ylo), _, _ in reference_fibre(scene, t)[2]:
            if not (
                scene.window_x[0] <= xlo < scene.window_x[1]
                and scene.window_y[0] <= ylo < scene.window_y[1]
            ):
                return f"gap component {label} escapes the window at t={t}"
    return None


def point_uncovered(scene, t, p) -> bool:
    """Direct point probe: strictly inside the window and in no alive box.

    Deliberately independent of the arrangement machinery; the tests hold
    the two against each other.
    """
    t = Fraction(t)
    x, y = Fraction(p[0]), Fraction(p[1])
    if not (scene.window_x[0] < x < scene.window_x[1] and scene.window_y[0] < y < scene.window_y[1]):
        return False
    return not any(b.alive(t) and b.contains((x, y)) for b in scene.boxes)


def _axis_index(coords, c):
    """The grid index (even on a line, odd between lines) of coordinate c
    strictly inside the grid, or None outside it or on its frame."""
    if c <= coords[0] or c >= coords[-1]:
        return None
    k = bisect_left(coords, c)
    return 2 * k if coords[k] == c else 2 * k - 1


def _face_of(xs, ys, p):
    i, j = _axis_index(xs, p[0]), _axis_index(ys, p[1])
    return None if i is None or j is None else (i, j)


def locate(fibre, p):
    """The component of a production fibre containing p, read off its owner
    array, or None if p is covered."""
    face = _face_of(fibre.xs, fibre.ys, p)
    if face is None:
        return None
    c = fibre.owner[face[0] * fibre.ny + face[1]]
    return None if c < 0 else c


def reference_locate(xs, ys, comps, p):
    """The index of the `reference_fibre` component containing p, or None
    if p is covered."""
    face = _face_of(xs, ys, p)
    return next((k for k, (_, _, _, faces) in enumerate(comps) if face in faces), None)


def gap_components(scene, t):
    """Connected components of the open gap at time t, with stable labels.

    Components are ordered (and labelled g0, g1, ...) by their least face
    corner, so repeated runs and nearby sample times agree on names.
    """
    t = Fraction(t)
    table = _rank_table(scene)
    # a box is alive iff ts[t0] <= t <= ts[t1]
    lo, hi = bisect_left(table.ts, t), bisect_right(table.ts, t)
    alive = {rect for rect, (t0, t1) in zip(table.rects, table.spans) if t0 < hi and t1 >= lo}
    return _arrange(table, tuple(sorted(alive)))


def reference_extract_path(scene: Scene, fibres: Fibres, sections: GlobalSections) -> EvasionPath:
    """`extract_path` as a loop over every cell, the version it replaced.

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
    """
    chain = sections.chain
    if chain is None:
        raise ValueError("extract_path needs the section chain of a feasible sweep decision")
    times, vertex_fibres, edge_fibres = fibres
    k = len(times)
    edge_comps, chosen = chain[0::2], chain[1::2]
    # an edge index that names no component of its fibre owns no face, which _route checks
    if len(chain) != 2 * k + 1 or not all(0 <= c < len(vf.seeds) for vf, c in zip(vertex_fibres, chosen)):
        raise GeometryError("section chain does not have one gap component per cell")
    # an interior point is the centre of the component's seed face, so it is
    # worked out once per rank rectangle of that face (the scene ranks of the
    # grid lines around it), which the fibres of one scene share
    points: dict[tuple[int, int, int, int], Point] = {}
    vertex_points = []
    for vf, c in zip(vertex_fibres, chosen):
        i, j = divmod(vf.seeds[c], vf.ny)
        rect = (vf.xr[i // 2], vf.xr[i // 2 + 1], vf.yr[j // 2], vf.yr[j // 2 + 1])
        if rect not in points:
            points[rect] = vf.interior_point(c)
        vertex_points.append(points[rect])
    # routes[j] runs inside edge j's component from vertex j-1's to vertex j's;
    # on an unbounded edge it only checks that the one vertex's component persists into it.
    # A face or a route depends only on fibres, which samples share, and
    # components, so each is found once per distinct tuple, fibres by identity
    faces: dict[tuple[int, int, int], int] = {}
    found: dict[tuple[int, int, int, int], list[Point]] = {}
    routes = []
    for j, ef in enumerate(edge_fibres):
        ends = []
        for i in (j - 1, j):
            if 0 <= i < k:
                vf, c = vertex_fibres[i], chosen[i]
                key = (id(vf), c, id(ef))
                if key not in faces:
                    faces[key] = _edge_face(vf, c, ef)
                ends.append(faces[key])
        key = (id(ef), edge_comps[j], ends[0], ends[-1])
        if key not in found:
            found[key] = _route(ef, edge_comps[j], ends[0], ends[-1])
        routes.append(found[key])

    segments: list[PathSegment] = []
    cur_start: Fraction | None = None
    cur_point = vertex_points[0]
    for i in range(k - 1):
        here, route, there = vertex_points[i], routes[i + 1], vertex_points[i + 1]
        if not route and here == there:
            continue  # no hop on this edge
        a, b = times[i], times[i + 1]
        positions = [here, *route, there]
        hops = [p for prev, p in zip(positions, positions[1:]) if p != prev]
        for h, nxt in enumerate(hops):
            s = a + (b - a) * Fraction(h + 1, len(hops) + 1)
            segments.append(PathSegment(cur_start, s, cur_point))
            cur_start, cur_point = s, nxt
    segments.append(PathSegment(cur_start, None, cur_point))
    path = EvasionPath(segments=tuple(segments), chain=section_chain(sections.sheaf, chain))
    verify_evasion_path(scene, path)
    return path


def reference_verify_evasion_path(scene: Scene, path: EvasionPath) -> None:
    """`verify_evasion_path` as a comparison of every segment and every jump
    with every box, the version it replaced: O(#boxes) per segment and per
    jump."""
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
