"""Reference decider for full-height scenes, with no fibre, sheaf or grid code.

A scene is full-height when every box spans the window's whole height
(y0 <= the window's lower y and y1 >= its upper y). The gap at time t is
then the free open x-intervals of the window, those outside the closed x
intervals of the boxes alive at t, times the window's open height; every
such scene has connected coverage, since each box meets the frame above and
below. Between consecutive critical times the alive set is constant, and at
a critical time it holds the boxes of both open edges beside it, so each
free interval at a vertex lies inside one free interval of each edge.

An evader can move anywhere inside a free interval while the interval
lasts, so evasion is reachability over time. Before the first critical
time no box is alive and the whole window is reachable. At each vertex the
reachable intervals are the free ones inside a reachable interval of the
edge before it; on the edge after it they are the free ones holding a
reachable vertex interval. The scene admits evasion iff some interval stays
reachable at every vertex, and otherwise the first vertex time with none
left is where the sweep is blocked. The sweep compares `Fraction`s only,
and imports nothing beyond them and the scene types.
"""

from fractions import Fraction

from evasion.scene import Scene

Span = tuple[Fraction, Fraction]


def free_intervals(window_x: Span, walls) -> list[Span]:
    """The open intervals of the window's x-range outside the closed
    intervals `walls`, in increasing order."""
    cur, hi = window_x
    free = []
    for x0, x1 in sorted(walls):
        if x0 > cur:
            free.append((cur, min(x0, hi)))
        cur = max(cur, x1)
        if cur >= hi:
            return free
    return [*free, (cur, hi)]


def reference_interval_decision(scene: Scene) -> tuple[str, Fraction | None]:
    """("EVASION", None), or ("NO_EVASION", the first critical time at which
    no free interval is reachable). ValueError if a box is not full-height."""
    y0, y1 = scene.window_y
    if any(b.y[0] > y0 or b.y[1] < y1 for b in scene.boxes):
        raise ValueError("not a full-height scene")
    born: dict[Fraction, list[Span]] = {}
    gone: dict[Fraction, list[Span]] = {}
    for b in scene.boxes:
        born.setdefault(b.t[0], []).append(b.x)
        gone.setdefault(b.t[1], []).append(b.x)
    alive: dict[Span, int] = {}  # the number of alive boxes on each x-interval
    reachable = [scene.window_x]
    for t in sorted({*born, *gone}):
        for x in born.get(t, ()):
            alive[x] = alive.get(x, 0) + 1
        vertex = free_intervals(scene.window_x, alive)
        reachable = [(a, b) for a, b in vertex if any(c <= a and b <= d for c, d in reachable)]
        if not reachable:
            return "NO_EVASION", t
        for x in gone.get(t, ()):
            alive[x] -= 1
            if not alive[x]:
                del alive[x]
        edge = free_intervals(scene.window_x, alive)
        reachable = [(c, d) for c, d in edge if any(c <= a and b <= d for a, b in reachable)]
    return "EVASION", None
