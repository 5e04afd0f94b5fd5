"""Seeded random instances for fuzzing and property tests.

Shared by the test suite and the experiment scripts so both draw from the
same distribution. Everything takes an explicit `random.Random`; seeding is
the caller's business (the tests honour the EVASION_SEED environment
variable).
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from random import Random

from evasion.cones import PolyhedralCone
from evasion.geometry import scene_fibres, validate_fibres
from evasion.scene import Box, Scene
from evasion.sheaf import FunctionSheaf, Stratification


def random_function_like_sheaf(rng: Random, max_vertices: int = 6, max_gens: int = 4) -> FunctionSheaf:
    """Free-cone sheaf with total function-like restrictions, as random images.

    Every stalk is a nonempty orthant and every vertex generator maps to
    exactly one generator on each side: the class where the combinatorial
    section sweep and the LP must agree.
    """
    k = rng.randint(1, max_vertices)
    strat = Stratification(tuple(Fraction(i) for i in range(k)))
    edge_sizes = [rng.randint(1, max_gens) for _ in range(k + 1)]
    vertex_sizes = [rng.randint(1, max_gens) for _ in range(k)]
    edge_stalks = tuple(PolyhedralCone.free([f"g{i}" for i in range(n)]) for n in edge_sizes)
    vertex_stalks = tuple(PolyhedralCone.free([f"g{i}" for i in range(n)]) for n in vertex_sizes)

    def random_image(nv: int, ne: int) -> tuple[int, ...]:
        return tuple(rng.randrange(ne) for _ in range(nv))

    left = [random_image(vertex_sizes[i], edge_sizes[i]) for i in range(k)]
    right = [random_image(vertex_sizes[i], edge_sizes[i + 1]) for i in range(k)]
    return FunctionSheaf(strat, vertex_stalks, edge_stalks, tuple(zip(left, right)))


_WINDOW = (Fraction(0), Fraction(12))


def _random_time(rng: Random) -> Fraction:
    return Fraction(rng.randint(0, 24), rng.choice((1, 2, 2)))


def random_candidate(rng: Random, max_boxes: int = 5) -> Scene:
    """One draw of random_scene's distribution, valid or not.

    Boxes are a mix of full-width walls, full-height walls, loose rectangles
    and instantaneous blackouts over the window (0, 12)^2; some stick out
    of the window or lie outside it.
    """
    boxes = []
    for _ in range(rng.randint(0, max_boxes)):
        t0 = _random_time(rng)
        t1 = t0 if rng.random() < 0.15 else t0 + Fraction(rng.randint(0, 8), 2)
        kind = rng.random()
        lo = Fraction(rng.randint(-2, 10))
        size = Fraction(rng.randint(1, 8))
        if kind < 0.35:  # horizontal wall, full width
            boxes.append(Box.make((t0, t1), (0, 12), (lo, lo + size)))
        elif kind < 0.55:  # vertical wall, full height
            boxes.append(Box.make((t0, t1), (lo, lo + size), (0, 12)))
        elif kind < 0.65:  # zero-width wall segment: covers no area, still separates
            boxes.append(Box.make((t0, t1), (lo, lo), (0, 12)))
        elif kind < 0.85:  # loose rectangle, may stick out of the window
            lo2 = Fraction(rng.randint(-2, 10))
            boxes.append(Box.make((t0, t1), (lo, lo + size), (lo2, lo2 + rng.randint(1, 6))))
        else:  # full blackout pulse
            boxes.append(Box.make((t0, t1), (0, 12), (0, 12)))
    return Scene(_WINDOW, _WINDOW, tuple(boxes))


def random_scene(rng: Random, max_boxes: int = 5) -> Scene:
    """Random valid scene over a fixed window: candidates whose coverage
    disconnects are re-rolled so the result satisfies the scene contract."""
    for _ in range(64):
        scene = random_candidate(rng, max_boxes)
        if validate_fibres(scene_fibres(scene)) is None:
            return scene
    raise RuntimeError("could not draw a valid random scene (generator misconfigured)")


def pulsing_box_scene(n_critical_times: int) -> Scene:
    """Scaling family: a wall stub blinking on and off.

    The stub hangs off the left window edge (coverage must stay connected),
    leaves a single gap component at every time, and produces exactly
    `n_critical_times` critical times (must be even), so cost growth
    isolates the pipeline's bookkeeping rather than the topology."""
    if n_critical_times % 2:
        raise ValueError("n_critical_times must be even")
    boxes = [
        Box.make((2 * i + 1, 2 * i + 2), (0, 5), (3, 5))
        for i in range(n_critical_times // 2)
    ]
    return Scene.make((0, 8), (0, 8), boxes)


def comb_scene(m: int) -> Scene:
    """Scaling family with large stalks: m zero-width full-height walls at
    x = 1..m in the window (0, m+1)^2.

    Wall w is alive on [0, 2w] and [2w+1, 2m+1], so it opens exactly once,
    the walls open one after another, and most cells have about m+1 gap
    components: the stalks and the arrangements grow with m, not only the
    timeline."""
    top = m + 1
    boxes = []
    for w in range(1, m + 1):
        boxes.append(Box.make((0, 2 * w), (w, w), (0, top)))
        boxes.append(Box.make((2 * w + 1, 2 * m + 1), (w, w), (0, top)))
    return Scene.make((0, top), (0, top), boxes)


def blocked_scene(n_critical_times: int) -> Scene:
    """NO_EVASION scaling family: `pulsing_box_scene(n_critical_times)` plus
    a full-window blackout at the single instant t = n + 1/2, after the
    last pulse. The blackout covers the whole window, so no path crosses
    it, and the decider must certify that: the timeline is as long as
    pulsing's, but the check ends in a potential, not a path."""
    base = pulsing_box_scene(n_critical_times)
    instant = Fraction(2 * n_critical_times + 1, 2)
    blackout = Box.make((instant, instant), base.window_x, base.window_y)
    return Scene(base.window_x, base.window_y, (*base.boxes, blackout))


def slalom_scene(n: int) -> Scene:
    """EVASION scaling family whose path hops at every event: window
    (0, 4)^2 and, for each i < n, one box [4i+1, 4i+2] x [0, 2] x [0, 4]
    and one box [4i+3, 4i+4] x [2, 4] x [0, 4] (t x x x y).

    Each box covers one half of the window at full height while it lives,
    so the gap is the other half, and the path moves to that half before
    each box is born: its 2n boxes give it 2n segments. Verification
    bisects each box's life into the path's 2n - 1 hop times and tests each
    segment and jump against the rectangles of the boxes alive on it, about
    one each, so the path stage grows as n log n."""
    boxes = []
    for i in range(n):
        boxes.append(Box.make((4 * i + 1, 4 * i + 2), (0, 2), (0, 4)))
        boxes.append(Box.make((4 * i + 3, 4 * i + 4), (2, 4), (0, 4)))
    return Scene.make((0, 4), (0, 4), boxes)


def staircase_scene(n: int) -> Scene:
    """EVASION scaling family whose covered region grows by a step at each
    birth: window (0, n+4)^2 and, for i = 1..n, box [i, 2n] x [i-1, i+1] x
    [i-1, i+1] (t x x x y).

    Consecutive boxes overlap and box 1 touches the frame, so the coverage
    stays connected and the gap is one component at every time; the path
    has at most two segments. The i-th birth adds a rectangle to everything
    still alive, so the gap fibres are built over ever larger compressed
    grids."""
    boxes = [Box.make((i, 2 * n), (i - 1, i + 1), (i - 1, i + 1)) for i in range(1, n + 1)]
    return Scene.make((0, n + 4), (0, n + 4), boxes)


def jittered_pulsing_scene(n: int) -> Scene:
    """`pulsing_box_scene(n)` with box i's stub width 5 + 1/(i+2), so that
    every box is a rectangle of its own by value while the topology and the
    verdict stay pulsing's."""
    if n % 2:
        raise ValueError("n must be even")
    boxes = [Box.make((2 * i + 1, 2 * i + 2), (0, 5 + Fraction(1, i + 2)), (3, 5)) for i in range(n // 2)]
    return Scene.make((0, 8), (0, 8), boxes)


def jittered_slalom_scene(n: int) -> Scene:
    """`slalom_scene(n)` with the i-th pair of boxes reaching e = 1/(2n+i+2)
    past the window's middle, so that every box is a rectangle of its own by
    value while the topology and the verdict stay slalom's."""
    boxes = []
    for i in range(n):
        e = Fraction(1, 2 * n + i + 2)
        boxes.append(Box.make((4 * i + 1, 4 * i + 2), (0, 2 + e), (0, 4)))
        boxes.append(Box.make((4 * i + 3, 4 * i + 4), (2 - e, 4), (0, 4)))
    return Scene.make((0, 4), (0, 4), boxes)


def deep_map(d: int) -> Callable[[Fraction], Fraction]:
    """v -> a v + b, with a = p/(p - 2), b = 1/(3p + 1) and p = 10^d + 7: an
    increasing map that writes a small value with about 2d digits."""
    p = 10**d + 7
    a, b = Fraction(p, p - 2), Fraction(1, 3 * p + 1)
    return lambda v: a * v + b


def deep(scene: Scene, d: int) -> Scene:
    """The scene with every t, x and y value mapped by `deep_map(d)`. The
    map keeps the order of the values, so the fibres, the sheaf, the
    verdict and the chain stay the scene's while the literals grow."""
    f = deep_map(d)

    def mapped(iv: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
        return f(iv[0]), f(iv[1])

    boxes = tuple(Box(mapped(box.t), mapped(box.x), mapped(box.y)) for box in scene.boxes)
    return Scene(mapped(scene.window_x), mapped(scene.window_y), boxes)


def deep_slalom_scene(d: int) -> Scene:
    """`slalom_scene(200)` mapped by `deep`: its size is the literal length
    d, so the path stage's growth is growth in the length of the literals."""
    return deep(slalom_scene(200), d)


def deep_jittered_pulsing_scene(d: int) -> Scene:
    """`jittered_pulsing_scene(400)` mapped by `deep`: every box a rectangle
    of its own, with x values that share long literals' integer parts."""
    return deep(jittered_pulsing_scene(400), d)


# the scaling families by name: builder, verdict and default sizes, ascending;
# tier-1 checks each verdict at the first two sizes
FAMILIES: dict[str, tuple[Callable[[int], Scene], str, tuple[int, ...]]] = {
    "pulsing": (pulsing_box_scene, "EVASION", (10, 100, 1000)),
    "comb": (comb_scene, "EVASION", (10, 40)),
    "blocked": (blocked_scene, "NO_EVASION", (10, 100, 1000)),
    "slalom": (slalom_scene, "EVASION", (10, 100)),
    "staircase": (staircase_scene, "EVASION", (10, 25)),
    "jittered-pulsing": (jittered_pulsing_scene, "EVASION", (10, 100, 1000)),
    "jittered-slalom": (jittered_slalom_scene, "EVASION", (10, 100)),
    "deep-slalom": (deep_slalom_scene, "EVASION", (10, 100, 1000)),
    "deep-jittered-pulsing": (deep_jittered_pulsing_scene, "EVASION", (10, 100, 1000)),
}


def parse_family(text: str) -> tuple[str, tuple[int, ...]]:
    """`NAME=N[,N...]` as (family name, sizes); ValueError names what is wrong."""
    name, equals, sizes = text.partition("=")
    if not equals:
        raise ValueError(f"{text!r} is not NAME=N[,N...]")
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; the families are {', '.join(FAMILIES)}")
    parts = sizes.split(",")
    if not all(part.isdecimal() and int(part) > 0 for part in parts):
        raise ValueError(f"{text!r}: the sizes must be positive integers separated by commas")
    sizes = tuple(map(int, parts))
    for n in sizes:
        try:
            FAMILIES[name][0](n)
        except ValueError as exc:
            raise ValueError(f"{name}={n}: {exc}") from exc
    return name, sizes
