"""`run_check`'s verdict against the interval reference on full-height scenes."""

from fractions import Fraction
from random import Random

import pytest

from evasion.cli import run_check
from evasion.randgen import comb_scene, jittered_slalom_scene, slalom_scene
from evasion.scene import Box, Scene

from reference_interval import free_intervals, reference_interval_decision


def verdict(scene: Scene) -> str:
    _, sections, _, _ = run_check(scene)
    return "EVASION" if sections.decision.feasible else "NO_EVASION"


def full_height_draw(rng: Random) -> Scene:
    """Up to 30 boxes over the window (0, 8)^2, each spanning its full height,
    alive for up to 6 of the times 0 to 16, with half-integer x ranges of
    width 0 to 4 (zero-width walls included) that may reach past the
    window's sides."""
    boxes = []
    for _ in range(rng.randint(0, 30)):
        x0 = Fraction(rng.randint(-2, 17), 2)
        t0 = rng.randint(0, 10)
        x = (x0, x0 + Fraction(rng.randint(0, 8), 2))
        boxes.append(Box.make((t0, t0 + rng.randint(0, 6)), x, (rng.choice((0, -1)), rng.choice((8, 9)))))
    return Scene.make((0, 8), (0, 8), boxes)


def test_free_intervals_leave_out_closed_walls():
    window = (Fraction(0), Fraction(8))
    assert free_intervals(window, []) == [window]
    assert free_intervals(window, [(2, 2), (5, 9)]) == [(0, 2), (2, 5)]
    assert free_intervals(window, [(-1, 3), (3, 4), (6, 6)]) == [(4, 6), (6, 8)]
    assert free_intervals(window, [(-3, -1), (0, 8)]) == []


def test_the_blocking_time_is_the_first_vertex_with_nothing_reachable():
    # a zero-width wall at x = 2 splits the window from t = 0 to 4; the
    # evader is held right of it until t = 1 and the right side shuts at t = 3
    wall, left, right = (2, 2), (0, 2), (2, 4)
    boxes = [Box.make((0, 4), wall, (0, 4)), Box.make((0, 1), left, (0, 4)), Box.make((3, 5), right, (0, 4))]
    scene = Scene.make((0, 4), (0, 4), boxes)
    assert reference_interval_decision(scene) == ("NO_EVASION", 3)
    assert verdict(scene) == "NO_EVASION"
    with pytest.raises(ValueError, match="full-height"):
        reference_interval_decision(Scene.make((0, 4), (0, 4), [Box.make((0, 1), left, (0, 3))]))


@pytest.mark.parametrize(
    "scene",
    [
        *(comb_scene(m) for m in (1, 5, 24, 40)),
        *(family(n) for family in (slalom_scene, jittered_slalom_scene) for n in (5, 100, 200, 1600)),
    ],
    ids=[
        *(f"comb-{m}" for m in (1, 5, 24, 40)),
        *(f"{f}-{n}" for f in ("slalom", "jittered-slalom") for n in (5, 100, 200, 1600)),
    ],
)
def test_the_families_agree_with_the_interval_reference(scene):
    assert verdict(scene) == reference_interval_decision(scene)[0] == "EVASION"


def test_random_full_height_draws_agree_with_the_interval_reference(base_seed):
    rng = Random(base_seed)
    counts = {"EVASION": 0, "NO_EVASION": 0}
    for _ in range(300):
        scene = full_height_draw(rng)
        expected, blocked_at = reference_interval_decision(scene)
        assert verdict(scene) == expected, scene
        counts[expected] += 1
        if blocked_at is not None:
            # the boxes born by the blocking time already block the evader,
            # and those born before it do not
            born_by = [b for b in scene.boxes if b.t[0] <= blocked_at]
            born_before = [b for b in born_by if b.t[0] < blocked_at]
            assert verdict(Scene.make(scene.window_x, scene.window_y, born_by)) == "NO_EVASION", scene
            assert verdict(Scene.make(scene.window_x, scene.window_y, born_before)) == "EVASION", scene
    assert min(counts.values()) > 50, counts
