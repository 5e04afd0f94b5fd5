import json
from array import array
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import evasion.certify
import evasion.geometry
import evasion.sheaf
from evasion import randgen
from evasion.certify import PathVerificationError, verify_evasion_path
from evasion.cli import main, path_to_jsonable, run_check, scene_from_jsonable, scene_to_jsonable
from evasion.cones import lp_positive_kernel
from evasion.geometry import (
    GeometryError,
    SceneValidationError,
    _rank_table,
    _ranks,
    build_sheaf,
    extract_path,
    scene_fibres,
    sheaf_from_fibres,
    validate_fibres,
    validate_scene,
)
from evasion.linalg import Matrix
from evasion.oracle import dp_section_exists
from evasion.randgen import (
    comb_scene,
    jittered_pulsing_scene,
    jittered_slalom_scene,
    pulsing_box_scene,
    random_candidate,
    random_scene,
    slalom_scene,
    staircase_scene,
)
from evasion.scene import Box, EvasionPath, PathSegment, Scene
from evasion.sheaf import assemble_coboundary, global_sections, validate_sheaf

from conftest import fixtures_with, load_fixture
from reference_geometry import (
    gap_components,
    locate,
    point_uncovered,
    reference_extract_path,
    reference_fibre,
    reference_locate,
    reference_validate,
    reference_verify_evasion_path,
)
from reference_nerve import nerve_betti, restriction_rank
from golden import (
    BLOCKED_COBOUNDARY,
    BLOCKED_COLUMNS,
    BLOCKED_ROWS,
    OPEN_COBOUNDARY,
    OPEN_COLUMNS,
    OPEN_ROWS,
    geometric_name,
    reorder_to_golden,
)


def fixture_scene(name: str) -> Scene:
    return scene_from_jsonable(load_fixture(name))


OPEN_SCENE = fixture_scene("crossing_open.json")
BLOCKED_SCENE = fixture_scene("crossing_blocked.json")


class TestValidateScene:
    def test_window_only_is_ok(self):
        assert validate_scene(Scene.make((0, 5), (0, 5))) is None

    def test_floating_island_is_disconnected(self):
        scene = Scene.make((0, 10), (0, 10), [Box.make((0, 1), (4, 5), (4, 5))])
        assert "disconnected" in validate_scene(scene)

    def test_crossing_scenes_are_valid(self):
        assert validate_scene(OPEN_SCENE) is None
        assert validate_scene(BLOCKED_SCENE) is None

    def test_boxes_touching_on_a_line_or_a_corner_connect(self):
        # a chain off the left frame; each link touches the earlier ones only
        # on its boundary: from the right, at corners, above and below
        links = [((0, 3), (4, 5)), ((3, 5), (4, 5)), ((5, 6), (5, 7)), ((4, 5), (7, 8)), ((4, 5), (8, 9)), ((3, 4), (2, 4))]
        boxes = [Box.make((0, 1), x, y) for x, y in links]
        assert validate_scene(Scene.make((0, 10), (0, 10), boxes)) is None
        loose = Box.make((0, 1), (Fraction(16, 3), Fraction(19, 3)), (5, 7))
        assert validate_scene(Scene.make((0, 10), (0, 10), boxes[:2] + [loose] + boxes[3:])) is not None

    def test_empty_window_is_an_input_error(self):
        with pytest.raises(ValueError):
            validate_scene(Scene.make((3, 3), (0, 5)))

    def test_a_reversed_box_interval_is_an_input_error(self):
        with pytest.raises(ValueError, match=r"interval \[2, 1\] is reversed"):
            Box.make((2, 1), (0, 1), (0, 1))

    def test_a_ring_clear_of_the_frame_splits_the_gap_and_is_disconnected(self):
        # four boxes, each touching the next, around the hole (4, 6) x (4, 6)
        ring = [((3, 7), (3, 4)), ((6, 7), (3, 7)), ((3, 7), (6, 7)), ((3, 4), (3, 7))]
        scene = Scene.make((0, 10), (0, 10), [Box.make((0, 1), x, y) for x, y in ring])
        assert len(gap_components(scene, 0).seeds) == 2
        assert validate_scene(scene) is not None

    @pytest.mark.parametrize("x, y", [((5, 5), (5, 5)), ((5, 5), (3, 7))], ids=["point", "zero-width segment"])
    def test_a_floating_degenerate_box_is_disconnected(self, x, y):
        scene = Scene.make((0, 10), (0, 10), [Box.make((0, 1), x, y)])
        assert len(gap_components(scene, 0).seeds) == 1
        assert validate_scene(scene) == "coverage is disconnected at t=0"

    def test_a_fully_covered_window_has_no_gap_and_is_connected(self):
        scene = Scene.make((0, 10), (0, 10), [Box.make((0, 1), (0, 10), (0, 10))])
        assert gap_components(scene, 0).seeds == ()
        assert validate_scene(scene) is None

    def test_a_box_touching_the_window_at_an_outside_corner_is_connected(self):
        scene = Scene.make((0, 10), (0, 10), [Box.make((0, 1), (10, 12), (-2, 0))])
        assert len(gap_components(scene, 0).seeds) == 1
        assert validate_scene(scene) is None


class TestCriticalTimes:
    def test_no_boxes(self):
        assert _rank_table(Scene.make((0, 5), (0, 5))).ts == ()

    def test_single_box(self):
        scene = Scene.make((0, 5), (0, 5), [Box.make((1, 2), (0, 5), (1, 2))])
        assert _rank_table(scene).ts == (Fraction(1), Fraction(2))

    def test_crossing_scene_has_exactly_four(self):
        assert _rank_table(OPEN_SCENE).ts == tuple(map(Fraction, (1, 2, 3, 4)))

    def test_irrelevant_box_contributes_nothing(self):
        scene = Scene.make((0, 5), (0, 5), [Box.make((1, 2), (7, 9), (1, 2))])
        assert _rank_table(scene).ts == ()


class TestGapComponents:
    def test_crossing_component_counts_over_time(self):
        counts = {
            Fraction(1, 2): 1,
            Fraction(1): 1,
            Fraction(3, 2): 2,
            Fraction(2): 3,
            Fraction(5, 2): 3,
            Fraction(3): 3,
            Fraction(7, 2): 2,
            Fraction(4): 1,
            Fraction(5): 1,
        }
        for t, expected in counts.items():
            assert len(gap_components(OPEN_SCENE, t).components) == expected

    def test_fully_covered_window_has_no_components(self):
        scene = fixture_scene("blackout.json")
        assert gap_components(scene, Fraction(3, 2)).components == ()

    def test_components_are_ordered_bottom_up(self):
        fibre = gap_components(OPEN_SCENE, Fraction(5, 2))
        labels, anchors, _, _ = zip(*fibre.components)
        assert list(anchors) == sorted(anchors)
        assert labels == ("g0", "g1", "g2")

    def test_degenerate_wall_separates(self):
        # zero-width vertical wall splits the window into two components
        scene = Scene.make((0, 4), (0, 4), [Box.make((0, 1), (2, 2), (0, 4))])
        assert len(gap_components(scene, Fraction(1, 2)).components) == 2
        assert len(gap_components(scene, Fraction(2)).components) == 1

    def test_interior_points_are_uncovered(self):
        for t in (Fraction(1), Fraction(5, 2), Fraction(4)):
            fibre = gap_components(OPEN_SCENE, t)
            for _, _, interior_point, _ in fibre.components:
                assert point_uncovered(OPEN_SCENE, t, interior_point)


class TestBuildSheaf:
    def test_crossing_stalk_ranks(self):
        sheaf = build_sheaf(OPEN_SCENE)
        assert [len(c.labels) for c in sheaf.edge_stalks] == [1, 2, 3, 2, 1]
        assert [len(c.labels) for c in sheaf.vertex_stalks] == [1, 3, 3, 1]

    def test_open_crossing_reproduces_the_golden_matrix(self):
        sections = global_sections(build_sheaf(OPEN_SCENE))
        golden = reorder_to_golden(sections, OPEN_ROWS, OPEN_COLUMNS)
        assert golden == OPEN_COBOUNDARY

    def test_blocked_crossing_reproduces_the_golden_matrix(self):
        sections = global_sections(build_sheaf(BLOCKED_SCENE))
        golden = reorder_to_golden(sections, BLOCKED_ROWS, BLOCKED_COLUMNS)
        assert golden == BLOCKED_COBOUNDARY

    def test_empty_scene_is_feasible_rank_one(self):
        scene = Scene.make((0, 9), (0, 9))
        sheaf = build_sheaf(scene)
        assert [len(c.labels) for c in sheaf.vertex_stalks] == [1]
        assert [len(c.labels) for c in sheaf.edge_stalks] == [1, 1]
        assert sheaf.maps == (((0,), (0,)),)  # the identity into both edges
        assert global_sections(sheaf).decision.feasible

    def test_invalid_scene_propagates(self):
        scene = Scene.make((0, 10), (0, 10), [Box.make((0, 1), (4, 5), (4, 5))])
        with pytest.raises(SceneValidationError):
            build_sheaf(scene)

    def test_the_fibres_are_built_once(self, monkeypatch):
        built = []
        fibres = evasion.geometry.scene_fibres
        monkeypatch.setattr(evasion.geometry, "scene_fibres", lambda scene: built.append(scene) or fibres(scene))
        build_sheaf(OPEN_SCENE)
        assert built == [OPEN_SCENE]

    def test_built_sheaves_validate(self):
        for scene in (OPEN_SCENE, BLOCKED_SCENE):
            assert validate_sheaf(build_sheaf(scene)) == ()

    def test_a_component_that_does_not_persist_is_named_at_its_first_incidence(self):
        # fibres of one rank table, forged into timelines: a wall at x = 2
        # splits the window into g0 and g1, and a box on either half of it
        # covers the face of the component there
        scene = Scene.make(
            (0, 4),
            (0, 4),
            [Box.make((0, 1), (2, 2), (0, 4)), Box.make((2, 3), (2, 4), (0, 4)), Box.make((4, 5), (0, 2), (0, 4))],
        )
        _, vertex_fibres, edge_fibres = scene_fibres(scene)
        split, right_covered, left_covered = vertex_fibres[0], vertex_fibres[2], vertex_fibres[4]
        open_window = edge_fibres[0]
        assert [len(f.seeds) for f in (split, right_covered, left_covered, open_window)] == [2, 1, 1, 1]
        times = (Fraction(1, 2), Fraction(3))
        cases = [
            ((right_covered, open_window, open_window), "component g1 at t=1/2 does not persist to the left edge"),
            ((left_covered, open_window, open_window), "component g0 at t=1/2 does not persist to the left edge"),
            # the right edge of the first vertex comes before the left edge of the second
            ((open_window, right_covered, right_covered), "component g1 at t=1/2 does not persist to the right edge"),
            ((open_window, open_window, left_covered), "component g0 at t=3 does not persist to the right edge"),
        ]
        for edges, message in cases:
            with pytest.raises(GeometryError) as raised:
                sheaf_from_fibres((times, (split, split), edges))
            assert str(raised.value) == message


# chains forged on the open crossing, whose sweep chain is
# e1.g0 v1.g0 e2.g1 v2.g1 e3.g1 v3.g1 e4.g0 v4.g0 e5.g0
FORGED_CHAINS = [
    (0, 0, 1, 0, 1, 1, 0, 0, 0),  # v2 on the other strand, which misses e2.g1
    (0, 0, 1, 0, 1, 1, 1, 0, 0, 0),  # two generators at v2
    (0, 0, 1, 1, 1, 0, 0, 0),  # nothing at v2
    (0, 0, 1, 1, 1, 1, 0, 0, 1),  # e5 names a component its one-component fibre lacks
    (0, 0, 1, 1, 1, 1, 0, 1, 0),  # v4 names a component its one-component fibre lacks
]


class TestExtractPath:
    def test_open_crossing_path_follows_the_expected_chain(self):
        sections = global_sections(build_sheaf(OPEN_SCENE))
        path = extract_path(OPEN_SCENE, scene_fibres(OPEN_SCENE), sections)
        named = {
            cell: geometric_name(cell, lab).split(".")[1]
            for cell, lab in path.chain
            if cell in ("v1", "v2", "v3", "v4", "e2", "e3", "e4")
        }
        assert named == {"v1": "t", "e2": "t", "v2": "m", "e3": "m", "v3": "m", "e4": "b", "v4": "b"}
        verify_evasion_path(OPEN_SCENE, path)

    def test_empty_scene_path_is_constant_at_the_window_centre(self):
        scene = Scene.make((0, 9), (0, 9))
        path = extract_path(scene, scene_fibres(scene), global_sections(build_sheaf(scene)))
        (seg,) = path.segments
        assert seg.start is None and seg.end is None
        assert seg.point == (Fraction(9, 2), Fraction(9, 2))

    def test_two_gap_corridor_path_stays_in_the_corridor(self):
        scene = fixture_scene("two_gap_corridor.json")
        sections = global_sections(build_sheaf(scene))
        assert sections.decision.feasible
        path = extract_path(scene, scene_fibres(scene), sections)
        for seg in path.segments:
            covers_wall_epoch = (seg.start is None or seg.start < 3) and (seg.end is None or seg.end > 1)
            if covers_wall_epoch:
                assert seg.point[1] < 4
        for seg in path.segments:
            if seg.start is not None:
                t = seg.start
            elif seg.end is not None:
                t = seg.end - 1
            else:
                t = Fraction(2)  # single constant segment: probe inside the wall epoch
            assert point_uncovered(scene, t, seg.point)

    def test_interior_points_are_worked_out_once_per_rank_rectangle(self, monkeypatch):
        # distinct vertex fibres whose chosen components have one seed rectangle share its point
        rects = []
        interior_point = evasion.geometry.GapFibre.interior_point

        def recorded(fibre, c):
            k, l = fibre.seeds[c]
            rects.append((fibre.xr[k], fibre.xr[k + 1], fibre.yr[l], fibre.yr[l + 1]))
            return interior_point(fibre, c)

        monkeypatch.setattr(evasion.geometry.GapFibre, "interior_point", recorded)
        rng, shared = Random(7), 0
        for _ in range(100):
            scene = random_scene(rng, 10)
            sections = global_sections(build_sheaf(scene))
            if sections.decision.feasible:
                fibres = scene_fibres(scene)
                rects.clear()
                extract_path(scene, fibres, sections)
                assert len(rects) == len(set(rects))
                chosen = zip(fibres[1], sections.chain[1::2])
                shared += len({(id(vf), c) for vf, c in chosen}) - len(rects)
        assert shared > 0

    def test_each_fibre_transition_is_found_once(self, monkeypatch):
        # pulsing n=400's 801 cells share two fibres and have 4 distinct transitions;
        # the per-cell reference routes every edge, 401 times
        scene = pulsing_box_scene(400)
        fibres, sections, _, _ = run_check(scene)
        _, vertex_fibres, edge_fibres = fibres
        vkeys = list(zip(map(id, vertex_fibres), sections.chain[1::2]))
        transitions = set(zip([None, *vkeys], map(id, edge_fibres), sections.chain[0::2], [*vkeys, None]))
        routes = []
        route = evasion.geometry._route

        def recorded(fibre, c, f0, f1):
            routes.append((id(fibre), c, f0, f1))
            return route(fibre, c, f0, f1)

        monkeypatch.setattr(evasion.geometry, "_route", recorded)
        path = extract_path(scene, fibres, sections)
        assert len(routes) == len(transitions) == 4
        assert path == run_check(scene)[2]

    def test_a_route_between_faces_that_do_not_meet_is_refused(self):
        # relabel component 1 of a two-component fibre as 0: both ends read 0, but no face path joins them
        fibre = next(f for f in scene_fibres(fixture_scene("two_gap_corridor.json"))[1] if len(f.seeds) == 2)
        owner = array("i", [0 if c == 1 else c for c in fibre.owner])
        with pytest.raises(GeometryError, match="not mutually reachable"):
            evasion.geometry._route(replace(fibre, owner=owner), 0, *fibre.seed_faces([(fibre, 0), (fibre, 1)]))

    def test_infeasible_decision_is_rejected(self):
        sections = global_sections(build_sheaf(BLOCKED_SCENE))
        with pytest.raises(ValueError):
            extract_path(BLOCKED_SCENE, scene_fibres(BLOCKED_SCENE), sections)

    @pytest.mark.parametrize("support", FORGED_CHAINS)
    def test_support_that_is_not_a_single_chain_is_rejected(self, support):
        sections = global_sections(build_sheaf(OPEN_SCENE))
        assert sections.chain == (0, 0, 1, 1, 1, 1, 0, 0, 0)
        forged = replace(sections, chain=support)
        with pytest.raises(GeometryError, match="one gap component per cell|expected gap component"):
            extract_path(OPEN_SCENE, scene_fibres(OPEN_SCENE), forged)


def _extracted(extract, scene, fibres, sections):
    """The path file of one extraction, or the type and message of its error."""
    try:
        return path_to_jsonable(extract(scene, fibres, sections))
    except (GeometryError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _decided(scene):
    """(scene, fibres, sections) of a valid scene, or None."""
    fibres = scene_fibres(scene)
    return (scene, fibres, global_sections(sheaf_from_fibres(fibres))) if validate_fibres(fibres) is None else None


def test_extract_path_matches_the_per_cell_reference(base_seed):
    scenes = [fixture_scene(name) for name in fixtures_with("window")]
    cases = [case for case in map(_decided, [*scenes, pulsing_box_scene(40), comb_scene(6), slalom_scene(5)]) if case]
    rng, drawn = Random(base_seed), 0
    while drawn < 300:
        case = _decided(random_candidate(rng, 10))
        if case:
            cases.append(case)
            drawn += 1
    open_sections = global_sections(build_sheaf(OPEN_SCENE))
    cases += [(OPEN_SCENE, scene_fibres(OPEN_SCENE), replace(open_sections, chain=c)) for c in FORGED_CHAINS]
    outcomes = Counter()
    for case in cases:
        got = _extracted(extract_path, *case)
        assert got == _extracted(reference_extract_path, *case)
        outcomes[got[0] if isinstance(got, tuple) else "hops" if len(got["segments"]) > 1 else "held"] += 1
    assert outcomes["hops"] and outcomes["held"] and outcomes["ValueError"]
    assert outcomes["GeometryError"] == len(FORGED_CHAINS)


def _path(*segments) -> EvasionPath:
    return EvasionPath(
        tuple(PathSegment(lo, hi, (Fraction(x), Fraction(y))) for lo, hi, (x, y) in segments),
        (),
    )


def _verdict(verify, scene: Scene, path: EvasionPath) -> str | None:
    """The message of the verifier's refusal, or None if it accepts."""
    try:
        verify(scene, path)
    except PathVerificationError as exc:
        return str(exc)
    return None


def verify_both(scene: Scene, path: EvasionPath) -> None:
    """`verify_evasion_path`, once the reference has given the same verdict
    and the same message."""
    assert _verdict(verify_evasion_path, scene, path) == _verdict(reference_verify_evasion_path, scene, path)
    verify_evasion_path(scene, path)


def one_rectangle(*spans, x=(4, 6), y=(4, 6)) -> list[Box]:
    """Boxes over the given time spans on one spatial rectangle, each built
    from its own coordinate objects."""
    return [Box.make(span, x, y) for span in spans]


class TestVerifyEvasionPath:
    """Each rejected path passes a check that probes three times per held
    segment and three points per jump. Every case is run through the
    reference verifier too, which must give the same verdict and message."""

    def test_box_alive_inside_a_held_segment(self):
        scene = Scene.make((0, 10), (0, 10), [Box.make((2, 3), (4, 6), (4, 6))])
        path = _path((None, 0, (1, 1)), (0, 10, (5, 5)), (10, None, (1, 1)))
        with pytest.raises(PathVerificationError, match="covered"):
            verify_both(scene, path)

    def test_jump_through_a_zero_width_wall(self):
        scene = Scene.make((0, 10), (0, 10), [Box.make((4, 6), (3, 3), (0, 10))])
        path = _path((None, 5, (1, 5)), (5, None, (9, 5)))
        with pytest.raises(PathVerificationError, match="jump"):
            verify_both(scene, path)

    def test_blackout_over_the_unbounded_tail(self):
        scene = Scene.make((0, 10), (0, 10), [Box.make((50, 60), (0, 10), (0, 10))])
        path = _path((None, 1, (2, 2)), (1, None, (5, 5)))
        with pytest.raises(PathVerificationError, match="covered"):
            verify_both(scene, path)

    def test_only_the_middle_box_by_birth_meets_the_span(self):
        # born 0, 3/2 and 2 on one rectangle; the first dies at 1 and the last
        # at 5/2, before the span [3, 4], so only the middle box, alive until
        # 5, shows the contact
        boxes = one_rectangle((2, Fraction(5, 2)), (0, 1), (Fraction(3, 2), 5))
        scene = Scene.make((0, 10), (0, 10), boxes)
        assert len(scene.rectangles[0]) == 1
        path = _path((None, 3, (1, 1)), (3, 4, (5, 5)), (4, None, (1, 1)))
        with pytest.raises(PathVerificationError, match=r"covered by a box alive on \[3/2, 5\]"):
            verify_both(scene, path)

    def test_a_rectangle_whose_boxes_all_die_before_the_span(self):
        scene = Scene.make((0, 10), (0, 10), one_rectangle((1, 2), (0, 1), (Fraction(1, 2), Fraction(3, 2))))
        assert len(scene.rectangles[0]) == 1
        verify_both(scene, _path((None, Fraction(5, 2), (1, 1)), (Fraction(5, 2), None, (5, 5))))

    def test_an_instantaneous_box_alive_exactly_at_a_hop_time(self):
        boxes = one_rectangle((0, 1), (3, 3), (5, 6), x=(4, 6), y=(0, 10))
        scene = Scene.make((0, 10), (0, 10), boxes)
        assert len(scene.rectangles[0]) == 1
        with pytest.raises(PathVerificationError, match="jump from .* at t=3 is covered"):
            verify_both(scene, _path((None, 3, (1, 5)), (3, None, (9, 5))))
        # a hop just after the instant passes
        verify_both(scene, _path((None, Fraction(7, 2), (1, 5)), (Fraction(7, 2), None, (9, 5))))

    @pytest.mark.parametrize(
        "segments, message",
        [
            ([(0, None, (5, 5))], "path must cover the whole timeline"),
            ([(None, 0, (5, 5))], "path must cover the whole timeline"),
            ([], "path must cover the whole timeline"),
            ([(None, 1, (5, 5)), (2, None, (5, 5))], "consecutive segments must share their boundary time"),
            ([(None, 5, (5, 5)), (5, 3, (5, 5)), (3, None, (5, 5))], "segment with reversed time interval"),
            ([(None, None, (0, 5))], "is not strictly inside the window"),
            ([(None, 1, (5, 5)), (1, None, (5, 10))], "is not strictly inside the window"),
        ],
        ids=["bounded-start", "bounded-end", "no-segments", "gap", "reversed", "on-x-frame", "on-y-frame"],
    )
    def test_a_path_of_the_wrong_shape_is_refused(self, segments, message):
        with pytest.raises(PathVerificationError, match=message):
            verify_both(Scene.make((0, 10), (0, 10)), _path(*segments))

    def test_a_jump_between_two_lives_of_one_rectangle(self):
        # the rectangle's first box is listed on the first segment only; the
        # second one, alive at the hop, must still list the rectangle on the jump
        boxes = one_rectangle((Fraction(1, 2), 1), (Fraction(3, 2), 3), x=(4, 6), y=(0, 10))
        scene = Scene.make((0, 10), (0, 10), boxes)
        assert len(scene.rectangles[0]) == 1
        with pytest.raises(PathVerificationError, match="jump from .* at t=2 is covered"):
            verify_both(scene, _path((None, 2, (1, 5)), (2, None, (9, 5))))

    def test_a_covered_segment_before_a_reversed_one_is_named(self):
        # the box is alive at t=4 only, inside the first segment's span
        scene = Scene.make((0, 10), (0, 10), [Box.make((4, 4), (4, 6), (4, 6))])
        path = _path((None, 5, (5, 5)), (5, 3, (1, 1)), (3, None, (1, 1)))
        with pytest.raises(PathVerificationError, match=r"path point .* is covered by a box alive on \[4, 4\]"):
            verify_both(scene, path)

    @pytest.mark.parametrize(
        "box, message",
        [
            (((3, 3), (4, 6), (0, 2)), r"path point .* is covered by a box alive on \[3, 3\]"),
            (((1, 3), (2, 3), (2, 4)), "jump from .* at t=3 is covered"),
            (((3, 5), (2, 3), (2, 4)), "jump from .* at t=3 is covered"),
            (((3, 3), (7, 8), (7, 9)), None),
            (((1, Fraction(5, 2)), (4, 6), (0, 2)), None),
        ],
        ids=["held-at-the-instant", "first-jump-ending", "first-jump-starting", "clear", "dead-before"],
    )
    def test_a_zero_length_segment(self, box, message):
        # hops at t=3 twice: from (1, 5) to (5, 1) and on to (9, 5)
        scene = Scene.make((0, 10), (0, 10), [Box.make(*box)])
        path = _path((None, 3, (1, 5)), (3, 3, (5, 1)), (3, None, (9, 5)))
        if message is None:
            verify_both(scene, path)
        else:
            with pytest.raises(PathVerificationError, match=message):
                verify_both(scene, path)

    @pytest.mark.parametrize(
        "point",
        [(4, 5), (6, 5), (5, 4), (5, 6), (4, 4)],
        ids=["left-edge", "right-edge", "bottom-edge", "top-edge", "corner"],
    )
    def test_a_held_point_on_a_box_edge_is_covered(self, point):
        # boxes are closed: a point on the boundary touches coverage
        scene = Scene.make((0, 10), (0, 10), [Box.make((2, 3), (4, 6), (4, 6))])
        with pytest.raises(PathVerificationError, match=r"path point .* is covered by a box alive on \[2, 3\]"):
            verify_both(scene, _path((None, None, point)))

    @pytest.mark.parametrize(
        "start, end",
        [((4, 1), (4, 9)), ((6, 9), (6, 1)), ((1, 4), (9, 4)), ((9, 6), (1, 6))],
        ids=["vertical-left-edge", "vertical-right-edge", "horizontal-bottom-edge", "horizontal-top-edge"],
    )
    def test_a_jump_along_a_box_edge_is_covered(self, start, end):
        scene = Scene.make((0, 10), (0, 10), [Box.make((4, 6), (4, 6), (4, 6))])
        with pytest.raises(PathVerificationError, match="jump from .* at t=5 is covered"):
            verify_both(scene, _path((None, 5, start), (5, None, end)))

    def test_a_jump_touching_a_box_at_one_corner_is_covered(self):
        # the jump runs along x + y = 8, which meets the box at (4, 4) alone
        scene = Scene.make((0, 10), (0, 10), [Box.make((4, 6), (4, 6), (4, 6))])
        with pytest.raises(PathVerificationError, match="jump from .* at t=5 is covered"):
            verify_both(scene, _path((None, 5, (2, 6)), (5, None, (6, 2))))

    def test_a_zero_length_segment_before_a_covered_one(self):
        # the box lives after the instant, on the last segment alone
        scene = Scene.make((0, 10), (0, 10), [Box.make((5, 6), (8, 10), (4, 6))])
        path = _path((None, 3, (1, 5)), (3, 3, (5, 1)), (3, None, (9, 5)))
        with pytest.raises(PathVerificationError, match=r"path point .* is covered by a box alive on \[5, 6\]"):
            verify_both(scene, path)

    def test_a_zero_length_segment_before_a_point_outside_the_window(self):
        path = _path((None, 3, (1, 5)), (3, 3, (5, 1)), (3, None, (9, 10)))
        with pytest.raises(PathVerificationError, match="is not strictly inside the window"):
            verify_both(Scene.make((0, 10), (0, 10)), path)

    def test_a_rectangle_with_two_overlapping_lives_is_tested_once_on_each_segment_and_jump(self, monkeypatch):
        # both lives start before the first hop and the second outlives the
        # first by one segment and one jump, where it alone lists the rectangle
        scene = Scene.make((0, 10), (0, 10), one_rectangle((0, 3), (1, 5), x=(11, 12), y=(0, 10)))
        path = _path((None, 1, (5, 5)), (1, 2, (5, 5)), (2, 3, (5, 5)), (3, 4, (5, 5)), (4, None, (5, 5)))
        verify_both(scene, path)
        assert rectangle_tests(monkeypatch, scene, path) == len(path.segments) + len(path.segments) - 1

    def test_near_misses_are_accepted(self):
        # the jump passes above a wall stub, beside a box, and across a wall
        # that is alive only later; the held points are clear of everything
        scene = Scene.make(
            (0, 10),
            (0, 10),
            [
                Box.make((4, 6), (3, 3), (0, 4)),
                Box.make((0, 9), (5, 7), (6, 10)),
                Box.make((6, 7), (8, 8), (0, 10)),
                Box.make((5, 5), (1, 1), (1, 1)),
            ],
        )
        path = _path((None, 5, (1, 5)), (5, None, (9, 5)))
        verify_both(scene, path)


def separate(scene: Scene) -> Scene:
    """The scene with fresh coordinate objects in every box, so that no two
    boxes share one, as in a scene built box by box."""
    return replace(scene, boxes=tuple(Box.make(b.t, b.x, b.y) for b in scene.boxes))


def widened(scene: Scene) -> Scene:
    """The scene with box i's x1 grown by 1/(1000+i), so that every box is
    a spatial rectangle of its own."""
    boxes = (Box(b.t, (b.x[0], b.x[1] + Fraction(1, 1000 + i)), b.y) for i, b in enumerate(scene.boxes))
    return replace(scene, boxes=tuple(boxes))


def mutated(path: EvasionPath, scene: Scene, rng: Random) -> list[EvasionPath]:
    """Paths near `path`: per box, a held point moved to the box's centre and
    a hop time moved onto the box's birth or death; and one segment dropped,
    its neighbour taking its span over."""
    segs = list(path.segments)
    out = []
    for box in scene.boxes:
        i = rng.randrange(len(segs))
        centre = ((box.x[0] + box.x[1]) / 2, (box.y[0] + box.y[1]) / 2)
        out.append([*segs[:i], replace(segs[i], point=centre), *segs[i + 1 :]])
        if len(segs) > 1:
            j, t = rng.randrange(len(segs) - 1), rng.choice(box.t)
            out.append([*segs[:j], replace(segs[j], end=t), replace(segs[j + 1], start=t), *segs[j + 2 :]])
    if len(segs) > 1:
        i = rng.randrange(len(segs))
        rest = segs[:i] + segs[i + 1 :]
        if i:
            rest[i - 1] = replace(rest[i - 1], end=segs[i].end)
        else:
            rest[0] = replace(rest[0], start=None)
        out.append(rest)
    return [EvasionPath(tuple(segments), path.chain) for segments in out]


def echoed(scene: Scene, rng: Random) -> Scene:
    """The scene plus, for each box, two boxes on its rectangle born at
    shifted times and living longer or shorter, so that rectangles hold
    several boxes in no order of birth or death."""
    shifts = (-3, -1, Fraction(-1, 2), Fraction(1, 3), 2, 5)
    echoes = [
        Box((b.t[0] + d, max(b.t[0], b.t[1] + rng.choice((-2, 0, 3))) + d), b.x, b.y)
        for b in scene.boxes
        for d in rng.sample(shifts, 2)
    ]
    boxes = [*scene.boxes, *echoes]
    rng.shuffle(boxes)
    return replace(scene, boxes=tuple(boxes))


def test_verify_evasion_path_matches_the_direct_reference(base_seed):
    # extracted paths and their mutations, each on the scene with no
    # coordinate object shared, as the reader gives it back (boxes read from
    # the same literals share them), with every rectangle holding echoes of
    # its box at other times and with every box widened to a rectangle of
    # its own
    rng, drawn = Random(base_seed), 0
    cases = [(fixture_scene(name), run_check(fixture_scene(name))[2]) for name in fixtures_with("window")]
    cases = [case for case in cases if case[1] is not None]
    cases += [(scene, run_check(scene)[2]) for scene in (jittered_pulsing_scene(40), jittered_slalom_scene(10))]
    while drawn < 300:
        scene = random_scene(rng, 10)
        path = run_check(scene)[2]
        if path is not None:
            cases.append((scene, path))
            drawn += 1
    outcomes, grouped = Counter(), 0
    for n, (scene, path) in enumerate(cases):
        read = read_back(scene)
        grouped += len(read.rectangles[0]) < len(read.boxes)
        # the scene and the path mapped by one `deep` map, its literals of up to 80 digits
        d = 1 + n % 40
        deep_scene, f = randgen.deep(scene, d), randgen.deep_map(d)
        for candidate in [path, *mutated(path, scene, rng)]:
            for variant in (separate(scene), read, echoed(scene, rng), widened(scene)):
                got = _verdict(verify_evasion_path, variant, candidate)
                assert got == _verdict(reference_verify_evasion_path, variant, candidate)
                outcomes["accepted" if got is None else got.split()[0] + " " + got.split()[1]] += 1
            deep_path = deep_mapped(candidate, f)
            got = _verdict(verify_evasion_path, deep_scene, deep_path)
            assert got == _verdict(reference_verify_evasion_path, deep_scene, deep_path)
            outcomes["deep " + ("accepted" if got is None else got.split()[0])] += 1
    assert grouped
    assert outcomes["accepted"] > 1000 and outcomes["path point"] > 1000 and outcomes["jump from"] > 50
    assert outcomes["segment with"] and not outcomes["consecutive segments"]
    assert outcomes["deep accepted"] > 500 and outcomes["deep path"] > 500 and outcomes["deep jump"] > 20
    assert outcomes["deep segment"] and not outcomes["deep consecutive"]


def deep_mapped(path: EvasionPath, f) -> EvasionPath:
    """The path with its hop times and points mapped by the increasing map f."""

    def mapped(t):
        return None if t is None else f(t)

    segments = (PathSegment(mapped(s.start), mapped(s.end), (f(s.point[0]), f(s.point[1]))) for s in path.segments)
    return EvasionPath(tuple(segments), path.chain)


@pytest.mark.parametrize(
    "family, sizes",
    [(jittered_pulsing_scene, (200, 400)), (jittered_slalom_scene, (50, 100))],
    ids=["jittered-pulsing", "jittered-slalom"],
)
def test_verify_tests_each_box_on_the_segments_it_meets(monkeypatch, family, sizes):
    # a growth gate on work, not time: at most two rectangle tests per box
    # and per segment, where testing every rectangle on every segment costs
    # boxes x segments
    for n in sizes:
        scene = family(n)
        path = run_check(scene)[2]
        assert len(path.segments) >= len(scene.boxes) // 2
        assert 0 < rectangle_tests(monkeypatch, scene, path) <= 2 * (len(scene.boxes) + len(path.segments))


def rectangle_tests(monkeypatch, scene: Scene, path: EvasionPath) -> int:
    """The number of point-in-rectangle and jump-meets-rectangle tests
    `verify_evasion_path` makes to accept the path."""
    tests = Counter()
    contains, meets = Box.contains, evasion.certify._segment_meets_box
    monkeypatch.setattr(Box, "contains", lambda box, p: tests.update(["contains"]) or contains(box, p))
    monkeypatch.setattr(
        evasion.certify, "_segment_meets_box", lambda p, q, box: tests.update(["meets"]) or meets(p, q, box)
    )
    verify_evasion_path(scene, path)
    monkeypatch.undo()
    return tests.total()


def read_back(scene: Scene) -> Scene:
    """The scene as the reader gives it back, so that boxes read from the
    same literals share their coordinate objects."""
    return scene_from_jsonable(scene_to_jsonable(scene))


def beside_the_window(scene: Scene, *lives) -> Scene:
    """The scene plus one box per life on one rectangle right of its window,
    which no gap, path or fibre sees."""
    (_, x1), y = scene.window_x, scene.window_y
    return replace(scene, boxes=scene.boxes + tuple(Box.make(t, (x1 + 1, x1 + 2), y) for t in lives))


# pulsing's 200 boxes are one rectangle, comb's 48 are 24 and slalom's 200
# are 2; slalom's overlapping twin adds a rectangle whose two lives share
# most of their segments, each listed once; the gates run on each scene as
# built in Python and as read back
GROUPED = pytest.mark.parametrize(
    "scene, rectangles",
    [
        (pulsing_box_scene(400), 1),
        (comb_scene(24), 24),
        (slalom_scene(100), 2),
        (beside_the_window(slalom_scene(100), (0, 150), (10, 160)), 3),
    ],
    ids=["pulsing", "comb", "slalom", "slalom-overlapping-lives"],
)


@GROUPED
def test_verify_tests_each_rectangle_on_the_segments_it_meets(monkeypatch, scene, rectangles):
    # work gates on the rectangle grouping: testing each box rather than
    # each rectangle on pulsing's one segment costs 200 tests, not 1
    for variant in (scene, read_back(scene)):
        assert len(variant.rectangles[0]) == rectangles
        path = run_check(variant)[2]
        assert 0 < rectangle_tests(monkeypatch, variant, path) <= 2 * (rectangles + len(path.segments))


@GROUPED
def test_the_rank_table_ranks_x_and_y_over_one_box_per_rectangle(monkeypatch, scene, rectangles):
    ranked, ranks = [], evasion.geometry._ranks
    monkeypatch.setattr(evasion.geometry, "_ranks", lambda values: ranked.append(len(values)) or ranks(values))
    for variant in (scene, read_back(scene)):
        ranked.clear()
        _rank_table(variant)
        x, y, _ = ranked  # the t axis ranks the times of every relevant box
        assert max(x, y) <= 2 + 2 * rectangles


def test_the_rank_table_does_not_depend_on_shared_coordinates(base_seed):
    scenes = [fixture_scene(name) for name in fixtures_with("window")]
    scenes += [pulsing_box_scene(40), randgen.blocked_scene(40), comb_scene(6), slalom_scene(5)]
    rng = Random(base_seed)
    scenes += [random_candidate(rng, 10) for _ in range(300)]
    grouped = 0
    for scene in scenes:
        read = read_back(scene)
        grouped += len(read.rectangles[0]) < len(read.boxes)
        assert separate(scene).rectangles == read.rectangles == scene.rectangles
        assert _rank_table(separate(scene)) == _rank_table(read) == _rank_table(scene)
    assert grouped > 10


class TestSceneInvariances:
    def test_translation_and_time_shift_invariance(self):
        shifted = OPEN_SCENE.shifted(Fraction(7, 2), -3, Fraction(5, 2))
        base = global_sections(build_sheaf(OPEN_SCENE))
        moved = global_sections(build_sheaf(shifted))
        assert moved.decision.feasible == base.decision.feasible
        base_support = {
            (c, l) for (c, l), v in zip(base.column_labels, base.decision.witness) if v
        }
        moved_support = {
            (c, l) for (c, l), v in zip(moved.column_labels, moved.decision.witness) if v
        }
        assert moved_support == base_support

    def test_product_structure_within_an_edge(self):
        # two samples inside the same open edge see identical component data
        for t1, t2 in ((Fraction(9, 4), Fraction(11, 4)), (Fraction(13, 12), Fraction(23, 12))):
            f1, f2 = gap_components(OPEN_SCENE, t1), gap_components(OPEN_SCENE, t2)
            for (label1, anchor1, _, faces1), (label2, anchor2, _, faces2) in zip(
                f1.components, f2.components, strict=True
            ):
                assert (label1, anchor1, faces1) == (label2, anchor2, faces2)


class TestFibreSharing:
    def test_samples_with_one_alive_key_share_one_fibre(self):
        # box 0 is alive on [1, 2] and box 1 on [3, 4]
        times, vertex_fibres, edge_fibres = scene_fibres(pulsing_box_scene(4))
        assert times == (1, 2, 3, 4)
        v1, v2 = vertex_fibres[:2]
        assert v1 is edge_fibres[1] is v2
        assert edge_fibres[0] is edge_fibres[2] is edge_fibres[4]

    @pytest.mark.parametrize(
        "scene, distinct",
        [(pulsing_box_scene(400), 2), (comb_scene(24), 26)],
        ids=["pulsing", "comb"],
    )
    def test_one_fibre_per_distinct_alive_geometry(self, scene, distinct):
        # pulsing's boxes share one rectangle, so the stub or nothing is
        # alive; comb's walls are two boxes each, and the alive wall sets
        # are all walls, all but one of the 24, or none
        _, vertex_fibres, edge_fibres = scene_fibres(scene)
        assert len({id(f) for f in (*vertex_fibres, *edge_fibres)}) == distinct

    @pytest.mark.parametrize(
        "scene, distinct",
        [(pulsing_box_scene(400), 2), (comb_scene(24), 26)],
        ids=["pulsing", "comb"],
    )
    def test_one_restriction_per_distinct_fibre_pair(self, scene, distinct):
        # 800 and 98 incidences, each an image tuple in sheaf.maps
        _, vertex_fibres, edge_fibres = scene_fibres(scene)
        pairs = {(id(vf), id(edge_fibres[i + side])) for i, vf in enumerate(vertex_fibres) for side in (0, 1)}
        sheaf = build_sheaf(scene)
        assert len({id(image) for images in sheaf.maps for image in images}) == len(pairs) == distinct

    @pytest.mark.parametrize(
        "scene",
        [
            pytest.param(lambda: pulsing_box_scene(400), id="pulsing"),
            pytest.param(lambda: randgen.blocked_scene(400), id="blocked"),
            pytest.param(lambda: comb_scene(24), id="comb"),
            *(pytest.param(lambda name=name: fixture_scene(name), id=name) for name in fixtures_with("window")),
        ],
    )
    def test_a_check_builds_no_matrix(self, scene, monkeypatch):
        # a scene sheaf is decided on its integer generator maps: no restriction
        # matrix is built or read back, and the sheaf is valid by construction
        built, post_init = [], Matrix.__post_init__

        def refuse(*args):
            raise AssertionError("a scene sheaf is decided on its generator maps as they are built")

        monkeypatch.setattr(Matrix, "__post_init__", lambda M: built.append(M) or post_init(M))
        monkeypatch.setattr(evasion.sheaf, "generator_maps", refuse)
        monkeypatch.setattr(evasion.sheaf, "validate_sheaf", refuse)
        _, sections, _, _ = run_check(scene())
        assert sections.decision is not None and built == []

    @pytest.mark.parametrize("scene", [pulsing_box_scene(40), comb_scene(8)], ids=["pulsing", "comb"])
    def test_the_coboundary_is_the_only_matrix_assembly_builds(self, scene, monkeypatch):
        # validation and the coboundary read the image tuples as generator images,
        # so no restriction matrix is built on the way
        built, post_init = [], Matrix.__post_init__
        monkeypatch.setattr(Matrix, "__post_init__", lambda M: built.append(M) or post_init(M))
        cob = assemble_coboundary(build_sheaf(scene)).coboundary
        assert built == [cob]

    def test_deciding_a_scene_sheaf_compares_no_fractions(self, monkeypatch):
        # the rank table's times are sorted and distinct, so the sheaf checks no order
        fibres = scene_fibres(randgen.blocked_scene(400))
        calls, richcmp = [], Fraction._richcmp
        monkeypatch.setattr(Fraction, "_richcmp", lambda a, b, op: calls.append(op) or richcmp(a, b, op))
        sections = global_sections(sheaf_from_fibres(fibres))
        assert (sections.decision.feasible, len(calls)) == (False, 0)

    def test_an_instantaneous_box_gives_a_vertex_unlike_both_edges(self):
        scene = Scene.make((0, 4), (0, 4), [Box.make((2, 2), (2, 2), (0, 4))])
        times, (vertex,), (left, right) = scene_fibres(scene)
        assert times == (2,)
        assert [len(f.components) for f in (left, vertex, right)] == [1, 2, 1]
        assert vertex.components != left.components and vertex.components != right.components
        sheaf = build_sheaf(scene)
        assert sheaf.maps == (((0, 0), (0, 0)),)  # both vertex components into the one edge component

    @pytest.mark.parametrize("scene", [pulsing_box_scene(40), comb_scene(8)], ids=["pulsing", "comb"])
    def test_coboundary_is_invariant_under_a_rational_shift(self, scene):
        third = Fraction(1, 3)
        base = assemble_coboundary(build_sheaf(scene))
        moved = assemble_coboundary(build_sheaf(scene.shifted(third, third, third)))
        assert moved.row_labels == base.row_labels
        assert moved.column_labels == base.column_labels
        assert moved.coboundary == base.coboundary


# boxes on the far side of the frame, on it, or straddling it
FRAME_BOXES = (
    Box.make((0, 4), (12, 14), (0, 12)),
    Box.make((1, 3), (0, 0), (0, 12)),
    Box.make((2, 5), (-3, -1), (-3, -1)),
    Box.make((1, 6), (-2, 5), (11, 13)),
    Box.make((3, 3), (-1, 13), (6, 6)),
)
SHIFTS = (Fraction(1, 3), Fraction(-2, 7), Fraction(5, 11), Fraction(0))


def fibre_values(fibre) -> tuple:
    """A fibre's grid and owner array, to compare two fibres by value; fibres
    themselves are shared by samples and compare by identity."""
    return fibre.xs, fibre.ys, fibre.owner


def assert_fibres_match_the_reference(scene: Scene) -> bool:
    """The scene's fibres, validation and restriction targets against the
    `Fraction` reference; returns whether the scene is valid.

    A restriction target is found with no ranks and no owner array: the edge
    component of the reference fibre at the edge's sample time that holds
    the vertex component's reference interior point."""
    fibres = scene_fibres(scene)
    times, vertex_fibres, edge_fibres = fibres
    assert times == (_rank_table(scene).ts or (Fraction(0),))
    edge_times = [times[0] - 1, *((a + b) / 2 for a, b in zip(times, times[1:])), times[-1] + 1]
    reference = {}
    for t, fibre in (*zip(times, vertex_fibres, strict=True), *zip(edge_times, edge_fibres, strict=True)):
        reference[t] = reference_fibre(scene, t)
        xs, ys, comps = reference[t]
        assert (fibre.xs, fibre.ys) == (xs, ys)
        assert list(fibre.components) == comps
        assert fibre_values(gap_components(scene, t)) == fibre_values(fibre)
    sheaf = sheaf_from_fibres(fibres)
    for i, t in enumerate(times):
        for image, te in zip(sheaf.maps[i], (edge_times[i], edge_times[i + 1])):
            targets = [reference_locate(*reference[te], point) for _, _, point, _ in reference[t][2]]
            assert list(image) == targets
    problem = validate_fibres(fibres)
    assert problem == reference_validate(scene, times)
    return problem is None


def test_fibres_and_validation_match_the_fraction_reference(base_seed):
    rng = Random(base_seed)
    invalid = 0
    for _ in range(320):
        raw = random_candidate(rng, 8)
        extra = tuple(rng.sample(FRAME_BOXES, rng.randint(0, 2)))
        scene = Scene(raw.window_x, raw.window_y, raw.boxes + extra).shifted(
            *(rng.choice(SHIFTS) for _ in range(3))
        )
        invalid += not assert_fibres_match_the_reference(scene)
    assert 20 < invalid < 300  # both outcomes are well represented


def test_the_unbounded_edges_see_the_open_window(base_seed):
    # `validate_fibres` reads neither unbounded edge: no box is alive there,
    # so the gap is the whole open window, whose coverage is connected
    rng = Random(base_seed)
    scenes = [*map(fixture_scene, fixtures_with("window")), *(random_candidate(rng, 8) for _ in range(300))]
    invalid = 0
    for scene in scenes:
        fibres = scene_fibres(scene)
        for fibre in (fibres[2][0], fibres[2][-1]):
            assert fibre.connected and len(fibre.seeds) == 1
        invalid += validate_fibres(fibres) is not None
    assert 20 < invalid < 280  # invalid draws are included


def small_integer_scene(rng: Random) -> Scene:
    """1 to 6 boxes on integer coordinates from -2 to 8 with sides from 0 to
    3, in the window (0, 6) x (0, 6): point boxes, zero-width segments and
    boxes meeting at corners or along the frame are common."""
    boxes = []
    for _ in range(rng.randint(1, 6)):
        t0, (w, h) = rng.randint(0, 6), (rng.randint(0, 3), rng.randint(0, 3))
        x0, y0 = rng.randint(-2, 8 - w), rng.randint(-2, 8 - h)
        boxes.append(Box.make((t0, t0 + rng.randint(0, 3)), (x0, x0 + w), (y0, y0 + h)))
    return Scene.make((0, 6), (0, 6), boxes)


def test_euler_count_matches_the_reference_on_small_integer_scenes(base_seed):
    # the reference decides connectivity by a union-find over box contacts
    rng = Random(base_seed)
    invalid = sum(not assert_fibres_match_the_reference(small_integer_scene(rng)) for _ in range(500))
    assert 50 < invalid < 450  # both outcomes are well represented


# both paint directions of `_arrange` in one key: a full-width wall, wider
# than tall in grid faces and so painted one grid row at a time, a tall
# zero-width wall crossing it, painted one column at a time, and a rectangle
# with its corner where the two walls cross and two edges on the frame; the
# tall wall dies first
CROSSED_WALLS = Scene.make(
    (0, 8),
    (0, 8),
    [Box.make((0, 2), (0, 8), (3, 4)), Box.make((0, 1), (5, 5), (1, 7)), Box.make((0, 2), (5, 8), (0, 3))],
)


@pytest.mark.parametrize(
    "scene",
    [
        pulsing_box_scene(40),
        comb_scene(12),
        staircase_scene(6),
        jittered_pulsing_scene(10),
        jittered_slalom_scene(4),
        CROSSED_WALLS,
    ],
    ids=["pulsing", "comb", "staircase", "jittered-pulsing", "jittered-slalom", "crossed-walls"],
)
def test_family_fibres_match_the_fraction_reference(scene):
    # the jittered twins' rectangles differ by value: each box is a rank-table
    # group of its own and adds its own grid lines, however the scene is built
    assert assert_fibres_match_the_reference(scene)


def assert_gap_counts_match_the_nerve(scene: Scene) -> bool:
    """Every sample's fibre against the nerve of the coverage at its time
    (`reference_nerve`): the coverage is connected iff the nerve's b0 is 1,
    and then the fibre has 1 + b1 - b2 components. Returns whether every
    fibre's coverage is connected."""
    times, vertex_fibres, edge_fibres = scene_fibres(scene)
    edge_times = [times[0] - 1, *((a + b) / 2 for a, b in zip(times, times[1:])), times[-1] + 1]
    for t, fibre in (*zip(times, vertex_fibres, strict=True), *zip(edge_times, edge_fibres, strict=True)):
        b0, b1, b2 = nerve_betti(scene, t)
        assert (b0 == 1) == fibre.connected, t
        if b0 == 1:
            assert 1 + b1 - b2 == len(fibre.seeds), t
    return all(f.connected for f in (*vertex_fibres, *edge_fibres))


def test_gap_counts_match_the_nerve_on_the_fixtures():
    for name in fixtures_with("window"):
        assert_gap_counts_match_the_nerve(fixture_scene(name))


@pytest.mark.parametrize("name", list(randgen.FAMILIES))
def test_gap_counts_match_the_nerve_on_every_family(name):
    build, _, sizes = randgen.FAMILIES[name]
    for n in sizes[:2]:
        assert assert_gap_counts_match_the_nerve(build(n))


def test_gap_counts_match_the_nerve_on_random_candidates(base_seed):
    rng = Random(base_seed)
    invalid = sum(not assert_gap_counts_match_the_nerve(random_candidate(rng, 6)) for _ in range(300))
    assert 20 < invalid < 280  # invalid draws are included


def restriction_ranks_from_the_nerve(scene: Scene) -> Counter:
    """Each map of the scene's sheaf against the nerve of the coverage
    (`reference_nerve.restriction_rank`): the restriction of the first
    cohomology from a vertex to an edge beside it has rank one less than the
    number of distinct edge components in the vertex's image tuple, or 0 if
    the vertex gap is empty. Returns how often each rank was seen."""
    fibres = scene_fibres(scene)
    times = fibres[0]
    edge_times = [times[0] - 1, *((a + b) / 2 for a, b in zip(times, times[1:])), times[-1] + 1]
    seen = Counter()
    for i, (t, (left, right)) in enumerate(zip(times, sheaf_from_fibres(fibres).maps, strict=True)):
        for image, te in ((left, edge_times[i]), (right, edge_times[i + 1])):
            rank = restriction_rank(scene, t, te)
            assert rank == max(len(set(image)) - 1, 0), (t, te)
            seen[rank] += 1
    return seen


def test_restriction_ranks_match_the_nerve_on_the_fixtures():
    for name in fixtures_with("window"):
        restriction_ranks_from_the_nerve(fixture_scene(name))


@pytest.mark.parametrize("name", list(randgen.FAMILIES))
def test_restriction_ranks_match_the_nerve_on_every_family(name):
    build, _, sizes = randgen.FAMILIES[name]
    for n in sizes[:2]:
        restriction_ranks_from_the_nerve(build(n))


def test_restriction_ranks_match_the_nerve_on_random_scenes(base_seed):
    rng = Random(base_seed)
    seen = sum((restriction_ranks_from_the_nerve(random_scene(rng, 10)) for _ in range(300)), Counter())
    assert seen[0] and seen[1] and seen[2]  # maps that merge components and ones that keep them apart


@pytest.mark.parametrize("name", list(randgen.FAMILIES))
def test_every_family_gets_its_registered_verdict(name):
    # on EVASION, extract_path verifies the path it returns
    build, verdict, sizes = randgen.FAMILIES[name]
    for n in sizes[:2]:
        _, sections, path, _ = run_check(build(n))
        assert ("EVASION" if sections.decision.feasible else "NO_EVASION") == verdict
        assert (path is not None) == sections.decision.feasible


def test_parse_family_reads_a_name_and_its_sizes_and_names_what_is_wrong():
    assert randgen.parse_family("jittered-slalom=4,8") == ("jittered-slalom", (4, 8))
    refused = {
        "spiral=4": "unknown family 'spiral'; the families are pulsing, comb, blocked, slalom, staircase, jittered-",
        "slalom": "'slalom' is not NAME=N",
        "slalom=": "the sizes must be positive integers",
        "slalom=4,,8": "the sizes must be positive integers",
        "slalom=4,x": "the sizes must be positive integers",
        "slalom=0": "the sizes must be positive integers",
        "pulsing=3": "pulsing=3: n_critical_times must be even",
        "blocked=4,3": "blocked=3: n_critical_times must be even",
        "jittered-pulsing=3": "jittered-pulsing=3: n must be even",
    }
    for text, message in refused.items():
        with pytest.raises(ValueError, match=message):
            randgen.parse_family(text)


@pytest.mark.parametrize("n", [1, 2, 9])
def test_the_staircase_gap_is_one_component_at_every_time(n):
    scene = staircase_scene(n)
    fibres = scene_fibres(scene)
    _, vertex_fibres, edge_fibres = fibres
    assert len(vertex_fibres) == n + 1  # a birth at each of 1..n and the common death at 2n
    assert all(len(fibre.seeds) == 1 for fibre in (*vertex_fibres, *edge_fibres))
    _, sections, path, _ = run_check(scene)
    assert sections.decision.feasible and len(path.segments) == min(n, 2)


# scenes on the window (0, 4)^2 whose box events the sample keys must follow
EVENT_SCENES = {
    # two boxes on one rectangle: the key keeps it after the first one dies
    "shared rectangle": [Box.make((0, 2), (0, 2), (1, 2)), Box.make((1, 3), (0, 2), (1, 2))],
    "instantaneous box": [Box.make((1, 1), (0, 2), (1, 2))],
    # one box born on the same rectangle and one on another as the first dies
    "born at a death": [
        Box.make((0, 1), (0, 2), (1, 2)),
        Box.make((1, 2), (0, 2), (1, 2)),
        Box.make((1, 3), (2, 4), (2, 3)),
    ],
    "box outside the window": [Box.make((0, 1), (5, 6), (5, 6)), Box.make((1, 2), (0, 2), (1, 2))],
    "no boxes": [],
}


@pytest.mark.parametrize("boxes", EVENT_SCENES.values(), ids=EVENT_SCENES)
def test_per_event_keys_match_the_fraction_reference(boxes):
    assert assert_fibres_match_the_reference(Scene.make((0, 4), (0, 4), boxes))


def test_a_rectangle_stays_in_the_key_while_any_box_on_it_lives():
    _, _, edges = scene_fibres(Scene.make((0, 4), (0, 4), EVENT_SCENES["shared rectangle"]))
    # edges 1 to 3 have one box, both and the other on the rectangle; 0 and 4 have none
    assert edges[1] is edges[2] is edges[3] and edges[0] is edges[4]
    assert len(edges[0].xs) == 2 and len(edges[1].xs) == 3


# k/97 share the integer part 0, and -1/3, -1/2 and -2/3 the floor -1;
# k/97 + 2^-66 shares k/97's 64-bit fixed-point key for every eighth k
NEAR = Fraction(1, 2**66)
TIED = (
    *(Fraction(k, 97) for k in range(97)),
    *(Fraction(k, 97) + NEAR for k in range(0, 97, 8)),
    Fraction(-1, 3),
    Fraction(-1, 2),
    Fraction(-2, 3),
    Fraction(1),
)


def test_ranks_compare_fractions_only_below_the_fixed_point_step(monkeypatch):
    # values 2^-64 or more apart are ordered by their keys alone; a pair
    # closer than that shares its key and is compared once as Fractions
    apart = [Fraction(k, 97) for k in range(96, -1, -1)] + [Fraction(k * 10**40 + 1, 10**40) for k in (3, 1, 2)]
    expected = tuple(sorted(apart))
    calls, richcmp = [], Fraction._richcmp
    monkeypatch.setattr(Fraction, "_richcmp", lambda a, b, op: calls.append(op) or richcmp(a, b, op))
    assert _ranks(apart)[0] == expected
    assert calls == []
    close = [Fraction(1, 3) + NEAR, Fraction(1, 3), Fraction(1, 3) + NEAR]
    assert _ranks(close) == ((Fraction(1, 3), Fraction(1, 3) + NEAR), [1, 0, 1])
    assert len(calls) == 1


def tied_scene(rng: Random) -> Scene:
    """Up to 10 boxes on tied coordinates in the window (-1/2, 1) x (-1/3, 1).
    Of 8 boxes, 3 hang off the window's left edge, 3 stand on its lower
    edge, 1 is free and 1 covers the whole window."""
    boxes = []
    for _ in range(rng.randint(1, 10)):
        t, (x0, x1), (y0, y1) = (tuple(sorted(rng.choices(TIED, k=2))) for _ in range(3))
        kind = rng.randrange(8)
        if kind < 3:
            x0 = Fraction(-2, 3)
        elif kind < 6:
            y0 = Fraction(-1, 2)
        elif kind == 7:
            x0, x1, y0, y1 = Fraction(-2, 3), 1, Fraction(-1, 2), 1
        boxes.append(Box.make(t, (x0, x1), (y0, y1)))
    return Scene.make((Fraction(-1, 2), 1), (Fraction(-1, 3), 1), boxes)


def reordered(scene: Scene, rng: Random) -> list[Scene]:
    """The scene with its boxes in reverse and in shuffled order."""
    shuffled = list(scene.boxes)
    rng.shuffle(shuffled)
    return [replace(scene, boxes=boxes) for boxes in (scene.boxes[::-1], tuple(shuffled))]


def test_ranking_is_exact_under_box_order_and_tied_integer_parts(base_seed):
    rng = Random(base_seed)
    invalid = 0
    for _ in range(60):
        scene = tied_scene(rng)
        fibres = scene_fibres(scene)
        times, vertex_fibres, edge_fibres = fibres
        assert times == (_rank_table(scene).ts or (Fraction(0),))
        edge_times = [times[0] - 1, *((a + b) / 2 for a, b in zip(times, times[1:])), times[-1] + 1]
        for t, fibre in (*zip(times, vertex_fibres, strict=True), *zip(edge_times, edge_fibres, strict=True)):
            xs, ys, comps = reference_fibre(scene, t)
            assert (fibre.xs, fibre.ys) == (xs, ys)
            assert list(fibre.components) == comps
        problem = validate_fibres(fibres)
        assert problem == reference_validate(scene, times)
        invalid += problem is not None
        for other in reordered(scene, rng):
            other_times, other_vertex_fibres, other_edge_fibres = scene_fibres(other)
            assert other_times == times
            assert [*map(fibre_values, other_vertex_fibres + other_edge_fibres)] == [
                *map(fibre_values, vertex_fibres + edge_fibres)
            ]
    assert 5 < invalid < 55  # both outcomes are well represented


def test_check_reports_ignore_box_order_and_literal_forms(capsys, tmp_path, base_seed):
    rng = Random(base_seed)

    def report(data) -> str:
        # everything but the timings and the digest of the file's bytes
        scene_file = tmp_path / "scene.json"
        scene_file.write_text(json.dumps(data))
        code = main(["check", str(scene_file)])
        out = json.loads(capsys.readouterr().out)
        out.pop("timing_ms", None)
        out.pop("input_digest", None)
        return f"{code} {json.dumps(out, indent=2, sort_keys=True)}"

    def rewritten(text: str) -> str:
        # an equal literal in another form: "1/2" as "2/4", "3" as "9/3"
        q, k = Fraction(text), rng.randint(2, 3)
        return f"{k * q.numerator}/{k * q.denominator}"

    verdicts = set()
    for _ in range(16):
        scene = tied_scene(rng)
        data = scene_to_jsonable(scene)
        expected = report(data)
        verdicts.add(expected[0])
        for other in reordered(scene, rng):
            assert report(scene_to_jsonable(other)) == expected
        forms = {
            "window": {axis: [rewritten(c) for c in iv] for axis, iv in data["window"].items()},
            "boxes": [{axis: [rewritten(c) for c in iv] for axis, iv in b.items()} for b in data["boxes"]],
        }
        assert report(forms) == expected
    assert len(verdicts) > 1


# ---------------------------------------------------------------------------
# properties

@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_duality_lp_dp_and_path_agree_on_random_scenes(seed):
    scene = random_scene(Random(seed))
    sheaf = build_sheaf(scene)
    sections = global_sections(sheaf)
    exists, _ = dp_section_exists(sheaf)
    cob = sections.coboundary
    assert exists == sections.decision.feasible == lp_positive_kernel(cob).feasible
    if sections.decision.feasible:
        path = extract_path(scene, scene_fibres(scene), sections)  # verifies itself
        assert path.segments[0].start is None and path.segments[-1].end is None


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_vertex_components_persist_to_both_sides(seed):
    # build_sheaf would raise GeometryError if two-sided persistence failed;
    # also check every vertex component has one image in each edge, a component of that edge
    scene = random_scene(Random(seed))
    sheaf = build_sheaf(scene)
    for i, images in enumerate(sheaf.maps):
        for j, image in enumerate(images, i):
            assert len(image) == len(sheaf.vertex_stalks[i].labels)
            assert all(0 <= r < len(sheaf.edge_stalks[j].labels) for r in image)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.data())
@settings(max_examples=60, deadline=None)
def test_arrangement_agrees_with_the_point_probe(seed, data):
    # component location and the box-membership probe are independent code
    # paths; a point is located in some component iff it is uncovered
    scene = random_scene(Random(seed))
    t = Fraction(data.draw(st.integers(min_value=-2, max_value=30)), 2)
    fibre = gap_components(scene, t)
    for _ in range(8):
        p = (
            Fraction(data.draw(st.integers(min_value=-2, max_value=26)), 2),
            Fraction(data.draw(st.integers(min_value=-2, max_value=26)), 2),
        )
        located = locate(fibre, p)
        assert (located is not None) == point_uncovered(scene, t, p)


def _kept(iv):
    return iv


def _boxes_mapped(scene: Scene, t=_kept, x=_kept, y=_kept) -> Scene:
    """The scene with each box's t, x and y intervals mapped, and the window's x and y."""
    return Scene(x(scene.window_x), y(scene.window_y), tuple(Box(t(b.t), x(b.x), y(b.y)) for b in scene.boxes))


def _halves(box: Box, axis: int) -> tuple[Box, Box]:
    """Two closed boxes whose union is the box, split at the midpoint of one axis."""
    ivs = [box.t, box.x, box.y]
    lo, hi = ivs[axis]
    mid = (lo + hi) / 2
    first, second = list(ivs), list(ivs)
    first[axis], second[axis] = (lo, mid), (mid, hi)
    return Box(*first), Box(*second)


def metamorphic_images(scene: Scene, a: Fraction, b: Fraction, axes: list[int], d: int) -> dict[str, Scene]:
    """The scene under each transformation that keeps its verdict and
    kernel_dim, `deep`'s literals of about 2d digits among them."""
    return {
        "deep": randgen.deep(scene, d),
        "time reversal": _boxes_mapped(scene, t=lambda iv: (-iv[1], -iv[0])),
        "x-y swap": Scene(scene.window_y, scene.window_x, tuple(Box(box.t, box.y, box.x) for box in scene.boxes)),
        "x mirror": _boxes_mapped(scene, x=lambda iv: (-iv[1], -iv[0])),
        "rescale": _boxes_mapped(scene, t=lambda iv: (a * iv[0], a * iv[1]), x=lambda iv: (b * iv[0], b * iv[1])),
        "box split": Scene(
            scene.window_x,
            scene.window_y,
            tuple(half for box, axis in zip(scene.boxes, axes) for half in _halves(box, axis)),
        ),
    }


POSITIVE = st.fractions(min_value=Fraction(1, 7), max_value=7)


@given(
    st.one_of(
        st.integers(min_value=0, max_value=2**32 - 1).map(lambda seed: random_candidate(Random(seed), 6)),
        st.integers(min_value=1, max_value=6).map(lambda k: pulsing_box_scene(2 * k)),
        st.integers(min_value=1, max_value=5).map(comb_scene),
    ),
    POSITIVE,
    POSITIVE,
    # the axis to split each box along; no drawn scene has more than 12 boxes
    st.lists(st.integers(min_value=0, max_value=2), min_size=12, max_size=12),
    st.integers(min_value=1, max_value=40),
)
@settings(max_examples=100, deadline=None)
def test_verdict_and_kernel_dim_are_metamorphic_invariants(scene, a, b, axes, d):
    assume(validate_scene(scene) is None)

    def outcome(s: Scene) -> tuple[bool, int]:
        sections = global_sections(build_sheaf(s))
        return sections.decision.feasible, sections.kernel_dim

    expected = outcome(scene)
    for name, image in metamorphic_images(scene, a, b, axes, d).items():
        assert outcome(image) == expected, name


def test_random_scene_gives_up_after_64_invalid_draws(monkeypatch):
    # a box floating inside the window leaves the coverage disconnected, so every draw is re-rolled
    floating = Scene.make((0, 12), (0, 12), [Box.make((1, 2), (4, 6), (4, 6))])
    draws = []

    def candidate(rng, max_boxes):
        draws.append(max_boxes)
        return floating

    monkeypatch.setattr(randgen, "random_candidate", candidate)
    with pytest.raises(RuntimeError, match="could not draw a valid random scene"):
        random_scene(Random(0))
    assert len(draws) == 64


def test_a_pulsing_scene_needs_an_even_number_of_critical_times():
    with pytest.raises(ValueError, match="must be even"):
        pulsing_box_scene(3)
