import io
import json
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evasion.sheaf
from evasion.cli import (
    main,
    matrix_to_jsonable,
    scene_from_jsonable,
    sections_to_jsonable,
    sheaf_from_jsonable,
    sheaf_to_jsonable,
    write_json,
)
from evasion.cones import PolyhedralCone, is_valid_certificate, lp_positive_kernel
from evasion.geometry import build_sheaf
from evasion.linalg import Matrix, kernel_basis, rank
from evasion.randgen import blocked_scene, comb_scene, pulsing_box_scene, random_function_like_sheaf
from evasion.oracle import dp_section_exists
from evasion.sheaf import (
    ConeSheaf,
    FunctionSheaf,
    SheafValidationError,
    Stratification,
    assemble_coboundary,
    generator_maps,
    global_sections,
    refine,
    section_chain,
    section_sweep,
    sweep_sections,
    validate_sheaf,
)

from conftest import fixtures_with, load_fixture
from reference_chains import reference_section_sweep
from golden import (
    BLOCKED_COBOUNDARY,
    BLOCKED_KERNEL_GENERATOR,
    BLOCKED_ROWS,
    OPEN_COBOUNDARY,
    OPEN_ROWS,
    OPEN_WITNESS_SUPPORT,
)


def free(labels):
    return PolyhedralCone.free(labels)


def onehot(rows, cols, hits):
    """0/1 matrix with hits[c] = target row of column c (None for a zero column)."""
    data = [[0] * cols for _ in range(rows)]
    for c, r in enumerate(hits):
        if r is not None:
            data[r][c] = 1
    return Matrix.from_rows(data)


def crossing_sheaf(open_variant: bool) -> ConeSheaf:
    """The two crossing sheaves written out by hand, independently of the
    geometry layer: stalk ranks (1,3,3,1) over vertices and (1,2,3,2,1) over
    edges, with t/m/b generator order per cell."""
    strat = Stratification.make([1, 2, 3, 4])
    vertex_stalks = (free(["t"]), free(["t", "m", "b"]), free(["t", "m", "b"]), free(["b"]))
    edge_stalks = (free(["s"]), free(["t", "b"]), free(["t", "m", "b"]), free(["t", "b"]), free(["s"]))
    if open_variant:
        v2_left = onehot(2, 3, [0, 0, 1])   # t->t, m->t, b->b on e2
        v3_right = onehot(2, 3, [0, 1, 1])  # t->t, m->b, b->b on e4
    else:
        v2_left = onehot(2, 3, [0, 1, 1])   # t->t, m->b, b->b on e2
        v3_right = onehot(2, 3, [0, 0, 1])  # t->t, m->t, b->b on e4
    left_maps = (
        onehot(1, 1, [0]),      # v1 -> e1
        v2_left,                # v2 -> e2
        Matrix.identity(3),     # v3 -> e3
        onehot(2, 1, [1]),      # v4 -> e4 (b -> b)
    )
    right_maps = (
        onehot(2, 1, [0]),      # v1 -> e2 (t -> t)
        Matrix.identity(3),     # v2 -> e3
        v3_right,               # v3 -> e4
        onehot(1, 1, [0]),      # v4 -> e5
    )
    return ConeSheaf(strat, vertex_stalks, edge_stalks, left_maps, right_maps)


def empty_vertex_sheaf() -> ConeSheaf:
    """Two vertices without generators between nonempty unbounded edges."""
    none = PolyhedralCone(0, (), ())
    one = free(["u"])
    return ConeSheaf(
        Stratification.make([0, 1]),
        (none, none),
        (one, none, one),
        (Matrix.from_rows([[]]), Matrix.from_rows([])),
        (Matrix.from_rows([]), Matrix.from_rows([[]])),
    )


def label_names(labels):
    return [f"{cell}.{lab}" for cell, lab in labels]


class TestStratification:
    def test_cells_are_the_ids_in_time_order_built_once(self):
        strat = Stratification.make([1, 2])
        assert strat.cells == ("e1", "v1", "e2", "v2", "e3")
        assert strat.cells is strat.cells
        assert [strat.vertex_id(i) for i in range(2)] == ["v1", "v2"]
        assert [strat.edge_id(j) for j in range(3)] == ["e1", "e2", "e3"]
        assert Stratification.make([]).cells == ("e1",)


class TestValidateSheaf:
    def test_free_inclusion_sheaf_is_ok(self):
        assert validate_sheaf(crossing_sheaf(True)) == ()
        assert validate_sheaf(crossing_sheaf(False)) == ()

    def test_restriction_leaving_the_target_cone_is_reported(self):
        strat = Stratification.make([0])
        bad = Matrix.from_rows([[1], [-1]])  # generator image (1,-1), orthant target
        good = Matrix.from_rows([[1], [0]])
        sheaf = ConeSheaf(
            strat,
            (free(["a"]),),
            (free(["u", "w"]), free(["u", "w"])),
            (bad,),
            (good,),
        )
        (violation,) = validate_sheaf(sheaf)
        assert violation.vertex == "v1" and violation.edge == "e1" and violation.generator == "a"

    def test_non_positive_stalk_is_reported(self):
        strat = Stratification.make([0])
        line = PolyhedralCone.make([(1,), (-1,)])
        ident = Matrix.identity(1)
        sheaf = ConeSheaf(strat, (line,), (free(["u"]), free(["u"])), (ident,), (ident,))
        assert any("positive" in v.message for v in validate_sheaf(sheaf))

    @pytest.mark.parametrize(
        "counts, message",
        [
            ((0, 2, 1, 1), "expected 1 vertex stalks, got 0"),
            ((1, 3, 1, 1), "expected 2 edge stalks, got 3"),
            ((1, 2, 0, 1), "need one left and one right restriction per vertex"),
            ((1, 2, 1, 2), "need one left and one right restriction per vertex"),
        ],
        ids=["vertex-stalks", "edge-stalks", "left-maps", "right-maps"],
    )
    def test_cell_counts_are_checked_at_construction(self, counts, message):
        # one vertex: one vertex stalk, two edge stalks, one map to each side
        items = (free(["a"]), free(["u"]), Matrix.identity(1), Matrix.identity(1))
        with pytest.raises(ValueError, match=message):
            ConeSheaf(Stratification.make([0]), *((item,) * n for item, n in zip(items, counts)))

    def test_shape_mismatch_rejected_at_construction(self):
        strat = Stratification.make([0])
        with pytest.raises(ValueError):
            ConeSheaf(strat, (free(["a"]),), (free(["u"]), free(["u"])), (Matrix.identity(2),), (Matrix.identity(1),))


class TestAssembleCoboundary:
    def test_one_vertex_sheaf_has_no_rows(self):
        strat = Stratification.make([0])
        sheaf = ConeSheaf(
            strat,
            (free(["a"]),),
            (free(["u"]), free(["u"])),
            (Matrix.identity(1),),
            (Matrix.identity(1),),
        )
        sections = assemble_coboundary(sheaf)
        assert sections.coboundary.rows == 0
        assert sections.coboundary.cols == 1
        assert sections.kernel_dim is None and sections.decision is None

    def test_open_crossing_reproduces_golden_matrix(self):
        sections = assemble_coboundary(crossing_sheaf(True))
        assert label_names(sections.row_labels) == OPEN_ROWS
        assert sections.coboundary == OPEN_COBOUNDARY

    def test_blocked_crossing_reproduces_golden_matrix(self):
        sections = assemble_coboundary(crossing_sheaf(False))
        assert label_names(sections.row_labels) == BLOCKED_ROWS
        assert sections.coboundary == BLOCKED_COBOUNDARY

    def test_validation_failure_propagates(self):
        strat = Stratification.make([0])
        bad = Matrix.from_rows([[1], [-1]])
        sheaf = ConeSheaf(strat, (free(["a"]),), (free(["u", "w"]), free(["u", "w"])), (bad,), (bad,))
        with pytest.raises(SheafValidationError):
            assemble_coboundary(sheaf)


class TestGlobalSections:
    def test_open_crossing_feasible_with_expected_support(self):
        sections = global_sections(crossing_sheaf(True))
        assert sections.decision.feasible
        support = {
            name
            for name, v in zip(label_names(sections.column_labels), sections.decision.witness)
            if v
        }
        assert support == OPEN_WITNESS_SUPPORT
        assert sections.kernel_dim == 1

    def test_blocked_crossing_infeasible_with_mixed_sign_kernel(self):
        sections = global_sections(crossing_sheaf(False))
        assert not sections.decision.feasible
        assert sections.kernel_dim == 1
        (gen,) = kernel_basis(sections.coboundary)
        named = dict(zip(label_names(sections.column_labels), gen))
        scale = named["v1.t"]
        assert scale != 0
        assert {k: v / scale for k, v in named.items()} == {
            k: Fraction(v) for k, v in BLOCKED_KERNEL_GENERATOR.items()
        }
        assert is_valid_certificate(sections.coboundary, sections.decision.certificate)

    def test_blocked_crossing_certificate_is_the_reachability_potential(self):
        # only the top strand is reachable from the left, through e2..e4
        # (-1, -2, -3); the others get the longest chain to e5 or a dead end
        sections = global_sections(crossing_sheaf(False))
        named = dict(zip(label_names(sections.row_labels), sections.decision.certificate))
        assert named == {
            "e2.t": -1, "e2.b": 3,
            "e3.t": -2, "e3.m": 1, "e3.b": 2,
            "e4.t": -3, "e4.b": 1,
        }

    def test_nonfree_vertex_stalk_substitutes_generators(self):
        # v1 carries cone{(1,0),(1,1)}; lambda-columns substitute the generators
        strat = Stratification.make([0, 1])
        wedge = PolyhedralCone.make([(1, 0), (1, 1)], labels=["a", "b"])
        orthant = free(["u", "w"])
        ident = Matrix.identity(2)
        sheaf = ConeSheaf(
            strat,
            (wedge, orthant),
            (orthant, orthant, orthant),
            (ident, ident),
            (ident, ident),
        )
        sections = global_sections(sheaf)
        assert sections.decision.feasible
        # block of v1: columns are the generators themselves
        assert sections.coboundary.row(0)[:2] == (Fraction(-1), Fraction(-1))
        assert sections.coboundary.row(1)[:2] == (Fraction(0), Fraction(-1))
        lam = sections.decision.witness
        x_v1 = [
            sum((lam[g] * wedge.generators[g][d] for g in range(2)), Fraction(0))
            for d in range(2)
        ]
        assert x_v1 == list(lam[2:4])  # identity restriction matches v2 block

    def test_empty_vertex_stalks_are_infeasible_with_vacuous_certificate(self):
        sections = global_sections(empty_vertex_sheaf())
        assert not sections.decision.feasible
        assert is_valid_certificate(sections.coboundary, sections.decision.certificate)

    def test_vertex_free_sheaf_reports_the_constant_section(self):
        sheaf = ConeSheaf(
            Stratification.make([]),
            (),
            (free(["u"]),),
            (),
            (),
        )
        sections = global_sections(sheaf)
        assert sections.decision.feasible
        assert label_names(sections.column_labels) == ["v1.u"]


def _simplex_sheaf_with_coordinate_rows() -> ConeSheaf:
    """Two vertices around an edge whose stalk is not free, so the simplex
    decides it and the coboundary rows over that edge are named x0 and x1."""
    return ConeSheaf(
        Stratification.make([0, 1]),
        (free(["a"]), free(["b"])),
        (free(["u"]), PolyhedralCone.make([[1, 0], [1, 1]], ["p", "q"]), free(["w"])),
        (Matrix.from_rows([[1]]), Matrix.from_rows([[1], [0]])),
        (Matrix.from_rows([[1], [1]]), Matrix.from_rows([[1]])),
    )


@pytest.mark.parametrize(
    "sheaf",
    [
        *(
            pytest.param(lambda name=name: sheaf_from_jsonable(load_fixture(name)), id=name)
            for name in fixtures_with("vertices")
        ),
        pytest.param(_simplex_sheaf_with_coordinate_rows, id="coordinate_rows"),
        pytest.param(lambda: ConeSheaf(Stratification.make([]), (), (free(["u"]),), (), ()), id="vertex_free"),
        pytest.param(lambda: random_function_like_sheaf(Random(4)), id="function_like"),
    ],
)
@pytest.mark.parametrize("sections_of", [global_sections, assemble_coboundary])
def test_report_names_are_the_formatted_labels(sheaf, sections_of):
    sections = sections_of(sheaf())
    assert sections.row_names == tuple(label_names(sections.row_labels))
    assert sections.column_names == tuple(label_names(sections.column_labels))
    assert (len(sections.row_names), len(sections.column_names)) == (sections.coboundary.rows, sections.coboundary.cols)


def test_rows_over_a_stalk_that_is_not_free_are_its_coordinates():
    sections = global_sections(_simplex_sheaf_with_coordinate_rows())
    assert sections.row_names == ("e2.x0", "e2.x1")
    assert sections.column_names == ("v1.a", "v2.b")
    # a and b restrict to (1, 1) and (1, 0) over e2: decided by the simplex, no section
    assert sections.chain is None and not sections.decision.feasible


class TestKernelDim:
    """The sweep's cycle rank against the rational rank of the coboundary."""

    @staticmethod
    def assert_cycle_rank_is_the_rank_deficiency(sheaf):
        sections = global_sections(sheaf)
        assert sections.kernel_dim == sections.coboundary.cols - rank(sections.coboundary)
        return sections.kernel_dim

    def test_seeded_random_function_like_sheaves(self, base_seed):
        for seed in range(base_seed, base_seed + 2000):
            self.assert_cycle_rank_is_the_rank_deficiency(random_function_like_sheaf(Random(seed)))

    @pytest.mark.parametrize("scene", [pulsing_box_scene(400), comb_scene(24)], ids=["pulsing400", "comb24"])
    def test_benchmark_scenes(self, scene):
        self.assert_cycle_rank_is_the_rank_deficiency(build_sheaf(scene))

    def test_one_vertex_sheaf_counts_every_arc_as_a_ground_loop(self):
        sheaf = ConeSheaf(
            Stratification.make([0]),
            (free(["a", "b", "c"]),),
            (free(["u", "w"]), free(["u"])),
            (onehot(2, 3, [0, 1, 1]),),
            (onehot(1, 3, [0, 0, 0]),),
        )
        assert self.assert_cycle_rank_is_the_rank_deficiency(sheaf) == 3

    def test_empty_vertex_stalks_have_no_kernel(self):
        assert self.assert_cycle_rank_is_the_rank_deficiency(empty_vertex_sheaf()) == 0


def written_and_read(sheaf):
    """The sheaf as `evasion sheaf` writes it, read back as `evasion lp` reads it."""
    out = io.StringIO()
    write_json(sheaf_to_jsonable(sheaf), out)
    return sheaf_from_jsonable(json.loads(out.getvalue()))


def test_a_nonfree_sheaf_round_trips_with_its_generators():
    sheaf = sheaf_from_jsonable(load_fixture("nonfree_feasible.json"))
    assert not all(stalk.is_free for stalk in sheaf.vertex_stalks)
    again = written_and_read(sheaf)
    assert again == sheaf
    reports = []
    for read in (sheaf, again):
        out = io.StringIO()
        sections = global_sections(read)
        write_json(sections_to_jsonable(sections) | {"matrix": matrix_to_jsonable(sections.coboundary)}, out)
        reports.append(out.getvalue())
    assert reports[0] == reports[1]


def test_both_converters_round_trip_random_function_like_sheaves(base_seed):
    # random sheaves are born as image tuples: the matrices they build must
    # convert back to those tuples, and their file must decide alike
    for seed in range(base_seed, base_seed + 2000):
        F = random_function_like_sheaf(Random(seed))
        matrices = [M for _, _, M in F.incidences()]
        S = ConeSheaf(F.strat, F.vertex_stalks, F.edge_stalks, tuple(matrices[0::2]), tuple(matrices[1::2]))
        assert generator_maps(S).maps == F.maps
        read, sections = global_sections(written_and_read(F)), global_sections(F)
        assert (read.decision, read.kernel_dim, read.chain) == (sections.decision, sections.kernel_dim, sections.chain)


@pytest.mark.parametrize(
    "scene, certificate",
    [
        (scene_from_jsonable(load_fixture("crossing_blocked.json")), ["3", "-1", "2", "1", "-2", "1", "-3"]),
        (blocked_scene(40), [str(-j) for j in range(1, 41)]),  # every edge before the blackout is reachable
    ],
    ids=["crossing_blocked", "blocked_40"],
)
def test_a_scene_sheaf_certificate_is_the_integer_potential(scene, certificate):
    sections = global_sections(build_sheaf(scene))
    assert not sections.decision.feasible
    assert all(type(v) is int for v in sections.decision.certificate)
    assert is_valid_certificate(sections.coboundary, sections.decision.certificate)
    assert sections_to_jsonable(sections)["certificate"] == certificate


class TestSectionSweepMatchesTheFullBackwardPass:
    """The NO_EVASION potential is counted back only down to the first edge
    with an unreached generator; the full pass must give the same output."""

    def test_random_function_like_sheaves(self, base_seed):
        infeasible = 0
        for seed in range(base_seed, base_seed + 5000):
            F = random_function_like_sheaf(Random(seed))
            swept = section_sweep(F)
            assert swept == reference_section_sweep(F), seed
            infeasible += swept[0] is None
        assert 1000 < infeasible < 4000

    @pytest.mark.parametrize(
        "scene",
        [blocked_scene(40), scene_from_jsonable(load_fixture("crossing_blocked.json"))],
        ids=["blocked_40", "crossing_blocked"],
    )
    def test_scene_sheaves(self, scene):
        F = build_sheaf(scene)
        swept = section_sweep(F)
        assert swept[0] is None
        assert swept == reference_section_sweep(F)


def test_sweep_sections_is_global_sections_of_a_sweepable_sheaf(base_seed):
    for seed in range(base_seed, base_seed + 300):
        F = random_function_like_sheaf(Random(seed))
        swept, full = sweep_sections(F), global_sections(F)
        assert swept.kernel_dim is not None
        assert (swept.decision, swept.chain, swept.kernel_dim) == (full.decision, full.chain, full.kernel_dim)


class TestSweepRechecks:
    """A wrong object from `section_sweep` must not leave `global_sections`,
    nor any entry that reads its decision: the subclasses below run every
    case through `dp_section_exists` and through `evasion lp`, which reads a
    sheaf file back and decides it by `global_sections`."""

    @pytest.fixture
    def decide(self):
        return global_sections

    @staticmethod
    def patch_sweep(monkeypatch, corrupt):
        sweep = evasion.sheaf.section_sweep
        monkeypatch.setattr(evasion.sheaf, "section_sweep", lambda S: corrupt(S.maps, *sweep(S)))

    def test_chain_that_does_not_meet_on_a_shared_edge(self, decide, monkeypatch):
        def swap(maps, chain, y):
            # v2 takes a generator whose image on e2 is not where v1's choice lands
            left = maps[1][0]
            g = next(g for g in range(len(left)) if left[g] != left[chain[3]])
            return (*chain[:3], g, *chain[4:]), y

        self.patch_sweep(monkeypatch, swap)
        with pytest.raises(AssertionError, match="does not restrict to its edge generators"):
            decide(crossing_sheaf(True))

    def test_edge_generator_that_is_not_the_vertex_left_image(self, decide, monkeypatch):
        def shift(maps, chain, y):
            # e1 names a generator v1's left restriction does not reach; no other cell changes
            return (chain[0] + 1, *chain[1:]), y

        self.patch_sweep(monkeypatch, shift)
        with pytest.raises(AssertionError, match="does not restrict to its edge generators"):
            decide(crossing_sheaf(True))

    def test_edge_generator_that_is_not_the_vertex_right_image(self, decide, monkeypatch):
        def shift(maps, chain, y):
            # the last edge names a generator the last vertex's right restriction does not reach
            return (*chain[:-1], chain[-1] + 1), y

        self.patch_sweep(monkeypatch, shift)
        with pytest.raises(AssertionError, match="does not restrict to its edge generators"):
            decide(crossing_sheaf(True))

    def test_chain_without_one_generator_per_cell(self, decide, monkeypatch):
        self.patch_sweep(monkeypatch, lambda maps, chain, y: (chain[1:], y))  # e1 dropped
        with pytest.raises(AssertionError, match="one generator per cell"):
            decide(crossing_sheaf(True))

    def test_potential_with_an_arc_that_does_not_drop(self, decide, monkeypatch):
        def move(maps, chain, y):
            y[1][maps[0][1][0]] += 1  # v1's first arc now ends where it starts, at level 0
            return chain, y

        self.patch_sweep(monkeypatch, move)
        with pytest.raises(AssertionError, match="every arc"):
            decide(crossing_sheaf(False))

    @pytest.mark.parametrize(
        "corrupt",
        [
            # every entry one higher: each arc still drops, but not from zero on the unbounded edges
            lambda maps, chain, y: (chain, [[v + 1 for v in block] for block in y]),
            # every block one edge early: the blocks no longer fit the edges
            lambda maps, chain, y: (chain, [*y[1:], [0]]),
        ],
        ids=["plus_one", "one_edge_early"],
    )
    def test_potential_off_by_one(self, decide, corrupt, monkeypatch):
        self.patch_sweep(monkeypatch, corrupt)
        with pytest.raises(AssertionError, match="unbounded edges"):
            decide(crossing_sheaf(False))


class TestSweepRechecksInDpSectionExists(TestSweepRechecks):
    @pytest.fixture
    def decide(self):
        return dp_section_exists


class TestSweepRechecksInTheOracleCommand(TestSweepRechecks):
    # `evasion lp` on a sheaf file the sweep accepts; the class keeps the name
    # of the command it first ran, `evasion oracle`, so its test ids stay stable
    @pytest.fixture
    def decide(self, tmp_path):
        def lp(sheaf):
            path = tmp_path / "sheaf.json"
            with path.open("w") as out:
                write_json(sheaf_to_jsonable(sheaf), out)
            return main(["lp", str(path)])

        return lp


class TestValidateOnce:
    @pytest.mark.parametrize("name", fixtures_with("window"))
    def test_scene_sheaves_are_decided_without_validation(self, name, monkeypatch):
        sheaf = build_sheaf(scene_from_jsonable(load_fixture(name)))

        def refuse(*args):
            raise AssertionError("a sheaf the sweep accepts is valid by construction and decided in integers")

        monkeypatch.setattr(evasion.sheaf, "validate_sheaf", refuse)
        monkeypatch.setattr(evasion.sheaf, "rank", refuse)
        monkeypatch.setattr(FunctionSheaf, "generator_images", refuse)  # every coboundary entry is read through it
        assert global_sections(sheaf).decision is not None

    @pytest.mark.parametrize(
        "sheaf",
        [
            sheaf_from_jsonable(load_fixture("nonfree_feasible.json")),
            # free stalks, but v1->e2 and v2->e2 are zero
            ConeSheaf(
                Stratification.make([0, 1]),
                (free(["a"]),) * 2,
                (free(["a"]),) * 3,
                (Matrix.from_rows([[1]]), Matrix.from_rows([[0]])),
                (Matrix.from_rows([[0]]), Matrix.from_rows([[1]])),
            ),
        ],
        ids=["nonfree", "zero_column"],
    )
    def test_sheaves_outside_the_sweep_are_validated(self, sheaf, monkeypatch):
        calls = []

        def counted(f):
            return lambda *args: calls.append(f.__name__) or f(*args)

        monkeypatch.setattr(evasion.sheaf, "validate_sheaf", counted(validate_sheaf))
        monkeypatch.setattr(evasion.sheaf, "rank", counted(rank))
        sections = global_sections(sheaf)
        assert sections.decision.feasible
        assert sections.chain is None  # a simplex witness is not read as a chain
        assert calls == ["validate_sheaf", "rank"]
        # the matrix the simplex decided is the one read back, not a second build
        monkeypatch.setattr(ConeSheaf, "generator_images", counted(ConeSheaf.generator_images))
        assert sections.coboundary.cols == len(sections.column_labels)
        assert calls == ["validate_sheaf", "rank"]


class TestRefine:
    def test_refine_at_vertex_time_is_an_error(self):
        with pytest.raises(ValueError):
            refine(crossing_sheaf(True), Fraction(2))

    def test_refine_preserves_feasible_verdict_and_projected_support(self):
        sheaf = crossing_sheaf(True)
        base = global_sections(sheaf)
        refined_sheaf = refine(sheaf, Fraction(5, 2))
        refined = global_sections(refined_sheaf)
        assert refined.decision.feasible
        assert refined.kernel_dim == base.kernel_dim
        # map refined vertex ids back to original ones via their times
        times = {f"v{i + 1}": t for i, t in enumerate(refined_sheaf.strat.vertex_times)}
        original = {t: f"v{i + 1}" for i, t in enumerate(sheaf.strat.vertex_times)}
        support = {
            (original.get(times[cell]), lab)
            for (cell, lab), v in zip(refined.column_labels, refined.decision.witness)
            if v and times[cell] in original
        }
        base_support = {
            (cell, lab) for (cell, lab), v in zip(base.column_labels, base.decision.witness) if v
        }
        assert support == base_support

    def test_refine_preserves_infeasible_verdict(self):
        sheaf = crossing_sheaf(False)
        for t in (Fraction(1, 2), Fraction(7, 2), Fraction(9)):
            sections = global_sections(refine(sheaf, t))
            assert not sections.decision.feasible
            assert sections.kernel_dim == 1

    def test_refine_unbounded_edge_of_one_vertex_sheaf_adds_rows(self):
        strat = Stratification.make([0])
        sheaf = ConeSheaf(
            strat,
            (free(["a", "b"]),),
            (free(["a", "b"]), free(["a", "b"])),
            (Matrix.identity(2),),
            (Matrix.identity(2),),
        )
        base = global_sections(sheaf)
        assert base.coboundary.rows == 0
        refined = global_sections(refine(sheaf, Fraction(-3)))
        assert refined.coboundary.rows == 2
        assert refined.decision.feasible == base.decision.feasible


# ---------------------------------------------------------------------------
# properties

@given(st.integers(min_value=0, max_value=2**32 - 1), st.data())
@settings(max_examples=60, deadline=None)
def test_refinement_invariance_on_random_sheaves(seed, data):
    rng = Random(seed)
    sheaf = random_function_like_sheaf(rng)
    base = global_sections(sheaf)
    t = Fraction(data.draw(st.integers(min_value=-2, max_value=2 * sheaf.strat.k)) * 2 + 1, 2)
    refined = global_sections(refine(sheaf, t))
    assert refined.decision.feasible == base.decision.feasible
    assert refined.kernel_dim == base.kernel_dim


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=5))
@settings(max_examples=60, deadline=None)
def test_sign_flip_invariance(seed, flip_choice):
    # negating one row block of the coboundary cannot change the verdict
    rng = Random(seed)
    sheaf = random_function_like_sheaf(rng)
    sections = global_sections(sheaf)
    M = sections.coboundary
    if M.rows == 0:
        return
    edge_ids = sorted({cell for cell, _ in sections.row_labels})
    flipped_edge = edge_ids[flip_choice % len(edge_ids)]
    rows = []
    for i in range(M.rows):
        row = list(M.row(i))
        if sections.row_labels[i][0] == flipped_edge:
            row = [-v for v in row]
        rows.append(row)
    flipped = Matrix.from_rows(rows)
    assert lp_positive_kernel(flipped).feasible == sections.decision.feasible
    assert len(kernel_basis(flipped)) == sections.kernel_dim


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_lp_matches_dp_on_function_like_sheaves(seed):
    # global_sections decides these by the sweep; the simplex is called directly
    sheaf = random_function_like_sheaf(Random(seed))
    sections = global_sections(sheaf)
    exists, chain = dp_section_exists(sheaf)
    assert exists == sections.decision.feasible == lp_positive_kernel(sections.coboundary).feasible
    assert (sections.chain is None) == (not exists)
    # built from the sheaf on first read, then kept
    assert sections.coboundary is sections.coboundary
    assert sections.coboundary == assemble_coboundary(sheaf).coboundary
    if exists:
        assert section_chain(sections.sheaf, sections.chain) == chain
        k = sheaf.strat.k
        expected = [
            Fraction(1, k) if dict(chain)[cell] == lab else Fraction(0)
            for cell, lab in sections.column_labels
        ]
        assert list(sections.decision.witness) == expected
    else:
        assert is_valid_certificate(sections.coboundary, sections.decision.certificate)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_section_chain_labels_each_cell_and_refuses_another_length(seed):
    rng = Random(seed)
    sheaf = random_function_like_sheaf(rng)
    stalks = [(sheaf.edge_stalks, sheaf.vertex_stalks)[n % 2][n // 2] for n in range(2 * sheaf.strat.k + 1)]
    chain = tuple(rng.randrange(len(stalk.labels)) for stalk in stalks)
    labelled = tuple((cell, stalk.labels[g]) for cell, stalk, g in zip(sheaf.strat.cells, stalks, chain))
    assert section_chain(sheaf, chain) == labelled
    for wrong in (chain[:-1], (*chain, 0)):
        with pytest.raises(ValueError, match="does not name one per cell"):
            section_chain(sheaf, wrong)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_feasible_witness_blocks_lie_in_vertex_stalks(seed):
    sheaf = random_function_like_sheaf(Random(seed))
    sections = global_sections(sheaf)
    if not sections.decision.feasible:
        return
    x = sections.decision.witness
    assert any(x) and all(c >= 0 for c in x)
    assert not any(sections.coboundary.mul_vec(x))


class TestRefineNonFree:
    def test_refining_next_to_a_nonfree_stalk_preserves_the_verdict(self):
        wedge = PolyhedralCone.make([(1, 0), (1, 1)], labels=["a", "b"])
        orthant = free(["u", "w"])
        ident = Matrix.identity(2)
        sheaf = ConeSheaf(
            Stratification.make([0, 1]),
            (wedge, orthant),
            (orthant, orthant, orthant),
            (ident, ident),
            (ident, ident),
        )
        base = global_sections(sheaf)
        assert base.decision.feasible
        for t in (Fraction(-1), Fraction(1, 2), Fraction(3)):
            refined = global_sections(refine(sheaf, t))
            assert refined.decision.feasible
            assert refined.kernel_dim == base.kernel_dim
