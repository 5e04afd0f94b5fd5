from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evasion.cli import sheaf_from_jsonable
from evasion.cones import PolyhedralCone, is_positive_cone, lp_positive_kernel
from evasion.linalg import Matrix, kernel_basis
from evasion.oracle import UnsupportedSheafError, dp_section_exists
from evasion.randgen import random_function_like_sheaf
from evasion.sheaf import ConeSheaf, Stratification, assemble_coboundary, global_sections

from conftest import load_fixture
from reference_chains import enumerate_sections, flow_decompose
from test_sheaf import crossing_sheaf, free


def fixture_sheaf(name: str) -> ConeSheaf:
    return sheaf_from_jsonable(load_fixture(name))


class TestDpSectionExists:
    def test_open_crossing_has_the_expected_chain(self):
        exists, chain = dp_section_exists(crossing_sheaf(True))
        assert exists
        assert dict(chain) == {
            "e1": "s",
            "v1": "t",
            "e2": "t",
            "v2": "m",
            "e3": "m",
            "v3": "m",
            "e4": "b",
            "v4": "b",
            "e5": "s",
        }

    def test_blocked_crossing_has_no_chain(self):
        exists, chain = dp_section_exists(crossing_sheaf(False))
        assert not exists and chain is None

    def test_double_lens_has_a_chain_and_four_sections(self):
        sheaf = fixture_sheaf("double_lens.json")
        exists, chain = dp_section_exists(sheaf)
        assert exists
        assert len(enumerate_sections(sheaf, cap=100)) == 4

    def test_non_free_stalk_is_unsupported(self):
        wedge = PolyhedralCone.make([(1, 0), (1, 1)])
        orthant = free(["u", "w"])
        ident = Matrix.identity(2)
        sheaf = ConeSheaf(
            Stratification.make([0]),
            (wedge,),
            (orthant, orthant),
            (ident,),
            (ident,),
        )
        with pytest.raises(UnsupportedSheafError):
            dp_section_exists(sheaf)

    def test_non_function_like_restriction_is_unsupported(self):
        merge = Matrix.from_rows([[1], [1]])  # one generator hitting two targets
        sheaf = ConeSheaf(
            Stratification.make([0]),
            (free(["a"]),),
            (free(["u", "w"]), free(["u", "w"])),
            (merge,),
            (merge,),
        )
        with pytest.raises(UnsupportedSheafError):
            dp_section_exists(sheaf)


class TestEnumerateSections:
    def test_line_has_one_section(self):
        assert len(enumerate_sections(fixture_sheaf("line.json"), cap=10)) == 1

    def test_reversal_has_no_sections(self):
        assert enumerate_sections(fixture_sheaf("reversal.json"), cap=10) == []

    def test_double_lens_sections_are_the_four_strand_pairs(self):
        chains = enumerate_sections(fixture_sheaf("double_lens.json"), cap=10)
        picks = {(dict(c)["v1"], dict(c)["v3"]) for c in chains}
        assert picks == {("p", "r"), ("p", "s"), ("q", "r"), ("q", "s")}

    def test_cap_truncates(self):
        chains = enumerate_sections(fixture_sheaf("double_lens.json"), cap=2)
        assert len(chains) == 2


class TestFlowDecompose:
    def test_open_crossing_witness_is_a_single_quarter_chain(self):
        sheaf = crossing_sheaf(True)
        sections = global_sections(sheaf)
        decomposition = flow_decompose(sheaf, sections.decision.witness)
        assert len(decomposition) == 1
        chain, weight = decomposition[0]
        assert weight == Fraction(1, 4)
        # cells alternate e1, v1, e2, ..., so every second one is a vertex's
        assert dict(chain[1::2]) == {"v1": "t", "v2": "m", "v3": "m", "v4": "b"}

    def test_two_disjoint_chains_are_recovered_with_weights(self):
        # two parallel strands, witness = (1*top + 2*bottom)/3
        strat = Stratification.make([0, 1])
        two = free(["a", "b"])
        ident = Matrix.identity(2)
        sheaf = ConeSheaf(strat, (two, two), (two, two, two), (ident, ident), (ident, ident))
        x = [Fraction(1, 6), Fraction(2, 6), Fraction(1, 6), Fraction(2, 6)]
        decomposition = flow_decompose(sheaf, x)
        weights = {dict(chain[1::2])["v1"]: w for chain, w in decomposition}
        assert weights == {"a": Fraction(1, 6), "b": Fraction(2, 6)}
        total = {}
        for chain, w in decomposition:
            for cell, lab in dict(chain[1::2]).items():
                total[(cell, lab)] = total.get((cell, lab), Fraction(0)) + w
        assert total == {
            ("v1", "a"): Fraction(1, 6),
            ("v1", "b"): Fraction(2, 6),
            ("v2", "a"): Fraction(1, 6),
            ("v2", "b"): Fraction(2, 6),
        }

    def test_bubble_section_plus_circle_class_cancels_to_one_chain(self):
        # kernel contains the two strand chains; circle class = top - bottom.
        # witness := bottom chain + circle class == top chain, one chain family.
        sheaf = fixture_sheaf("bubble.json")
        sections = global_sections(sheaf)
        assert sections.decision.feasible
        assert sections.kernel_dim == 2
        names = [f"{c}.{l}" for c, l in sections.column_labels]
        bottom = [Fraction(1, 2) if n in ("v1.bot", "v2.bot") else Fraction(0) for n in names]
        circle = {
            "v1.top": Fraction(1, 2),
            "v2.top": Fraction(1, 2),
            "v1.bot": Fraction(-1, 2),
            "v2.bot": Fraction(-1, 2),
        }
        witness = [b + circle.get(n, Fraction(0)) for n, b in zip(names, bottom)]
        assert not any(sections.coboundary.mul_vec(witness))  # still in the kernel
        decomposition = flow_decompose(sheaf, witness)
        assert len(decomposition) == 1
        chain, weight = decomposition[0]
        assert weight == Fraction(1, 2)
        assert dict(chain[1::2]) == {"v1": "top", "v2": "top"}

    def test_invalid_witness_is_rejected(self):
        sheaf = crossing_sheaf(True)
        with pytest.raises(ValueError):
            flow_decompose(sheaf, [Fraction(1)] * 8)  # not in the kernel
        with pytest.raises(ValueError):
            flow_decompose(sheaf, [Fraction(0)] * 8)  # zero


class TestPositiveConeOfSectionClasses:
    def test_double_lens_chain_images_generate_a_positive_cone(self):
        # chain indicators expressed in kernel coordinates: 4 vectors in R^3
        sheaf = fixture_sheaf("double_lens.json")
        sections = global_sections(sheaf)
        kernel = kernel_basis(sections.coboundary)
        assert len(kernel) == 3
        chains = enumerate_sections(sheaf, cap=10)
        names = [f"{c}.{l}" for c, l in sections.column_labels]
        vectors = []
        for chain in chains:
            labels = dict(chain[1::2])
            indicator = [Fraction(1) if n.split(".")[0] in labels and labels[n.split(".")[0]] == n.split(".")[1] else Fraction(0) for n in names]
            coords = _coordinates_in_basis(kernel, indicator)
            vectors.append(tuple(coords))
        K = PolyhedralCone.make(vectors)
        assert K.ambient_dim == 3 and len(K.generators) == 4
        assert is_positive_cone(K)


def _coordinates_in_basis(basis, target):
    """Solve sum_i c_i basis_i = target exactly (dense elimination oracle)."""
    n = len(target)
    m = len(basis)
    rows = [[basis[i][d] for i in range(m)] + [target[d]] for d in range(n)]
    pivots = []
    rank = 0
    for col in range(m):
        piv = next((r for r in range(rank, n) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [v / pv for v in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    for r in range(rank, n):
        assert not rows[r][m], "target is outside the span of the basis"
    coords = [Fraction(0)] * m
    for r, col in enumerate(pivots):
        coords[col] = rows[r][m]
    return coords


# ---------------------------------------------------------------------------
# properties

@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_dp_chain_indicator_is_a_kernel_element(seed):
    sheaf = random_function_like_sheaf(Random(seed))
    exists, chain = dp_section_exists(sheaf)
    if not exists:
        return
    sections = assemble_coboundary(sheaf)
    labels = dict(chain[1::2])
    indicator = [
        Fraction(1) if labels.get(cell) == lab else Fraction(0)
        for cell, lab in sections.column_labels
    ]
    assert any(indicator)
    assert not any(sections.coboundary.mul_vec(indicator))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_flow_decomposition_reassembles_the_witness(seed):
    # the simplex witness may mix several chains; the sweep's is one chain
    sheaf = random_function_like_sheaf(Random(seed))
    sections = assemble_coboundary(sheaf)
    decision = lp_positive_kernel(sections.coboundary)
    if not decision.feasible:
        return
    witness = decision.witness
    decomposition = flow_decompose(sheaf, witness)
    total = [Fraction(0)] * len(witness)
    for chain, w in decomposition:
        labels = dict(chain[1::2])
        for idx, (cell, lab) in enumerate(sections.column_labels):
            if labels.get(cell) == lab:
                total[idx] += w
        # every chain is itself a compatible section
        indicator = [
            Fraction(1) if labels.get(cell) == lab else Fraction(0)
            for cell, lab in sections.column_labels
        ]
        assert not any(sections.coboundary.mul_vec(indicator))
    assert total == list(witness)
