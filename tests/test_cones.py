import tracemalloc
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evasion.cones
from evasion.cones import (
    PolyhedralCone,
    cone_membership,
    is_positive_cone,
    is_valid_certificate,
    lp_positive_kernel,
)
from evasion.linalg import ONE, ZERO, Matrix, columns, kernel_basis, kernel_ray, rank
from evasion.randgen import random_function_like_sheaf
from evasion.sheaf import global_sections

from golden import BLOCKED_COBOUNDARY, OPEN_COBOUNDARY
from reference_lp import solve_nonneg

# column order for both golden matrices: v1.t, v2.t, v2.m, v2.b, v3.t, v3.m, v3.b, v4.b
OPEN_SUPPORT_COLUMNS = {0, 2, 5, 7}


def frac_matrix(rows):
    return Matrix.from_rows(rows)


class TestLpPositiveKernel:
    def test_zero_map_is_feasible(self):
        res = lp_positive_kernel(Matrix.from_rows([[0]]))
        assert res.feasible
        assert res.witness == (Fraction(1),)

    def test_open_crossing_matrix_witness(self):
        res = lp_positive_kernel(OPEN_COBOUNDARY)
        assert res.feasible
        support = {j for j, v in enumerate(res.witness) if v}
        assert support == OPEN_SUPPORT_COLUMNS
        assert all(res.witness[j] == Fraction(1, 4) for j in support)

    def test_blocked_crossing_matrix_certificate(self):
        res = lp_positive_kernel(BLOCKED_COBOUNDARY)
        assert not res.feasible
        assert res.certificate is not None
        assert is_valid_certificate(BLOCKED_COBOUNDARY, res.certificate)

    def test_no_columns_get_the_vacuous_zero_certificate(self):
        matrix = Matrix.from_rows([[], []])
        res = lp_positive_kernel(matrix)
        assert (res.witness, res.certificate) == (None, (0, 0))
        assert is_valid_certificate(matrix, res.certificate)

    @pytest.mark.parametrize(
        "matrix, answer",
        [
            # the open witness with its weight moved off one support column
            (OPEN_COBOUNDARY, ([Fraction(1, 2), 0, 0, 0, 0, Fraction(1, 4), 0, Fraction(1, 4)], None)),
            # a dual vector that pairs to zero with every column
            (BLOCKED_COBOUNDARY, (None, [Fraction(0)] * BLOCKED_COBOUNDARY.rows)),
        ],
        ids=["bad_witness", "bad_dual"],
    )
    def test_wrong_simplex_answers_are_caught(self, matrix, answer, monkeypatch):
        monkeypatch.setattr(evasion.cones, "kernel_ray", lambda rows, ncols: answer)
        with pytest.raises(AssertionError):
            lp_positive_kernel(matrix)


class TestKernelBasis:
    def test_injective_map_has_trivial_kernel(self):
        assert kernel_basis(Matrix.identity(2)) == []

    def test_open_crossing_kernel_is_the_witness_ray(self):
        basis = kernel_basis(OPEN_COBOUNDARY)
        assert len(basis) == 1
        (gen,) = basis
        support = {j for j, v in enumerate(gen) if v}
        assert support == OPEN_SUPPORT_COLUMNS
        vals = {gen[j] for j in support}
        assert len(vals) == 1  # proportional to the 0/1 indicator

    def test_blocked_crossing_kernel_generator(self):
        basis = kernel_basis(BLOCKED_COBOUNDARY)
        assert len(basis) == 1
        (gen,) = basis
        expected = (1, 1, -1, 1, 1, -1, 1, 1)
        scale = gen[0]
        assert scale != 0
        assert tuple(v / scale for v in gen) == tuple(Fraction(e) for e in expected)

    def test_each_basis_vector_is_in_the_kernel(self):
        for M in (OPEN_COBOUNDARY, BLOCKED_COBOUNDARY):
            for v in kernel_basis(M):
                assert not any(M.mul_vec(v))


class TestConeMembership:
    def test_generator_is_a_member(self):
        K = PolyhedralCone.make([(1, 2), (3, 1)])
        assert cone_membership((1, 2), K)

    def test_orthant_excludes_negative_coordinates(self):
        K = PolyhedralCone.free(["x", "y"])
        assert not cone_membership((1, -1), K)

    def test_two_generator_cone_membership_by_hand(self):
        # (3,1) = 2*(1,0) + 1*(1,1), solved by hand
        K = PolyhedralCone.make([(1, 0), (1, 1)])
        assert cone_membership((3, 1), K)
        assert not cone_membership((1, 2), K)

    def test_zero_vector_is_member_by_convention(self):
        K = PolyhedralCone.make([(1, 1)])
        assert cone_membership((0, 0), K)
        assert cone_membership((0,), PolyhedralCone(1, (), ()))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cone_membership((1, 0, 0), PolyhedralCone.free(["x", "y"]))


class TestIsPositiveCone:
    def test_orthant_is_positive(self):
        assert is_positive_cone(PolyhedralCone.free(["x", "y", "z"]))

    def test_line_is_not_positive(self):
        assert not is_positive_cone(PolyhedralCone.make([(1, 0), (-1, 0)]))

    def test_mixed_sign_but_pointed_cone_is_positive(self):
        assert is_positive_cone(PolyhedralCone.make([(1, -1), (1, 1)]))

    def test_trivial_cone_is_positive(self):
        assert is_positive_cone(PolyhedralCone(2, (), ()))


class TestIsValidCertificate:
    def test_zero_matrix_has_no_certificate(self):
        assert not is_valid_certificate(Matrix.from_rows([[0, 0], [0, 0]]), (1, 1))

    def test_one_by_one(self):
        assert is_valid_certificate(Matrix.from_rows([[1]]), (1,))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            is_valid_certificate(Matrix.from_rows([[0, 0], [0, 0]]), (1,))


# ---------------------------------------------------------------------------
# properties

small_entries = st.integers(min_value=-4, max_value=4)


@st.composite
def small_matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=5))
    cols = draw(st.integers(min_value=1, max_value=5))
    data = draw(
        st.lists(
            st.lists(small_entries, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return Matrix.from_rows(data)


def dense_rank(M: Matrix) -> int:
    # independent oracle: plain dense elimination
    rows = [list(M.row(i)) for i in range(M.rows)]
    rank = 0
    for col in range(M.cols):
        piv = next((i for i in range(rank, M.rows) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [v / pv for v in rows[rank]]
        for i in range(M.rows):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@given(small_matrices())
@settings(max_examples=150, deadline=None)
def test_stiemke_alternative_is_exclusive(M):
    res = lp_positive_kernel(M)
    if res.feasible:
        x = res.witness
        assert all(c >= 0 for c in x)
        assert sum(x) == 1
        assert not any(M.mul_vec(x))
        # a witness rules out any certificate
        assert res.certificate is None
    else:
        assert is_valid_certificate(M, res.certificate)


@given(small_matrices())
@settings(max_examples=150, deadline=None)
def test_kernel_count_matches_rank_deficiency(M):
    basis = kernel_basis(M)
    assert rank(M) == dense_rank(M)
    assert len(basis) == M.cols - dense_rank(M)
    for v in basis:
        assert not any(M.mul_vec(v))
    if basis:
        # linear independence: stack as rows and re-rank
        stacked = Matrix.from_rows([list(v) for v in basis])
        assert dense_rank(stacked) == len(basis)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_kernel_dim_is_columns_minus_dense_rank(seed):
    sections = global_sections(random_function_like_sheaf(Random(seed)))
    cob = sections.coboundary
    assert sections.kernel_dim == cob.cols - dense_rank(cob)


def test_a_free_cone_makes_no_fraction_truth_test(monkeypatch):
    # the zero-generator test counts ZERO in C; `any(g)` made 51,681 calls for 321 labels
    calls = []
    truth = Fraction.__bool__
    monkeypatch.setattr(Fraction, "__bool__", lambda q: calls.append(q) or truth(q))
    K = PolyhedralCone.free([f"c{i}" for i in range(321)])
    assert (len(calls), len(K.labels), K.is_free) == (0, 321, True)


def test_a_free_cone_hashes_and_compares_without_its_unit_vectors():
    # a free cone is its labels: 2,000 dense unit vectors of 2,000 entries would take about 32 MB
    labels = [f"c{i}" for i in range(2000)]
    tracemalloc.start()
    try:
        K, L = PolyhedralCone.free(labels), PolyhedralCone.free(labels)
        same = (hash(K) == hash(L), K == L, K.is_free, K.generators)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert same == (True, True, True, None)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PolyhedralCone(-1, (), ()), "negative ambient dimension"),
        (lambda: PolyhedralCone.make([]), "ambient_dim required for a generator-free cone"),
        (lambda: PolyhedralCone(1, ((ONE,),), ("a", "b")), "labels must parallel generators"),
        (lambda: PolyhedralCone(2, None, ("a",)), "a free cone needs one label per ambient coordinate"),
        (lambda: PolyhedralCone.make([(1, 0), (1,)]), "generator dimension mismatch"),
    ],
    ids=["negative-dimension", "no-generators-no-dimension", "labels", "free-labels", "generator-dimension"],
)
def test_an_invalid_cone_is_refused(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Matrix(-1, 0, ()), "negative matrix dimension"),
        (lambda: Matrix(2, 1, ({0: ONE},)), "a 2x1 matrix needs 2 rows, got 1"),
        (lambda: Matrix(1, 1, ({1: ONE},)), "row 0 stores 1 at column 1; only nonzeros in columns 0..0"),
        (lambda: Matrix(1, 1, ({0: ZERO},)), "row 0 stores 0 at column 0; only nonzeros in columns 0..0"),
        (lambda: Matrix.from_rows([[1], [1, 2]]), "ragged rows"),
        (lambda: Matrix.identity(2).mul_vec((ONE,)), "dimension mismatch: 2x2 @ 1"),
    ],
    ids=["negative-dimension", "row-count", "column-out-of-range", "stored-zero", "ragged", "mul-vec"],
)
def test_an_invalid_matrix_is_refused(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "zero",
    [(ZERO, ZERO), (Fraction(0), Fraction(0, 5)), (0, 0), ()],
    ids=["ZERO", "equal-fractions", "ints", "empty"],
)
def test_a_zero_generator_is_rejected(zero):
    ambient = len(zero)
    gens = ((ONE,) * ambient, zero) if ambient else (zero,)
    with pytest.raises(ValueError) as exc:
        PolyhedralCone(ambient, gens, tuple(f"g{i}" for i in range(len(gens))))
    assert str(exc.value) == "zero vector is not a valid generator"


@given(st.lists(st.lists(small_entries, min_size=3, max_size=3), min_size=0, max_size=4))
@settings(max_examples=100, deadline=None)
def test_orthant_membership_is_componentwise(vectors):
    K = PolyhedralCone.free(["a", "b", "c"])
    for v in vectors:
        assert cone_membership(v, K) == all(c >= 0 for c in v)


@st.composite
def generated_cones(draw):
    dim = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=4))
    gens = []
    for _ in range(n):
        g = draw(
            st.lists(small_entries, min_size=dim, max_size=dim).filter(lambda v: any(v))
        )
        gens.append(tuple(g))
    return PolyhedralCone.make(gens)


@given(generated_cones(), st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=4))
@settings(max_examples=150, deadline=None)
def test_positive_cones_have_no_nonneg_kernel(K, lam):
    if not is_positive_cone(K):
        return
    lam = lam[: len(K.generators)]
    if not any(lam):
        return
    combo = [
        sum((Fraction(l) * g[d] for l, g in zip(lam, K.generators)), Fraction(0))
        for d in range(K.ambient_dim)
    ]
    assert any(combo), "nonzero nonnegative combination vanished in a positive cone"


@st.composite
def membership_cases(draw):
    # mixed-sign generators, plus a negated copy of one of them half the
    # time, which makes the cone contain a line (not pointed)
    K = draw(generated_cones())
    gens = list(K.generators)
    if draw(st.booleans()):
        gens.append(tuple(-c for c in draw(st.sampled_from(gens))))
    v = draw(st.lists(small_entries, min_size=K.ambient_dim, max_size=K.ambient_dim))
    return PolyhedralCone.make(gens), v


@given(membership_cases())
@settings(max_examples=300, deadline=None)
def test_cone_membership_agrees_with_phase_one(case):
    K, v = case
    x, _ = solve_nonneg(K.generator_matrix().nonzeros, len(K.generators), [Fraction(c) for c in v])
    assert cone_membership(v, K) == (x is not None)


@given(small_matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_kernel_ray_answers_for_its_objective_columns(M, data):
    objective = data.draw(st.sets(st.integers(min_value=0, max_value=M.cols - 1), min_size=1))
    x, u = kernel_ray(M.to_sparse_rows(), M.cols, objective=sorted(objective))
    if x is not None:
        assert min(x) >= 0 and sum(x) == 1 and not any(M.mul_vec(x))
        assert any(x[j] for j in objective)
    else:
        priced = [sum((v * u[i] for i, v in col.items()), Fraction(0)) for col in columns(M.nonzeros, M.cols)]
        assert all(p >= (1 if j in objective else 0) for j, p in enumerate(priced))


@given(small_matrices())
@settings(max_examples=150, deadline=None)
def test_bounded_simplex_agrees_with_phase_one_formulation(M):
    # same question, two formulations: max-support over the box versus a
    # phase-one simplex on the explicit unit-sum row
    from evasion.linalg import ONE, ZERO

    rows = M.to_sparse_rows()
    rows.append({j: ONE for j in range(M.cols)})
    rhs = [ZERO] * M.rows + [ONE]
    x_phase1, _ = solve_nonneg(rows, M.cols, rhs)
    x_ray, _ = kernel_ray(M.to_sparse_rows(), M.cols)
    assert (x_phase1 is None) == (x_ray is None)


@given(st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=100, deadline=None)
def test_solve_square_sparse_solves_random_nonsingular_systems(n, data):
    from evasion.linalg import solve_square_sparse

    # build a guaranteed-nonsingular matrix: unit diagonal plus noise, kept
    # when the dense oracle confirms full rank
    entries = data.draw(
        st.lists(st.lists(small_entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )
    for i in range(n):
        entries[i][i] = entries[i][i] or 1
    M = Matrix.from_rows(entries)
    if dense_rank(M) < n:
        return
    rhs = [Fraction(v) for v in data.draw(st.lists(small_entries, min_size=n, max_size=n))]
    solution = solve_square_sparse(M.to_sparse_rows(), rhs)
    assert list(M.mul_vec(solution)) == rhs


@pytest.mark.parametrize("rhs", [(ONE, ONE), (ONE, 2 * ONE)], ids=["consistent", "inconsistent"])
def test_solve_square_sparse_refuses_a_singular_system(rhs):
    from evasion.linalg import solve_square_sparse

    with pytest.raises(AssertionError, match="singular system"):
        solve_square_sparse([{0: ONE, 1: ONE}, {0: ONE, 1: ONE}], list(rhs))
