"""Finitely generated rational cones and certified feasibility queries.

A cone is given by generators in an ambient rational vector space; a cone is
*positive* when it meets its own negation only trivially. The feasibility
primitive is the positive-kernel query: does the kernel of a matrix contain
a nonzero nonnegative point? By Stiemke's alternative exactly one of two
things exists, and we always return the corresponding exact object:

  * a witness x with x >= 0, sum(x) = 1 and Ax = 0, or
  * a certificate y with (A'y)_j > 0 for every column j.

Both objects are re-checkable by third parties (see is_valid_certificate),
which is what makes the downstream verdicts trustworthy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from evasion.linalg import Matrix, Vec, ZERO, columns, kernel_ray, vec


@dataclass(frozen=True)
class FeasibilityResult:
    """A decision is its exact object: the witness when feasible, the
    certificate otherwise. Entries are exact rationals: `Fraction`s from the
    simplex, and `int`s in the integer potential the section sweep certifies
    with."""

    witness: Vec | None = None
    certificate: Vec | None = None

    @property
    def feasible(self) -> bool:
        return self.witness is not None


@dataclass(frozen=True)
class PolyhedralCone:
    """Cone generated by finitely many nonzero rational vectors.

    Generators need not be extreme rays; redundancy is allowed. A cone with
    no generators is the trivial cone {0}. A free cone (`free`) is its
    labels: its generators are None, standing for one unit vector per label,
    so that it costs memory in proportion to its labels.
    """

    ambient_dim: int
    generators: tuple[Vec, ...] | None
    labels: tuple[str, ...]

    def __post_init__(self):
        if self.ambient_dim < 0:
            raise ValueError("negative ambient dimension")
        if self.generators is None:
            if len(self.labels) != self.ambient_dim:
                raise ValueError("a free cone needs one label per ambient coordinate")
            return
        if len(self.labels) != len(self.generators):
            raise ValueError("labels must parallel generators")
        for g in self.generators:
            if len(g) != self.ambient_dim:
                raise ValueError("generator dimension mismatch")
            # tuple.count compares in C, and an entry that is the ZERO object
            # matches it without a call; `any` would call Fraction.__bool__ on each
            if g.count(ZERO) == len(g):
                raise ValueError("zero vector is not a valid generator")

    @classmethod
    def make(cls, generators, labels=None, ambient_dim=None) -> "PolyhedralCone":
        gens = tuple(vec(g) for g in generators)
        if ambient_dim is None:
            if not gens:
                raise ValueError("ambient_dim required for a generator-free cone")
            ambient_dim = len(gens[0])
        if labels is None:
            labels = tuple(f"g{i}" for i in range(len(gens)))
        return cls(ambient_dim, gens, tuple(labels))

    @classmethod
    def free(cls, labels) -> "PolyhedralCone":
        """Nonnegative orthant on one basis vector per label."""
        labels = tuple(labels)
        return cls(len(labels), None, labels)

    @cached_property
    def is_free(self) -> bool:
        if self.generators is None:
            return True
        if self.ambient_dim != len(self.generators):
            return False
        # tuple.count compares in C, and an entry that is the ZERO object matches it without a call
        n = self.ambient_dim
        return all(g[i] == 1 and g.count(ZERO) == n - 1 for i, g in enumerate(self.generators))

    @cached_property
    def coordinate_labels(self) -> tuple[str, ...]:
        """Names of the ambient coordinates: the generator labels of a free
        cone, x0, x1, ... of any other."""
        return self.labels if self.is_free else tuple(f"x{d}" for d in range(self.ambient_dim))

    def generator_matrix(self) -> Matrix:
        """Columns are the generators (ambient_dim x num_generators) of a cone given by vectors."""
        gens = self.generators
        rows = tuple({g: v[d] for g, v in enumerate(gens) if v[d]} for d in range(self.ambient_dim))
        return Matrix(self.ambient_dim, len(gens), rows)


def lp_positive_kernel(A: Matrix) -> FeasibilityResult:
    """Find a nonzero nonnegative kernel point of A, or certify none exists.

    The bounded simplex (`linalg.kernel_ray`) maximises sum(x) over the box
    0 <= x <= 1 inside the kernel; Bland pivoting makes the outcome exact
    and deterministic. The witness is re-checked as a normalised nonnegative
    kernel point and the certificate by `is_valid_certificate`; a matrix with
    no columns gets the simplex's all-zero dual, which certifies vacuously.
    """
    witness, certificate = kernel_ray(A.nonzeros, A.cols)
    if witness is not None:
        if any(c < 0 for c in witness) or sum(witness) != 1 or any(A.mul_vec(witness)):
            raise AssertionError("witness is not a normalised nonnegative kernel point")
        return FeasibilityResult(witness=tuple(witness))
    if not is_valid_certificate(A, certificate):
        raise AssertionError("simplex produced an invalid infeasibility certificate")
    return FeasibilityResult(certificate=tuple(certificate))


def is_valid_certificate(A: Matrix, y) -> bool:
    """True iff every component of A'y is strictly positive.

    Such a y proves {x >= 0, x != 0, Ax = 0} empty: pairing Ax = 0 with y
    gives sum_j (A'y)_j x_j = 0 with strictly positive weights.
    """
    y = vec(y)
    if len(y) != A.rows:
        raise ValueError(f"certificate length {len(y)} does not match {A.rows} rows")
    return all(sum((v * y[i] for i, v in col.items()), ZERO) > 0 for col in columns(A.nonzeros, A.cols))


def cone_membership(v, K: PolyhedralCone) -> bool:
    """Is v a nonnegative combination of K's generators?

    The zero vector is always a member (the empty combination); callers who
    need the strict convention that positive cones exclude zero must test
    for zero separately.
    """
    v = vec(v)
    if len(v) != K.ambient_dim:
        raise ValueError(f"vector dim {len(v)} does not match ambient dim {K.ambient_dim}")
    if K.is_free:
        return all(c >= 0 for c in v)
    if not any(v):
        return True
    # a kernel point of [G | -v] with mass on the -v column is G lam = s v with s > 0
    n = len(K.generators)
    rows = [{**r, n: -c} if c else r for r, c in zip(K.generator_matrix().nonzeros, v)]
    x, _ = kernel_ray(rows, n + 1, objective=(n,))
    return x is not None


def is_positive_cone(K: PolyhedralCone) -> bool:
    """True iff K meets -K only in the origin.

    Equivalent formulation used here: no nonnegative, l1-normalised
    combination of generators hits zero. Free cones, and cones whose
    generators are all componentwise nonnegative, sit inside an orthant and
    are positive without any search.
    """
    if K.is_free:
        return True
    if all(all(c >= 0 for c in g) for g in K.generators):
        return True
    return not lp_positive_kernel(K.generator_matrix()).feasible
