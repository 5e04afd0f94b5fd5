"""Exact rational linear algebra.

Everything downstream (cone feasibility, coboundary kernels, certificates)
rides on this module, so all arithmetic is `fractions.Fraction`: the kernel
statements we certify are exact equalities and any floating tolerance would
manufacture wrong verdicts.

A matrix stores only its nonzeros, one dict of column -> Fraction per row,
and the elimination and simplex routines work on those rows, so the banded
systems produced by sheaves over a stratified line cost time and memory in
proportion to their nonzeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# perfbench/workloads.py reads parse_rational from this module
from evasion.formats import parse_rational

ZERO = Fraction(0)
ONE = Fraction(1)

Vec = tuple[Fraction, ...]
SparseRow = dict[int, Fraction]


def vec(items) -> Vec:
    """Coerce an iterable of int/str/Fraction into an exact vector."""
    return tuple(Fraction(x) for x in items)


@dataclass(frozen=True)
class Matrix:
    """Sparse rational matrix: the nonzeros of each row as {column: value}.

    Exact zeros are never stored, so equal matrices compare equal. The row
    dicts may be shared with whoever built the matrix and must not be
    mutated; `to_sparse_rows` hands out copies for in-place elimination.
    """

    rows: int
    cols: int
    nonzeros: tuple[SparseRow, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimension")
        if len(self.nonzeros) != self.rows:
            raise ValueError(f"a {self.rows}x{self.cols} matrix needs {self.rows} rows, got {len(self.nonzeros)}")
        for i, r in enumerate(self.nonzeros):
            for j, v in r.items():
                if not 0 <= j < self.cols or not v:
                    raise ValueError(f"row {i} stores {v} at column {j}; only nonzeros in columns 0..{self.cols - 1}")

    @classmethod
    def from_rows(cls, rows_data) -> "Matrix":
        """From dense rows of int/str/Fraction entries."""
        rows_data = [vec(r) for r in rows_data]
        ncols = len(rows_data[0]) if rows_data else 0
        if any(len(r) != ncols for r in rows_data):
            raise ValueError("ragged rows")
        return cls(len(rows_data), ncols, tuple({j: x for j, x in enumerate(r) if x} for r in rows_data))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, tuple({i: ONE} for i in range(n)))

    def row(self, i: int) -> Vec:
        r = self.nonzeros[i]
        return tuple(r.get(j, ZERO) for j in range(self.cols))

    def mul_vec(self, v) -> Vec:
        if len(v) != self.cols:
            raise ValueError(f"dimension mismatch: {self.rows}x{self.cols} @ {len(v)}")
        return tuple(sum((x * v[j] for j, x in r.items()), ZERO) for r in self.nonzeros)

    def to_sparse_rows(self) -> list[SparseRow]:
        return [dict(r) for r in self.nonzeros]


def columns(rows, ncols: int) -> list[SparseRow]:
    """The nonzeros of each column as {row: value}, in one pass over the rows."""
    out: list[SparseRow] = [{} for _ in range(ncols)]
    for i, r in enumerate(rows):
        for j, v in r.items():
            out[j][i] = v
    return out


def _echelon(rows) -> dict[int, SparseRow]:
    """Row echelon form: pivot column -> a row with 1 there and nothing before.

    Each row is reduced against the pivot rows of its leading columns until
    it vanishes or leads with a new pivot column, so no row waits on a scan
    of the others. The pivot columns are those outside the span of the
    columns before them, whatever the row order.
    """
    pivots: dict[int, SparseRow] = {}
    for r in rows:
        r = dict(r)
        while r:
            col = min(r)
            prow = pivots.get(col)
            if prow is None:
                pv = r[col]
                pivots[col] = r if pv == 1 else {j: v / pv for j, v in r.items()}
                break
            _row_sub(r, prow, r[col])
    return pivots


def rank(A: Matrix) -> int:
    """Rank of A over the rationals."""
    return len(_echelon(A.nonzeros))


def kernel_basis(A: Matrix) -> list[Vec]:
    """Exact rational basis of the null space of A; empty iff A is injective.

    One vector per non-pivot column: 1 there, 0 on the other non-pivot
    columns, and the pivot columns back-substituted from the last one.
    """
    pivots = _echelon(A.nonzeros)
    order = sorted(pivots, reverse=True)
    basis: list[Vec] = []
    for free in range(A.cols):
        if free in pivots:
            continue
        x = [ZERO] * A.cols
        x[free] = ONE
        for col in order:
            acc = sum((v * x[j] for j, v in pivots[col].items() if j != col and x[j]), ZERO)
            if acc:
                x[col] = -acc
        basis.append(tuple(x))
    return basis


def _row_sub(target: SparseRow, source: SparseRow, factor: Fraction) -> None:
    # target -= factor * source, dropping exact zeros
    for j, v in source.items():
        nv = target.get(j, ZERO) - factor * v
        if nv:
            target[j] = nv
        else:
            target.pop(j, None)


def solve_square_sparse(rows: list[SparseRow], rhs: list[Fraction]) -> list[Fraction]:
    """Solve a nonsingular sparse square system Ax = b exactly.

    The solution is the one kernel vector of [A | -b] whose last coordinate
    is 1: A is nonsingular iff the column of -b is the only non-pivot column.
    """
    n = len(rows)
    augmented = tuple({**r, n: -b} if b else r for r, b in zip(rows, rhs, strict=True))
    basis = kernel_basis(Matrix(n, n + 1, augmented))
    if len(basis) != 1 or basis[0][n] != 1:
        raise AssertionError("singular system")
    return list(basis[0][:n])


def kernel_ray(rows: list[SparseRow], ncols: int, objective=None):
    """Find a kernel point of M >= 0 with positive mass on the objective
    columns (all columns by default), or a dual vector proving none exists.

    Runs a bounded-variable simplex (Bland's rule) on max sum(x_j, j in
    objective) over {Mx = 0, 0 <= x <= 1}, starting from the artificial
    basis pinned to [0, 0]. Artificial columns are never materialised in
    the tableau (the dual is recovered at the end from one solve against
    the final basis), so a pivot updates only the entries M's own columns
    fill in, not an m-wide artificial block per row. The search stops at
    the first strictly positive objective value, since the simplex point
    is primal-feasible throughout and any positive mass already scales to
    a witness, so a feasible input pays no pivot past that point. Neither
    makes banded inputs near-linear: on the pulsing coboundary, n - 1 rows
    by n columns, the time grows about as n^2 (110 / 276 / 1081 ms at
    n = 100 / 200 / 400, min of 3 runs on 2 cores, CPython 3.11.7).
    ROADMAP item 20 is the open work on that.

    Returns (x, None) with x >= 0, sum(x) = 1, Mx = 0 exactly, or (None, u)
    with (M'u)_j >= 1 for every objective column j and >= 0 for the others
    (the optimum-zero duals: every variable is still at zero there).
    """
    m = len(rows)
    tableau = [dict(r) for r in rows]
    basis = [ncols + i for i in range(m)]  # artificial ids, columns kept implicit
    values = [ZERO] * m
    at_upper = [False] * ncols
    cost = dict.fromkeys(range(ncols) if objective is None else objective, ONE)
    obj = dict(cost)  # reduced costs, updated by every pivot
    z = ZERO

    def upper(var: int) -> Fraction:
        return ONE if var < ncols else ZERO  # artificials are pinned at zero

    while z == 0:
        entering = None
        for j, d in obj.items():
            if (d > 0 and not at_upper[j]) or (d < 0 and at_upper[j]):
                if entering is None or j < entering:
                    entering = j
        if entering is None:
            break
        sigma = -1 if at_upper[entering] else 1
        column = [(i, a) for i in range(m) if (a := tableau[i].get(entering))]
        # ratio test against basic bounds, plus the entering variable's own flip
        best_theta = ONE
        best_tie = entering
        best_row = None
        best_hits_upper = False
        for i, a in column:
            step = sigma * a
            if step > 0:
                theta = values[i] / step
                hits_upper = False
            else:
                theta = (upper(basis[i]) - values[i]) / (-step)
                hits_upper = True
            if theta < best_theta or (theta == best_theta and basis[i] < best_tie):
                best_theta, best_tie, best_row, best_hits_upper = theta, basis[i], i, hits_upper
        d = obj[entering]
        z += (d if sigma > 0 else -d) * best_theta
        if best_theta:
            for i, a in column:
                values[i] -= sigma * a * best_theta
        if best_row is None:
            at_upper[entering] = not at_upper[entering]
            continue
        p = best_row
        leaving = basis[p]
        if leaving < ncols:
            at_upper[leaving] = best_hits_upper
        prow = tableau[p]
        pv = prow[entering]
        if pv != 1:
            prow = {j: v / pv for j, v in prow.items()}
            tableau[p] = prow
        prow_items = list(prow.items())
        for i, f in column:
            if i == p:
                continue
            row = tableau[i]
            for j, v in prow_items:
                nv = row.get(j, ZERO) - f * v
                if nv:
                    row[j] = nv
                else:
                    row.pop(j, None)
        f = obj.get(entering)
        if f:
            _row_sub(obj, prow, f)
        basis[p] = entering
        values[p] = (upper(entering) if at_upper[entering] else ZERO) + sigma * best_theta
        at_upper[entering] = False  # basic now; flag only meaningful when nonbasic

    if z > 0:
        xs = [ZERO] * ncols
        for j in range(ncols):
            if at_upper[j]:
                xs[j] = ONE
        for i, var in enumerate(basis):
            if var < ncols:
                xs[var] = values[i]
        total = sum(xs, ZERO)
        if total <= 0:
            raise AssertionError("positive objective with nonpositive support")
        return [v / total for v in xs], None
    # optimum is zero: the duals of the final basis price every column at its cost or more
    cols = columns(rows, ncols)
    eqs: list[SparseRow] = []
    rhs: list[Fraction] = []
    for var in basis:
        if var < ncols:
            eqs.append(cols[var])
            rhs.append(cost.get(var, ZERO))
        else:
            eqs.append({var - ncols: ONE})
            rhs.append(ZERO)
    return None, solve_square_sparse(eqs, rhs)
