"""Phase-one simplex for {x >= 0 : Mx = b}, the reference for the bounded simplex.

`evasion.linalg.kernel_ray` is the package's one simplex. This is the
textbook formulation it replaced for cone membership: explicit artificial
columns, a phase-one objective and a Farkas vector on infeasibility. Tests
compare the two on the same questions.
"""

from fractions import Fraction

from evasion.linalg import ONE, ZERO, SparseRow


def _row_sub(target: SparseRow, source: SparseRow, factor: Fraction) -> None:
    # target -= factor * source, dropping exact zeros
    for j, v in source.items():
        nv = target.get(j, ZERO) - factor * v
        if nv:
            target[j] = nv
        else:
            target.pop(j, None)


def solve_nonneg(rows: list[SparseRow], ncols: int, rhs: list[Fraction]):
    """Decide {x >= 0 : Mx = b} by an exact phase-one simplex (Bland's rule).

    Returns (x, None) with an exact feasible point, or (None, u) with a
    Farkas vector satisfying u'M <= 0 componentwise and u'b > 0. Bland's
    pivoting rule guarantees termination despite degeneracy.
    """
    m = len(rows)
    if len(rhs) != m:
        raise ValueError("rhs length does not match row count")
    tableau: list[SparseRow] = []
    b: list[Fraction] = []
    flips: list[int] = []
    for i in range(m):
        r = dict(rows[i])
        bb = rhs[i]
        if bb < 0:
            r = {j: -v for j, v in r.items()}
            bb = -bb
            flips.append(-1)
        else:
            flips.append(1)
        r[ncols + i] = ONE  # artificial variable
        tableau.append(r)
        b.append(bb)
    basis = [ncols + i for i in range(m)]
    # reduced costs for phase-one objective (minimise the artificial sum)
    obj: SparseRow = {}
    for r in tableau:
        for j, v in r.items():
            if j < ncols:
                nv = obj.get(j, ZERO) - v
                if nv:
                    obj[j] = nv
                else:
                    obj.pop(j, None)
    objval = sum(b, ZERO)

    while True:
        entering = None
        for j, v in obj.items():
            if v < 0 and (entering is None or j < entering):
                entering = j
        if entering is None:
            break
        best = None
        for i in range(m):
            a = tableau[i].get(entering)
            if a and a > 0:
                key = (b[i] / a, basis[i])
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:
            raise AssertionError("phase-one objective cannot be unbounded")
        p = best[1]
        prow = tableau[p]
        pv = prow[entering]
        if pv != 1:
            prow = {j: v / pv for j, v in prow.items()}
            tableau[p] = prow
            b[p] /= pv
        bp = b[p]
        for i in range(m):
            if i == p:
                continue
            f = tableau[i].get(entering)
            if f:
                _row_sub(tableau[i], prow, f)
                if bp:
                    b[i] -= f * bp
        f = obj.get(entering)
        if f:
            _row_sub(obj, prow, f)
            objval += f * bp  # reduced cost is negative: the artificial sum drops
        basis[p] = entering

    if objval == 0:
        xs = [ZERO] * ncols
        for i, bv in enumerate(basis):
            if bv < ncols:
                xs[bv] = b[i]
        return xs, None
    if objval < 0:
        raise AssertionError("phase-one objective went negative")
    u = [(ONE - obj.get(ncols + i, ZERO)) * flips[i] for i in range(m)]
    return None, u
