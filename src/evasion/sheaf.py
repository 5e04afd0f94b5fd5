"""Cellular sheaves of cones on a stratified real line.

The base space is the time axis, stratified by finitely many vertices into
vertices v1..vk and open edges e1..e{k+1} (e1 and e{k+1} unbounded). A cone
sheaf assigns a positive polyhedral cone to every cell and a linear cone map
from each vertex stalk into its two incident edge stalks.

Global sections are the nonzero families of vertex-stalk elements agreeing
on every shared edge. Agreement is encoded as the kernel of one signed block
matrix (rows: precompact edge stalks; columns: vertex stalk generators; the
left endpoint of an edge enters negatively, the right endpoint positively;
unbounded edges contribute no rows since they have noncompact closure).
Writing each vertex element in generator coordinates turns "nonzero section
exists" into a positive-kernel LP.

Two deciders answer that LP, and each re-checks its own witness or
certificate exactly:

  * Function-like sheaves (every stalk free, every restriction a 0/1 matrix
    with exactly one 1 per column) are decided as `FunctionSheaf`s, which
    keep each restriction as the tuple of its generators' images. Scene
    sheaves are built so, and `generator_maps` converts a hand-written one.
    The coboundary is a node-arc incidence matrix: edge generators are nodes
    and each vertex generator an arc from its left to its right image. A
    left-to-right reachability sweep decides it in O(#generators), building
    no matrix, and emits both Stiemke objects (`section_sweep`). Its section
    chain, one generator per cell, is kept on the result: the witness is
    built from it, and `section_chain` labels it. kernel_dim is a cycle rank.
    `sweep_sections` takes this path or raises UnsupportedSheafError.
  * Every other sheaf goes to the bounded simplex (`cones.lp_positive_kernel`),
    which also serves as the independent cross-check of the sweep and
    answers a coboundary with no columns.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import add

from evasion.cones import (
    FeasibilityResult,
    PolyhedralCone,
    cone_membership,
    is_positive_cone,
    lp_positive_kernel,
)
from evasion.linalg import Matrix, ONE, SparseRow, ZERO, columns, rank

CellLabel = tuple[str, str]  # (cell id, generator label)
# per vertex: (left edge generator, right edge generator) of each vertex generator
GeneratorMaps = tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
# one generator index per cell in time order: e1, v1, e2, ..., vk, e(k+1)
Chain = tuple[int, ...]


@dataclass(frozen=True)
class Stratification:
    """Strictly increasing critical times; k times induce k vertices and k+1 edges.
    Whoever builds one keeps the order; the sheaf reader checks the times it reads."""

    vertex_times: tuple[Fraction, ...]

    @classmethod
    def make(cls, times) -> "Stratification":
        return cls(tuple(Fraction(t) for t in times))

    @property
    def k(self) -> int:
        return len(self.vertex_times)

    @cached_property
    def cells(self) -> tuple[str, ...]:
        """Every cell id in time order: e1, v1, e2, ..., vk, e(k+1), each
        formatted once; the edge and the vertex ids are interleaved by two
        slice assignments."""
        k = len(self.vertex_times)
        cells: list = [None] * (2 * k + 1)
        cells[0::2] = [f"e{n}" for n in range(1, k + 2)]
        cells[1::2] = [f"v{n}" for n in range(1, k + 1)]
        return tuple(cells)

    def vertex_id(self, i: int) -> str:
        return self.cells[2 * i + 1]

    def edge_id(self, j: int) -> str:
        return self.cells[2 * j]

    def find_edge(self, t: Fraction) -> int:
        """Index of the open edge containing t; error if t is a vertex time."""
        pos = bisect_left(self.vertex_times, t)
        if pos < self.k and self.vertex_times[pos] == t:
            raise ValueError(f"t={t} is a vertex time, not interior to an edge")
        return pos


@dataclass(frozen=True)
class ConeSheaf:
    """Stalks plus restriction matrices; vertex i maps left into edge i and
    right into edge i+1. Restriction matrices act on ambient coordinates;
    readers take them as generator images (`generator_images`)."""

    strat: Stratification
    vertex_stalks: tuple[PolyhedralCone, ...]
    edge_stalks: tuple[PolyhedralCone, ...]
    left_maps: tuple[Matrix, ...]
    right_maps: tuple[Matrix, ...]

    def __post_init__(self):
        k = self.strat.k
        if len(self.vertex_stalks) != k:
            raise ValueError(f"expected {k} vertex stalks, got {len(self.vertex_stalks)}")
        if len(self.edge_stalks) != k + 1:
            raise ValueError(f"expected {k + 1} edge stalks, got {len(self.edge_stalks)}")
        if len(self.left_maps) != k or len(self.right_maps) != k:
            raise ValueError("need one left and one right restriction per vertex")
        for i, j, M in self.incidences():
            if M.rows != self.edge_stalks[j].ambient_dim or M.cols != self.vertex_stalks[i].ambient_dim:
                raise ValueError(
                    f"restriction {self.strat.vertex_id(i)}->{self.strat.edge_id(j)} "
                    f"has shape {M.rows}x{M.cols}, expected "
                    f"{self.edge_stalks[j].ambient_dim}x{self.vertex_stalks[i].ambient_dim}"
                )

    def incidences(self):
        """Yield (vertex index, edge index, matrix) for every vertex/edge incidence."""
        for i in range(self.strat.k):
            yield i, i, self.left_maps[i]
            yield i, i + 1, self.right_maps[i]

    def generator_images(self):
        """Yield (vertex index, edge index, images) in `incidences` order: the
        image of each vertex generator, as {coordinate: value}. For a free
        stalk the images are the columns of the matrix."""
        for i, j, M in self.incidences():
            stalk = self.vertex_stalks[i]
            if stalk.is_free:
                yield i, j, columns(M.nonzeros, M.cols)
            else:
                yield i, j, [{d: v for d, v in enumerate(M.mul_vec(gen)) if v} for gen in stalk.generators]


@dataclass(frozen=True)
class FunctionSheaf:
    """A free, function-like sheaf, valid as it stands: maps[i] holds the
    left and the right image of each generator of vertex i, which readers
    take as generator images; the sheaf writer and `refine` take matrices."""

    strat: Stratification
    vertex_stalks: tuple[PolyhedralCone, ...]
    edge_stalks: tuple[PolyhedralCone, ...]
    maps: GeneratorMaps

    def incidences(self):
        """Like `ConeSheaf.incidences`, one 0/1 matrix per distinct image tuple and target size."""
        built: dict[tuple[tuple[int, ...], int], Matrix] = {}
        for i, images in enumerate(self.maps):
            for j, image in enumerate(images, i):
                key = (image, len(self.edge_stalks[j].labels))
                if key not in built:  # the columns {row: 1}, transposed
                    built[key] = Matrix(key[1], len(image), tuple(columns(({r: ONE} for r in image), key[1])))
                yield i, j, built[key]

    def generator_images(self):
        """Like `ConeSheaf.generator_images`: {r: 1} for each entry r of an image tuple."""
        for i, images in enumerate(self.maps):
            for j, image in enumerate(images, i):
                yield i, j, [{r: ONE} for r in image]


@dataclass(frozen=True)
class SheafViolation:
    vertex: str | None
    edge: str | None
    generator: str | None
    message: str


class SheafValidationError(ValueError):
    def __init__(self, violations: tuple[SheafViolation, ...]):
        self.violations = violations
        lines = "; ".join(v.message for v in violations[:5])
        super().__init__(f"invalid cone sheaf: {lines}")


class UnsupportedSheafError(ValueError):
    """Sheaf is outside the free, function-like class the sweep decides."""


def section_chain(S: ConeSheaf, chain: Chain) -> tuple[CellLabel, ...]:
    """The (cell id, generator label) of a chain of generator indices, one
    per cell in time order, unbounded edges included; a ValueError if the
    chain has another length.

    The stalks are interleaved in cell order by two slice assignments, and
    each label is read by one comprehension over the cells, the stalks and
    the chain."""
    cells = S.strat.cells
    if len(chain) != len(cells):
        raise ValueError(f"a chain of {len(chain)} generators does not name one per cell of {len(cells)}")
    stalks: list = [None] * len(cells)
    stalks[0::2], stalks[1::2] = S.edge_stalks, S.vertex_stalks
    return tuple([(cell, stalk.labels[c]) for cell, stalk, c in zip(cells, stalks, chain)])


@dataclass(frozen=True)
class GlobalSections:
    """Global sections of a cone sheaf: the labelled coboundary, plus the decision.

    Columns are vertex-stalk generators, rows are ambient coordinates of
    precompact edge stalks (for free stalks those coincide with labelled
    generators). The labels and the matrix are built from the sheaf on first
    read: `row_labels` and `column_labels` as (cell id, label) pairs,
    `row_names` and `column_names` as the "cell.label" strings a report
    prints, each formatted once from `Stratification.cells` and the stalk
    labels. kernel_dim (columns minus rank) and decision are None when only
    the coboundary was asked for (`assemble_coboundary`). chain is the
    sweep's section chain, one generator index per cell in time order
    (`section_chain` labels it), on a feasible sweep decision; the witness
    is built from it. It is None for every other decision.
    """

    sheaf: ConeSheaf | FunctionSheaf = field(repr=False)
    kernel_dim: int | None = None
    decision: FeasibilityResult | None = None
    chain: Chain | None = None

    @cached_property
    def row_labels(self) -> tuple[CellLabel, ...]:
        return tuple((cell, lab) for cell, stalk in _row_stalks(self.sheaf) for lab in stalk.coordinate_labels)

    @cached_property
    def column_labels(self) -> tuple[CellLabel, ...]:
        return tuple((cell, lab) for cell, stalk in _column_stalks(self.sheaf) for lab in stalk.labels)

    @cached_property
    def row_names(self) -> tuple[str, ...]:
        return tuple([f"{cell}.{lab}" for cell, stalk in _row_stalks(self.sheaf) for lab in stalk.coordinate_labels])

    @cached_property
    def column_names(self) -> tuple[str, ...]:
        return tuple([f"{cell}.{lab}" for cell, stalk in _column_stalks(self.sheaf) for lab in stalk.labels])

    @cached_property
    def coboundary(self) -> Matrix:
        """The signed substituted coboundary D*G, read from the generator images."""
        S = self.sheaf
        col_offsets = [0, *accumulate(len(stalk.labels) for stalk in S.vertex_stalks)]
        # the first row of each edge; the unbounded edges have none, so their maps are zeroed out
        row_offsets = [0, 0, *accumulate(stalk.ambient_dim for stalk in S.edge_stalks[1:-1])]
        rows: list[SparseRow] = [{} for _ in range(row_offsets[-1])]
        k = len(S.vertex_stalks)
        for i, j, images in S.generator_images():
            if 0 < j < k:  # an edge's left endpoint (vertex j - 1) enters with -, its right with +
                for col, image in enumerate(images, col_offsets[i]):
                    for d, val in image.items():
                        rows[row_offsets[j] + d][col] = -val if i < j else val
        return Matrix(len(rows), col_offsets[-1], tuple(rows))


def validate_sheaf(S: ConeSheaf | FunctionSheaf) -> tuple[SheafViolation, ...]:
    """Every violation of the sheaf contract, empty when the sheaf is valid:
    every stalk must be a positive cone and every restriction a cone map.

    A generator image (`generator_images`) lies in a free target exactly when
    its nonzeros are positive; other targets are asked by `cone_membership`.
    """
    violations: list[SheafViolation] = []
    for i, stalk in enumerate(S.vertex_stalks):
        if not is_positive_cone(stalk):
            vid = S.strat.vertex_id(i)
            violations.append(SheafViolation(vid, None, None, f"stalk over {vid} is not a positive cone"))
    for j, stalk in enumerate(S.edge_stalks):
        if not is_positive_cone(stalk):
            eid = S.strat.edge_id(j)
            violations.append(SheafViolation(None, eid, None, f"stalk over {eid} is not a positive cone"))
    for i, j, images in S.generator_images():
        vid, eid = S.strat.vertex_id(i), S.strat.edge_id(j)
        target = S.edge_stalks[j]
        for g, image in enumerate(images):
            if target.is_free:
                inside = all(v > 0 for v in image.values())
            else:
                dense = [image.get(d, ZERO) for d in range(target.ambient_dim)]
                inside = cone_membership(dense, target)
            if not inside:
                label = S.vertex_stalks[i].labels[g]
                violations.append(
                    SheafViolation(vid, eid, label, f"image of {vid}.{label} under {vid}->{eid} leaves the edge cone")
                )
    return tuple(violations)


def _row_stalks(S: ConeSheaf):
    """(edge id, stalk) of each precompact edge: the coboundary's row blocks,
    one row per ambient coordinate of the stalk."""
    return zip(S.strat.cells[2:-1:2], S.edge_stalks[1:-1])


def _column_stalks(S: ConeSheaf):
    """(vertex id, stalk) of each vertex: the coboundary's column blocks, one
    column per generator of the stalk."""
    return zip(S.strat.cells[1::2], S.vertex_stalks)


def _normalise(S: ConeSheaf | FunctionSheaf) -> ConeSheaf | FunctionSheaf:
    # A vertex-free stratification carries no generator columns, which would
    # misreport a nonempty constant section as infeasible; one synthetic
    # vertex with identity restrictions is sheaf-equivalent and fixes this.
    return S if S.strat.vertex_times else refine(S, Fraction(0))


def assemble_coboundary(S: ConeSheaf) -> GlobalSections:
    """Labelled coboundary only; kernel_dim and decision left unset."""
    S = _normalise(S)
    violations = validate_sheaf(S)
    if violations:
        raise SheafValidationError(violations)
    return GlobalSections(S)


def global_sections(S: ConeSheaf | FunctionSheaf) -> GlobalSections:
    """Decide whether the sheaf has a nonzero global section.

    Feasible: the witness lists nonnegative generator coordinates, one block
    per vertex, summing to one, whose induced edge values agree everywhere.
    Infeasible: the certificate is a strict dual vector over the coboundary
    rows (the simplex's all-zero vector, vacuous, when no vertex carries any
    generator). Its entries are exact rationals: the sweep's integer
    potential, kept as `int`s, or the simplex's `Fraction`s. Function-like
    sheaves are decided, re-checked and counted on their integer generator
    maps; all others are validated, decided by the simplex and ranked.
    """
    S = _normalise(S)
    try:
        F = S if isinstance(S, FunctionSheaf) else generator_maps(S)
    except UnsupportedSheafError:
        sections = assemble_coboundary(S)
        M = sections.coboundary
        sections = replace(sections, kernel_dim=M.cols - rank(M), decision=lp_positive_kernel(M))
        vars(sections)["coboundary"] = M  # the cached matrix, so that it is not built again when read
        return sections
    # a FunctionSheaf is valid as it stands
    chain, y = section_sweep(F)
    if chain is not None:
        # every vertex generator must restrict to the edge generators beside it; weight 1/k each
        edges, vertices = chain[0::2], chain[1::2]
        if len(chain) != 2 * len(F.maps) + 1:
            raise AssertionError("witness chain does not have one generator per cell")
        if any(left[v] != a or right[v] != b for (left, right), v, a, b in zip(F.maps, vertices, edges, edges[1:])):
            raise AssertionError("witness chain does not restrict to its edge generators")
        # weight 1/k at each vertex's chain generator, found by its column offset
        offsets = list(accumulate([len(stalk.labels) for stalk in S.vertex_stalks], initial=0))
        witness = [ZERO] * offsets.pop()
        weight = Fraction(1, len(F.maps))
        for col in map(add, offsets, vertices):
            witness[col] = weight
        decision = FeasibilityResult(witness=tuple(witness))
    else:
        # zero on both unbounded edges and a drop along every arc make D'y >= 1
        if list(map(len, y)) != [len(stalk.labels) for stalk in S.edge_stalks] or any(y[0] + y[-1]):
            raise AssertionError("potential is not one block per edge, zero on the unbounded edges")
        # integers drop by at least 1 exactly where they drop at all
        if any(a[li] <= b[ri] for a, b, (left, right) in zip(y, y[1:], F.maps) for li, ri in zip(left, right)):
            raise AssertionError("potential does not drop along every arc")
        decision = FeasibilityResult(certificate=tuple(v for block in y[1:-1] for v in block))
    return GlobalSections(S, cycle_rank(F), decision, chain)


def sweep_sections(S: ConeSheaf | FunctionSheaf) -> GlobalSections:
    """`global_sections` of a sheaf the sweep decides, its chain kept on a feasible
    decision; UnsupportedSheafError, naming a cell of the normalised sheaf, for any other."""
    S = _normalise(S)
    return global_sections(S if isinstance(S, FunctionSheaf) else generator_maps(S))


def generator_maps(S: ConeSheaf) -> FunctionSheaf:
    """The sheaf as a `FunctionSheaf`: each vertex generator's image in its left and right edge.

    Raises UnsupportedSheafError, naming the stalk or the restriction and
    column, unless every stalk is free and every restriction is a 0/1
    matrix with exactly one 1 per column.
    """
    strat = S.strat
    for cells, stalks in ((strat.cells[1::2], S.vertex_stalks), (strat.cells[0::2], S.edge_stalks)):
        for cell, stalk in zip(cells, stalks):
            if not stalk.is_free:
                raise UnsupportedSheafError(
                    f"the sweep requires free (orthant) stalks; the stalk over {cell} is not free"
                )
    images = []
    for i, j, cols in S.generator_images():  # the stalks are free, so these are the matrix columns
        for c, col in enumerate(cols):
            if len(col) != 1 or 1 not in col.values():
                raise UnsupportedSheafError(
                    f"restriction {strat.vertex_id(i)}->{strat.edge_id(j)} column {c} "
                    f"({S.vertex_stalks[i].labels[c]}) {'is zero' if not col else 'is not a single 1'}; "
                    "the sweep requires 0/1 restrictions with exactly one 1 per column"
                )
        images.append(tuple(next(iter(col)) for col in cols))
    return FunctionSheaf(strat, S.vertex_stalks, S.edge_stalks, tuple(zip(images[0::2], images[1::2])))


def section_sweep(S: FunctionSheaf) -> tuple[Chain | None, list[list[int]] | None]:
    """Decide a function-like sheaf by reachability from the left unbounded edge.

    Edge generators are nodes and vertex generator g of vertex i is an arc
    from S.maps[i][0][g] in edge i to S.maps[i][1][g] in edge i+1. A nonzero
    section is a chain of arcs from the left to the right unbounded edge.

    Returns (chain, None) with one generator index per cell in time order
    (e1, v1, e2, ..., vk, e(k+1)): the chain ending in the least reachable
    generator of the right unbounded edge, each vertex taking its least
    generator that continues it, and each edge the left image of the vertex
    after it, which the backtrack visits anyway. Otherwise
    returns (None, y) with one block of integers per edge: 0 on both
    unbounded edges, -j on generators of edge j reachable from the left, and
    elsewhere the length of the longest chain from the generator to the
    right unbounded edge or a dead end. Each arc then drops by at least 1.
    Each stalk size is read once, and an arc from an unreachable generator
    is passed over before its right image is read. The longest chains are
    counted backwards only down to the first edge with an unreached
    generator; every edge before it is reached whole.
    """
    maps = S.maps
    k = len(maps)
    sizes = [len(stalk.labels) for stalk in S.edge_stalks]
    reached: dict[int, int | None] = dict.fromkeys(range(sizes[0]))
    reach = [reached]
    for left, right in maps:
        nxt: dict[int, int] = {}  # right edge generator -> least vertex generator reaching it
        for g, li in enumerate(left):
            if li in reached and right[g] not in nxt:
                nxt[right[g]] = g
        reach.append(nxt)
        reached = nxt
    if reached:
        target = min(reached)
        backwards = [target]
        for i in range(k - 1, -1, -1):
            g = reach[i + 1][target]
            target = maps[i][0][g]
            backwards += (g, target)
        return tuple(reversed(backwards)), None
    # edges before the first one with an unreached generator are reached
    # whole, so their blocks are all -j, and the longest chains there, read
    # only by the edges before them, need not be counted
    first = next((j for j in range(1, k) if len(reach[j]) < sizes[j]), k)
    longest = [0] * sizes[k]
    blocks = [longest]
    for j in range(k - 1, first - 1, -1):
        left, right = maps[j]
        here = [0] * sizes[j]
        for li, ri in zip(left, right):
            if longest[ri] >= here[li]:
                here[li] = longest[ri] + 1
        block = here.copy()
        for d in reach[j]:
            block[d] = -j
        blocks.append(block)
        longest = here
    blocks += ([-j] * sizes[j] for j in range(first - 1, 0, -1))
    blocks.append([0] * sizes[0])
    return None, blocks[::-1]


def cycle_rank(S: FunctionSheaf) -> int:
    """kernel_dim, from the image tuples alone: arcs minus the edges of a spanning forest of the
    arc graph, whose ground node 0 holds both unbounded edges (they have no coboundary rows).
    That is the number of arcs whose ends a union-find already joins; both of an arc's finds
    are written out inline, since a call per find is most of the cost on a long timeline."""
    k = len(S.maps)
    # generator g of edge j is node offsets[j] + g, and those of both unbounded edges hang under node 0
    offsets = list(accumulate([len(stalk.labels) for stalk in S.edge_stalks], initial=1))
    parent = list(range(offsets[-1]))
    for j in {0, k}:
        parent[offsets[j] : offsets[j + 1]] = [0] * (offsets[j + 1] - offsets[j])
    kernel = 0
    for (left, right), here, there in zip(S.maps, offsets, offsets[1:]):
        for li, ri in zip(left, right):
            a, b = here + li, there + ri
            while parent[a] != a:  # find, halving the path
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a == b:
                kernel += 1
            else:
                parent[b] = a  # under the earlier root, so that trees stay shallow as the layers go by
    return kernel


def refine(S: ConeSheaf | FunctionSheaf, t) -> ConeSheaf:
    """Insert a vertex at time t inside an open edge.

    The new vertex copies the stalk of the edge it subdivides and restricts
    by the identity into both daughter edges, so the sheaf of sections is
    unchanged up to the relabelling of cells.
    """
    t = Fraction(t)
    j = S.strat.find_edge(t)
    stalk = S.edge_stalks[j]
    ident = Matrix.identity(stalk.ambient_dim)
    maps = [M for _, _, M in S.incidences()]

    def insert(items: tuple, item) -> tuple:
        return (*items[:j], item, *items[j:])

    # the edge's stalk at j is its left daughter, the copy after it its right one
    return ConeSheaf(
        strat=Stratification(insert(S.strat.vertex_times, t)),
        vertex_stalks=insert(S.vertex_stalks, stalk),
        edge_stalks=insert(S.edge_stalks, stalk),
        left_maps=insert(tuple(maps[0::2]), ident),
        right_maps=insert(tuple(maps[1::2]), ident),
    )
