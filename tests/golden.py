"""Hand-checked data for the two crossing scenes.

The coboundaries below were worked out by hand from the component
structure of the scenes in crossing_open.json / crossing_blocked.json.
Columns and rows are written in the geometric top/middle/bottom naming;
LABEL_TO_GEOMETRY translates the engine's deterministic g-labels (sorted by
least face corner, i.e. bottom first) into those names per cell.
"""

from evasion.linalg import Matrix

OPEN_COLUMNS = ["v1.t", "v2.t", "v2.m", "v2.b", "v3.t", "v3.m", "v3.b", "v4.b"]
OPEN_ROWS = ["e2.t", "e2.b", "e3.t", "e3.m", "e3.b", "e4.t", "e4.b"]
OPEN_COBOUNDARY = Matrix.from_rows(
    [
        [-1, 1, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 0],
        [0, -1, 0, 0, 1, 0, 0, 0],
        [0, 0, -1, 0, 0, 1, 0, 0],
        [0, 0, 0, -1, 0, 0, 1, 0],
        [0, 0, 0, 0, -1, 0, 0, 0],
        [0, 0, 0, 0, 0, -1, -1, 1],
    ]
)
# the unique nonnegative kernel ray: one generator per vertex, top -> middle -> middle -> bottom
OPEN_WITNESS_SUPPORT = {"v1.t", "v2.m", "v3.m", "v4.b"}

BLOCKED_COLUMNS = OPEN_COLUMNS
BLOCKED_ROWS = OPEN_ROWS
BLOCKED_COBOUNDARY = Matrix.from_rows(
    [
        [-1, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 1, 0, 0, 0, 0],
        [0, -1, 0, 0, 1, 0, 0, 0],
        [0, 0, -1, 0, 0, 1, 0, 0],
        [0, 0, 0, -1, 0, 0, 1, 0],
        [0, 0, 0, 0, -1, -1, 0, 0],
        [0, 0, 0, 0, 0, 0, -1, 1],
    ]
)
# the kernel is one-dimensional and mixed-sign: no nonnegative section exists
BLOCKED_KERNEL_GENERATOR = {
    "v1.t": 1,
    "v2.t": 1,
    "v2.m": -1,
    "v2.b": 1,
    "v3.t": 1,
    "v3.m": -1,
    "v3.b": 1,
    "v4.b": 1,
}

# engine labels are ordered bottom-up by least corner within each cell
LABEL_TO_GEOMETRY = {
    "v1": {"g0": "t"},
    "v2": {"g0": "b", "g1": "m", "g2": "t"},
    "v3": {"g0": "b", "g1": "m", "g2": "t"},
    "v4": {"g0": "b"},
    "e2": {"g0": "b", "g1": "t"},
    "e3": {"g0": "b", "g1": "m", "g2": "t"},
    "e4": {"g0": "b", "g1": "t"},
}


def geometric_name(cell: str, label: str) -> str:
    return f"{cell}.{LABEL_TO_GEOMETRY[cell][label]}"


def reorder_to_golden(sections, golden_rows, golden_cols) -> Matrix:
    """Permute the engine coboundary into the hand-written row/column order."""
    col_names = [geometric_name(c, l) for c, l in sections.column_labels]
    row_names = [geometric_name(c, l) for c, l in sections.row_labels]
    col_perm = [col_names.index(name) for name in golden_cols]
    row_perm = [row_names.index(name) for name in golden_rows]
    M = sections.coboundary
    return Matrix.from_rows(
        [[M.row(i)[j] for j in col_perm] for i in row_perm]
    )
