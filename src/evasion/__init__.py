"""Evasion feasibility for time-varying planar sensor coverage.

The pipeline: encode coverage as a scene of boxes over a spatial window,
stratify the time axis at critical box events, put the free cone on gap
components over every cell, and decide whether the resulting cellular sheaf
of positive cones has a nonzero global section. That decision is an exact
rational LP whose witness unrolls into a concrete evasion path and whose
infeasibility comes with a checkable certificate.
"""

from evasion.cones import (
    FEASIBLE,
    INFEASIBLE,
    FeasibilityResult,
    PolyhedralCone,
    cone_membership,
    is_positive_cone,
    is_valid_certificate,
    lp_positive_kernel,
)
from evasion.geometry import (
    Box,
    EvasionPath,
    GapComponent,
    GapFibre,
    PathVerificationError,
    Scene,
    SceneReport,
    SceneValidationError,
    build_sheaf,
    critical_times,
    extract_path,
    gap_components,
    point_uncovered,
    validate_scene,
    verify_evasion_path,
)
from evasion.linalg import Matrix, format_rational, kernel_basis, parse_rational
from evasion.oracle import dp_section_exists, enumerate_sections, flow_decompose
from evasion.sheaf import (
    ConeSheaf,
    GlobalSections,
    SectionChain,
    SheafReport,
    SheafValidationError,
    Stratification,
    UnsupportedSheafError,
    assemble_coboundary,
    global_sections,
    refine,
    validate_sheaf,
)

__version__ = "0.1.0"

__all__ = [
    "Box",
    "ConeSheaf",
    "EvasionPath",
    "FEASIBLE",
    "FeasibilityResult",
    "GapComponent",
    "GapFibre",
    "GlobalSections",
    "INFEASIBLE",
    "Matrix",
    "PathVerificationError",
    "PolyhedralCone",
    "Scene",
    "SceneReport",
    "SceneValidationError",
    "SectionChain",
    "SheafReport",
    "SheafValidationError",
    "Stratification",
    "UnsupportedSheafError",
    "assemble_coboundary",
    "build_sheaf",
    "cone_membership",
    "critical_times",
    "dp_section_exists",
    "enumerate_sections",
    "extract_path",
    "flow_decompose",
    "format_rational",
    "gap_components",
    "global_sections",
    "is_positive_cone",
    "is_valid_certificate",
    "kernel_basis",
    "lp_positive_kernel",
    "parse_rational",
    "point_uncovered",
    "refine",
    "validate_scene",
    "validate_sheaf",
    "verify_evasion_path",
]
