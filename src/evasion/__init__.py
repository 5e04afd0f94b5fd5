"""Evasion feasibility for time-varying planar sensor coverage.

The pipeline: encode coverage as a scene of boxes over a spatial window,
stratify the time axis at critical box events, put the free cone on gap
components over every cell, and decide whether the resulting cellular sheaf
of positive cones has a nonzero global section. That decision is an exact
rational LP whose witness unrolls into a concrete evasion path and whose
infeasibility comes with a checkable certificate.
"""

__version__ = "0.1.0"
