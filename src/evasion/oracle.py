"""`sheaf.sweep_sections`' decision with its chain labelled, under the name
the benchmark labels its random draws with."""

from __future__ import annotations

from evasion.sheaf import CellLabel, ConeSheaf, FunctionSheaf, UnsupportedSheafError, section_chain, sweep_sections

__all__ = ["UnsupportedSheafError", "dp_section_exists"]


def dp_section_exists(S: ConeSheaf | FunctionSheaf) -> tuple[bool, tuple[CellLabel, ...] | None]:
    """(True, labelled chain) or (False, None)."""
    sections = sweep_sections(S)
    if sections.chain is None:
        return False, None
    return True, section_chain(sections.sheaf, sections.chain)
