"""Load the evasion package from the checkout that holds this benchmark.

The benchmark imports the program from `<checkout>/src`, never from an
installed copy, so that it always measures the code next to it.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("cli", "cones", "geometry", "linalg", "oracle", "randgen", "sheaf")


class ProgramMissing(RuntimeError):
    """The checkout has no evasion sources next to the benchmark."""


def load_program() -> SimpleNamespace:
    """Import every evasion module afresh and return them by short name.

    Previously imported evasion modules are dropped first, so each call pays
    the whole import, as a user's first `evasion check` does.
    """
    package = SRC / "evasion"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no evasion package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "evasion" or m.startswith("evasion.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"evasion.{name}") for name in MODULES}
    loaded = Path(mods["cli"].__file__).resolve().parent
    if loaded != package.resolve():
        raise ProgramMissing(f"evasion was imported from {loaded}, not from {package}")
    return SimpleNamespace(**mods)
