import json
import os
import sys
from pathlib import Path

import pytest

# allow running the suite from a bare checkout, without an editable install
_SRC = Path(__file__).parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

FIXTURES = Path(__file__).parent / "fixtures"


def load_fixture(name: str):
    return json.loads((FIXTURES / name).read_text())


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)


def fixtures_with(field: str) -> list[str]:
    """Names of the fixtures with a top-level `field`: "window" for scenes,
    "vertices" for sheaves."""
    return sorted(p.name for p in FIXTURES.glob("*.json") if field in json.loads(p.read_text()))


@pytest.fixture
def base_seed() -> int:
    return int(os.environ.get("EVASION_SEED", "20240817"))
