import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))


@pytest.fixture(scope="session")
def cog():
    import importlib

    import run

    return SimpleNamespace(**{m: importlib.import_module(f"cogloop.{m}") for m in run.MODULES})


@pytest.fixture(scope="session")
def root():
    return ROOT
