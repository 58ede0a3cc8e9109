"""Shared fixtures: repo paths and canonical scenario loaders."""
from __future__ import annotations

from pathlib import Path

import pytest

from cogloop.scenario import Scenario, load_scenario

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"
SUITE_DIR = SCENARIO_DIR / "suite50"


@pytest.fixture(scope="session")
def scenario_dir() -> Path:
    return SCENARIO_DIR


@pytest.fixture(scope="session")
def suite_dir() -> Path:
    return SUITE_DIR


@pytest.fixture()
def two_city() -> Scenario:
    return load_scenario(SCENARIO_DIR / "weather_two_city.json")


@pytest.fixture()
def rain_cancellation() -> Scenario:
    return load_scenario(SCENARIO_DIR / "rain_cancellation.json")


@pytest.fixture()
def transient_retry() -> Scenario:
    return load_scenario(SCENARIO_DIR / "transient_retry.json")
