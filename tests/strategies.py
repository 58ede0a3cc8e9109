"""Hypothesis strategies shared by the tests that run generated suites."""
from __future__ import annotations

from hypothesis import strategies as st

from cogloop.cognition import FAULT_TYPES, FaultConfig

suite_seeds = st.integers(0, 10_000)
episode_seeds = st.integers(1, 5)
fault_configs = st.builds(
    FaultConfig,
    seed=st.integers(0, 99),
    **{f"p_{t}": st.sampled_from([0.0, 0.1, 0.3]) for t in FAULT_TYPES},
)
