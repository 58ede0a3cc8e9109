"""Hypothesis strategies shared by the tests that run generated suites or decode generated JSON."""
from __future__ import annotations

from hypothesis import Phase, settings, strategies as st

from cogloop.cognition import FAULT_TYPES, FaultConfig

# For tests that run whole episodes per example: no deadline, and no shrinking,
# which re-runs episodes for minutes before a failure is reported.
whole_episodes = settings(deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))

suite_seeds = st.integers(0, 10_000)
episode_seeds = st.integers(1, 5)
fault_configs = st.builds(
    FaultConfig,
    seed=st.integers(0, 99),
    **{f"p_{t}": st.sampled_from([0.0, 0.1, 0.3]) for t in FAULT_TYPES},
)

# JSON values of every kind; the floats include NaN and the infinities.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6,
)
# Integers past 64 bits and past float range.
huge_ints = st.sampled_from([2**64, -(2**64), 10**400, -(10**400)])
