"""One oracle for every cache: runs with every cache bypassed write the bytes cached runs write."""
from __future__ import annotations

import hashlib

import pytest

from cogloop import cognition, loop
from cogloop.baseline import ContextModel, run_baseline_episode
from cogloop.cli import parse_faults
from cogloop.loop import run_episode
from cogloop.scenario import load_suite
from reference import cache_free, forgetting, fresh_fact_index
from test_golden import DUPLICATE_DIGEST, GOLDEN_DIGEST
from test_sweep import probe_config


def sweep_traces(suite_dir, fault_spec: str) -> list[str]:
    """Every trace of the suite50 sweep, governed then baseline per scenario and seed."""
    faults, traces = parse_faults(fault_spec), []
    for scenario in load_suite(suite_dir):
        for seed in scenario.seeds:
            config = scenario.episode_config(seed, faults=faults)
            budget, decay = scenario.baseline_budget, scenario.baseline_decay
            traces.append(run_episode(config).trace.dumps())
            traces.append(run_baseline_episode(config, budget, decay).trace.dumps())
    return traces


def probe_traces() -> list[str]:
    """The long probe's governed trace (237 cycles) and its baseline's."""
    config = probe_config()
    scenario = config.scenario
    return [
        run_episode(config).trace.dumps(),
        run_baseline_episode(config, scenario.baseline_budget, scenario.baseline_decay)
        .trace.dumps(),
    ]


@pytest.mark.parametrize("fault_spec, digest", [
    ("all=0.1", GOLDEN_DIGEST),
    ("all=0.3", "2fe48c45bd7a74de"),
    ("duplicate=0.5", DUPLICATE_DIGEST),
])
def test_cache_free_sweeps_write_the_cached_bytes(suite_dir, fault_spec, digest):
    cached = sweep_traces(suite_dir, fault_spec)
    assert hashlib.sha256("".join(cached).encode()).hexdigest()[:16] == digest
    with cache_free():
        assert not hasattr(cognition.parse_fact_line, "cache_info")
        fresh = sweep_traces(suite_dir, fault_spec)
    assert hasattr(cognition.parse_fact_line, "cache_info")  # restored
    assert fresh == cached


def test_cache_free_probe_writes_the_cached_bytes():
    cached = probe_traces()
    with cache_free():
        assert probe_traces() == cached


def test_a_bypass_of_a_memo_no_instance_keeps_fails():
    """A ``CACHES`` entry left behind for a deleted per-episode memo fails the reference run:
    its bypass raises on the first instance, naming the class and the attribute."""
    with pytest.MonkeyPatch.context() as patch:
        forgetting(ContextModel, "no_such_memo")(patch)
        with pytest.raises(AttributeError, match="ContextModel instance has no memo "
                                                 "attribute 'no_such_memo'"):
            ContextModel(budget=1, decay=0.0, seed=1, static={})
    with pytest.MonkeyPatch.context() as patch:
        fresh_fact_index(patch)
        init = loop.Governed.__init__

        def without_facts(self, config):
            init(self, config)
            del self.facts

        patch.setattr(loop.Governed, "__init__", without_facts)
        with pytest.raises(AttributeError, match="Governed instance has no memo attribute 'facts'"):
            run_episode(probe_config())
