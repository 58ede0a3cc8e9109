"""One oracle for every cache: runs with every cache bypassed write the bytes cached runs write,
and their audits report the same metrics, chains and gaps."""
from __future__ import annotations

import hashlib

import pytest

from cogloop import cognition, loop
from cogloop.baseline import ContextModel, run_baseline_episode
from cogloop.cli import parse_faults
from cogloop.loop import run_episode
from cogloop.scenario import load_suite
from cogloop.trace import GapReport, compute_metrics, iter_chains
from reference import cache_free, forgetting, fresh_fact_index
from test_golden import DUPLICATE_DIGEST, GOLDEN_DIGEST
from test_sweep import probe_config


def audited(trace) -> tuple[str, dict[str, tuple[int, int]], int, int]:
    """A live trace's text, and what its audit reports: each metric's numerator and
    denominator, its complete chains and its gaps."""
    metrics = {name: (m.numerator, m.denominator) for name, m in compute_metrics(trace).items()}
    chains = list(iter_chains(trace))
    gaps = sum(isinstance(chain, GapReport) for chain in chains)
    return trace.dumps(), metrics, len(chains) - gaps, gaps


def sweep_runs(suite_dir, fault_spec: str) -> list[tuple]:
    """Every trace of the suite50 sweep, governed then baseline per scenario and seed, each
    `audited`."""
    faults, runs = parse_faults(fault_spec), []
    for scenario in load_suite(suite_dir):
        for seed in scenario.seeds:
            config = scenario.episode_config(seed, faults=faults)
            budget, decay = scenario.baseline_budget, scenario.baseline_decay
            runs.append(audited(run_episode(config).trace))
            runs.append(audited(run_baseline_episode(config, budget, decay).trace))
    return runs


def probe_runs() -> list[tuple]:
    """The long probe's governed trace (237 cycles) and its baseline's, each `audited`."""
    config = probe_config()
    scenario = config.scenario
    return [
        audited(run_episode(config).trace),
        audited(run_baseline_episode(config, scenario.baseline_budget,
                                     scenario.baseline_decay).trace),
    ]


@pytest.mark.parametrize("fault_spec, digest", [
    ("all=0.1", GOLDEN_DIGEST),
    ("all=0.3", "2fe48c45bd7a74de"),
    ("duplicate=0.5", DUPLICATE_DIGEST),
])
def test_cache_free_sweeps_write_the_cached_bytes(suite_dir, fault_spec, digest):
    """Each sweep's traces hash to its golden digest, and a cache-free sweep writes them
    byte for byte, with equal metrics, chain counts and gap counts."""
    cached = sweep_runs(suite_dir, fault_spec)
    texts = "".join(text for text, *_ in cached)
    assert hashlib.sha256(texts.encode()).hexdigest()[:16] == digest
    with cache_free():
        assert not hasattr(cognition.parse_fact_line, "cache_info")
        fresh = sweep_runs(suite_dir, fault_spec)
    assert hasattr(cognition.parse_fact_line, "cache_info")  # restored
    assert fresh == cached


def test_cache_free_probe_writes_the_cached_bytes():
    """The probe and its baseline, cache-free, write the cached bytes and audits."""
    cached = probe_runs()
    with cache_free():
        assert probe_runs() == cached


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
