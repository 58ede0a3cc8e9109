"""Sweep-level guarantees over generated suites, and the cost of canonical calls."""
from __future__ import annotations

import importlib
import pkgutil

from hypothesis import given, settings, strategies as st

import cogloop
from cogloop import runtime
from cogloop.baseline import run_baseline_episode
from cogloop.cli import parse_faults
from cogloop.loop import run_episode
from cogloop.scenario import generate_suite
from cogloop.trace import JustificationChain, iter_chains
from strategies import episode_seeds, fault_configs, suite_seeds


def outcome(result) -> tuple:
    """What an episode did: its status, its length and its successful calls."""
    calls = [(r["tool"], r["args"]) for r in result.invocation_log if r["outcome"]["ok"]]
    return result.status, result.cycles_used, calls


@settings(max_examples=10, deadline=None)
@given(
    count=st.integers(1, 3),
    suite_seed=suite_seeds,
    episode_seed=episode_seeds,
    faults=fault_configs,
)
def test_generated_sweeps_keep_the_core_invariants(count, suite_seed, episode_seed, faults):
    for scenario in generate_suite(count, suite_seed):
        config = scenario.episode_config(episode_seed, faults=faults)
        governed = run_episode(config)
        records = governed.trace.cycles
        assert not any(r.fault_label and r.executed_ok() for r in records)
        chains = list(iter_chains(governed.trace))
        assert all(isinstance(chain, JustificationChain) for chain in chains)
        assert len(chains) == sum(r["outcome"]["ok"] for r in governed.invocation_log)

        budget, decay = scenario.baseline_budget, scenario.baseline_decay
        baseline = run_baseline_episode(config, budget, decay)
        assert run_episode(config).trace.dumps() == governed.trace.dumps()
        assert run_baseline_episode(config, budget, decay).trace.dumps() == baseline.trace.dumps()

        # With nothing forgotten and no faults to let through, the baseline
        # runs exactly the governed episode.
        clean = scenario.episode_config(episode_seed)
        unlimited = run_baseline_episode(clean, budget=10_000, decay=0.0)
        reference = run_episode(clean)
        assert outcome(unlimited) == outcome(reference)
        for fact in scenario.goal["required_facts"]:
            assert (
                unlimited.store.snapshot.resolve(fact) == reference.store.snapshot.resolve(fact)
            )


def test_sweep_canonicalizes_call_arguments_at_most_twice_per_cycle(monkeypatch):
    """A call's canonical arguments are computed when it is built, not at each use."""
    original = runtime.canon_args
    calls = 0

    def counting(arguments):
        nonlocal calls
        calls += 1
        return original(arguments)

    for info in pkgutil.iter_modules(cogloop.__path__):
        module = importlib.import_module(f"cogloop.{info.name}")
        if getattr(module, "canon_args", None) is original:
            monkeypatch.setattr(module, "canon_args", counting)

    faults = parse_faults("all=0.1")  # as `cogloop suite --faults all=0.1` sets it
    cycles = 0
    for scenario in generate_suite(10):
        for seed in scenario.seeds:
            config = scenario.episode_config(seed, faults=faults)
            cycles += run_episode(config).cycles_used
            budget, decay = scenario.baseline_budget, scenario.baseline_decay
            cycles += run_baseline_episode(config, budget, decay).cycles_used
    assert cycles > 1000
    assert calls <= 2 * cycles, f"{calls} canonicalizations over {cycles} cycles"
