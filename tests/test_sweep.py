"""Sweep-level guarantees over generated suites, the cost of canonical calls, and memos."""
from __future__ import annotations

import importlib
import pkgutil

import pytest
from hypothesis import given, settings, strategies as st

import cogloop
from cogloop import baseline, cognition, loop, runtime
from cogloop.baseline import run_baseline_episode
from cogloop.cli import parse_faults
from cogloop.cognition import FACT_KINDS, FaultConfig, format_memory_fact, parse_entities
from cogloop.evidence import UNKNOWN
from cogloop.loop import run_episode
from cogloop.memory import MemoryQuery
from cogloop.runtime import ToolCall
from cogloop.scenario import load_scenario, load_suite
from cogloop.trace import JustificationChain, iter_chains
from cogloop.util import canonical_json, content_digest
from conftest import SCENARIO_DIR
from strategies import episode_seeds, fault_configs, suite_seeds, whole_episodes
from suitegen import generate_suite


def outcome(result) -> tuple:
    """What an episode did: its status, its length and its successful calls."""
    calls = [(r["tool"], r["args"]) for r in result.invocation_log if r["outcome"]["ok"]]
    return result.status, result.cycles_used, calls


@settings(whole_episodes, max_examples=10)
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
        # Control and the goal agree: an approved goal action is one the goal
        # triggers at the memory that cycle read.
        goal = config.policy.goal
        for record, snapshot in governed.trace.replay():
            if not record.approved():
                continue
            call = ToolCall(**record.decision["call"])
            if goal.matching_template(call) is None:
                continue
            triggered = goal.triggered(snapshot)
            assert triggered is not UNKNOWN
            wanted = (call.name, call.canonical_args)
            assert wanted in [
                (action.name, action.canonical_args)
                for branch in triggered
                for action in branch.actions
            ]

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


def probe_config():
    """The ROADMAP probe: 237 cycles, nearly all of them rejected duplicates."""
    scenario = load_scenario(SCENARIO_DIR / "weather_two_city.json")
    return scenario.episode_config(
        1, faults=FaultConfig(seed=3, p_duplicate=0.995), max_cycles=2000
    )


def test_governed_cycle_encodes_and_parses_only_what_each_commit_adds(monkeypatch):
    """On the long probe (237 cycles, 476 entries), each fact line is JSON-encoded once,
    when its entry is committed, and no governed cycle parses its fact lines afresh.

    Encoding every line on every cycle made 28,436 encodes here.
    """
    counts = {"encodes": 0, "fresh_parses": 0, "constraints": 0}
    json_string, fresh_parse, assemble = (
        cognition._json_string, cognition.parse_entities, loop.assemble_input
    )

    def encode(text):
        counts["encodes"] += 1
        return json_string(text)

    def parse(facts, parsed):
        counts["fresh_parses"] += 1
        return fresh_parse(facts, parsed)

    def assembling(task, snapshot, constraints, ruleset, facts=None):
        counts["constraints"] += len(constraints)
        return assemble(task, snapshot, constraints, ruleset, facts)

    monkeypatch.setattr(cognition, "_json_string", encode)
    monkeypatch.setattr(cognition, "parse_entities", parse)
    monkeypatch.setattr(loop, "assemble_input", assembling)
    result = run_episode(probe_config())
    assert (result.cycles_used, len(result.store.entries())) == (237, 476)
    fact_entries = sum(e.kind in FACT_KINDS for e in result.store.entries())
    assert counts["encodes"] <= fact_entries + counts["constraints"]
    assert counts["fresh_parses"] == 0


def test_probe_plans_once_per_state_its_goal_reads(monkeypatch):
    """The scripted plan is made 4 times over the probe's 237 cycles: once per state of
    the facts its goal reads. Re-planning on every cycle made 237 plans here."""
    plans = 0
    plan = cognition.ScriptedProposer._plan

    def counting(self, view):
        nonlocal plans
        plans += 1
        return plan(self, view)

    monkeypatch.setattr(cognition.ScriptedProposer, "_plan", counting)
    assert run_episode(probe_config()).cycles_used == 237
    assert plans == 4


def test_memoized_plans_equal_plans_over_the_full_view(suite_dir, monkeypatch):
    """On every cycle of the suite50 sweep at all=0.1, both systems, and of the probe,
    the memoized plan has the proposal, phase and fact reads of a fresh planner given
    the cycle's whole view."""
    planned, plan = cognition.ScriptedProposer._planned, cognition.ScriptedProposer._plan
    counts = {"cycles": 0, "plans": 0}

    def checking(self, entities):
        counts["cycles"] += 1
        fresh, view = cognition.ScriptedProposer(self.policy), cognition.FactView(entities)
        try:
            memoized = planned(self, entities)
        except cognition.PolicyGap:
            with pytest.raises(cognition.PolicyGap):
                plan(fresh, view)
            raise
        proposal, phase = plan(fresh, view)
        assert (memoized[0].to_response(), memoized[1], list(memoized[2])) == (
            proposal.to_response(), phase, list(view.reads.items())
        )
        return memoized

    def counting(self, view):
        counts["plans"] += 1
        return plan(self, view)

    monkeypatch.setattr(cognition.ScriptedProposer, "_planned", checking)
    monkeypatch.setattr(cognition.ScriptedProposer, "_plan", counting)
    faults = parse_faults("all=0.1")
    cycles = run_episode(probe_config()).cycles_used
    for scenario in load_suite(suite_dir):
        for seed in scenario.seeds:
            config = scenario.episode_config(seed, faults=faults)
            cycles += run_episode(config).cycles_used
            budget, decay = scenario.baseline_budget, scenario.baseline_decay
            cycles += run_baseline_episode(config, budget, decay).cycles_used
    # Plans made by the episodes' planners, not the checks: about half the cycles hit.
    assert (counts["cycles"], counts["plans"]) == (cycles, 4219)
    assert cycles == 8742


class NeverStores(dict):
    """A memo that forgets every value it is given."""

    def __setitem__(self, key, value):
        pass


FACT_QUERY = MemoryQuery(kinds=FACT_KINDS, latest_only=True)


# Worked scenarios: transient_retry rewrites a fact key after a tool failure.
WORKED = [load_scenario(SCENARIO_DIR / f"{name}.json")
          for name in ("weather_two_city", "rain_cancellation", "transient_retry")]


@settings(whole_episodes, max_examples=10)
@given(
    count=st.integers(1, 3),
    suite_seed=suite_seeds,
    worked=st.sampled_from(WORKED),
    episode_seed=episode_seeds,
    faults=fault_configs,
)
def test_cached_fact_lines_equal_lines_rendered_afresh(
    count, suite_seed, worked, episode_seed, faults
):
    """Each cycle's governed facts, and the values derived from them, equal a fresh
    assembly and the from-scratch computations; the baseline's memo changes no byte."""
    original = loop.assemble_input
    checked = 0

    def checking(task, snapshot, constraints, ruleset, facts=None):
        nonlocal checked
        built = original(task, snapshot, constraints, ruleset, facts)
        assert built == original(task, snapshot, constraints, ruleset)
        reference = tuple(format_memory_fact(e) for e in snapshot.read(FACT_QUERY))
        assert built.facts == reference
        assert built.facts_json == ",".join(canonical_json(line) for line in reference)
        assert built.entities == parse_entities(reference, {})
        assert built.digest() == content_digest(built.to_request())
        checked += 1
        return built

    baseline_init = baseline.Baseline.__init__

    def forgetful_init(self, *args):
        baseline_init(self, *args)
        self.fact_lines = NeverStores()
        self.context._entries = NeverStores()

    for scenario in [*generate_suite(count, suite_seed), worked]:
        config = scenario.episode_config(episode_seed, faults=faults)
        budget, decay = scenario.baseline_budget, scenario.baseline_decay
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(loop, "assemble_input", checking)
            governed = run_episode(config)
        assert checked == governed.cycles_used
        checked = 0
        cached = run_baseline_episode(config, budget, decay).trace.dumps()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(baseline.Baseline, "__init__", forgetful_init)
            assert run_baseline_episode(config, budget, decay).trace.dumps() == cached
