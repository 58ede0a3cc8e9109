"""Bounded-context baseline: recall model and unvalidated episode behavior."""
from __future__ import annotations

import pytest

from cogloop.baseline import ContextModel, run_baseline_episode
from cogloop.cognition import FACT_PREFIX, FaultConfig, format_memory_fact
from cogloop.loop import ConfigError, EpisodeStatus, run_episode
from cogloop.memory import EntryKind
from cogloop.trace import aggregate_metrics, compute_elp, compute_metrics

STATIC = {"goal.choose_colder": {"rule": "Book the colder destination."}}


def model(budget: int = 10, decay: float = 0.0, seed: int = 1) -> ContextModel:
    return ContextModel(budget=budget, decay=decay, seed=seed, static=STATIC)


def weather(entity: str, temp: float, rain: bool = False) -> dict:
    return {"location": entity, "temp_f": temp, "precipitation": rain}


def visible_keys(ctx: ContextModel, cycle: int) -> list[str]:
    return [e.key for e in ctx.visible_entries(cycle)]


# ------------------------------------------------------------- context model
def test_context_model_rejects_bad_parameters():
    with pytest.raises(ConfigError):
        ContextModel(budget=0, decay=0.0, seed=1, static={})
    with pytest.raises(ConfigError):
        ContextModel(budget=1, decay=-0.1, seed=1, static={})


def test_insert_splits_entries_into_leaf_facts():
    ctx = model()
    ctx.insert("obs.Seoul", EntryKind.OBSERVATION, weather("Seoul", 51.8), cycle=1)
    assert ctx.retained() == 2  # location echo dropped, temp_f + precipitation kept
    ctx.insert(
        "act.book_flight", EntryKind.ACTION,
        {"name": "book_flight", "args": {"location": "Seoul"},
         "status": "executed", "confirmation": "ABC123"},
        cycle=2,
    )
    assert ctx.retained() == 4  # name/args dropped, status + confirmation kept


def test_window_evicts_oldest_inserted_fact():
    ctx = model(budget=3)
    ctx.insert("obs.A", EntryKind.OBSERVATION, {"temp_f": 1.0, "precipitation": False}, 1)
    ctx.insert("obs.B", EntryKind.OBSERVATION, {"temp_f": 2.0}, 2)
    assert ctx.retained() == 3
    ctx.insert("obs.C", EntryKind.OBSERVATION, {"temp_f": 3.0}, 3)
    assert ctx.retained() == 3
    keys = visible_keys(ctx, 3)
    assert keys == ["goal.choose_colder", "obs.A", "obs.B", "obs.C"]
    entries = {e.key: e.payload for e in ctx.visible_entries(3)}
    # Fields enter sorted, so obs.A.precipitation was the oldest slot.
    assert entries["obs.A"] == {"temp_f": 1.0}


def test_reinsert_refreshes_slot_position():
    ctx = model(budget=2)
    ctx.insert("obs.A", EntryKind.OBSERVATION, {"temp_f": 1.0}, 1)
    ctx.insert("obs.B", EntryKind.OBSERVATION, {"temp_f": 2.0}, 2)
    ctx.insert("obs.A", EntryKind.OBSERVATION, {"temp_f": 9.0}, 3)  # refresh A
    ctx.insert("obs.C", EntryKind.OBSERVATION, {"temp_f": 3.0}, 4)  # evicts B, not A
    entries = {e.key: e.payload for e in ctx.visible_entries(4)}
    assert entries["obs.A"] == {"temp_f": 9.0}
    assert "obs.B" not in entries and entries["obs.C"] == {"temp_f": 3.0}


def test_window_entries_follow_inserts_not_equal_values():
    """1, 1.0 and True hash equal; each re-insert still shows its own value."""
    ctx = model()
    lines = []
    for cycle, value in enumerate([1, True, 1.0, 1], start=1):
        ctx.insert("obs.A", EntryKind.OBSERVATION, {"flag": value}, cycle)
        first = ctx.visible_entries(cycle)[1]
        assert ctx.visible_entries(cycle)[1] is first  # same inserts, same entry
        lines.append(format_memory_fact(first))
    assert lines == [f"{FACT_PREFIX}A: flag={text}" for text in ("1", "true", "1.0", "1")]


def test_zero_decay_recalls_everything_forever():
    ctx = model(budget=5, decay=0.0)
    ctx.insert("obs.Seoul", EntryKind.OBSERVATION, weather("Seoul", 51.8), 1)
    for cycle in range(2, 30):
        assert visible_keys(ctx, cycle) == ["goal.choose_colder", "obs.Seoul"]


def test_full_decay_forgets_facts_after_one_cycle():
    ctx = model(budget=5, decay=1.0)
    ctx.insert("obs.Seoul", EntryKind.OBSERVATION, weather("Seoul", 51.8), 1)
    assert visible_keys(ctx, 1) == ["goal.choose_colder", "obs.Seoul"]  # age 0
    assert visible_keys(ctx, 2) == ["goal.choose_colder"]  # age 1: recall 0


def test_static_context_exempt_from_budget_and_decay():
    ctx = ContextModel(budget=1, decay=1.0, seed=1, static=STATIC)
    ctx.insert("obs.Seoul", EntryKind.OBSERVATION, {"temp_f": 51.8}, 1)
    ctx.insert("obs.Jeju", EntryKind.OBSERVATION, {"temp_f": 60.8}, 1)
    assert ctx.retained() == 1
    assert "goal.choose_colder" in visible_keys(ctx, 40)


def test_recall_draws_are_deterministic_per_seed():
    def draws(seed: int) -> list[list[str]]:
        ctx = model(budget=6, decay=0.25, seed=seed)
        ctx.insert("obs.Seoul", EntryKind.OBSERVATION, weather("Seoul", 51.8), 1)
        ctx.insert("obs.Jeju", EntryKind.OBSERVATION, weather("Jeju", 60.8), 2)
        return [visible_keys(ctx, cycle) for cycle in range(2, 10)]

    assert draws(7) == draws(7)
    assert any(draws(7) != draws(other) for other in (8, 9, 10))


# --------------------------------------------------------- baseline episodes
def executed_calls(result) -> list[tuple[str, dict]]:
    return [
        (r["tool"], r["args"]) for r in result.invocation_log if r["outcome"]["ok"]
    ]


def test_degenerate_baseline_matches_governed_run(two_city):
    config = two_city.episode_config(seed=1)
    governed = run_episode(config)
    unlimited = run_baseline_episode(config, budget=100, decay=0.0)
    assert unlimited.status is governed.status is EpisodeStatus.COMPLETED
    assert unlimited.cycles_used == governed.cycles_used
    assert executed_calls(unlimited) == executed_calls(governed)
    for fact in two_city.goal["required_facts"]:
        assert unlimited.store.snapshot.resolve(fact) == governed.store.snapshot.resolve(fact)
    assert unlimited.final_response == governed.final_response


def test_degenerate_baseline_matches_governed_cancellation(rain_cancellation):
    config = rain_cancellation.episode_config(seed=1)
    governed = run_episode(config)
    unlimited = run_baseline_episode(config, budget=100, decay=0.0)
    assert executed_calls(unlimited) == executed_calls(governed)
    assert unlimited.status is EpisodeStatus.COMPLETED


def test_baseline_trace_is_flagged_and_unvalidated(two_city):
    result = run_baseline_episode(two_city.episode_config(seed=1), budget=100, decay=0.0)
    header = result.trace.header
    assert header.baseline is True and header.proposer == "scripted"
    for record in result.trace.cycles[1:]:
        assert record.decision["synthetic"] is True
        assert record.decision["rule_ids"] == []
        assert not any(line.startswith("[Control]") for line in record.log_lines)


def test_constrained_baseline_forgets_and_regathers(two_city):
    config = two_city.episode_config(seed=1)
    governed = run_episode(config)
    constrained = run_baseline_episode(
        config, budget=two_city.baseline_budget, decay=two_city.baseline_decay
    )
    # The narrow window drops facts, so the planner re-gathers what memory
    # already holds; those re-reads surface as persistence misses.
    gathers = [c for c in executed_calls(constrained) if c[0] == "get_weather"]
    assert len(gathers) > 2
    spa_governed = compute_metrics(governed.trace)["spa"]
    spa_baseline = compute_metrics(constrained.trace)["spa"]
    assert spa_baseline.ratio < spa_governed.ratio == 1.0


def test_constrained_baseline_loses_on_aggregate_spa(two_city):
    per_governed, per_baseline = [], []
    for seed in range(1, 6):
        config = two_city.episode_config(seed=seed)
        per_governed.append({"spa": compute_metrics(run_episode(config).trace)["spa"]})
        baseline = run_baseline_episode(
            config, budget=two_city.baseline_budget, decay=two_city.baseline_decay
        )
        per_baseline.append({"spa": compute_metrics(baseline.trace)["spa"]})
    governed_spa = aggregate_metrics(per_governed)["spa"]
    baseline_spa = aggregate_metrics(per_baseline)["spa"]
    assert governed_spa.ratio == 1.0
    assert baseline_spa.ratio < 0.75


def test_faulty_baseline_never_localizes_errors(two_city):
    faults = FaultConfig(seed=2, p_missing_arg=0.5)
    config = two_city.episode_config(seed=3, faults=faults)
    result = run_baseline_episode(config, budget=100, decay=0.0)
    elp = compute_elp(result.trace)
    assert elp.denominator > 0 and elp.ratio == 0.0  # nothing is ever rejected


def test_executed_premature_action_breaks_baseline_chains(two_city):
    faults = FaultConfig(seed=1, p_premature_action=1.0)
    config = two_city.episode_config(seed=1, faults=faults, max_cycles=6)
    result = run_baseline_episode(config, budget=100, decay=0.0)
    tc = compute_metrics(result.trace)["tc"]
    # The premature booking executed with citations nothing in memory supports.
    assert tc.denominator > 0 and tc.ratio < 1.0


def test_metrics_comparable_across_systems(two_city):
    config = two_city.episode_config(seed=1)
    governed = compute_metrics(run_episode(config).trace)
    baseline = compute_metrics(
        run_baseline_episode(config, budget=100, decay=0.0).trace
    )
    assert set(governed) == set(baseline) == {"spa", "tc"}
