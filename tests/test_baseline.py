"""Bounded-context baseline: recall model and unvalidated episode behavior."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from cogloop.baseline import ContextModel, leaf_records, run_baseline_episode
from cogloop.cognition import FACT_PREFIX, FaultConfig, format_memory_fact, shown_fields
from cogloop.loop import ConfigError, EpisodeStatus, run_episode
from cogloop.memory import EntryKind, MemoryEntry
from cogloop.runtime import StagedWrite
from cogloop.trace import aggregate_metrics, compute_elp, compute_metrics

STATIC = {"goal.choose_colder": {"rule": "Book the colder destination."}}


def model(budget: int = 10, decay: float = 0.0, seed: int = 1) -> ContextModel:
    return ContextModel(budget=budget, decay=decay, seed=seed, static=STATIC)


def weather(entity: str, temp: float, rain: bool = False) -> dict:
    return {"location": entity, "temp_f": temp, "precipitation": rain}


def insert(ctx: ContextModel, key: str, kind: EntryKind, payload: dict, cycle: int) -> None:
    """Insert an entry's leaves, made afresh, as a new call's result would."""
    ctx.insert(leaf_records([StagedWrite(key, kind, payload)]), cycle)


def visible(ctx: ContextModel, cycle: int) -> dict:
    """Key -> payload of each visible entry."""
    return {entry.key: entry.payload for entry, _ in ctx.visible_entries(cycle)}


def visible_keys(ctx: ContextModel, cycle: int) -> list[str]:
    return [entry.key for entry, _ in ctx.visible_entries(cycle)]


# ------------------------------------------------------------- context model
def test_context_model_rejects_bad_parameters():
    with pytest.raises(ConfigError):
        ContextModel(budget=0, decay=0.0, seed=1, static={})
    with pytest.raises(ConfigError):
        ContextModel(budget=1, decay=-0.1, seed=1, static={})


def test_insert_splits_entries_into_leaf_facts():
    ctx = model()
    insert(ctx, "obs.Seoul", EntryKind.OBSERVATION, weather("Seoul", 51.8), 1)
    assert ctx.retained() == 2  # location echo dropped, temp_f + precipitation kept
    insert(
        ctx, "act.book_flight", EntryKind.ACTION,
        {"name": "book_flight", "args": {"location": "Seoul"},
         "status": "executed", "confirmation": "ABC123"},
        2,
    )
    assert ctx.retained() == 4  # name/args dropped, status + confirmation kept


def test_window_evicts_oldest_inserted_fact():
    ctx = model(budget=3)
    insert(ctx, "obs.A", EntryKind.OBSERVATION, {"temp_f": 1.0, "precipitation": False}, 1)
    insert(ctx, "obs.B", EntryKind.OBSERVATION, {"temp_f": 2.0}, 2)
    assert ctx.retained() == 3
    insert(ctx, "obs.C", EntryKind.OBSERVATION, {"temp_f": 3.0}, 3)
    assert ctx.retained() == 3
    keys = visible_keys(ctx, 3)
    assert keys == ["goal.choose_colder", "obs.A", "obs.B", "obs.C"]
    entries = visible(ctx, 3)
    # Fields enter sorted, so obs.A.precipitation was the oldest slot.
    assert entries["obs.A"] == {"temp_f": 1.0}


def test_reinsert_refreshes_slot_position():
    ctx = model(budget=2)
    insert(ctx, "obs.A", EntryKind.OBSERVATION, {"temp_f": 1.0}, 1)
    insert(ctx, "obs.B", EntryKind.OBSERVATION, {"temp_f": 2.0}, 2)
    insert(ctx, "obs.A", EntryKind.OBSERVATION, {"temp_f": 9.0}, 3)  # refresh A
    insert(ctx, "obs.C", EntryKind.OBSERVATION, {"temp_f": 3.0}, 4)  # evicts B, not A
    entries = visible(ctx, 4)
    assert entries["obs.A"] == {"temp_f": 9.0}
    assert "obs.B" not in entries and entries["obs.C"] == {"temp_f": 3.0}


def test_window_entries_follow_inserts_not_equal_values():
    """1, 1.0 and True hash equal; each re-insert still shows its own value."""
    ctx = model()
    lines = []
    for cycle, value in enumerate([1, True, 1.0, 1], start=1):
        insert(ctx, "obs.A", EntryKind.OBSERVATION, {"flag": value}, cycle)
        first = ctx.visible_entries(cycle)[1]
        assert ctx.visible_entries(cycle)[1] is first  # same leaves, same entry and line
        assert first[1] == format_memory_fact(first[0])
        lines.append(first[1])
    assert lines == [f"{FACT_PREFIX}A: flag={text}" for text in ("1", "true", "1.0", "1")]


def test_refreshed_unchanged_fact_reuses_its_entry_and_line():
    """A re-run call refreshes the window with its own leaves, which show the entry and line
    made before; equal values from another result's leaves make a new entry."""
    ctx = model()
    seoul = leaf_records([StagedWrite("obs.Seoul", EntryKind.OBSERVATION, weather("Seoul", 0.5))])
    ctx.insert(seoul, 1)
    entry, line = ctx.visible_entries(1)[1]
    insert(ctx, "obs.Jeju", EntryKind.OBSERVATION, weather("Jeju", 60.8), 2)
    ctx.insert(seoul, 3)
    again = ctx.visible_entries(3)[2]
    assert again[0] is entry and again[1] is line
    insert(ctx, "obs.Seoul", EntryKind.OBSERVATION, weather("Seoul", 0.5), 4)
    fresh = ctx.visible_entries(4)[2]
    assert fresh[0] is not entry and fresh[1] == line


class SerialWindow:
    """The window as it was before leaf records, kept as the reference: every insert numbers
    its leaves with serials, and the recalled serials of one entry key its entry."""

    def __init__(self, budget: int, decay: float, seed: int, static: dict):
        self.budget, self.decay = budget, float(decay)
        self._rng = random.Random(f"context:{seed}")
        self._static = {k: MemoryEntry(k, EntryKind.OBSERVATION, dict(p), "context", "", 0)
                        for k, p in static.items()}
        self._facts: dict = {}  # leaf -> (value, inserted cycle, kind, insert serial)
        self._inserts = 0
        self._entries: dict = {}

    def insert(self, entry_key: str, kind: EntryKind, payload: dict, cycle: int) -> None:
        shown = shown_fields(entry_key, kind, payload)
        for field_name in sorted(shown):
            leaf = f"{entry_key}.{field_name}"
            if leaf in self._facts:
                del self._facts[leaf]
            self._inserts += 1
            self._facts[leaf] = (shown[field_name], cycle, kind, self._inserts)
            while len(self._facts) > self.budget:
                del self._facts[next(iter(self._facts))]

    def visible_entries(self, cycle: int) -> list[MemoryEntry]:
        grouped: dict = {}
        for leaf, fact in self._facts.items():
            recall = max(0.0, 1.0 - self.decay * (cycle - fact[1]))
            if self._rng.random() < recall:
                grouped.setdefault(leaf.rpartition(".")[0], []).append((leaf, fact))
        entries = dict(self._static)
        for key, recalled in grouped.items():
            serials = tuple(fact[3] for _, fact in recalled)
            entry = self._entries.get(serials)
            if entry is None:
                fields = {leaf.rpartition(".")[2]: fact[0] for leaf, fact in recalled}
                entry = MemoryEntry(key, recalled[0][1][2], fields, "context", "", 0)
                self._entries[serials] = entry
            entries[key] = entry
        return [entries[key] for key in sorted(entries)]


def shown_as(entries: list[MemoryEntry]) -> list[tuple]:
    """Each entry's key, kind and fields in order, with each value's type: ``1``, ``1.0`` and
    ``True`` compare equal."""
    return [(e.key, e.kind, [(k, type(v), v) for k, v in e.payload.items()]) for e in entries]


def kind_of(key: str) -> EntryKind:
    return EntryKind.ACTION if key.startswith("act.") else EntryKind.OBSERVATION


CALL_RESULTS = st.tuples(
    st.sampled_from(["obs.A", "obs.B", "act.book_flight"]),
    st.dictionaries(st.sampled_from(["flag", "temp_f", "location", "status", "confirmation"]),
                    st.sampled_from([1, 1.0, True, "A", "executed"]), min_size=1),
)


@settings(max_examples=200, deadline=None)
@given(
    results=st.lists(CALL_RESULTS, min_size=1, max_size=4),
    schedule=st.lists(st.none() | st.integers(0, 3), max_size=25),
    budget=st.integers(1, 6),
    decay=st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]),
    seed=st.integers(0, 50),
)
def test_window_shows_what_the_serial_window_shows(results, schedule, budget, decay, seed):
    """Inserts, re-runs (refreshes), evictions and decay: the window fed each call's leaves
    made once, as the baseline feeds it, shows the entries and lines the serial-keyed
    reference shows. (Leaves made afresh by every insert are the run with
    ``Baseline.leaves`` bypassed, which ``test_reference.py`` compares byte for byte.)"""
    reference = SerialWindow(budget, decay, seed, STATIC)
    window = model(budget, decay, seed)
    leaves = [leaf_records([StagedWrite(k, kind_of(k), payload)]) for k, payload in results]
    for cycle, step in enumerate(schedule, start=1):
        if step is not None and step < len(results):
            key, payload = results[step]
            reference.insert(key, kind_of(key), payload, cycle)
            window.insert(leaves[step], cycle)
        expected = reference.visible_entries(cycle)
        entries, shown = zip(*window.visible_entries(cycle))
        assert shown_as(list(entries)) == shown_as(expected)
        assert list(shown) == [format_memory_fact(entry) for entry in expected]



def test_zero_decay_recalls_everything_forever():
    ctx = model(budget=5, decay=0.0)
    insert(ctx, "obs.Seoul", EntryKind.OBSERVATION, weather("Seoul", 51.8), 1)
    for cycle in range(2, 30):
        assert visible_keys(ctx, cycle) == ["goal.choose_colder", "obs.Seoul"]


def test_full_decay_forgets_facts_after_one_cycle():
    ctx = model(budget=5, decay=1.0)
    insert(ctx, "obs.Seoul", EntryKind.OBSERVATION, weather("Seoul", 51.8), 1)
    assert visible_keys(ctx, 1) == ["goal.choose_colder", "obs.Seoul"]  # age 0
    assert visible_keys(ctx, 2) == ["goal.choose_colder"]  # age 1: recall 0


def test_static_context_exempt_from_budget_and_decay():
    ctx = ContextModel(budget=1, decay=1.0, seed=1, static=STATIC)
    insert(ctx, "obs.Seoul", EntryKind.OBSERVATION, {"temp_f": 51.8}, 1)
    insert(ctx, "obs.Jeju", EntryKind.OBSERVATION, {"temp_f": 60.8}, 1)
    assert ctx.retained() == 1
    assert "goal.choose_colder" in visible_keys(ctx, 40)


def test_recall_draws_are_deterministic_per_seed():
    def draws(seed: int) -> list[list[str]]:
        ctx = model(budget=6, decay=0.25, seed=seed)
        insert(ctx, "obs.Seoul", EntryKind.OBSERVATION, weather("Seoul", 51.8), 1)
        insert(ctx, "obs.Jeju", EntryKind.OBSERVATION, weather("Jeju", 60.8), 2)
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
