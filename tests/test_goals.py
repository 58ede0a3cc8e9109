"""Goal specs: entity derivation, template matching, triggering and success evaluation."""
from __future__ import annotations

import pytest

from cogloop.evidence import UNKNOWN
from cogloop.goals import GoalSpec, GoalWatch, action_executed
from cogloop.memory import EntryKind, MemoryStore
from cogloop.runtime import ToolCall
from cogloop.util import ConfigError

TWO_CITY_GOAL = {
    "required_facts": [
        "obs.Seoul.temp_f",
        "obs.Seoul.precipitation",
        "obs.Jeju.temp_f",
        "obs.Jeju.precipitation",
    ],
    "cancellation": {
        "condition": [
            "obs.Seoul.precipitation == true",
            "obs.Jeju.precipitation == true",
        ],
        "action": {
            "name": "send_email",
            "arguments": {"to": "traveler@example.com", "subject": "Trip cancelled"},
        },
    },
    "branches": [
        {
            "condition": ["obs.Jeju.temp_f <= obs.Seoul.temp_f"],
            "actions": [{"name": "book_flight", "arguments": {"location": "Jeju"}}],
        },
        {
            "condition": ["obs.Seoul.temp_f < obs.Jeju.temp_f"],
            "actions": [{"name": "book_flight", "arguments": {"location": "Seoul"}}],
        },
    ],
}


@pytest.fixture
def goal() -> GoalSpec:
    return GoalSpec.from_dict(TWO_CITY_GOAL)


def seeded_store(facts: dict[str, dict], actions: list[dict] | None = None) -> MemoryStore:
    store = MemoryStore()
    for key, payload in facts.items():
        store.write_staged(key, EntryKind.OBSERVATION, payload, source="test")
    for record in actions or []:
        store.write_staged(f"act.{record['name']}", EntryKind.ACTION, record, source="test")
    store.commit_cycle()
    return store


ALL_FACTS = {
    "obs.Seoul": {"temp_f": 51.8, "precipitation": False},
    "obs.Jeju": {"temp_f": 60.8, "precipitation": False},
}


# -------------------------------------------------------------------- shape
def test_entities_first_seen_order(goal):
    assert goal.entities() == ["Seoul", "Jeju"]
    assert goal.facts_for_entity("Seoul") == ["obs.Seoul.temp_f", "obs.Seoul.precipitation"]


def test_action_templates_cancellation_first(goal):
    names = [t.name for t in goal.action_templates()]
    assert names == ["send_email", "book_flight", "book_flight"]
    assert goal.all_branches() == (goal.cancellation, *goal.branches)


def test_matching_template_uses_canonical_arguments(goal):
    branch = goal.matching_template(ToolCall("book_flight", {"location": " Jeju "}))
    assert branch is goal.branches[0]
    cancellation = goal.matching_template(
        ToolCall("send_email", {"subject": "Trip cancelled", "to": "traveler@example.com"})
    )
    assert cancellation is goal.cancellation
    assert goal.matching_template(ToolCall("book_flight", {"location": "Busan"})) is None
    assert goal.matching_template(ToolCall("make_chart", {"location": "Jeju"})) is None


def test_round_trip_through_dict(goal):
    again = GoalSpec.from_dict(goal.to_dict())
    assert again == goal


# --------------------------------------------------------------- validation
def test_missing_required_facts_rejected():
    with pytest.raises(ConfigError):
        GoalSpec.from_dict({"required_facts": []})
    with pytest.raises(ConfigError):
        GoalSpec.from_dict({})


def test_non_observation_fact_rejected():
    with pytest.raises(ConfigError):
        GoalSpec.from_dict({"required_facts": ["act.book_flight"]})


def test_condition_outside_required_facts_rejected():
    config = {
        "required_facts": ["obs.Seoul.temp_f"],
        "branches": [
            {
                "condition": ["obs.Busan.temp_f < 60"],
                "actions": [{"name": "book_flight", "arguments": {"location": "Busan"}}],
            }
        ],
    }
    with pytest.raises(ConfigError, match="obs.Busan.temp_f"):
        GoalSpec.from_dict(config)


def test_goal_context_references_always_allowed():
    config = {
        "required_facts": ["obs.Seoul.temp_f"],
        "branches": [
            {
                "condition": ["goal.threshold.value < obs.Seoul.temp_f"],
                "actions": [{"name": "book_flight", "arguments": {"location": "Seoul"}}],
            }
        ],
    }
    GoalSpec.from_dict(config)  # does not raise


# ---------------------------------------------------------------- triggered
def test_triggered_is_unknown_while_the_guard_is_unknown(goal):
    temps_only = seeded_store({"obs.Seoul": {"temp_f": 51.8}, "obs.Jeju": {"temp_f": 60.8}})
    assert goal.triggered(temps_only.snapshot) is UNKNOWN


def test_holding_guard_preempts_every_branch(goal):
    raining = seeded_store({
        "obs.Seoul": {"temp_f": 51.8, "precipitation": True},
        "obs.Jeju": {"temp_f": 60.8, "precipitation": True},
    })
    assert goal.triggered(raining.snapshot) == (goal.cancellation,)


def test_branches_that_hold_together_come_back_in_spec_order():
    config = dict(TWO_CITY_GOAL, branches=[
        {"condition": ["obs.Jeju.temp_f <= obs.Seoul.temp_f"],
         "actions": [{"name": "book_flight", "arguments": {"location": "Jeju"}}]},
        {"condition": ["obs.Seoul.temp_f <= obs.Jeju.temp_f"],
         "actions": [{"name": "book_flight", "arguments": {"location": "Seoul"}}]},
    ])
    goal = GoalSpec.from_dict(config)
    tie = seeded_store({
        "obs.Seoul": {"temp_f": 51.8, "precipitation": False},
        "obs.Jeju": {"temp_f": 51.8, "precipitation": False},
    })
    assert goal.triggered(tie.snapshot) == goal.branches
    assert goal.triggered(seeded_store(ALL_FACTS).snapshot) == (goal.branches[1],)


def test_one_unknown_branch_makes_triggered_unknown():
    config = dict(TWO_CITY_GOAL)
    config["branches"] = [
        *TWO_CITY_GOAL["branches"],
        {"condition": ["goal.limits.max_f > obs.Seoul.temp_f"],
         "actions": [{"name": "make_chart", "arguments": {"location": "Seoul"}}]},
    ]
    goal = GoalSpec.from_dict(config)
    # Seoul is colder, so branch 2 holds, but goal.limits is not in memory.
    assert goal.triggered(seeded_store(ALL_FACTS).snapshot) is UNKNOWN
    limits = seeded_store({**ALL_FACTS, "goal.limits": {"max_f": 70}})
    assert goal.triggered(limits.snapshot) == goal.branches[1:]


# ------------------------------------------------------------------ success
def test_success_requires_all_facts(goal):
    partial = seeded_store({"obs.Seoul": ALL_FACTS["obs.Seoul"]})
    assert not goal.success(partial.snapshot)


def test_success_requires_triggered_branch_action(goal):
    store = seeded_store(ALL_FACTS)
    assert not goal.success(store.snapshot)
    booked = seeded_store(
        ALL_FACTS,
        actions=[{"name": "book_flight", "args": {"location": "Seoul"}, "status": "executed"}],
    )
    assert goal.success(booked.snapshot)


def test_wrong_branch_action_does_not_satisfy(goal):
    store = seeded_store(
        ALL_FACTS,
        actions=[{"name": "book_flight", "args": {"location": "Jeju"}, "status": "executed"}],
    )
    assert not goal.success(store.snapshot)


def test_cancellation_preempts_branches(goal):
    raining = {
        "obs.Seoul": {"temp_f": 51.8, "precipitation": True},
        "obs.Jeju": {"temp_f": 60.8, "precipitation": True},
    }
    booked_anyway = seeded_store(
        raining,
        actions=[{"name": "book_flight", "args": {"location": "Seoul"}, "status": "executed"}],
    )
    assert not goal.success(booked_anyway.snapshot)
    emailed = seeded_store(
        raining,
        actions=[
            {
                "name": "send_email",
                "args": {"to": "traveler@example.com", "subject": "Trip cancelled"},
                "status": "executed",
            }
        ],
    )
    assert goal.success(emailed.snapshot)


def test_action_executed_needs_the_same_tool_and_canonical_args():
    book_seoul = ToolCall("book_flight", {"location": "Seoul"})
    # An executed record of another tool with equal args does not count.
    other_tool = seeded_store(
        {}, actions=[{"name": "make_chart", "args": {"location": "Seoul"}, "status": "executed"}]
    )
    assert not action_executed(other_tool.snapshot, book_seoul)
    # Raw args that canonicalize to the call's do.
    booked = seeded_store(
        {}, actions=[{"name": "book_flight", "args": {"location": " Seoul "}, "status": "executed"}]
    )
    assert action_executed(booked.snapshot, book_seoul)
    assert not action_executed(booked.snapshot, ToolCall("book_flight", {"location": "Jeju"}))


# -------------------------------------------------------------------- watch
def test_read_keys_are_every_prefix_of_the_facts_and_conditions_then_the_action_records(goal):
    assert goal.read_keys == (
        "obs.Seoul.temp_f", "obs.Seoul", "obs",
        "obs.Seoul.precipitation",
        "obs.Jeju.temp_f", "obs.Jeju",
        "obs.Jeju.precipitation",
        "act.send_email", "act.book_flight",
    )


def test_watch_follows_each_commit_of_one_store(goal, monkeypatch):
    """Commits of keys the goal never reads keep the verdict; each other commit recomputes it."""
    watch, store = GoalWatch(goal), MemoryStore()
    computed = []
    success = GoalSpec.success
    monkeypatch.setattr(GoalSpec, "success", lambda self, s: computed.append(s) or success(self, s))

    def commit(key, kind, payload):
        store.write_staged(key, kind, payload, source="test")
        return store.commit_cycle()

    assert watch.success(store.snapshot) is False  # an empty snapshot
    commit("obs.Seoul", EntryKind.OBSERVATION, ALL_FACTS["obs.Seoul"])
    commit("obs.Jeju", EntryKind.OBSERVATION, ALL_FACTS["obs.Jeju"])
    assert watch.success(store.snapshot) is False
    unread = commit("feedback.cycle1", EntryKind.CONTROL_FEEDBACK, {"message": "x"})
    assert watch.success(unread) is False and len(computed) == 2
    booked = commit(
        "act.book_flight", EntryKind.ACTION,
        {"name": "book_flight", "args": {"location": "Seoul"}, "status": "executed"},
    )
    assert watch.success(booked) is True and len(computed) == 3
    for _ in range(3):
        later = commit("prop.cycle2", EntryKind.PROPOSAL, {"proposition": "p", "evidence": []})
        assert watch.success(later) is True
    assert len(computed) == 3
    # A new version of a read key recomputes, even when the verdict stays.
    rewritten = commit("obs.Jeju", EntryKind.OBSERVATION, ALL_FACTS["obs.Jeju"])
    assert watch.success(rewritten) is True and len(computed) == 4


def test_watch_recomputes_for_a_snapshot_that_does_not_extend_the_last(goal):
    booked = seeded_store(
        ALL_FACTS,
        actions=[{"name": "book_flight", "args": {"location": "Seoul"}, "status": "executed"}],
    )
    unbooked = seeded_store(ALL_FACTS)
    watch = GoalWatch(goal)
    assert watch.success(booked.snapshot) is True
    # Other stores' snapshots: shorter, longer, as long.
    assert watch.success(unbooked.snapshot) is False
    assert watch.success(booked.snapshot) is True
    unbooked.write_staged("feedback.cycle1", EntryKind.CONTROL_FEEDBACK, {"message": "x"}, "t")
    assert watch.success(unbooked.commit_cycle()) is False
    # Earlier and later snapshots of one store.
    store = MemoryStore()
    first = store.snapshot
    store.write_staged("obs.Seoul", EntryKind.OBSERVATION, ALL_FACTS["obs.Seoul"], "t")
    partial = store.commit_cycle()
    store.write_staged("obs.Jeju", EntryKind.OBSERVATION, ALL_FACTS["obs.Jeju"], "t")
    store.write_staged("act.book_flight", EntryKind.ACTION,
                       {"name": "book_flight", "args": {"location": "Seoul"}, "status": "executed"},
                       "t")
    done = store.commit_cycle()
    assert [watch.success(s) for s in (done, partial, done, first, done)] == [
        True, False, True, False, True
    ]
