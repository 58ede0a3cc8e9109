"""Goal specs: entity derivation, template matching, success evaluation."""
from __future__ import annotations

import pytest

from cogloop.goals import GoalConfigError, GoalSpec, action_executed
from cogloop.memory import EntryKind, MemoryStore
from cogloop.runtime import ToolCall

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
    assert goal.total_planned_actions() == 3


def test_matching_template_uses_canonical_arguments(goal):
    kind, condition = goal.matching_template(
        ToolCall("book_flight", {"location": " Jeju "})
    )
    assert kind == "branch" and len(condition) == 1
    kind, _ = goal.matching_template(
        ToolCall("send_email", {"subject": "Trip cancelled", "to": "traveler@example.com"})
    )
    assert kind == "cancellation"
    assert goal.matching_template(ToolCall("book_flight", {"location": "Busan"})) is None
    assert goal.matching_template(ToolCall("make_chart", {"location": "Jeju"})) is None


def test_round_trip_through_dict(goal):
    again = GoalSpec.from_dict(goal.to_dict())
    assert again == goal


# --------------------------------------------------------------- validation
def test_missing_required_facts_rejected():
    with pytest.raises(GoalConfigError):
        GoalSpec.from_dict({"required_facts": []})
    with pytest.raises(GoalConfigError):
        GoalSpec.from_dict({})


def test_non_observation_fact_rejected():
    with pytest.raises(GoalConfigError):
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
    with pytest.raises(GoalConfigError, match="obs.Busan.temp_f"):
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
