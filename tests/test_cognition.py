"""Proposer layer: serialized inputs, scripted planning, fault injection."""
from __future__ import annotations

import json
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogloop import cognition
from cogloop.cognition import (
    FACT_PREFIX,
    PHANTOM_KEY,
    CognitionInput,
    FactIndex,
    FactView,
    FaultConfig,
    FaultyProposer,
    GatherTemplate,
    PlannerPolicy,
    PolicyGap,
    Proposal,
    ScriptedProposer,
    assemble_input,
    format_memory_fact,
    parse_entities,
    parse_fact_line,
    plan_reads,
    request_text,
)
from cogloop.evidence import MemoryRef, render
from cogloop.goals import GoalSpec
from cogloop.loop import ConfigError, run_episode
from cogloop.memory import NOT_FOUND, EntryKind, MemoryEntry, MemoryStore, resolve_plan
from cogloop.regulation import DEFAULT_RULESET
from cogloop.runtime import ToolCall
from cogloop.scenario import Scenario, load_scenario, load_suite
from cogloop.util import canonical_json, content_digest

from conftest import SCENARIO_DIR, SUITE_DIR
from test_goals import TWO_CITY_GOAL

SHIPPED = [*load_suite(SUITE_DIR), *(
    load_scenario(SCENARIO_DIR / f"{name}.json")
    for name in ("weather_two_city", "rain_cancellation", "transient_retry")
)]


def entry(key: str, kind: EntryKind, payload: dict) -> MemoryEntry:
    return MemoryEntry(
        key=key, kind=kind, payload=payload, source="test", timestamp="", version=1
    )


def make_policy() -> PlannerPolicy:
    return PlannerPolicy(
        goal=GoalSpec.from_dict(TWO_CITY_GOAL),
        gather=GatherTemplate(
            tool="get_weather", arguments={"location": "{entity}", "date": "2025-06-14"}
        ),
        goal_citation="goal.choose_colder.rule",
    )


def fact(entity: str, body: str) -> str:
    return f"{FACT_PREFIX}{entity}: {body}"


SEOUL_LINE = fact("Seoul", "temp_f=51.8, precipitation=false")
JEJU_LINE = fact("Jeju", "temp_f=60.8, precipitation=false")
GOAL_LINE = fact("goal.choose_colder", "rule=Book the colder destination., source=user")


def cog_input(*facts: str, constraints: tuple[str, ...] = ()) -> CognitionInput:
    """An input built by hand, its derived values computed from scratch."""
    built = CognitionInput("sys", "pick a trip", "", facts, constraints, parse_entities(facts), "")
    return replace(built, input_digest=content_digest(built.to_request()))


# ------------------------------------------------------------ fact rendering
def test_observation_line_drops_location_echo():
    line = format_memory_fact(
        entry("obs.Seoul", EntryKind.OBSERVATION,
              {"location": "Seoul", "temp_f": 51.8, "precipitation": False})
    )
    assert line == "[Memory Fact] Seoul: temp_f=51.8, precipitation=false"


def test_context_line_keeps_full_key():
    line = format_memory_fact(
        entry("goal.choose_colder", EntryKind.OBSERVATION, {"rule": "Colder wins."})
    )
    assert line == "[Memory Fact] goal.choose_colder: rule=Colder wins."


def test_action_line_shows_status_and_confirmation_only():
    line = format_memory_fact(
        entry("act.book_flight", EntryKind.ACTION,
              {"name": "book_flight", "args": {"location": "Seoul"},
               "status": "executed", "confirmation": "ABC123"})
    )
    assert line == "[Memory Fact] act.book_flight: status=executed, confirmation=ABC123"


def test_unrenderable_kind_rejected():
    with pytest.raises(ValueError):
        format_memory_fact(entry("prop.cycle1", EntryKind.PROPOSAL, {"proposition": "x"}))


def test_parse_fact_line_round_trip():
    parsed = parse_fact_line(SEOUL_LINE)
    assert parsed == ("Seoul", {"temp_f": 51.8, "precipitation": False})
    assert parse_fact_line("not a fact line") is None


_IDENT = st.from_regex(r"[a-z][a-z_]{0,8}", fullmatch=True)
_SCALAR = st.one_of(
    st.booleans(),
    st.integers(min_value=-10**6, max_value=10**6),
    st.from_regex(r"[A-Za-z][A-Za-z0-9_-]{0,12}", fullmatch=True).filter(
        lambda s: s not in ("true", "false")
    ),
)


@given(st.dictionaries(_IDENT, _SCALAR, min_size=1, max_size=4))
def test_fact_line_round_trip_scalar_fields(fields):
    line = format_memory_fact(entry("obs.X", EntryKind.OBSERVATION, fields))
    assert parse_fact_line(line) == ("X", fields)


# ------------------------------------------------------------ input assembly
def test_assemble_input_filters_orders_and_dedupes():
    store = MemoryStore()
    store.write_staged("obs.Seoul", EntryKind.OBSERVATION,
                       {"temp_f": 50.0, "precipitation": False}, "sensor")
    store.write_staged("goal.choose_colder", EntryKind.OBSERVATION, {"rule": "r"}, "init")
    store.write_staged(
        "prop.cycle1", EntryKind.PROPOSAL, {"proposition": "x", "evidence": []}, "loop"
    )
    store.write_staged("status.terminated", EntryKind.TERMINATION_FLAG,
                       {"terminated": False}, "init")
    store.commit_cycle()
    store.write_staged("obs.Seoul", EntryKind.OBSERVATION,
                       {"temp_f": 51.8, "precipitation": False}, "sensor")
    store.commit_cycle()

    built = assemble_input("task", store.snapshot, ["avoid Busan"], DEFAULT_RULESET, FactIndex())
    assert built.facts == (
        "[Memory Fact] goal.choose_colder: rule=r",
        "[Memory Fact] Seoul: temp_f=51.8, precipitation=false",
    )
    assert built.constraints == ("avoid Busan",)
    assert "R-ARGS" in built.rules and built.task == "task"
    # The derived fields are not part of the input's identity or its request.
    bare = replace(built, entities={}, input_digest="")
    assert built == bare and repr(built) == repr(bare)
    assert built.entities == parse_entities(built.facts)
    assert built.input_digest == content_digest(built.to_request())


def test_fact_index_follows_commits_and_rejects_other_histories():
    store = MemoryStore()
    index = FactIndex()
    store.write_staged("goal.choose_colder", EntryKind.OBSERVATION, {"rule": "r"}, "init")
    first = store.commit_cycle()
    assert index.current(first)[0] == ("[Memory Fact] goal.choose_colder: rule=r",)
    store.write_staged("obs.Seoul", EntryKind.OBSERVATION, {"temp_f": 1.0}, "sensor")
    store.write_staged("act.book_flight", EntryKind.ACTION,
                       {"name": "book_flight", "args": {}, "status": "executed"}, "tool")
    store.write_staged("obs.Seoul", EntryKind.OBSERVATION, {"temp_f": 2.0}, "sensor")
    second = store.commit_cycle()
    lines = index.current(second)[0]
    assert lines == index.current(second)[0] == FactIndex().current(second)[0] == (
        "[Memory Fact] act.book_flight: status=executed",
        "[Memory Fact] goal.choose_colder: rule=r",
        "[Memory Fact] Seoul: temp_f=2.0",
    )
    with pytest.raises(ValueError, match="does not extend"):
        index.current(first)  # an older snapshot
    other = MemoryStore()
    for _ in range(5):
        other.write_staged("obs.Jeju", EntryKind.OBSERVATION, {"temp_f": 3.0}, "sensor")
    with pytest.raises(ValueError, match="does not extend"):
        index.current(other.commit_cycle())  # a longer log of another store


def test_fact_index_entity_shown_by_two_keys_follows_key_order():
    """``goal.x`` and ``obs.goal.x`` both show entity ``goal.x``. As in a fresh parse of
    the lines, which come in key order, ``obs.goal.x`` wins, whichever commits last."""
    store = MemoryStore()
    index = FactIndex()
    store.write_staged("obs.goal.x", EntryKind.OBSERVATION, {"v": 1}, "sensor")
    assert index.current(store.commit_cycle())[1] == {"goal.x": {"v": 1}}
    store.write_staged("goal.x", EntryKind.OBSERVATION, {"v": 2}, "init")
    lines, entities = index.current(store.commit_cycle())
    assert entities == parse_entities(lines) == {"goal.x": {"v": 1}}
    store.write_staged("obs.goal.x", EntryKind.OBSERVATION, {"v": 3}, "sensor")
    store.write_staged("goal.x", EntryKind.OBSERVATION, {"v": 4}, "init")
    lines, later = index.current(store.commit_cycle())
    assert later == parse_entities(lines) == {"goal.x": {"v": 3}}
    assert entities == {"goal.x": {"v": 1}}  # a copy: later commits leave it alone


def test_feedback_lines_are_shown_and_hashed_but_hold_no_entity():
    """A control-feedback line is in the input and its digest, but in no entity map: no plan
    reads one, and each rejection adds one. The rule reads the line (`FEEDBACK_LINE`), so
    both builders also leave out an observation whose entity is in the feedback namespace.
    A commit that changes no entity leaves the index's map the same object."""
    store, index = MemoryStore(), FactIndex()
    store.write_staged("goal.x", EntryKind.OBSERVATION, {"v": 1}, "init")
    first = assemble_input("t", store.commit_cycle(), [], DEFAULT_RULESET, index)
    rejected = "Proposal rejected [R-ARGS, R-DEDUP]: duplicate"
    store.write_staged("feedback.cycle1", EntryKind.CONTROL_FEEDBACK, {"message": rejected}, "c")
    store.write_staged("obs.feedback.cycle9", EntryKind.OBSERVATION, {"temp_f": 1.0}, "sensor")
    built = assemble_input("t", store.commit_cycle(), [], DEFAULT_RULESET, index)
    assert built.facts == (
        f"[Memory Fact] feedback.cycle1: message={rejected}",
        "[Memory Fact] goal.x: v=1",
        "[Memory Fact] feedback.cycle9: temp_f=1.0",
    )
    assert built.input_digest == content_digest(built.to_request())
    assert built.entities is first.entities
    assert built.entities == parse_entities(built.facts) == {"goal.x": {"v": 1}}
    # Asked directly, the line parser still reads a feedback line; a part that is not
    # name=value is skipped.
    assert parse_fact_line(built.facts[0]) == (
        "feedback.cycle1", {"message": "Proposal rejected [R-ARGS"}
    )


def test_fact_view_resolves_paths_as_the_snapshot_does():
    store = MemoryStore()
    store.write_staged("obs.Seoul", EntryKind.OBSERVATION,
                       {"location": "Seoul", "temp_f": 51.8, "sky": {"rain": False}}, "sensor")
    store.write_staged("goal.limits", EntryKind.OBSERVATION, {"temp_f": 60.0}, "init")
    store.write_staged("act.book_flight", EntryKind.ACTION,
                       {"name": "book_flight", "args": {}, "status": "executed"}, "tool")
    snapshot = store.commit_cycle()
    view = FactView(parse_entities(FactIndex().current(snapshot)[0]))
    paths = [
        "obs.Seoul.temp_f", "obs.Seoul.temp", "obs.Seoul.sky.rain", "obs.Seoul.humidity",
        "obs.Jeju.temp_f", "obs.Seo ul.temp_f", "obs", "goal.limits.temp",
        "goal.limits.temp_f.x", "act.book_flight.status", "act.cancel.status",
    ]
    assert {p: view.resolve(p) for p in paths} == {p: snapshot.resolve(p) for p in paths}
    assert list(view.reads) == [p for p in paths if p.startswith("obs.")]


def test_input_digest_tracks_content():
    store, index = MemoryStore(), FactIndex()
    digests = []
    for temp in (51.8, 51.8, 60.8):
        store.write_staged("obs.Seoul", EntryKind.OBSERVATION, {"temp_f": temp}, "sensor")
        snapshot = store.commit_cycle()
        digests.append(assemble_input("t", snapshot, [], DEFAULT_RULESET, index).input_digest)
    assert digests[0] == digests[1] != digests[2]


# Quotes, backslashes, control characters, line separators, lone surrogates
# and non-BMP text, mixed into arbitrary text.
input_text = st.text(
    st.one_of(
        st.characters(blacklist_categories=()),
        st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\ud800", "\udfff",
                         "\U0001f600"]),
    ),
    max_size=12,
)


@given(
    system=input_text,
    task=input_text,
    rules=input_text,
    facts=st.lists(input_text, max_size=4),
    constraints=st.lists(input_text, max_size=3),
)
def test_input_digest_equals_digest_of_request(system, task, rules, facts, constraints):
    """`request_text`, which every input digest hashes, is the request's canonical JSON."""
    request = {"system": system, "task": task, "rules": rules, "facts": facts,
               "constraints": constraints}
    laid_out = request_text(system, task, rules, map(canonical_json, facts), tuple(constraints))
    assert laid_out == canonical_json(request)


KEY_SPACE = 1 << 40  # fact keys obs.k<n>, n in [0, KEY_SPACE), zero-padded to sort by n
CONSTRAINTS = st.sampled_from([(), ("avoid Busan",), ('say "no"', "avoid Busan")])


SIZE_EDGES = [63, 64, 65, 127, 128, 129, 191, 192, 193]  # 64, 128 and 192 lines, give or take one


@st.composite
def fact_histories(draw, constraints=CONSTRAINTS) -> list[tuple[list[str], tuple[str, ...]]]:
    """Cycles of fact writes, each with its constraints (``None``: new ones every cycle).

    The first cycle writes up to 194 lines; each later one inserts keys at the front, the
    end, a `SIZE_EDGES` line, one line before, at or after the first line the last cycle
    changed, or anywhere between, rewrites lines in place (as transient_retry's error
    marker does), or writes no fact.
    """
    count = draw(st.one_of(st.sampled_from([0, *SIZE_EDGES]), st.integers(0, 194)))
    ids = [n * (KEY_SPACE // (count + 1)) for n in range(1, count + 1)]
    cycles, changed = [list(ids)], 0
    for _ in range(draw(st.integers(0, 8))):
        writes = []
        for _ in range(draw(st.integers(0, 3))):
            near = [changed - 1, changed, changed + 1]
            at = draw(st.one_of(st.sampled_from([0, len(ids), *SIZE_EDGES, *near]),
                                st.integers(0, len(ids))))
            at = min(max(at, 0), len(ids))
            if at < len(ids) and draw(st.booleans()):
                writes.append(ids[at])  # rewrite in place
                continue
            low, high = ids[at - 1] if at else -1, ids[at] if at < len(ids) else KEY_SPACE
            if high - low > 1:
                ids.insert(at, (low + high) // 2)
                writes.append(ids[at])
        changed = min(map(ids.index, writes), default=changed)
        cycles.append(writes)
    return [
        ([f"obs.k{n:013d}" for n in writes], (f"cycle {i}",) if constraints is None else
         draw(constraints))
        for i, writes in enumerate(cycles)
    ]


def assembled(history) -> list[CognitionInput]:
    """The input each cycle of ``history`` gives, built by one episode's fact index."""
    store, index, inputs = MemoryStore(), FactIndex(), []
    for cycle, (keys, constraints) in enumerate(history):
        for key in keys:
            store.write_staged(key, EntryKind.OBSERVATION, {"v": cycle}, "sensor")
        store.write_staged(f"prop.cycle{cycle}", EntryKind.PROPOSAL,
                           {"proposition": "p", "evidence": []}, "loop")
        snapshot = store.commit_cycle()
        inputs.append(assemble_input("task", snapshot, list(constraints), DEFAULT_RULESET, index))
    return inputs


@settings(max_examples=150, deadline=None)
@given(history=fact_histories())
def test_input_digest_after_line_edits_equals_a_plain_digest(history):
    """Over empty facts, inserts at the front, the end and around the last cycle's first
    change, rewrites in place, and cycles that change no line or the constraints, each
    input's digest, hashed from the lines' kept canonical JSON, is that of its request."""
    for built in assembled(history):
        assert built.input_digest == content_digest(built.to_request())


# ---------------------------------------------------------- scripted planner
def test_planner_gathers_entities_in_goal_order():
    proposer = ScriptedProposer(make_policy())
    first = proposer.propose(cog_input(GOAL_LINE))
    assert first.call == ToolCall("get_weather", {"location": "Seoul", "date": "2025-06-14"})
    assert first.rationale == "missing required facts for Seoul"
    second = proposer.propose(cog_input(GOAL_LINE, SEOUL_LINE))
    assert second.call.arguments["location"] == "Jeju"


def test_planner_records_fact_reads_including_misses():
    proposer = ScriptedProposer(make_policy())
    proposer.propose(cog_input(GOAL_LINE, SEOUL_LINE))
    reads = dict(proposer.last_meta.fact_reads)
    assert reads["obs.Seoul.temp_f"] == 51.8
    assert reads["obs.Jeju.temp_f"] is NOT_FOUND


def test_planner_branch_action_with_citations():
    proposer = ScriptedProposer(make_policy())
    proposal = proposer.propose(cog_input(GOAL_LINE, SEOUL_LINE, JEJU_LINE))
    assert proposal.call == ToolCall("book_flight", {"location": "Seoul"})
    assert proposal.rationale == "branch condition satisfied"
    rendered = [render(c) for c in proposal.citations]
    assert rendered == [
        "obs.Seoul.temp_f < obs.Jeju.temp_f",
        "goal.choose_colder.rule",
    ]


def test_planner_completion_after_action_recorded():
    booked = fact("act.book_flight", "status=executed, confirmation=ABC123")
    proposer = ScriptedProposer(make_policy())
    proposal = proposer.propose(cog_input(GOAL_LINE, SEOUL_LINE, JEJU_LINE, booked))
    assert proposal.call is None
    assert proposal.rationale == "all goal work complete"


def test_planner_cancellation_preempts_branches():
    rain_seoul = fact("Seoul", "temp_f=51.8, precipitation=true")
    rain_jeju = fact("Jeju", "temp_f=60.8, precipitation=true")
    proposer = ScriptedProposer(make_policy())
    proposal = proposer.propose(cog_input(GOAL_LINE, rain_seoul, rain_jeju))
    assert proposal.call.name == "send_email"
    assert proposal.rationale == "cancellation condition satisfied"


def test_planner_regathers_error_marker_entity():
    marker = fact("Seoul", "error=TransientFailure, tool=get_weather")
    proposer = ScriptedProposer(make_policy())
    proposal = proposer.propose(cog_input(GOAL_LINE, marker, JEJU_LINE))
    assert proposal.call == ToolCall("get_weather", {"location": "Seoul", "date": "2025-06-14"})
    assert proposal.rationale == "missing required facts for Seoul"


def threshold_policy() -> PlannerPolicy:
    """Book Seoul when it is warmer than the ``goal.threshold`` line's value."""
    config = {
        "required_facts": ["obs.Seoul.temp_f"],
        "branches": [
            {
                "condition": ["goal.threshold.value < obs.Seoul.temp_f"],
                "actions": [{"name": "book_flight", "arguments": {"location": "Seoul"}}],
            }
        ],
    }
    return PlannerPolicy(
        goal=GoalSpec.from_dict(config),
        gather=GatherTemplate(tool="get_weather",
                              arguments={"location": "{entity}", "date": "2025-06-14"}),
    )


def test_policy_gap_when_condition_unresolvable():
    proposer = ScriptedProposer(threshold_policy())
    with pytest.raises(PolicyGap):
        proposer.propose(cog_input(SEOUL_LINE))  # goal.threshold never observed


def test_policy_gap_raises_on_every_cycle_of_its_state():
    """A PolicyGap is never memoized: the same fields raise on each cycle."""
    policy = threshold_policy()
    for proposer in (ScriptedProposer(policy), FaultyProposer(policy, FaultConfig(p_duplicate=1))):
        state = cog_input(SEOUL_LINE)
        for _ in range(3):
            with pytest.raises(PolicyGap):
                proposer.propose(state)


def test_plan_reads_keeps_its_names_and_their_order():
    """``plan_reads`` is ``GoalSpec.read_keys`` with ``obs.`` stripped; for every shipped
    goal it names what it named when it listed each prefix, the goal entities and each
    ``act.<tool>`` itself, in the same order."""
    for scenario in SHIPPED:
        goal = scenario.policy.goal
        paths = (*goal.required_facts, *goal.condition_keys())
        assert plan_reads(goal) == tuple(dict.fromkeys([
            *(key.removeprefix("obs.") for path in paths for key, _ in resolve_plan(path)),
            *goal.entities(),
            *(f"act.{action.name}" for action in goal.action_templates()),
        ])), scenario.name


def test_plan_reads_a_goal_key_through_its_entry():
    """A condition on ``goal.threshold.value`` reads the ``goal.threshold`` line."""
    proposer = ScriptedProposer(threshold_policy())
    state = cog_input(fact("goal.threshold", "value=40"), SEOUL_LINE)
    for _ in range(2):
        assert proposer.propose(state).call == ToolCall("book_flight", {"location": "Seoul"})
    warmer = cog_input(fact("goal.threshold", "value=60"), SEOUL_LINE)
    assert proposer.propose(warmer).rationale == "all goal work complete"


def with_entities(entities: dict) -> CognitionInput:
    return replace(cog_input(), entities=entities)


def test_plan_memo_keys_on_fields_objects_not_their_values():
    """Every proposer reads one plan memo, keyed by the policy object and the identities
    of the fields objects. The same objects hit it from any proposer of the policy and
    return the stored proposal itself; equal but distinct fields dicts, or an equal policy
    that is another object, miss it and make a new plan. Parsing a line again gives the
    line's one fields object."""
    policy = make_policy()
    first = parse_entities((GOAL_LINE, SEOUL_LINE))
    assert parse_entities((SEOUL_LINE,))["Seoul"] is first["Seoul"]
    proposer = ScriptedProposer(policy)
    answers = [proposer.propose(with_entities(first))]
    reads = proposer.last_meta.fact_reads
    other = ScriptedProposer(policy)
    answers.append(other.propose(with_entities(dict(first))))  # the same objects
    assert answers[1] is answers[0] and other.last_meta.fact_reads == reads
    equal = {name: dict(fields) for name, fields in first.items()}
    answers.append(other.propose(with_entities(equal)))
    assert answers[2] is not answers[1] and other.last_meta.fact_reads == reads
    twin = ScriptedProposer(make_policy())
    answers.append(twin.propose(with_entities(first)))
    assert answers[3] is not answers[0] and twin.last_meta.fact_reads == reads
    assert len({json.dumps(a.to_response()) for a in answers}) == 1


def test_plan_sees_only_the_fields_its_goal_reads(monkeypatch):
    """Entities outside the goal's reads neither reach the plan nor miss the memo."""
    views = []

    class Recording(FactView):
        def __init__(self, entities):
            super().__init__(entities)
            views.append(self)

    monkeypatch.setattr(cognition, "FactView", Recording)
    proposer = ScriptedProposer(make_policy())
    state = parse_entities((GOAL_LINE, SEOUL_LINE))
    planned = proposer.propose(with_entities(state))
    unread = {**state, "feedback.cycle7": {"message": "x"}}
    assert proposer.propose(with_entities(unread)) is planned
    assert len(views) == 1
    assert set(views[0].entities) == {"Seoul"}


# ------------------------------------------------------------ fault injection
def replay(proposer, states: list[tuple[str, ...]]) -> list[Proposal]:
    return [proposer.propose(cog_input(*facts)) for facts in states]


EPISODE_STATES = [
    (GOAL_LINE,),
    (GOAL_LINE, SEOUL_LINE),
    (GOAL_LINE, SEOUL_LINE, JEJU_LINE),
    (GOAL_LINE, SEOUL_LINE, JEJU_LINE,
     fact("act.book_flight", "status=executed, confirmation=ABC123")),
]


def test_fault_config_rejects_unknown_fields():
    with pytest.raises(TypeError, match="p_gremlins"):
        FaultConfig(**{"seed": 1, "p_gremlins": 0.5})


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"p_duplicate": 1.5}, "p_duplicate: fault probability 1.5 outside [0, 1]"),
        ({"p_missing_arg": -0.5}, "p_missing_arg: fault probability -0.5 outside [0, 1]"),
        ({"p_uncited_claim": "0.1"}, "p_uncited_claim: fault probability '0.1' outside [0, 1]"),
        ({"p_false_citation": float("nan")},
         "p_false_citation: fault probability nan outside [0, 1]"),
        ({"p_premature_action": True},
         "p_premature_action: fault probability True outside [0, 1]"),
        ({"seed": "1"}, "fault seed must be an integer, got '1'"),
        ({"seed": 0.5}, "fault seed must be an integer, got 0.5"),
    ],
    ids=["above-one", "negative", "string", "nan", "boolean", "seed-string", "seed-float"],
)
def test_fault_config_checks_its_values_when_built(fields, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        FaultConfig(**fields)


def test_fault_config_round_trip_omits_zero_rates():
    config = FaultConfig(seed=3, p_duplicate=0.25)
    assert config.probability("duplicate") == 0.25
    assert config.any_enabled()
    assert config.to_dict() == {"seed": 3, "p_duplicate": 0.25}
    assert not FaultConfig().any_enabled()


def test_zero_probability_matches_scripted_exactly():
    scripted = replay(ScriptedProposer(make_policy()), EPISODE_STATES)
    faulty = replay(
        FaultyProposer(make_policy(), FaultConfig(seed=9), episode_seed=4), EPISODE_STATES
    )
    assert faulty == scripted


def test_completion_proposals_never_mutated():
    always = FaultConfig(seed=1, p_duplicate=1.0, p_missing_arg=1.0,
                         p_uncited_claim=1.0, p_premature_action=1.0,
                         p_false_citation=1.0)
    proposer = FaultyProposer(make_policy(), always, episode_seed=1)
    proposal = proposer.propose(cog_input(*EPISODE_STATES[-1]))
    assert proposal.call is None
    assert proposer.last_meta.fault_label is None


def test_missing_arg_mutation_strips_arguments():
    only = FaultConfig(seed=2, p_missing_arg=1.0)
    proposer = FaultyProposer(make_policy(), only, episode_seed=0)
    proposal = proposer.propose(cog_input(GOAL_LINE))
    assert proposal.call == ToolCall("get_weather", {})
    assert proposer.last_meta.fault_label == "missing_arg"


def test_false_citation_mutation_adds_phantom_key():
    only = FaultConfig(seed=2, p_false_citation=1.0)
    proposer = FaultyProposer(make_policy(), only, episode_seed=0)
    proposal = proposer.propose(cog_input(*EPISODE_STATES[2]))
    assert MemoryRef(PHANTOM_KEY) in proposal.citations
    assert proposer.last_meta.fault_label == "false_citation"


def test_uncited_claim_mutation_drops_citations():
    only = FaultConfig(seed=2, p_uncited_claim=1.0)
    proposer = FaultyProposer(make_policy(), only, episode_seed=0)
    proposal = proposer.propose(cog_input(*EPISODE_STATES[2]))
    assert proposal.call.name == "book_flight" and proposal.citations == ()
    assert proposer.last_meta.fault_label == "uncited_claim"
    gather = proposer.propose(cog_input(GOAL_LINE))
    assert proposer.last_meta.fault_label is None  # gathers carry no citations
    assert gather.call.name == "get_weather"


def test_premature_action_mutation_only_during_gather():
    only = FaultConfig(seed=2, p_premature_action=1.0)
    proposer = FaultyProposer(make_policy(), only, episode_seed=0)
    premature = proposer.propose(cog_input(GOAL_LINE))
    assert premature.call.name == "book_flight"
    assert proposer.last_meta.fault_label == "premature_action"
    settled = proposer.propose(cog_input(*EPISODE_STATES[2]))
    assert proposer.last_meta.fault_label is None
    assert settled.call.name == "book_flight"


def test_duplicate_mutation_regathers_known_entity():
    only = FaultConfig(seed=2, p_duplicate=1.0)
    proposer = FaultyProposer(make_policy(), only, episode_seed=0)
    proposal = proposer.propose(cog_input(GOAL_LINE, SEOUL_LINE))
    assert proposal.call == ToolCall("get_weather", {"location": "Seoul", "date": "2025-06-14"})
    assert proposer.last_meta.fault_label == "duplicate"
    fresh = proposer.propose(cog_input(GOAL_LINE))
    assert proposer.last_meta.fault_label is None  # nothing gathered yet to duplicate
    assert fresh.call.arguments["location"] == "Seoul"


def test_duplicate_fault_regathers_entities_named_like_namespaces(scenario_dir):
    """An observed entity named ``actium`` is a known fact like any other."""
    text = (scenario_dir / "weather_two_city.json").read_text().replace("Seoul", "actium")
    scenario = Scenario.from_dict(json.loads(text))
    regathered = []
    for seed in range(1, 6):
        config = scenario.episode_config(seed, faults=FaultConfig(seed=3, p_duplicate=0.5))
        for record in run_episode(config).trace.cycles:
            if record.fault_label == "duplicate":
                regathered.append(record.proposal["call"]["arguments"]["location"])
    assert regathered and set(regathered) == {"actium"}


def test_fault_stream_deterministic_per_seed_pair():
    def labels(fault_seed: int, episode_seed: int) -> list[str | None]:
        config = FaultConfig(seed=fault_seed, p_duplicate=0.3, p_missing_arg=0.3,
                             p_false_citation=0.3)
        proposer = FaultyProposer(make_policy(), config, episode_seed=episode_seed)
        out = []
        for state in EPISODE_STATES * 3:
            proposer.propose(cog_input(*state))
            out.append(proposer.last_meta.fault_label)
        return out

    assert labels(5, 1) == labels(5, 1)
    runs = {tuple(labels(5, e)) for e in range(6)}
    assert len(runs) > 1  # episode seed perturbs the stream

