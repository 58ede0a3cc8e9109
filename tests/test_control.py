"""Validation layer: check ordering, verdicts, feedback, failure handling."""
from __future__ import annotations

from dataclasses import replace

import pytest

from cogloop.cli import parse_faults
from cogloop.cognition import Proposal
from cogloop.control import (
    DEDUP_RULE_ID,
    ESCALATION_THRESHOLD,
    CallChecks,
    ControlDecision,
    TerminationReason,
    Verdict,
    _Validation,
    check_termination,
    on_tool_failure,
    validate,
)
from cogloop.evidence import MemoryRef, parse
from cogloop.goals import Branch, GoalSpec, GoalWatch
from cogloop.loop import run_episode
from cogloop.memory import NOT_FOUND, EntryKind, MemoryStore
from cogloop.regulation import DEFAULT_RULESET, RuleSet
from cogloop.runtime import (
    ErrorCode, Runtime, ToolCall, ToolResult, WorldState, argument_problems, builtin_registry,
)
from cogloop.scenario import load_suite
from cogloop.trace import EpisodeTrace

from test_goals import TWO_CITY_GOAL

GOAL = GoalSpec.from_dict(TWO_CITY_GOAL)
REGISTRY = builtin_registry()

SEOUL = {"temp_f": 51.8, "precipitation": False}
JEJU = {"temp_f": 60.8, "precipitation": False}

GATHER_SEOUL = ToolCall("get_weather", {"location": "Seoul", "date": "2025-06-14"})
BOOK_SEOUL = Proposal(
    call=ToolCall("book_flight", {"location": "Seoul"}),
    citations=(parse("obs.Seoul.temp_f < obs.Jeju.temp_f"),
               MemoryRef("goal.choose_colder.rule")),
    rationale="colder",
)


def store_with(facts: dict[str, dict] | None = None, actions: list[dict] | None = None,
               context: bool = True) -> MemoryStore:
    store = MemoryStore()
    if context:
        store.write_staged("goal.choose_colder", EntryKind.OBSERVATION,
                           {"rule": "Book the colder destination."}, "init")
    for key, payload in (facts or {}).items():
        store.write_staged(key, EntryKind.OBSERVATION, payload, "sensor")
    for record in actions or []:
        store.write_staged(f"act.{record['name']}", EntryKind.ACTION, record, "runtime")
    store.commit_cycle()
    return store


WORLD = {"seed": 1, "weather": [
    {"location": "Seoul", "date": "2025-06-14", **SEOUL},
    {"location": "Jeju", "date": "2025-06-14", **JEJU},
]}


def runtime_after(*calls: ToolCall) -> Runtime:
    """A runtime whose record of successful calls holds ``calls``, each run once."""
    runtime = Runtime(REGISTRY, WorldState.from_dict(WORLD))
    for call in calls:
        assert runtime.execute(call)[0].ok
    return runtime


def run_validate(proposal: Proposal, store: MemoryStore, runtime: Runtime | None = None,
                 cycle_index: int = 1, max_cycles: int = 10) -> ControlDecision:
    checks = CallChecks(runtime_after() if runtime is None else runtime, GOAL)
    return validate(proposal, store.snapshot, GoalWatch(GOAL), DEFAULT_RULESET, checks,
                    cycle_index, max_cycles)


# ------------------------------------------------------------- call checks
@pytest.mark.parametrize("seats", [1, 1.0, True, "1", " 1 "])
def test_call_checks_answer_as_the_scans_once_per_call(seats):
    """A call's spec, argument problems and matching branch are the scans' own answers, even
    for arguments that equal a template's only in value."""
    booking = ToolCall("book_flight", {"location": "Seoul", "seats": 1})
    goal = GoalSpec(("obs.Seoul.temp_f",), (Branch((parse("obs.Seoul.temp_f < 60"),), (booking,)),))
    checks, snapshot = CallChecks(runtime_after(), goal), store_with().snapshot
    call = ToolCall("book_flight", {"location": "Seoul", "seats": seats})
    spec = REGISTRY["book_flight"]
    run = _Validation(Proposal(call), snapshot, DEFAULT_RULESET, checks)
    assert (run.call, run.spec, run.problems, run.template) == (
        call, spec, argument_problems(spec, call.canonical_args), goal.matching_template(call)
    )
    assert (run.template is goal.branches[0]) is not isinstance(seats, str)  # 1 == 1.0 == True
    unknown = _Validation(Proposal(ToolCall("teleport", {})), snapshot, DEFAULT_RULESET, checks)
    assert (unknown.spec, unknown.problems, unknown.template) == (None, [], None)


# -------------------------------------------------------------- termination
def test_termination_precedence_goal_over_signal_over_budget():
    done = store_with(
        {"obs.Seoul": SEOUL, "obs.Jeju": JEJU},
        actions=[{"name": "book_flight", "args": {"location": "Seoul"},
                  "status": "executed", "confirmation": "ABC123"}],
    )
    assert check_termination(True, done.snapshot, GoalWatch(GOAL), 9, 4) \
        is TerminationReason.GOAL_SATISFIED
    partial = store_with({"obs.Seoul": SEOUL})
    assert check_termination(True, partial.snapshot, GoalWatch(GOAL), 9, 4) \
        is TerminationReason.COMPLETION_SIGNAL
    assert check_termination(False, partial.snapshot, GoalWatch(GOAL), 4, 4) \
        is TerminationReason.BUDGET_EXHAUSTED
    assert check_termination(False, partial.snapshot, GoalWatch(GOAL), 3, 4) is None


def test_terminate_verdict_skips_all_other_checks():
    done = store_with(
        {"obs.Seoul": SEOUL, "obs.Jeju": JEJU},
        actions=[{"name": "book_flight", "args": {"location": "Seoul"},
                  "status": "executed", "confirmation": "ABC123"}],
    )
    nonsense = Proposal(call=ToolCall("teleport", {}))
    decision = run_validate(nonsense, done)
    assert decision.verdict is Verdict.TERMINATE
    assert decision.reason is TerminationReason.GOAL_SATISFIED
    assert decision.violations == ()
    assert decision.log_lines == (
        "[Control] Termination: goal satisfied → Terminate (GoalSatisfied)",
    )


def test_budget_exhaustion_blocks_final_proposal():
    store = store_with()
    gather = Proposal(call=ToolCall("get_weather",
                                    {"location": "Seoul", "date": "2025-06-14"}))
    decision = run_validate(gather, store, cycle_index=10, max_cycles=10)
    assert decision.verdict is Verdict.TERMINATE
    assert decision.reason is TerminationReason.BUDGET_EXHAUSTED
    assert "budget 10 exhausted" in decision.log_lines[0]


# ----------------------------------------------------------------- approval
def test_first_gather_approved_with_no_prior_observation():
    decision = run_validate(
        Proposal(call=ToolCall("get_weather", {"location": "Seoul", "date": "2025-06-14"})),
        store_with(),
    )
    assert decision.verdict is Verdict.APPROVED
    assert decision.log_lines == (
        "[Control] Precondition: No prior observation for Seoul → Approved",
    )
    assert decision.consumptions == () and decision.read_set == {}


def test_regather_after_failure_logs_failed_observation():
    store = store_with()
    store.write_staged("obs.Seoul", EntryKind.OBSERVATION,
                       {"error": "TransientFailure", "tool": "get_weather"}, "control")
    store.commit_cycle()
    decision = run_validate(
        Proposal(call=ToolCall("get_weather", {"location": "Seoul", "date": "2025-06-14"})),
        store,
    )
    assert decision.verdict is Verdict.APPROVED
    assert decision.log_lines == (
        "[Control] Precondition: Previous observation for Seoul failed → Approved",
    )


def test_gather_on_another_date_after_clean_observation_is_fresh():
    """A clean observation makes only its own call a duplicate: a call on another date
    observes the same key and is approved as a fresh reading."""
    runtime = runtime_after(GATHER_SEOUL)
    decision = run_validate(
        Proposal(call=ToolCall("get_weather", {"location": "Seoul", "date": "2025-06-15"})),
        store_with({"obs.Seoul": SEOUL}), runtime,
    )
    assert decision.verdict is Verdict.APPROVED
    assert decision.log_lines == (
        "[Control] Precondition: Fresh observation permitted for Seoul → Approved",
    )


def test_effect_call_outside_the_goal_approved_when_condition_rule_disabled():
    ruleset = RuleSet(tuple(
        replace(rule, enabled=False) if rule.id == "R-COND-EXEC" else rule
        for rule in DEFAULT_RULESET.rules
    ))
    call = ToolCall("book_flight", {"location": "Busan"})
    store = store_with({"obs.Seoul": SEOUL, "obs.Jeju": JEJU})
    assert run_validate(Proposal(call=call), store).verdict is Verdict.REJECTED
    decision = validate(Proposal(call=call), store.snapshot, GoalWatch(GOAL), ruleset,
                        CallChecks(runtime_after(), GOAL), 1, 10)
    assert decision.verdict is Verdict.APPROVED
    assert decision.log_lines == ("[Control] Precondition: required memory present → Approved",)


def test_branch_action_approval_records_consumptions_and_read_set():
    store = store_with({"obs.Seoul": SEOUL, "obs.Jeju": JEJU})
    decision = run_validate(BOOK_SEOUL, store)
    assert decision.verdict is Verdict.APPROVED
    consumed = dict(decision.consumptions)
    assert consumed["obs.Seoul.temp_f"] == 51.8
    assert consumed["obs.Jeju.temp_f"] == 60.8
    assert consumed["goal.choose_colder.rule"] == "Book the colder destination."
    assert decision.read_set == {
        "goal.choose_colder": 1, "obs.Jeju": 1, "obs.Seoul": 1
    }
    assert decision.log_lines == (
        "[Control] Condition: obs.Seoul.temp_f < obs.Jeju.temp_f satisfied → Approved",
    )


# --------------------------------------------------------------- rejections
def test_incomplete_arguments_rejected_with_args_rule():
    decision = run_validate(
        Proposal(call=ToolCall("get_weather", {"location": "Seoul"})), store_with()
    )
    assert decision.verdict is Verdict.REJECTED
    assert decision.rule_ids() == ("R-ARGS",)
    assert decision.feedback == (
        "Proposal rejected [R-ARGS]: missing required argument 'date'. "
        "Revise the proposal using current memory."
    )
    assert decision.to_dict()["constraints_next"] == [decision.feedback]
    assert decision.log_lines == (
        "[Control] Arguments: missing required argument 'date' → Rejected (incomplete arguments)",
    )


def test_unknown_tool_rejected_with_args_rule():
    decision = run_validate(Proposal(call=ToolCall("teleport", {"to": "Mars"})), store_with())
    assert decision.verdict is Verdict.REJECTED
    assert decision.rule_ids() == ("R-ARGS",)


def test_duplicate_call_rejected_by_control_minted_rule():
    store = store_with({"obs.Seoul": SEOUL})
    call = ToolCall("get_weather", {"location": "Seoul", "date": "2025-06-14"})
    decision = run_validate(Proposal(call=call), store, runtime_after(call))
    assert decision.verdict is Verdict.REJECTED
    assert decision.rule_ids() == (DEDUP_RULE_ID,)
    assert decision.violations[0].detail == "Observation already exists"
    # minted by control, not the ruleset
    assert DEDUP_RULE_ID not in {r.id for r in DEFAULT_RULESET.rules}


def test_effect_duplicate_stays_rejected_after_its_read_set_key_advances():
    """A newer version of a key the approval read does not make a run call new: the runtime
    would answer it from its record, running no handler and staging nothing."""
    store = store_with({"obs.Seoul": SEOUL, "obs.Jeju": JEJU})
    runtime = runtime_after()
    checks = CallChecks(runtime, GOAL)
    approval = validate_in(checks, BOOK_SEOUL, store)
    assert approval.verdict is Verdict.APPROVED and approval.read_set["obs.Seoul"] == 1
    assert runtime.execute(approval.call)[0].ok
    store.write_staged("obs.Seoul", EntryKind.OBSERVATION,
                       {"temp_f": 48.0, "precipitation": False}, "sensor")
    store.commit_cycle()
    assert store.snapshot.latest_version("obs.Seoul") == 2
    decision = validate_in(checks, BOOK_SEOUL, store, cycle_index=2)
    assert decision.verdict is Verdict.REJECTED
    assert decision.rule_ids() == (DEDUP_RULE_ID,)
    assert decision.violations[0].detail == (
        "identical call book_flight(location=Seoul) already executed"
    )
    result, staged = runtime.execute(BOOK_SEOUL.call)
    assert result.idempotency_hit and staged == []
    assert runtime.world.handler_calls == {"book_flight": 1}


def test_call_json_cannot_hold_is_rejected_with_args_rule():
    """An argument JSON cannot hold has no call id: the record lookup finds no duplicate and
    R-ARGS rejects the call, as the runtime answers it with a schema violation."""
    call = ToolCall("get_weather", {"location": {"Seoul"}, "date": "2025-06-14"})
    runtime = runtime_after(GATHER_SEOUL)
    decision = run_validate(Proposal(call=call), store_with(), runtime)
    assert decision.verdict is Verdict.REJECTED
    assert decision.rule_ids() == ("R-ARGS",)
    assert decision.violations[0].detail == "argument 'location' must be string, got {'Seoul'}"
    assert runtime.execute(call)[0].error_code is ErrorCode.SCHEMA_VIOLATION


@pytest.mark.parametrize(
    "facts, detail, short",
    [
        ({"obs.Seoul": {"temp_f": 51.8}, "obs.Jeju": {"temp_f": 60.8}},
         "cancellation condition not yet evaluable", "premature"),
        # Rain everywhere: the branch condition holds, but the guard preempts it.
        ({"obs.Seoul": {**SEOUL, "precipitation": True},
          "obs.Jeju": {**JEJU, "precipitation": True}},
         "cancellation condition holds; branch actions are preempted", "preempted"),
    ],
    ids=["guard-unknown", "guard-holds"],
)
def test_branch_before_cancellation_evaluable_rejected(facts, detail, short):
    decision = run_validate(BOOK_SEOUL, store_with(facts))
    assert decision.verdict is Verdict.REJECTED
    assert "R-COND-PRIORITY" in decision.rule_ids()
    priority = next(v for v in decision.violations if v.check == "Priority")
    assert detail in priority.detail
    assert f"→ Rejected ({short})" in decision.log_lines[0]


def test_unauthorized_effect_call_rejected():
    decision = run_validate(
        Proposal(call=ToolCall("book_flight", {"location": "Busan"})),
        store_with({"obs.Seoul": SEOUL, "obs.Jeju": JEJU}),
    )
    assert decision.verdict is Verdict.REJECTED
    assert decision.rule_ids() == ("R-COND-EXEC",)
    assert "no goal branch authorizes" in decision.violations[0].detail


def test_false_branch_condition_rejected_with_both_rules():
    wrong_city = Proposal(
        call=ToolCall("book_flight", {"location": "Jeju"}),
        citations=(parse("obs.Jeju.temp_f <= obs.Seoul.temp_f"),),
        rationale="warmer, but claims colder",
    )
    decision = run_validate(wrong_city, store_with({"obs.Seoul": SEOUL, "obs.Jeju": JEJU}))
    assert decision.verdict is Verdict.REJECTED
    assert decision.rule_ids() == ("R-COND-EXEC", "R-NUM-COMPARE")
    checks = [v.check for v in decision.violations]
    assert checks == ["Condition", "Citation"]
    assert "condition is false" in decision.violations[0].detail
    assert "not supported by memory" in decision.violations[1].detail


def test_comparison_action_without_citations_rejected():
    uncited = Proposal(call=ToolCall("book_flight", {"location": "Seoul"}))
    decision = run_validate(uncited, store_with({"obs.Seoul": SEOUL, "obs.Jeju": JEJU}))
    assert decision.verdict is Verdict.REJECTED
    assert "R-NUM-COMPARE" in decision.rule_ids()
    citation = next(v for v in decision.violations if v.check == "Citation")
    assert "without citations" in citation.detail


def test_citation_to_unobserved_key_rejected():
    phantom = Proposal(
        call=ToolCall("book_flight", {"location": "Seoul"}),
        citations=(parse("obs.Seoul.temp_f < obs.Jeju.temp_f"),
                   parse("obs.Phantom.temp_f")),
    )
    decision = run_validate(phantom, store_with({"obs.Seoul": SEOUL, "obs.Jeju": JEJU}))
    assert decision.verdict is Verdict.REJECTED
    assert decision.rule_ids() == ("R-NUM-COMPARE",)
    assert "obs.Phantom.temp_f does not resolve" in decision.violations[0].detail
    consumed = dict(decision.consumptions)
    assert consumed["obs.Phantom.temp_f"] is NOT_FOUND


def test_decision_serialization_encodes_missing_values():
    phantom = Proposal(call=BOOK_SEOUL.call, citations=(parse("obs.Phantom.temp_f"),))
    decision = run_validate(phantom, store_with({"obs.Seoul": SEOUL, "obs.Jeju": JEJU}))
    data = decision.to_dict()
    assert data["verdict"] == "rejected"
    assert data["rule_ids"] == ["R-NUM-COMPARE"]
    assert ["obs.Phantom.temp_f", {"__missing__": True}] in data["consumptions"]
    assert all(isinstance(line, str) for line in data["log_lines"])


# -------------------------------------------------------- kept rejections
NO_ARGS = RuleSet(tuple(
    replace(rule, enabled=False) if rule.id == "R-ARGS" else rule for rule in DEFAULT_RULESET.rules
))


def validate_in(checks: CallChecks, proposal: Proposal, store: MemoryStore,
                ruleset: RuleSet = DEFAULT_RULESET, cycle_index: int = 1) -> ControlDecision:
    """``validate`` with the episode state ``checks`` given, not made afresh."""
    return validate(proposal, store.snapshot, GoalWatch(GOAL), ruleset, checks, cycle_index, 10)


@pytest.mark.parametrize("proposal, rule_ids", [
    (Proposal(call=GATHER_SEOUL), ("R-DEDUP",)),
    (Proposal(call=ToolCall("get_weather", {"location": "Seoul"})), ("R-ARGS",)),
    (Proposal(call=ToolCall("book_flight", {"location": "Busan"})), ("R-COND-EXEC",)),
], ids=["duplicate", "missing-arg", "unauthorized"])
def test_rejection_that_read_no_memory_is_kept(proposal, rule_ids):
    """A repeated proposal whose rejection read no memory gets the kept decision, even after
    memory changed; it is what a fresh ``validate`` decides."""
    checks, store = CallChecks(runtime_after(GATHER_SEOUL), GOAL), store_with()
    first = validate_in(checks, proposal, store)
    assert first.verdict is Verdict.REJECTED and first.rule_ids() == rule_ids
    assert validate_in(checks, proposal, store) is first
    store.write_staged("obs.Seoul", EntryKind.OBSERVATION, SEOUL, "sensor")
    store.commit_cycle()
    assert validate_in(checks, proposal, store) is first
    fresh = validate_in(CallChecks(checks.runtime, GOAL), proposal, store)
    assert fresh is not first and fresh.to_dict() == first.to_dict()


@pytest.mark.parametrize("proposal, before", [
    # Seoul warmer than Jeju: the branch condition is false.
    (BOOK_SEOUL, {"temp_f": 65.0, "precipitation": False}),
], ids=["branch-condition"])
def test_rejection_that_read_memory_is_decided_afresh(proposal, before):
    """A rejection that read memory is not kept: once the store commits the facts that
    change its answer, the same proposal object is approved."""
    checks = CallChecks(runtime_after(), GOAL)
    store = store_with({"obs.Seoul": before, "obs.Jeju": JEJU})
    assert validate_in(checks, proposal, store).verdict is Verdict.REJECTED
    store.write_staged("obs.Seoul", EntryKind.OBSERVATION, SEOUL, "sensor")
    store.commit_cycle()
    assert validate_in(checks, proposal, store).verdict is Verdict.APPROVED


@pytest.mark.parametrize("proposal", [
    Proposal(call=ToolCall("book_flight", {"location": "Busan"}),
             citations=(MemoryRef("goal.choose_colder.rule"),)),
    Proposal(call=BOOK_SEOUL.call),  # matches a branch, cites nothing
], ids=["cites", "matches-branch"])
def test_rejection_that_cites_or_matches_a_branch_is_not_kept(proposal):
    checks, store = CallChecks(runtime_after(), GOAL), store_with()
    first = validate_in(checks, proposal, store)
    assert first.verdict is Verdict.REJECTED
    again = validate_in(checks, proposal, store)
    assert again is not first and again.to_dict() == first.to_dict()


def test_kept_rejection_serves_only_its_own_ruleset_and_cache():
    """Another ruleset gets its own decision, here an approval without R-ARGS; and so does
    another episode, whose runtime's result cache may hold the call: an added R-DEDUP."""
    checks, store = CallChecks(runtime_after(), GOAL), store_with()
    proposal = Proposal(call=ToolCall("get_weather", {"location": "Seoul"}))
    kept = validate_in(checks, proposal, store)
    assert kept.rule_ids() == ("R-ARGS",)
    assert validate_in(checks, proposal, store, NO_ARGS).verdict is Verdict.APPROVED
    busan = Proposal(call=ToolCall("book_flight", {"location": "Busan"}))
    assert validate_in(checks, busan, store).rule_ids() == ("R-COND-EXEC",)
    other = CallChecks(runtime_after(busan.call), GOAL)
    assert validate_in(other, busan, store).rule_ids() == (DEDUP_RULE_ID, "R-COND-EXEC")


def test_termination_wins_over_a_kept_rejection():
    checks, store = CallChecks(runtime_after(), GOAL), store_with()
    proposal = Proposal(call=ToolCall("get_weather", {"location": "Seoul"}))
    kept = validate_in(checks, proposal, store)
    assert validate_in(checks, proposal, store) is kept
    decision = validate_in(checks, proposal, store, cycle_index=10)
    assert decision.verdict is Verdict.TERMINATE
    assert decision.reason is TerminationReason.BUDGET_EXHAUSTED


# ------------------------------------------------------------ tool failures
def failed_result(tool: str, code: ErrorCode) -> ToolResult:
    return ToolResult(tool=tool, args={}, ok=False, payload=None, error_code=code,
                      error_message="boom", latency_ms=3.0, idempotency_hit=False)


def test_sensor_failure_stages_feedback_and_error_marker():
    call = ToolCall("get_weather", {"location": "Seoul", "date": "2025-06-14"})
    advice = on_tool_failure(call, failed_result("get_weather", ErrorCode.TRANSIENT_FAILURE),
                             REGISTRY, consecutive_failures=1)
    assert "Seek clarification" not in advice.constraint
    assert advice.constraint == (
        "Tool get_weather failed: TransientFailure. Propose an alternative or retry."
    )
    # Field order is part of the contract: fact lines render fields in insertion order.
    assert list(advice.feedback.items()) == [
        ("tool", "get_weather"), ("code", "TransientFailure"), ("message", "boom"),
        ("constraint", advice.constraint),
    ]
    assert (advice.marker.key, advice.marker.kind) == ("obs.Seoul", EntryKind.OBSERVATION)
    assert advice.marker.payload == {"error": "TransientFailure", "tool": "get_weather"}


def test_effect_failure_stages_feedback_only():
    call = ToolCall("book_flight", {"location": "Seoul"})
    advice = on_tool_failure(call, failed_result("book_flight", ErrorCode.DOMAIN_ERROR),
                             REGISTRY, consecutive_failures=1)
    assert advice.feedback["tool"] == "book_flight"
    assert advice.marker is None


def test_failure_escalates_at_threshold():
    call = ToolCall("get_weather", {"location": "Seoul", "date": "2025-06-14"})
    advice = on_tool_failure(call, failed_result("get_weather", ErrorCode.TOOL_UNAVAILABLE),
                             REGISTRY, consecutive_failures=ESCALATION_THRESHOLD)
    assert "Seek clarification" in advice.constraint
    assert advice.constraint == (
        "Tool get_weather failed 2 times: ToolUnavailable. "
        "Seek clarification before retrying."
    )


# ------------------------------------------------------- decisions from traces
def recorded_proposal(response: dict) -> Proposal:
    """The proposal a cycle record's ``proposal`` serializes."""
    call = response["call"]
    return Proposal(
        call=None if call is None else ToolCall(call["name"], call["arguments"]),
        citations=tuple(parse(text) for text in response["citations"]),
        rationale=response["rationale"],
    )


def test_every_governed_decision_follows_from_its_trace(suite_dir):
    """Re-deciding each governed cycle of the all=0.3 sweep from the trace alone gives the
    recorded decision: the replayed snapshot, the recorded proposal, fresh control state and
    a runtime record of the calls that earlier invocations ran successfully."""
    faults, decided = parse_faults("all=0.3"), 0
    for scenario in load_suite(suite_dir):
        goal = scenario.policy.goal
        registry = builtin_registry(list(scenario.extra_tools))
        for seed in scenario.seeds:
            text = run_episode(scenario.episode_config(seed, faults=faults)).trace.dumps()
            trace = EpisodeTrace.loads(text)
            runtime = Runtime(registry, WorldState())
            for record, snapshot in trace.replay():
                if record.decision is not None:
                    decision = validate(
                        recorded_proposal(record.proposal), snapshot, GoalWatch(goal),
                        DEFAULT_RULESET, CallChecks(runtime, goal), record.cycle,
                        trace.header.max_cycles,
                    )
                    where = (scenario.name, seed, record.cycle)
                    assert decision.to_dict() == record.decision, where
                    decided += 1
                invocation = record.invocation
                if invocation is not None and invocation["outcome"]["ok"]:
                    call = ToolCall(invocation["tool"], invocation["args"])
                    runtime.results[call.call_id()] = invocation["outcome"]["payload"]
    assert decided == 3363
