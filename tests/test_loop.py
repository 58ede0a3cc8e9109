"""Episode orchestration: cycle records, commits, exits, failure recovery."""
from __future__ import annotations

import dataclasses
import json
import logging
import re

import pytest

from cogloop.cognition import (
    FaultConfig,
    Proposal,
    ProposeMeta,
    ProposerFailure,
    ScriptedProposer,
)
from cogloop.baseline import Baseline, run_baseline_episode
from cogloop.control import TerminationReason
from cogloop.loop import ConfigError, EpisodeStatus, Governed, drive_episode, run_episode
from cogloop.memory import MemoryQuery
from cogloop.scenario import Scenario, load_scenario
from cogloop.trace import EpisodeTrace, GapReport, compute_metrics, iter_chains


def versions(store, key: str) -> list[dict]:
    return [e.payload for e in store.snapshot.read(MemoryQuery(prefix=key))]


# ------------------------------------------------------------- clean episode
def test_two_city_episode_completes(two_city):
    result = run_episode(two_city.episode_config(seed=1))
    assert result.status is EpisodeStatus.COMPLETED
    assert result.reason is TerminationReason.GOAL_SATISFIED
    assert result.cycles_used == 4
    assert result.final_response == (
        "Goal satisfied in 4 cycles. Actions executed: book_flight (ABC123)."
    )
    snapshot = result.store.snapshot
    assert snapshot.resolve("obs.Seoul.temp_f") == 51.8
    assert snapshot.resolve("obs.Jeju.temp_f") == 60.8
    assert snapshot.resolve("act.book_flight.confirmation") == "ABC123"
    assert versions(result.store, "status.terminated") == [
        {"terminated": False}, {"terminated": True}
    ]


def test_cycle_zero_commits_context_before_any_proposal(two_city):
    result = run_episode(two_city.episode_config(seed=1))
    init = result.trace.cycles[0]
    assert init.cycle == 0
    assert init.proposal is None and init.decision is None and init.invocation is None
    keys = [entry.key for entry in init.memory_delta]
    assert keys == ["goal.choose_colder", "status.terminated"]
    assert len(result.trace.cycles) == result.cycles_used + 1


def test_every_proposed_cycle_records_a_proposal_entry(two_city):
    result = run_episode(two_city.episode_config(seed=1))
    for k in range(1, result.cycles_used + 1):
        payload = result.store.snapshot.latest(f"prop.cycle{k}").payload
        assert set(payload) == {"proposition", "evidence", "rationale"}
    final = result.store.snapshot.latest(f"prop.cycle{result.cycles_used}").payload
    assert final["proposition"] == "<completion>"


def test_trace_header_reflects_config(two_city):
    config = two_city.episode_config(seed=3)
    result = run_episode(config)
    header = result.trace.header
    assert header.scenario == "weather_two_city"
    assert header.seed == 3 and header.baseline is False
    assert header.proposer == "scripted"
    assert header.config_digest == config.digest()
    assert header.max_cycles == config.resolved_max_cycles()


def test_default_cycle_budget_scales_with_goal(two_city):
    config = two_city.episode_config(seed=1)
    # 4 facts to gather + 3 planned actions, tripled.
    assert config.resolved_max_cycles() == 21
    assert two_city.episode_config(seed=1, max_cycles=5).resolved_max_cycles() == 5


def test_episode_is_deterministic(two_city):
    first = run_episode(two_city.episode_config(seed=2))
    second = run_episode(two_city.episode_config(seed=2))
    assert first.final_response == second.final_response
    assert first.trace.dumps() == second.trace.dumps()


# ------------------------------------------------------------- other fixtures
def test_rain_cancellation_sends_email_instead_of_booking(rain_cancellation):
    result = run_episode(rain_cancellation.episode_config(seed=1))
    assert result.status is EpisodeStatus.COMPLETED
    snapshot = result.store.snapshot
    assert snapshot.resolve("act.send_email.status") == "executed"
    assert snapshot.latest("act.book_flight") is None
    assert "send_email (MSG-0001)" in result.final_response


def test_transient_fault_retried_with_error_marker(transient_retry):
    result = run_episode(transient_retry.episode_config(seed=1))
    assert result.status is EpisodeStatus.COMPLETED
    seoul = versions(result.store, "obs.Seoul")
    assert seoul == [
        {"error": "TransientFailure", "tool": "get_weather"},
        {"location": "Seoul", "temp_f": 51.8, "precipitation": False},
    ]
    failed_cycle = result.trace.cycles[1]
    assert failed_cycle.invocation["outcome"]["ok"] is False
    assert "[Runtime] get_weather failed: TransientFailure" in failed_cycle.log_lines
    assert any("Failure guidance" in line for line in failed_cycle.log_lines)
    feedback = result.store.snapshot.latest("feedback.cycle1").payload
    assert feedback["code"] == "TransientFailure"
    retry_cycle = result.trace.cycles[2]
    assert retry_cycle.invocation["outcome"]["ok"] is True
    assert result.cycles_used == 5  # one extra cycle spent on the retry


def test_second_consecutive_failure_escalates(scenario_dir):
    """A second scheduled fault fails the retry too: control's guidance escalates to seeking
    clarification, and the third attempt still completes the episode."""
    data = json.loads((scenario_dir / "transient_retry.json").read_text(encoding="utf-8"))
    data["world"]["fault_schedule"].append(
        {"tool": "get_weather", "ordinal": 2, "code": "TransientFailure"}
    )
    result = run_episode(Scenario.from_dict(data).episode_config(seed=1))
    constraint = ("Tool get_weather failed 2 times: TransientFailure. "
                  "Seek clarification before retrying.")
    assert f"[Control] Failure guidance: {constraint}" in result.trace.cycles[2].log_lines
    assert result.store.snapshot.latest("feedback.cycle2").payload["constraint"] == constraint
    assert result.trace.cycles[3].invocation["outcome"]["ok"] is True
    assert (result.status, result.cycles_used, result.max_cycles) == (
        EpisodeStatus.COMPLETED, 6, 21
    )


# ------------------------------------------------------------ fault episodes
def test_constant_faults_exhaust_budget_without_effects(two_city):
    faults = FaultConfig(seed=1, p_missing_arg=1.0)
    config = two_city.episode_config(seed=1, faults=faults, max_cycles=3)
    result = run_episode(config)
    assert result.status is EpisodeStatus.BUDGET_EXHAUSTED
    assert result.cycles_used == 3
    # Nothing executed, flag never raised, every labeled cycle rejected.
    assert result.invocation_log == []
    assert versions(result.store, "status.terminated") == [{"terminated": False}]
    *mid, last = result.trace.cycles[1:]
    for record in mid:
        assert record.fault_label == "missing_arg"
        assert record.decision["verdict"] == "rejected"
        assert "R-ARGS" in record.decision["rule_ids"]
        feedback = result.store.snapshot.latest(f"feedback.cycle{record.cycle}")
        assert feedback.payload["message"].startswith("Proposal rejected [R-ARGS]")
    # Budget exhaustion preempts the checks, so the final cycle terminates
    # instead of rejecting — its proposal is never executed either way.
    assert last.decision["verdict"] == "terminate"
    assert last.decision["reason"] == "BudgetExhausted"
    assert result.final_response.startswith("Cycle budget of 3 exhausted after 3 cycles.")


def test_false_citations_always_rejected(two_city):
    faults = FaultConfig(seed=5, p_false_citation=1.0)
    result = run_episode(two_city.episode_config(seed=2, faults=faults, max_cycles=4))
    assert result.status is EpisodeStatus.BUDGET_EXHAUSTED
    labeled = [
        r for r in result.trace.cycles[1:]
        if r.fault_label and r.decision["verdict"] != "terminate"
    ]
    assert labeled and all(r.decision["verdict"] == "rejected" for r in labeled)
    assert all("R-NUM-COMPARE" in r.decision["rule_ids"] for r in labeled)


def test_faulty_proposer_kind_announced_in_header(two_city):
    faults = FaultConfig(seed=1, p_duplicate=0.2)
    config = two_city.episode_config(seed=1, faults=faults)
    assert config.proposer_kind == "faulty"
    assert run_episode(config).trace.header.proposer == "faulty"
    unfaulted = two_city.episode_config(seed=1, faults=FaultConfig(seed=1))
    assert unfaulted.proposer_kind == "scripted"


def test_the_package_writes_no_logging_records(two_city, caplog):
    caplog.set_level(logging.DEBUG, logger="cogloop")
    config = two_city.episode_config(seed=1, faults=FaultConfig(seed=3, p_duplicate=0.5))
    governed = run_episode(config)
    budget, decay = two_city.baseline_budget, two_city.baseline_decay
    baseline = run_baseline_episode(config, budget, decay)
    assert any(r.fault_label for r in governed.trace.cycles)
    assert any(f"holds {budget}/{budget} facts" in line
               for r in baseline.trace.cycles for line in r.log_lines)
    assert [r.name for r in caplog.records if r.name.startswith("cogloop")] == []


# ------------------------------------------------------ proposer misbehavior
class _CompleteImmediately:
    last_meta = ProposeMeta()

    def propose(self, cog_input):
        return Proposal(call=None, rationale="premature completion")


def test_premature_completion_is_partial(two_city):
    result = drive_episode(Governed(two_city.episode_config(seed=1)), _CompleteImmediately())
    assert result.status is EpisodeStatus.PARTIAL
    assert result.reason is TerminationReason.COMPLETION_SIGNAL
    assert result.cycles_used == 1
    assert result.final_response == (
        "Completion signaled after 1 cycles but the goal is unmet. "
        "Actions executed: none."
    )
    # A deliberate exit still raises the termination flag.
    assert versions(result.store, "status.terminated") == [
        {"terminated": False}, {"terminated": True}
    ]


class _FlakyProposer:
    """Raises ``ProposerFailure`` on the first ``failures`` calls, then asks ``inner``."""

    def __init__(self, inner, failures=1):
        self.inner = inner
        self.failures = failures
        self.calls = 0
        self.seen_constraints: list[tuple[str, ...]] = []
        self.last_meta = ProposeMeta()

    def propose(self, cog_input):
        self.calls += 1
        self.seen_constraints.append(cog_input.constraints)
        if self.calls <= self.failures:
            raise ProposerFailure("transport returned garbage")
        proposal = self.inner.propose(cog_input)
        self.last_meta = self.inner.last_meta
        return proposal


def test_proposer_failure_noted_and_episode_recovers(two_city):
    config = two_city.episode_config(seed=1)
    flaky = _FlakyProposer(ScriptedProposer(config.scenario.policy))
    result = drive_episode(Governed(config), flaky)
    assert result.status is EpisodeStatus.COMPLETED
    assert result.cycles_used == 5  # one cycle lost to the failure

    note_cycle = result.trace.cycles[1]
    assert note_cycle.proposal is None and note_cycle.decision is None
    assert note_cycle.log_lines == [
        "[Cognition] Proposer failure: transport returned garbage"
    ]
    feedback = result.store.snapshot.latest("feedback.cycle1").payload
    assert feedback == {"message": "Proposer failure: transport returned garbage"}
    # The next cycle's input carried the corrective constraint.
    assert flaky.seen_constraints[1] == (
        "Proposer failure: transport returned garbage. Provide a well-formed proposal.",
    )


SYSTEMS = {
    "governed": Governed,
    "baseline": lambda config: Baseline(config, 50, 0.0),  # a window that loses nothing
}


@pytest.mark.parametrize(
    ("failures", "status", "cycles"),
    [(1, EpisodeStatus.COMPLETED, 5), (10**6, EpisodeStatus.BUDGET_EXHAUSTED, 21)],
    ids=["first-cycle", "every-cycle"],
)
@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_proposer_failures_leave_a_whole_trace(two_city, system, failures, status, cycles):
    """A cycle whose proposer raises commits and traces like any other, on both systems."""
    config = two_city.episode_config(seed=1)
    flaky = _FlakyProposer(ScriptedProposer(config.scenario.policy), failures)
    result = drive_episode(SYSTEMS[system](config), flaky)
    assert (result.status, result.cycles_used) == (status, cycles)
    assert flaky.calls == cycles
    text = result.trace.dumps()
    trace = EpisodeTrace.loads(text)
    assert trace.dumps() == text
    assert compute_metrics(trace) == compute_metrics(result.trace)
    chains = list(iter_chains(trace))
    assert not any(isinstance(chain, GapReport) for chain in chains)
    assert len(chains) == len(result.invocation_log) == (3 if failures == 1 else 0)


# ---------------------------------------------------------------- validation
def test_config_validation_errors(two_city):
    with pytest.raises(ConfigError, match="task"):
        dataclasses.replace(two_city, task="   ")

    with pytest.raises(ConfigError, match="max_cycles"):
        dataclasses.replace(two_city, max_cycles=0)

    # A config judges its own seed and budget: each of these ran, or raised a TypeError.
    for changes, message in (
        ({"max_cycles": 0}, "max_cycles must be positive, got 0"),
        ({"max_cycles": "x"}, "max_cycles must be an integer, got 'x'"),
        ({"max_cycles": 2.5}, "max_cycles must be an integer, got 2.5"),
        ({"seed": "1"}, "seed must be an integer, got '1'"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"faults": {"p_duplicate": 0.5}}, "faults must be a FaultConfig or None"),
    ):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            two_city.episode_config(**{"seed": 1, **changes})

    with pytest.raises(ConfigError, match="teleport"):
        dataclasses.replace(two_city, extra_tools=["teleport"])

    with pytest.raises(ConfigError, match="context: empty or whitespace segment in key 'not a"):
        dataclasses.replace(two_city, context={**two_city.context, "not a key": {"x": 1}})

    with pytest.raises(ConfigError, match="non-empty"):
        dataclasses.replace(two_city, context={**two_city.context, "goal.empty": {}})

    for key in ("status.foo", "act.x", "prop.x", "feedback.x"):
        prefix = key.split(".")[0]
        with pytest.raises(ConfigError, match=re.escape(
            f"context: kind 'observation' not allowed under namespace '{prefix}' (key {key})"
        )):
            dataclasses.replace(two_city, context={**two_city.context, key: {"x": 1}})


def test_a_built_config_cannot_change(two_city):
    """A scenario and a config are checked once, when built, so their fields cannot be
    reassigned after."""
    for field, value in (("task", "   "), ("max_cycles", 0), ("extra_tools", ["teleport"])):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(two_city, field, value)
    config = two_city.episode_config(seed=1)
    for field, value in (("max_cycles", 0), ("seed", 2), ("scenario", None)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, field, value)
    assert config == two_city.episode_config(seed=1)


def test_editing_a_live_trace_leaves_later_episodes_alone(scenario_dir):
    """A trace's calls and invocations hold copies, not the argument dicts of the goal's
    action templates, which every episode of the scenario shares."""
    path = scenario_dir / "weather_two_city.json"
    scenario = load_scenario(path)
    booking = run_episode(scenario.episode_config(seed=1)).trace.cycles[3]
    for form in (booking.proposal, booking.decision):
        assert form["call"]["name"] == "book_flight"
        form["call"]["arguments"]["location"] = "Busan"
    booking.invocation["args"]["location"] = "Busan"
    fresh = run_episode(load_scenario(path).episode_config(seed=2)).trace.dumps()
    assert run_episode(scenario.episode_config(seed=2)).trace.dumps() == fresh


def deface(value) -> None:
    """Edit in place ``value``, if a list or dict, and every list and dict inside it."""
    if isinstance(value, dict):
        for item in list(value.values()):
            deface(item)
        value["defaced"] = ["defaced"]
    elif isinstance(value, list):
        for item in list(value):
            deface(item)
        value.append("defaced")


@pytest.mark.parametrize("baseline", [False, True])
@pytest.mark.parametrize("listed", [False, True])
def test_editing_every_container_of_a_live_trace_leaves_later_episodes_alone(
    scenario_dir, baseline, listed
):
    """Once every list and dict in an episode's consumptions, proposals, decisions,
    invocations and delta payloads is edited, the next episode, of the same scenario or of
    one loaded afresh, writes the bytes the first one wrote: the trace shares no container
    with what later episodes read. ``listed`` adds a context observation whose list-valued
    field the goal requires, so the proposer's fact reads hold a list."""
    document = json.loads((scenario_dir / "weather_two_city.json").read_text(encoding="utf-8"))
    if listed:
        document["context"]["obs.Route"] = {"stops": ["Seoul", "Jeju"]}
        document["goal"]["required_facts"].insert(0, "obs.Route.stops")
        reading = {"location": "Route", "date": "2025-06-14", "temp_f": 0, "precipitation": False}
        document["world"]["weather"].append(reading)
    text = json.dumps(document)
    scenario = Scenario.from_dict(json.loads(text))

    def episode(scenario):
        # No duplicate fault: a gather of Route would replace the context's observation.
        faults = FaultConfig(seed=3, p_missing_arg=0.2, p_false_citation=0.2)
        config = scenario.episode_config(seed=1, faults=faults)
        return run_baseline_episode(config, 3, 0.3) if baseline else run_episode(config)

    first = episode(scenario)
    written = first.trace.dumps()
    consumed = [value for record in first.trace.cycles for _, value in record.consumptions]
    assert any(isinstance(value, list) for value in consumed) is listed
    for record in first.trace.cycles:
        for part in (record.consumptions, record.proposal, record.decision, record.invocation):
            deface(part)
        for entry in record.memory_delta:
            deface(entry.payload)
    assert first.trace.dumps() != written
    assert episode(scenario).trace.dumps() == written
    assert episode(Scenario.from_dict(json.loads(text))).trace.dumps() == written


def test_config_digest_tracks_identity(two_city):
    assert two_city.episode_config(seed=1).digest() == two_city.episode_config(seed=1).digest()
    assert two_city.episode_config(seed=1).digest() != two_city.episode_config(seed=2).digest()
    faulted = two_city.episode_config(seed=1, faults=FaultConfig(seed=1, p_duplicate=0.5))
    assert faulted.digest() != two_city.episode_config(seed=1).digest()


def test_no_branch_holding_completes_without_action(scenario_dir):
    """Equal temperatures under two strict `<` branches: no branch holds, and
    without rain no cancellation either, so the goal asks for no action."""
    data = json.loads((scenario_dir / "weather_two_city.json").read_text(encoding="utf-8"))
    data["world"]["weather"][1]["temp_f"] = data["world"]["weather"][0]["temp_f"]
    data["goal"]["branches"][0]["condition"] = ["obs.Jeju.temp_f < obs.Seoul.temp_f"]
    result = run_episode(Scenario.from_dict(data).episode_config(seed=1))
    assert result.status is EpisodeStatus.COMPLETED
    assert result.reason is TerminationReason.GOAL_SATISFIED
    assert result.invocation_log and all(r["tool"] == "get_weather" for r in result.invocation_log)
    assert result.store.snapshot.read(MemoryQuery(prefix="act")) == []
    assert result.final_response == "Goal satisfied in 3 cycles. Actions executed: none."
