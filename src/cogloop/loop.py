"""Episode orchestration: the atomic propose → validate → execute → commit cycle.

One driver, ``drive_episode``, runs the cycle for every ``System``. Each cycle
asks the system for the proposer's input, asks the proposer for at most one
tool call, asks the system for a decision, executes only approved calls, and
commits every resulting write atomically — proposal record, observations,
action records, feedback, and termination flag all land together or not at
all. The loop exits through the system's termination check (goal satisfied,
completion signaled, or cycle budget exhausted), never on its own.

``run_episode`` drives ``Governed`` (the committed snapshot plus last cycle's
constraints in, the control layer deciding) with the proposer ``make_proposer``
builds for its config. The bounded-context baseline in ``baseline.py`` is the
other ``System``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, Any

from .cognition import (
    CognitionInput,
    FactIndex,
    FaultConfig,
    FaultyProposer,
    Proposal,
    ProposerFailure,
    ScriptedProposer,
    assemble_input,
)
from .control import (
    CallChecks,
    ControlDecision,
    TerminationReason,
    Verdict,
    on_tool_failure,
    validate,
)
from .goals import GoalWatch
from .memory import EntryKind, MemoryEntry, MemorySnapshot, MemoryStore, encode_value
from .regulation import DEFAULT_RULESET
from .runtime import Runtime, ToolResult, WorldState, builtin_registry
from .trace import CycleRecord, EpisodeTrace, TraceHeader
from .util import ConfigError, content_digest, is_int, stored

if TYPE_CHECKING:
    from .scenario import Scenario

CYCLE_BUDGET_FACTOR = 3  # default budget = factor * (facts to gather + actions to run)


class EpisodeStatus(str, Enum):
    COMPLETED = "Completed"
    PARTIAL = "PartialCompletion"
    BUDGET_EXHAUSTED = "BudgetExhausted"


def check_max_cycles(max_cycles: Any) -> None:
    """Raise ``ConfigError`` for a cycle budget that is not a positive integer; None is unset."""
    if max_cycles is not None and not is_int(max_cycles):
        raise ConfigError(f"max_cycles must be an integer, got {max_cycles!r}")
    if max_cycles is not None and max_cycles < 1:
        raise ConfigError(f"max_cycles must be positive, got {max_cycles}")


@dataclass(frozen=True)
class EpisodeConfig:
    """One episode: a scenario run under a seed, optional faults and a cycle budget override.

    The scenario and the fault config checked themselves when they were built;
    building a config runs ``validate``, which checks the seed, the faults' type
    and the override.
    """

    scenario: Scenario
    seed: int
    faults: FaultConfig | None = None
    max_cycles: int | None = None

    def __post_init__(self) -> None:
        self.validate()

    @property
    def proposer_kind(self) -> str:
        if self.faults is not None and self.faults.any_enabled():
            return "faulty"
        return "scripted"

    def resolved_max_cycles(self) -> int:
        for budget in (self.max_cycles, self.scenario.max_cycles):
            if budget is not None:
                return budget
        goal = self.scenario.policy.goal
        return CYCLE_BUDGET_FACTOR * (len(goal.required_facts) + len(goal.action_templates()))

    def validate(self) -> None:
        if not is_int(self.seed):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if self.faults is not None and not isinstance(self.faults, FaultConfig):
            raise ConfigError(f"faults must be a FaultConfig or None, got {self.faults!r}")
        check_max_cycles(self.max_cycles)

    def describe(self) -> dict[str, Any]:
        """Stable dict identifying this configuration (digest input)."""
        scenario = self.scenario
        policy = scenario.policy
        return {
            "scenario": scenario.name,
            "task": scenario.task,
            "goal": policy.goal.to_dict(),
            "gather": {"tool": policy.gather.tool, "arguments": policy.gather.arguments},
            "goal_citation": policy.goal_citation,
            "ruleset_version": DEFAULT_RULESET.version,
            "context": scenario.context,
            "world": scenario.world,
            "extra_tools": list(scenario.extra_tools),
            "seed": self.seed,
            "faults": self.faults.to_dict() if self.faults else None,
            "max_cycles": self.resolved_max_cycles(),
            "proposer": self.proposer_kind,
        }

    def digest(self) -> str:
        return self._digest

    @cached_property
    def _digest(self) -> str:
        return content_digest(self.describe())


@dataclass
class EpisodeResult:
    status: EpisodeStatus
    reason: TerminationReason
    cycles_used: int
    max_cycles: int
    final_response: str
    trace: EpisodeTrace
    store: MemoryStore
    invocation_log: list[dict[str, Any]]


def make_proposer(config: EpisodeConfig) -> ScriptedProposer:
    """The proposer an episode of ``config`` runs unless its caller brings another."""
    policy = config.scenario.policy
    if config.proposer_kind == "faulty":
        return FaultyProposer(policy, config.faults, episode_seed=config.seed)
    return ScriptedProposer(policy)


def _commit_delta(store: MemoryStore) -> tuple[MemoryEntry, ...]:
    """Commit the staged writes; the entries the commit created."""
    store.commit_cycle()
    return store.last_commit


def _action_summary(snapshot: MemorySnapshot) -> str:
    parts: list[str] = []
    for entry in snapshot.entries:
        if entry.kind is not EntryKind.ACTION:
            continue
        payload = entry.payload
        extras = [
            str(v) for k, v in sorted(payload.items()) if k not in ("name", "args", "status")
        ]
        parts.append(f"{payload['name']} ({extras[0]})" if extras else str(payload["name"]))
    return ", ".join(parts) if parts else "none"


def _final_response(
    status: EpisodeStatus, cycles_used: int, max_cycles: int, summary: str
) -> str:
    if status is EpisodeStatus.COMPLETED:
        return f"Goal satisfied in {cycles_used} cycles. Actions executed: {summary}."
    if status is EpisodeStatus.PARTIAL:
        return (
            f"Completion signaled after {cycles_used} cycles but the goal is unmet. "
            f"Actions executed: {summary}."
        )
    return (
        f"Cycle budget of {max_cycles} exhausted after {cycles_used} cycles. "
        f"Actions executed: {summary}."
    )


@dataclass
class CycleState:
    """One cycle's log lines and next-cycle constraints; system hooks add to them."""

    index: int
    store: MemoryStore
    log_lines: list[str] = field(default_factory=list)
    constraints: list[str] = field(default_factory=list)

    def feedback(self, payload: dict[str, Any], *constraints: str) -> None:
        """Stage the cycle's feedback entry, the only ``feedback.*`` writer; constrain the next."""
        self.store.write_staged(
            f"feedback.cycle{self.index}", EntryKind.CONTROL_FEEDBACK, payload, source="control"
        )
        self.constraints.extend(constraints)


class System:
    """One episode kind: what the proposer sees and how its proposals are decided.

    A system holds its episode's configuration, the tool registry built from
    it and the episode's ``GoalWatch``, which both systems' termination checks
    ask. Each cycle the driver asks ``cognition_input`` for the proposer's input,
    asks ``decide`` for a decision on the proposal, and traces
    ``record(decision)``. The other hooks stage the system's own writes into
    the cycle's commit: ``stage_init`` before cycle 0's commit,
    ``on_proposer_failure`` when the proposer raises, ``on_terminate`` when the
    decision ends the episode, and ``after_execution`` once an approved call
    has run. The labels prefix the driver's own log lines; ``baseline`` goes
    into the trace header. Each system builds its episode's ``Runtime`` over
    the registry; approved calls run there.
    """

    baseline = False
    cognition_label = "[Cognition]"
    memory_label = "[Memory]"

    def __init__(self, config: EpisodeConfig):
        self.config = config
        self.registry = builtin_registry(list(config.scenario.extra_tools))
        self.runtime = Runtime(self.registry, WorldState.from_dict(config.scenario.world))
        self.goal_watch = GoalWatch(config.scenario.policy.goal)

    def cognition_input(
        self, snapshot: MemorySnapshot, constraints: list[str], cycle: int
    ) -> CognitionInput:
        raise NotImplementedError

    def decide(
        self, proposal: Proposal, snapshot: MemorySnapshot, cycle: int, max_cycles: int
    ) -> ControlDecision:
        raise NotImplementedError

    def record(self, decision: ControlDecision) -> dict[str, Any]:
        return decision.to_dict()

    def stage_init(self, store: MemoryStore) -> None:
        pass

    def on_proposer_failure(self, state: CycleState, note: str) -> None:
        pass

    def on_terminate(self, state: CycleState, reason: TerminationReason) -> None:
        pass

    def after_execution(
        self, state: CycleState, decision: ControlDecision, result: ToolResult
    ) -> None:
        pass


class Governed(System):
    """The committed snapshot plus last cycle's constraints in, ``validate`` deciding.

    Proposer and tool failures become feedback entries, and a deliberate exit
    raises the ``status.terminated`` flag.
    """

    def __init__(self, config: EpisodeConfig):
        super().__init__(config)
        self.checks = CallChecks(self.runtime, self.goal_watch.goal)
        self.consecutive_failures: dict[str, int] = {}
        self.facts = FactIndex()

    def cognition_input(
        self, snapshot: MemorySnapshot, constraints: list[str], cycle: int
    ) -> CognitionInput:
        task = self.config.scenario.task
        return assemble_input(task, snapshot, constraints, DEFAULT_RULESET, self.facts)

    def decide(
        self, proposal: Proposal, snapshot: MemorySnapshot, cycle: int, max_cycles: int
    ) -> ControlDecision:
        return validate(
            proposal, snapshot, self.goal_watch, DEFAULT_RULESET, self.checks, cycle, max_cycles
        )

    def stage_init(self, store: MemoryStore) -> None:
        store.write_staged(
            "status.terminated", EntryKind.TERMINATION_FLAG, {"terminated": False}, source="init"
        )

    def on_proposer_failure(self, state: CycleState, note: str) -> None:
        state.feedback({"message": note}, f"{note}. Provide a well-formed proposal.")

    def on_terminate(self, state: CycleState, reason: TerminationReason) -> None:
        if reason is not TerminationReason.BUDGET_EXHAUSTED:
            state.store.write_staged(
                "status.terminated",
                EntryKind.TERMINATION_FLAG,
                {"terminated": True},
                source="control",
            )

    def after_execution(
        self, state: CycleState, decision: ControlDecision, result: ToolResult
    ) -> None:
        call = decision.call
        if result.ok:
            self.consecutive_failures[call.name] = 0
            return
        count = self.consecutive_failures.get(call.name, 0) + 1
        self.consecutive_failures[call.name] = count
        advice = on_tool_failure(call, result, self.registry, count)
        state.feedback(advice.feedback, advice.constraint)
        if advice.marker is not None:
            marker = advice.marker
            state.store.write_staged(marker.key, marker.kind, marker.payload, source="control")
        state.log_lines.append(f"[Control] Failure guidance: {advice.constraint}")


def drive_episode(system: System, proposer: ScriptedProposer) -> EpisodeResult:
    """Run one episode of ``system`` to termination, ``proposer`` proposing each cycle.

    The episode runs the system's configuration and runtime. Any object
    with ``propose`` and ``last_meta`` can stand in for the proposer.
    """
    config = system.config
    runtime = system.runtime
    store = MemoryStore()
    max_cycles = config.resolved_max_cycles()

    # Cycle 0: commit the static context and the system's own initial entries.
    config.scenario.stage_context(store)
    system.stage_init(store)
    init_delta = _commit_delta(store)
    records = [
        CycleRecord(
            cycle=0,
            memory_delta=init_delta,
            log_lines=[f"{system.memory_label} initialized {len(init_delta)} context entries"],
        )
    ]

    constraints: list[str] = []
    reason: TerminationReason | None = None
    cycles_used = 0

    for cycle in range(1, max_cycles + 1):
        cycles_used = cycle
        snapshot = store.snapshot
        cog_input = system.cognition_input(snapshot, constraints, cycle)
        state = CycleState(cycle, store)
        constraints = state.constraints
        log_lines = state.log_lines
        record = CycleRecord(cycle, stored(cog_input, "input_digest"), log_lines=log_lines)
        records.append(record)

        try:
            proposal = proposer.propose(cog_input)
        except ProposerFailure as exc:
            note = f"Proposer failure: {exc}"
            log_lines.append(f"{system.cognition_label} {note}")
            system.on_proposer_failure(state, note)
            record.memory_delta = _commit_delta(store)
            continue

        meta = proposer.last_meta
        log_lines.append(f"{system.cognition_label} Proposal: {proposal.describe()}")
        if meta.fault_label:
            log_lines.append(f"[Faults] injected {meta.fault_label}")

        decision = system.decide(proposal, snapshot, cycle, max_cycles)
        log_lines.extend(decision.log_lines)
        reads = meta.fact_reads  # each path once
        if decision.consumptions:  # control's reads follow, each path the proposer missed
            merged = dict(reads)
            for key, value in decision.consumptions:
                merged.setdefault(key, value)
            reads = merged.items()

        store.write_staged(
            f"prop.cycle{cycle}", EntryKind.PROPOSAL, proposal.payload, source="cognition"
        )

        if decision.verdict is Verdict.TERMINATE:
            reason = decision.reason
            system.on_terminate(state, reason)
        elif decision.verdict is Verdict.APPROVED:
            call = decision.call
            result, staged = runtime.execute(call, cycle)
            record.invocation = runtime.invocation_log[-1]
            if result.ok:
                for write in staged:
                    store.write_staged(write.key, write.kind, write.payload, source=call.name)
                log_lines.append(f"[Runtime] {call.name} ok ({result.latency_ms} ms)")
            else:
                log_lines.append(f"[Runtime] {call.name} failed: {result.error_code.value}")
            system.after_execution(state, decision, result)
        else:  # rejected
            state.feedback({"message": decision.feedback}, decision.feedback)

        record.proposal = proposal.to_response()
        record.decision = system.record(decision)
        record.memory_delta = _commit_delta(store)
        record.consumptions = [[k, encode_value(v)] for k, v in reads]
        record.fault_label = meta.fault_label
        if reason is not None:
            break
    else:
        reason = TerminationReason.BUDGET_EXHAUSTED  # budget ended on a failed cycle

    status = {
        TerminationReason.GOAL_SATISFIED: EpisodeStatus.COMPLETED,
        TerminationReason.COMPLETION_SIGNAL: EpisodeStatus.PARTIAL,
        TerminationReason.BUDGET_EXHAUSTED: EpisodeStatus.BUDGET_EXHAUSTED,
    }[reason]
    header = TraceHeader(
        config_digest=config.digest(),
        scenario=config.scenario.name,
        seed=config.seed,
        baseline=system.baseline,
        proposer=config.proposer_kind,
        ruleset_version=DEFAULT_RULESET.version,
        max_cycles=max_cycles,
    )
    return EpisodeResult(
        status=status,
        reason=reason,
        cycles_used=cycles_used,
        max_cycles=max_cycles,
        final_response=_final_response(
            status, cycles_used, max_cycles, _action_summary(store.snapshot)
        ),
        trace=EpisodeTrace(header=header, cycles=records),
        store=store,
        invocation_log=runtime.invocation_log,
    )


def run_episode(config: EpisodeConfig) -> EpisodeResult:
    """Run one governed episode to termination and return its full record."""
    return drive_episode(Governed(config), make_proposer(config))
