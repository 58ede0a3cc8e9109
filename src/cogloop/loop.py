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

import logging
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from . import evidence
from .cognition import (
    CognitionInput,
    FactIndex,
    FactView,
    FaultConfig,
    FaultyProposer,
    PlannerPolicy,
    Proposal,
    ProposerFailure,
    ScriptedProposer,
    assemble_input,
    format_memory_fact,
    parse_entities,
)
from .control import (
    ControlDecision,
    DedupCache,
    TerminationReason,
    Verdict,
    on_tool_failure,
    validate,
)
from .goals import GoalWatch
from .memory import (
    NOT_FOUND,
    EntryKind,
    MalformedKey,
    MemoryEntry,
    MemorySnapshot,
    MemoryStore,
    StoreError,
    encode_value,
    key_segments,
)
from .regulation import DEFAULT_RULESET, RuleSet
from .runtime import (
    EXTRA_SPECS,
    Runtime,
    ToolFailure,
    ToolResult,
    WorldState,
    argument_problems,
    builtin_registry,
)
from .trace import CycleRecord, EpisodeTrace, TraceHeader
from .util import canonical_json, content_digest

logger = logging.getLogger(__name__)

CYCLE_BUDGET_FACTOR = 3  # default budget = factor * (facts to gather + actions to run)


class ConfigError(Exception):
    """Episode or scenario configuration is invalid."""


class EpisodeStatus(str, Enum):
    COMPLETED = "Completed"
    PARTIAL = "PartialCompletion"
    BUDGET_EXHAUSTED = "BudgetExhausted"


@dataclass(frozen=True)
class EpisodeConfig:
    """Everything one governed episode needs, valid by construction.

    Building one runs ``validate``, so ``dataclasses.replace`` checks the copy it builds.
    """

    scenario: str
    task: str
    policy: PlannerPolicy
    ruleset: RuleSet = DEFAULT_RULESET
    context: dict[str, dict[str, Any]] = field(default_factory=dict)
    world: dict[str, Any] = field(default_factory=dict)
    extra_tools: tuple[str, ...] = ()
    seed: int = 1
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
        if self.max_cycles is not None:
            return self.max_cycles
        goal = self.policy.goal
        return CYCLE_BUDGET_FACTOR * (len(goal.required_facts) + len(goal.action_templates()))

    def validate(self) -> None:
        """Check every value rule of the episode; a ``ConfigError`` names the field at fault."""
        if not self.task.strip():
            raise ConfigError("task must be a non-empty string")
        if self.max_cycles is not None and self.max_cycles < 1:
            raise ConfigError(f"max_cycles must be positive, got {self.max_cycles}")
        goal, gather = self.policy.goal, self.policy.gather
        for i, name in enumerate(self.extra_tools):
            if not isinstance(name, str) or name not in EXTRA_SPECS:
                raise ConfigError(
                    f"extra_tools[{i}]: unknown optional tool {name!r} "
                    f"(available: {sorted(EXTRA_SPECS)})"
                )
            if name in self.extra_tools[:i]:
                raise ConfigError(f"extra_tools[{i}]: repeats {name!r}")
        registry = builtin_registry(list(self.extra_tools))
        wanted = [gather.tool] + [t.name for t in goal.action_templates()]
        missing = sorted({name for name in wanted if registry.get(name) is None})
        if missing:
            raise ConfigError(f"goal references unregistered tools: {missing}")
        for i, row in enumerate(self.world.get("fault_schedule", [])):
            if row["tool"] not in registry:
                raise ConfigError(
                    f"world.fault_schedule[{i}].tool: no tool named {row['tool']!r} is registered"
                )
        spec = registry[gather.tool]
        world = WorldState.from_dict(self.world)  # for dry runs only
        for entity in goal.entities():
            # Control and the runtime judge each call by `argument_problems`.
            observed = None
            try:
                call = gather.build_call(entity)
                problems = argument_problems(spec, call.arguments)
                if not problems and spec.observes is not None:
                    observed = spec.observes(call.canonical_args)
                    key_segments(observed)
            except (LookupError, ValueError, AttributeError, MalformedKey) as exc:
                problems = [f"{type(exc).__name__}: {exc}"]
            if problems:
                raise ConfigError(
                    f"gather.arguments: no valid call for entity {entity!r} "
                    f"({'; '.join(problems)})"
                )
            if observed != f"obs.{entity}":
                raise ConfigError(
                    f"gather.arguments: the call for entity {entity!r} observes "
                    f"{observed!r}, not 'obs.{entity}'"
                )
            # A sensor's answer depends on the world alone: a failing dry run fails every call.
            try:
                spec.handler(call.canonical_args, world)
            except ToolFailure as failure:
                raise ConfigError(
                    f"gather.arguments: the call for entity {entity!r} always fails "
                    f"({failure.code.value}: {failure.message})"
                ) from None
        for action in goal.action_templates():
            problems = argument_problems(registry[action.name], action.arguments)
            if problems:
                raise ConfigError(
                    f"goal: action {action.describe()} is incomplete ({'; '.join(problems)})"
                )
        # Cycle 0 as `drive_episode` commits it: the store's entry rules judge the context.
        store = MemoryStore()
        try:
            self.stage_context(store)
        except StoreError as exc:
            raise ConfigError(f"context: {exc}") from exc
        snapshot = store.commit_cycle()
        citation = self.policy.goal_citation
        if citation is not None:
            try:
                key_segments(citation)
            except MalformedKey as exc:
                raise ConfigError(f"goal_citation: {exc}") from exc
            if not citation.startswith("goal."):
                raise ConfigError("goal_citation: must be a goal.* key")
            if snapshot.resolve(citation) is NOT_FOUND:
                raise ConfigError(f"goal_citation: {citation!r} does not resolve in context")
        # The proposer reads goal.* values back from the fact lines of that cycle 0.
        view = FactView(parse_entities(tuple(map(format_memory_fact, snapshot.entries)), {}))
        for key in goal.condition_keys():
            if not key.startswith("goal."):
                continue
            held = snapshot.resolve(key)
            if held is NOT_FOUND:
                raise ConfigError(f"goal: condition key {key!r} does not resolve in context")
            read = view.resolve(key)
            if read is NOT_FOUND or canonical_json(read) != canonical_json(held):
                raise ConfigError(
                    f"goal: condition key {key!r} holds {held!r}, "
                    f"which the proposer reads as {read!r}"
                )

    def stage_context(self, store: MemoryStore) -> None:
        """Stage the context entries of cycle 0, in key order."""
        for key in sorted(self.context):
            store.write_staged(key, EntryKind.OBSERVATION, self.context[key], source="init")

    def describe(self) -> dict[str, Any]:
        """Stable dict identifying this configuration (digest input)."""
        return {
            "scenario": self.scenario,
            "task": self.task,
            "goal": self.policy.goal.to_dict(),
            "gather": {
                "tool": self.policy.gather.tool,
                "arguments": self.policy.gather.arguments,
            },
            "goal_citation": self.policy.goal_citation,
            "ruleset_version": self.ruleset.version,
            "context": self.context,
            "world": self.world,
            "extra_tools": list(self.extra_tools),
            "seed": self.seed,
            "faults": self.faults.to_dict() if self.faults else None,
            "max_cycles": self.resolved_max_cycles(),
            "proposer": self.proposer_kind,
        }

    def digest(self) -> str:
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
    if config.proposer_kind == "faulty":
        return FaultyProposer(config.policy, config.faults, episode_seed=config.seed)
    return ScriptedProposer(config.policy)


def _proposal_payload(proposal: Proposal) -> dict[str, Any]:
    return {
        "proposition": proposal.describe(),
        "evidence": [evidence.render(c) for c in proposal.citations],
        "rationale": proposal.rationale,
    }


def _commit_delta(store: MemoryStore) -> tuple[MemoryEntry, ...]:
    """Commit the staged writes; the entries the commit created."""
    before = len(store.snapshot.entries)
    return store.commit_cycle().entries[before:]


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
    into the trace header.
    """

    baseline = False
    cognition_label = "[Cognition]"
    memory_label = "[Memory]"

    def __init__(self, config: EpisodeConfig):
        self.config = config
        self.registry = builtin_registry(list(config.extra_tools))
        self.goal_watch = GoalWatch(config.policy.goal)

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
        self.cache = DedupCache()
        self.consecutive_failures: dict[str, int] = {}
        self.facts = FactIndex()

    def cognition_input(
        self, snapshot: MemorySnapshot, constraints: list[str], cycle: int
    ) -> CognitionInput:
        config = self.config
        return assemble_input(config.task, snapshot, constraints, config.ruleset, self.facts)

    def decide(
        self, proposal: Proposal, snapshot: MemorySnapshot, cycle: int, max_cycles: int
    ) -> ControlDecision:
        config = self.config
        return validate(
            proposal, snapshot, self.goal_watch, config.ruleset, self.cache,
            self.registry, cycle, max_cycles,
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
            self.cache.record(call, decision.read_set)
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

    The episode runs the system's configuration and tool registry. Any object
    with ``propose`` and ``last_meta`` can stand in for the proposer.
    """
    config = system.config
    runtime = Runtime(system.registry, WorldState.from_dict(config.world))
    store = MemoryStore()
    max_cycles = config.resolved_max_cycles()

    # Cycle 0: commit the static context and the system's own initial entries.
    config.stage_context(store)
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
        record = CycleRecord(cycle=cycle, input_digest=cog_input.digest(), log_lines=log_lines)
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
        consumptions: dict[str, Any] = dict(meta.fact_reads)

        decision = system.decide(proposal, snapshot, cycle, max_cycles)
        log_lines.extend(decision.log_lines)
        for key, value in decision.consumptions:
            consumptions.setdefault(key, value)

        store.write_staged(
            f"prop.cycle{cycle}",
            EntryKind.PROPOSAL,
            _proposal_payload(proposal),
            source="cognition",
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
        record.consumptions = [[k, encode_value(v)] for k, v in consumptions.items()]
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
        scenario=config.scenario,
        seed=config.seed,
        baseline=system.baseline,
        proposer=config.proposer_kind,
        ruleset_version=config.ruleset.version,
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
