"""Validation layer: every proposal is checked against rules, memory, and goal.

``validate`` runs a fixed sequence of checks and reports *all* violations,
each tagged with the rule ids it breaches, so rejections are attributable:

1. termination — goal satisfied, completion signaled, or budget exhausted
2. argument completeness (R-ARGS): schema-required args present, no placeholders
3. sequencing (R-SEQ): holds by construction, see ``validate``
4. duplicate suppression (R-DEDUP): a call the episode's runtime has already
   run successfully is not approved again; the runtime would only answer it
   from its record of successful calls, running no handler
5. cancellation priority (R-COND-PRIORITY): branch actions wait until the
   cancellation guard is evaluable, and are refused while it holds
6. conditional execution (R-COND-EXEC): a planned action runs only under a
   true condition; effect tools outside the plan are never authorized
7. citations (R-NUM-COMPARE): comparison-backed actions cite evidence, and
   every citation must resolve and hold arithmetically

Approval never mutates anything; rejected proposals produce a feedback
constraint for the next cycle. R-DEDUP is minted here rather than configured,
because duplicate suppression is a control policy, not prompt guidance.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from . import evidence
from .evidence import MemoryRef
from .goals import GoalSpec, GoalWatch
from .memory import (
    NOT_FOUND,
    EntryKind,
    MemorySnapshot,
    encode_value,
    resolve_plan,
)
from .regulation import CheckKind, RuleSet
from .runtime import (
    Runtime,
    StagedWrite,
    ToolCall,
    ToolResult,
    ToolSpec,
    argument_problems,
)

DEDUP_RULE_ID = "R-DEDUP"

ESCALATION_THRESHOLD = 2  # consecutive failures of one tool before escalating

# Each check's violation label; None is R-DEDUP, which no configured rule owns.
_LABELS: dict[CheckKind | None, str] = {
    CheckKind.ARGUMENTS_COMPLETE: "Arguments",
    None: "Dedup",
    CheckKind.CANCELLATION_BEFORE_BRANCH: "Priority",
    CheckKind.PRECONDITIONS_SATISFIED: "Condition",
    CheckKind.CITATION_REQUIRED_FOR_COMPARISON: "Citation",
}


class Verdict(str, Enum):
    APPROVED = "approved"
    REJECTED = "rejected"
    TERMINATE = "terminate"


class TerminationReason(str, Enum):
    GOAL_SATISFIED = "GoalSatisfied"
    COMPLETION_SIGNAL = "CompletionSignal"
    BUDGET_EXHAUSTED = "BudgetExhausted"


@dataclass(frozen=True)
class Violation:
    check: str
    rule_ids: tuple[str, ...]
    detail: str
    short: str  # compact reason used in log lines


@dataclass
class ControlDecision:
    """Outcome of validating one proposal. ``validate`` may return one rejection on many
    cycles, so a decision is complete when built and never changed after."""

    verdict: Verdict
    call: ToolCall | None = None
    violations: tuple[Violation, ...] = ()
    feedback: str = ""
    reason: TerminationReason | None = None
    log_lines: tuple[str, ...] = ()
    consumptions: tuple[tuple[str, Any], ...] = ()
    read_set: dict[str, int] = field(default_factory=dict)

    def rule_ids(self) -> tuple[str, ...]:
        return _rule_ids(self.violations)

    def to_dict(self) -> dict[str, Any]:
        return {
            "verdict": self.verdict.value,
            "call": self.call.canonical_dict() if self.call else None,
            "rule_ids": list(self.rule_ids()),
            "violations": [
                {"check": v.check, "rule_ids": list(v.rule_ids), "detail": v.detail}
                for v in self.violations
            ],
            "feedback": self.feedback,
            "reason": self.reason.value if self.reason else None,
            "constraints_next": [self.feedback] if self.feedback else [],
            "log_lines": list(self.log_lines),
            "consumptions": [[k, encode_value(v)] for k, v in self.consumptions],
            "read_set": dict(self.read_set),
        }


def _rule_ids(violations: tuple[Violation, ...]) -> tuple[str, ...]:
    """The rule ids ``violations`` breach, each once, in first-breached order."""
    return tuple(dict.fromkeys(rule_id for v in violations for rule_id in v.rule_ids))


class CallChecks:
    """One episode's state for ``validate``: its ``goal``, the episode's ``runtime``, whose
    registry gives each call's spec and whose record of successful calls R-DEDUP reads, and,
    per proposal object, the rejection that ``validate`` kept for it."""

    def __init__(self, runtime: Runtime, goal: GoalSpec):
        self.runtime = runtime
        self.goal = goal
        self._rejected: dict[int, tuple[Any, RuleSet, ControlDecision]] = {}


def check_termination(
    proposal_is_completion: bool,
    snapshot: MemorySnapshot,
    watch: GoalWatch,
    cycle_index: int,
    max_cycles: int,
) -> TerminationReason | None:
    """Exit precedence: goal satisfaction, then completion signal, then budget.

    The episode's ``watch`` gives ``GoalSpec.success`` at the snapshot; it
    recomputes it only when a commit since its last check touched a key the
    goal reads.
    """
    if watch.success(snapshot):
        return TerminationReason.GOAL_SATISFIED
    if proposal_is_completion:
        return TerminationReason.COMPLETION_SIGNAL
    if cycle_index >= max_cycles:
        return TerminationReason.BUDGET_EXHAUSTED
    return None


class _Validation:
    """One validate() run; collects violations, consumptions, and log lines."""

    def __init__(self, proposal, snapshot: MemorySnapshot, ruleset: RuleSet, checks: CallChecks):
        self.proposal = proposal
        self.snapshot = snapshot
        self.goal = checks.goal
        self.ruleset = ruleset
        self.runtime = checks.runtime
        self.call = call = proposal.call
        self.spec = spec = self.runtime.registry.get(call.name)
        self.problems = [] if spec is None else argument_problems(spec, call.canonical_args)
        self.template = self.goal.matching_template(call)
        self.violations: list[Violation] = []
        self.consumed: dict[str, Any] = {}

    def add(self, check: CheckKind | None, detail: str, short: str) -> None:
        if check is None:
            rule_ids: tuple[str, ...] = (DEDUP_RULE_ID,)
        else:
            rule_ids = tuple(r.id for r in self.ruleset.active_for_check(check))
            if not rule_ids:  # rule explicitly disabled: check not enforced
                return
        self.violations.append(Violation(_LABELS[check], rule_ids, detail, short))

    def resolve(self, path: str) -> Any:
        """``path`` in the snapshot; records the first value read as a consumption."""
        value = self.snapshot.resolve(path)
        self.consumed.setdefault(path, value)
        return value

    # ------------------------------------------------------------- the checks
    def check_arguments(self) -> None:
        if self.spec is None:
            detail, short = f"no registered tool named {self.call.name!r}", "unknown tool"
        elif not self.problems:
            return
        else:
            detail, short = "; ".join(self.problems), "incomplete arguments"
        self.add(CheckKind.ARGUMENTS_COMPLETE, detail, short)

    def check_dedup(self) -> None:
        if self.runtime.succeeded(self.call) is None:
            return
        if self.spec is not None and self.spec.observes is not None:
            detail = "Observation already exists"
        else:
            detail = f"identical call {self.call.describe()} already executed"
        self.add(None, detail, "duplicate")

    def check_cancellation_priority(self) -> None:
        cancellation = self.goal.cancellation
        if cancellation is None or self.template is None or self.template is cancellation:
            return
        verdict = evidence.evaluate_all(cancellation.condition, self)
        if verdict is evidence.UNKNOWN:
            detail = "cancellation condition not yet evaluable; gather its facts first"
            short = "premature"
        elif verdict is True:
            detail = "cancellation condition holds; branch actions are preempted"
            short = "preempted"
        else:
            return
        self.add(CheckKind.CANCELLATION_BEFORE_BRANCH, detail, short)

    def check_condition(self) -> None:
        if self.template is None:
            if self.spec is not None and self.spec.effect:
                self.add(
                    CheckKind.PRECONDITIONS_SATISFIED,
                    f"no goal branch authorizes effect call {self.call.describe()}",
                    "unauthorized action",
                )
            return
        kind = "cancellation" if self.template is self.goal.cancellation else "branch"
        condition = self.template.condition
        verdict = evidence.evaluate_all(condition, self)
        if verdict is True:
            return
        rendered = " and ".join(evidence.render(c) for c in condition)
        if verdict is evidence.UNKNOWN:
            detail = f"{kind} condition not established: {rendered}"
        else:
            detail = f"{kind} condition is false: {rendered}"
        self.add(CheckKind.PRECONDITIONS_SATISFIED, detail, "condition not satisfied")

    def check_citations(self) -> None:
        check = CheckKind.CITATION_REQUIRED_FOR_COMPARISON
        if self.template is not None and not self.proposal.citations:
            self.add(check, "comparison-backed action proposed without citations", "missing citations")
        for expr in self.proposal.citations:
            if isinstance(expr, MemoryRef):
                if self.resolve(expr.key) is not NOT_FOUND:
                    continue
                detail = f"cited key {expr.key} does not resolve"
            else:
                verdict = evidence.evaluate(expr, self)
                if verdict is True:
                    continue
                problem = "references missing" if verdict is evidence.UNKNOWN else "is not supported by"
                detail = f"citation {evidence.render(expr)} {problem} memory"
            self.add(check, detail, "invalid citation")

    # ------------------------------------------------------------- assembly
    def approval_log_line(self) -> str:
        if self.spec is not None and self.spec.observes is not None:
            obs_key = self.spec.observes(self.call.canonical_args)
            entity = obs_key.split(".", 1)[1] if "." in obs_key else obs_key
            prior = self.snapshot.latest(obs_key)
            if prior is None:
                detail = f"No prior observation for {entity}"
            elif "error" in prior.payload:
                detail = f"Previous observation for {entity} failed"
            else:
                detail = f"Fresh observation permitted for {entity}"
            return f"[Control] Precondition: {detail} → Approved"
        if self.template is not None:
            rendered = " and ".join(evidence.render(c) for c in self.template.condition)
            return f"[Control] Condition: {rendered} satisfied → Approved"
        return "[Control] Precondition: required memory present → Approved"

    def read_set_watermarks(self) -> dict[str, int]:
        # Each path's owner is its longest committed prefix. Runs on approval only:
        # every consumed path then resolved (a malformed one never does) or is a
        # goal condition key, parsed at load, so resolve_plan cannot raise here.
        watermarks: dict[str, int] = {}
        for path in sorted(self.consumed):
            for key, _ in resolve_plan(path):
                version = self.snapshot.latest_version(key)
                if version:
                    watermarks[key] = version
                    break
        return watermarks


def validate(
    proposal,
    snapshot: MemorySnapshot,
    watch: GoalWatch,
    ruleset: RuleSet,
    checks: CallChecks,
    cycle_index: int,
    max_cycles: int,
) -> ControlDecision:
    """Run every applicable check against ``watch.goal``, which ``checks`` must be of too;
    approve, reject with all violations, or terminate. Past the termination check, a
    proposal whose rejection read no memory gets the decision it got before."""
    reason = check_termination(
        proposal.call is None, snapshot, watch, cycle_index, max_cycles
    )
    if reason is not None:
        details = {
            TerminationReason.GOAL_SATISFIED: "goal satisfied",
            TerminationReason.COMPLETION_SIGNAL: "completion signaled",
            TerminationReason.BUDGET_EXHAUSTED: f"cycle budget {max_cycles} exhausted",
        }
        line = f"[Control] Termination: {details[reason]} → Terminate ({reason.value})"
        return ControlDecision(
            verdict=Verdict.TERMINATE, reason=reason, log_lines=(line,)
        )

    kept = checks._rejected.get(id(proposal))
    if kept is not None and kept[1] is ruleset:
        return kept[2]
    # Every null call (a completion signal) has terminated above.
    run = _Validation(proposal, snapshot, ruleset, checks)
    run.check_arguments()
    # R-SEQ (one action per cycle, none while another is unconfirmed) holds
    # by construction: a proposal carries at most one call, and the runtime
    # writes its action record as executed in the same cycle's commit, so no
    # action is ever pending when the next proposal arrives.
    run.check_dedup()
    run.check_cancellation_priority()
    run.check_condition()
    run.check_citations()

    consumptions = tuple(run.consumed.items())
    if not run.violations:
        return ControlDecision(
            verdict=Verdict.APPROVED,
            call=run.call,
            log_lines=(run.approval_log_line(),),
            consumptions=consumptions,
            read_set=run.read_set_watermarks(),
        )

    violations = tuple(run.violations)
    rule_ids = ", ".join(_rule_ids(violations))
    details = "; ".join(v.detail for v in violations)
    decision = ControlDecision(
        verdict=Verdict.REJECTED,
        call=run.call,
        violations=violations,
        feedback=(
            f"Proposal rejected [{rule_ids}]: {details}. Revise the proposal using current memory."
        ),
        log_lines=tuple(
            f"[Control] {v.check}: {v.detail} → Rejected ({v.short})" for v in violations
        ),
        consumptions=consumptions,
    )
    # Keep a rejection that read no memory, for this proposal object under this very ruleset.
    # The checks read memory only through `resolve` (a consumption; every citation and goal
    # condition resolves a key). Every other input is fixed per call but the runtime's
    # record, which only grows: a duplicate stays one, and `ruleset` never approves a call
    # it rejected without reading memory, so the record never gains it. The rejection holds
    # for the rest of the episode. The entry holds the proposal, so its id is not reused.
    if not consumptions:
        checks._rejected[id(proposal)] = (proposal, ruleset, decision)
    return decision


@dataclass(frozen=True)
class FailureAdvice:
    """What control records and constrains after a tool failure."""

    constraint: str
    feedback: dict[str, Any]  # the cycle's feedback entry payload
    marker: StagedWrite | None  # a sensor's error-marker observation


def on_tool_failure(
    call: ToolCall,
    result: ToolResult,
    registry: dict[str, ToolSpec],
    consecutive_failures: int,
) -> FailureAdvice:
    """Record a failure in memory and steer the next proposal.

    ``consecutive_failures`` counts this failure too; at the escalation
    threshold the constraint switches from retry advice to seeking
    clarification. The failure is recorded twice: as cycle feedback, and — for
    sensors — as an error-marker version under the observation key itself, so
    a later successful reading lands alongside the failed one in history.
    """
    code = result.error_code.value if result.error_code else "UnknownError"
    if consecutive_failures >= ESCALATION_THRESHOLD:
        constraint = (
            f"Tool {call.name} failed {consecutive_failures} times: {code}. "
            "Seek clarification before retrying."
        )
    else:
        constraint = f"Tool {call.name} failed: {code}. Propose an alternative or retry."
    # Field order matters: fact lines render payload fields in insertion order.
    message = result.error_message or code
    feedback = {"tool": call.name, "code": code, "message": message, "constraint": constraint}
    spec = registry.get(call.name)
    marker = None
    if spec is not None and spec.observes is not None:
        marker = StagedWrite(
            spec.observes(call.canonical_args),
            EntryKind.OBSERVATION,
            {"error": code, "tool": call.name},
        )
    return FailureAdvice(constraint, feedback, marker)
