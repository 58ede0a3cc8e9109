"""Rule registry: behavioral rules rendered into prompts and enforced in validation.

Each rule pairs a human-readable statement (shown to the proposer verbatim)
with a machine check identifier that the validation layer maps to exactly one
enforcement routine. ``DEFAULT_RULESET`` holds the five shipped rules. A
ruleset's version is a content hash of its rules, so any edit to any rule is
observable in traces.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Any

from .util import content_digest


class CheckKind(str, Enum):
    """Machine checks; the validation layer binds each to one routine.

    ONE_ACTION_PER_CYCLE is the exception: the cycle structure guarantees it,
    so no routine tests it (see ``control.validate``).
    """

    CITATION_REQUIRED_FOR_COMPARISON = "citation_required_for_comparison"
    CANCELLATION_BEFORE_BRANCH = "cancellation_before_branch"
    PRECONDITIONS_SATISFIED = "preconditions_satisfied"
    ONE_ACTION_PER_CYCLE = "one_action_per_cycle"
    ARGUMENTS_COMPLETE = "arguments_complete"


@dataclass(frozen=True)
class Rule:
    id: str
    name: str
    statement: str
    check: CheckKind
    enabled: bool = True

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "name": self.name,
            "statement": self.statement,
            "check": self.check.value,
            "enabled": self.enabled,
        }


@dataclass(frozen=True)
class RuleSet:
    """Ordered rules plus a version derived from their content."""

    rules: tuple[Rule, ...]
    version: str = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "version", content_digest([r.to_dict() for r in self.rules]))

    def active(self) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.enabled)

    def active_for_check(self, check: CheckKind) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.enabled and r.check is check)

    def render_for_cognition(self) -> str:
        """One `<id>: <statement>` line per enabled rule, in config order."""
        return self._cognition_text

    @cached_property
    def _cognition_text(self) -> str:
        # The proposer reads this text every cycle.
        return "\n".join(f"{r.id}: {r.statement}" for r in self.active())


DEFAULT_RULESET = RuleSet((
    Rule(
        "R-NUM-COMPARE",
        "Numerical Comparison Rule",
        "When comparing numbers, explicitly state which is greater/less and cite memory "
        "keys for both values.",
        CheckKind.CITATION_REQUIRED_FOR_COMPARISON,
    ),
    Rule(
        "R-COND-PRIORITY",
        "Conditional Priority Rule",
        "Always evaluate cancellation conditions before proceeding to primary branches.",
        CheckKind.CANCELLATION_BEFORE_BRANCH,
    ),
    Rule(
        "R-COND-EXEC",
        "Conditional Execution Rule",
        "Execute actions only when their preconditions are fully satisfied. Do not skip "
        "validation steps.",
        CheckKind.PRECONDITIONS_SATISFIED,
    ),
    Rule(
        "R-SEQ",
        "Sequential Processing Rule",
        "For multi-step tasks, propose one action at a time and wait for confirmation "
        "before proposing the next.",
        CheckKind.ONE_ACTION_PER_CYCLE,
    ),
    Rule(
        "R-ARGS",
        "Argument Completeness Rule",
        "Ensure all required function arguments are present before proposing a call. Do not "
        "leave arguments as 'TBD.'",
        CheckKind.ARGUMENTS_COMPLETE,
    ),
))
