"""Goal specifications: required facts, a cancellation guard, and action branches.

A goal is declarative data loaded from a scenario file. Conditions are
evidence expressions over memory keys; actions are concrete tool-call
templates. The same spec drives three consumers: the scripted planner (what
to do next), the validation layer (is this proposal authorized), and episode
accounting (is the goal satisfied).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any

from . import evidence
from .evidence import EvidenceExpr
from .memory import NOT_FOUND, MemorySnapshot, key_segments
from .runtime import ToolCall, canon_args


class GoalConfigError(Exception):
    """Goal specification is structurally invalid."""


@dataclass(frozen=True)
class Branch:
    """Actions to run when the condition conjunction holds."""

    condition: tuple[EvidenceExpr, ...]
    actions: tuple[ToolCall, ...]


@dataclass(frozen=True)
class Cancellation:
    """Guard evaluated before any branch; when true, only its action runs."""

    condition: tuple[EvidenceExpr, ...]
    action: ToolCall


@dataclass(frozen=True)
class GoalSpec:
    required_facts: tuple[str, ...]
    branches: tuple[Branch, ...] = ()
    cancellation: Cancellation | None = None

    # ------------------------------------------------------------- structure
    def entities(self) -> list[str]:
        """Observation entities behind the required facts, first-seen order."""
        return list(self._entities)

    @cached_property
    def _entities(self) -> tuple[str, ...]:
        seen: list[str] = []
        for fact in self.required_facts:
            segments = key_segments(fact) if isinstance(fact, str) else ()
            if segments[:1] != ("obs",) or len(segments) < 3:
                raise GoalConfigError(
                    f"required fact {fact!r} must be an obs.<entity>.<field> leaf key"
                )
            entity = ".".join(segments[1:-1])
            if entity not in seen:
                seen.append(entity)
        return tuple(seen)

    def facts_for_entity(self, entity: str) -> list[str]:
        prefix = f"obs.{entity}."
        return [f for f in self.required_facts if f.startswith(prefix)]

    def all_conditions(self) -> list[EvidenceExpr]:
        exprs: list[EvidenceExpr] = []
        if self.cancellation:
            exprs.extend(self.cancellation.condition)
        for branch in self.branches:
            exprs.extend(branch.condition)
        return exprs

    def action_templates(self) -> list[ToolCall]:
        templates: list[ToolCall] = []
        if self.cancellation:
            templates.append(self.cancellation.action)
        for branch in self.branches:
            templates.extend(branch.actions)
        return templates

    def total_planned_actions(self) -> int:
        return len(self.action_templates())

    def matching_template(self, call: ToolCall) -> tuple[str, tuple[EvidenceExpr, ...]] | None:
        """('cancellation'|'branch', condition) when the call matches a template."""
        wanted = (call.name, call.canonical_args)
        if self.cancellation:
            tpl = self.cancellation.action
            if (tpl.name, tpl.canonical_args) == wanted:
                return ("cancellation", self.cancellation.condition)
        for branch in self.branches:
            for tpl in branch.actions:
                if (tpl.name, tpl.canonical_args) == wanted:
                    return ("branch", branch.condition)
        return None

    def validate(self) -> None:
        """Reject specs whose conditions reach outside the required facts."""
        if not self.required_facts:
            raise GoalConfigError("goal requires at least one required fact")
        self.entities()  # validates key shapes
        # The proposer sees a tool's action record only as act.<tool>, so after a
        # branch's first call of a tool it would take a second one as done too.
        for index, branch in enumerate(self.branches):
            names = [action.name for action in branch.actions]
            for position, name in enumerate(names):
                if name in names[:position]:
                    raise GoalConfigError(f"branches[{index}] names tool {name!r} twice")
        allowed = set(self.required_facts)
        for expr in self.all_conditions():
            for key in evidence.referenced_keys(expr):
                if key.startswith("goal."):
                    continue
                if key not in allowed:
                    raise GoalConfigError(
                        f"condition references {key!r}, which is not a required fact"
                    )

    # ------------------------------------------------------------ evaluation
    def success(self, snapshot: MemorySnapshot) -> bool:
        """All required facts present and every triggered action executed."""
        for fact in self.required_facts:
            if snapshot.resolve(fact) is NOT_FOUND:
                return False
        if self.cancellation is not None:
            verdict = evidence.evaluate_all(list(self.cancellation.condition), snapshot)
            if verdict is evidence.UNKNOWN:
                return False
            if verdict is True:
                # Cancellation preempts the branches entirely.
                return action_executed(snapshot, self.cancellation.action)
        for branch in self.branches:
            verdict = evidence.evaluate_all(list(branch.condition), snapshot)
            if verdict is evidence.UNKNOWN:
                return False
            if verdict is True and not all(action_executed(snapshot, a) for a in branch.actions):
                return False
        return True

    # ---------------------------------------------------------------- config
    @classmethod
    def from_dict(cls, config: dict[str, Any]) -> "GoalSpec":
        try:
            required = tuple(config["required_facts"])
        except KeyError:
            raise GoalConfigError("goal config missing 'required_facts'") from None
        branches = tuple(
            Branch(
                condition=tuple(evidence.parse(c) for c in raw.get("condition", [])),
                actions=tuple(
                    ToolCall(a["name"], dict(a.get("arguments", {}))) for a in raw.get("actions", [])
                ),
            )
            for raw in config.get("branches", [])
        )
        cancellation = None
        raw_cancel = config.get("cancellation")
        if raw_cancel:
            cancellation = Cancellation(
                condition=tuple(evidence.parse(c) for c in raw_cancel.get("condition", [])),
                action=ToolCall(
                    raw_cancel["action"]["name"], dict(raw_cancel["action"].get("arguments", {}))
                ),
            )
        spec = cls(required_facts=required, branches=branches, cancellation=cancellation)
        spec.validate()
        return spec

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"required_facts": list(self.required_facts)}
        if self.cancellation:
            data["cancellation"] = {
                "condition": [evidence.render(c) for c in self.cancellation.condition],
                "action": self.cancellation.action.to_dict(),
            }
        if self.branches:
            data["branches"] = [
                {
                    "condition": [evidence.render(c) for c in b.condition],
                    "actions": [a.to_dict() for a in b.actions],
                }
                for b in self.branches
            ]
        return data


def action_executed(snapshot: MemorySnapshot, call: ToolCall) -> bool:
    """True if a committed action record of ``call`` has its canonical args.

    The runtime writes each record of tool ``t`` under ``act.t``, and an
    action record can only hold the status ``executed``.
    """
    wanted = call.canonical_args
    for entry in snapshot.history(f"act.{call.name}"):
        # Canonicalization is idempotent, so equal raw args need no second pass.
        args = entry.payload["args"]
        if args == wanted or canon_args(args) == wanted:
            return True
    return False
