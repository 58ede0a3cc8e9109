"""Goal specifications: required facts, a cancellation guard, and action branches.

A goal is declarative data loaded from a scenario file. Conditions are
evidence expressions over memory keys; actions are concrete tool-call
templates. ``GoalSpec.triggered`` is the one place that decides which
branches the goal calls for at a given memory state. The scripted planner
proposes their actions and episode accounting checks that they ran; the
validation layer authorizes a proposal by the branch its call matches.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any

from . import evidence
from .evidence import EvidenceExpr
from .memory import NOT_FOUND, MemorySnapshot, key_segments, resolve_plan
from .runtime import ToolCall, same_args


class GoalConfigError(Exception):
    """Goal specification is structurally invalid; the message starts with the path at fault."""


@dataclass(frozen=True)
class Branch:
    """Actions to run when the condition conjunction holds."""

    condition: tuple[EvidenceExpr, ...]
    actions: tuple[ToolCall, ...]


@dataclass(frozen=True)
class GoalSpec:
    """A goal, valid by construction: building one runs ``validate``."""

    required_facts: tuple[str, ...]
    branches: tuple[Branch, ...] = ()
    # A one-action branch whose guard, when it holds, preempts every other branch.
    cancellation: Branch | None = None

    def __post_init__(self) -> None:
        self.validate()

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
                    f"goal: required fact {fact!r} must be an obs.<entity>.<field> leaf key"
                )
            entity = ".".join(segments[1:-1])
            if entity not in seen:
                seen.append(entity)
        return tuple(seen)

    def facts_for_entity(self, entity: str) -> list[str]:
        prefix = f"obs.{entity}."
        return [f for f in self.required_facts if f.startswith(prefix)]

    def all_branches(self) -> tuple[Branch, ...]:
        """The cancellation, when there is one, then the branches in spec order."""
        return self.branches if self.cancellation is None else (self.cancellation, *self.branches)

    def condition_keys(self) -> list[str]:
        """Every memory key a condition reads, in spec order."""
        return [
            key
            for branch in self.all_branches()
            for expr in branch.condition
            for key in evidence.referenced_keys(expr)
        ]

    def action_templates(self) -> list[ToolCall]:
        return [action for branch in self.all_branches() for action in branch.actions]

    @cached_property
    def read_keys(self) -> tuple[str, ...]:
        """Every memory key ``success`` can read, first-seen order: each ``resolve_plan``
        prefix of a required fact or condition key, and ``act.<tool>`` per action."""
        paths = (*self.required_facts, *self.condition_keys())
        return tuple(dict.fromkeys([
            *(key for path in paths for key, _ in resolve_plan(path)),
            *(f"act.{action.name}" for action in self.action_templates()),
        ]))

    def matching_template(self, call: ToolCall) -> Branch | None:
        """The first branch, the cancellation included, with an action equal to the call."""
        wanted = (call.name, call.canonical_args)
        for branch in self.all_branches():
            for tpl in branch.actions:
                if (tpl.name, tpl.canonical_args) == wanted:
                    return branch
        return None

    def validate(self) -> None:
        """Reject specs whose conditions reach outside the required facts."""
        if not self.required_facts:
            raise GoalConfigError("goal: requires at least one required fact")
        self.entities()  # validates key shapes
        # The proposer sees a tool's action record only as act.<tool>, so after a
        # branch's first call of a tool it would take a second one as done too.
        for index, branch in enumerate(self.branches):
            names = [action.name for action in branch.actions]
            for position, name in enumerate(names):
                if name in names[:position]:
                    raise GoalConfigError(f"goal: branches[{index}] names tool {name!r} twice")
        allowed = set(self.required_facts)
        for key in self.condition_keys():
            if key not in allowed and not key.startswith("goal."):
                raise GoalConfigError(
                    f"goal: condition references {key!r}, which is not a required fact"
                )

    # ------------------------------------------------------------ evaluation
    def triggered(self, memory: Any) -> Any:
        """UNKNOWN, or the branches whose conditions hold, in spec order.

        ``memory`` is anything with ``resolve(path)``. A holding cancellation
        guard preempts the branches, so it comes back alone; an unknown guard
        or branch condition makes the whole answer UNKNOWN.
        """
        if self.cancellation is not None:
            verdict = evidence.evaluate_all(self.cancellation.condition, memory)
            if verdict is not False:
                return (self.cancellation,) if verdict is True else evidence.UNKNOWN
        triggered = []
        for branch in self.branches:
            verdict = evidence.evaluate_all(branch.condition, memory)
            if verdict is evidence.UNKNOWN:
                return evidence.UNKNOWN
            if verdict is True:
                triggered.append(branch)
        return tuple(triggered)

    def success(self, snapshot: MemorySnapshot) -> bool:
        """All required facts present and every triggered action executed.

        A function of the entries of ``read_keys`` alone, so an episode asks its
        ``GoalWatch`` instead, which recomputes it only when one of them commits.
        """
        for fact in self.required_facts:
            if snapshot.resolve(fact) is NOT_FOUND:
                return False
        triggered = self.triggered(snapshot)
        return triggered is not evidence.UNKNOWN and all(
            action_executed(snapshot, action) for branch in triggered for action in branch.actions
        )

    # ---------------------------------------------------------------- config
    @classmethod
    def from_dict(cls, config: Any) -> "GoalSpec":
        """The goal ``config`` describes; its JSON shape is checked here, naming the path."""
        _object(config, "goal", {"required_facts", "branches", "cancellation"})
        required = _typed(config.get("required_facts"), list, "goal.required_facts", "array")
        branches = _typed(config.get("branches", []), list, "goal.branches", "array")
        raw_cancel = config.get("cancellation")
        return cls(
            required_facts=tuple(required),
            branches=tuple(_branch(raw, f"goal.branches[{i}]") for i, raw in enumerate(branches)),
            cancellation=None if raw_cancel is None else _cancellation(raw_cancel),
        )

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"required_facts": list(self.required_facts)}
        if self.cancellation:
            data["cancellation"] = {
                "condition": [evidence.render(c) for c in self.cancellation.condition],
                "action": self.cancellation.actions[0].to_dict(),
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


def _typed(value: Any, types: type, path: str, label: str) -> Any:
    """``value``, when it is a ``types``; otherwise a ``GoalConfigError`` names ``path``."""
    if not isinstance(value, types):
        raise GoalConfigError(f"{path}: expected {label}, got {type(value).__name__}")
    return value


def _object(value: Any, path: str, fields: set[str]) -> None:
    """Raise ``GoalConfigError`` unless ``value`` is an object with no field outside ``fields``."""
    unknown = sorted(set(_typed(value, dict, path, "object")) - fields)
    if unknown:
        raise GoalConfigError(f"{path}: unknown fields {unknown}")


def _branch(raw: Any, path: str) -> Branch:
    _object(raw, path, {"condition", "actions"})
    actions = _typed(raw.get("actions", []), list, f"{path}.actions", "array")
    return Branch(
        condition=_condition(raw, path),
        actions=tuple(_action(action, f"{path}.actions[{i}]") for i, action in enumerate(actions)),
    )


def _cancellation(raw: Any, path: str = "goal.cancellation") -> Branch:
    _object(raw, path, {"condition", "action"})
    condition = _condition(raw, path)
    return Branch(condition=condition, actions=(_action(raw.get("action"), f"{path}.action"),))


def _condition(raw: dict[str, Any], path: str) -> tuple[EvidenceExpr, ...]:
    texts = _typed(raw.get("condition", []), list, f"{path}.condition", "array")
    return tuple(
        evidence.parse(_typed(text, str, f"{path}.condition[{i}]", "string"))
        for i, text in enumerate(texts)
    )


def _action(raw: Any, path: str) -> ToolCall:
    _object(raw, path, {"name", "arguments"})
    name = _typed(raw.get("name"), str, f"{path}.name", "string")
    arguments = _typed(raw.get("arguments", {}), dict, f"{path}.arguments", "object")
    return ToolCall(name, dict(arguments))


class GoalWatch:
    """One episode's ``goal.success`` verdict, recomputed only when its inputs change.

    The verdict is recomputed when an entry committed since the last check has
    a key in ``goal.read_keys``, or when the snapshot given does not extend the
    last one (every later snapshot of one store does). The state lives here,
    never on the ``GoalSpec``, which a suite's episodes share.
    """

    def __init__(self, goal: GoalSpec):
        self.goal = goal
        self._keys = frozenset(goal.read_keys)
        self._last: MemorySnapshot | None = None  # the last snapshot given
        self._verdict = False

    def success(self, snapshot: MemorySnapshot) -> bool:
        """``goal.success(snapshot)``."""
        last = self._last
        if (last is None or not snapshot.extends(last)
                or any(entry.key in self._keys for entry in snapshot.since(len(last)))):
            self._verdict = self.goal.success(snapshot)
        self._last = snapshot
        return self._verdict


def action_executed(snapshot: MemorySnapshot, call: ToolCall) -> bool:
    """True if a committed action record of ``call`` has its canonical args.

    The runtime writes each record of tool ``t`` under ``act.t``, and an
    action record can only hold the status ``executed``.
    """
    history = snapshot.history(f"act.{call.name}")
    return any(same_args(e.payload["args"], call.canonical_args) for e in history)
