"""Proposal generation: serialized inputs and deterministic planners.

The proposer sees the world only through a serialized input: the task text,
rendered rules, one fact line per memory entry, and the previous cycle's
constraints. It answers with at most one tool call plus citations. Two
built-in proposers implement that contract deterministically:

* ``ScriptedProposer`` follows the goal spec — gather missing facts one
  entity at a time, then emit each action ``GoalSpec.triggered`` calls for
  (a holding cancellation guard preempts every branch) with its condition
  expressions as citations, then signal completion with a null call.
* ``FaultyProposer`` extends the scripted plan and, from a seeded stream,
  replaces at most one cycle's proposal with a labeled defect (duplicate
  call, stripped arguments, missing citations, premature branch action, or a
  citation to a key that does not exist). Labels are ground truth for the
  error-localization metric.
"""
from __future__ import annotations

import hashlib
import json
import random
import re
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Iterable

from . import evidence
from .evidence import EvidenceExpr, MemoryRef
from .goals import GoalSpec
from .memory import (
    NOT_FOUND,
    EntryKind,
    MalformedKey,
    MemorySnapshot,
    descend,
    resolve_plan,
)
from .regulation import RuleSet
from .runtime import ToolCall
from .util import ConfigError, canonical_json, deferred, is_int, is_number

DEFAULT_SYSTEM = (
    "You are the reasoning component of a governed agent loop. Propose exactly one "
    "tool call per cycle, or a null call to signal completion. Follow every rule; "
    "cite memory keys as evidence for any comparison you rely on."
)

FACT_PREFIX = "[Memory Fact] "

# A key that no scenario world can ever observe; used for citation faults.
PHANTOM_KEY = "obs.Phantom.temp_f"

FAULT_TYPES = (
    "duplicate",
    "missing_arg",
    "uncited_claim",
    "premature_action",
    "false_citation",
)


class ProposerFailure(Exception):
    """The proposer produced no usable proposal for this cycle."""


class PolicyGap(ProposerFailure):
    """The scripted policy has no move for the current state."""


# --------------------------------------------------------------------- input
@deferred("input_digest")
@dataclass(frozen=True)
class CognitionInput:
    """Everything the proposer is allowed to see for one cycle.

    ``entities`` and ``input_digest`` are values derived from the input by the
    system's one builder (`assemble_input`, or the baseline's): `parse_entities`
    of the facts, and the ``text_digest`` of `request_text`, which equals
    ``content_digest(to_request())``. Neither is part of the input's identity.
    The digest is a `Deferred` field: a governed input's is hashed on its first read.
    """

    system: str
    task: str
    rules: str
    facts: tuple[str, ...]
    constraints: tuple[str, ...]
    entities: dict[str, dict[str, Any]] = field(compare=False, repr=False)
    input_digest: str = field(compare=False, repr=False)

    def to_request(self) -> dict[str, Any]:
        return {
            "system": self.system,
            "task": self.task,
            "rules": self.rules,
            "facts": list(self.facts),
            "constraints": list(self.constraints),
        }


def request_text(system: str, task: str, rules: str, fact_json: Iterable[str],
                 constraints: tuple[str, ...]) -> str:
    """``canonical_json`` of an input's request, given each fact line's ``canonical_json``;
    the part after the facts repeats from cycle to cycle, so it is encoded once per process."""
    return _json_head(constraints) + ",".join(fact_json) + _json_tail(rules, system, task)


def _json_head(constraints: tuple[str, ...]) -> str:
    """The start of a request's canonical JSON, before its facts: the constraints."""
    return '{"constraints":[' + ",".join(map(canonical_json, constraints)) + '],"facts":['


@lru_cache(maxsize=64)
def _json_tail(rules: str, system: str, task: str) -> str:
    """The end of a request's canonical JSON, after its facts: rules, system, task."""
    return "]," + canonical_json({"rules": rules, "system": system, "task": task})[1:]


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, dict)):
        return canonical_json(value)
    return str(value)


def shown_fields(key: str, kind: EntryKind, payload: dict[str, Any]) -> dict[str, Any]:
    """The payload fields a fact line shows for an entry, in the order it shows them.

    An observation's ``location`` echo of its entity is left out, and an
    action record shows only its status and confirmation.
    """
    if kind is EntryKind.OBSERVATION and key.startswith("obs."):
        entity = key[len("obs.") :]
        return {k: v for k, v in payload.items() if not (k == "location" and v == entity)}
    if kind is EntryKind.ACTION:
        return {k: payload[k] for k in ("status", "confirmation") if k in payload}
    if kind in (EntryKind.OBSERVATION, EntryKind.CONTROL_FEEDBACK):  # incl. goal.* context
        return dict(payload)
    raise ValueError(f"no fact rendering for entry kind {kind.value!r}")


def format_memory_fact(entry) -> str:
    """One-line rendering of an entry for the proposer's fact list."""
    fields = shown_fields(entry.key, entry.kind, entry.payload)
    entity = entry.key.removeprefix("obs.") if entry.kind is EntryKind.OBSERVATION else entry.key
    rendered = ", ".join(f"{k}={_format_value(v)}" for k, v in fields.items())
    return f"{FACT_PREFIX}{entity}: {rendered}"


_INT_RE = re.compile(r"^-?\d+$")


def _parse_value(text: str) -> Any:
    if text == "true":
        return True
    if text == "false":
        return False
    if _INT_RE.match(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        pass
    if text[:1] in "[{":
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            pass
    return text


PARSE_MEMO = 1024  # bound of the process-wide memo of parsed fact lines


@lru_cache(maxsize=PARSE_MEMO)
def parse_fact_line(line: str) -> tuple[str, dict[str, Any]] | None:
    """Inverse of `format_memory_fact` for well-formed scalar fields.

    Memoized: each distinct line has one fields object, shared by every map
    built from it, which nothing may mutate.
    """
    if not line.startswith(FACT_PREFIX):
        return None
    body = line[len(FACT_PREFIX) :]
    entity, sep, rest = body.partition(": ")
    if not sep or not entity:
        return None
    fields: dict[str, Any] = {}
    for part in rest.split(", "):
        name, eq, raw = part.partition("=")
        if not eq or not name:
            continue
        fields[name] = _parse_value(raw)
    return entity, fields


# A control-feedback line shows its key, in the feedback namespace. The proposer is shown
# these lines and the input digest covers them, but no plan reads one, so no entity map
# holds them: each rejection adds one.
FEEDBACK_LINE = f"{FACT_PREFIX}feedback."


def parse_entities(facts: tuple[str, ...]) -> dict[str, dict[str, Any]]:
    """Entity -> fields shown by the fact lines, feedback lines aside (`FEEDBACK_LINE`); of
    two lines showing one entity, the later wins.

    The fields are `parse_fact_line`'s shared objects.
    """
    entities: dict[str, dict[str, Any]] = {}
    for line in facts:
        fact = None if line.startswith(FEEDBACK_LINE) else parse_fact_line(line)
        if fact:
            entities[fact[0]] = fact[1]
    return entities


# Entry kinds the proposer sees; proposals and termination flags stay hidden.
FACT_KINDS = frozenset({EntryKind.OBSERVATION, EntryKind.ACTION, EntryKind.CONTROL_FEEDBACK})


class FactIndex:
    """One episode's fact lines: the latest fact entry per key, in key order.

    ``current`` renders and parses only the entries committed since the
    snapshot it was last given, which each snapshot must extend, so a cycle's
    Python-level work is O(delta). Per key it keeps the line, and per entity
    the `parse_fact_line` fields of the last key in key order that shows it, as
    `parse_entities` would over all lines (so feedback lines are not parsed).
    It hands out one entity map until a commit changes an entity's fields, and
    then a new one: a map handed out is never mutated.

    ``digest`` queues an input behind the line edits before it and returns a
    thunk. Digests are hashed on first read: a thunk's first call hashes every
    input queued up to its own, in input order, each from where it differs
    from the last one. SHA-256 reads front to back, so the index keeps one
    mark: the first line the last digest found changed, and the hash state
    just before it. The mark serves while the constraints (the text before
    the lines) stay the same and no line before it changes; a rejection's
    feedback line mostly sorts right after the last one, so the mark mostly
    sits one line before the next change. So ``cogloop suite``, which reads
    no governed digest, never hashes a governed input.
    """

    def __init__(self) -> None:
        self._last = MemorySnapshot(())  # the last snapshot given, all indexed
        self._keys: list[str] = []  # sorted
        self._lines: list[str] = []  # parallel to _keys
        self._entities: dict[str, dict[str, Any]] = {}
        self._owners: dict[str, str] = {}  # entity -> the key whose fields it shows
        self._edits: list[tuple[int, bool, str]] = []  # (at, new, line) since the last digest
        self._queue: deque[tuple] = deque()  # (edits, constraints, tail) per input not hashed
        self._digests: list[str] = []  # the digests hashed so far, in input order
        self._json: list[str] = []  # the hashed lines' canonical JSON
        self._changed = 0  # the first line changed since the last digest
        self._constraints: tuple[str, ...] | None = None  # those before the lines in _state
        self._mark = 0  # the line _state was taken just before
        self._state: Any = None  # SHA-256 state of the request text before line _mark

    def current(
        self, snapshot: MemorySnapshot
    ) -> tuple[tuple[str, ...], dict[str, dict[str, Any]]]:
        """The snapshot's fact lines and entity -> fields map, which must not be mutated."""
        last = self._last
        if not snapshot.extends(last):
            raise ValueError("snapshot does not extend the last one the fact index saw")
        keys, lines, edits = self._keys, self._lines, self._edits
        shared = self._entities  # the map handed out last; copied before its first change
        for entry in snapshot.since(len(last)):
            if entry.kind not in FACT_KINDS:
                continue
            key = entry.key
            at = bisect_left(keys, key)
            new = at == len(keys) or keys[at] != key
            if new:
                keys.insert(at, key)
                lines.insert(at, "")
            line = lines[at] = format_memory_fact(entry)
            edits.append((at, new, line))
            fact = None if line.startswith(FEEDBACK_LINE) else parse_fact_line(line)
            # A key's namespace fixes its kind, so it always shows the same
            # entity; of two keys showing one entity, the later in key order wins.
            if fact and self._owners.get(fact[0], key) <= key:
                self._owners[fact[0]] = key
                if self._entities.get(fact[0]) is not fact[1]:
                    if self._entities is shared:
                        self._entities = dict(shared)
                    self._entities[fact[0]] = fact[1]
        self._last = snapshot
        return tuple(lines), self._entities

    def digest(self, system: str, task: str, rules: str, constraints: tuple[str, ...]) -> _Digest:
        """A thunk for the ``text_digest`` of the `request_text` of an input of these parts
        and the current lines."""
        self._queue.append((self._edits, constraints, _json_tail(rules, system, task)))
        self._edits = []
        return _Digest(self, len(self._digests) + len(self._queue) - 1)

    def _hash_next(self) -> None:
        """Apply the first queued input's edits; hash it from the mark if it serves, else
        from the start."""
        edits, constraints, tail = self._queue.popleft()
        encoded, changed = self._json, self._changed
        for at, new, line in edits:
            if new:
                encoded.insert(at, canonical_json(line))
            else:
                encoded[at] = canonical_json(line)
            changed = min(changed, at)
        mark = self._mark
        if constraints == self._constraints and mark <= changed:
            state, at = self._state, mark
        else:  # the head is encoded only when the constraints change
            state, at = hashlib.sha256(_json_head(constraints).encode()), 0
            self._constraints = constraints
        if changed < len(encoded):  # else no line changed: the mark stays
            mark = changed
        state.update(",".join([*encoded[at:mark], ""]).encode())  # each line with its comma
        self._changed, self._mark, self._state = len(encoded), mark, state.copy()
        state.update((",".join(encoded[mark:]) + tail).encode())
        self._digests.append(state.hexdigest()[:16])


class _Digest:
    """The digest of the ``n``-th input a `FactIndex` queued, hashed when first called. The
    index holds no thunk, so an episode's index is freed with its last unread digest."""

    __slots__ = ("index", "n")

    def __init__(self, index: FactIndex, n: int):
        self.index, self.n = index, n

    def __call__(self) -> str:
        digests = self.index._digests
        while len(digests) <= self.n:
            self.index._hash_next()
        return digests[self.n]

    def __reduce__(self) -> tuple:  # a copy holds the digest: no SHA-256 state copies
        return str, (self(),)


def assemble_input(
    task: str,
    snapshot: MemorySnapshot,
    constraints: list[str],
    ruleset: RuleSet,
    facts: FactIndex,
) -> CognitionInput:
    """Serialize the snapshot and constraints into the proposer's input.

    Facts come only from the given snapshot (latest version per key, ordered
    by key), through ``facts``, the episode's index; constraints are copied
    verbatim from the previous decision.
    """
    lines, entities = facts.current(snapshot)
    rules, constraints = ruleset.render_for_cognition(), tuple(constraints)
    return CognitionInput(
        system=DEFAULT_SYSTEM,
        task=task,
        rules=rules,
        facts=lines,
        constraints=constraints,
        entities=entities,
        input_digest=facts.digest(DEFAULT_SYSTEM, task, rules, constraints),
    )


# ------------------------------------------------------------------ proposal
@dataclass(frozen=True)
class Proposal:
    """At most one call; a null call signals completion."""

    call: ToolCall | None
    citations: tuple[EvidenceExpr, ...] = ()
    rationale: str = ""

    def to_response(self) -> dict[str, Any]:
        return {
            "call": self.call.to_dict() if self.call else None,
            "citations": [evidence.render(c) for c in self.citations],
            "rationale": self.rationale,
        }

    def describe(self) -> str:
        return "<completion>" if self.call is None else self.call.describe()


# ----------------------------------------------------------------- proposers
@dataclass
class ProposeMeta:
    """Side information about one propose call, kept beside the proposal."""

    fact_reads: list[tuple[str, Any]] = field(default_factory=list)
    fault_label: str | None = None


@dataclass(frozen=True)
class GatherTemplate:
    """How to turn a missing observation entity into a tool call."""

    tool: str
    arguments: dict[str, str]

    def build_call(self, entity: str) -> ToolCall:
        args = {
            k: (v.format(entity=entity) if isinstance(v, str) else v)
            for k, v in self.arguments.items()
        }
        return ToolCall(self.tool, args)


@dataclass(frozen=True)
class PlannerPolicy:
    """Scenario-supplied policy: the goal, the gather template, a goal citation."""

    goal: GoalSpec
    gather: GatherTemplate
    goal_citation: str | None = None  # goal.* key cited alongside branch conditions


class FactView:
    """Resolves dotted paths against the fields fact lines show, recording obs reads.

    Paths resolve as in ``MemorySnapshot.resolve``, through ``resolve_plan``
    and ``descend``, but over ``entities`` (`parse_entities` of the lines,
    never mutated); an ``obs.*`` key's line is named by its entity alone.
    """

    def __init__(self, entities: dict[str, dict[str, Any]]):
        self.entities = entities
        self.reads: dict[str, Any] = {}

    def resolve(self, path: str) -> Any:
        if path in self.reads:  # the lines are fixed, so a recorded read stays valid
            return self.reads[path]
        value = NOT_FOUND
        try:
            plan = resolve_plan(path)
        except MalformedKey:
            plan = ()
        for key, tail in plan:
            fields = self.entities.get(key.removeprefix("obs."))
            if fields is not None:
                value = descend(fields, tail)
                break
        if path.startswith("obs."):
            self.reads[path] = value
        return value

    def executed(self, tool_name: str) -> bool:
        record = self.entities.get(f"act.{tool_name}")
        return bool(record) and record.get("status") == "executed"


def plan_reads(goal: GoalSpec) -> tuple[str, ...]:
    """The entity names a plan for ``goal`` can look up in a `FactView`: ``goal.read_keys``
    with ``obs.`` stripped. They include the goal entities and ``act.<tool>`` per action
    (``executed``)."""
    return tuple(dict.fromkeys(key.removeprefix("obs.") for key in goal.read_keys))


# A memoized plan: its proposal, phase and fact reads, and the policy and fields it was made
# over, which the entry holds so that no id in its key is reused while it lives.
Plan = tuple[Proposal, str, tuple[tuple[str, Any], ...], PlannerPolicy, dict[str, dict[str, Any]]]

# (id of the policy, ids of its `plan_reads` fields objects) -> the plan, for every proposer;
# it holds at most PLAN_MEMO plans, and drops the oldest to take another.
PLAN_MEMO = 128
_PLANS: dict[tuple[int, ...], Plan] = {}


class ScriptedProposer:
    """Deterministic goal-spec planner; a pure function of the serialized input.

    Plans are memoized process-wide by the policy and the identities of the
    `plan_reads` fields objects: `parse_fact_line` gives each distinct line one
    fields object, so equal views of one policy share a plan across episodes.
    Given the very entity map it planned over last, which `FactIndex` hands out
    until an entity's fields change, the proposer answers with that plan; it
    holds the map, so no other map can have its identity.
    """

    def __init__(self, policy: PlannerPolicy):
        self.policy = policy
        self.last_meta = ProposeMeta()
        self._gather_calls: dict[str, ToolCall] = {}
        self._goal_ref = (MemoryRef(policy.goal_citation),) if policy.goal_citation else ()
        self._read_names = plan_reads(policy.goal)
        self._last: tuple[dict[str, dict[str, Any]], Plan] | None = None  # map, its plan

    def _gather_call(self, entity: str) -> ToolCall:
        """The gather call for ``entity``, built once per episode."""
        call = self._gather_calls.get(entity)
        if call is None:
            call = self._gather_calls[entity] = self.policy.gather.build_call(entity)
        return call

    def _plan(self, view: FactView) -> tuple[Proposal, str]:
        goal = self.policy.goal
        # 1. Gather required facts, one entity at a time, in spec order.
        for entity in goal.entities():
            values = [view.resolve(key) for key in goal.facts_for_entity(entity)]
            if any(v is NOT_FOUND for v in values):
                call = self._gather_call(entity)
                return Proposal(call, rationale=f"missing required facts for {entity}"), "gather"
        # 2. The first action the goal triggers that has not run yet, citing its
        # condition and the policy's goal.* key.
        triggered = goal.triggered(view)
        if triggered is evidence.UNKNOWN:
            raise PolicyGap("goal condition unknown with every required fact known")
        kind = "cancellation" if triggered and triggered[0] is goal.cancellation else "branch"
        for branch in triggered:
            for action in branch.actions:
                if not view.executed(action.name):
                    citations = branch.condition + self._goal_ref
                    return Proposal(action, citations, f"{kind} condition satisfied"), "act"
        rationale = "cancellation handled" if kind == "cancellation" else "all goal work complete"
        return Proposal(call=None, rationale=rationale), "complete"

    def _planned(self, entities: dict[str, dict[str, Any]]) -> Plan:
        """The plan for ``entities``, made over only the fields it can read."""
        last = self._last
        if last is not None and last[0] is entities:
            return last[1]
        # Built from a list, the key tuple has its size from the start; from an iterator
        # it would be made larger and shrunk, leaving one more tuple of its size in
        # CPython's free lists on every cycle.
        key = tuple([id(self.policy)] + [id(entities.get(name)) for name in self._read_names])
        plan = _PLANS.get(key)
        if plan is None:
            view = FactView({name: entities[name] for name in self._read_names if name in entities})
            proposal, phase = self._plan(view)  # a PolicyGap is raised, never stored
            if len(_PLANS) >= PLAN_MEMO:
                del _PLANS[next(iter(_PLANS))]  # the oldest
            plan = (proposal, phase, tuple(view.reads.items()), self.policy, view.entities)
            _PLANS[key] = plan
        self._last = (entities, plan)
        return plan

    def propose(self, cog_input: CognitionInput) -> Proposal:
        proposal, _, reads, _, _ = self._planned(cog_input.entities)
        self.last_meta = ProposeMeta(fact_reads=list(reads))
        return proposal


@dataclass(frozen=True)
class FaultConfig:
    """Per-cycle injection probabilities for each labeled fault type; checked when built."""

    seed: int = 0
    p_duplicate: float = 0.0
    p_missing_arg: float = 0.0
    p_uncited_claim: float = 0.0
    p_premature_action: float = 0.0
    p_false_citation: float = 0.0

    def __post_init__(self) -> None:
        if not is_int(self.seed):
            raise ConfigError(f"fault seed must be an integer, got {self.seed!r}")
        for fault_type in FAULT_TYPES:
            p = self.probability(fault_type)
            if not (is_number(p) and 0.0 <= p <= 1.0):
                raise ConfigError(f"p_{fault_type}: fault probability {p!r} outside [0, 1]")

    def probability(self, fault_type: str) -> float:
        return getattr(self, f"p_{fault_type}")

    def any_enabled(self) -> bool:
        return any(self.probability(t) > 0.0 for t in FAULT_TYPES)

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"seed": self.seed}
        for fault_type in FAULT_TYPES:
            p = self.probability(fault_type)
            if p:
                data[f"p_{fault_type}"] = p
        return data


class FaultyProposer(ScriptedProposer):
    """Scripted planner plus a seeded stream of labeled single-fault mutations.

    At most one fault is injected per cycle, and only into cycles where the
    plan proposes real work (a completion proposal is never mutated, so every
    label corresponds to a call that validation can reject).
    """

    def __init__(self, policy: PlannerPolicy, faults: FaultConfig, episode_seed: int = 0):
        super().__init__(policy)
        self.faults = faults
        self._rng = random.Random(f"faults:{faults.seed}:{episode_seed}")
        self._probabilities = tuple(faults.probability(t) for t in FAULT_TYPES)
        self._duplicates: dict[str, Proposal] = {}  # entity -> its duplicate, built once
        self._goal_entities = tuple(policy.goal.entities())

    def _duplicate(self, entity: str) -> Proposal:
        """The duplicate fault's re-proposal of the gather for ``entity``, built once."""
        proposal = self._duplicates.get(entity)
        if proposal is None:
            call, rationale = self._gather_call(entity), "re-checking a known fact"
            proposal = self._duplicates[entity] = Proposal(call, rationale=rationale)
        return proposal

    def propose(self, cog_input: CognitionInput) -> Proposal:
        entities = cog_input.entities
        base, phase, reads, _, _ = self._planned(entities)
        meta = ProposeMeta(fact_reads=list(reads))
        draws = [self._rng.random() for _ in FAULT_TYPES]
        if base.call is not None:
            for draw, p, fault_type in zip(draws, self._probabilities, FAULT_TYPES):
                if draw >= p:
                    continue
                mutated = self._mutate(fault_type, base, phase, entities)
                if mutated is not None:
                    meta.fault_label = fault_type
                    self.last_meta = meta
                    return mutated
        self.last_meta = meta
        return base

    def _mutate(
        self, fault_type: str, base: Proposal, phase: str, entities: dict[str, dict[str, Any]]
    ) -> Proposal | None:
        goal = self.policy.goal
        if fault_type == "duplicate":
            # Re-propose a gather that already succeeded: the first entity observed cleanly.
            for entity in self._goal_entities:
                fields = entities.get(entity)
                if fields and "error" not in fields:
                    return self._duplicate(entity)
            return None
        if fault_type == "missing_arg":
            if not base.call.arguments:
                return None
            return Proposal(call=ToolCall(base.call.name, {}), citations=base.citations,
                            rationale=base.rationale)
        if fault_type == "uncited_claim":
            if not base.citations:
                return None
            return Proposal(call=base.call, citations=(), rationale=base.rationale)
        if fault_type == "premature_action":
            if phase != "gather":
                return None
            for branch in goal.branches:
                if branch.actions:
                    return Proposal(
                        call=branch.actions[0],
                        citations=branch.condition,
                        rationale="skipping ahead to the branch action",
                    )
            return None
        if fault_type == "false_citation":
            citations = tuple(base.citations) + (MemoryRef(PHANTOM_KEY),)
            return Proposal(call=base.call, citations=citations, rationale=base.rationale)
        return None

