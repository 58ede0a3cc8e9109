"""Monolithic comparison system: same policy, bounded context, no validation.

The baseline is the second ``System`` the cycle driver (``loop.drive_episode``)
runs. It keeps working knowledge in a bounded context window: a FIFO of leaf
facts with at most ``budget`` slots, where each retained fact is recalled
each cycle only with probability max(0, 1 - decay * age). The same scripted
policy reads through that decayed window. There is no validator: whatever the
policy proposes executes immediately, decision markers in the trace are
synthetic auto-approvals, and injected faults reach the runtime.

An authoritative store still records every committed observation and action
so that traces stay replayable and the persistence metric can compare what
the policy saw against what was actually established. With ``budget`` at
least the total fact count and ``decay`` zero, the window never loses
anything and the run matches the governed system's outcomes exactly.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Any

from .cognition import (
    DEFAULT_SYSTEM, CognitionInput, Proposal, format_memory_fact, parse_entities, request_text,
    shown_fields,
)
from .control import ControlDecision, Verdict, check_termination
from .loop import (
    ConfigError, CycleState, EpisodeConfig, EpisodeResult, System, drive_episode, make_proposer
)
from .memory import EntryKind, MemoryEntry, MemorySnapshot
from .regulation import DEFAULT_RULESET
from .runtime import StagedWrite, ToolResult, staged_writes
from .util import canonical_json, is_int, is_number, text_digest

INPUT_MEMO = 128  # bound of the process-wide memo of baseline inputs


@lru_cache(maxsize=INPUT_MEMO)
def _derived(task: str, facts: tuple[str, ...]) -> CognitionInput:
    """The baseline input of ``task`` and ``facts``, with its digest and entity map, shared
    by every cycle that shows them and never mutated; every other part of a baseline input
    is fixed: the default system text and rules, no constraints."""
    rules = DEFAULT_RULESET.render_for_cognition()
    digest = text_digest(request_text(DEFAULT_SYSTEM, task, rules, map(canonical_json, facts), ()))
    return CognitionInput(DEFAULT_SYSTEM, task, rules, facts, (), parse_entities(facts), digest)


def check_context(budget: Any, decay: Any) -> None:
    """Raise a ``ConfigError`` naming the field for a budget or decay the window cannot use."""
    if not is_int(budget):
        raise ConfigError(f"baseline.budget: context budget must be an integer, got {budget!r}")
    if budget < 1:
        raise ConfigError(f"baseline.budget: context budget must be positive, got {budget}")
    if not (is_number(decay, finite=True) and decay >= 0):
        raise ConfigError(
            f"baseline.decay: context decay must be finite and non-negative, got {decay!r}"
        )


@dataclass(frozen=True, eq=False, slots=True)
class Leaf:
    """One field an entry's fact line shows, in a window slot of its own, ``name``; compared
    by identity, since ``1``, ``1.0`` and ``True`` are equal values that show differently."""

    name: str  # "<key>.<field>"
    value: Any
    kind: EntryKind
    key: str
    field: str


def leaf_records(writes: list[StagedWrite]) -> tuple[Leaf, ...]:
    """The window leaves of ``writes``: of each, the fields its fact line shows, by name."""
    return tuple(
        Leaf(f"{w.key}.{name}", value, w.kind, w.key, name)
        for w in writes for name, value in sorted(shown_fields(w.key, w.kind, w.payload).items())
    )


class ContextModel:
    """Bounded, decaying recall over leaf facts.

    Leaves enter the window when a tool returns; re-inserting a leaf name
    refreshes both its value and its slot age. When the window exceeds its
    budget the oldest-inserted leaf is evicted. Static context facts (the
    episode's initial entries) are exempt from both the budget and decay.
    """

    def __init__(self, budget: int, decay: float, seed: int, static: dict[str, dict[str, Any]]):
        check_context(budget, decay)
        self.budget = budget
        self.decay = float(decay)  # an integer decay times an age may pass float range
        self._rng = random.Random(f"context:{seed}")
        entries = [MemoryEntry(k, EntryKind.OBSERVATION, dict(p), "context", "", 0)
                   for k, p in static.items()]
        self._static = {entry.key: (entry, format_memory_fact(entry)) for entry in entries}
        self._facts: dict[str, tuple[Leaf, int]] = {}  # leaf name -> (leaf, inserted cycle)
        # One entry's recalled leaves, in window order -> the entry they make, numbered by
        # its version among this window's entries, and its fact line.
        self._shown: dict[tuple[Leaf, ...], tuple[MemoryEntry, str]] = {}

    def insert(self, leaves: tuple[Leaf, ...], cycle: int) -> None:
        facts = self._facts
        for leaf in leaves:
            facts.pop(leaf.name, None)  # refresh slot position
            facts[leaf.name] = (leaf, cycle)
            if len(facts) > self.budget:
                del facts[next(iter(facts))]

    def retained(self) -> int:
        return len(self._facts)

    def visible_entries(self, cycle: int) -> list[tuple[MemoryEntry, str]]:
        """One recall draw per retained leaf; each visible entry and its fact line, in key order.

        The same recalled leaf objects, in the same window order, give the same
        entry and line, each made once.
        """
        grouped: dict[str, list[Leaf]] = {}
        draw, decay = self._rng.random, self.decay
        for leaf, inserted in self._facts.values():
            recall = max(0.0, 1.0 - decay * (cycle - inserted))
            if draw() < recall:
                grouped.setdefault(leaf.key, []).append(leaf)
        # Static facts are observations; a recalled entry replaces one under the same key.
        visible, memo = dict(self._static), self._shown
        for key, recalled in grouped.items():
            leaves = tuple(recalled)
            shown = memo.get(leaves)
            if shown is None:
                fields = {leaf.field: leaf.value for leaf in leaves}
                entry = MemoryEntry(key, leaves[0].kind, fields, "context", "", len(memo) + 1)
                shown = memo[leaves] = (entry, format_memory_fact(entry))
            visible[key] = shown
        return [visible[key] for key in sorted(visible)]


class Baseline(System):
    """The ``ContextModel`` window in; every call approved until a termination check fires."""

    baseline = True
    cognition_label = "[Baseline]"
    memory_label = "[Baseline]"

    def __init__(self, config: EpisodeConfig, budget: int, decay: float):
        super().__init__(config)
        self.context = ContextModel(budget, decay, config.seed, config.scenario.context)
        # call id -> the window leaves of its first successful result, derived once
        self.leaves: dict[str, tuple[Leaf, ...]] = {}

    def cognition_input(
        self, snapshot: MemorySnapshot, constraints: list[str], cycle: int
    ) -> CognitionInput:
        facts = tuple([line for _, line in self.context.visible_entries(cycle)])
        return _derived(self.config.scenario.task, facts)

    def decide(
        self, proposal: Proposal, snapshot: MemorySnapshot, cycle: int, max_cycles: int
    ) -> ControlDecision:
        reason = check_termination(
            proposal.call is None, snapshot, self.goal_watch, cycle, max_cycles
        )
        if reason is not None:
            line = f"[Baseline] Termination: {reason.value}"
            return ControlDecision(Verdict.TERMINATE, reason=reason, log_lines=(line,))
        line = "[Baseline] auto-approved (no validation layer)"
        return ControlDecision(Verdict.APPROVED, call=proposal.call, log_lines=(line,))

    def record(self, decision: ControlDecision) -> dict[str, Any]:
        return {
            "verdict": decision.verdict.value,
            "call": decision.call.canonical_dict() if decision.call else None,
            "rule_ids": [],
            "reason": decision.reason.value if decision.reason else None,
            "synthetic": True,
        }

    def after_execution(
        self, state: CycleState, decision: ControlDecision, result: ToolResult
    ) -> None:
        context = self.context
        if result.ok:
            # Not taken from `execute`, which stages nothing on an idempotency hit: the
            # window still refreshes then. The runtime answers every re-run of a call id
            # with its first successful payload, so its leaves are derived once.
            call, payload = decision.call, result.payload
            made = self.leaves.get(call.call_id())
            if made is None:
                writes = staged_writes(self.registry[call.name], call.canonical_args, payload)
                made = self.leaves[call.call_id()] = leaf_records(writes)
            context.insert(made, state.index)
        state.log_lines.append(
            f"[Baseline] context holds {context.retained()}/{context.budget} facts"
        )


def run_baseline_episode(
    config: EpisodeConfig, budget: int, decay: float
) -> EpisodeResult:
    """Run one unvalidated bounded-context episode and return its full record."""
    return drive_episode(Baseline(config, budget, decay), make_proposer(config))
