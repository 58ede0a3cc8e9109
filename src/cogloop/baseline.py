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
from functools import lru_cache
from typing import Any

from .cognition import (
    DEFAULT_SYSTEM, CognitionInput, Proposal, format_memory_fact, parse_entities, shown_fields
)
from .control import ControlDecision, Verdict, check_termination
from .loop import (
    ConfigError, CycleState, EpisodeConfig, EpisodeResult, System, drive_episode, make_proposer
)
from .memory import EntryKind, MemoryEntry, MemorySnapshot
from .regulation import DEFAULT_RULESET
from .runtime import ToolResult, staged_writes
from .util import is_int, is_number

INPUT_MEMO = 128  # bound of the process-wide memo of baseline inputs


@lru_cache(maxsize=INPUT_MEMO)
def _derived(task: str, facts: tuple[str, ...]) -> tuple[str, dict[str, dict[str, Any]]]:
    """The digest and entity map of the baseline input of ``task`` and ``facts``, shared by
    every such input and never mutated; every other part of a baseline input is fixed: the
    default system text and rules, no constraints."""
    rules = DEFAULT_RULESET.render_for_cognition()
    return CognitionInput(DEFAULT_SYSTEM, task, rules, facts, ()).digest(), parse_entities(facts)


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


class ContextModel:
    """Bounded, decaying recall over leaf facts.

    Facts enter the window when a tool returns; re-inserting an existing key
    refreshes both its value and its slot age. When the window exceeds its
    budget the oldest-inserted fact is evicted. Static context facts (the
    episode's initial entries) are exempt from both the budget and decay.
    """

    def __init__(self, budget: int, decay: float, seed: int, static: dict[str, dict[str, Any]]):
        check_context(budget, decay)
        self.budget = budget
        self.decay = float(decay)  # an integer decay times an age may pass float range
        self._rng = random.Random(f"context:{seed}")
        self._static = {k: MemoryEntry(k, EntryKind.OBSERVATION, dict(p), "context", "", 0)
                        for k, p in static.items()}
        # leaf key -> (value, inserted cycle, kind of the entry it came from, insert serial)
        self._facts: dict[str, tuple[Any, int, EntryKind, int]] = {}
        self._inserts = 0
        # Serials of one entry's recalled leaves -> the entry they make, numbered
        # by its version among this window's entries.
        self._entries: dict[tuple[int, ...], MemoryEntry] = {}

    def insert(self, entry_key: str, kind: EntryKind, payload: dict[str, Any], cycle: int) -> None:
        shown = shown_fields(entry_key, kind, payload)
        for field_name in sorted(shown):
            value = shown[field_name]
            leaf = f"{entry_key}.{field_name}"
            if leaf in self._facts:
                del self._facts[leaf]  # refresh slot position
            self._inserts += 1
            self._facts[leaf] = (value, cycle, kind, self._inserts)
            while len(self._facts) > self.budget:
                evicted = next(iter(self._facts))
                del self._facts[evicted]

    def retained(self) -> int:
        return len(self._facts)

    def visible_entries(self, cycle: int) -> list[MemoryEntry]:
        """One recall draw per retained fact; assemble visible facts as entries.

        The same recalled leaf inserts give the same entry, and its own version.
        """
        grouped: dict[str, list[tuple[str, tuple]]] = {}
        for leaf, fact in self._facts.items():
            recall = max(0.0, 1.0 - self.decay * (cycle - fact[1]))
            if self._rng.random() < recall:
                grouped.setdefault(leaf.rpartition(".")[0], []).append((leaf, fact))
        # Static facts are observations; a recalled entry replaces one under the same key.
        entries = dict(self._static)
        for key, recalled in grouped.items():
            serials = tuple(fact[3] for _, fact in recalled)
            entry = self._entries.get(serials)
            if entry is None:
                fields = {leaf.rpartition(".")[2]: fact[0] for leaf, fact in recalled}
                version = len(self._entries) + 1
                entry = MemoryEntry(key, recalled[0][1][2], fields, "context", "", version)
                self._entries[serials] = entry
            entries[key] = entry
        return [entries[key] for key in sorted(entries)]


class Baseline(System):
    """The ``ContextModel`` window in; every call approved until a termination check fires."""

    baseline = True
    cognition_label = "[Baseline]"
    memory_label = "[Baseline]"

    def __init__(self, config: EpisodeConfig, budget: int, decay: float):
        super().__init__(config)
        self.context = ContextModel(budget, decay, config.seed, config.scenario.context)
        # (key, version) of a window entry -> its fact line, rendered once per episode
        self.fact_lines: dict[tuple[str, int], str] = {}

    def cognition_input(
        self, snapshot: MemorySnapshot, constraints: list[str], cycle: int
    ) -> CognitionInput:
        lines, facts = self.fact_lines, []
        for entry in self.context.visible_entries(cycle):
            line = lines.get((entry.key, entry.version))
            if line is None:
                line = lines[entry.key, entry.version] = format_memory_fact(entry)
            facts.append(line)
        task, facts = self.config.scenario.task, tuple(facts)
        digest, entities = _derived(task, facts)
        return CognitionInput(
            system=DEFAULT_SYSTEM,
            task=task,
            rules=DEFAULT_RULESET.render_for_cognition(),
            facts=facts,
            constraints=(),
            entities=entities,
            input_digest=digest,
        )

    def decide(
        self, proposal: Proposal, snapshot: MemorySnapshot, cycle: int, max_cycles: int
    ) -> ControlDecision:
        reason = check_termination(
            proposal.call is None, snapshot, self.goal_watch, cycle, max_cycles
        )
        if reason is not None:
            return ControlDecision(
                verdict=Verdict.TERMINATE,
                reason=reason,
                log_lines=(f"[Baseline] Termination: {reason.value}",),
            )
        return ControlDecision(
            verdict=Verdict.APPROVED,
            call=proposal.call,
            log_lines=("[Baseline] auto-approved (no validation layer)",),
        )

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
            # Recomputed rather than taken from `execute`, which stages nothing
            # on an idempotency hit: the window still refreshes then.
            call = decision.call
            spec = self.registry[call.name]
            for write in staged_writes(spec, call.canonical_args, result.payload):
                context.insert(write.key, write.kind, write.payload, state.index)
        state.log_lines.append(
            f"[Baseline] context holds {context.retained()}/{context.budget} facts"
        )


def run_baseline_episode(
    config: EpisodeConfig, budget: int, decay: float
) -> EpisodeResult:
    """Run one unvalidated bounded-context episode and return its full record."""
    return drive_episode(Baseline(config, budget, decay), make_proposer(config))
