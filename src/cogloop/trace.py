"""Episode traces: serialized cycle records, justification chains, metrics.

A trace file is self-contained: a header line (config digest, seed, flags)
followed by one JSON line per cycle (lines end at "\n" alone), each carrying
the serialized proposal, decision, invocation, committed memory delta,
recorded fact consumptions, and the injected-fault label when one exists.
Everything below — chain reconstruction and all three metrics — works from
the parsed file alone, with no live episode state. Loading scans each line
once, checks each field of a record once for its JSON type, and decodes each
committed entry once, into the ``MemoryEntry`` a live record holds; chains
and SPA/TC read memory through one forward replay (``EpisodeTrace.replay``)
of those entries. TC runs a chain's link checks without building the chain,
and citation strings are parsed through ``evidence.parse``'s bounded cache.

Metrics:

* state persistence accuracy (SPA): of the fact reads whose key had an
  authoritative value committed in an earlier cycle, the fraction that saw
  exactly that value. A consumption is a planner fact read, a validation-time
  citation or condition resolution, or a tool argument bound from memory.
* trace completeness (TC): fraction of executed (ok) invocations whose
  justification chain is fully reconstructable: proposal, approval,
  invocation record, resulting memory entries, and citations that resolve
  truthfully against the pre-cycle snapshot.
* error localization precision (ELP): of the labeled injected faults that
  reached validation, the fraction whose rejection cites the rule mapped to
  that fault type. Faults proposed in the final termination cycle never reach
  validation and are excluded.

A metric with denominator zero is undefined (ratio None), never 1.0.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from . import evidence
from .evidence import Comparison
from .memory import NOT_FOUND, EntryKind, MemoryEntry, MemorySnapshot, StoreError, decode_value
from .runtime import same_args
from .util import canonical_json, deferred, is_int

TRACE_FORMAT = 1
# One C scan decodes a well-formed line; `json.loads` also skips whitespace and checks the end.
_scan_once = json.JSONDecoder().scan_once

# Fault label -> rule ids that a correct rejection must cite (any one suffices).
FAULT_RULE_MAP: dict[str, frozenset[str]] = {
    "duplicate": frozenset({"R-DEDUP"}),
    "missing_arg": frozenset({"R-ARGS"}),
    "uncited_claim": frozenset({"R-NUM-COMPARE"}),
    "false_citation": frozenset({"R-NUM-COMPARE"}),
    "premature_action": frozenset({"R-COND-PRIORITY", "R-COND-EXEC"}),
}


class ParseError(Exception):
    """Trace file is structurally invalid."""


class UnknownAction(Exception):
    """Requested action reference does not occur in the trace."""


@dataclass(frozen=True)
class TraceHeader:
    config_digest: str
    scenario: str
    seed: int
    baseline: bool
    proposer: str
    ruleset_version: str
    max_cycles: int
    format: int = TRACE_FORMAT

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "header",
            "format": self.format,
            "config_digest": self.config_digest,
            "scenario": self.scenario,
            "seed": self.seed,
            "baseline": self.baseline,
            "proposer": self.proposer,
            "ruleset_version": self.ruleset_version,
            "max_cycles": self.max_cycles,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TraceHeader":
        try:
            header = cls(
                config_digest=data["config_digest"],
                scenario=data["scenario"],
                seed=data["seed"],
                baseline=data["baseline"],
                proposer=data["proposer"],
                ruleset_version=data["ruleset_version"],
                max_cycles=data["max_cycles"],
                format=data.get("format", TRACE_FORMAT),
            )
        except KeyError as exc:
            raise ParseError(f"trace header missing field {exc}") from exc
        for name in ("seed", "max_cycles", "format"):
            if not is_int(getattr(header, name)):
                raise ParseError(f"trace header field {name!r} must be an integer")
        for name in ("config_digest", "scenario", "proposer", "ruleset_version"):
            if type(getattr(header, name)) is not str:
                raise ParseError(f"trace header field {name!r} must be a string")
        if type(header.baseline) is not bool:
            raise ParseError("trace header field 'baseline' must be a boolean")
        if header.format != TRACE_FORMAT:
            raise ParseError(
                f"trace header field 'format' is {header.format}; only {TRACE_FORMAT} is read"
            )
        return header


def _all_strings(items: list[Any]) -> bool:
    """Whether every item is a string; ``join`` checks that with no loop in Python."""
    try:
        "".join(items)
    except TypeError:
        return False
    return True


def _bad(cycle: int, problem: str) -> ParseError:
    return ParseError(f"cycle {cycle}: {problem}")


# What a check reads for an absent field: shared, so a check allocates nothing. Never
# mutated, so no record keeps one.
_NO_FIELDS: dict[str, Any] = {}
_NO_ITEMS: list[Any] = []
_OBJECT_OR_NULL = (dict, type(None))


@deferred("input_digest")
@dataclass
class CycleRecord:
    """Everything one cycle did: its committed entries and, as plain serializable data, the rest.

    ``cycle`` 0 is the initialization commit (static context facts); it has
    no proposal or decision. ``invocation`` is present exactly when the
    decision approved a call (or, for the unvalidated baseline, whenever a
    call executed). ``memory_delta`` holds the entries the cycle's commit
    created; they take their dict form only in ``to_dict`` and ``from_dict``.
    ``input_digest`` is a `Deferred` field: a live governed record holds its
    input's digest thunk, hashed on the first read (``to_dict`` reads it).
    """

    cycle: int
    input_digest: str = ""
    proposal: dict[str, Any] | None = None
    decision: dict[str, Any] | None = None
    invocation: dict[str, Any] | None = None
    memory_delta: tuple[MemoryEntry, ...] = ()
    consumptions: list[list[Any]] = field(default_factory=list)
    fault_label: str | None = None
    log_lines: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "cycle",
            "cycle": self.cycle,
            "input_digest": self.input_digest,
            "proposal": self.proposal,
            "decision": self.decision,
            "invocation": self.invocation,
            "memory_delta": [entry.to_dict() for entry in self.memory_delta],
            "consumptions": self.consumptions,
            "fault_label": self.fault_label,
            "log_lines": self.log_lines,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CycleRecord":
        """The record ``to_dict`` wrote as ``data``, each delta entry decoded once.

        Checks each field's JSON type once, in one walk, reading an absent field
        as a shared empty default; the first field that chains, metrics or
        ``dumps`` cannot read raises a ``ParseError`` naming it.
        """
        get = data.get
        cycle = get("cycle")
        if not is_int(cycle):
            raise ParseError(f"cycle number must be an integer, got {cycle!r}")
        for name in ("proposal", "decision", "invocation"):
            if type(get(name)) not in _OBJECT_OR_NULL:
                raise _bad(cycle, f"{name} must be an object or null")
        for name in ("proposal", "decision"):
            call = (get(name) or _NO_FIELDS).get("call")
            if type(call) is dict and type(call.get("arguments", _NO_FIELDS)) is not dict:
                raise _bad(cycle, f"{name}.call.arguments must be an object")
        if type((get("proposal") or _NO_FIELDS).get("citations", _NO_ITEMS)) is not list:
            raise _bad(cycle, "proposal.citations must be a list")
        rule_ids = (get("decision") or _NO_FIELDS).get("rule_ids", _NO_ITEMS)
        if type(rule_ids) is not list or not _all_strings(rule_ids):
            raise _bad(cycle, "decision.rule_ids must be a list of strings")
        invocation = get("invocation") or _NO_FIELDS
        for name in ("outcome", "args"):
            if type(invocation.get(name, _NO_FIELDS)) is not dict:
                raise _bad(cycle, f"invocation.{name} must be an object")
        outcome = invocation.get("outcome", _NO_FIELDS)
        ok = outcome.get("ok", False)
        if type(ok) is not bool:
            raise _bad(cycle, "invocation.outcome.ok must be a boolean")
        if ok and type(outcome.get("payload")) is not dict:
            raise _bad(cycle, "invocation.outcome.payload must be an object when ok is true")
        fault_label = get("fault_label")
        if fault_label is not None and type(fault_label) is not str:
            raise _bad(cycle, "fault_label must be a string or null")
        input_digest = get("input_digest", "")
        if type(input_digest) is not str:
            raise _bad(cycle, "input_digest must be a string")
        log_lines = get("log_lines", _NO_ITEMS)
        if type(log_lines) is not list or not _all_strings(log_lines):
            raise _bad(cycle, "log_lines must be a list of strings")
        for name in ("memory_delta", "consumptions"):
            if type(get(name, _NO_ITEMS)) is not list:
                raise _bad(cycle, f"{name} must be a list")
        consumptions = get("consumptions", _NO_ITEMS)
        for index, item in enumerate(consumptions):
            if not (type(item) is list and len(item) == 2 and type(item[0]) is str):
                raise _bad(cycle, f"consumptions[{index}] is not a [key, value] pair")
        delta = []
        for index, entry in enumerate(get("memory_delta", _NO_ITEMS)):
            try:
                delta.append(MemoryEntry.from_dict(entry))
            except StoreError as exc:
                raise _bad(cycle, f"memory_delta[{index}] {exc}") from None
        return cls(cycle, input_digest, get("proposal"), get("decision"), get("invocation"),
                   tuple(delta), consumptions or [], fault_label, log_lines or [])

    def approved(self) -> bool:
        return bool(self.decision) and self.decision.get("verdict") == "approved"

    def executed_ok(self) -> bool:
        return bool(self.invocation) and bool(self.invocation.get("outcome", {}).get("ok"))


@dataclass
class EpisodeTrace:
    header: TraceHeader
    cycles: list[CycleRecord]

    # ---------------------------------------------------------- serialization
    def dumps(self) -> str:
        lines = [canonical_json(self.header.to_dict())]
        lines.extend(canonical_json(record.to_dict()) for record in self.cycles)
        return "\n".join(lines) + "\n"

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(self.dumps(), encoding="utf-8")

    @classmethod
    def loads(cls, text: str) -> "EpisodeTrace":
        header: TraceHeader | None = None
        cycles: list[CycleRecord] = []
        # A JSON line ends at "\n" alone; `splitlines` would also split at
        # U+0085, U+2028 and U+2029, which may stand raw inside a JSON string.
        for line_no, line in enumerate(text.split("\n"), start=1):
            line = line.strip(" \t\r")  # JSON's whitespace; "\n" ended the line
            if not line:
                continue
            try:
                data, end = _scan_once(line, 0)
            except (json.JSONDecodeError, StopIteration, RecursionError):
                end = -1
            if end != len(line):  # no value, or more after it: the decoder's own words
                try:
                    data = json.loads(line)
                except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
                    raise ParseError(f"line {line_no}: not valid JSON ({exc})") from exc
            if not isinstance(data, dict):
                raise ParseError(f"line {line_no}: not a JSON object")
            kind = data.get("type")
            try:
                if kind == "header":
                    if header is not None:
                        raise ParseError("a second header; the header is the first line only")
                    header = TraceHeader.from_dict(data)
                elif kind == "cycle":
                    if header is None:
                        raise ParseError("cycle record with no header line before it")
                    record = CycleRecord.from_dict(data)
                    # Replay reads the records in file order, and the loop records
                    # every cycle of its budget it runs, each once, in order.
                    if cycles and record.cycle != cycles[-1].cycle + 1:
                        raise ParseError(
                            f"cycle {record.cycle} does not follow cycle {cycles[-1].cycle}"
                        )
                    if record.cycle > header.max_cycles:
                        raise ParseError(f"cycle {record.cycle} is past the header's "
                                         f"max_cycles {header.max_cycles}")
                    cycles.append(record)
                else:
                    raise ParseError(f"unknown record type {kind!r}")
            except ParseError as exc:
                raise ParseError(f"line {line_no}: {exc}") from exc
        if header is None:
            raise ParseError("trace has no header line")
        # After the loop, so that a cycle out of order is reported as that first.
        if not cycles or cycles[0].cycle != 0:
            raise ParseError("trace does not start with cycle 0")
        last = cycles[-1]  # the loop ends an episode on a terminate decision or its budget
        if last.cycle != header.max_cycles and (last.decision or {}).get("verdict") != "terminate":
            raise _bad(last.cycle, "ends the trace but neither terminates the episode nor is "
                       f"its last cycle (max_cycles {header.max_cycles}); cycles are missing")
        versions: dict[str, int] = {}  # replay is a store's only if these count up from 1
        for record in cycles:
            for index, entry in enumerate(record.memory_delta):
                last = versions.get(entry.key, 0)
                if entry.version != last + 1:
                    raise _bad(record.cycle, f"memory_delta[{index}] {entry.key} has version "
                               f"{entry.version}; its last version is {last}")
                versions[entry.key] = entry.version
        return cls(header=header, cycles=cycles)

    @classmethod
    def load(cls, path: str | Path) -> "EpisodeTrace":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not valid UTF-8 ({exc})") from exc
        return cls.loads(text)

    # -------------------------------------------------------------- replaying
    def replay(self) -> Iterator[tuple[CycleRecord, MemorySnapshot]]:
        """Each record with the memory it read: the commits of every earlier record.

        One forward pass over the entries each record holds; records are
        taken in list order, which `loads` guarantees is cycle order.
        """
        snapshot = MemorySnapshot(())
        for record in self.cycles:
            yield record, snapshot
            snapshot = snapshot.extend(record.memory_delta)

    def snapshot_before(self, cycle: int) -> MemorySnapshot:
        """Authoritative memory state a given cycle read: all earlier commits."""
        snapshot = MemorySnapshot(())
        for record in self.cycles:
            if record.cycle >= cycle:
                break
            snapshot = snapshot.extend(record.memory_delta)
        return snapshot


# ------------------------------------------------------------------- chains
@dataclass
class JustificationChain:
    """Reconstructed evidence path for one executed action."""

    action_ref: str
    cycle: int
    call: dict[str, Any]
    citations: list[str]
    resolved: list[list[Any]]  # [key, value] pairs at the pre-cycle snapshot
    invocation: dict[str, Any]
    entries: list[MemoryEntry]
    complete: bool = True


@dataclass
class GapReport:
    """A chain link that could not be reconstructed from the trace."""

    action_ref: str
    cycle: int
    missing_link: str
    detail: str


class _Resolved(dict):
    """Citation values already read from the snapshot, by key, for `evidence.evaluate`."""

    resolve = dict.__getitem__


def _chain_links(
    snapshot: MemorySnapshot, record: CycleRecord
) -> tuple[tuple[str, str] | None, list[MemoryEntry], list[list[Any]]]:
    """Check each link behind ``record``'s invocation against ``snapshot``, the memory it read.

    Returns (gap, entries, resolved): ``gap`` is the first missing link as
    (link, detail), or None when the chain is complete; ``entries`` are the
    invocation's own memory entries and ``resolved`` the cited keys with their
    values, both empty when there is a gap. Each link is read once.
    """
    invocation = record.invocation
    if not invocation or not invocation.get("outcome", _NO_FIELDS).get("ok"):
        return ("invocation", "no successful invocation record"), [], []
    tool = invocation.get("tool", "")
    args = invocation.get("args", _NO_FIELDS)

    proposal = record.proposal
    call = proposal.get("call") if proposal else None
    if not (isinstance(call, dict) and call.get("name") == tool
            and same_args(call.get("arguments", _NO_FIELDS), args)):
        return ("proposal", "no proposal matching the invocation"), [], []

    decision = record.decision
    if not decision or decision.get("verdict") != "approved":
        return ("decision", "no approval decision"), [], []
    call = decision.get("call")
    if not (isinstance(call, dict) and call.get("name") == tool
            and same_args(call.get("arguments", _NO_FIELDS), args)):
        return ("decision", "approval names a different call"), [], []

    own_entries = [
        e
        for e in record.memory_delta
        if e.source == tool or (e.kind is EntryKind.ACTION and e.payload.get("name") == tool)
    ]
    if not own_entries and not invocation.get("idempotency_hit"):
        return ("memory_entries", "execution left no memory entries"), [], []

    resolved: list[list[Any]] = []
    for raw in proposal.get("citations") or ():
        try:
            expr = evidence.parse(raw)
        except evidence.EvidenceParseError as exc:
            return ("citation", f"unparseable citation: {exc}"), [], []
        values = _Resolved()
        for key in evidence.referenced_keys(expr):
            value = values[key] = snapshot.resolve(key)
            if value is NOT_FOUND:
                return ("citation", f"cited key {key} does not resolve"), [], []
            resolved.append([key, value])
        if isinstance(expr, Comparison) and evidence.evaluate(expr, values) is not True:
            return ("citation", f"citation {raw} not supported by memory"), [], []
    return None, own_entries, resolved


def _chain_for_record(
    snapshot: MemorySnapshot, record: CycleRecord, action_ref: str
) -> JustificationChain | GapReport:
    """The chain behind ``record``'s invocation; ``snapshot`` is the memory it read."""
    gap, entries, resolved = _chain_links(snapshot, record)
    if gap:
        return GapReport(action_ref, record.cycle, *gap)
    invocation = record.invocation
    return JustificationChain(
        action_ref=action_ref,
        cycle=record.cycle,
        call={"name": invocation.get("tool", ""), "arguments": invocation.get("args", {})},
        citations=list(record.proposal.get("citations", [])),
        resolved=resolved,
        invocation=invocation,
        entries=entries,
    )


def reconstruct_chain(trace: EpisodeTrace, action_ref: str) -> JustificationChain | GapReport:
    """Chain for an action record reference: ``act.<tool>`` or ``act.<tool>@<version>``."""
    key, _, raw_version = action_ref.partition("@")
    try:
        version = int(raw_version) if raw_version else None
    except ValueError:
        raise UnknownAction(
            f"no executed action record matches {action_ref!r}: "
            f"version {raw_version!r} is not a number"
        ) from None
    for record, snapshot in trace.replay():
        for entry in record.memory_delta:
            if entry.key != key or entry.kind is not EntryKind.ACTION:
                continue
            if entry.payload.get("status") != "executed":
                continue
            if version is not None and entry.version != version:
                continue
            return _chain_for_record(snapshot, record, action_ref)
    raise UnknownAction(f"no executed action record matches {action_ref!r}")


def iter_chains(trace: EpisodeTrace) -> Iterator[JustificationChain | GapReport]:
    """One chain (or gap) per executed invocation, plus structural gap checks."""
    for record, snapshot in trace.replay():
        if record.cycle == 0:
            continue
        if record.approved() and record.invocation is None:
            yield GapReport(
                f"cycle{record.cycle}", record.cycle, "invocation", "approved call never logged"
            )
            continue
        if record.executed_ok():
            ref = f"cycle{record.cycle}:{record.invocation.get('tool', '?')}"
            yield _chain_for_record(snapshot, record, ref)


# ------------------------------------------------------------------- metrics
@dataclass(frozen=True)
class Metric:
    name: str
    numerator: int
    denominator: int

    @property
    def ratio(self) -> float | None:
        if self.denominator == 0:
            return None
        return self.numerator / self.denominator

    def to_dict(self) -> dict[str, Any]:
        return {
            "numerator": self.numerator,
            "denominator": self.denominator,
            "ratio": self.ratio,
        }


def _spa_and_tc(trace: EpisodeTrace) -> tuple[Metric, Metric]:
    """SPA and TC from one replay of the trace."""
    spa_num = spa_den = tc_num = tc_den = 0
    for record, snapshot in trace.replay():
        if record.cycle == 0:
            continue
        # SPA: fact reads whose key held a value committed before this cycle.
        resolve = snapshot.resolve
        for key, raw_value in record.consumptions:
            authoritative = resolve(key)
            if authoritative is NOT_FOUND:
                continue  # nothing persisted earlier to be faithful to
            spa_den += 1
            if decode_value(raw_value) == authoritative:
                spa_num += 1
        # TC: executed invocations whose justification chain is complete.
        if record.executed_ok():
            tc_den += 1
            if _chain_links(snapshot, record)[0] is None:
                tc_num += 1
    return Metric("spa", spa_num, spa_den), Metric("tc", tc_num, tc_den)


def compute_elp(trace: EpisodeTrace) -> Metric:
    """Error localization precision over validated injected faults."""
    numerator = denominator = 0
    for record in trace.cycles:
        if record.fault_label is None:
            continue
        decision = record.decision or {}
        if decision.get("verdict") == "terminate":
            continue  # the loop exited before this proposal reached the checks
        denominator += 1
        expected = FAULT_RULE_MAP.get(record.fault_label, frozenset())
        cited = set(decision.get("rule_ids", []))
        if decision.get("verdict") == "rejected" and cited & expected:
            numerator += 1
    return Metric("elp", numerator, denominator)


def compute_metrics(trace: EpisodeTrace) -> dict[str, Metric]:
    """All metrics computable for this trace; ELP only for fault-injected runs."""
    spa, tc = _spa_and_tc(trace)
    metrics = {"spa": spa, "tc": tc}
    if trace.header.proposer == "faulty":
        metrics["elp"] = compute_elp(trace)
    return metrics


def aggregate_metrics(per_episode: list[dict[str, Metric]]) -> dict[str, Metric]:
    """Micro-average: sum numerators and denominators across episodes."""
    totals: dict[str, list[int]] = {}
    for metrics in per_episode:
        for name, metric in metrics.items():
            bucket = totals.setdefault(name, [0, 0])
            bucket[0] += metric.numerator
            bucket[1] += metric.denominator
    return {name: Metric(name, num, den) for name, (num, den) in sorted(totals.items())}
