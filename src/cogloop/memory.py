"""Append-only, versioned key-value memory with per-cycle atomic commits.

The store is the single source of truth for everything an episode learns:
observations, proposals, action records, termination flags, and validation
feedback. Entries are never mutated or deleted; every write appends a new
version of its key. Writes accumulate in a staging buffer and become visible
only when ``commit_cycle`` seals them, so a reader always sees the snapshot
produced by the previous cycle, never a half-written one.

Keys are dotted paths whose first segment declares the namespace
(``obs.Seoul``, ``act.book_flight``, ``status.terminated`` ...) and each
namespace accepts exactly one entry kind. ``resolve`` descends from an entry's
payload into leaf fields, so ``obs.Seoul.temp_f`` reads the ``temp_f`` field
of the latest ``obs.Seoul`` observation.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable

from .util import SimulatedClock, iso_millis

logger = logging.getLogger(__name__)


class StoreError(Exception):
    """Base class for memory store violations."""


class MalformedKey(StoreError):
    """Key does not follow the dotted-path grammar."""


class SchemaMismatch(StoreError):
    """Payload fields are inconsistent with the declared entry kind."""


class UnknownKey(StoreError):
    """Status update addressed a key with no committed entry."""


class IllegalTransition(StoreError):
    """Status update attempted a transition the lifecycle forbids."""


class EntryKind(str, Enum):
    OBSERVATION = "observation"
    PROPOSAL = "proposal"
    ACTION = "action"
    TERMINATION_FLAG = "termination_flag"
    CONTROL_FEEDBACK = "control_feedback"


# Namespace prefix -> entry kinds allowed beneath it. `goal.*` holds the
# task-context facts staged at initialization, which read like observations.
ALLOWED_KINDS: dict[str, set[EntryKind]] = {
    "obs": {EntryKind.OBSERVATION},
    "goal": {EntryKind.OBSERVATION},
    "prop": {EntryKind.PROPOSAL},
    "act": {EntryKind.ACTION},
    "status": {EntryKind.TERMINATION_FLAG},
    "feedback": {EntryKind.CONTROL_FEEDBACK},
}

# Read-time aliases for leaf fields, accepted by `resolve` descent.
FIELD_ALIASES = {"temp": "temp_f"}

# The runtime writes an action record only once its call has run, so
# "executed" is the one status a record can hold.
ACTION_STATUSES = ("executed",)


class _NotFound:
    """Singleton marker distinguishing 'key absent' from any stored value."""

    _instance: "_NotFound | None" = None

    def __new__(cls) -> "_NotFound":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<not found>"

    def __bool__(self) -> bool:
        return False


NOT_FOUND = _NotFound()


def encode_value(value: Any) -> Any:
    """JSON-safe form of a resolved value; NOT_FOUND becomes an explicit marker."""
    return {"__missing__": True} if value is NOT_FOUND else value


def decode_value(value: Any) -> Any:
    if isinstance(value, dict) and value.get("__missing__") is True:
        return NOT_FOUND
    return value


@dataclass(frozen=True)
class MemoryKey:
    """Validated dotted key; first segment selects the namespace."""

    segments: tuple[str, ...]

    @classmethod
    def parse(cls, raw: "str | MemoryKey") -> "MemoryKey":
        if isinstance(raw, MemoryKey):
            return raw
        if not isinstance(raw, str) or not raw:
            raise MalformedKey(f"key must be a non-empty string, got {raw!r}")
        segments = raw.split(".")
        for seg in segments:
            if not seg or seg != seg.strip() or any(ch.isspace() for ch in seg):
                raise MalformedKey(f"empty or whitespace segment in key {raw!r}")
        if segments[0] not in ALLOWED_KINDS:
            raise MalformedKey(
                f"unknown namespace {segments[0]!r} in key {raw!r}; "
                f"expected one of {sorted(ALLOWED_KINDS)}"
            )
        if len(segments) < 2:
            raise MalformedKey(f"key {raw!r} names a bare namespace; add a subject segment")
        return cls(tuple(segments))

    @property
    def prefix(self) -> str:
        return self.segments[0]

    def render(self) -> str:
        return ".".join(self.segments)

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class MemoryEntry:
    """One immutable version of one key."""

    key: str
    kind: EntryKind
    payload: dict[str, Any]
    source: str
    timestamp: str
    version: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "key": self.key,
            "kind": self.kind.value,
            "payload": self.payload,
            "source": self.source,
            "timestamp": self.timestamp,
            "version": self.version,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MemoryEntry":
        return cls(
            key=data["key"],
            kind=EntryKind(data["kind"]),
            payload=dict(data["payload"]),
            source=data["source"],
            timestamp=data["timestamp"],
            version=int(data["version"]),
        )


@dataclass(frozen=True)
class MemoryQuery:
    """Filter for `read`: dotted prefix and kind set, optionally latest version only."""

    prefix: str | None = None
    kinds: frozenset[EntryKind] | None = None
    latest_only: bool = False


def _validate_payload(key: MemoryKey, kind: EntryKind, payload: Any) -> None:
    if kind not in ALLOWED_KINDS[key.prefix]:
        raise SchemaMismatch(
            f"kind {kind.value!r} not allowed under namespace {key.prefix!r} (key {key})"
        )
    if not isinstance(payload, dict) or not payload:
        raise SchemaMismatch(f"payload for {key} must be a non-empty mapping")
    if kind is EntryKind.PROPOSAL:
        missing = {"proposition", "evidence"} - payload.keys()
        if missing:
            raise SchemaMismatch(f"proposal {key} missing fields {sorted(missing)}")
    elif kind is EntryKind.ACTION:
        missing = {"name", "args", "status"} - payload.keys()
        if missing:
            raise SchemaMismatch(f"action record {key} missing fields {sorted(missing)}")
        if payload["status"] not in ACTION_STATUSES:
            raise SchemaMismatch(
                f"action record {key} has status {payload['status']!r}; "
                f"expected one of {ACTION_STATUSES}"
            )
    elif kind is EntryKind.TERMINATION_FLAG:
        if not isinstance(payload.get("terminated"), bool):
            raise SchemaMismatch(f"termination flag {key} requires boolean field 'terminated'")
    elif kind is EntryKind.CONTROL_FEEDBACK:
        if not isinstance(payload.get("message"), str):
            raise SchemaMismatch(f"control feedback {key} requires string field 'message'")


class MemorySnapshot:
    """Immutable view of all entries committed up to one cycle boundary."""

    def __init__(self, entries: tuple[MemoryEntry, ...]):
        self._entries = entries
        self._by_key: dict[str, list[MemoryEntry]] = {}
        for entry in entries:
            self._by_key.setdefault(entry.key, []).append(entry)

    @property
    def entries(self) -> tuple[MemoryEntry, ...]:
        return self._entries

    def keys(self) -> list[str]:
        return sorted(self._by_key)

    def latest(self, key: str) -> MemoryEntry | None:
        versions = self._by_key.get(str(key))
        return versions[-1] if versions else None

    def latest_version(self, key: str) -> int:
        versions = self._by_key.get(str(key))
        return versions[-1].version if versions else 0

    def history(self, key: str) -> list[MemoryEntry]:
        return list(self._by_key.get(str(key), []))

    def read(self, query: MemoryQuery = MemoryQuery()) -> list[MemoryEntry]:
        """Entries matching the query, ordered by (key, version)."""
        selected: list[MemoryEntry] = []
        for entry in self._entries:
            if query.prefix is not None:
                if not (entry.key == query.prefix or entry.key.startswith(query.prefix + ".")):
                    continue
            if query.kinds is not None and entry.kind not in query.kinds:
                continue
            selected.append(entry)
        selected.sort(key=lambda e: (e.key, e.version))
        if query.latest_only:
            newest: dict[str, MemoryEntry] = {}
            for entry in selected:
                newest[entry.key] = entry
            return [newest[k] for k in sorted(newest)]
        return selected

    def resolve(self, path: str) -> Any:
        """Latest value at a dotted path, descending into payload fields.

        Returns NOT_FOUND rather than raising when the path does not resolve;
        callers use three-valued logic on top of this.
        """
        try:
            segments = MemoryKey.parse(path).segments
        except MalformedKey:
            return NOT_FOUND
        # Longest committed key that prefixes the path wins; the remaining
        # segments descend into its payload.
        for cut in range(len(segments), 0, -1):
            key = ".".join(segments[:cut])
            entry = self.latest(key)
            if entry is None:
                continue
            value: Any = entry.payload
            for seg in segments[cut:]:
                if not isinstance(value, dict):
                    return NOT_FOUND
                if seg in value:
                    value = value[seg]
                elif seg in FIELD_ALIASES and FIELD_ALIASES[seg] in value:
                    value = value[FIELD_ALIASES[seg]]
                else:
                    return NOT_FOUND
            return value
        return NOT_FOUND


class MemoryStore:
    """Versioned store with staged writes and atomic per-cycle commits."""

    def __init__(self) -> None:
        self.clock = SimulatedClock()
        self._log: list[MemoryEntry] = []
        self._staged: list[MemoryEntry] = []
        self._snapshot = MemorySnapshot(())

    # ------------------------------------------------------------------ state
    @property
    def snapshot(self) -> MemorySnapshot:
        """Snapshot as of the last commit; staged writes are invisible."""
        return self._snapshot

    def read(self, query: MemoryQuery = MemoryQuery()) -> list[MemoryEntry]:
        return self._snapshot.read(query)

    def resolve(self, path: str) -> Any:
        return self._snapshot.resolve(path)

    # ----------------------------------------------------------------- writes
    def write_staged(
        self, key: str | MemoryKey, kind: EntryKind, payload: dict[str, Any], source: str
    ) -> MemoryEntry:
        """Stage one write; it gains a version and becomes visible at commit."""
        parsed = MemoryKey.parse(key)
        _validate_payload(parsed, kind, payload)
        version = self._snapshot.latest_version(parsed.render())
        for staged in self._staged:
            if staged.key == parsed.render():
                version = max(version, staged.version)
        entry = MemoryEntry(
            key=parsed.render(),
            kind=kind,
            payload=json.loads(json.dumps(payload)),  # defensive deep copy
            source=source,
            timestamp=iso_millis(self.clock.now()),
            version=version + 1,
        )
        self._staged.append(entry)
        return entry

    def update_status(
        self, key: str | MemoryKey, updates: dict[str, Any], source: str = "control"
    ) -> MemoryEntry:
        """Stage a new version of a termination flag, moving it false -> true.

        Every other update raises IllegalTransition.
        """
        parsed = MemoryKey.parse(key)
        current = self._snapshot.latest(parsed.render())
        for staged in self._staged:
            if staged.key == parsed.render():
                current = staged
        if current is None:
            raise UnknownKey(f"no committed entry for {parsed}")
        if current.kind is not EntryKind.TERMINATION_FLAG:
            raise IllegalTransition(f"{parsed}: status updates apply only to termination flags")
        if updates.get("terminated") is not True or current.payload.get("terminated") is not False:
            raise IllegalTransition(f"{parsed}: termination flag only moves false -> true")
        return self.write_staged(parsed, current.kind, {**current.payload, **updates}, source)

    def commit_cycle(self) -> MemorySnapshot:
        """Atomically publish all staged writes and return the new snapshot."""
        if self._staged:
            self._log.extend(self._staged)
            committed = len(self._staged)
            self._staged = []
            self._snapshot = MemorySnapshot(tuple(self._log))
            logger.debug("committed %d entries; log size %d", committed, len(self._log))
        return self._snapshot

    def entries(self) -> Iterable[MemoryEntry]:
        return tuple(self._log)
