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
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Any, Iterable

from .util import Sentinel, tick_timestamp


class StoreError(Exception):
    """Base class for memory store violations."""


class MalformedKey(StoreError):
    """Key does not follow the dotted-path grammar."""


class SchemaMismatch(StoreError):
    """An entry does not fit its schema: see `_check_entry` and `MemoryEntry.from_dict`."""


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

# Read-time aliases for leaf fields, accepted by `descend`.
FIELD_ALIASES = {"temp": "temp_f"}

# The runtime writes an action record only once its call has run, so
# "executed" is the one status a record can hold.
ACTION_STATUSES = ("executed",)

_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})
# Deeper payloads take the JSON round trip, which reports nesting it cannot encode.
_COPY_DEPTH = 32


NOT_FOUND = Sentinel("not found")  # a path that resolves to nothing


def encode_value(value: Any) -> Any:
    """JSON-safe form of a resolved value, a copy that shares no container with it, since
    the proposer reads from memos that serve every episode; NOT_FOUND becomes an explicit
    marker."""
    if value is NOT_FOUND:
        return {"__missing__": True}
    return value if type(value) in _JSON_SCALARS else _json_copy(value)


def decode_value(value: Any) -> Any:
    if isinstance(value, dict) and value.get("__missing__") is True:
        return NOT_FOUND
    return value


@lru_cache(maxsize=4096)
def key_segments(key: str) -> tuple[str, ...]:
    """Segments of a dotted memory key; the first one names the namespace.

    Raises MalformedKey for any other hashable value. Callers parse the same
    few keys on every cycle; the cache is bounded, so it stays small however
    many episodes a process runs.
    """
    if not isinstance(key, str) or not key:
        raise MalformedKey(f"key must be a non-empty string, got {key!r}")
    segments = tuple(key.split("."))
    for seg in segments:
        if seg.split() != [seg]:  # empty, or holds whitespace
            raise MalformedKey(f"empty or whitespace segment in key {key!r}")
    if segments[0] not in ALLOWED_KINDS:
        raise MalformedKey(
            f"unknown namespace {segments[0]!r} in key {key!r}; "
            f"expected one of {sorted(ALLOWED_KINDS)}"
        )
    if len(segments) < 2:
        raise MalformedKey(f"key {key!r} names a bare namespace; add a subject segment")
    return segments


@lru_cache(maxsize=4096)
def resolve_plan(path: str) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """(entry key, segments below it) for each prefix of ``path``, longest first.

    A resolver takes the first entry key it holds and ``descend``s that
    entry's payload by the rest. Raises MalformedKey like ``key_segments``;
    bounded like it.
    """
    segments = key_segments(path)
    return tuple(
        (".".join(segments[:cut]), segments[cut:]) for cut in range(len(segments), 0, -1)
    )


def descend(value: Any, tail: tuple[str, ...]) -> Any:
    """The field of ``value`` at the segments ``tail``, through FIELD_ALIASES; else NOT_FOUND."""
    for seg in tail:
        if not isinstance(value, dict):
            return NOT_FOUND
        if seg in value:
            value = value[seg]
        elif seg in FIELD_ALIASES and FIELD_ALIASES[seg] in value:
            value = value[FIELD_ALIASES[seg]]
        else:
            return NOT_FOUND
    return value


@dataclass(frozen=True, slots=True)
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
    def from_dict(cls, data: Any) -> "MemoryEntry":
        """The entry ``to_dict`` wrote as ``data``, as parsed from JSON; the one decoder.

        Checks each field's exact JSON type as it reads it, then `_check_entry` and a
        version from 1, raising a ``StoreError`` saying why ``data`` is no such entry.
        The entry takes ``data``'s payload as it is, without a copy.
        """
        if type(data) is not dict:
            raise SchemaMismatch("is not an object")
        get = data.get
        key, kind_name, source, timestamp = get("key"), get("kind"), get("source"), get("timestamp")
        payload, version = get("payload"), get("version")
        if not (type(key) is type(kind_name) is type(source) is type(timestamp) is str
                and type(payload) is dict and type(version) is int):
            for name, kind in _ENTRY_FIELDS:
                value = data.get(name, NOT_FOUND)
                if value is NOT_FOUND:
                    raise SchemaMismatch(f"lacks field {name!r}")
                if type(value) is not kind:
                    raise SchemaMismatch(f"field {name!r} must be {kind.__name__}, got {value!r}")
        kind = _KINDS_BY_VALUE.get(kind_name)
        if kind is None:
            raise SchemaMismatch(f"has unknown kind {kind_name!r}")
        _check_entry(key, kind, payload)
        if version < 1:
            raise SchemaMismatch(f"has version {version}; versions start at 1")
        return cls(key, kind, payload, source, timestamp, version)


# Field -> exact JSON type of a serialized entry, in field order; `from_dict` words errors by it.
_ENTRY_FIELDS = (
    ("key", str),
    ("kind", str),
    ("payload", dict),
    ("source", str),
    ("timestamp", str),
    ("version", int),
)
_KINDS_BY_VALUE = {kind.value: kind for kind in EntryKind}


@dataclass(frozen=True)
class MemoryQuery:
    """Filter for `read`: dotted prefix and kind set, optionally latest version only."""

    prefix: str | None = None
    kinds: frozenset[EntryKind] | None = None
    latest_only: bool = False


class _NotPlainJSON(Exception):
    """A value that a JSON round trip would change: see `_plain_copy`."""


def _plain_copy(value: Any, depth: int = 0) -> Any:
    """A copy equal to ``json.loads(json.dumps(value))``, sharing no container with ``value``.

    Covers dicts with ``str`` keys, lists and exact JSON scalars; anything
    else (a tuple, an ``int`` key, an ``int`` subclass ...) raises
    ``_NotPlainJSON``, since the round trip would convert it.
    """
    kind = type(value)
    if kind is dict:
        if depth < _COPY_DEPTH:
            copy = {}
            for k, v in value.items():
                if type(k) is not str:
                    break
                copy[k] = v if type(v) in _JSON_SCALARS else _plain_copy(v, depth + 1)
            else:
                return copy
    elif kind is list:
        if depth < _COPY_DEPTH:
            return [v if type(v) in _JSON_SCALARS else _plain_copy(v, depth + 1) for v in value]
    elif kind in _JSON_SCALARS:
        return value
    raise _NotPlainJSON


def _json_copy(value: Any) -> Any:
    """``json.loads(json.dumps(value))``, without the round trip where a copy gives it."""
    try:
        return _plain_copy(value)
    except _NotPlainJSON:
        return json.loads(json.dumps(value))


def _check_entry(key: str, kind: EntryKind, payload: Any) -> None:
    """Every entry's rules, written or loaded: a valid key, its kind, and a non-empty
    payload holding the fields its kind requires."""
    prefix = key_segments(key)[0]
    if kind not in ALLOWED_KINDS[prefix]:
        raise SchemaMismatch(
            f"kind {kind.value!r} not allowed under namespace {prefix!r} (key {key})"
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
    """Immutable view of all entries committed up to one cycle boundary: the first
    ``len(snapshot)`` entries of an append-only log shared by every snapshot of one
    store or replay, which also keeps each key's versions in commit order.

    ``extend`` derives the next snapshot from this one by appending to the log in
    place, so its work is proportional to the new entries. Once the log holds
    entries past a view, the view reads and extends through a private copy of its
    own entries, made on its first use. Versions of a key keep commit order, which
    is version order for everything a store commits.
    """

    __slots__ = ("_log", "_by_key", "_n", "_newest")

    def __init__(self, entries: Iterable[MemoryEntry]):
        self._log: list[MemoryEntry] = []
        self._by_key: dict[str, list[MemoryEntry]] = {}
        self._append(tuple(entries))

    def extend(self, entries: Iterable[MemoryEntry]) -> "MemorySnapshot":
        """The snapshot after committing ``entries``; this one is left unchanged."""
        added = tuple(entries)
        if not added:
            return self
        snapshot = MemorySnapshot.__new__(MemorySnapshot)
        snapshot._by_key = self._index()  # first: a superseded view takes its own log
        snapshot._log = self._log
        snapshot._append(added)
        self._newest = False  # the log now holds entries past this view
        return snapshot

    def _append(self, added: tuple[MemoryEntry, ...]) -> None:
        # Only for a snapshot under construction, which becomes the log's newest view.
        log, by_key = self._log, self._by_key
        for entry in added:
            if entry.key in by_key:
                by_key[entry.key].append(entry)
            else:
                by_key[entry.key] = [entry]
        log.extend(added)
        self._n, self._newest = len(log), True

    def _index(self) -> dict[str, list[MemoryEntry]]:
        """Key -> this view's versions of it, oldest first; shared, never to be mutated."""
        if not self._newest:  # the log's later entries are not this view's own
            own = MemorySnapshot(self._log[: self._n])
            self._log, self._by_key, self._newest = own._log, own._by_key, True
        return self._by_key

    def __len__(self) -> int:
        return self._n

    def since(self, start: int) -> list[MemoryEntry]:
        """The entries from position ``start`` on, in commit order."""
        return self._log[start : self._n]

    def extends(self, other: "MemorySnapshot") -> bool:
        """Whether ``other``'s entries are this snapshot's first ones."""
        n = other._n
        # Views of one log share it; a copied log shares the entry objects.
        return n <= self._n and (not n or self._log[n - 1] is other._log[n - 1])

    @property
    def entries(self) -> tuple[MemoryEntry, ...]:
        """The whole log of this snapshot, built on each call."""
        return tuple(self._log[: self._n])

    def latest(self, key: str) -> MemoryEntry | None:
        versions = self._index().get(key)
        return versions[-1] if versions else None

    def latest_version(self, key: str) -> int:
        versions = self._index().get(key)
        return versions[-1].version if versions else 0

    def history(self, key: str) -> list[MemoryEntry]:
        return list(self._index().get(key, ()))

    def read(self, query: MemoryQuery = MemoryQuery()) -> list[MemoryEntry]:
        """Entries matching the query, ordered by (key, version)."""
        by_key = self._index()
        keys = sorted(by_key)
        prefix = query.prefix
        if prefix is not None:
            below = prefix + "."
            keys = [key for key in keys if key == prefix or key.startswith(below)]
        kinds = query.kinds
        selected: list[MemoryEntry] = []
        for key in keys:
            versions = by_key[key]
            if query.latest_only:
                for entry in reversed(versions):
                    if kinds is None or entry.kind in kinds:
                        selected.append(entry)
                        break
            elif kinds is None:
                selected.extend(versions)
            else:
                selected.extend(e for e in versions if e.kind in kinds)
        return selected

    def resolve(self, path: str) -> Any:
        """Latest value at a dotted path, descending into payload fields.

        Returns NOT_FOUND rather than raising when the path does not resolve;
        callers use three-valued logic on top of this.
        """
        # A path read from a trace file may be any JSON value, even an unhashable one.
        if not isinstance(path, str):
            return NOT_FOUND
        try:
            plan = resolve_plan(path)
        except MalformedKey:
            return NOT_FOUND
        # The longest committed key that prefixes the path wins; the rest of
        # the path descends into its payload.
        by_key = self._by_key if self._newest else self._index()
        for key, tail in plan:
            versions = by_key.get(key)
            if versions:
                return descend(versions[-1].payload, tail)
        return NOT_FOUND


class MemoryStore:
    """Versioned store with staged writes and atomic per-cycle commits."""

    def __init__(self) -> None:
        self._staged: list[MemoryEntry] = []
        self._snapshot = MemorySnapshot(())

    # ------------------------------------------------------------------ state
    @property
    def snapshot(self) -> MemorySnapshot:
        """Snapshot as of the last commit; staged writes are invisible."""
        return self._snapshot

    # ----------------------------------------------------------------- writes
    def write_staged(
        self, key: str, kind: EntryKind, payload: dict[str, Any], source: str
    ) -> MemoryEntry:
        """Stage one write; it gains a version and becomes visible at commit."""
        _check_entry(key, kind, payload)
        version = self._snapshot.latest_version(key)
        for staged in self._staged:
            if staged.key == key:
                version = max(version, staged.version)
        payload = _json_copy(payload)  # a defensive copy
        entry = MemoryEntry(
            key=key,
            kind=kind,
            payload=payload,
            source=source,
            timestamp=tick_timestamp(len(self._snapshot) + len(self._staged)),
            version=version + 1,
        )
        self._staged.append(entry)
        return entry

    def commit_cycle(self) -> MemorySnapshot:
        """Atomically publish all staged writes and return the new snapshot."""
        if self._staged:
            self._snapshot = self._snapshot.extend(self._staged)
            self._staged = []
        return self._snapshot

    def entries(self) -> tuple[MemoryEntry, ...]:
        """The whole committed log, in commit order."""
        return self._snapshot.entries
