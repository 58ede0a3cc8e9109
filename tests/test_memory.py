"""Versioned store: keys, staging, atomic commits, resolution."""
from __future__ import annotations

import functools
import json
from enum import Enum

import pytest
from hypothesis import given, settings, strategies as st

from cogloop.memory import (
    NOT_FOUND,
    EntryKind,
    MalformedKey,
    MemoryEntry,
    MemoryQuery,
    MemorySnapshot,
    MemoryStore,
    SchemaMismatch,
    decode_value,
    encode_value,
    key_segments,
)
from cogloop.util import canonical_json


def obs(store: MemoryStore, key: str, payload: dict) -> MemoryEntry:
    return store.write_staged(key, EntryKind.OBSERVATION, payload, source="test")


# ---------------------------------------------------------------------- keys
def test_key_parse_round_trip():
    segments = key_segments("obs.Seoul.temp_f")
    assert segments == ("obs", "Seoul", "temp_f")
    assert ".".join(segments) == "obs.Seoul.temp_f"


@pytest.mark.parametrize(
    "raw", ["", "obs", ".obs.x", "obs..x", "obs.x.", "weird.Seoul", "obs.Se oul"]
)
def test_key_parse_rejects_malformed(raw):
    with pytest.raises(MalformedKey):
        key_segments(raw)


def test_namespace_constrains_kind():
    store = MemoryStore()
    with pytest.raises(SchemaMismatch):
        store.write_staged("obs.Seoul", EntryKind.ACTION, {"name": "x", "args": {}, "status": "executed"}, "t")
    with pytest.raises(SchemaMismatch):
        store.write_staged("status.terminated", EntryKind.OBSERVATION, {"terminated": False}, "t")


# ------------------------------------------------------------ staging/commit
def test_staged_writes_invisible_until_commit():
    store = MemoryStore()
    obs(store, "obs.Seoul", {"temp_f": 51.8})
    assert store.snapshot.resolve("obs.Seoul.temp_f") is NOT_FOUND
    store.commit_cycle()
    assert store.snapshot.resolve("obs.Seoul.temp_f") == 51.8


def test_commit_is_atomic():
    store = MemoryStore()
    obs(store, "obs.Seoul", {"temp_f": 51.8})
    store.commit_cycle()
    obs(store, "obs.Jeju", {"temp_f": 60.8})
    store.write_staged("feedback.cycle2", EntryKind.CONTROL_FEEDBACK, {"message": "m"}, "control")
    assert store.snapshot.resolve("obs.Jeju.temp_f") is NOT_FOUND
    assert store.snapshot.resolve("feedback.cycle2.message") is NOT_FOUND
    store.commit_cycle()
    assert store.snapshot.resolve("obs.Jeju.temp_f") == 60.8
    assert store.snapshot.resolve("feedback.cycle2.message") == "m"
    assert [e.key for e in store.entries()] == ["obs.Seoul", "obs.Jeju", "feedback.cycle2"]


def test_versions_are_gapless_per_key_from_one():
    store = MemoryStore()
    for temp in (50.0, 51.0, 52.0):
        obs(store, "obs.Seoul", {"temp_f": temp})
        store.commit_cycle()
    history = store.snapshot.history("obs.Seoul")
    assert [e.version for e in history] == [1, 2, 3]
    assert store.snapshot.latest("obs.Seoul").payload == {"temp_f": 52.0}


def test_two_staged_versions_of_one_key_commit_in_order():
    store = MemoryStore()
    obs(store, "obs.Seoul", {"temp_f": 1.0})
    obs(store, "obs.Seoul", {"temp_f": 2.0})
    store.commit_cycle()
    assert [e.version for e in store.snapshot.history("obs.Seoul")] == [1, 2]


def test_snapshot_isolation_between_cycles():
    store = MemoryStore()
    obs(store, "obs.Seoul", {"temp_f": 51.8})
    store.commit_cycle()
    before = store.snapshot
    obs(store, "obs.Seoul", {"temp_f": 99.9})
    store.commit_cycle()
    assert before.resolve("obs.Seoul.temp_f") == 51.8  # old snapshot unchanged
    assert store.snapshot.resolve("obs.Seoul.temp_f") == 99.9


# ------------------------------------------------------------------- resolve
def test_resolve_descends_payload_and_aliases():
    store = MemoryStore()
    obs(store, "obs.Seoul", {"temp_f": 51.8, "precipitation": False})
    store.commit_cycle()
    assert store.snapshot.resolve("obs.Seoul.temp_f") == 51.8
    assert store.snapshot.resolve("obs.Seoul.temp") == 51.8  # field alias
    assert store.snapshot.resolve("obs.Seoul") == {"temp_f": 51.8, "precipitation": False}
    assert store.snapshot.resolve("obs.Seoul.missing") is NOT_FOUND
    assert store.snapshot.resolve("obs.Nowhere.temp_f") is NOT_FOUND


def test_resolve_prefers_longest_committed_prefix():
    store = MemoryStore()
    obs(store, "obs.trip", {"status": "planned"})
    obs(store, "obs.trip.leg1", {"status": "booked"})
    store.commit_cycle()
    assert store.snapshot.resolve("obs.trip.leg1.status") == "booked"
    assert store.snapshot.resolve("obs.trip.status") == "planned"


def test_read_query_filters_and_latest_only():
    store = MemoryStore()
    obs(store, "obs.Seoul", {"temp_f": 1.0})
    store.commit_cycle()
    obs(store, "obs.Seoul", {"temp_f": 2.0})
    store.write_staged("prop.cycle1", EntryKind.PROPOSAL, {"proposition": "p", "evidence": []}, "c")
    store.commit_cycle()
    latest = store.snapshot.read(MemoryQuery(prefix="obs", latest_only=True))
    assert [(e.key, e.version) for e in latest] == [("obs.Seoul", 2)]
    only_props = store.snapshot.read(MemoryQuery(kinds=frozenset({EntryKind.PROPOSAL})))
    assert [e.key for e in only_props] == ["prop.cycle1"]


# ---------------------------------------------------------------- timestamps
def test_timestamps_come_from_simulated_clock():
    store = MemoryStore()
    first = obs(store, "obs.A", {"v": 1})
    second = obs(store, "obs.B", {"v": 2})
    assert first.timestamp == "2025-01-01T00:00:00.000Z"
    assert second.timestamp == "2025-01-01T00:00:00.250Z"
    assert first.timestamp < second.timestamp


def test_not_found_encoding_round_trip():
    assert decode_value(encode_value(NOT_FOUND)) is NOT_FOUND
    assert decode_value(encode_value(51.8)) == 51.8
    assert encode_value(NOT_FOUND) == {"__missing__": True}
    assert not NOT_FOUND and repr(NOT_FOUND) == "<not found>"  # falsy singleton


# ---------------------------------------------------------------- hypothesis
entity_names = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll"), max_codepoint=127),
    min_size=1,
    max_size=8,
)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6))
def test_versions_strictly_increase_under_any_write_sequence(values):
    store = MemoryStore()
    for i, value in enumerate(values):
        store.write_staged("obs.X", EntryKind.OBSERVATION, {"v": value}, "t")
        if i % 2:
            store.commit_cycle()
    store.commit_cycle()
    versions = [e.version for e in store.snapshot.history("obs.X")]
    assert versions == list(range(1, len(values) + 1))


@given(entity_names, st.floats(allow_nan=False, allow_infinity=False))
def test_entry_dict_round_trip(name, temp):
    entry = MemoryEntry(
        key=f"obs.{name}",
        kind=EntryKind.OBSERVATION,
        payload={"temp_f": temp},
        source="test",
        timestamp="2025-01-01T00:00:00.000Z",
        version=1,
    )
    assert MemoryEntry.from_dict(entry.to_dict()) == entry


# ------------------------------------------- incremental snapshot equivalence
# Keys chosen so that plain string prefixes and dotted prefixes disagree
# ("obs.Se" is a string prefix of "obs.Seoul" but not a dotted one), one key
# nests under another, and "-" sorts just before ".".
SNAPSHOT_KEYS = (
    "obs.Se",
    "obs.Seoul",
    "obs.Seoul.leg1",
    "obs.Se-x",
    "goal.rule",
    "act.book",
    "feedback.cycle1",
    "feedback.cycle10",
    "prop.cycle1",
)
QUERY_PREFIXES = (None, "obs", "obs.Se", "obs.Seoul", "obs.Seoul.leg1", "act", "feedback",
                  "feedback.cycle1", "prop", "zzz")
QUERY_KINDS = (
    None,
    frozenset({EntryKind.OBSERVATION}),
    frozenset({EntryKind.PROPOSAL}),
    frozenset({EntryKind.OBSERVATION, EntryKind.ACTION, EntryKind.CONTROL_FEEDBACK}),
)


def write(store: MemoryStore, key: str, value: int) -> None:
    namespace = key.split(".", 1)[0]
    if namespace == "act":
        store.write_staged(key, EntryKind.ACTION,
                           {"name": "book", "args": {}, "status": "executed", "v": value}, "t")
    elif namespace == "feedback":
        store.write_staged(key, EntryKind.CONTROL_FEEDBACK, {"message": str(value)}, "t")
    elif namespace == "prop":
        store.write_staged(key, EntryKind.PROPOSAL,
                           {"proposition": "p", "evidence": [], "v": value}, "t")
    else:
        store.write_staged(key, EntryKind.OBSERVATION, {"v": value, "temp_f": value}, "t")


def reference_read(entries: tuple[MemoryEntry, ...], query: MemoryQuery) -> list[MemoryEntry]:
    """The scan-and-sort definition of `read`."""
    selected = [
        e for e in entries
        if (query.prefix is None or e.key == query.prefix
            or e.key.startswith(query.prefix + "."))
        and (query.kinds is None or e.kind in query.kinds)
    ]
    selected.sort(key=lambda e: (e.key, e.version))
    if query.latest_only:
        newest = {e.key: e for e in selected}
        return [newest[key] for key in sorted(newest)]
    return selected


def assert_snapshot_matches(snapshot: MemorySnapshot, entries: tuple[MemoryEntry, ...]) -> None:
    rebuilt = MemorySnapshot(entries)
    assert snapshot.entries == entries
    assert len(snapshot) == len(rebuilt) == len(entries)
    assert {e.key for e in snapshot.read()} == {e.key for e in rebuilt.read()} == {
        e.key for e in entries
    }
    for key in SNAPSHOT_KEYS:
        assert snapshot.latest(key) == rebuilt.latest(key)
        assert snapshot.latest_version(key) == rebuilt.latest_version(key)
        assert snapshot.history(key) == rebuilt.history(key) == [
            e for e in entries if e.key == key
        ]
        for path in (key, f"{key}.v", f"{key}.temp", f"{key}.missing"):
            assert snapshot.resolve(path) == rebuilt.resolve(path)
    for prefix in QUERY_PREFIXES:
        for kinds in QUERY_KINDS:
            for latest_only in (False, True):
                query = MemoryQuery(prefix=prefix, kinds=kinds, latest_only=latest_only)
                expected = reference_read(entries, query)
                assert snapshot.read(query) == rebuilt.read(query) == expected


write_or_commit = st.one_of(
    st.tuples(st.sampled_from(SNAPSHOT_KEYS), st.integers(0, 9)),
    st.just("commit"),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(write_or_commit, max_size=30))
def test_incremental_snapshot_equals_rebuilt_snapshot(ops):
    store = MemoryStore()
    taken: list[tuple[MemorySnapshot, tuple[MemoryEntry, ...]]] = []
    for op in ops + ["commit"]:
        if op == "commit":
            snapshot = store.commit_cycle()
            entries = tuple(store.entries())
            assert_snapshot_matches(snapshot, entries)
            taken.append((snapshot, entries))
        else:
            write(store, *op)
    # Snapshots handed out earlier never see later commits.
    for snapshot, entries in taken:
        assert_snapshot_matches(snapshot, entries)


KINDS_BY_NAMESPACE = {"act": EntryKind.ACTION, "feedback": EntryKind.CONTROL_FEEDBACK,
                      "prop": EntryKind.PROPOSAL}


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(
    st.one_of(st.just(-1), st.integers(0, 20)),
    st.lists(st.tuples(st.sampled_from(SNAPSHOT_KEYS), st.integers(0, 9)), max_size=4),
), max_size=8))
def test_snapshots_of_one_log_each_equal_their_rebuild(ops):
    """Each step extends a snapshot taken earlier: the newest one, which appends to the
    shared log in place, or an older one, which branches into a copy of its prefix. After
    every step, every snapshot taken equals a rebuild from its own entries."""
    taken = [(MemorySnapshot(()), ())]
    for pick, writes in ops:
        base, entries = taken[pick % len(taken)]
        added = tuple(
            MemoryEntry(key, KINDS_BY_NAMESPACE.get(key.split(".")[0], EntryKind.OBSERVATION),
                        {"v": value, "temp_f": value}, "t", "", len(entries) + serial)
            for serial, (key, value) in enumerate(writes, 1)
        )
        taken.append((base.extend(added), entries + added))
        for snapshot, entries in taken:
            assert_snapshot_matches(snapshot, entries)


def test_a_superseded_view_reads_through_one_private_copy(monkeypatch):
    """A snapshot the shared log has grown past copies its own entries once, on its first
    read, however many reads follow; it then reads as a rebuild does, and the newest view
    of the shared log goes on appending to it in place."""
    store = MemoryStore()
    for key in SNAPSHOT_KEYS:
        write(store, key, 1)
    old = store.commit_cycle()
    old_entries = old.entries
    write(store, "obs.Seoul", 2)
    write(store, "act.book", 2)
    newest = store.commit_cycle()
    shared = newest.since(0)
    copies = []
    init = MemorySnapshot.__init__

    def counting(self, entries):
        copies.append(tuple(entries))
        init(self, copies[-1])

    with monkeypatch.context() as patch:
        patch.setattr(MemorySnapshot, "__init__", counting)
        for _ in range(3):
            for key in SNAPSHOT_KEYS:
                old.latest(key), old.history(key), old.resolve(f"{key}.v")
            old.read(), old.read(MemoryQuery(latest_only=True))
        write(store, "obs.Seoul", 3)
        after = store.commit_cycle()  # extends the newest view in place: no copy
    assert copies == [old_entries]
    assert_snapshot_matches(old, old_entries)
    assert after.extends(newest) and after.extends(old)
    assert_snapshot_matches(newest, tuple(shared))
    assert_snapshot_matches(after, (*shared, *store.snapshot.since(len(shared))))


def test_extend_shares_unchanged_versions_and_leaves_the_original_alone():
    store = MemoryStore()
    obs(store, "obs.Seoul", {"temp_f": 1.0})
    obs(store, "obs.Jeju", {"temp_f": 2.0})
    before = store.commit_cycle()
    obs(store, "obs.Seoul", {"temp_f": 3.0})
    after = store.commit_cycle()
    assert after.history("obs.Jeju")[0] is before.history("obs.Jeju")[0]
    assert [e.version for e in before.history("obs.Seoul")] == [1]
    assert [e.version for e in after.history("obs.Seoul")] == [1, 2]
    assert before.extend(()) is before


class Colour(str, Enum):
    RED = "red"


@pytest.mark.parametrize(
    "payload",
    [
        {"temp_f": 51.8, "precipitation": False, "location": "Seoul", "note": None, "n": 3},
        {"range": (1, 2)},
        {1: "int key"},
        {"nested": {"temp_f": 51.8, "tags": ["a"]}},
        {"colour": Colour.RED},
        {"deep": functools.reduce(lambda inner, _: [inner], range(40), [1])},
    ],
    ids=["flat", "tuple-value", "int-key", "nested", "str-enum-value", "deep"],
)
def test_staged_payload_equals_its_json_round_trip(payload):
    store = MemoryStore()
    staged = obs(store, "obs.Seoul", payload)
    round_trip = json.loads(json.dumps(payload))
    assert staged.payload == round_trip
    assert json.dumps(staged.payload) == json.dumps(round_trip)
    assert [type(k) for k in staged.payload] == [type(k) for k in round_trip]
    assert [type(v) for v in staged.payload.values()] == [type(v) for v in round_trip.values()]
    # Mutating the caller's dict after staging leaves the entry alone.
    for value in payload.values():
        if isinstance(value, dict):
            value["tags"].append("b")
    for key in list(payload):
        payload[key] = "changed"
    payload["added"] = 1
    assert store.commit_cycle().latest("obs.Seoul").payload == round_trip


class Count(int):
    pass


# JSON values, plus what a JSON round trip converts: tuples, int keys, an int
# subclass and a str enum.
payload_values = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
        st.integers().map(Count), st.just(Colour.RED),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.tuples(inner, inner),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
        st.dictionaries(st.integers(0, 3), inner, min_size=1, max_size=2),
    ),
    max_leaves=12,
)


def shape(value):
    """``value`` with each leaf replaced by its type, containers kept."""
    if isinstance(value, dict):
        return {k: shape(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return (type(value), [shape(v) for v in value])
    return type(value)


def containers(value) -> list[int]:
    found = []
    if isinstance(value, (dict, list, tuple)):
        found.append(id(value))
        for v in value.values() if isinstance(value, dict) else value:
            found += containers(v)
    return found


@given(st.dictionaries(st.text(min_size=1, max_size=4), payload_values, min_size=1, max_size=4))
def test_staged_payload_copy_matches_the_round_trip_and_shares_nothing(payload):
    staged = obs(MemoryStore(), "obs.Seoul", payload).payload
    round_trip = json.loads(json.dumps(payload))
    assert canonical_json(staged) == canonical_json(round_trip)
    assert json.dumps(staged) == json.dumps(round_trip)  # key order too
    assert shape(staged) == shape(round_trip)
    assert not set(containers(staged)) & set(containers(payload))
