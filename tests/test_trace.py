"""Trace format, replay, justification chains, and the three metrics."""
from __future__ import annotations

import json
from collections import Counter
from functools import lru_cache
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from cogloop import cognition, loop
from cogloop.baseline import run_baseline_episode
from cogloop.cli import main, parse_faults
from cogloop.cognition import FaultConfig
from cogloop.loop import run_episode
from cogloop.memory import (
    ALLOWED_KINDS, NOT_FOUND, EntryKind, MalformedKey, MemoryEntry, MemoryQuery, MemorySnapshot,
    key_segments,
)
from cogloop.scenario import load_scenario, load_suite
from cogloop.trace import (
    CycleRecord,
    EpisodeTrace,
    GapReport,
    JustificationChain,
    Metric,
    ParseError,
    TraceHeader,
    UnknownAction,
    aggregate_metrics,
    compute_elp,
    compute_metrics,
    iter_chains,
    reconstruct_chain,
)
from cogloop.util import canonical_json, is_int
from conftest import SUITE_DIR
from strategies import episode_seeds, fault_configs, json_values, suite_seeds, whole_episodes
from suitegen import generate_suite


@pytest.fixture
def clean_trace(two_city) -> EpisodeTrace:
    return run_episode(two_city.episode_config(seed=1)).trace


def reparse(trace: EpisodeTrace) -> EpisodeTrace:
    """Independent mutable copy via the wire format."""
    return EpisodeTrace.loads(trace.dumps())


def cycle_of(trace: EpisodeTrace, tool: str):
    for record in trace.cycles:
        if record.invocation and record.invocation.get("tool") == tool:
            return record
    raise AssertionError(f"no invocation of {tool}")


# ------------------------------------------------------------- serialization
def test_round_trip_is_byte_stable(clean_trace, tmp_path):
    text = clean_trace.dumps()
    assert EpisodeTrace.loads(text).dumps() == text
    path = tmp_path / "episode.jsonl"
    clean_trace.dump(path)
    again = EpisodeTrace.load(path)
    assert again.header == clean_trace.header
    assert len(again.cycles) == len(clean_trace.cycles)


def test_header_round_trip():
    header = TraceHeader(config_digest="d", scenario="s", seed=7, baseline=True,
                         proposer="scripted", ruleset_version="v", max_cycles=9)
    assert TraceHeader.from_dict(header.to_dict()) == header


HEADER_LINE = json.dumps(
    TraceHeader(config_digest="d", scenario="s", seed=1, baseline=False,
                proposer="scripted", ruleset_version="v", max_cycles=1).to_dict()
)
DELTA_ENTRY = {"key": "obs.Seoul", "kind": "observation", "payload": {"temp_f": 51.8},
               "source": "get_weather", "timestamp": "2025-01-01T00:00:00.000Z", "version": 1}


def with_cycle(**fields) -> str:
    """A header plus cycles 0 and 1, a whole one-cycle episode; cycle 1 carries ``fields``."""
    cycles = [{"type": "cycle", "cycle": 0}, {"type": "cycle", "cycle": 1, **fields}]
    return "\n".join([HEADER_LINE, *map(json.dumps, cycles)]) + "\n"


def with_delta(*entries) -> str:
    """A header plus cycles 0 and 1; cycle 1 commits ``entries``."""
    return with_cycle(memory_delta=list(entries))


def without(field: str) -> dict:
    return {k: v for k, v in DELTA_ENTRY.items() if k != field}


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("not json\n", "not valid JSON"),
        pytest.param("[" * 100_000 + "]" * 100_000 + "\n", "^line 1: not valid JSON",
                     id="nested-too-deep"),
        ('{"type": "mystery"}\n', "unknown record type"),
        ('{"type": "cycle", "cycle": 1}\n', "no header"),
        ('{"type": "header", "scenario": "x"}\n', "missing field"),
        pytest.param(with_delta(without("version")),
                     r"line 3: cycle 1: memory_delta\[0\] lacks field 'version'",
                     id="delta-no-version"),
        pytest.param(with_delta(DELTA_ENTRY, without("key")),
                     r"memory_delta\[1\] lacks field 'key'", id="delta-no-key"),
        pytest.param(with_delta(without("payload")), "lacks field 'payload'",
                     id="delta-no-payload"),
        pytest.param(with_delta(without("source")), "lacks field 'source'", id="delta-no-source"),
        pytest.param(with_delta(without("timestamp")), "lacks field 'timestamp'",
                     id="delta-no-timestamp"),
        pytest.param(with_delta(without("kind")), "lacks field 'kind'", id="delta-no-kind"),
        pytest.param(with_delta({**DELTA_ENTRY, "kind": "gossip"}), "unknown kind 'gossip'",
                     id="delta-unknown-kind"),
        pytest.param(with_delta({**DELTA_ENTRY, "version": "1"}),
                     "field 'version' must be int", id="delta-string-version"),
        pytest.param(with_delta({**DELTA_ENTRY, "version": True}),
                     "field 'version' must be int", id="delta-bool-version"),
        pytest.param(with_delta({**DELTA_ENTRY, "payload": [1]}),
                     "field 'payload' must be dict", id="delta-list-payload"),
        pytest.param(with_delta(["obs.Seoul"]), r"memory_delta\[0\] is not an object",
                     id="delta-not-an-object"),
        pytest.param(with_cycle(consumptions=[["obs.Seoul.temp_f"]]),
                     r"line 3: cycle 1: consumptions\[0\] is not a \[key, value\] pair",
                     id="consumption-no-value"),
        pytest.param(with_cycle(consumptions=[["obs.Seoul.temp_f", 51.8, 1]]),
                     r"consumptions\[0\] is not a \[key, value\] pair", id="consumption-triple"),
        pytest.param(with_cycle(consumptions=[["obs.Seoul.temp_f", 51.8], [3, 51.8]]),
                     r"consumptions\[1\] is not a \[key, value\] pair", id="consumption-int-key"),
        pytest.param(with_cycle(consumptions=["obs.Seoul.temp_f"]),
                     r"consumptions\[0\] is not a \[key, value\] pair", id="consumption-bare-key"),
        pytest.param(with_cycle(consumptions="ab"), "line 3: cycle 1: consumptions must be a list",
                     id="consumptions-string"),
        pytest.param(with_cycle(memory_delta=DELTA_ENTRY),
                     "line 3: cycle 1: memory_delta must be a list", id="delta-object"),
        pytest.param(with_cycle(log_lines="abc"),
                     "line 3: cycle 1: log_lines must be a list of strings", id="log-lines-string"),
        pytest.param(with_cycle(log_lines=[1, {}]), "cycle 1: log_lines must be a list of strings",
                     id="log-lines-not-strings"),
        pytest.param(with_cycle(input_digest=5), "line 3: cycle 1: input_digest must be a string",
                     id="input-digest-number"),
        pytest.param(with_cycle() + json.dumps({**json.loads(HEADER_LINE), "seed": 99}) + "\n",
                     "line 4: a second header", id="second-header"),
        pytest.param("\n".join(with_cycle().splitlines()[1:] + [HEADER_LINE]) + "\n",
                     "line 1: cycle record with no header", id="header-last"),
        pytest.param(HEADER_LINE + "\n", "does not start with cycle 0", id="header-only"),
        pytest.param(HEADER_LINE + "\n" + json.dumps({"type": "cycle", "cycle": 1}) + "\n",
                     "does not start with cycle 0", id="no-cycle-0"),
    ],
)
def test_malformed_traces_rejected(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        EpisodeTrace.loads(text)


def header_line(**fields) -> str:
    return json.dumps({**json.loads(HEADER_LINE), **fields})


CALL = {"name": "get_weather", "arguments": {"location": "Seoul", "date": "2025-06-14"}}


@pytest.mark.parametrize(
    "text, fragment",
    [
        pytest.param("[1, 2]\n", "line 1: not a JSON object", id="line-not-object"),
        pytest.param(header_line(seed="x"), "line 1: trace header field 'seed' must be an integer",
                     id="header-string-seed"),
        pytest.param(header_line(max_cycles=2.5), "field 'max_cycles' must be an integer",
                     id="header-float-max-cycles"),
        pytest.param(header_line(format=7), "line 1: trace header field 'format' is 7",
                     id="header-unknown-format"),
        pytest.param(header_line(baseline="false"),
                     "line 1: trace header field 'baseline' must be a boolean",
                     id="header-string-baseline"),
        pytest.param(header_line(scenario=5), "field 'scenario' must be a string",
                     id="header-number-scenario"),
        pytest.param(header_line(proposer=None), "field 'proposer' must be a string",
                     id="header-null-proposer"),
        pytest.param(header_line(config_digest=7), "field 'config_digest' must be a string",
                     id="header-number-config-digest"),
        pytest.param(header_line(ruleset_version=["v"]),
                     "field 'ruleset_version' must be a string", id="header-list-ruleset-version"),
        pytest.param(with_cycle(proposal=5), "line 3: cycle 1: proposal must be an object or null",
                     id="proposal-number"),
        pytest.param(with_cycle(decision="approved"), "decision must be an object or null",
                     id="decision-string"),
        pytest.param(with_cycle(invocation=[]), "invocation must be an object or null",
                     id="invocation-list"),
        pytest.param(with_cycle(proposal={"call": CALL, "citations": "obs.Seoul"}),
                     "proposal.citations must be a list", id="citations-string"),
        pytest.param(with_cycle(proposal={"call": {**CALL, "arguments": "x"}}),
                     "proposal.call.arguments must be an object", id="proposal-call-arguments"),
        pytest.param(with_cycle(decision={"verdict": "approved", "call": {**CALL, "arguments": []}}),
                     "decision.call.arguments must be an object", id="decision-call-arguments"),
        pytest.param(with_cycle(invocation={"tool": "get_weather", "outcome": True}),
                     "invocation.outcome must be an object", id="invocation-outcome"),
        pytest.param(with_cycle(invocation={"tool": "get_weather", "args": ["Seoul"]}),
                     "invocation.args must be an object", id="invocation-args"),
        pytest.param(with_cycle(decision={"verdict": "rejected", "rule_ids": 3}),
                     "decision.rule_ids must be a list of strings", id="rule-ids-number"),
        pytest.param(with_cycle(fault_label=["duplicate"]), "fault_label must be a string or null",
                     id="fault-label-list"),
        pytest.param(with_cycle(cycle="1"), "line 3: cycle number must be an integer",
                     id="cycle-string"),
    ],
)
def test_malformed_fields_exit_one(text, fragment, tmp_path, capsys):
    with pytest.raises(ParseError, match=fragment):
        EpisodeTrace.loads(text)
    path = tmp_path / "bad.jsonl"
    path.write_text(text, encoding="utf-8")
    assert main(["trace", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("trace error: line ") and err.count("\n") == 1


@lru_cache(maxsize=None)
def fuzz_sources() -> tuple[str, ...]:
    """A fault-injected governed trace and its baseline trace (with action records)."""
    path = Path(__file__).resolve().parent.parent / "scenarios" / "weather_two_city.json"
    config = load_scenario(path).episode_config(
        seed=1, faults=FaultConfig(seed=2, p_duplicate=0.3, p_false_citation=0.3)
    )
    return run_episode(config).trace.dumps(), run_baseline_episode(config, 2, 0.2).trace.dumps()


def mutate(data, lines: list) -> None:
    """Replace or delete one field of one line, at any depth, or replace a whole line."""
    index = data.draw(st.integers(0, len(lines) - 1))
    node = lines[index]
    if not (isinstance(node, (dict, list)) and node) or data.draw(st.integers(0, 9)) == 0:
        lines[index] = data.draw(json_values)
        return
    while True:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
        elif isinstance(node, dict) and data.draw(st.booleans()):
            del node[key]
            return
        else:
            node[key] = data.draw(json_values)
            return


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_trace_command_never_raises_on_mutated_traces(data, tmp_path, capsys):
    source = fuzz_sources()[data.draw(st.integers(0, 1), label="source")]
    lines = [json.loads(line) for line in source.splitlines()]
    for _ in range(data.draw(st.integers(1, 3))):
        mutate(data, lines)
    path = tmp_path / "mutated.jsonl"
    path.write_text("\n".join(map(json.dumps, lines)) + "\n", encoding="utf-8")
    action = data.draw(st.sampled_from([[], ["act.book_flight"], ["act.get_weather@2"]]))
    capsys.readouterr()
    code = main(["trace", str(path), *action])
    err = capsys.readouterr().err
    # A ParseError or unknown action is exit 1, a chain gap exit 3. A change to a
    # field that chains and metrics never read (a log line, a latency) leaves a
    # clean trace, exit 0.
    assert code in (0, 1, 3)
    assert err.count("\n") == 1 if code == 1 else err == ""


def test_only_newline_ends_a_trace_line(clean_trace):
    """U+0085, U+2028 and U+2029 may stand raw in a JSON string (``ensure_ascii=False``
    writes them so), and line numbers count "\n" lines."""
    trace = reparse(clean_trace)
    trace.cycles[1].log_lines[0] += " \x85 \u2028 \u2029 \x1c"
    lines = [json.dumps(r, ensure_ascii=False) for r in map(json.loads, trace.dumps().splitlines())]
    assert "\u2028" in lines[2]
    assert EpisodeTrace.loads("\n".join(lines) + "\n").dumps() == trace.dumps()
    lines[3] = "{"
    with pytest.raises(ParseError, match="^line 4: not valid JSON"):
        EpisodeTrace.loads("\n".join(lines) + "\n")


def json_error(line: str) -> str:
    """What ``json.loads`` says about ``line``, which it must reject."""
    try:
        json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:
        return str(exc)
    raise AssertionError(f"{line!r} decodes")


def with_line(trace: EpisodeTrace, line: str) -> str:
    """``trace``'s file with ``line`` as its line 3, between cycles 0 and 1."""
    lines = trace.dumps().split("\n")
    return "\n".join([*lines[:2], line, *lines[2:]])


# Whitespace to `str.strip` but not to JSON, which allows only space, tab, CR and LF.
NON_JSON_SPACE = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028",
                  "\u2029", "\u3000"]


@pytest.mark.parametrize("char", NON_JSON_SPACE, ids=lambda char: f"U+{ord(char):04X}")
def test_only_json_whitespace_surrounds_a_line(clean_trace, char):
    record = clean_trace.dumps().split("\n")[1]
    for line in (record + char, char + record, char):
        with pytest.raises(ParseError) as raised:
            EpisodeTrace.loads(with_line(clean_trace, line))
        assert str(raised.value) == f"line 3: not valid JSON ({json_error(line)})"


def test_json_whitespace_and_crlf_line_ends_load(clean_trace):
    text = clean_trace.dumps()
    padded = "\n".join(f" \t{line}\t \r" if line else line for line in text.split("\n"))
    for variant in (text.replace("\n", "\r\n"), padded):
        assert EpisodeTrace.loads(variant).dumps() == text


@pytest.mark.parametrize(
    "line",
    [
        pytest.param('{"type": "cycle", "cycle": 1', id="truncated-object"),
        pytest.param('{"type": "cycle", "cycle": 1}}', id="trailing-data"),
        pytest.param('{"type": "cycle"} {"cycle": 1}', id="two-values"),
        pytest.param('\ufeff{"type": "cycle", "cycle": 1}', id="leading-bom"),
        pytest.param("[" * 100_000 + "]" * 100_000, id="nested-too-deep"),
        pytest.param('{"a": ' * 100_000 + "1" + "}" * 100_000, id="objects-nested-too-deep"),
    ],
)
def test_decode_errors_keep_the_decoders_words(clean_trace, line):
    with pytest.raises(ParseError) as raised:
        EpisodeTrace.loads(with_line(clean_trace, line))
    assert str(raised.value) == f"line 3: not valid JSON ({json_error(line)})"


@pytest.mark.parametrize("line", ["[1, 2]", "[]", '"cycle"', "5", "-0.5e3", "null", "true"])
def test_a_bare_value_is_not_a_record(clean_trace, line):
    with pytest.raises(ParseError) as raised:
        EpisodeTrace.loads(with_line(clean_trace, line))
    assert str(raised.value) == "line 3: not a JSON object"


def record_problem(data: dict) -> str | None:
    """Why chains, metrics and ``dumps`` cannot read cycle record ``data``, or None when they can.

    A second walk over the fields ``CycleRecord.from_dict`` reads in one, kept
    as the oracle of the order and wording of its problems; delta entries are
    left to ``entry_problem``.
    """
    for name in ("proposal", "decision", "invocation"):
        if not isinstance(data.get(name), (dict, type(None))):
            return f"{name} must be an object or null"
    proposal = data.get("proposal") or {}
    decision = data.get("decision") or {}
    invocation = data.get("invocation") or {}
    for name, part in (("proposal", proposal), ("decision", decision)):
        call = part.get("call")
        if isinstance(call, dict) and not isinstance(call.get("arguments", {}), dict):
            return f"{name}.call.arguments must be an object"
    if not isinstance(proposal.get("citations", []), list):
        return "proposal.citations must be a list"
    rule_ids = decision.get("rule_ids", [])
    if not (isinstance(rule_ids, list) and all(isinstance(r, str) for r in rule_ids)):
        return "decision.rule_ids must be a list of strings"
    for name in ("outcome", "args"):
        if not isinstance(invocation.get(name, {}), dict):
            return f"invocation.{name} must be an object"
    if not isinstance(invocation.get("outcome", {}).get("ok", False), bool):
        return "invocation.outcome.ok must be a boolean"
    outcome = invocation.get("outcome", {})
    if outcome.get("ok") is True and not isinstance(outcome.get("payload"), dict):
        return "invocation.outcome.payload must be an object when ok is true"
    if not isinstance(data.get("fault_label"), (str, type(None))):
        return "fault_label must be a string or null"
    if type(data.get("input_digest", "")) is not str:
        return "input_digest must be a string"
    log_lines = data.get("log_lines", [])
    if type(log_lines) is not list or any(type(line) is not str for line in log_lines):
        return "log_lines must be a list of strings"
    for name in ("memory_delta", "consumptions"):
        if type(data.get(name, [])) is not list:
            return f"{name} must be a list"
    for index, item in enumerate(data.get("consumptions", [])):
        if not (isinstance(item, list) and len(item) == 2 and isinstance(item[0], str)):
            return f"consumptions[{index}] is not a [key, value] pair"
    return None


ENTRY_TYPES = {"key": str, "kind": str, "payload": dict, "source": str, "timestamp": str,
               "version": int}


def entry_problem(entry) -> str | None:
    """Why ``entry`` is no serialized memory entry, one field at a time, or None."""
    if type(entry) is not dict:
        return "is not an object"
    for name, kind in ENTRY_TYPES.items():
        if name not in entry:
            return f"lacks field {name!r}"
        if type(entry[name]) is not kind:
            return f"field {name!r} must be {kind.__name__}, got {entry[name]!r}"
    if entry["kind"] not in {kind.value for kind in EntryKind}:
        return f"has unknown kind {entry['kind']!r}"
    key = entry["key"]
    try:
        namespace = key_segments(key)[0]
    except MalformedKey as exc:
        return str(exc)
    if EntryKind(entry["kind"]) not in ALLOWED_KINDS[namespace]:
        return f"kind {entry['kind']!r} not allowed under namespace {namespace!r} (key {key})"
    payload, kind = entry["payload"], entry["kind"]
    if not payload:
        return f"payload for {key} must be a non-empty mapping"
    named = {"proposal": "proposal", "action": "action record"}.get(kind)
    required = {"proposal": {"proposition", "evidence"}, "action": {"name", "args", "status"}}
    missing = required.get(kind, set()) - set(payload)
    if missing:
        return f"{named} {key} missing fields {sorted(missing)}"
    if kind == "action" and payload["status"] != "executed":
        status = payload["status"]
        return f"action record {key} has status {status!r}; expected one of ('executed',)"
    if kind == "termination_flag" and not isinstance(payload.get("terminated"), bool):
        return f"termination flag {key} requires boolean field 'terminated'"
    if kind == "control_feedback" and not isinstance(payload.get("message"), str):
        return f"control feedback {key} requires string field 'message'"
    if entry["version"] < 1:
        return f"has version {entry['version']}; versions start at 1"
    return None


def oracle_error(data: dict) -> str | None:
    """The ``ParseError`` text the two-walk decoder gave for cycle record ``data``, or None."""
    cycle = data.get("cycle")
    if not is_int(cycle):
        return f"cycle number must be an integer, got {cycle!r}"
    problem = record_problem(data)
    if problem:
        return f"cycle {cycle}: {problem}"
    for index, entry in enumerate(data.get("memory_delta", [])):
        problem = entry_problem(entry)
        if problem:
            return f"cycle {cycle}: memory_delta[{index}] {problem}"
    return None


# One field edit per check the decoder makes, in the order it makes them. Two of
# them in one record show which problem is reported first.
BREAKS = [
    (("proposal",), 5),
    (("decision",), "approved"),
    (("invocation",), []),
    (("proposal", "call", "arguments"), "x"),
    (("decision", "call", "arguments"), []),
    (("proposal", "citations"), "obs.Seoul"),
    (("decision", "rule_ids"), ["R-ARGS", 3]),
    (("invocation", "outcome"), True),
    (("invocation", "args"), ["Seoul"]),
    (("invocation", "outcome", "ok"), "yes"),
    (("invocation", "outcome"), {"ok": True}),
    (("fault_label",), ["duplicate"]),
    (("input_digest",), 5),
    (("log_lines",), ["ok", None]),
    (("memory_delta",), {}),
    (("consumptions",), "ab"),
    (("consumptions",), [["obs.Seoul.temp_f", 51.8], ["obs.Seoul.temp_f"]]),
    (("memory_delta",), [DELTA_ENTRY, {**DELTA_ENTRY, "version": "1"}]),
    (("memory_delta",), [{**DELTA_ENTRY, "kind": "gossip", "source": None}]),
    (("memory_delta",), [{**DELTA_ENTRY, "key": "obs. Seoul", "payload": {}}]),
    (("memory_delta",), [{**DELTA_ENTRY, "kind": "action", "version": 0}]),
    (("memory_delta",), [{**DELTA_ENTRY, "key": "act.book", "kind": "action", "version": 0}]),
    (("memory_delta",), [{**DELTA_ENTRY, "key": "act.book", "kind": "action",
                          "payload": {"name": "book", "args": {}, "status": "planned"}}]),
    (("memory_delta",), [{**DELTA_ENTRY, "key": "feedback.cycle1", "kind": "control_feedback"}]),
    (("memory_delta",), [DELTA_ENTRY, {**DELTA_ENTRY, "payload": {}, "version": -5}]),
    (("cycle",), "1"),
]


def set_path(record: dict, path: tuple[str, ...], value) -> None:
    """Set ``record`` at ``path``, replacing any non-object on the way with an object."""
    for key in path[:-1]:
        if not isinstance(record.get(key), dict):
            record[key] = {}
        record = record[key]
    record[path[-1]] = value


def test_record_decoder_reports_the_problem_the_oracle_reports_first():
    line = fuzz_sources()[0].splitlines()[2]  # cycle 1: a proposal, decision and invocation
    for edits in permutations(BREAKS, 2):
        record = json.loads(line)
        for path, value in edits:
            set_path(record, path, value)
        with pytest.raises(ParseError) as raised:
            CycleRecord.from_dict(record)
        assert str(raised.value) == oracle_error(record), edits


@settings(whole_episodes, max_examples=500)
@given(data=st.data())
def test_record_decoder_agrees_with_the_two_walk_oracle(data):
    """A real cycle line with one field mutated at random, or with one or two edits from
    BREAKS besides: the same record back, or the oracle's error for its first problem."""
    source = fuzz_sources()[data.draw(st.integers(0, 1), label="source")]
    cycles = source.splitlines()[1:]
    line = [json.loads(cycles[data.draw(st.integers(0, len(cycles) - 1), label="cycle")])]
    mutate(data, line)
    record = line[0]
    assume(type(record) is dict)  # `loads` rejects any other line before decoding it
    for path, value in data.draw(st.lists(st.sampled_from(BREAKS), max_size=2), label="breaks"):
        set_path(record, path, value)
    expected = oracle_error(record)
    try:
        decoded = CycleRecord.from_dict(record)
    except ParseError as exc:
        assert str(exc) == expected
    else:
        assert expected is None
        written = {**CycleRecord(0).to_dict(), **record, "type": "cycle"}
        assert canonical_json(decoded.to_dict()) == canonical_json(written)


@pytest.mark.parametrize(
    "path, value, fragment",
    [
        pytest.param(("memory_delta", 1, "key"), "bogus",
                     r"memory_delta\[1\] unknown namespace 'bogus' in key 'bogus'",
                     id="key-bogus"),
        pytest.param(("memory_delta", 1, "key"), "obs. Seoul",
                     r"memory_delta\[1\] empty or whitespace segment in key 'obs. Seoul'",
                     id="key-space"),
        pytest.param(("memory_delta", 1, "payload"), {},
                     r"memory_delta\[1\] payload for obs.Seoul must be a non-empty mapping",
                     id="payload-empty"),
        pytest.param(("memory_delta", 1, "version"), -5,
                     r"memory_delta\[1\] has version -5; versions start at 1",
                     id="version-negative"),
        pytest.param(("invocation", "outcome", "ok"), "yes",
                     "invocation.outcome.ok must be a boolean", id="ok-string"),
    ],
)
def test_entries_the_store_never_writes_are_rejected(
    clean_trace, tmp_path, capsys, path, value, fragment
):
    """A loaded delta entry meets the store's own entry rules, and an outcome's ``ok`` is a
    boolean; chains and metrics would otherwise score what no episode can write."""
    lines = clean_trace.dumps().splitlines()
    record = json.loads(lines[2])  # cycle 1: an approved get_weather and its observation
    node = record
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    lines[2] = json.dumps(record)
    text = "\n".join(lines) + "\n"
    with pytest.raises(ParseError, match=f"^line 3: cycle 1: {fragment}"):
        EpisodeTrace.loads(text)
    trace_path = tmp_path / "mutated.jsonl"
    trace_path.write_text(text, encoding="utf-8")
    assert main(["trace", str(trace_path)]) == 1
    assert capsys.readouterr().err.startswith("trace error: line 3: cycle 1: ")


def without(field: str):
    return lambda payload: payload.pop(field)


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(
            ("payload", lambda payload: payload.update(status="planned")),
            "line 5: cycle 3: memory_delta[1] action record act.book_flight has status "
            "'planned'; expected one of ('executed',)", id="status-planned"),
        pytest.param(
            ("payload", without("args")),
            "line 5: cycle 3: memory_delta[1] action record act.book_flight missing fields "
            "['args']", id="args-missing"),
        pytest.param(
            ("entry", lambda entry: entry.update(version=7)),
            "cycle 3: memory_delta[1] act.book_flight has version 7; its last version is 0",
            id="version-skips"),
        pytest.param(
            ("outcome", without("payload")),
            "line 5: cycle 3: invocation.outcome.payload must be an object when ok is true",
            id="ok-without-payload"),
    ],
)
def test_histories_the_store_never_writes_are_rejected(clean_trace, tmp_path, capsys,
                                                        edit, message):
    """Loading applies every rule a write does, to the booking cycle's action record, and
    a loaded history is one a store could write: each key's versions count up from 1, and
    a successful outcome holds its payload. Each edit loaded and scored complete before."""
    lines = clean_trace.dumps().splitlines()
    record = json.loads(lines[4])  # cycle 3: the approved book_flight and its action record
    entry = record["memory_delta"][1]
    assert (record["cycle"], entry["key"]) == (3, "act.book_flight")
    part, change = edit
    change({"payload": entry["payload"], "entry": entry,
            "outcome": record["invocation"]["outcome"]}[part])
    lines[4] = json.dumps(record)
    text = "\n".join(lines) + "\n"
    with pytest.raises(ParseError) as raised:
        EpisodeTrace.loads(text)
    assert str(raised.value) == message
    trace_path = tmp_path / "edited.jsonl"
    trace_path.write_text(text, encoding="utf-8")
    assert main(["trace", str(trace_path)]) == 1
    assert capsys.readouterr().err == f"trace error: {message}\n"


def test_well_formed_delta_loads():
    trace = EpisodeTrace.loads(with_delta(DELTA_ENTRY))
    assert trace.snapshot_before(2).resolve("obs.Seoul.temp_f") == 51.8


@pytest.mark.parametrize(
    "order, message",
    [
        ("reversed", "line 3: cycle 3 does not follow cycle 4"),
        ("repeated", "line 4: cycle 1 does not follow cycle 1"),
    ],
)
def test_cycle_numbers_must_increase(clean_trace, tmp_path, capsys, order, message):
    header, *cycles = clean_trace.dumps().splitlines()
    cycles = cycles[::-1] if order == "reversed" else cycles[:2] + cycles[1:]
    text = "\n".join([header, *cycles]) + "\n"
    with pytest.raises(ParseError, match=message):
        EpisodeTrace.loads(text)
    path = tmp_path / "unordered.jsonl"
    path.write_text(text, encoding="utf-8")
    assert main(["trace", str(path)]) == 1
    assert "does not follow" in capsys.readouterr().err


@lru_cache(maxsize=1)
def golden_sweep() -> tuple[str, ...]:
    """Every trace of the golden suite50 sweep at all=0.1, governed then baseline."""
    faults, texts = parse_faults("all=0.1"), []
    for scenario in load_suite(SUITE_DIR):
        for seed in scenario.seeds:
            config = scenario.episode_config(seed, faults=faults)
            texts.append(run_episode(config).trace.dumps())
            texts.append(run_baseline_episode(
                config, scenario.baseline_budget, scenario.baseline_decay).trace.dumps())
    return tuple(texts)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_deleted_interior_cycle_line_fails_to_load(data):
    """A rejection that writes only fresh keys leaves no version gap when its line is
    deleted; the line after it still names the cycle it does not follow."""
    lines = data.draw(st.sampled_from(golden_sweep()), label="trace").splitlines()
    assume(len(lines) > 3)  # the header, cycle 0, an interior cycle and the last
    line_no = data.draw(st.integers(3, len(lines) - 1), label="deleted line")
    del lines[line_no - 1]
    cycle = line_no - 2  # line 2 is cycle 0
    with pytest.raises(ParseError) as raised:
        EpisodeTrace.loads("\n".join(lines) + "\n")
    assert str(raised.value) == (
        f"line {line_no}: cycle {cycle + 1} does not follow cycle {cycle - 1}"
    )


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_trace_cut_short_fails_to_load(data, tmp_path, capsys):
    """The loop ends an episode only on a terminate decision or at its budget's last cycle,
    so a trace whose last cycle lines were cut off names the cycle it now ends on."""
    lines = data.draw(st.sampled_from(golden_sweep()), label="trace").splitlines()
    cut = data.draw(st.integers(1, len(lines) - 2), label="lines cut")  # keep cycle 0
    text = "\n".join(lines[:-cut]) + "\n"
    last = len(lines) - cut - 2  # line 2 is cycle 0
    max_cycles = json.loads(lines[0])["max_cycles"]
    message = (f"cycle {last}: ends the trace but neither terminates the episode nor is its "
               f"last cycle (max_cycles {max_cycles}); cycles are missing")
    with pytest.raises(ParseError) as raised:
        EpisodeTrace.loads(text)
    assert str(raised.value) == message
    path = tmp_path / "cut.jsonl"
    path.write_text(text, encoding="utf-8")
    assert main(["trace", str(path)]) == 1
    assert capsys.readouterr().err == f"trace error: {message}\n"


def test_a_cycle_past_the_budget_fails_to_load(clean_trace, tmp_path, capsys):
    header, *cycles = clean_trace.dumps().splitlines()
    assert len(cycles) == 5
    edited = json.loads(header)
    edited["max_cycles"] = 3
    text = "\n".join([json.dumps(edited), *cycles]) + "\n"
    message = "line 6: cycle 4 is past the header's max_cycles 3"
    with pytest.raises(ParseError) as raised:
        EpisodeTrace.loads(text)
    assert str(raised.value) == message
    path = tmp_path / "over_budget.jsonl"
    path.write_text(text, encoding="utf-8")
    assert main(["trace", str(path)]) == 1
    assert capsys.readouterr().err == f"trace error: {message}\n"


# ------------------------------------------------------------------- replay
def test_snapshot_before_replays_deltas_in_cycle_order(clean_trace):
    before_first = clean_trace.snapshot_before(1)
    assert before_first.resolve("goal.choose_colder.rule")
    assert before_first.resolve("obs.Seoul.temp_f") is NOT_FOUND
    before_second = clean_trace.snapshot_before(2)
    assert before_second.resolve("obs.Seoul.temp_f") == 51.8
    assert before_second.resolve("obs.Jeju.temp_f") is NOT_FOUND
    before_third = clean_trace.snapshot_before(3)
    assert before_third.resolve("obs.Jeju.temp_f") == 60.8


def snapshot_state(snapshot: MemorySnapshot) -> tuple:
    return (
        snapshot.entries,
        {e.key for e in snapshot.entries},
        snapshot.read(),
        snapshot.read(MemoryQuery(latest_only=True)),
    )


@settings(whole_episodes, max_examples=15)
@given(
    suite_seed=suite_seeds,
    episode_seed=episode_seeds,
    faults=fault_configs,
    baseline=st.booleans(),
)
def test_replay_snapshots_equal_snapshot_before(suite_seed, episode_seed, faults, baseline):
    scenario = generate_suite(1, suite_seed)[0]
    config = scenario.episode_config(episode_seed, faults=faults)
    if baseline:
        result = run_baseline_episode(config, scenario.baseline_budget, scenario.baseline_decay)
    else:
        result = run_episode(config)
    text = result.trace.dumps()
    trace = EpisodeTrace.loads(text)
    # The reloaded records are the live ones, and read back the same.
    assert trace.cycles == result.trace.cycles
    assert trace.dumps() == text
    assert compute_metrics(trace) == compute_metrics(result.trace)
    assert list(iter_chains(trace)) == list(iter_chains(result.trace))
    committed: list[MemoryEntry] = []
    for record, snapshot in trace.replay():
        state = snapshot_state(snapshot)
        assert state == snapshot_state(trace.snapshot_before(record.cycle))
        assert state == snapshot_state(MemorySnapshot(tuple(committed)))
        committed.extend(record.memory_delta)
    assert tuple(committed) == result.store.entries()  # replay equals the store


# The ROADMAP scaling probe: 237 cycles that commit 476 entries.
PROBE_FAULTS = FaultConfig(seed=3, p_duplicate=0.995)


def test_each_delta_entry_is_decoded_once_at_load(two_city, monkeypatch):
    """Only ``dumps`` encodes committed entries and only ``loads`` decodes them."""
    calls = Counter()
    decode = MemoryEntry.from_dict.__func__
    encode = MemoryEntry.to_dict

    def counting_decode(cls, data):
        calls["from_dict"] += 1
        return decode(cls, data)

    def counting_encode(entry):
        calls["to_dict"] += 1
        return encode(entry)

    monkeypatch.setattr(MemoryEntry, "from_dict", classmethod(counting_decode))
    monkeypatch.setattr(MemoryEntry, "to_dict", counting_encode)
    result = run_episode(two_city.episode_config(seed=1, faults=PROBE_FAULTS, max_cycles=5000))
    total = sum(len(r.memory_delta) for r in result.trace.cycles)
    assert (result.cycles_used, total) == (237, 476)
    compute_metrics(result.trace)
    list(iter_chains(result.trace))
    assert calls == {}
    text = result.trace.dumps()
    assert calls == {"to_dict": total}
    calls.clear()
    trace = EpisodeTrace.loads(text)
    assert calls == {"from_dict": total}
    calls.clear()
    compute_metrics(trace)
    list(iter_chains(trace))
    assert isinstance(reconstruct_chain(trace, "act.book_flight"), JustificationChain)
    assert calls == {}


def test_governed_view_renders_each_entry_once(two_city, monkeypatch):
    """Input assembly costs O(delta): no whole-snapshot read, each entry visited once."""
    rendered = []
    original = cognition.format_memory_fact

    def counting(entry):
        rendered.append((entry.key, entry.version))
        return original(entry)

    full_reads = visited = 0
    assembling = False

    class CountedEntries(list):
        def __iter__(self):
            nonlocal visited
            for entry in list.__iter__(self):
                visited += 1
                yield entry

    since = MemorySnapshot.since
    read = MemorySnapshot.read
    assemble = loop.assemble_input

    def counted_since(snapshot, start):
        return CountedEntries(since(snapshot, start)) if assembling else since(snapshot, start)

    def counting_read(snapshot, query=MemoryQuery()):
        nonlocal full_reads
        full_reads += assembling and query.prefix is None
        return read(snapshot, query)

    def assembling_input(*args, **kwargs):
        nonlocal assembling
        assembling = True
        try:
            return assemble(*args, **kwargs)
        finally:
            assembling = False

    monkeypatch.setattr(cognition, "format_memory_fact", counting)
    monkeypatch.setattr(MemorySnapshot, "since", counted_since)
    monkeypatch.setattr(MemorySnapshot, "read", counting_read)
    monkeypatch.setattr(loop, "assemble_input", assembling_input)
    result = run_episode(two_city.episode_config(seed=1, faults=PROBE_FAULTS, max_cycles=5000))
    assert result.cycles_used == 237
    assert len(rendered) == len(set(rendered)) <= len(result.store.entries())
    assert full_reads == 0
    # Every one of the 476 committed entries but the last cycle's two, which no input reads.
    last_commit = len(result.trace.cycles[-1].memory_delta)
    assert visited == len(result.store.entries()) - last_commit == 476 - 2


# ------------------------------------------------------------------- chains
def test_clean_trace_chains_are_complete(clean_trace):
    chains = list(iter_chains(clean_trace))
    assert [type(c) for c in chains] == [JustificationChain] * 3
    tools = [c.call["name"] for c in chains]
    assert tools == ["get_weather", "get_weather", "book_flight"]
    book = chains[2]
    assert book.citations == [
        "obs.Seoul.temp_f < obs.Jeju.temp_f",
        "goal.choose_colder.rule",
    ]
    resolved = {key: value for key, value in book.resolved}
    assert resolved["obs.Seoul.temp_f"] == 51.8
    assert resolved["obs.Jeju.temp_f"] == 60.8
    assert book.entries and book.entries[0].payload["confirmation"] == "ABC123"


def test_reconstruct_chain_by_action_reference(clean_trace):
    chain = reconstruct_chain(clean_trace, "act.book_flight")
    assert isinstance(chain, JustificationChain)
    assert chain.call == {"name": "book_flight", "arguments": {"location": "Seoul"}}
    versioned = reconstruct_chain(clean_trace, "act.book_flight@1")
    assert versioned.cycle == chain.cycle
    with pytest.raises(UnknownAction):
        reconstruct_chain(clean_trace, "act.make_chart")
    with pytest.raises(UnknownAction):
        reconstruct_chain(clean_trace, "act.book_flight@7")


def test_missing_proposal_breaks_chain(clean_trace):
    broken = reparse(clean_trace)
    cycle_of(broken, "book_flight").proposal = None
    gap = reconstruct_chain(broken, "act.book_flight")
    assert isinstance(gap, GapReport) and gap.missing_link == "proposal"


def test_unapproved_decision_breaks_chain(clean_trace):
    broken = reparse(clean_trace)
    cycle_of(broken, "book_flight").decision["verdict"] = "rejected"
    gap = reconstruct_chain(broken, "act.book_flight")
    assert isinstance(gap, GapReport) and gap.missing_link == "decision"


def test_decision_for_different_call_breaks_chain(clean_trace):
    broken = reparse(clean_trace)
    cycle_of(broken, "book_flight").decision["call"]["arguments"]["location"] = "Jeju"
    gap = reconstruct_chain(broken, "act.book_flight")
    assert isinstance(gap, GapReport)
    assert gap.missing_link == "decision" and "different call" in gap.detail


def test_approved_cycle_without_invocation_is_a_gap(clean_trace):
    broken = reparse(clean_trace)
    cycle_of(broken, "book_flight").invocation = None
    gaps = [c for c in iter_chains(broken) if isinstance(c, GapReport)]
    assert len(gaps) == 1 and gaps[0].missing_link == "invocation"
    assert "never logged" in gaps[0].detail


def test_execution_without_memory_entries_is_a_gap(clean_trace):
    broken = reparse(clean_trace)
    record = cycle_of(broken, "book_flight")
    record.memory_delta = [e for e in record.memory_delta if e.kind != "action"]
    gap = next(c for c in iter_chains(broken) if isinstance(c, GapReport))
    assert gap.missing_link == "memory_entries"


def test_unresolvable_citation_breaks_chain(clean_trace):
    broken = reparse(clean_trace)
    seoul_gather = cycle_of(broken, "get_weather")
    seoul_gather.memory_delta = []  # the observation the citation depends on
    gaps = [c for c in iter_chains(broken) if isinstance(c, GapReport)]
    citation_gaps = [g for g in gaps if g.missing_link == "citation"]
    assert citation_gaps and "obs.Seoul.temp_f does not resolve" in citation_gaps[0].detail


def test_unsupported_citation_breaks_chain(clean_trace):
    broken = reparse(clean_trace)
    seoul_gather = cycle_of(broken, "get_weather")
    for entry in seoul_gather.memory_delta:
        if entry.key == "obs.Seoul":
            entry.payload["temp_f"] = 70.0  # warmer than Jeju: claim now false
    gap = next(c for c in iter_chains(broken) if isinstance(c, GapReport))
    assert gap.missing_link == "citation" and "not supported by memory" in gap.detail


def test_unparseable_citation_breaks_chain(clean_trace):
    broken = reparse(clean_trace)
    cycle_of(broken, "book_flight").proposal["citations"] = ["<= obs.Seoul.temp_f"]
    gap = reconstruct_chain(broken, "act.book_flight")
    assert isinstance(gap, GapReport)
    assert gap.missing_link == "citation" and "unparseable" in gap.detail


@pytest.mark.parametrize("citation", [["obs.Seoul.temp_f"], {"key": "obs.Seoul"}, 51.8, None])
def test_citation_that_is_no_string_is_a_gap(clean_trace, tmp_path, capsys, citation):
    broken = reparse(clean_trace)
    cycle_of(broken, "book_flight").proposal["citations"] = [citation]
    path = tmp_path / "cited.jsonl"
    broken.dump(path)
    for _ in range(2):  # the second audit meets the values the first one parsed
        assert main(["trace", str(path)]) == 3
        assert "[citation]" in capsys.readouterr().out
    assert compute_metrics(EpisodeTrace.load(path))["tc"].numerator == 2


def test_idempotent_invocation_needs_no_fresh_entries(clean_trace):
    mutated = reparse(clean_trace)
    jeju = mutated.cycles[2]
    assert jeju.invocation["args"]["location"] == "Jeju"
    jeju.memory_delta = []
    jeju.invocation["idempotency_hit"] = True
    chains = list(iter_chains(mutated))
    assert isinstance(chains[1], JustificationChain)  # cached repeat still justified
    assert isinstance(chains[2], GapReport)  # but the booking cited the lost fact


# ------------------------------------------------------------------- metrics
def test_clean_trace_metrics_perfect(clean_trace):
    metrics = compute_metrics(clean_trace)
    assert set(metrics) == {"spa", "tc"}
    assert "elp" not in metrics
    assert metrics["spa"].ratio == 1.0 and metrics["spa"].denominator > 0
    assert metrics["tc"].ratio == 1.0 and metrics["tc"].denominator == 3


def test_spa_only_counts_previously_persisted_reads(clean_trace):
    spa = compute_metrics(clean_trace)["spa"]
    # Gather-phase reads of not-yet-observed facts must not dilute the score.
    all_consumptions = sum(len(r.consumptions) for r in clean_trace.cycles)
    assert 0 < spa.denominator < all_consumptions


def test_spa_detects_stale_consumption(clean_trace):
    corrupted = reparse(clean_trace)
    book = cycle_of(corrupted, "book_flight")
    for pair in book.consumptions:
        if pair[0] == "obs.Seoul.temp_f":
            pair[1] = 99.9  # claims to have read a value memory never held
    baseline = compute_metrics(clean_trace)["spa"]
    corrupt = compute_metrics(corrupted)["spa"]
    assert corrupt.denominator == baseline.denominator
    assert corrupt.numerator == baseline.numerator - 1


def test_tc_drops_when_a_chain_breaks(clean_trace):
    broken = reparse(clean_trace)
    cycle_of(broken, "book_flight").proposal = None
    tc = compute_metrics(broken)["tc"]
    assert tc.numerator == 2 and tc.denominator == 3


def test_elp_credits_matching_rule_citations(two_city):
    faults = FaultConfig(seed=3, p_missing_arg=0.5)
    result = run_episode(two_city.episode_config(seed=4, faults=faults))
    metrics = compute_metrics(result.trace)
    assert "elp" in metrics
    elp = metrics["elp"]
    assert elp.denominator > 0 and elp.ratio == 1.0

    corrupted = reparse(result.trace)
    labeled = next(r for r in corrupted.cycles if r.fault_label)
    labeled.decision["rule_ids"] = ["R-SEQ"]  # localized to the wrong rule
    worse = compute_elp(corrupted)
    assert worse.numerator == elp.numerator - 1
    assert worse.denominator == elp.denominator


def test_elp_accepts_either_premature_action_rule(two_city):
    faults = FaultConfig(seed=2, p_premature_action=1.0)
    result = run_episode(two_city.episode_config(seed=1, faults=faults, max_cycles=4))
    elp = compute_elp(result.trace)
    assert elp.denominator > 0 and elp.ratio == 1.0


def test_elp_excludes_budget_terminated_cycles(two_city):
    faults = FaultConfig(seed=1, p_missing_arg=1.0)
    result = run_episode(two_city.episode_config(seed=1, faults=faults, max_cycles=3))
    labeled = [r for r in result.trace.cycles if r.fault_label]
    assert labeled[-1].decision["verdict"] == "terminate"
    elp = compute_elp(result.trace)
    assert elp.denominator == len(labeled) - 1
    assert elp.ratio == 1.0


def test_metric_rendering_and_undefined_ratio():
    empty = Metric("elp", 0, 0)
    assert empty.ratio is None
    assert empty.to_dict() == {"numerator": 0, "denominator": 0, "ratio": None}


def test_metrics_undefined_on_empty_trace():
    header = TraceHeader(config_digest="d", scenario="s", seed=1, baseline=False,
                         proposer="faulty", ruleset_version="v", max_cycles=1)
    empty = EpisodeTrace(header=header, cycles=[])
    metrics = compute_metrics(empty)
    assert all(m.ratio is None for m in metrics.values())


def test_aggregate_is_micro_average():
    episodes = [
        {"spa": Metric("spa", 1, 2)},
        {"spa": Metric("spa", 3, 4), "elp": Metric("elp", 2, 3)},
        {"spa": Metric("spa", 0, 0)},
    ]
    combined = aggregate_metrics(episodes)
    assert combined["spa"].numerator == 4 and combined["spa"].denominator == 6
    assert combined["spa"].ratio == pytest.approx(4 / 6)
    assert combined["elp"].numerator == 2 and combined["elp"].denominator == 3
    assert aggregate_metrics([]) == {}
