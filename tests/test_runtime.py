"""Tool execution: schemas, faults, idempotency, staging, determinism."""
from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cogloop import runtime as runtime_module
from cogloop.memory import EntryKind
from cogloop.runtime import (
    EXTRA_SPECS,
    GET_WEATHER,
    ArgField,
    ErrorCode,
    Runtime,
    ToolCall,
    ToolSpec,
    WorldState,
    argument_problems,
    builtin_registry,
    canon_args,
    confirmation_token,
    simulated_latency,
)
from cogloop.scenario import load_scenario

from conftest import SCENARIO_DIR, SUITE_DIR

WEATHER_ROWS = [
    {"location": "Seoul", "date": "2025-06-14", "temp_f": 51.8, "precipitation": False},
    {"location": "Jeju", "date": "2025-06-14", "temp_f": 60.8, "precipitation": False},
]


def make_runtime(seed: int = 11121374, faults: list[dict] | None = None,
                 extra_tools: list[str] | None = None) -> Runtime:
    world = WorldState.from_dict(
        {"seed": seed, "weather": WEATHER_ROWS, "fault_schedule": faults or []}
    )
    return Runtime(builtin_registry(extra_tools), world)


# A test-local tool: one number argument, and a handler that returns an int.
GAUGE = ToolSpec(
    name="gauge",
    args=(ArgField("reading", "number"),),
    output=(ArgField("total", "number"),),
    handler=lambda args, world: {"total": 9},
)


# --------------------------------------------------------------- canon_args
def test_canon_args_sorts_and_trims():
    args = {"b": "  x ", "a": {"z": 1, "y": [" s "]}}
    assert canon_args(args) == {"a": {"y": ["s"], "z": 1}, "b": "x"}


def test_call_id_insensitive_to_argument_order_and_whitespace():
    a = ToolCall("get_weather", {"location": "Seoul", "date": "2025-06-14"})
    b = ToolCall("get_weather", {"date": "2025-06-14 ", "location": " Seoul"})
    assert a.call_id() == b.call_id()


@given(st.dictionaries(st.text(min_size=1), st.integers(), max_size=5))
def test_canon_args_is_idempotent(args):
    once = canon_args(args)
    assert canon_args(once) == once


@given(st.recursive(
    st.text(" ab", max_size=3) | st.integers(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("ab", max_size=2), inner,
                                                               max_size=3),
    max_leaves=8,
).filter(lambda value: isinstance(value, dict)))
def test_canonical_call_writes_out_as_the_canonical_arguments(arguments):
    """A call's decision form has the canonical arguments' JSON text, key order included."""
    assert json.dumps(ToolCall("t", arguments).canonical_dict()) == json.dumps(
        {"name": "t", "arguments": canon_args(arguments)}
    )


# ------------------------------------------------------- argument validation
def test_missing_required_argument_reported():
    problems = argument_problems(GET_WEATHER, {"location": "Seoul"})
    assert problems == ["missing required argument 'date'"]


@pytest.mark.parametrize("bad", ["", "  ", "TBD", None])
def test_placeholder_arguments_reported(bad):
    problems = argument_problems(GET_WEATHER, {"location": bad, "date": "2025-06-14"})
    assert len(problems) == 1 and "placeholder" in problems[0]


def test_wrong_type_and_unknown_argument_reported():
    problems = argument_problems(
        GET_WEATHER, {"location": 42, "date": "2025-06-14", "speed": 9}
    )
    assert any("must be string" in p for p in problems)
    assert any("unknown argument 'speed'" in p for p in problems)


def test_boolean_is_not_a_number():
    problems = argument_problems(GAUGE, {"reading": True})
    assert problems == ["argument 'reading' must be number, got True"]


# --------------------------------------------------------------- registries
def test_extra_tools_are_opt_in():
    assert "make_chart" not in builtin_registry()
    assert "make_chart" in builtin_registry(["make_chart"])
    with pytest.raises(KeyError):
        builtin_registry(["teleport"])


def test_every_registered_tool_is_named_by_a_shipped_scenario():
    named = set()
    for path in [*SCENARIO_DIR.glob("*.json"), *SUITE_DIR.glob("*.json")]:
        policy = load_scenario(path).policy
        named.add(policy.gather.tool)
        named.update(
            call.name for branch in policy.goal.all_branches() for call in branch.actions
        )
    assert set(builtin_registry(list(EXTRA_SPECS))) == named


# ------------------------------------------------------------------- tokens
def test_confirmation_token_known_value():
    assert confirmation_token(11121374, 1) == "ABC123"


def test_confirmation_token_format_and_determinism():
    for seed, ordinal in [(0, 1), (5150205, 2), (999999, 17)]:
        token = confirmation_token(seed, ordinal)
        assert token == confirmation_token(seed, ordinal)
        assert len(token) == 6 and token[:3].isalpha() and token[3:].isdigit()
    assert confirmation_token(11121374, 1) != confirmation_token(11121374, 2)


# ---------------------------------------------------------------- execution
def test_get_weather_success_payload_and_staging():
    runtime = make_runtime()
    call = ToolCall("get_weather", {"location": "Seoul", "date": "2025-06-14"})
    result, staged = runtime.execute(call, cycle=1)
    assert result.ok and result.payload == {
        "location": "Seoul", "temp_f": 51.8, "precipitation": False
    }
    assert isinstance(result.payload["temp_f"], float)
    assert [(w.key, w.kind) for w in staged] == [("obs.Seoul", EntryKind.OBSERVATION)]
    assert staged[0].payload == result.payload


def test_integer_outputs_normalized_to_float():
    runtime = Runtime({GAUGE.name: GAUGE}, WorldState())
    result, _ = runtime.execute(ToolCall("gauge", {"reading": 1.5}))
    assert result.ok and result.payload == {"total": 9.0}
    assert isinstance(result.payload["total"], float)


def test_book_flight_stages_action_record_with_confirmation():
    runtime = make_runtime(seed=11121374)
    result, staged = runtime.execute(ToolCall("book_flight", {"location": "Seoul"}))
    assert result.ok and result.payload == {"confirmation": "ABC123"}
    assert len(staged) == 1
    write = staged[0]
    assert (write.key, write.kind) == ("act.book_flight", EntryKind.ACTION)
    assert write.payload == {
        "name": "book_flight",
        "args": {"location": "Seoul"},
        "status": "executed",
        "confirmation": "ABC123",
    }


def test_send_email_effect_and_outbox():
    runtime = make_runtime()
    call = ToolCall("send_email", {"to": "a@example.com", "subject": "s", "body": "b"})
    result, staged = runtime.execute(call)
    assert result.ok and result.payload == {"message_id": "MSG-0001"}
    assert runtime.world.outbox == [{"to": "a@example.com", "subject": "s", "body": "b"}]
    assert staged[0].key == "act.send_email"


def test_unknown_tool_is_unavailable():
    runtime = make_runtime()
    result, staged = runtime.execute(ToolCall("teleport", {"to": "Mars"}))
    assert not result.ok and result.error_code is ErrorCode.TOOL_UNAVAILABLE
    assert staged == [] and result.payload is None


def test_schema_violation_blocks_handler():
    runtime = make_runtime()
    result, _ = runtime.execute(ToolCall("get_weather", {"location": "Seoul"}))
    assert result.error_code is ErrorCode.SCHEMA_VIOLATION
    assert runtime.world.handler_calls == {}


def test_domain_error_for_missing_forecast():
    runtime = make_runtime()
    result, _ = runtime.execute(
        ToolCall("get_weather", {"location": "Atlantis", "date": "2025-06-14"})
    )
    assert result.error_code is ErrorCode.DOMAIN_ERROR
    assert "Atlantis" in result.error_message


# -------------------------------------------------------------- idempotency
def test_repeat_call_served_from_cache():
    runtime = make_runtime()
    call = ToolCall("get_weather", {"location": "Seoul", "date": "2025-06-14"})
    first, first_staged = runtime.execute(call, cycle=1)
    payloads = [first.payload]
    for k in range(2, 6):
        repeat, staged = runtime.execute(call, cycle=k)
        assert repeat.ok and repeat.idempotency_hit
        assert staged == []
        payloads.append(repeat.payload)
    assert all(p == first.payload for p in payloads)
    assert runtime.world.handler_calls["get_weather"] == 1
    assert len(runtime.invocation_log) == 5
    assert [r["idempotency_hit"] for r in runtime.invocation_log] == [
        False, True, True, True, True
    ]


def test_cached_call_is_answered_before_its_checks(monkeypatch):
    """A cached call id returns the cached payload as a hit, logged with the same record
    fields as the first run, and its arguments are not checked again."""
    runtime = make_runtime()
    call = ToolCall("get_weather", {"location": "Seoul", "date": "2025-06-14"})
    first, _ = runtime.execute(call, cycle=1)

    def checked_again(spec, arguments):
        raise AssertionError("a cached call id was checked again")

    monkeypatch.setattr(runtime_module, "argument_problems", checked_again)
    again, staged = runtime.execute(call, cycle=2)
    assert again.ok and again.idempotency_hit and staged == []
    assert again.payload == first.payload and again.payload is not first.payload
    logged_first, logged_again = runtime.invocation_log
    assert logged_again == {**logged_first, "cycle": 2, "latency_ms": again.latency_ms,
                            "idempotency_hit": True}


# A set is no JSON value: such a call has no call id, and fails its checks.
ARGUMENT_VALUES = st.sampled_from(
    ["Seoul", " Seoul ", "2025-06-14", "", "TBD", None, 3, True, {"Seoul"}]
)


@given(
    tool=st.sampled_from(["get_weather", "book_flight", "teleport"]),
    arguments=st.dictionaries(st.sampled_from(["location", "date", "extra"]), ARGUMENT_VALUES),
)
def test_a_call_that_fails_its_checks_is_never_cached(tool, arguments):
    """Only a call id that passed `argument_problems` against the registry enters the cache,
    so answering from the cache first skips no failing check."""
    runtime = make_runtime()
    call = ToolCall(tool, arguments)
    spec = runtime.registry.get(tool)
    failing = spec is None or bool(argument_problems(spec, call.canonical_args))
    results = [runtime.execute(call, cycle)[0] for cycle in (1, 2)]
    if failing:
        assert [r.error_code for r in results] == [
            ErrorCode.SCHEMA_VIOLATION if spec else ErrorCode.TOOL_UNAVAILABLE
        ] * 2
        assert not any(r.idempotency_hit for r in results)  # a cached id would hit
    else:
        assert results[1].idempotency_hit == results[0].ok


def test_cache_keyed_by_canonical_arguments():
    runtime = make_runtime()
    runtime.execute(ToolCall("get_weather", {"location": "Seoul", "date": "2025-06-14"}))
    reordered = ToolCall("get_weather", {"date": "2025-06-14", "location": " Seoul "})
    result, _ = runtime.execute(reordered)
    assert result.idempotency_hit
    other = ToolCall("get_weather", {"location": "Jeju", "date": "2025-06-14"})
    result, _ = runtime.execute(other)
    assert not result.idempotency_hit


def test_failures_are_not_cached():
    faults = [{"tool": "get_weather", "ordinal": 1, "code": "TransientFailure"}]
    runtime = make_runtime(faults=faults)
    call = ToolCall("get_weather", {"location": "Seoul", "date": "2025-06-14"})
    first, first_staged = runtime.execute(call, cycle=1)
    assert not first.ok and first.error_code is ErrorCode.TRANSIENT_FAILURE
    assert first_staged == []
    second, second_staged = runtime.execute(call, cycle=2)
    assert second.ok and not second.idempotency_hit
    assert [w.key for w in second_staged] == ["obs.Seoul"]


def test_fault_schedule_ordinals_count_real_attempts():
    faults = [{"tool": "get_weather", "ordinal": 2, "code": "ToolUnavailable"}]
    runtime = make_runtime(faults=faults)
    seoul = ToolCall("get_weather", {"location": "Seoul", "date": "2025-06-14"})
    jeju = ToolCall("get_weather", {"location": "Jeju", "date": "2025-06-14"})
    ok1, _ = runtime.execute(seoul)
    cached, _ = runtime.execute(seoul)  # cache hit: consumes no ordinal
    failed, _ = runtime.execute(jeju)
    retried, _ = runtime.execute(jeju)
    assert ok1.ok and cached.idempotency_hit
    assert failed.error_code is ErrorCode.TOOL_UNAVAILABLE
    assert retried.ok


def test_output_schema_mismatch_fails_and_is_not_cached():
    runs = []

    def empty(args, world):
        runs.append(args)
        return {}

    spec = replace(GET_WEATHER, handler=empty)
    runtime = Runtime({spec.name: spec}, WorldState())
    call = ToolCall("get_weather", {"location": "Seoul", "date": "2025-06-14"})
    for cycle in (1, 2):
        result, staged = runtime.execute(call, cycle)
        assert not result.ok and result.error_code is ErrorCode.SCHEMA_VIOLATION
        assert "tool output does not match schema" in result.error_message
        assert result.payload is None and not result.idempotency_hit
        assert staged == []
    assert len(runs) == 2  # the retry ran the handler again
    assert [r["outcome"]["ok"] for r in runtime.invocation_log] == [False, False]


def test_every_outcome_appends_one_invocation_record():
    faults = [{"tool": "book_flight", "ordinal": 1, "code": "TransientFailure"}]
    runtime = make_runtime(faults=faults)
    seoul = ToolCall("get_weather", {"location": "Seoul", "date": "2025-06-14"})
    calls = [
        ToolCall("teleport", {"to": "Mars"}),  # unknown tool
        ToolCall("get_weather", {"location": "Seoul"}),  # argument schema
        ToolCall("book_flight", {"location": "Seoul"}),  # scheduled fault
        ToolCall("get_weather", {"location": "Atlantis", "date": "2025-06-14"}),  # domain
        seoul,  # fresh success
        seoul,  # idempotency hit
    ]
    for ordinal, call in enumerate(calls, start=1):
        result, _ = runtime.execute(call, cycle=ordinal)
        assert len(runtime.invocation_log) == ordinal
        record = runtime.invocation_log[-1]
        assert record["cycle"] == ordinal and record["tool"] == call.name
        assert record["args"] == result.args == call.canonical_args
        assert record["outcome"] == result.outcome_dict()
        assert record["idempotency_hit"] is result.idempotency_hit
        assert record["latency_ms"] == result.latency_ms == simulated_latency(
            runtime.world.seed, ordinal, result.idempotency_hit
        )
    assert [r["outcome"]["ok"] for r in runtime.invocation_log] == [False] * 4 + [True] * 2
    assert runtime.invocation_log[-1]["idempotency_hit"]


# ------------------------------------------------------------------ logging
def test_invocation_log_record_shape():
    runtime = make_runtime()
    runtime.execute(
        ToolCall("get_weather", {"location": "Seoul", "date": "2025-06-14"}), cycle=3
    )
    record = runtime.invocation_log[0]
    assert set(record) == {"cycle", "tool", "args", "outcome", "latency_ms", "idempotency_hit"}
    assert record["cycle"] == 3 and record["tool"] == "get_weather"
    assert record["outcome"]["ok"] is True
    assert record["outcome"]["payload"]["temp_f"] == 51.8


def test_error_outcome_carries_code_and_message():
    runtime = make_runtime()
    runtime.execute(ToolCall("get_weather", {"location": "Seoul"}))
    outcome = runtime.invocation_log[0]["outcome"]
    assert outcome["ok"] is False
    assert outcome["code"] == "SchemaViolation" and outcome["message"]


def test_latencies_deterministic_per_seed():
    def latencies(seed: int) -> list[float]:
        runtime = make_runtime(seed=seed)
        call = ToolCall("get_weather", {"location": "Seoul", "date": "2025-06-14"})
        runtime.execute(call)
        runtime.execute(call)
        runtime.execute(ToolCall("book_flight", {"location": "Seoul"}))
        return [r["latency_ms"] for r in runtime.invocation_log]

    first, again = latencies(7), latencies(7)
    assert first == again
    assert latencies(8) != first
    assert 0.1 <= first[1] <= 0.9  # cache hits answer faster than real calls
    assert first[0] >= 2.0 and first[2] >= 2.0
