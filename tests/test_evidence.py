"""Evidence expressions: grammar round trip and three-valued evaluation."""
from __future__ import annotations

import pytest
from hypothesis import example, given, strategies as st

from cogloop import evidence
from cogloop.evidence import (
    UNKNOWN,
    Comparison,
    EvidenceParseError,
    Literal,
    MemoryRef,
    evaluate,
    evaluate_all,
    parse,
    referenced_keys,
    render,
)
from cogloop.memory import EntryKind, MalformedKey, MemoryStore


@pytest.fixture()
def snapshot():
    store = MemoryStore()
    store.write_staged(
        "obs.Seoul", EntryKind.OBSERVATION, {"temp_f": 51.8, "precipitation": False}, "t"
    )
    store.write_staged(
        "obs.Jeju", EntryKind.OBSERVATION, {"temp_f": 60.8, "precipitation": True}, "t"
    )
    store.write_staged("goal.policy", EntryKind.OBSERVATION, {"rule": "colder wins"}, "t")
    return store.commit_cycle()


# ------------------------------------------------------------------- parsing
def test_parse_bare_keys():
    assert parse("obs.Seoul.temp_f") == MemoryRef("obs.Seoul.temp_f")
    assert parse("goal.policy.rule") == MemoryRef("goal.policy.rule")


@pytest.mark.parametrize(
    "text,expected",
    [
        ("obs.A.x <= obs.B.x", Comparison("obs.A.x", "<=", "obs.B.x")),
        ("obs.A.x == true", Comparison("obs.A.x", "==", Literal(True))),
        ("obs.A.x != false", Comparison("obs.A.x", "!=", Literal(False))),
        ("obs.A.x > 3", Comparison("obs.A.x", ">", Literal(3))),
        ("obs.A.x < 3.5", Comparison("obs.A.x", "<", Literal(3.5))),
        ('obs.A.x == "rain"', Comparison("obs.A.x", "==", Literal("rain"))),
    ],
)
def test_parse_comparisons(text, expected):
    assert parse(text) == expected


def test_parse_picks_first_operator_occurrence():
    expr = parse("obs.A.x <= obs.B.x")
    assert isinstance(expr, Comparison) and expr.op == "<="


@pytest.mark.parametrize(
    "bad",
    ["", "   ", "obs.A.x <", "<= obs.A.x", "nonsense key", "obs.A.x ~ 3",
     ["obs.A.x"], {"obs.A.x": 1}, 3, None,
     # Not JSON scalars, or not finite ones: a condition on them never or always holds.
     "obs.A.x < inf", "obs.A.x < -inf", "obs.A.x < nan", "obs.A.x < NaN",
     "obs.A.x < Infinity", "obs.A.x < 1e400",
     pytest.param("obs.A.x == " + "[" * 100_000, id="deeply-nested-array")],
)
def test_parse_rejects_malformed(bad):
    """Every call raises, also once the cache of parsed strings has seen the value."""
    for _ in range(2):
        with pytest.raises(EvidenceParseError):
            parse(bad)


@pytest.mark.parametrize("text", [
    "obs.A.x == true", "obs.A.x > 3", "obs.A.x < -3.5", 'obs.A.x == "obs.B.y"', 'obs.A.x == "a b"',
])
def test_a_literal_operand_is_parsed_without_a_malformed_key(monkeypatch, text):
    """A right side whose first segment names no namespace is a literal or nothing, so its
    parse never asks ``key_segments``, whose error would format the namespace list."""
    raised, key_segments = [], evidence.key_segments

    def recording(key):
        try:
            return key_segments(key)
        except MalformedKey as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(evidence, "key_segments", recording)
    expr = evidence._parse_text.__wrapped__(text)
    assert isinstance(expr.rhs, Literal) and raised == []


def test_parse_shares_one_frozen_expression_per_string():
    text = "obs.A.x < 3.5"
    assert parse(text) is parse(text) is parse(" ".join(["obs.A.x", "<", "3.5"]))
    with pytest.raises(AttributeError):
        parse(text).op = ">"


def test_render_round_trip_examples():
    for text in (
        "obs.Seoul.temp_f",
        "goal.policy.rule",
        "obs.Seoul.temp_f < obs.Jeju.temp_f",
        "obs.Seoul.precipitation == true",
        'obs.Seoul.sky == "clear"',
        "obs.Seoul.temp_f >= 51.8",
    ):
        assert render(parse(text)) == text


def test_referenced_keys():
    assert referenced_keys(parse("obs.A.x <= obs.B.y")) == ["obs.A.x", "obs.B.y"]
    assert referenced_keys(parse("obs.A.x == 3")) == ["obs.A.x"]
    assert referenced_keys(parse("goal.g.rule")) == ["goal.g.rule"]


# ---------------------------------------------------------------- evaluation
def test_evaluate_comparisons(snapshot):
    assert evaluate(parse("obs.Seoul.temp_f < obs.Jeju.temp_f"), snapshot) is True
    assert evaluate(parse("obs.Jeju.temp_f <= obs.Seoul.temp_f"), snapshot) is False
    assert evaluate(parse("obs.Seoul.precipitation == false"), snapshot) is True
    assert evaluate(parse("obs.Jeju.precipitation == true"), snapshot) is True
    assert evaluate(parse("obs.Seoul.temp_f == 51.8"), snapshot) is True


def test_unresolved_reference_is_unknown(snapshot):
    assert evaluate(parse("obs.Busan.temp_f < obs.Seoul.temp_f"), snapshot) is UNKNOWN
    assert evaluate(parse("obs.Seoul.missing == true"), snapshot) is UNKNOWN


def test_relational_ops_false_for_non_numbers(snapshot):
    # The claim resolved but is not a numeric relation, so it is unsupported.
    assert evaluate(parse("obs.Seoul.precipitation < 3"), snapshot) is False
    store = MemoryStore()
    store.write_staged("obs.A", EntryKind.OBSERVATION, {"x": "text"}, "t")
    snap = store.commit_cycle()
    assert evaluate(parse("obs.A.x > 1"), snap) is False


def test_equality_defined_for_any_types(snapshot):
    assert evaluate(parse('obs.Seoul.temp_f != "text"'), snapshot) is True
    assert evaluate(parse('obs.Seoul.precipitation == false'), snapshot) is True


def test_boolean_equals_only_a_boolean():
    """As in JSON, ``true`` and ``1`` differ; numbers still compare by value."""
    store = MemoryStore()
    store.write_staged(
        "obs.J", EntryKind.OBSERVATION, {"temp_f": 1.0, "one": 1, "zero": 0, "flag": True}, "t"
    )
    snap = store.commit_cycle()
    assert evaluate(parse("obs.J.temp_f == true"), snap) is False
    assert evaluate(parse("obs.J.flag != 1"), snap) is True
    assert evaluate(parse("obs.J.zero == false"), snap) is False
    assert evaluate(parse("obs.J.flag == true"), snap) is True
    assert evaluate(parse("obs.J.flag == obs.J.one"), snap) is False
    assert evaluate(parse("obs.J.one == 1.0"), snap) is True


def test_evaluate_all_conjunction_ordering(snapshot):
    true_expr = parse("obs.Seoul.temp_f < obs.Jeju.temp_f")
    false_expr = parse("obs.Jeju.temp_f < obs.Seoul.temp_f")
    unknown_expr = parse("obs.Busan.temp_f < 50")
    assert evaluate_all([true_expr], snapshot) is True
    assert evaluate_all([true_expr, unknown_expr], snapshot) is UNKNOWN
    assert evaluate_all([false_expr, unknown_expr], snapshot) is False  # False dominates
    assert evaluate_all([], snapshot) is True
    # Every conjunct is evaluated: a recording memory sees the keys after a False too.
    reads = []

    class Recording:
        def resolve(self, path):
            reads.append(path)
            return snapshot.resolve(path)

    assert evaluate_all([false_expr, unknown_expr, true_expr], Recording()) is False
    assert reads == ["obs.Jeju.temp_f", "obs.Seoul.temp_f", "obs.Busan.temp_f",
                     "obs.Seoul.temp_f", "obs.Jeju.temp_f"]


def test_unknown_is_a_singleton():
    assert (UNKNOWN is UNKNOWN) and repr(UNKNOWN) == "<unknown>" and not UNKNOWN
    assert UNKNOWN is not True and UNKNOWN is not False


# ---------------------------------------------------------------- hypothesis
keys = st.from_regex(r"obs\.[A-Z][a-z]{1,6}\.[a-z]{1,6}(_[a-z]{1,3})?", fullmatch=True)
literals = st.one_of(
    st.booleans(),
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=10),
)


@given(keys, st.sampled_from(sorted(evidence.OPERATORS)), keys)
def test_round_trip_ref_comparisons(left, op, right):
    text = f"{left} {op} {right}"
    assert render(parse(text)) == text


@given(keys, st.sampled_from(sorted(evidence.OPERATORS)), literals)
@example("obs.A.x", "<", "a == b")
@example("obs.A.x", "!=", 'k\u00f6ln "<" \n')
def test_round_trip_literal_comparisons(left, op, value):
    expr = Comparison(left, op, Literal(value))
    parsed = parse(render(expr))
    # Literal(True) == Literal(1) in Python, so the type is checked on its own.
    assert parsed == expr and type(parsed.rhs.value) is type(value)
