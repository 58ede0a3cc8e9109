"""Evidence expressions: the tiny grammar used for citations and conditions.

An expression is either a bare memory key (``obs.Seoul.temp_f``, or a goal
reference like ``goal.choose_colder``) or a comparison between a key and a
key-or-literal: ``obs.Seoul.temp_f < obs.Jeju.temp_f``. Rendering and parsing
round-trip exactly, so expressions can live as plain strings in scenario
files, proposals, and traces.

Evaluation over a memory snapshot is three-valued: True, False, or UNKNOWN
when any referenced key does not resolve.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Iterable, Union

from .memory import ALLOWED_KINDS, NOT_FOUND, MalformedKey, key_segments
from .util import Sentinel, canonical_json, is_number

OPERATORS = ("<=", ">=", "==", "!=", "<", ">")
_OPERATOR = re.compile(" (" + "|".join(map(re.escape, OPERATORS)) + ") ")


class EvidenceParseError(Exception):
    """Expression text does not follow the grammar."""


UNKNOWN = Sentinel("unknown")  # three-valued logic's 'cannot be evaluated yet'


@dataclass(frozen=True)
class MemoryRef:
    """Bare reference, goal keys included: the cited key must resolve."""

    key: str

    def render(self) -> str:
        return self.key


@dataclass(frozen=True)
class Literal:
    """A JSON scalar: a string, a boolean, or a finite number."""

    value: bool | int | float | str

    def render(self) -> str:
        return canonical_json(self.value)


@dataclass(frozen=True)
class Comparison:
    """`<key> <op> <key-or-literal>`; truth requires both sides to resolve."""

    lhs: str
    op: str
    rhs: Union[str, Literal]

    def render(self) -> str:
        rhs = self.rhs.render() if isinstance(self.rhs, Literal) else self.rhs
        return f"{self.lhs} {self.op} {rhs}"


EvidenceExpr = Union[MemoryRef, Comparison]


def _parse_operand(text: str) -> Union[str, Literal]:
    # Only a namespace can start a key: spare the rest `key_segments`'s error message.
    if text.partition(".")[0] in ALLOWED_KINDS:
        try:
            key_segments(text)
            return text
        except MalformedKey:
            pass
    try:
        value = json.loads(text)
    except (ValueError, RecursionError):  # RecursionError: deeply nested arrays
        value = None
    if isinstance(value, (str, bool)) or is_number(value, finite=True):
        return Literal(value)
    raise EvidenceParseError(f"operand {text!r} is neither a key nor a literal")


def parse(text: str) -> EvidenceExpr:
    """Parse an expression string; inverse of `render`.

    A string is parsed once, through a bounded cache, and its callers share the
    frozen result; anything off the grammar raises EvidenceParseError every time.
    """
    if not isinstance(text, str) or not text.strip():
        raise EvidenceParseError(f"empty evidence expression: {text!r}")
    return _parse_text(text)


@lru_cache(maxsize=4096)
def _parse_text(text: str) -> EvidenceExpr:
    # A key holds no whitespace, so the first ` op ` ends the left side; a
    # string literal on the right may hold another one.
    stripped = text.strip()
    match = _OPERATOR.search(stripped)
    if match is None:
        try:
            key_segments(stripped)
        except MalformedKey as exc:
            raise EvidenceParseError(f"bare expression {text!r} is not a memory key") from exc
        return MemoryRef(stripped)
    lhs_text = stripped[: match.start()].strip()
    try:
        key_segments(lhs_text)
    except MalformedKey as exc:
        raise EvidenceParseError(f"left side of {text!r} must be a memory key") from exc
    rhs = _parse_operand(stripped[match.end() :].strip())
    return Comparison(lhs=lhs_text, op=match[1], rhs=rhs)


def render(expr: EvidenceExpr) -> str:
    return expr.render()


def referenced_keys(expr: EvidenceExpr) -> list[str]:
    """Memory keys the expression depends on, in appearance order."""
    if isinstance(expr, MemoryRef):
        return [expr.key]
    keys = [expr.lhs]
    if not isinstance(expr.rhs, Literal):
        keys.append(expr.rhs)
    return keys


def evaluate(expr: EvidenceExpr, memory: Any) -> Any:
    """True, False, or UNKNOWN (a key unresolved); ``memory`` has ``resolve(path)``."""
    if isinstance(expr, MemoryRef):
        return UNKNOWN if memory.resolve(expr.key) is NOT_FOUND else True
    lhs = memory.resolve(expr.lhs)
    rhs = expr.rhs.value if isinstance(expr.rhs, Literal) else memory.resolve(expr.rhs)
    if lhs is NOT_FOUND or rhs is NOT_FOUND:
        return UNKNOWN
    if expr.op in ("==", "!="):
        # As in JSON, a boolean equals only a boolean (Python has 1.0 == True).
        equal = lhs == rhs and isinstance(lhs, bool) is isinstance(rhs, bool)
        return equal if expr.op == "==" else not equal
    # Relational operators are defined for numbers only.
    if not (is_number(lhs) and is_number(rhs)):
        return False
    if expr.op == "<":
        return lhs < rhs
    if expr.op == ">":
        return lhs > rhs
    if expr.op == "<=":
        return lhs <= rhs
    return lhs >= rhs


def evaluate_all(exprs: Iterable[EvidenceExpr], memory: Any) -> Any:
    """Three-valued conjunction: False dominates, then UNKNOWN, else True. Every
    conjunct is evaluated, so ``memory`` sees each key read, even after a False."""
    verdict = True
    for expr in exprs:
        result = evaluate(expr, memory)
        if result is not True and verdict is not False:
            verdict = result
    return verdict
