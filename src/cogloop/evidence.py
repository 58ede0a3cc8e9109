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
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Iterable, Union

from .memory import NOT_FOUND, MalformedKey, key_segments
from .util import Sentinel, is_number

OPERATORS = ("<=", ">=", "==", "!=", "<", ">")


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
    value: bool | int | float | str

    def render(self) -> str:
        if isinstance(self.value, bool):
            return "true" if self.value else "false"
        if isinstance(self.value, str):
            return json.dumps(self.value)
        return repr(self.value)


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
    try:
        key_segments(text)
        return text
    except MalformedKey:
        pass
    if text == "true":
        return Literal(True)
    if text == "false":
        return Literal(False)
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        try:
            value = json.loads(text)
        except json.JSONDecodeError as exc:
            raise EvidenceParseError(f"bad string literal {text!r}") from exc
        return Literal(value)
    try:
        return Literal(int(text))
    except ValueError:
        pass
    try:
        return Literal(float(text))
    except ValueError:
        raise EvidenceParseError(f"operand {text!r} is neither a key nor a literal") from None


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
    stripped = text.strip()
    for op in OPERATORS:
        idx = stripped.find(f" {op} ")
        if idx < 0:
            continue
        lhs_text = stripped[:idx].strip()
        rhs_text = stripped[idx + len(op) + 2 :].strip()
        try:
            key_segments(lhs_text)
        except MalformedKey as exc:
            raise EvidenceParseError(f"left side of {text!r} must be a memory key") from exc
        return Comparison(lhs=lhs_text, op=op, rhs=_parse_operand(rhs_text))
    try:
        key_segments(stripped)
    except MalformedKey as exc:
        raise EvidenceParseError(f"bare expression {text!r} is not a memory key") from exc
    return MemoryRef(stripped)


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
    if expr.op == "==":
        return lhs == rhs
    if expr.op == "!=":
        return lhs != rhs
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
