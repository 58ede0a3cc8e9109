"""Rule registry: behavioral rules rendered into prompts and enforced in validation.

Rules are data, not code. Each rule pairs a human-readable statement (shown to
the proposer verbatim) with a machine check identifier that the validation
layer maps to exactly one enforcement routine. A ruleset's version is a
content hash, so any edit to any rule is observable in traces.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from typing import Any

from .util import content_digest


class RulesetError(Exception):
    """Base class for ruleset configuration problems."""


class UnknownCheck(RulesetError):
    """A rule names a check with no enforcement routine."""


class DuplicateRuleId(RulesetError):
    """Two rules share an id."""


class MissingRequiredRule(RulesetError):
    """A core check is neither configured nor explicitly disabled."""


class CheckKind(str, Enum):
    """Machine checks; the validation layer binds each to one routine.

    ONE_ACTION_PER_CYCLE is the exception: the cycle structure guarantees it,
    so no routine tests it (see ``control.validate``).
    """

    CITATION_REQUIRED_FOR_COMPARISON = "citation_required_for_comparison"
    CANCELLATION_BEFORE_BRANCH = "cancellation_before_branch"
    PRECONDITIONS_SATISFIED = "preconditions_satisfied"
    ONE_ACTION_PER_CYCLE = "one_action_per_cycle"
    ARGUMENTS_COMPLETE = "arguments_complete"


@dataclass(frozen=True)
class Rule:
    id: str
    name: str
    statement: str
    check: CheckKind
    enabled: bool = True

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "name": self.name,
            "statement": self.statement,
            "check": self.check.value,
            "enabled": self.enabled,
        }


@dataclass(frozen=True)
class RuleSet:
    """Ordered rules plus a content-hash version."""

    rules: tuple[Rule, ...]
    version: str

    def __post_init__(self) -> None:  # the proposer reads this text every cycle
        text = "\n".join(f"{r.id}: {r.statement}" for r in self.active())
        object.__setattr__(self, "_cognition_text", text)

    def active(self) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.enabled)

    def active_for_check(self, check: CheckKind) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.enabled and r.check is check)

    def render_for_cognition(self) -> str:
        """One `<id>: <statement>` line per enabled rule, in config order."""
        return self._cognition_text


def load_ruleset(config: dict[str, Any]) -> RuleSet:
    """Build a RuleSet from parsed config, validating checks, ids, and coverage.

    Every core check must appear in the config, either enabled or explicitly
    disabled (``"enabled": false``); silence is treated as a config error.
    """
    raw_rules = config.get("rules")
    if not isinstance(raw_rules, list) or not raw_rules:
        raise RulesetError("config must contain a non-empty 'rules' list")
    rules: list[Rule] = []
    seen_ids: set[str] = set()
    for index, raw in enumerate(raw_rules):
        if not isinstance(raw, dict):
            raise RulesetError(f"rules[{index}] must be an object")
        try:
            check = CheckKind(raw["check"])
        except (KeyError, ValueError):
            raise UnknownCheck(
                f"rules[{index}] has unknown check {raw.get('check')!r}; "
                f"expected one of {[c.value for c in CheckKind]}"
            ) from None
        rule_id = raw.get("id")
        if not isinstance(rule_id, str) or not rule_id:
            raise RulesetError(f"rules[{index}] missing string 'id'")
        if rule_id in seen_ids:
            raise DuplicateRuleId(f"rule id {rule_id!r} appears more than once")
        seen_ids.add(rule_id)
        statement = raw.get("statement")
        if not isinstance(statement, str) or not statement:
            raise RulesetError(f"rule {rule_id!r} missing string 'statement'")
        rules.append(
            Rule(
                id=rule_id,
                name=raw.get("name", rule_id),
                statement=statement,
                check=check,
                enabled=bool(raw.get("enabled", True)),
            )
        )
    covered = {r.check for r in rules}
    missing = [c.value for c in CheckKind if c not in covered]
    if missing:
        raise MissingRequiredRule(
            f"core checks not configured (enable or explicitly disable them): {missing}"
        )
    version = content_digest([r.to_dict() for r in rules])
    return RuleSet(rules=tuple(rules), version=version)


def default_ruleset() -> RuleSet:
    """The five-rule set shipped with the package."""
    text = resources.files("cogloop").joinpath("data/default_rules.json").read_text("utf-8")
    return load_ruleset(json.loads(text))
