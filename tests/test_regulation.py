"""The shipped ruleset: coverage, versioning, disabling, rendering."""
from __future__ import annotations

from dataclasses import replace

from cogloop.cognition import FAULT_TYPES
from cogloop.control import DEDUP_RULE_ID
from cogloop.regulation import DEFAULT_RULESET, CheckKind, RuleSet
from cogloop.trace import FAULT_RULE_MAP


def test_default_ruleset_covers_every_check():
    rules = DEFAULT_RULESET.rules
    assert len(rules) == 5
    assert {rule.check for rule in rules} == set(CheckKind)
    ids = [rule.id for rule in rules]
    assert len(set(ids)) == len(ids)
    assert set(ids) == {"R-NUM-COMPARE", "R-COND-PRIORITY", "R-COND-EXEC", "R-SEQ", "R-ARGS"}
    assert all(rule.statement and rule.enabled for rule in rules)


def test_statements_are_complete_directives():
    by_id = {rule.id: rule for rule in DEFAULT_RULESET.rules}
    assert by_id["R-ARGS"].statement.endswith("Do not leave arguments as 'TBD.'")
    assert by_id["R-COND-PRIORITY"].statement.startswith("Always evaluate cancellation")
    assert by_id["R-SEQ"].statement.startswith("For multi-step tasks, propose one action")
    for rule in by_id.values():
        assert rule.statement and rule.statement[0].isupper()


def test_version_is_stable_and_content_sensitive():
    again = RuleSet(DEFAULT_RULESET.rules)
    assert again.version == DEFAULT_RULESET.version and len(again.version) == 16
    first, *rest = DEFAULT_RULESET.rules
    amended = RuleSet((replace(first, statement=first.statement + " Amended."), *rest))
    assert amended.version != DEFAULT_RULESET.version


def test_rule_order_is_preserved():
    ids = [rule.id for rule in DEFAULT_RULESET.rules]
    assert ids == ["R-NUM-COMPARE", "R-COND-PRIORITY", "R-COND-EXEC", "R-SEQ", "R-ARGS"]


def test_disabled_rule_stays_loaded_but_inactive():
    ruleset = RuleSet(tuple(
        replace(rule, enabled=False) if rule.id == "R-ARGS" else rule
        for rule in DEFAULT_RULESET.rules
    ))
    assert len(ruleset.rules) == 5
    assert {r.id for r in ruleset.active()} == {
        "R-NUM-COMPARE", "R-COND-PRIORITY", "R-COND-EXEC", "R-SEQ"
    }
    assert ruleset.active_for_check(CheckKind.ARGUMENTS_COMPLETE) == ()
    assert "R-ARGS" not in ruleset.render_for_cognition()
    assert ruleset.version != DEFAULT_RULESET.version


def test_render_for_cognition_lists_id_and_statement():
    rendered = DEFAULT_RULESET.render_for_cognition()
    lines = rendered.splitlines()
    assert len(lines) == 5
    assert lines[0] == (
        "R-NUM-COMPARE: When comparing numbers, explicitly state which is "
        "greater/less and cite memory keys for both values."
    )
    for line in lines:
        rule_id, _, statement = line.partition(": ")
        assert rule_id.startswith("R-") and statement


def test_every_fault_type_maps_to_rules_that_exist():
    """A renamed rule would otherwise leave its fault unlocalizable, zeroing ELP."""
    known = {rule.id for rule in DEFAULT_RULESET.rules} | {DEDUP_RULE_ID}
    assert set(FAULT_RULE_MAP) == set(FAULT_TYPES)
    for fault_type, rule_ids in FAULT_RULE_MAP.items():
        assert rule_ids and rule_ids <= known, fault_type
