"""Ruleset loading: coverage, versioning, disabling, rendering."""
from __future__ import annotations

import json

import pytest

from cogloop.regulation import (
    CheckKind,
    DuplicateRuleId,
    MissingRequiredRule,
    RulesetError,
    UnknownCheck,
    default_ruleset,
    load_ruleset,
)


def base_config() -> dict:
    return json.loads(json.dumps(default_ruleset_config()))


def default_ruleset_config() -> dict:
    return {
        "rules": [
            {"id": r.id, "name": r.name, "statement": r.statement, "check": r.check.value}
            for r in default_ruleset().rules
        ]
    }


def test_default_ruleset_covers_every_check():
    ruleset = default_ruleset()
    assert len(ruleset.rules) == 5
    covered = {rule.check for rule in ruleset.rules}
    assert covered == set(CheckKind)
    assert {r.id for r in ruleset.rules} == {
        "R-NUM-COMPARE", "R-COND-PRIORITY", "R-COND-EXEC", "R-SEQ", "R-ARGS"
    }


def test_statements_are_complete_directives():
    by_id = {rule.id: rule for rule in default_ruleset().rules}
    assert by_id["R-ARGS"].statement.endswith("Do not leave arguments as 'TBD.'")
    assert by_id["R-COND-PRIORITY"].statement.startswith("Always evaluate cancellation")
    assert by_id["R-SEQ"].statement.startswith("For multi-step tasks, propose one action")
    for rule in by_id.values():
        assert rule.statement and rule.statement[0].isupper()


def test_version_is_stable_and_content_sensitive():
    a = default_ruleset()
    b = default_ruleset()
    assert a.version == b.version and len(a.version) == 16
    mutated = base_config()
    mutated["rules"][0]["statement"] += " Amended."
    assert load_ruleset(mutated).version != a.version


def test_rule_order_is_preserved():
    ids = [rule.id for rule in default_ruleset().rules]
    assert ids == ["R-NUM-COMPARE", "R-COND-PRIORITY", "R-COND-EXEC", "R-SEQ", "R-ARGS"]


def test_disabled_rule_stays_loaded_but_inactive():
    config = base_config()
    config["rules"][4]["enabled"] = False  # R-ARGS
    ruleset = load_ruleset(config)
    assert len(ruleset.rules) == 5
    assert {r.id for r in ruleset.active()} == {
        "R-NUM-COMPARE", "R-COND-PRIORITY", "R-COND-EXEC", "R-SEQ"
    }
    assert ruleset.active_for_check(CheckKind.ARGUMENTS_COMPLETE) == ()
    assert "R-ARGS" not in ruleset.render_for_cognition()


def test_missing_check_coverage_rejected():
    config = base_config()
    del config["rules"][0]
    with pytest.raises(MissingRequiredRule):
        load_ruleset(config)


def test_duplicate_rule_ids_rejected():
    config = base_config()
    config["rules"][1]["id"] = config["rules"][0]["id"]
    with pytest.raises(DuplicateRuleId):
        load_ruleset(config)


def test_unknown_check_rejected():
    config = base_config()
    config["rules"][0]["check"] = "imaginary_check"
    with pytest.raises(UnknownCheck):
        load_ruleset(config)


@pytest.mark.parametrize("broken", [{}, {"rules": {}}, {"rules": [{"id": "X"}]}])
def test_structurally_broken_configs_rejected(broken):
    with pytest.raises(RulesetError):
        load_ruleset(broken)


def test_render_for_cognition_lists_id_and_statement():
    rendered = default_ruleset().render_for_cognition()
    lines = rendered.splitlines()
    assert len(lines) == 5
    assert lines[0] == (
        "R-NUM-COMPARE: When comparing numbers, explicitly state which is "
        "greater/less and cite memory keys for both values."
    )
    for line in lines:
        rule_id, _, statement = line.partition(": ")
        assert rule_id.startswith("R-") and statement
