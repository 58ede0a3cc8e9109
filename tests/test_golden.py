"""Golden pin: the suite50 sweep under all faults at 0.1 is byte-stable.

Every trace of the sweep — per scenario and seed, governed then baseline —
is hashed in order. Any change to trace bytes, to either system's decisions,
or to the order of runs moves the digest; a change that moves it on purpose
must say why.
"""
from __future__ import annotations

import hashlib
from collections import Counter

from cogloop.baseline import run_baseline_episode
from cogloop.cli import parse_faults
from cogloop.loop import run_episode
from cogloop.regulation import DEFAULT_RULESET
from cogloop.scenario import load_suite

GOLDEN_DIGEST = "ef71a98839eb6183"
RULESET_VERSION = "b709da07996eecce"  # every trace header and config digest carries it


def test_shipped_ruleset_version_is_pinned():
    assert DEFAULT_RULESET.version == RULESET_VERSION


def test_suite50_traces_match_golden_digest(suite_dir):
    faults = parse_faults("all=0.1")
    digest = hashlib.sha256()
    statuses = {"governed": Counter(), "baseline": Counter()}
    for scenario in load_suite(suite_dir):
        for seed in scenario.seeds:
            config = scenario.episode_config(seed, faults=faults)
            governed = run_episode(config)
            baseline = run_baseline_episode(
                config, scenario.baseline_budget, scenario.baseline_decay
            )
            digest.update(governed.trace.dumps().encode("utf-8"))
            digest.update(baseline.trace.dumps().encode("utf-8"))
            statuses["governed"][governed.status.value] += 1
            statuses["baseline"][baseline.status.value] += 1
    assert digest.hexdigest()[:16] == GOLDEN_DIGEST
    assert statuses == {
        "governed": Counter({"Completed": 250}),
        "baseline": Counter({"BudgetExhausted": 231, "Completed": 19}),
    }
