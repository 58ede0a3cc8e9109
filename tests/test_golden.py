"""Golden pins: suite50 sweeps under faults are byte-stable.

Every trace of a sweep — per scenario and seed, governed then baseline — is
hashed in order. Any change to trace bytes, to either system's decisions, or
to the order of runs moves the digest; a change that moves it on purpose must
say why. Each trace is also audited as ``cogloop trace`` audits a stored file:
loaded back, it must dump the same bytes and give the live trace's metrics,
chains and gaps.
"""
from __future__ import annotations

import hashlib
from collections import Counter

from cogloop.baseline import run_baseline_episode
from cogloop.cli import parse_faults
from cogloop.loop import run_episode
from cogloop.regulation import DEFAULT_RULESET
from cogloop.scenario import load_suite
from cogloop.trace import EpisodeTrace, compute_metrics, iter_chains

GOLDEN_DIGEST = "ef71a98839eb6183"
# Under near-even duplicates most governed cycles re-plan an unchanged state.
DUPLICATE_DIGEST = "36f37a181207c11b"
RULESET_VERSION = "b709da07996eecce"  # every trace header and config digest carries it


def audit(trace: EpisodeTrace) -> tuple:
    return compute_metrics(trace), list(iter_chains(trace))


def sweep(suite_dir, fault_spec: str) -> tuple[str, dict[str, Counter]]:
    """The sweep's digest prefix and its status counts per system; each stored trace
    audits as its live trace does."""
    faults = parse_faults(fault_spec)
    digest = hashlib.sha256()
    statuses = {"governed": Counter(), "baseline": Counter()}
    for scenario in load_suite(suite_dir):
        for seed in scenario.seeds:
            config = scenario.episode_config(seed, faults=faults)
            governed = run_episode(config)
            baseline = run_baseline_episode(
                config, scenario.baseline_budget, scenario.baseline_decay
            )
            for trace in (governed.trace, baseline.trace):
                text = trace.dumps()
                loaded = EpisodeTrace.loads(text)
                assert loaded.dumps() == text
                assert audit(loaded) == audit(trace), text.split("\n", 1)[0]
                digest.update(text.encode("utf-8"))
            statuses["governed"][governed.status.value] += 1
            statuses["baseline"][baseline.status.value] += 1
    return digest.hexdigest()[:16], statuses


def test_shipped_ruleset_version_is_pinned():
    assert DEFAULT_RULESET.version == RULESET_VERSION


def test_suite50_traces_match_golden_digest(suite_dir):
    assert sweep(suite_dir, "all=0.1") == (
        GOLDEN_DIGEST,
        {
            "governed": Counter({"Completed": 250}),
            "baseline": Counter({"BudgetExhausted": 231, "Completed": 19}),
        },
    )


def test_suite50_duplicate_sweep_matches_its_digest(suite_dir):
    assert sweep(suite_dir, "duplicate=0.5") == (
        DUPLICATE_DIGEST,
        {"governed": Counter({"Completed": 250}), "baseline": Counter({"BudgetExhausted": 250})},
    )
