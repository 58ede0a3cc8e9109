"""The three workloads: input generation (set-up), one pass, and correctness checks.

Every workload runs closed loop in one process on one thread: an operation
starts when the previous one has finished. On ``long_horizon`` an operation
is one governed episode. On ``suite_faults`` and ``audit_replay`` it is one
scenario and seed of the sweep, governed then baseline, as ``cogloop suite
--compare`` runs them: a baseline episode costs about three times a governed
one, so a median over single episodes would fall in the gap between the two
and swing with the mix. Each pass runs every operation once and returns its
samples, its failures and a fingerprint of its outputs; two passes of one
run must have the same fingerprint, because reruns are byte-identical.

Workloads reach the program only through module attributes looked up at call
time (``cog.loop.run_episode``), so the traced run's wrappers see each call.
"""
from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Any, ContextManager

HERE = Path(__file__).resolve().parent

# The seed whose outputs are pinned: ``parse_faults("all=0.1")`` uses fault
# seed 0, and the ROADMAP records these figures for it.
GOLDEN_SEED = 0
GOLDEN_DIGEST = "ef71a98839eb6183"
GOLDEN_STATUS = {
    "governed": {"Completed": 250},
    "baseline": {"BudgetExhausted": 231, "Completed": 19},
}
GOLDEN_AGGREGATE = {
    "governed": {"elp": [68, 68], "spa": [4929, 4929], "tc": [985, 985]},
    "baseline": {"elp": [0, 2194], "spa": [7227, 17412], "tc": [5286, 6360]},
}

SUITE_DIR = Path("scenarios") / "suite50"
SUITE_FAULTS = "all=0.1"
# ROADMAP scaling probe: weather_two_city, seed 1, FaultConfig(seed=3, p_duplicate=0.995).
PROBE = ("weather_two_city", 1, 3, 0.995)
PROBE_SHAPE = (237, 476)  # cycles used, memory entries
LONG_MAX_CYCLES = 5000


@dataclass
class Sample:
    key: int  # which operation of the pass, the same in every pass
    start: float  # perf_counter() when the operation started and ended
    end: float
    cycles: int


@dataclass
class PassResult:
    wall_s: float
    samples: list[Sample] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    fingerprint: str = ""
    summary: dict[str, Any] = field(default_factory=dict)


def _metric_table(metrics: dict[str, Any]) -> dict[str, list[int]]:
    return {name: [m.numerator, m.denominator] for name, m in sorted(metrics.items())}


def governed_problems(result: Any, metrics: dict[str, Any]) -> list[str]:
    """Invariants every governed episode keeps, on any seed."""
    problems = []
    if any(r.fault_label and r.executed_ok() for r in result.trace.cycles):
        problems.append("a faulty proposal executed")
    for name in ("tc", "elp"):
        ratio = metrics[name].ratio if name in metrics else None
        if ratio not in (None, 1.0):
            problems.append(f"governed {name} is {ratio}")
    return problems


class Workload:
    """Set-up happens in ``__init__``; ``run`` makes one pass over ``items``."""

    name = ""
    episodes_per_item = 1
    recorder: Any = None  # a SpanRecorder during the traced pass

    def __init__(self, cog: SimpleNamespace, seed: int):
        self.cog = cog
        self.seed = seed
        self.items: list[Any] = []
        self.setup_failures: list[str] = []

    def op(self, index: int) -> ContextManager:
        """Scope of one operation: a root span when traced, nothing otherwise."""
        if self.recorder is None:
            return nullcontext()
        self.recorder.episode_id = index
        return self.recorder.span("bench.op")

    def run(self, items: list[Any]) -> PassResult:
        raise NotImplementedError

    def check_pass(self, result: PassResult) -> list[str]:
        """Checks on a whole pass; only meaningful when it covered every item."""
        return []


def suite_items(scenarios: list[Any]) -> list[tuple[Any, int]]:
    return [(scenario, seed) for scenario in scenarios for seed in scenario.seeds]


class SuiteFaults(Workload):
    name = "suite_faults"
    episodes_per_item = 2

    def __init__(self, cog: SimpleNamespace, root: Path, seed: int):
        super().__init__(cog, seed)
        scenarios = cog.scenario.load_suite(root / SUITE_DIR)
        self.faults = cog.cli.parse_faults(SUITE_FAULTS, seed=seed)
        self.items = suite_items(scenarios)

    def run(self, items: list[Any]) -> PassResult:
        cog = self.cog
        digest = hashlib.sha256()
        statuses = {"governed": Counter(), "baseline": Counter()}
        rows: dict[str, list] = {"governed": [], "baseline": []}
        result = PassResult(wall_s=0.0)
        started = perf_counter()
        for index, (scenario, seed) in enumerate(items):
            label = f"{scenario.name} seed {seed}"
            try:
                with self.op(index):
                    t0 = perf_counter()
                    config = scenario.episode_config(seed, faults=self.faults)
                    governed = cog.loop.run_episode(config)
                    g_metrics = cog.trace.compute_metrics(governed.trace)
                    g_text = governed.trace.dumps()
                    baseline = cog.baseline.run_baseline_episode(
                        config, scenario.baseline_budget, scenario.baseline_decay
                    )
                    b_metrics = cog.trace.compute_metrics(baseline.trace)
                    b_text = baseline.trace.dumps()
                    t1 = perf_counter()
            except Exception as exc:  # an operation that raises is a failed operation
                result.failures += [f"{label}: raised {exc!r}"] * 2
                continue
            cycles = governed.cycles_used + baseline.cycles_used
            result.samples.append(Sample(index, t0, t1, cycles))
            digest.update(g_text.encode("utf-8"))
            digest.update(b_text.encode("utf-8"))
            statuses["governed"][governed.status.value] += 1
            statuses["baseline"][baseline.status.value] += 1
            rows["governed"].append(g_metrics)
            rows["baseline"].append(b_metrics)
            result.failures += [f"{label}: {p}" for p in governed_problems(governed, g_metrics)]
        result.wall_s = perf_counter() - started
        result.fingerprint = digest.hexdigest()[:16]
        result.summary = {
            "status": {k: dict(v) for k, v in statuses.items()},
            "aggregate": {
                k: _metric_table(cog.trace.aggregate_metrics(v)) for k, v in rows.items()
            },
        }
        return result

    def check_pass(self, result: PassResult) -> list[str]:
        if self.seed != GOLDEN_SEED:
            return []
        problems = []
        if result.fingerprint != GOLDEN_DIGEST:
            problems.append(f"suite digest {result.fingerprint} != {GOLDEN_DIGEST}")
        if result.summary["status"] != GOLDEN_STATUS:
            problems.append(f"suite status counts {result.summary['status']} != {GOLDEN_STATUS}")
        if result.summary["aggregate"] != GOLDEN_AGGREGATE:
            problems.append(
                f"suite aggregate metrics {result.summary['aggregate']} != {GOLDEN_AGGREGATE}"
            )
        return problems


def load_pool() -> list[dict[str, Any]]:
    return json.loads((HERE / "long_horizon_pool.json").read_text(encoding="utf-8"))["bands"]


def pick_long_episodes(bands: list[dict[str, Any]], seed: int) -> list[tuple]:
    """One pooled episode per length band, drawn by ``seed``, plus the probe.

    Returns (label, scenario name, episode seed, fault seed, p_duplicate),
    ordered by the recorded length.
    """
    rng = random.Random(f"long_horizon:{seed}")
    picked = [(PROBE_SHAPE[0], ("probe",) + PROBE)]
    for band in bands:
        name, episode_seed, fault_seed, p, cycles = rng.choice(band["candidates"])
        picked.append((cycles, (band["name"], name, episode_seed, fault_seed, p)))
    return [entry for _, entry in sorted(picked)]


class LongHorizon(Workload):
    name = "long_horizon"

    def __init__(self, cog: SimpleNamespace, root: Path, seed: int):
        super().__init__(cog, seed)
        scenarios = {s.name: s for s in cog.scenario.load_suite(root / SUITE_DIR)}
        scenarios[PROBE[0]] = cog.scenario.load_scenario(root / "scenarios" / f"{PROBE[0]}.json")
        FaultConfig = cog.cognition.FaultConfig
        self.items = [
            (label, scenarios[name], episode_seed, FaultConfig(seed=fault_seed, p_duplicate=p))
            for label, name, episode_seed, fault_seed, p in pick_long_episodes(load_pool(), seed)
        ]

    def run(self, items: list[Any]) -> PassResult:
        cog = self.cog
        digest = hashlib.sha256()
        result = PassResult(wall_s=0.0)
        started = perf_counter()
        for index, (label, scenario, episode_seed, faults) in enumerate(items):
            tag = f"{label} {scenario.name} seed {episode_seed} faults {faults.seed}"
            try:
                with self.op(index):
                    t0 = perf_counter()
                    config = scenario.episode_config(
                        episode_seed, faults=faults, max_cycles=LONG_MAX_CYCLES
                    )
                    episode = cog.loop.run_episode(config)
                    metrics = cog.trace.compute_metrics(episode.trace)
                    t1 = perf_counter()
            except Exception as exc:
                result.failures.append(f"{tag}: raised {exc!r}")
                continue
            entries = len(episode.store.entries())
            result.samples.append(Sample(index, t0, t1, episode.cycles_used))
            digest.update(
                json.dumps([label, episode.cycles_used, entries, _metric_table(metrics)]).encode()
            )
            problems = governed_problems(episode, metrics)
            if episode.status.value != "Completed":
                problems.append(f"ended {episode.status.value}")
            if metrics["tc"].ratio is None:
                problems.append("no action executed, so governed tc is undefined")
            if label == "probe" and (episode.cycles_used, entries) != PROBE_SHAPE:
                problems.append(f"probe shape {(episode.cycles_used, entries)} != {PROBE_SHAPE}")
            result.failures += [f"{tag}: {p}" for p in problems]
        result.wall_s = perf_counter() - started
        result.fingerprint = digest.hexdigest()[:16]
        return result


@dataclass(frozen=True)
class StoredTrace:
    label: str
    governed: bool
    text: str
    metrics: dict[str, list[int]]
    gaps: int


def stored_traces(
    cog: SimpleNamespace, scenarios: list[Any], faults: Any
) -> list[tuple[StoredTrace, StoredTrace]]:
    """The suite_faults traces, governed and baseline per scenario and seed, in sweep order,
    with the metrics and gap counts of the live traces."""
    GapReport = cog.trace.GapReport
    stored = []
    for scenario, seed in suite_items(scenarios):
        config = scenario.episode_config(seed, faults=faults)
        governed = cog.loop.run_episode(config)
        baseline = cog.baseline.run_baseline_episode(
            config, scenario.baseline_budget, scenario.baseline_decay
        )
        pair = []
        for system, episode in (("governed", governed), ("baseline", baseline)):
            trace = episode.trace
            gaps = sum(isinstance(c, GapReport) for c in cog.trace.iter_chains(trace))
            pair.append(
                StoredTrace(
                    label=f"{scenario.name} seed {seed} {system}",
                    governed=system == "governed",
                    text=trace.dumps(),
                    metrics=_metric_table(cog.trace.compute_metrics(trace)),
                    gaps=gaps,
                )
            )
        stored.append(tuple(pair))
    return stored


class AuditReplay(Workload):
    name = "audit_replay"
    episodes_per_item = 2

    def __init__(self, cog: SimpleNamespace, root: Path, seed: int):
        super().__init__(cog, seed)
        scenarios = cog.scenario.load_suite(root / SUITE_DIR)
        faults = cog.cli.parse_faults(SUITE_FAULTS, seed=seed)
        self.items = stored_traces(cog, scenarios, faults)
        if seed == GOLDEN_SEED:
            digest = hashlib.sha256()
            for pair in self.items:
                for item in pair:
                    digest.update(item.text.encode("utf-8"))
            if digest.hexdigest()[:16] != GOLDEN_DIGEST:
                self.setup_failures.append("stored traces do not match the suite digest")

    def audit(self, item: StoredTrace) -> tuple[Any, dict[str, list[int]], list[Any]]:
        """What ``cogloop trace FILE`` does: load, recompute metrics, rebuild every chain."""
        trace = self.cog.trace.EpisodeTrace.loads(item.text)
        metrics = _metric_table(self.cog.trace.compute_metrics(trace))
        return trace, metrics, list(self.cog.trace.iter_chains(trace))

    def run(self, items: list[Any]) -> PassResult:
        JustificationChain = self.cog.trace.JustificationChain
        digest = hashlib.sha256()
        result = PassResult(wall_s=0.0)
        started = perf_counter()
        for index, pair in enumerate(items):
            try:
                with self.op(index):
                    t0 = perf_counter()
                    audited = [self.audit(item) for item in pair]
                    t1 = perf_counter()
            except Exception as exc:
                result.failures += [f"{item.label}: raised {exc!r}" for item in pair]
                continue
            cycles = sum(len(trace.cycles) - 1 for trace, _, _ in audited)
            result.samples.append(Sample(index, t0, t1, cycles))
            for item, (_, table, chains) in zip(pair, audited):
                gaps = sum(not isinstance(c, JustificationChain) for c in chains)
                digest.update(json.dumps([item.label, table, gaps]).encode())
                problems = []
                if table != item.metrics:
                    problems.append(f"replayed metrics {table} != live {item.metrics}")
                if gaps != item.gaps:
                    problems.append(f"{gaps} gap reports, live trace had {item.gaps}")
                if item.governed and (gaps or not all(c.complete for c in chains)):
                    problems.append("a governed chain is incomplete")
                result.failures += [f"{item.label}: {p}" for p in problems]
        result.wall_s = perf_counter() - started
        result.fingerprint = digest.hexdigest()[:16]
        return result


WORKLOADS = {w.name: w for w in (SuiteFaults, LongHorizon, AuditReplay)}
