"""The layer functions the traced run times, and the counters taken beside them.

Each target is a public function that ``loop.py``/``baseline.py`` (or the
benchmark itself, standing in for the CLI) calls. ``PER_LAYER`` lists every
per-layer metric name, in the order ``BENCHMARK.json`` gives them.
"""
from __future__ import annotations

from collections import Counter
from typing import Any

from spans import SpanRecorder, Target, self_times


def _log_entries(counters: Counter, args: tuple, snapshot: Any) -> None:
    counters["memory.log_entries_indexed"] += len(snapshot.entries)


def _entries_decoded(counters: Counter, args: tuple, snapshot: Any) -> None:
    counters["trace.entries_decoded"] += len(snapshot.entries)


def _bytes_written(counters: Counter, args: tuple, text: str) -> None:
    counters["trace.bytes"] += len(text.encode("utf-8"))


def _bytes_read(counters: Counter, args: tuple, trace: Any) -> None:
    counters["trace.bytes"] += len(args[1].encode("utf-8"))


def _faults(counters: Counter, args: tuple, proposal: Any) -> None:
    if args[0].last_meta.fault_label:
        counters["cognition.faults_injected"] += 1


def _verdict(counters: Counter, args: tuple, decision: Any) -> None:
    counters[f"control.{decision.verdict.value}"] += 1


def _execution(counters: Counter, args: tuple, outcome: Any) -> None:
    result = outcome[0]
    counters["runtime.executed"] += 1
    counters["runtime.idempotency_hits"] += int(result.idempotency_hit)
    counters["runtime.tool_failures"] += int(not result.ok)


TARGETS = (
    Target("memory.commit_cycle", "cogloop.memory:MemoryStore", "commit_cycle", _log_entries),
    Target("memory.write_staged", "cogloop.memory:MemoryStore", "write_staged"),
    Target("memory.read", "cogloop.memory:MemorySnapshot", "read"),
    Target("memory.resolve", "cogloop.memory:MemorySnapshot", "resolve"),
    Target(
        "trace.snapshot_before", "cogloop.trace:EpisodeTrace", "snapshot_before", _entries_decoded
    ),
    Target("trace.compute_metrics", "cogloop.trace", "compute_metrics"),
    Target("trace.iter_chains", "cogloop.trace", "iter_chains"),
    Target("trace.dumps", "cogloop.trace:EpisodeTrace", "dumps", _bytes_written),
    Target("trace.loads", "cogloop.trace:EpisodeTrace", "loads", _bytes_read),
    Target("cognition.assemble_input", "cogloop.cognition", "assemble_input"),
    Target("cognition.propose", "cogloop.cognition:ScriptedProposer", "propose", _faults),
    Target("cognition.propose", "cogloop.cognition:FaultyProposer", "propose", _faults),
    Target("control.validate", "cogloop.control", "validate", _verdict),
    Target("evidence.evaluate_all", "cogloop.evidence", "evaluate_all"),
    Target("runtime.execute", "cogloop.runtime:Runtime", "execute", _execution),
    Target("baseline.visible_entries", "cogloop.baseline:ContextModel", "visible_entries"),
    Target("baseline.insert", "cogloop.baseline:ContextModel", "insert"),
    Target("loop.run_episode", "cogloop.loop", "run_episode"),
    Target("baseline.run_baseline_episode", "cogloop.baseline", "run_baseline_episode"),
    Target("loop.config", "cogloop.loop:EpisodeConfig", "validate"),
    Target("loop.config", "cogloop.loop:EpisodeConfig", "digest"),
    Target("scenario.load_suite", "cogloop.scenario", "load_suite"),
)

SPAN_NAMES = tuple(dict.fromkeys(t.name for t in TARGETS))
COUNTS = (
    "memory.log_entries_indexed",
    "trace.entries_decoded",
    "trace.bytes",
    "cognition.faults_injected",
    "runtime.tool_failures",
)
RATIOS = ("control.approve_ratio", "runtime.idempotency_hit_ratio", "bench.tracing_overhead")

PER_LAYER: tuple[tuple[str, str], ...] = (
    tuple((f"{name}.{suffix}", unit) for name in SPAN_NAMES
          for suffix, unit in (("calls", "count"), ("self_ms", "ms")))
    + tuple((name, "count") for name in COUNTS)
    + tuple((name, "ratio") for name in RATIOS)
)


def _ratio(numerator: int, denominator: int) -> float:
    """Ratio of two counts; 0.0 when the layer never ran (denominator 0)."""
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder: SpanRecorder, overhead: float) -> dict[str, float]:
    """Every per-layer metric; spans the benchmark opened itself are left out."""
    timed = self_times(recorder.rows())
    counters = recorder.counters
    values: dict[str, float] = {}
    for name in SPAN_NAMES:
        calls, self_ns = timed.get(name, (0, 0))
        values[f"{name}.calls"] = calls
        values[f"{name}.self_ms"] = self_ns / 1e6
    for name in COUNTS:
        values[name] = counters[name]
    validated = counters["control.approved"] + counters["control.rejected"]
    values["control.approve_ratio"] = _ratio(counters["control.approved"], validated)
    values["runtime.idempotency_hit_ratio"] = _ratio(
        counters["runtime.idempotency_hits"], counters["runtime.executed"]
    )
    values["bench.tracing_overhead"] = overhead
    return values


def self_time_table(recorder: SpanRecorder, title: str) -> str:
    """Human-readable self-time table, largest first, including the benchmark's own spans."""
    timed = self_times(recorder.rows())
    total = sum(ns for _, ns in timed.values()) or 1
    lines = [title, f"{'layer':<32}{'calls':>10}{'self ms':>12}{'share':>8}"]
    for name, (calls, ns) in sorted(timed.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"{name:<32}{calls:>10}{ns / 1e6:>12.1f}{ns / total:>8.1%}")
    return "\n".join(lines)
