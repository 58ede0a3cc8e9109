"""cogloop benchmark: one workload per invocation, metrics as one JSON line.

    python3 perfbench/run.py --workload suite_faults --seed 0 --seconds 20 --trace 0

``--trace 0`` sets up the workload several times (reporting the median
set-up time), warms up, then runs whole untraced passes for ``--seconds``
and reports every end-to-end metric. Its times are reference times: a probe
kernel sampled all through the run measures the machine's speed, and each
interval is scaled to a machine of fixed speed (see ``calibrate.py``).
``--trace 1`` runs one untraced and one traced pass and reports every
per-layer metric, in plain wall time; the span wrappers are
removed again before anything else runs. Every pass is checked for correct
outputs; any mismatch makes the run fail (exit 1). The last line of standard
output is the JSON result. Run it from the repository root; it reads the
program from ``src/`` and the scenarios from ``scenarios/``, and writes
spans under ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibrate import REFERENCE_PROBE_S, Speedometer  # noqa: E402
from layers import PER_LAYER, TARGETS, layer_metrics, self_time_table  # noqa: E402
from spans import Instrumentation, SpanRecorder  # noqa: E402
from workloads import WORKLOADS, PassResult, Workload  # noqa: E402

MODULES = ("cli", "loop", "baseline", "scenario", "trace", "cognition")
SETUP_REPEATS = 3  # set up at least this often, and for at least SETUP_SECONDS
SETUP_SECONDS = 2.0
WARMUP_SHARE = 10  # warm up on the first tenth of a pass
TAIL_QUANTILE = 0.98
TAIL_MIN_BEYOND = 10
OUT_DIR = ROOT / ".perfbench_out"

END_TO_END = (
    ("setup_s", "s"),
    ("episodes_per_s", "1/s"),
    ("cycles_per_s", "1/s"),
    ("episode_ms_p50", "ms"),
    ("cycle_cost_growth", "ratio"),
    ("peak_rss_mb", "MiB"),
)


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing sources or inputs)."""


def fresh_import() -> SimpleNamespace:
    """Import cogloop from ``src/`` anew, so each set-up pays the import."""
    src = ROOT / "src"
    if not (src / "cogloop" / "__init__.py").is_file():
        raise BenchError(f"no cogloop sources under {src}")
    if not (ROOT / "scenarios" / "suite50").is_dir():
        raise BenchError(f"no scenario suite under {ROOT / 'scenarios'}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "cogloop" or m.startswith("cogloop.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cog = SimpleNamespace(**{m: importlib.import_module(f"cogloop.{m}") for m in MODULES})
    if not Path(cog.loop.__file__).resolve().is_relative_to(src):
        raise BenchError(f"imported cogloop from {cog.loop.__file__}, not from {src}")
    return cog


def set_up(name: str, seed: int) -> tuple[Workload, tuple[float, float]]:
    """The workload and the wall-clock interval its set-up took."""
    started = perf_counter()
    workload = WORKLOADS[name](fresh_import(), ROOT, seed)
    return workload, (started, perf_counter())


@dataclass(frozen=True)
class Cost:
    key: int
    ms: float  # reference ms
    cycles: int


def tail(values: list[float]) -> tuple[float | None, int]:
    """Nearest-rank percentile and the number of samples beyond it.

    The percentile is None unless at least ``TAIL_MIN_BEYOND`` samples lie
    beyond it, the least that makes a tail estimate worth reporting.
    """
    ordered = sorted(values)
    rank = math.ceil(TAIL_QUANTILE * len(ordered))
    beyond = len(ordered) - rank
    if rank < 1 or beyond < TAIL_MIN_BEYOND:
        return None, beyond
    return ordered[rank - 1], beyond


def cost_growth(samples: list[Cost]) -> float:
    """ms per cycle of the longest fifth of operations over that of the shortest fifth."""
    ordered = sorted(samples, key=lambda s: s.cycles)
    k = max(1, len(ordered) // 5)

    def ms_per_cycle(group: list[Cost]) -> float:
        return sum(s.ms for s in group) / max(1, sum(s.cycles for s in group))

    return ms_per_cycle(ordered[-k:]) / ms_per_cycle(ordered[:k])


def op_costs(passes: list[PassResult], speed: Speedometer) -> tuple[list[Cost], list[float]]:
    """Each operation's median reference time over the passes, and every timing."""
    timings: dict[int, list[float]] = {}
    cycles: dict[int, int] = {}
    for result in passes:
        for sample in result.samples:
            timings.setdefault(sample.key, []).append(
                speed.reference_s(sample.start, sample.end) * 1e3
            )
            cycles[sample.key] = sample.cycles
    costs = [Cost(key, statistics.median(timings[key]), cycles[key]) for key in sorted(timings)]
    return costs, [ms for key in sorted(timings) for ms in timings[key]]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


class Run:
    """Operation counts and failures over every pass of one invocation."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = list(workload.setup_failures)
        self.fingerprint: str | None = None

    def measure(self, items: list[Any], whole: bool) -> PassResult:
        gc.collect()
        result = self.workload.run(items)
        self.attempted += len(items) * self.workload.episodes_per_item
        self.failures += result.failures
        if whole:
            self.failures += self.workload.check_pass(result)
            if self.fingerprint is None:
                self.fingerprint = result.fingerprint
            elif result.fingerprint != self.fingerprint:
                self.failures.append(
                    f"pass outputs differ: {result.fingerprint} != {self.fingerprint}"
                )
        return result

    def warm_up(self) -> None:
        items = self.workload.items
        self.measure(items[: max(1, len(items) // WARMUP_SHARE)], whole=False)


def end_to_end(args: argparse.Namespace) -> tuple[Run, dict[str, float], list[str]]:
    with Speedometer() as speed:
        workload, interval = set_up(args.workload, args.seed)
        setups = [interval]
        gc.collect()
        gc.freeze()  # the inputs live for the whole run; keep them out of collections
        run = Run(workload)
        run.warm_up()
        passes: list[PassResult] = []
        started = perf_counter()
        while not passes or perf_counter() - started < args.seconds:
            passes.append(run.measure(workload.items, whole=True))
        rss = peak_rss_mb()
        # Further set-ups only time themselves; they come after the passes so
        # that the modules and inputs they discard do not raise the peak memory.
        while len(setups) < SETUP_REPEATS or sum(b - a for a, b in setups) < SETUP_SECONDS:
            setups.append(set_up(args.workload, args.seed)[1])
    setup_s = statistics.median(speed.reference_s(a, b) for a, b in setups)
    costs, timings = op_costs(passes, speed)
    busy_s = sum(c.ms for c in costs) / 1e3
    p98, beyond = tail(timings)
    metrics = {
        "setup_s": setup_s,
        "episodes_per_s": len(costs) * workload.episodes_per_item / busy_s,
        "cycles_per_s": sum(c.cycles for c in costs) / busy_s,
        "episode_ms_p50": statistics.median(c.ms for c in costs),
        "cycle_cost_growth": cost_growth(costs),
        "peak_rss_mb": rss,
    }
    p98_text = f"{p98:.3f} ms" if p98 is not None else "not reported"
    wall_setup = statistics.median(b - a for a, b in setups)
    probe_s = speed.median_probe_s()
    notes = [
        f"passes {len(passes)} of {', '.join(f'{p.wall_s:.2f}' for p in passes)} s wall; "
        f"set-ups {len(setups)}, median {wall_setup:.3f} s wall",
        f"machine speed: {len(speed.starts)} probes, median {probe_s * 1e3:.3f} ms "
        f"against {REFERENCE_PROBE_S * 1e3:.3f} ms at reference speed",
        f"episode_ms_p98 {p98_text} over all {len(timings)} operation timings, {beyond} beyond",
    ]
    return run, metrics, notes


def per_layer(args: argparse.Namespace) -> tuple[Run, dict[str, float], list[str]]:
    workload, _ = set_up(args.workload, args.seed)
    gc.collect()
    gc.freeze()
    run = Run(workload)
    run.warm_up()
    untraced = run.measure(workload.items, whole=True)
    recorder = SpanRecorder()
    instrumentation = Instrumentation(TARGETS)
    instrumentation.install(recorder)
    workload.recorder = recorder
    try:
        workload.cog.scenario.load_suite(ROOT / "scenarios" / "suite50")
        traced = run.measure(workload.items, whole=True)
    finally:
        workload.recorder = None
        instrumentation.restore()
    left = instrumentation.installed()
    if left:
        raise BenchError(f"span wrappers still installed: {left}")
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
    recorder.write_tsv(spans_path)
    overhead = traced.wall_s / untraced.wall_s
    notes = [
        self_time_table(recorder, f"self time per layer, {args.workload} seed {args.seed}"),
        f"{len(recorder)} spans written to {spans_path.relative_to(ROOT)}",
        f"untraced pass {untraced.wall_s:.3f} s, traced pass {traced.wall_s:.3f} s",
    ]
    return run, layer_metrics(recorder, overhead), notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        run, values, notes = (per_layer if args.trace else end_to_end)(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    units = dict(PER_LAYER if args.trace else END_TO_END)

    failed = min(len(run.failures), run.attempted)
    for failure in run.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in notes:
        print(note)
    for name, unit in units.items():
        print(f"{name:<36}{values[name]:>16.6g} {unit}")
    print(f"failed_ratio {failed}/{run.attempted}")
    print(
        json.dumps(
            {
                "correct": not run.failures,
                "attempted": run.attempted,
                "failed": failed,
                "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
            }
        )
    )
    return 1 if run.failures else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # report, then fail without printing a result
        traceback.print_exc()
        sys.exit(2)
