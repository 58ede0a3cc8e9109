"""Command-line interface: run episodes, sweep the suite, inspect traces.

Exit codes: 0 for a completed run (or a clean trace), 1 for configuration
errors and unknown references, 2 for episodes that stop without satisfying
the goal, 3 when chain reconstruction finds a gap.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from collections import Counter
from pathlib import Path
from typing import Any

from .baseline import run_baseline_episode
from .cognition import FAULT_TYPES, FaultConfig
from .loop import ConfigError, EpisodeResult, EpisodeStatus, run_episode
from .scenario import Scenario, load_scenario, load_suite
from .trace import (
    EpisodeTrace,
    GapReport,
    Metric,
    ParseError,
    UnknownAction,
    aggregate_metrics,
    compute_metrics,
    iter_chains,
    reconstruct_chain,
)
from .util import canonical_json

METRIC_LABELS = {
    "spa": "state persistence",
    "tc": "trace completeness",
    "elp": "error localization",
}
_FAULT_ALIASES = {f"{fault_type}s": fault_type for fault_type in FAULT_TYPES}


def parse_faults(spec: str | None, seed: int = 0) -> FaultConfig | None:
    """Parse ``type=prob,...`` (plural aliases and ``all=`` accepted) into a ``FaultConfig``;
    each type is set at most once, and ``all=`` sets every type."""
    if not spec:
        return None
    config: dict[str, Any] = {"seed": seed}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, raw = part.partition("=")
        if not sep:
            raise ConfigError(f"fault spec {part!r} must look like type=probability")
        key = key.strip().lower()
        if key.startswith("p_"):
            key = key[2:]
        key = _FAULT_ALIASES.get(key, key)
        if key != "all" and key not in FAULT_TYPES:
            raise ConfigError(f"unknown fault type {key!r} (known: {', '.join(FAULT_TYPES)})")
        try:
            prob = float(raw)
        except ValueError:
            raise ConfigError(f"fault probability {raw!r} is not a number") from None
        for fault_type in FAULT_TYPES if key == "all" else (key,):
            if f"p_{fault_type}" in config:
                raise ConfigError(f"fault type {fault_type!r} is set twice in {spec!r}")
            config[f"p_{fault_type}"] = prob
    return FaultConfig(**config)


def parse_seeds(spec: str) -> list[int]:
    try:
        seeds = [int(part) for part in spec.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"seeds {spec!r} must be comma-separated integers") from None
    if not seeds:
        raise ConfigError("seed list is empty")
    for i, seed in enumerate(seeds):
        if seed in seeds[:i]:
            raise ConfigError(f"--seeds: repeats {seed}")
    return seeds


def render_table(columns: dict[str, dict[str, Metric]]) -> str:
    """Aligned metric table; undefined ratios render as n/a."""
    names = [n for n in ("spa", "tc", "elp") if any(n in col for col in columns.values())]
    header = f"{'metric':<20}" + "".join(f"{system:>12}" for system in columns)
    lines = [header]
    for name in names:
        row = f"{METRIC_LABELS[name]:<20}"
        for metrics in columns.values():
            m = metrics.get(name)
            cell = "-" if m is None else "n/a" if m.ratio is None else f"{m.ratio:.3f}"
            row += f"{cell:>12}"
        lines.append(row)
    return "\n".join(lines)


def _metrics_table(columns: dict[str, dict[str, Metric]]) -> dict[str, dict[str, Any]]:
    """``{system: {metric: to_dict()}}``, the form metric files store."""
    return {
        system: {name: metric.to_dict() for name, metric in metrics.items()}
        for system, metrics in columns.items()
    }


def _print_status(label: str, result: EpisodeResult) -> None:
    print(
        f"{label}: {result.status.value} in {result.cycles_used}/{result.max_cycles} cycles"
    )


def _episodes(
    args: argparse.Namespace, scenario: Scenario, seed: int, faults: FaultConfig | None
) -> list[tuple[str, EpisodeResult, dict[str, Metric]]]:
    """The governed episode, then under ``--compare`` the baseline one, with their metrics."""
    config = scenario.episode_config(seed, faults=faults, max_cycles=args.max_cycles)
    results = [("governed", run_episode(config))]
    if args.compare:
        budget, decay = scenario.baseline_budget, scenario.baseline_decay
        results.append(("baseline", run_baseline_episode(config, budget, decay)))
    return [(system, result, compute_metrics(result.trace)) for system, result in results]


def _with_overrides(args: argparse.Namespace, scenarios: list[Scenario]) -> list[Scenario]:
    """The scenarios with the baseline overrides, which ``Scenario.validate`` judges."""
    budget, decay = args.baseline_budget, args.baseline_decay
    if budget is None and decay is None:
        return scenarios
    if not args.compare:
        raise ConfigError("--baseline-budget and --baseline-decay need --compare")
    return [
        dataclasses.replace(
            scenario,
            baseline_budget=scenario.baseline_budget if budget is None else budget,
            baseline_decay=scenario.baseline_decay if decay is None else decay,
        )
        for scenario in scenarios
    ]


# ---------------------------------------------------------------- subcommands
def cmd_run(args: argparse.Namespace) -> int:
    [scenario] = _with_overrides(args, [load_scenario(args.scenario)])
    seed = args.seed if args.seed is not None else scenario.seeds[0]
    episodes = _episodes(args, scenario, seed, parse_faults(args.faults))
    _, result, _ = episodes[0]
    print(f"scenario {scenario.name} seed {seed}")
    _print_status("governed", result)
    if args.verbose:
        for record in result.trace.cycles:
            for line in record.log_lines:
                print(f"  c{record.cycle} {line}")
    print(f"final: {result.final_response}")
    for system, baseline_result, _ in episodes[1:]:
        _print_status(system, baseline_result)
    columns = {system: metrics for system, _, metrics in episodes}
    print(render_table(columns))

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{scenario.name}_s{seed}"
        for system, episode, _ in episodes:
            episode.trace.dump(out / f"{stem}_{system}.jsonl")
        metrics_json = canonical_json(_metrics_table(columns)) + "\n"
        (out / f"{stem}_metrics.json").write_text(metrics_json, encoding="utf-8")
        print(f"wrote artifacts to {out}")
    return 0 if result.status is EpisodeStatus.COMPLETED else 2


def cmd_suite(args: argparse.Namespace) -> int:
    scenarios = _with_overrides(args, load_suite(args.directory))
    faults = parse_faults(args.faults)
    seeds_override = parse_seeds(args.seeds) if args.seeds is not None else None
    episodes: list[dict[str, Any]] = []
    per_system: dict[str, list[dict[str, Metric]]] = {}
    statuses: dict[str, Counter] = {}

    for scenario in scenarios:
        for seed in seeds_override or scenario.seeds:
            for system, result, metrics in _episodes(args, scenario, seed, faults):
                per_system.setdefault(system, []).append(metrics)
                statuses.setdefault(system, Counter())[result.status.value] += 1
                episodes.append(
                    {
                        "scenario": scenario.name,
                        "seed": seed,
                        "system": system,
                        "status": result.status.value,
                        "cycles": result.cycles_used,
                        "metrics": {n: m.to_dict() for n, m in metrics.items()},
                    }
                )

    total = sum(statuses["governed"].values())
    print(f"suite: {len(scenarios)} scenarios, {total} episodes per system")
    columns = {system: aggregate_metrics(rows) for system, rows in per_system.items()}
    for system, counter in statuses.items():
        summary = ", ".join(f"{count} {status}" for status, count in sorted(counter.items()))
        print(f"{system}: {summary}")
    print(render_table(columns))

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        payload = {
            "faults": args.faults,
            "aggregate": _metrics_table(columns),
            "episodes": episodes,
        }
        (out / "metrics.json").write_text(canonical_json(payload) + "\n", encoding="utf-8")
        print(f"wrote metrics to {out / 'metrics.json'}")
    return 0


def _print_chain(chain) -> None:
    print(f"chain {chain.action_ref} (cycle {chain.cycle}): complete")
    call = chain.call
    rendered_args = ", ".join(f"{k}={v!r}" for k, v in call["arguments"].items())
    print(f"  proposal:   {call['name']}({rendered_args})")
    print("  decision:   approved")
    outcome = chain.invocation.get("outcome", {})
    print(
        f"  invocation: ok={outcome.get('ok')} latency={chain.invocation.get('latency_ms')} ms"
    )
    for entry in chain.entries:
        print(f"  entry:      {entry.key} v{entry.version}")
    for citation in chain.citations:
        print(f"  citation:   {citation}")
    for key, value in chain.resolved:
        print(f"    resolved  {key} = {value!r}")


def _print_gap(gap: GapReport) -> None:
    print(f"GAP {gap.action_ref} (cycle {gap.cycle}) [{gap.missing_link}]: {gap.detail}")


def cmd_trace(args: argparse.Namespace) -> int:
    trace = EpisodeTrace.load(args.trace_file)
    header = trace.header
    system = "baseline" if header.baseline else "governed"
    print(
        f"trace: scenario {header.scenario} seed {header.seed} system {system} "
        f"proposer {header.proposer} cycles {len(trace.cycles) - 1}"
    )
    if args.action:
        chain = reconstruct_chain(trace, args.action)
        if isinstance(chain, GapReport):
            _print_gap(chain)
            return 3
        _print_chain(chain)
        return 0

    gaps = 0
    for chain in iter_chains(trace):
        if isinstance(chain, GapReport):
            gaps += 1
            _print_gap(chain)
        else:
            print(
                f"chain {chain.action_ref}: complete "
                f"({len(chain.citations)} citations, {len(chain.entries)} entries)"
            )
    print(render_table({system: compute_metrics(trace)}))
    return 3 if gaps else 0


# --------------------------------------------------------------------- parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cogloop",
        description="Deterministic governed agent loop: run scenarios, compare, inspect traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    episodes = argparse.ArgumentParser(add_help=False)  # options run and suite share
    episodes.add_argument("--faults", help="inject faults, e.g. duplicate=0.3,missing_arg=0.1")
    episodes.add_argument("--max-cycles", type=int, dest="max_cycles", help="override cycle budget")
    episodes.add_argument(
        "--compare", action="store_true", help="also run the bounded-context baseline"
    )
    episodes.add_argument("--baseline-budget", type=int, dest="baseline_budget")
    episodes.add_argument("--baseline-decay", type=float, dest="baseline_decay")

    run_p = sub.add_parser("run", parents=[episodes], help="run one scenario episode")
    run_p.add_argument("scenario", help="path to a scenario JSON file")
    run_p.add_argument("--seed", type=int, help="episode seed (default: first scenario seed)")
    run_p.add_argument("--out", help="directory for trace and metric artifacts")
    run_p.add_argument("--verbose", action="store_true", help="print per-cycle log lines")
    run_p.set_defaults(func=cmd_run)

    suite_p = sub.add_parser("suite", parents=[episodes], help="run every scenario in a directory")
    suite_p.add_argument("directory", help="directory of scenario JSON files")
    suite_p.add_argument("--seeds", help="comma-separated seed override")
    suite_p.add_argument("--out", help="directory for the aggregated metrics file")
    suite_p.set_defaults(func=cmd_suite)

    trace_p = sub.add_parser("trace", help="inspect a trace file")
    trace_p.add_argument("trace_file", help="path to a trace JSONL file")
    trace_p.add_argument("action", nargs="?", help="action reference, e.g. act.book_flight")
    trace_p.set_defaults(func=cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 1
    except (UnknownAction, OSError) as exc:  # OSError: a missing file, a directory, no permission
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
