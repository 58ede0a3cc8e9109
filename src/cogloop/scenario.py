"""Scenario files: the on-disk episode schema and its loader.

A scenario bundles everything an episode needs — task text, world fixture,
static context, goal structure, gather template, per-scenario seeds, and the
bounded-context parameters for the comparison system. Loading checks the
document's fields (unknown, missing, the ``baseline`` object's keys) and fills
the world's defaults; building the ``Scenario`` judges every value, with
anchors such as ``seeds[2]``, so a bad file fails before any episode runs.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any

from .baseline import check_context
from .cognition import (
    FACT_PREFIX, FEEDBACK_LINE, FactView, FaultConfig, GatherTemplate, PlannerPolicy,
    format_memory_fact, parse_entities,
)
from .evidence import EvidenceParseError
from .goals import GoalSpec
from .loop import ConfigError, EpisodeConfig, check_max_cycles
from .memory import NOT_FOUND, EntryKind, MalformedKey, MemoryStore, StoreError, key_segments
from .runtime import (
    EXTRA_SPECS, ErrorCode, ToolFailure, WorldState, argument_problems, builtin_registry
)
from .util import canonical_json, expect_object, expect_type, is_int, is_number

SUITE_SEEDS = [1, 2, 3, 4, 5]
DEFAULT_BASELINE_DECAY = 0.3

_TOP_LEVEL_FIELDS = {
    "name",
    "task",
    "world",
    "context",
    "goal",
    "gather",
    "goal_citation",
    "extra_tools",
    "seeds",
    "max_cycles",
    "baseline",
}
_ERROR_CODES = sorted(code.value for code in ErrorCode)


def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{path}: {message}")


@dataclass(frozen=True)
class Scenario:
    """One declarative episode definition, valid by construction.

    Building one runs ``validate``, so ``dataclasses.replace`` checks the copy it builds.
    """

    name: str
    task: str
    world: dict[str, Any]
    goal: dict[str, Any]
    gather: dict[str, Any]
    context: dict[str, dict[str, Any]] = field(default_factory=dict)
    goal_citation: str | None = None
    extra_tools: list[str] = field(default_factory=list)
    seeds: list[int] = field(default_factory=lambda: list(SUITE_SEEDS))
    max_cycles: int | None = None
    baseline_budget: int = 1
    baseline_decay: float = DEFAULT_BASELINE_DECAY

    def __post_init__(self) -> None:
        self.validate()

    # ----------------------------------------------------------------- build
    @cached_property
    def policy(self) -> PlannerPolicy:
        """The goal, gather and goal citation, parsed once, when ``validate`` first reads them."""
        try:
            goal = GoalSpec.from_dict(self.goal)
        except (EvidenceParseError, MalformedKey) as exc:
            raise ConfigError(f"goal: {exc}") from exc
        return PlannerPolicy(
            goal=goal,
            gather=GatherTemplate(self.gather["tool"], dict(self.gather.get("arguments", {}))),
            goal_citation=self.goal_citation,
        )

    def episode_config(
        self, seed: int, faults: FaultConfig | None = None, max_cycles: int | None = None
    ) -> EpisodeConfig:
        return EpisodeConfig(self, seed, faults, max_cycles)

    # -------------------------------------------------------------- validate
    def validate(self) -> None:
        """Check every rule on the scenario's fields; a ``ConfigError`` names the field at fault."""
        name = self.name
        expect_type(name, str, "name", "string")
        _expect(
            bool(name) and all(c.isalnum() or c == "_" for c in name) and name == name.lower(),
            "name",
            "must be lowercase letters, digits, and underscores",
        )
        expect_type(self.task, str, "task", "string")
        if not self.task.strip():
            raise ConfigError("task must be a non-empty string")
        expect_type(self.context, dict, "context", "object")
        if self.goal_citation is not None:
            expect_type(self.goal_citation, str, "goal_citation", "string")
        expect_type(self.extra_tools, list, "extra_tools", "array")
        seeds = self.seeds
        expect_type(seeds, list, "seeds", "array")
        _expect(bool(seeds), "seeds", "must list at least one seed")
        for i, seed in enumerate(seeds):
            _expect(is_int(seed), f"seeds[{i}]", "expected integer")
            _expect(seed not in seeds[:i], f"seeds[{i}]", f"repeats {seed}")
        check_max_cycles(self.max_cycles)
        check_context(self.baseline_budget, self.baseline_decay)
        _check_world(self.world)
        _check_gather(self.gather)
        goal, gather = self.policy.goal, self.policy.gather
        for i, name in enumerate(self.extra_tools):
            if not isinstance(name, str) or name not in EXTRA_SPECS:
                raise ConfigError(
                    f"extra_tools[{i}]: unknown optional tool {name!r} "
                    f"(available: {sorted(EXTRA_SPECS)})"
                )
            if name in self.extra_tools[:i]:
                raise ConfigError(f"extra_tools[{i}]: repeats {name!r}")
        registry = builtin_registry(list(self.extra_tools))
        wanted = [gather.tool] + [t.name for t in goal.action_templates()]
        missing = sorted({name for name in wanted if registry.get(name) is None})
        if missing:
            raise ConfigError(f"goal references unregistered tools: {missing}")
        for i, row in enumerate(self.world.get("fault_schedule", [])):
            if row["tool"] not in registry:
                raise ConfigError(
                    f"world.fault_schedule[{i}].tool: no tool named {row['tool']!r} is registered"
                )
        spec = registry[gather.tool]
        world = WorldState.from_dict(self.world)  # for dry runs only
        for entity in goal.entities():
            if f"{FACT_PREFIX}{entity}".startswith(FEEDBACK_LINE):
                raise ConfigError(
                    f"goal: entity {entity!r} is in the feedback namespace, "
                    "whose fact lines the proposer does not read"
                )
            # Control and the runtime judge each call by `argument_problems`.
            observed = None
            try:
                call = gather.build_call(entity)
                problems = argument_problems(spec, call.arguments)
                if not problems and spec.observes is not None:
                    observed = spec.observes(call.canonical_args)
                    key_segments(observed)
            except (LookupError, ValueError, AttributeError, MalformedKey, RecursionError) as exc:
                problems = [f"{type(exc).__name__}: {exc}"]
            if problems:
                raise ConfigError(
                    f"gather.arguments: no valid call for entity {entity!r} "
                    f"({'; '.join(problems)})"
                )
            if observed != f"obs.{entity}":
                raise ConfigError(
                    f"gather.arguments: the call for entity {entity!r} observes "
                    f"{observed!r}, not 'obs.{entity}'"
                )
            # A sensor's answer depends on the world alone: a failing dry run fails every call.
            try:
                spec.handler(call.canonical_args, world)
            except ToolFailure as failure:
                raise ConfigError(
                    f"gather.arguments: the call for entity {entity!r} always fails "
                    f"({failure.code.value}: {failure.message})"
                ) from None
        for action in goal.action_templates():
            problems = argument_problems(registry[action.name], action.arguments)
            if problems:
                raise ConfigError(
                    f"goal: action {action.describe()} is incomplete ({'; '.join(problems)})"
                )
        # Cycle 0 as `drive_episode` commits it: the store's entry rules judge the context.
        store = MemoryStore()
        self.stage_context(store)
        snapshot = store.commit_cycle()
        citation = self.policy.goal_citation
        if citation is not None:
            try:
                key_segments(citation)
            except MalformedKey as exc:
                raise ConfigError(f"goal_citation: {exc}") from exc
            if not citation.startswith("goal."):
                raise ConfigError("goal_citation: must be a goal.* key")
            if snapshot.resolve(citation) is NOT_FOUND:
                raise ConfigError(f"goal_citation: {citation!r} does not resolve in context")
        # The proposer reads goal.* values back from the fact lines of that cycle 0.
        view = FactView(parse_entities(tuple(map(format_memory_fact, snapshot.entries))))
        for key in goal.condition_keys():
            if not key.startswith("goal."):
                continue
            held = snapshot.resolve(key)
            if held is NOT_FOUND:
                raise ConfigError(f"goal: condition key {key!r} does not resolve in context")
            read = view.resolve(key)
            if read is NOT_FOUND or canonical_json(read) != canonical_json(held):
                raise ConfigError(
                    f"goal: condition key {key!r} holds {held!r}, "
                    f"which the proposer reads as {read!r}"
                )

    def stage_context(self, store: MemoryStore) -> None:
        """Stage the context entries of cycle 0, in key order; an entry the store refuses
        raises a ``ConfigError``, when the scenario is built and on every cycle 0 after."""
        for key in sorted(self.context, key=str):  # the store refuses a key of another type
            try:
                store.write_staged(key, EntryKind.OBSERVATION, self.context[key], source="init")
            except StoreError as exc:
                raise ConfigError(f"context: {exc}") from exc
            except (TypeError, ValueError, RecursionError) as exc:  # a set, a cycle: no JSON
                raise ConfigError(f"context.{key}: not a JSON value ({exc})") from None

    # ------------------------------------------------------------------ load
    @classmethod
    def from_dict(cls, data: Any) -> "Scenario":
        """The scenario ``data`` describes; the document's fields are checked here, their values
        when it is built."""
        expect_object(data, "$", _TOP_LEVEL_FIELDS)
        for required in ("name", "task", "world", "goal", "gather"):
            _expect(required in data, required, "required field is missing")
        fields = {key: value for key, value in data.items() if key != "baseline"}
        baseline = data.get("baseline", {})
        expect_object(baseline, "baseline", {"budget", "decay"})
        fields.update({f"baseline_{key}": value for key, value in baseline.items()})
        world = data["world"]
        if isinstance(world, dict):  # the digest reads the world with its defaults
            fields["world"] = {"seed": 0, "weather": [], "fault_schedule": [], **world}
        return cls(**fields)


def _check_world(world: Any) -> None:
    expect_object(world, "world", {"seed", "weather", "fault_schedule"})
    seed = world.get("seed", 0)
    _expect(is_int(seed), "world.seed", "expected integer")
    weather = world.get("weather", [])
    expect_type(weather, list, "world.weather", "array")
    readings = set()
    for i, row in enumerate(weather):
        path = f"world.weather[{i}]"
        expect_object(row, path, {"location", "date", "temp_f", "precipitation"})
        expect_type(row.get("location"), str, f"{path}.location", "string")
        expect_type(row.get("date"), str, f"{path}.date", "string")
        _expect(
            is_number(row.get("temp_f"), finite=True), f"{path}.temp_f", "expected finite number"
        )
        expect_type(row.get("precipitation"), bool, f"{path}.precipitation", "boolean")
        reading = (row["location"], row["date"])
        _expect(reading not in readings, path, "repeats the reading for {} on {}".format(*reading))
        readings.add(reading)
    schedule = world.get("fault_schedule", [])
    expect_type(schedule, list, "world.fault_schedule", "array")
    faults = set()
    for i, row in enumerate(schedule):
        path = f"world.fault_schedule[{i}]"
        expect_object(row, path, {"tool", "ordinal", "code"})
        expect_type(row.get("tool"), str, f"{path}.tool", "string")
        ordinal = row.get("ordinal")
        _expect(is_int(ordinal) and ordinal >= 1, f"{path}.ordinal", "expected positive integer")
        # A list, not a set: the code may be any JSON value, hashable or not.
        _expect(row.get("code") in _ERROR_CODES, f"{path}.code", f"expected one of {_ERROR_CODES}")
        fault = (row["tool"], ordinal)
        _expect(fault not in faults, path, "repeats the fault for {} at ordinal {}".format(*fault))
        faults.add(fault)


def _check_gather(gather: Any) -> None:
    expect_object(gather, "gather", {"tool", "arguments"})
    _expect("tool" in gather, "gather.tool", "required field is missing")
    expect_type(gather["tool"], str, "gather.tool", "string")
    expect_type(gather.get("arguments", {}), dict, "gather.arguments", "object")


def load_scenario(path: str | Path) -> Scenario:
    """Read and validate one scenario file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"scenario file not found: {path}") from exc
    except (ValueError, RecursionError) as exc:  # malformed, not UTF-8, or nested too deep
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    try:
        return Scenario.from_dict(data)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_suite(directory: str | Path) -> list[Scenario]:
    """Load every ``*.json`` scenario in a directory, sorted by filename; names are unique."""
    directory = Path(directory)
    paths = sorted(directory.glob("*.json"))
    if not paths:
        raise ConfigError(f"no scenario files found in {directory}")
    first: dict[str, Path] = {}
    scenarios = []
    for path in paths:
        scenario = load_scenario(path)
        other = first.setdefault(scenario.name, path)
        _expect(other == path, f"{path}: name", f"repeats {scenario.name!r}, the name of {other}")
        scenarios.append(scenario)
    return scenarios
