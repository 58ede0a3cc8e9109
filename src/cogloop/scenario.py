"""Scenario files: the on-disk episode schema, loader, and suite generator.

A scenario bundles everything an episode needs — task text, world fixture,
static context, goal structure, gather template, per-scenario seeds, and the
bounded-context parameters for the comparison system. Loading checks the JSON
shape with anchors such as ``world.weather[2].temp_f``, then the values with
``EpisodeConfig.validate``, so a bad file fails before any episode runs. The
50-scenario suite is generated from a fixed seed, so regenerating it must
reproduce the shipped files byte for byte.
"""
from __future__ import annotations

import json
import logging
import random
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any

from .baseline import check_context
from .cognition import FaultConfig, GatherTemplate, PlannerPolicy
from .evidence import EvidenceParseError
from .goals import GoalConfigError, GoalSpec
from .loop import ConfigError, EpisodeConfig
from .memory import MalformedKey
from .runtime import ErrorCode
from .util import is_int, is_number

logger = logging.getLogger(__name__)

SUITE_SIZE = 50
SUITE_SEED = 2025
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


def _expect_type(value: Any, types: type | tuple[type, ...], path: str, label: str) -> None:
    _expect(isinstance(value, types), path, f"expected {label}, got {type(value).__name__}")


@dataclass
class Scenario:
    """One declarative episode definition, as loaded from a scenario file."""

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

    # ----------------------------------------------------------------- build
    @cached_property
    def policy(self) -> PlannerPolicy:
        """The goal, gather and goal citation, parsed at first use; ``replace`` to change them."""
        try:
            goal = GoalSpec.from_dict(self.goal)
        except (
            GoalConfigError, EvidenceParseError, MalformedKey, AttributeError, KeyError, TypeError
        ) as exc:
            raise ConfigError(f"goal: {exc}") from exc
        return PlannerPolicy(
            goal=goal,
            gather=GatherTemplate(self.gather["tool"], dict(self.gather["arguments"])),
            goal_citation=self.goal_citation,
        )

    def episode_config(
        self,
        seed: int,
        faults: FaultConfig | None = None,
        max_cycles: int | None = None,
    ) -> EpisodeConfig:
        return EpisodeConfig(
            scenario=self.name,
            task=self.task,
            policy=self.policy,
            context=dict(self.context),
            world=dict(self.world),
            extra_tools=tuple(self.extra_tools),
            seed=seed,
            faults=faults,
            max_cycles=max_cycles if max_cycles is not None else self.max_cycles,
        )

    # ------------------------------------------------------------- serialize
    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "task": self.task,
            "world": self.world,
            "context": self.context,
            "goal": self.goal,
            "gather": self.gather,
            "goal_citation": self.goal_citation,
            "extra_tools": self.extra_tools,
            "seeds": self.seeds,
            "max_cycles": self.max_cycles,
            "baseline": {"budget": self.baseline_budget, "decay": self.baseline_decay},
        }

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    # -------------------------------------------------------------- validate
    @classmethod
    def from_dict(cls, data: Any) -> "Scenario":
        """The scenario ``data`` describes; JSON shape is checked here, values by its config."""
        _expect_type(data, dict, "$", "object")
        unknown = sorted(set(data) - _TOP_LEVEL_FIELDS)
        _expect(not unknown, "$", f"unknown fields {unknown}")
        for required in ("name", "task", "world", "goal", "gather"):
            _expect(required in data, required, "required field is missing")

        name = data["name"]
        _expect_type(name, str, "name", "string")
        _expect(
            bool(name) and all(c.isalnum() or c == "_" for c in name) and name == name.lower(),
            "name",
            "must be lowercase letters, digits, and underscores",
        )
        task = data["task"]
        _expect_type(task, str, "task", "string")

        world = _validate_world(data["world"])

        context = data.get("context", {})
        _expect_type(context, dict, "context", "object")

        goal = data["goal"]
        _expect_type(goal, dict, "goal", "object")

        gather = data["gather"]
        _expect_type(gather, dict, "gather", "object")
        unknown = sorted(set(gather) - {"tool", "arguments"})
        _expect(not unknown, "gather", f"unknown fields {unknown}")
        _expect("tool" in gather, "gather.tool", "required field is missing")
        _expect_type(gather["tool"], str, "gather.tool", "string")
        arguments = gather.get("arguments", {})
        _expect_type(arguments, dict, "gather.arguments", "object")

        goal_citation = data.get("goal_citation")
        if goal_citation is not None:
            _expect_type(goal_citation, str, "goal_citation", "string")

        extra_tools = data.get("extra_tools", [])
        _expect_type(extra_tools, list, "extra_tools", "array")

        seeds = data.get("seeds", list(SUITE_SEEDS))
        _expect_type(seeds, list, "seeds", "array")
        _expect(bool(seeds), "seeds", "must list at least one seed")
        for i, seed in enumerate(seeds):
            _expect(is_int(seed), f"seeds[{i}]", "expected integer")

        max_cycles = data.get("max_cycles")
        _expect(max_cycles is None or is_int(max_cycles), "max_cycles", "expected integer or null")

        baseline = data.get("baseline", {})
        _expect_type(baseline, dict, "baseline", "object")
        budget = baseline.get("budget", 1)
        decay = baseline.get("decay", DEFAULT_BASELINE_DECAY)
        for param, value in (("budget", budget), ("decay", decay)):
            # check_context reads None as unset; in a file, null is a bad value.
            _expect(value is not None, f"baseline.{param}", "expected a value, got null")
            try:
                check_context(**{param: value})
            except ConfigError as exc:
                raise ConfigError(f"baseline.{param}: {exc}") from exc

        scenario = cls(
            name=name,
            task=task,
            world=world,
            context=dict(context),
            goal=goal,
            gather={"tool": gather["tool"], "arguments": dict(arguments)},
            goal_citation=goal_citation,
            extra_tools=list(extra_tools),
            seeds=list(seeds),
            max_cycles=max_cycles,
            baseline_budget=budget,
            baseline_decay=float(decay),
        )
        scenario.episode_config(scenario.seeds[0]).validate()
        return scenario


def _validate_world(world: Any) -> dict[str, Any]:
    _expect_type(world, dict, "world", "object")
    unknown = sorted(set(world) - {"seed", "weather", "fault_schedule"})
    _expect(not unknown, "world", f"unknown fields {unknown}")
    seed = world.get("seed", 0)
    _expect(is_int(seed), "world.seed", "expected integer")
    weather = world.get("weather", [])
    _expect_type(weather, list, "world.weather", "array")
    for i, row in enumerate(weather):
        path = f"world.weather[{i}]"
        _expect_type(row, dict, path, "object")
        _expect_type(row.get("location"), str, f"{path}.location", "string")
        _expect_type(row.get("date"), str, f"{path}.date", "string")
        _expect(
            is_number(row.get("temp_f"), finite=True), f"{path}.temp_f", "expected finite number"
        )
        _expect_type(row.get("precipitation"), bool, f"{path}.precipitation", "boolean")
    schedule = world.get("fault_schedule", [])
    _expect_type(schedule, list, "world.fault_schedule", "array")
    for i, row in enumerate(schedule):
        path = f"world.fault_schedule[{i}]"
        _expect_type(row, dict, path, "object")
        _expect_type(row.get("tool"), str, f"{path}.tool", "string")
        ordinal = row.get("ordinal")
        _expect(is_int(ordinal) and ordinal >= 1, f"{path}.ordinal", "expected positive integer")
        # A list, not a set: the code may be any JSON value, hashable or not.
        _expect(row.get("code") in _ERROR_CODES, f"{path}.code", f"expected one of {_ERROR_CODES}")
    return {"seed": seed, "weather": list(weather), "fault_schedule": list(schedule)}


def load_scenario(path: str | Path) -> Scenario:
    """Read and validate one scenario file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"scenario file not found: {path}") from exc
    except ValueError as exc:  # malformed JSON, or bytes that are not UTF-8
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    try:
        return Scenario.from_dict(data)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_suite(directory: str | Path) -> list[Scenario]:
    """Load every ``*.json`` scenario in a directory, sorted by filename."""
    directory = Path(directory)
    paths = sorted(directory.glob("*.json"))
    if not paths:
        raise ConfigError(f"no scenario files found in {directory}")
    return [load_scenario(p) for p in paths]


# ------------------------------------------------------------ suite generator
_CITY_POOL = [
    "Aberdeen", "Anchorage", "Bergen", "Bogota", "Busan", "Cairns", "Calgary",
    "Cork", "Darwin", "Denver", "Dresden", "Edmonton", "Esbjerg", "Fargo",
    "Fukuoka", "Gdansk", "Geneva", "Helsinki", "Hobart", "Incheon",
    "Innsbruck", "Jeju", "Juneau", "Kelowna", "Kyoto", "Lisbon", "Lugano",
    "Malmo", "Munich", "Nagano", "Nairobi", "Odense", "Oslo", "Perth",
    "Porto", "Quebec", "Quito", "Reykjavik", "Rotorua", "Salzburg",
    "Sapporo", "Tallinn", "Tromso", "Uppsala", "Utrecht", "Valencia",
    "Vilnius", "Warsaw", "Wichita", "Xiamen", "Yerevan", "Zagreb", "Zurich",
]


def _pick_city_count(rng: random.Random) -> int:
    roll = rng.random()
    if roll < 0.5:
        return 2
    if roll < 0.8:
        return 3
    return 4


def generate_suite(count: int = SUITE_SIZE, seed: int = SUITE_SEED) -> list[Scenario]:
    """Deterministically generate the benchmark scenarios."""
    rng = random.Random(f"suite:{seed}")
    scenarios: list[Scenario] = []
    for index in range(1, count + 1):
        cities = rng.sample(_CITY_POOL, _pick_city_count(rng))
        temps: dict[str, float] = {}
        for city in cities:
            while True:
                candidate = round(rng.uniform(28.0, 85.0), 1)
                if candidate not in temps.values():
                    temps[city] = candidate
                    break
        all_rain = rng.random() < 0.2
        rain = {city: all_rain or rng.random() < 0.25 for city in cities}
        if not all_rain and all(rain.values()):
            rain[cities[-1]] = False  # keep the cancellation guard scenario-driven
        date = f"2025-{rng.randrange(3, 10):02d}-{rng.randrange(10, 28):02d}"
        with_chart = rng.random() < 0.35

        required = [
            fact
            for city in cities
            for fact in (f"obs.{city}.temp_f", f"obs.{city}.precipitation")
        ]
        branches = []
        for city in cities:
            condition = [
                f"obs.{city}.temp_f {rng.choice(['<', '<='])} obs.{other}.temp_f"
                for other in cities
                if other != city
            ]
            actions: list[dict[str, Any]] = [
                {"name": "book_flight", "arguments": {"location": city}}
            ]
            if with_chart:
                actions.append({"name": "make_chart", "arguments": {"location": city}})
            branches.append({"condition": condition, "actions": actions})
        goal = {
            "required_facts": required,
            "cancellation": {
                "condition": [f"obs.{city}.precipitation == true" for city in cities],
                "action": {
                    "name": "send_email",
                    "arguments": {
                        "to": "ops@example.com",
                        "subject": f"Trip cancelled: rain forecast in {', '.join(cities)}",
                    },
                },
            },
            "branches": branches,
        }
        scenario = Scenario(
            name=f"trip{index:02d}_{cities[0].lower()}",
            task=(
                f"Check the {date} forecast for {', '.join(cities)}; book a flight to "
                "the coldest city, or email operations to cancel if it rains everywhere."
            ),
            world={
                "seed": rng.randrange(10**6, 10**8),
                "weather": [
                    {
                        "location": city,
                        "date": date,
                        "temp_f": temps[city],
                        "precipitation": rain[city],
                    }
                    for city in cities
                ],
                "fault_schedule": [],
            },
            context={
                "goal.trip_policy": {
                    "rule": "Book the coldest destination; cancel everything if it rains in every city.",
                    "priority": "cancellation-first",
                }
            },
            goal=goal,
            gather={
                "tool": "get_weather",
                "arguments": {"location": "{entity}", "date": date},
            },
            goal_citation="goal.trip_policy.rule",
            extra_tools=["make_chart"] if with_chart else [],
            seeds=list(SUITE_SEEDS),
            max_cycles=None,
            baseline_budget=max(1, len(required) - 1),
            baseline_decay=DEFAULT_BASELINE_DECAY,
        )
        scenarios.append(scenario)
    return scenarios


def write_suite(directory: str | Path, count: int = SUITE_SIZE, seed: int = SUITE_SEED) -> list[Path]:
    """Materialize the generated suite as one JSON file per scenario."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for scenario in generate_suite(count, seed):
        path = directory / f"{scenario.name}.json"
        path.write_text(scenario.dumps(), encoding="utf-8")
        written.append(path)
    return written
