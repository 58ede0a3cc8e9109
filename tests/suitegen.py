"""The generator of the 50-scenario suite in ``scenarios/suite50``.

The suite is generated from a fixed seed, so regenerating it reproduces the
shipped files byte for byte. From the repository root:

    PYTHONPATH=src:tests python -c 'import suitegen; suitegen.write_suite("scenarios/suite50")'
"""
from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Any

from cogloop.scenario import DEFAULT_BASELINE_DECAY, SUITE_SEEDS, Scenario

SUITE_SIZE = 50
SUITE_SEED = 2025


def to_dict(scenario: Scenario) -> dict[str, Any]:
    """The scenario as the JSON object its file holds."""
    return {
        "name": scenario.name,
        "task": scenario.task,
        "world": scenario.world,
        "context": scenario.context,
        "goal": scenario.goal,
        "gather": scenario.gather,
        "goal_citation": scenario.goal_citation,
        "extra_tools": scenario.extra_tools,
        "seeds": scenario.seeds,
        "max_cycles": scenario.max_cycles,
        "baseline": {"budget": scenario.baseline_budget, "decay": scenario.baseline_decay},
    }


def dumps(scenario: Scenario) -> str:
    """The scenario's file text."""
    return json.dumps(to_dict(scenario), indent=2, sort_keys=True) + "\n"


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
        path.write_text(dumps(scenario), encoding="utf-8")
        written.append(path)
    return written
