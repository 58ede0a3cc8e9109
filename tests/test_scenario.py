"""Scenario schema validation, fixture loading, and suite regeneration."""
from __future__ import annotations

import dataclasses
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from cogloop.baseline import run_baseline_episode
from cogloop.cognition import FAULT_TYPES, FaultConfig
from cogloop.loop import ConfigError, run_episode
from cogloop.scenario import Scenario, load_scenario, load_suite
from cogloop.trace import EpisodeTrace
from cogloop.util import is_int
from conftest import SCENARIO_DIR
from strategies import huge_ints, json_values, whole_episodes
from suitegen import SUITE_SEED, SUITE_SIZE, dumps, generate_suite, to_dict, write_suite


def valid_document() -> dict:
    return {
        "name": "sample_trip",
        "task": "Pick the colder of two cities.",
        "world": {
            "seed": 42,
            "weather": [
                {"location": "Oslo", "date": "2025-06-14",
                 "temp_f": 40.0, "precipitation": False},
                {"location": "Porto", "date": "2025-06-14",
                 "temp_f": 70.0, "precipitation": False},
            ],
            "fault_schedule": [],
        },
        "context": {"goal.pick": {"rule": "Colder city wins."}},
        "goal": {
            "required_facts": ["obs.Oslo.temp_f", "obs.Porto.temp_f"],
            "branches": [
                {
                    "condition": ["obs.Oslo.temp_f <= obs.Porto.temp_f"],
                    "actions": [{"name": "book_flight", "arguments": {"location": "Oslo"}}],
                },
                {
                    "condition": ["obs.Porto.temp_f < obs.Oslo.temp_f"],
                    "actions": [{"name": "book_flight", "arguments": {"location": "Porto"}}],
                },
            ],
        },
        "gather": {
            "tool": "get_weather",
            "arguments": {"location": "{entity}", "date": "2025-06-14"},
        },
        "goal_citation": "goal.pick.rule",
        "extra_tools": [],
        "seeds": [1, 2],
        "max_cycles": None,
        "baseline": {"budget": 2, "decay": 0.3},
    }


def expect_error(document: dict, anchor: str) -> None:
    with pytest.raises(ConfigError) as excinfo:
        Scenario.from_dict(document)
    assert anchor in str(excinfo.value)


# ----------------------------------------------------------------- fixtures
def test_shipped_fixtures_load_and_run(two_city, rain_cancellation, transient_retry):
    for scenario in (two_city, rain_cancellation, transient_retry):
        result = run_episode(scenario.episode_config(seed=scenario.seeds[0]))
        assert result.status.value == "Completed"


def test_fixture_round_trip(two_city):
    again = Scenario.from_dict(json.loads(json.dumps(to_dict(two_city))))
    assert again == two_city
    assert Scenario.from_dict(json.loads(dumps(two_city))) == two_city


def test_valid_document_accepted():
    scenario = Scenario.from_dict(valid_document())
    assert scenario.name == "sample_trip"
    assert scenario.baseline_budget == 2 and scenario.baseline_decay == 0.3
    scenario.episode_config(seed=1)


# --------------------------------------------------------- anchored failures
def test_unknown_top_level_field_rejected():
    document = valid_document()
    document["surprise"] = 1
    expect_error(document, "unknown fields ['surprise']")


@pytest.mark.parametrize("missing", ["name", "task", "world", "goal", "gather"])
def test_required_fields_reported_by_name(missing):
    document = valid_document()
    del document[missing]
    expect_error(document, missing)


def test_bad_weather_row_reports_json_path():
    document = valid_document()
    document["world"]["weather"][1]["temp_f"] = "warm"
    expect_error(document, "world.weather[1].temp_f")
    # A second row for one (location, date) would replace the first in the world.
    document = valid_document()
    document["world"]["weather"].append({**document["world"]["weather"][0], "temp_f": 99.0})
    expect_error(document, "world.weather[2]: repeats the reading for Oslo on 2025-06-14")
    document = valid_document()
    document["world"]["weather"][0]["humidity"] = 0.4
    expect_error(document, "world.weather[0]: unknown fields ['humidity']")


def test_bad_fault_schedule_reports_json_path():
    document = valid_document()
    document["world"]["fault_schedule"] = [
        {"tool": "get_weather", "ordinal": 0, "code": "TransientFailure"}
    ]
    expect_error(document, "world.fault_schedule[0].ordinal")
    document["world"]["fault_schedule"] = [
        {"tool": "get_weather", "ordinal": 1, "code": "Gremlins"}
    ]
    expect_error(document, "world.fault_schedule[0].code")
    document["world"]["fault_schedule"] = [{"tool": "get_weather", "ordinal": 1, "code": []}]
    expect_error(document, "world.fault_schedule[0].code: expected one of")
    document["world"]["fault_schedule"] = [
        {"tool": "get_wether", "ordinal": 1, "code": "TransientFailure"}
    ]
    expect_error(document, "world.fault_schedule[0].tool: no tool named 'get_wether'")
    # A second row for one (tool, ordinal) would replace the first in the schedule.
    document["world"]["fault_schedule"] = [
        {"tool": "get_weather", "ordinal": 1, "code": "TransientFailure"},
        {"tool": "get_weather", "ordinal": 1, "code": "DomainError"},
    ]
    expect_error(
        document, "world.fault_schedule[1]: repeats the fault for get_weather at ordinal 1"
    )
    document["world"]["fault_schedule"] = [
        {"tool": "get_weather", "ordinal": 1, "code": "TransientFailure", "cycle": 2}
    ]
    expect_error(document, "world.fault_schedule[0]: unknown fields ['cycle']")


def test_unknown_world_field_rejected():
    document = valid_document()
    document["world"]["gravity"] = 9.8
    expect_error(document, "world: unknown fields ['gravity']")


def test_goal_errors_are_anchored():
    document = valid_document()
    document["goal"]["required_facts"] = []
    expect_error(document, "goal:")
    document = valid_document()
    document["goal"]["required_facts"][0] = "obs.New York.temp_f"  # a malformed key
    expect_error(document, "goal: empty or whitespace segment in key 'obs.New York.temp_f'")
    document = valid_document()
    document["goal"]["branches"][0]["condition"] = ["obs.New York.temp_f < 50"]  # unparseable
    expect_error(document, "goal: left side of 'obs.New York.temp_f < 50'")
    document = valid_document()
    document["goal"]["branches"] = ["not an object"]
    expect_error(document, "goal.branches[0]: expected object, got str")
    document = json.loads(json.dumps(valid_document()).replace("Oslo", "feedback.cycle1"))
    # Its line would read like cycle 1's feedback line, which no entity map holds.
    expect_error(document, "goal: entity 'feedback.cycle1' is in the feedback namespace")
    document = valid_document()
    document["goal"]["required_facts"].append("obs.Oslo")  # an entity, not a leaf
    expect_error(document, "goal: required fact 'obs.Oslo' must be an obs.<entity>.<field> leaf")
    document = valid_document()
    branch = document["goal"]["branches"][1]
    branch["actions"].append({"name": "book_flight", "arguments": {"location": "Oslo"}})
    expect_error(document, "goal: branches[1] names tool 'book_flight' twice")
    document = valid_document()
    document["goal"]["branches"][1]["condition"].append("goal.limits.max_f > obs.Porto.temp_f")
    expect_error(document, "goal: condition key 'goal.limits.max_f' does not resolve in context")
    document["context"]["goal.limits"] = {"max_f": 90}
    Scenario.from_dict(document)  # resolves once the context holds it
    document["goal"]["branches"][1]["condition"][-1] = "goal.limits > obs.Porto.temp_f"
    Scenario.from_dict(document)  # a whole context entry resolves too
    action = valid_document()["goal"]["branches"][1]["actions"][0]
    for edit, anchor in [
        ({"arguments": "x"}, "goal.branches[1].actions[0].arguments: expected object, got str"),
        ({"name": []}, "goal.branches[1].actions[0].name: expected string, got list"),
        ({"note": "x"}, "goal.branches[1].actions[0]: unknown fields ['note']"),
        ({"arguments": {}}, "goal: action book_flight() is incomplete "
                            "(missing required argument 'location')"),
        ({"arguments": {"location": "TBD"}}, "goal: action book_flight(location=TBD) is "
                                             "incomplete (argument 'location' is a placeholder"),
    ]:
        document = valid_document()
        document["goal"]["branches"][1]["actions"] = [{**action, **edit}]
        expect_error(document, anchor)


@pytest.mark.parametrize("edit, anchor", [
    ({"brances": []}, "goal: unknown fields ['brances']"),
    ({"required_facts": "obs.Oslo.temp_f"}, "goal.required_facts: expected array, got str"),
    ({"branches": {}}, "goal.branches: expected array, got dict"),
    ({"branches": [{"condition": [], "actoins": []}]},
     "goal.branches[0]: unknown fields ['actoins']"),
    ({"branches": [{"condition": "obs.Oslo.temp_f < 50"}]},
     "goal.branches[0].condition: expected array, got str"),
    ({"branches": [{"condition": [50]}]}, "goal.branches[0].condition[0]: expected string, got int"),
    ({"branches": [{"actions": {"name": "book_flight"}}]},
     "goal.branches[0].actions: expected array, got dict"),
    ({"cancellation": []}, "goal.cancellation: expected object, got list"),
    ({"cancellation": {}}, "goal.cancellation.action: expected object, got NoneType"),
    ({"cancellation": {"condition": [], "actions": []}},
     "goal.cancellation: unknown fields ['actions']"),
], ids=["goal-field", "facts-not-array", "branches-not-array", "branch-field",
        "condition-not-array", "condition-not-string", "actions-not-array",
        "cancellation-not-object", "cancellation-without-action", "cancellation-field"])
def test_goal_shape_errors_name_the_path(edit, anchor):
    document = valid_document()
    document["goal"].update(edit)
    expect_error(document, anchor)


@pytest.mark.parametrize("held, accepted", [
    (90, True), (90.5, True), ("ninety", True), ({"x": [1, "a"]}, True),
    ("90", False), ("true", False), ("a, b=1", False), ([1, "a, b"], False),
], ids=["int", "float", "word", "object", "digits", "true", "comma", "comma-in-array"])
def test_goal_condition_values_read_back_as_held(held, accepted):
    """The proposer reads goal.* condition values from fact-line text, memory holds them typed."""
    document = valid_document()
    document["context"]["goal.limits"] = {"max_f": held}
    document["goal"]["branches"][1]["condition"].append("goal.limits.max_f > obs.Porto.temp_f")
    if accepted:
        Scenario.from_dict(document)
    else:
        expect_error(document, "goal: condition key 'goal.limits.max_f' holds")


def test_goal_citation_must_anchor_to_context():
    document = valid_document()
    document["goal_citation"] = "goal.absent.rule"
    expect_error(document, "goal_citation")
    document["goal_citation"] = "goal.pick.rulez"  # the entry exists, its field does not
    expect_error(document, "goal_citation: 'goal.pick.rulez' does not resolve in context")
    document["goal_citation"] = "goal.pick"
    Scenario.from_dict(document)  # the whole entry resolves
    document["goal_citation"] = "obs.Oslo.temp_f"
    expect_error(document, "must be a goal.* key")


def test_unknown_extra_tool_rejected():
    document = valid_document()
    document["extra_tools"] = ["make_chart", "teleport"]
    expect_error(document, "extra_tools[1]")
    document["extra_tools"] = ["make_chart"]
    Scenario.from_dict(document)  # the known optional tool is fine


def test_repeated_extra_tool_rejected():
    document = valid_document()
    document["extra_tools"] = ["make_chart", "make_chart"]
    expect_error(document, "extra_tools[1]: repeats 'make_chart'")


@pytest.mark.parametrize("arguments, problem", [
    ({"location": "{entity}"}, "missing required argument 'date'"),
    ({"location": "{entity}", "date": 5}, "argument 'date' must be string, got 5"),
    ({"location": "{entity}", "date": "TBD"}, "argument 'date' is a placeholder ('TBD')"),
])
def test_gather_template_must_make_complete_calls(arguments, problem):
    document = valid_document()
    document["gather"]["arguments"] = arguments
    expect_error(document, f"gather.arguments: no valid call for entity 'Oslo' ({problem})")


def test_unknown_gather_field_rejected():
    document = valid_document()
    document["gather"]["static_args"] = {"date": "2025-06-14"}
    expect_error(document, "gather: unknown fields ['static_args']")


def test_seed_and_name_constraints():
    document = valid_document()
    document["seeds"] = []
    expect_error(document, "seeds")
    document = valid_document()
    document["seeds"] = [1, True]
    expect_error(document, "seeds[1]")
    document = valid_document()
    document["seeds"] = [1, 2, 1]  # would run seed 1 twice and count it twice in a suite
    expect_error(document, "seeds[2]: repeats 1")
    document = valid_document()
    document["name"] = "Sample Trip"
    expect_error(document, "name")
    document = valid_document()
    document["max_cycles"] = 0
    expect_error(document, "max_cycles must be positive, got 0")
    document = valid_document()
    document["task"] = "  "
    expect_error(document, "task must be a non-empty string")
    document = valid_document()
    document["context"]["goal.empty"] = {}
    expect_error(document, "context: payload for goal.empty must be a non-empty mapping")


def test_baseline_parameters_validated():
    document = valid_document()
    for budget in (0, None, True):
        document["baseline"] = {"budget": budget}
        expect_error(document, "baseline.budget")
    for decay in (-1, None, True):
        document["baseline"] = {"budget": 2, "decay": decay}
        expect_error(document, "baseline.decay")
    document["baseline"] = {"budgte": 3, "decay": 0.3}
    expect_error(document, "baseline: unknown fields ['budgte']")


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), float("-inf"), 10**400],
    ids=["nan", "inf", "-inf", "int-beyond-float"],
)
def test_non_finite_numbers_rejected(value):
    document = valid_document()
    document["world"]["weather"][0]["temp_f"] = value
    expect_error(document, "world.weather[0].temp_f: expected finite number")
    document = valid_document()
    document["baseline"]["decay"] = value
    expect_error(document, "baseline.decay: context decay must be finite and non-negative, got ")


# ------------------------------------------------------------------- loading
def test_load_scenario_errors_name_the_file(tmp_path):
    missing = tmp_path / "absent.json"
    with pytest.raises(ConfigError, match="not found"):
        load_scenario(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="bad.json"):
        load_scenario(bad)
    nested = tmp_path / "nested.json"  # past the depth `json.loads` recurses to
    nested.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(nested))}: not valid JSON"):
        load_scenario(nested)
    invalid = tmp_path / "invalid.json"
    document = valid_document()
    del document["task"]
    invalid.write_text(json.dumps(document), encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid.json"):
        load_scenario(invalid)


def test_load_suite_names_the_first_bad_file(tmp_path):
    for path in SCENARIO_DIR.glob("*.json"):
        (tmp_path / path.name).write_bytes(path.read_bytes())
    last = sorted(tmp_path.glob("*.json"))[-1]
    document = json.loads(last.read_text(encoding="utf-8"))
    document["context"]["status.x"] = {"x": 1}
    last.write_text(json.dumps(document), encoding="utf-8")
    with pytest.raises(ConfigError) as excinfo:
        load_suite(tmp_path)
    assert str(excinfo.value) == (
        f"{last}: context: kind 'observation' not allowed under namespace 'status' (key status.x)"
    )


def test_code_built_scenarios_meet_the_same_rules(two_city):
    with pytest.raises(ConfigError, match="goal_citation: 'goal.trip_policy.rulez' does not"):
        dataclasses.replace(generate_suite(1)[0], goal_citation="goal.trip_policy.rulez")
    scenario = generate_suite(1)[0]
    goal = {**scenario.goal, "brances": scenario.goal["branches"]}
    with pytest.raises(ConfigError, match=r"goal: unknown fields \['brances'\]"):
        dataclasses.replace(scenario, goal=goal)
    # The world and gather shapes are checked as the loader checks them.
    world = {**two_city.world, "fault_schedule": [{}]}
    with pytest.raises(ConfigError, match=r"^world.fault_schedule\[0\].tool: expected string"):
        dataclasses.replace(two_city, world=world)
    with pytest.raises(ConfigError, match="^gather.arguments: no valid call for entity 'Seoul'"):
        dataclasses.replace(two_city, gather={"tool": "get_weather"})
    world = {**two_city.world, "weather": [{"location": "Seoul"}]}
    with pytest.raises(ConfigError, match=r"^world.weather\[0\].date: expected string"):
        dataclasses.replace(two_city, world=world)
    # So is every rule on a top-level value.
    for changes, message in (
        ({"seeds": []}, "seeds: must list at least one seed"),
        ({"seeds": [1, 1]}, "seeds[1]: repeats 1"),
        ({"name": "Bad Name"}, "name: must be lowercase letters, digits, and underscores"),
        ({"task": 5}, "task: expected string, got int"),
        ({"max_cycles": "x"}, "max_cycles must be an integer, got 'x'"),
        ({"baseline_budget": 0}, "baseline.budget: context budget must be positive, got 0"),
        ({"baseline_decay": float("nan")},
         "baseline.decay: context decay must be finite and non-negative, got nan"),
    ):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(two_city, **changes)
    # A context, gather or key that no JSON document can hold is named too.
    looped = {"rule": "x"}
    looped["self"] = looped
    nested: list = []
    nested.append(nested)
    for changes, message in (
        ({"context": {**two_city.context, "goal.loop": looped}},
         "context.goal.loop: not a JSON value (Circular reference detected)"),
        ({"context": {**two_city.context, "goal.set": {"v": {1, 2}}}},
         "context.goal.set: not a JSON value (Object of type set is not JSON serializable)"),
        ({"context": {**two_city.context, 1: {"v": 1}}},
         "context: key must be a non-empty string, got 1"),
        ({"gather": {**two_city.gather, "arguments": {"location": "{entity}", "date": nested}}},
         "gather.arguments: no valid call for entity 'Seoul' "
         "(RecursionError: maximum recursion depth exceeded)"),
    ):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(two_city, **changes)


def test_load_suite_refuses_two_files_of_one_name(tmp_path):
    """Two files of one name would both run, under one name in the suite report."""
    text = (SCENARIO_DIR / "weather_two_city.json").read_bytes()
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    for path in (first, second):
        path.write_bytes(text)
    with pytest.raises(ConfigError) as excinfo:
        load_suite(tmp_path)
    assert str(excinfo.value) == f"{second}: name: repeats 'weather_two_city', the name of {first}"


def test_load_suite_requires_files(tmp_path):
    with pytest.raises(ConfigError, match="no scenario files"):
        load_suite(tmp_path)


# --------------------------------------------------------------- generation
def test_generated_suite_shape():
    suite = generate_suite()
    assert len(suite) == SUITE_SIZE
    assert len({s.name for s in suite}) == SUITE_SIZE
    city_counts = [len(s.goal["required_facts"]) // 2 for s in suite]
    assert {2, 3, 4} == set(city_counts)
    assert any(s.extra_tools for s in suite)
    for scenario in suite:
        scenario.episode_config(seed=1)


def test_suite_generation_is_deterministic():
    first = [dumps(s) for s in generate_suite()]
    second = [dumps(s) for s in generate_suite()]
    assert first == second
    different = [dumps(s) for s in generate_suite(seed=SUITE_SEED + 1)]
    assert first != different


def test_shipped_suite_matches_regeneration(suite_dir, tmp_path):
    shipped = sorted(suite_dir.glob("*.json"))
    assert len(shipped) == SUITE_SIZE
    regenerated = write_suite(tmp_path)
    assert [p.name for p in regenerated] == [p.name for p in shipped]
    for new, old in zip(regenerated, shipped):
        assert new.read_bytes() == old.read_bytes(), old.name


def test_loaded_suite_runs_clean_episodes(suite_dir):
    scenarios = load_suite(suite_dir)
    for scenario in scenarios[:3]:
        result = run_episode(scenario.episode_config(seed=scenario.seeds[0]))
        assert result.status.value == "Completed"


# ------------------------------------------------------------------ fuzzing
WORKED = [
    json.loads(path.read_text(encoding="utf-8")) for path in sorted(SCENARIO_DIR.glob("*.json"))
]
SMALL_JSON = [None, True, False, 0, 1, -1, 2.5, "", "x", "TBD", "goal.x", [], [1], {}, {"x": 1}]


def field_paths(value, path=()):
    """The path of every field below ``value``: object keys and array indices."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from field_paths(child, path + (key,))


@st.composite
def mutated_documents(draw):
    """A worked scenario with one field at any depth replaced by a small JSON value, or deleted."""
    document = json.loads(json.dumps(draw(st.sampled_from(WORKED))))
    path = draw(st.sampled_from(list(field_paths(document))))
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    replacement = draw(st.sampled_from([*SMALL_JSON, "<delete>"]))
    if replacement == "<delete>":
        del parent[path[-1]]
    else:
        parent[path[-1]] = json.loads(json.dumps(replacement))
    return document


@settings(whole_episodes, max_examples=300)
@given(mutated_documents())
def test_mutated_scenarios_load_or_fail_with_config_error(document):
    """A file either loads and then runs both systems without raising, or fails with ConfigError."""
    try:
        scenario = Scenario.from_dict(document)
    except ConfigError:
        return
    config = scenario.episode_config(scenario.seeds[0])
    # A file may set a huge budget.
    config = dataclasses.replace(config, max_cycles=min(config.resolved_max_cycles(), 40))
    run_episode(config)
    run_baseline_episode(config, scenario.baseline_budget, scenario.baseline_decay)


LOADED = [load_scenario(path) for path in sorted(SCENARIO_DIR.glob("*.json"))]
SCENARIO_FIELDS = [field.name for field in dataclasses.fields(Scenario)]
FAULT_FIELDS = ["seed", *(f"p_{t}" for t in FAULT_TYPES)]
FAULTS = {"seed": 3, **{f"p_{t}": 0.1 for t in FAULT_TYPES}}
# Replaced values: any JSON value, or one near the valid range of a seed, budget or rate.
REPLACEMENTS = json_values | huge_ints | st.integers(-2, 40) | st.floats(0, 1)
# A cycle budget at most 40, so that an episode stays short.
CYCLE_BUDGETS = REPLACEMENTS.filter(lambda value: not is_int(value) or value <= 40)


@settings(whole_episodes, max_examples=300)
@given(
    st.sampled_from(LOADED),
    st.sampled_from([
        *SCENARIO_FIELDS,
        *(f"config.{f}" for f in ("seed", "max_cycles", "faults")),
        *(f"faults.{f}" for f in FAULT_FIELDS),
    ]),
    st.data(),
)
def test_a_replaced_config_value_fails_when_built_or_runs_both_systems(scenario, target, data):
    """One value of a scenario, an episode config or its fault config, replaced by a drawn
    value, is refused with a ``ConfigError`` when the object is built, or both systems run
    and write traces that load and dump back to the same bytes."""
    owner, _, name = target.rpartition(".")
    value = data.draw(CYCLE_BUDGETS if name == "max_cycles" else REPLACEMENTS)
    try:
        if owner == "config":
            config = scenario.episode_config(**{"seed": 1, name: value})
        elif owner == "faults":
            config = scenario.episode_config(1, faults=FaultConfig(**{**FAULTS, name: value}))
        else:
            scenario = dataclasses.replace(scenario, **{name: value})
            config = scenario.episode_config(1)
    except ConfigError:
        return
    for result in (
        run_episode(config),
        run_baseline_episode(config, scenario.baseline_budget, scenario.baseline_decay),
    ):
        text = result.trace.dumps()
        assert EpisodeTrace.loads(text).dumps() == text
