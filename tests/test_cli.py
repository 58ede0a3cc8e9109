"""Command-line interface: subcommands, flags, exit codes, artifacts."""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from cogloop import cli
from cogloop.cli import main, parse_faults, parse_seeds, render_table
from cogloop.cognition import FAULT_TYPES
from cogloop.loop import ConfigError
from cogloop.scenario import Scenario
from cogloop.trace import EpisodeTrace, Metric


DATA_DIR = Path(__file__).resolve().parent / "data"


def two_city_path(scenario_dir) -> str:
    return str(scenario_dir / "weather_two_city.json")


# ----------------------------------------------------------------- fault spec
def test_parse_faults_basic_and_aliases():
    config = parse_faults("duplicate=0.3,missing_args=0.1", seed=7)
    assert config.seed == 7
    assert config.p_duplicate == 0.3 and config.p_missing_arg == 0.1
    assert parse_faults("p_false_citation=0.2").p_false_citation == 0.2
    assert all(parse_faults(f"{t}s=0.2").probability(t) == 0.2 for t in FAULT_TYPES)
    assert parse_faults(None) is None
    assert parse_faults("") is None


def test_parse_faults_all_expands_every_type():
    config = parse_faults("all=0.1")
    assert all(config.probability(t) == 0.1 for t in (
        "duplicate", "missing_arg", "uncited_claim", "premature_action", "false_citation"
    ))


@pytest.mark.parametrize(
    "spec",
    [
        "gremlins=0.1", "duplicate", "duplicate=high", "duplicate=1.5",
        # Each type is set at most once, whatever name sets it; all= sets every type.
        "duplicate=0.5,duplicate=0.2", "duplicate=0.5,duplicates=0.2",
        "p_duplicate=0.5,duplicate=0.2", "all=0.1,duplicate=0.2", "duplicate=0.2,all=0.1",
        "all=0.1,all=0.1",
    ],
)
def test_parse_faults_rejects_bad_specs(spec):
    with pytest.raises(ConfigError) as caught:
        parse_faults(spec)
    if "," in spec:  # a repeat names the type set twice
        assert "fault type 'duplicate' is set twice" in str(caught.value)


def test_parse_seeds():
    assert parse_seeds("1,2,3") == [1, 2, 3]
    with pytest.raises(ConfigError):
        parse_seeds("1,two")
    with pytest.raises(ConfigError):
        parse_seeds(",")


# -------------------------------------------------------------------- tables
def test_render_table_labels_and_na():
    table = render_table({
        "governed": {"spa": Metric("spa", 3, 3), "elp": Metric("elp", 0, 0)},
        "baseline": {"spa": Metric("spa", 1, 2)},
    })
    lines = table.splitlines()
    assert lines[0].split() == ["metric", "governed", "baseline"]
    spa_row = next(l for l in lines if "state persistence" in l)
    assert "1.000" in spa_row and "0.500" in spa_row
    elp_row = next(l for l in lines if "error localization" in l)
    assert "n/a" in elp_row and elp_row.rstrip().endswith("-")


# ----------------------------------------------------------------------- run
def test_run_clean_scenario_exits_zero(scenario_dir, capsys):
    code = main(["run", two_city_path(scenario_dir), "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "scenario weather_two_city seed 1" in out
    assert "governed: Completed in 4/21 cycles" in out
    assert "final: Goal satisfied in 4 cycles. Actions executed: book_flight (ABC123)." in out
    assert "state persistence" in out and "trace completeness" in out


def test_run_compare_verbose_output_is_pinned(scenario_dir, capsys):
    code = main(["run", two_city_path(scenario_dir), "--seed", "1", "--compare", "--verbose"])
    assert code == 0
    expected = (DATA_DIR / "run_compare_verbose.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_run_exhausted_budget_exits_two(scenario_dir, capsys):
    code = main(["run", two_city_path(scenario_dir), "--seed", "1", "--max-cycles", "2"])
    assert code == 2
    assert "BudgetExhausted" in capsys.readouterr().out


def test_run_verbose_prints_cycle_logs(scenario_dir, capsys):
    main(["run", two_city_path(scenario_dir), "--seed", "1", "--verbose"])
    out = capsys.readouterr().out
    assert "[Control] Precondition: No prior observation for Seoul → Approved" in out
    assert "[Runtime] book_flight ok" in out


def test_condition_literal_holding_an_operator_runs_and_audits(scenario_dir, tmp_path, capsys):
    """A string literal may hold an operator: the comparison splits at its first one."""
    text = (scenario_dir / "weather_two_city.json").read_text(encoding="utf-8")
    text = text.replace('"source": "user request"', '"source": "user request", "mode": "strict"')
    text = text.replace('"obs.Seoul.temp_f < obs.Jeju.temp_f"]',
                        '"obs.Seoul.temp_f < obs.Jeju.temp_f", '
                        '"goal.choose_colder.mode != \\"a == b\\""]')
    path = tmp_path / "mode.json"
    path.write_text(text, encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--seed", "1", "--verbose", "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert ('Condition: obs.Seoul.temp_f < obs.Jeju.temp_f and '
            'goal.choose_colder.mode != "a == b" satisfied → Approved') in out
    assert "Actions executed: book_flight (ABC123)." in out
    assert main(["trace", str(out_dir / "weather_two_city_s1_governed.jsonl")]) == 0
    assert "GAP" not in capsys.readouterr().out


def test_run_missing_scenario_exits_one(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.json")])
    assert code == 1
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, message",
    [
        ('"temp_f": 51.8', '"temp_f": NaN', "world.weather[0].temp_f: expected finite number"),
        ("Jeju", "New York", "goal: left side of 'obs.New York.temp_f <= obs.Seoul.temp_f'"),
        ('"goal.choose_colder": {', '"status.foo": {"x": 1}, "goal.choose_colder": {',
         "context: kind 'observation' not allowed under namespace 'status' (key status.foo)"),
        ('"goal.choose_colder.rule"', '"goal.choose_colder.rule x"',
         "goal_citation: empty or whitespace segment in key 'goal.choose_colder.rule x'"),
        ('"obs.Seoul.temp_f",', '"obs.Seoul", "obs.Seoul.temp_f",',
         "goal: required fact 'obs.Seoul' must be an obs.<entity>.<field> leaf key"),
        ('"Seoul"}}]', '"Seoul"}}, {"name": "book_flight", "arguments": {"location": "Jeju"}}]',
         "goal: branches[1] names tool 'book_flight' twice"),
        ('"goal.choose_colder.rule"', '"goal.choose_colder.rulez"',
         "goal_citation: 'goal.choose_colder.rulez' does not resolve in context"),
        ('"obs.Seoul.temp_f < obs.Jeju.temp_f"]',
         '"obs.Seoul.temp_f < obs.Jeju.temp_f", "goal.limits.max_f > obs.Seoul.temp_f"]',
         "goal: condition key 'goal.limits.max_f' does not resolve in context"),
        ('"obs.Seoul.temp_f < obs.Jeju.temp_f"]',
         '"obs.Seoul.temp_f < obs.Jeju.temp_f", "obs.Seoul.temp_f < 1e400"]',
         "goal: operand '1e400' is neither a key nor a literal"),
        (('"obs.Seoul.temp_f < obs.Jeju.temp_f"]', '"context": {'),
         ('"obs.Seoul.temp_f < obs.Jeju.temp_f", "goal.limits.max_f > obs.Seoul.temp_f"]',
          '"context": {"goal.limits": {"max_f": "90"}, '),
         "goal: condition key 'goal.limits.max_f' holds '90', which the proposer reads as 90"),
        (('"obs.Seoul.temp_f < obs.Jeju.temp_f"]', '"context": {'),
         ('"obs.Seoul.temp_f < obs.Jeju.temp_f", "goal.limits.max_f > obs.Seoul.temp_f"]',
          '"context": {"goal.limits": {"max_f": 60}, "obs.goal.limits": {"max_f": 40}, '),
         "goal: condition key 'goal.limits.max_f' holds 60, which the proposer reads as 40"),
        ('"location": "{entity}", "date": "2025-06-14"', '"location": "{entity}"',
         "gather.arguments: no valid call for entity 'Seoul' "
         "(missing required argument 'date')"),
        ('"date": "2025-06-14"}\n', '"date": 5}\n',
         "gather.arguments: no valid call for entity 'Seoul' (argument 'date' must be string, "
         "got 5)"),
        ('"location": "{entity}", "date"', '"location": "x", "date"',
         "gather.arguments: the call for entity 'Seoul' observes 'obs.x', not 'obs.Seoul'"),
        ('"date": "2025-06-14"}\n', '"date": "2025-06-15"}\n',
         "gather.arguments: the call for entity 'Seoul' always fails "
         "(DomainError: no forecast for Seoul on 2025-06-15)"),
        ('{"location": "Seoul"}', '{"location": "TBD"}',
         "goal: action book_flight(location=TBD) is incomplete"),
        ('"arguments": {"location": "Seoul"}', '"arguments": {}',
         "goal: action book_flight() is incomplete (missing required argument 'location')"),
        ('"arguments": {"location": "Seoul"}', '"arguments": "x"',
         "goal.branches[1].actions[0].arguments: expected object, got str"),
        ('"name": "book_flight", "arguments": {"location": "Seoul"}',
         '"name": [], "arguments": {"location": "Seoul"}',
         "goal.branches[1].actions[0].name: expected string, got list"),
        ('"fault_schedule": []', '"fault_schedule": [{"tool": "get_weather", "ordinal": 1, '
         '"code": []}]', "world.fault_schedule[0].code: expected one of"),
        ('"fault_schedule": []', '"fault_schedule": [{"tool": "get_wether", "ordinal": 1, '
         '"code": "TransientFailure"}]',
         "world.fault_schedule[0].tool: no tool named 'get_wether' is registered"),
    ],
    ids=["nan-temperature", "city-with-space", "status-context-key", "goal-citation-with-space",
         "bare-entity-fact", "branch-repeats-tool", "goal-citation-unresolved",
         "condition-context-key-unresolved", "condition-literal-not-finite",
         "condition-context-value-read-as-number",
         "condition-context-entity-shown-by-obs-key",
         "gather-without-date", "gather-date-not-string", "gather-observes-another-entity",
         "gather-date-without-forecast",
         "action-placeholder-argument",
         "action-without-arguments", "action-arguments-not-object", "action-name-not-string",
         "fault-code-not-string", "fault-tool-unregistered"],
)
def test_run_bad_scenario_exits_one(scenario_dir, tmp_path, capsys, old, new, message):
    """``old`` and ``new`` are one text replacement, or a tuple of them."""
    text = (scenario_dir / "weather_two_city.json").read_text(encoding="utf-8")
    for before, after in zip(old, new) if isinstance(old, tuple) else [(old, new)]:
        text = text.replace(before, after)
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    assert main(["run", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"configuration error: {path}: ")
    assert captured.err.count("\n") == 1 and message in captured.err


@pytest.mark.parametrize("command", ["run", "trace"])
@pytest.mark.parametrize("kind", ["directory", "latin-1"])
def test_unreadable_input_exits_one(tmp_path, capsys, command, kind):
    path = tmp_path / "input.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes('{"name": "k\u00f6ln"}\n'.encode("latin-1"))
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(path) in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "template, problem",
    [
        ("{entity} x", "MalformedKey: empty or whitespace segment in key 'obs.Seoul x'"),
        ("{city}", "KeyError: 'city'"),
        ("{entity", "ValueError: expected '}' before end of string"),
    ],
)
def test_run_bad_gather_template_exits_one(scenario_dir, tmp_path, capsys, template, problem):
    path = tmp_path / "bad.json"
    path.write_text(
        (scenario_dir / "weather_two_city.json").read_text(encoding="utf-8")
        .replace('"{entity}"', json.dumps(template)),
        encoding="utf-8",
    )
    assert main(["run", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"configuration error: {path}: "
        f"gather.arguments: no valid call for entity 'Seoul' ({problem})\n"
    )


def test_run_bad_fault_spec_exits_one(scenario_dir, capsys):
    code = main(["run", two_city_path(scenario_dir), "--faults", "gremlins=0.5"])
    assert code == 1
    assert "unknown fault type" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "suite", "trace"])
def test_deeply_nested_file_exits_one(tmp_path, capsys, command):
    """Past the depth `json.loads` recurses to, a file is not valid JSON, not a traceback."""
    path = tmp_path / ("nested.jsonl" if command == "trace" else "nested.json")
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert main([command, str(tmp_path if command == "suite" else path)]) == 1
    err = capsys.readouterr().err
    assert "not valid JSON" in err and err.count("\n") == 1


@pytest.mark.parametrize("decay", ["nan", "inf"])
def test_run_non_finite_baseline_decay_exits_one(scenario_dir, capsys, decay):
    code = main(["run", two_city_path(scenario_dir), "--compare", "--baseline-decay", decay])
    assert code == 1
    assert capsys.readouterr().err == (
        "configuration error: baseline.decay: "
        f"context decay must be finite and non-negative, got {decay}\n"
    )


def test_run_compare_writes_artifacts(scenario_dir, tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    code = main([
        "run", two_city_path(scenario_dir), "--seed", "1", "--compare",
        "--baseline-budget", "100", "--baseline-decay", "0.0", "--out", str(out_dir),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "baseline: Completed" in printed
    governed = out_dir / "weather_two_city_s1_governed.jsonl"
    baseline = out_dir / "weather_two_city_s1_baseline.jsonl"
    metrics = out_dir / "weather_two_city_s1_metrics.json"
    assert governed.exists() and baseline.exists() and metrics.exists()
    assert EpisodeTrace.load(governed).header.baseline is False
    assert EpisodeTrace.load(baseline).header.baseline is True
    payload = json.loads(metrics.read_text())
    assert payload["governed"]["spa"]["ratio"] == 1.0
    assert payload["baseline"]["spa"]["ratio"] == 1.0


def test_run_with_faults_reports_elp(scenario_dir, capsys):
    code = main([
        "run", two_city_path(scenario_dir), "--seed", "2",
        "--faults", "missing_arg=0.5", "--max-cycles", "30",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "error localization" in out


# --------------------------------------------------------------------- suite
def test_suite_over_fixture_directory(scenario_dir, tmp_path, capsys):
    out_dir = tmp_path / "suite_out"
    code = main([
        "suite", str(scenario_dir), "--seeds", "1", "--compare",
        "--baseline-budget", "100", "--baseline-decay", "0.0", "--out", str(out_dir),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "suite: 3 scenarios, 3 episodes per system" in out
    assert "governed: 3 Completed" in out
    assert "baseline: 3 Completed" in out
    payload = json.loads((out_dir / "metrics.json").read_text())
    assert payload["aggregate"]["governed"]["spa"]["ratio"] == 1.0
    assert len(payload["episodes"]) == 6
    assert {e["system"] for e in payload["episodes"]} == {"governed", "baseline"}


def test_suite_compare_metrics_file_is_pinned(scenario_dir, tmp_path):
    out_dir = tmp_path / "suite_out"
    assert main(["suite", str(scenario_dir), "--seeds", "1", "--compare", "--out", str(out_dir)]) == 0
    expected = (DATA_DIR / "suite_compare_metrics.json").read_bytes()
    assert (out_dir / "metrics.json").read_bytes() == expected


def test_suite_compare_checks_each_config_once(suite_dir, tmp_path, capsys, monkeypatch):
    """K files and S seeds: K scenario checks, each when its file loads.

    No scenario rule runs during an episode of either system.
    """
    files, seeds = 3, 2
    for path in sorted(suite_dir.glob("*.json"))[:files]:
        (tmp_path / path.name).write_bytes(path.read_bytes())
    checks = 0
    validate = Scenario.validate

    def counting(scenario):
        nonlocal checks
        checks += 1
        validate(scenario)

    during = []

    def watched(run):
        def running(*args):
            before = checks
            result = run(*args)
            during.append(checks - before)
            return result
        return running

    monkeypatch.setattr(Scenario, "validate", counting)
    monkeypatch.setattr(cli, "run_episode", watched(cli.run_episode))
    monkeypatch.setattr(cli, "run_baseline_episode", watched(cli.run_baseline_episode))
    assert main(["suite", str(tmp_path), "--seeds", "1,2", "--compare"]) == 0
    out = capsys.readouterr().out
    assert f"suite: {files} scenarios, {files * seeds} episodes per system" in out
    assert checks == files
    assert during == [0] * (2 * files * seeds)


def test_suite_bad_last_file_exits_one_before_any_episode(
    scenario_dir, tmp_path, capsys, monkeypatch
):
    for path in scenario_dir.glob("*.json"):
        (tmp_path / path.name).write_bytes(path.read_bytes())
    last = sorted(tmp_path.glob("*.json"))[-1]
    text = last.read_text(encoding="utf-8")
    last.write_text(text.replace('"context": {', '"context": {"status.x": {"x": 1}, '), "utf-8")
    episodes = []
    monkeypatch.setattr(cli, "run_episode", episodes.append)
    assert main(["suite", str(tmp_path)]) == 1
    assert episodes == []
    assert capsys.readouterr().err == (
        f"configuration error: {last}: "
        "context: kind 'observation' not allowed under namespace 'status' (key status.x)\n"
    )


_BAD_EPISODE_FLAGS = [
    pytest.param(["--max-cycles", "0"], "max_cycles must be positive, got 0",
                 id="max-cycles-0"),
    pytest.param(["--compare", "--baseline-budget", "0"],
                 "context budget must be positive, got 0", id="baseline-budget-0"),
    pytest.param(["--compare", "--baseline-decay", "-1"], "context decay must be finite",
                 id="baseline-decay-negative"),
    pytest.param(["--compare", "--baseline-decay", "nan"], "context decay must be finite",
                 id="baseline-decay-nan"),
    pytest.param(["--baseline-budget", "0"], "need --compare",
                 id="baseline-budget-0-without-compare"),
    pytest.param(["--baseline-budget", "5"], "need --compare",
                 id="baseline-budget-5-without-compare"),
    pytest.param(["--baseline-decay", "nan"], "need --compare",
                 id="baseline-decay-nan-without-compare"),
    pytest.param(["--faults", "gremlins=1"], "unknown fault type 'gremlins'",
                 id="unknown-fault"),
    pytest.param(["--faults", "gremlins=x"], "unknown fault type 'gremlins'",
                 id="unknown-fault-bad-probability"),
]


@pytest.mark.parametrize(
    "command, flags, message",
    [pytest.param(command, *case.values, id=f"{case.id}-{command}")
     for command in ("run", "suite") for case in _BAD_EPISODE_FLAGS]
    + [pytest.param("suite", ["--seeds", seeds], "seed list is empty", id=f"seeds-{name}-suite")
       for name, seeds in (("empty", ""), ("blank", " "))]
    + [pytest.param("suite", ["--seeds", "1,2,1"], "--seeds: repeats 1",
                    id="seeds-repeated-suite")],
)
def test_bad_cli_input_runs_no_episode(scenario_dir, capsys, monkeypatch, command, flags, message):
    target = two_city_path(scenario_dir) if command == "run" else str(scenario_dir)
    episodes = []
    real_run_episode = cli.run_episode

    def counting_run_episode(config):
        episodes.append(config)
        return real_run_episode(config)

    monkeypatch.setattr(cli, "run_episode", counting_run_episode)
    assert main([command, target, *flags]) == 1
    out, err = capsys.readouterr()
    assert episodes == [] and out == ""
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert message in err


def test_suite_empty_directory_exits_one(tmp_path, capsys):
    assert main(["suite", str(tmp_path)]) == 1
    assert "no scenario files" in capsys.readouterr().err


# --------------------------------------------------------------------- trace
@pytest.fixture
def trace_file(scenario_dir, tmp_path):
    out_dir = tmp_path / "t"
    assert main(["run", two_city_path(scenario_dir), "--seed", "1", "--out", str(out_dir)]) == 0
    return out_dir / "weather_two_city_s1_governed.jsonl"


def test_trace_clean_file_exits_zero(trace_file, capsys):
    capsys.readouterr()
    code = main(["trace", str(trace_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "trace: scenario weather_two_city seed 1 system governed" in out
    assert out.count(": complete") == 3 and "GAP" not in out


def test_trace_action_chain_exits_zero(trace_file, capsys):
    capsys.readouterr()
    code = main(["trace", str(trace_file), "act.book_flight"])
    out = capsys.readouterr().out
    assert code == 0
    assert "chain act.book_flight" in out
    assert "citation:   obs.Seoul.temp_f < obs.Jeju.temp_f" in out
    assert "resolved  obs.Seoul.temp_f = 51.8" in out


def test_trace_gap_exits_three(trace_file, capsys):
    trace = EpisodeTrace.load(trace_file)
    for record in trace.cycles:
        if record.invocation and record.invocation.get("tool") == "book_flight":
            record.proposal = None
    trace.dump(trace_file)
    capsys.readouterr()
    code = main(["trace", str(trace_file)])
    out = capsys.readouterr().out
    assert code == 3
    assert "GAP" in out and "[proposal]" in out


def test_trace_unknown_action_exits_one(trace_file, capsys):
    for action in ("act.make_chart", "act.book_flight@abc"):
        assert main(["trace", str(trace_file), action]) == 1
        assert "no executed action record" in capsys.readouterr().err


def test_trace_malformed_consumption_exits_one(trace_file, capsys):
    trace = EpisodeTrace.load(trace_file)
    trace.cycles[1].consumptions = [["obs.Seoul.temp_f"]]
    trace.dump(trace_file)
    capsys.readouterr()
    assert main(["trace", str(trace_file)]) == 1
    assert capsys.readouterr().err == (
        "trace error: line 3: cycle 1: consumptions[0] is not a [key, value] pair\n"
    )


def test_trace_unreadable_file_exits_one(tmp_path, capsys):
    garbled = tmp_path / "garbled.jsonl"
    garbled.write_text("{]\n", encoding="utf-8")
    assert main(["trace", str(garbled)]) == 1
    assert "trace error" in capsys.readouterr().err
    assert main(["trace", str(tmp_path / "missing.jsonl")]) == 1
