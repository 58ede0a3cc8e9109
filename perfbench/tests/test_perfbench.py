"""Tests of the benchmark's own arithmetic, generators and span wrappers.

    python3 -m pytest perfbench/tests
"""
from __future__ import annotations

import signal
import time

import pytest

import calibrate
import layers
import run
import workloads
from spans import Instrumentation, SpanRecorder, self_times


# ---------------------------------------------------------------- self time
def test_self_time_subtracts_direct_children_only():
    rows = [
        ("a", 0, 100, -1),
        ("b", 10, 60, 0),
        ("c", 20, 30, 1),
        ("c", 35, 45, 1),
        ("b", 70, 90, 0),
        ("a", 200, 210, -1),
    ]
    assert self_times(rows) == {
        "a": (2, (100 - 50 - 20) + 10),
        "b": (2, (50 - 10 - 10) + 20),
        "c": (2, 20),
    }


def test_recorder_nests_spans_and_self_times_sum_to_the_root():
    recorder = SpanRecorder()
    with recorder.span("outer"):
        with recorder.span("inner"):
            with recorder.span("leaf"):
                pass
        with recorder.span("inner"):
            pass
    rows = list(recorder.rows())
    assert [(name, parent) for name, _, _, parent in rows] == [
        ("outer", -1), ("inner", 0), ("leaf", 1), ("inner", 0)
    ]
    assert all(end >= start for _, start, end, _ in rows)
    timed = self_times(rows)
    assert timed["inner"][0] == 2
    root_ns = rows[0][2] - rows[0][1]
    assert sum(ns for _, ns in timed.values()) == root_ns


# ---------------------------------------------------------------- tail rule
def test_p98_is_reported_only_with_ten_samples_beyond():
    assert run.tail([float(v) for v in range(500)]) == (489.0, 10)
    value, beyond = run.tail([float(v) for v in range(499)])
    assert value is None and beyond == 9
    assert run.tail([]) == (None, 0)


def test_cost_growth_compares_longest_and_shortest_fifths():
    flat = [run.Cost(key=c, ms=2.0 * c, cycles=c) for c in range(10, 60)]
    assert run.cost_growth(flat) == 1.0
    quadratic = [run.Cost(key=c, ms=float(c * c), cycles=c) for c in (10, 20, 40)]
    assert run.cost_growth(quadratic) == 4.0


# -------------------------------------------------------------- calibration
def _speedometer(probes):
    speed = calibrate.Speedometer()
    speed.starts = [start for start, _ in probes]
    speed.ends = [start + length for start, length in probes]
    return speed


def test_reference_time_scales_by_the_probes_around_the_interval():
    ref = calibrate.REFERENCE_PROBE_S
    # Probes at twice the reference time: the machine runs at half speed.
    slow = _speedometer([(0.0, 2 * ref), (1.0, 2 * ref), (2.0, 2 * ref)])
    assert slow.reference_s(0.5, 0.9) == pytest.approx(0.2)
    # A probe inside the interval is taken out of its length.
    assert slow.reference_s(0.5, 1.5) == pytest.approx((1.0 - 2 * ref) / 2)
    # Only the nearest probe on each side counts, not earlier ones.
    mixed = _speedometer([(0.0, 4 * ref), (1.0, ref), (2.0, ref)])
    assert mixed.reference_s(1.5, 1.9) == pytest.approx(0.4)
    with pytest.raises(ValueError):
        _speedometer([]).reference_s(0.0, 1.0)


def test_op_costs_take_each_operations_median_over_passes():
    speed = _speedometer([(0.0, calibrate.REFERENCE_PROBE_S), (100.0, calibrate.REFERENCE_PROBE_S)])
    passes = [
        workloads.PassResult(wall_s=0.0, samples=[
            workloads.Sample(0, 1.0, 1.0 + ms / 1e3, 5), workloads.Sample(1, 2.0, 2.002, 9)
        ])
        for ms in (3.0, 1.0, 2.0)
    ]
    costs, timings = run.op_costs(passes, speed)
    assert [(c.key, c.cycles) for c in costs] == [(0, 5), (1, 9)]
    assert costs[0].ms == pytest.approx(2.0) and costs[1].ms == pytest.approx(2.0)
    assert len(timings) == 6


def test_speedometer_samples_while_running_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with calibrate.Speedometer(period_s=0.002) as speed:
        deadline = time.perf_counter() + 0.05
        while time.perf_counter() < deadline:
            pass
    assert len(speed.starts) >= 3  # the first, the last and at least one from the timer
    assert speed.starts == sorted(speed.starts)
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# --------------------------------------------------------------- generators
def test_suite_inputs_depend_only_on_the_seed(cog, root):
    first = workloads.SuiteFaults(cog, root, 7)
    again = workloads.SuiteFaults(cog, root, 7)
    other = workloads.SuiteFaults(cog, root, 8)
    names = [(s.name, seed) for s, seed in first.items]
    assert names == [(s.name, seed) for s, seed in again.items]
    assert len(names) == 250
    assert first.faults == again.faults != other.faults


def test_long_horizon_picks_one_episode_per_band_by_seed():
    bands = workloads.load_pool()
    picks = {seed: workloads.pick_long_episodes(bands, seed) for seed in range(10)}
    assert picks[3] == workloads.pick_long_episodes(bands, 3)
    assert len({tuple(p) for p in picks.values()}) > 1
    for picked in picks.values():
        labels = [entry[0] for entry in picked]
        assert sorted(labels) == sorted(["probe"] + [band["name"] for band in bands])
        assert ("probe",) + workloads.PROBE in picked


def test_stored_traces_depend_only_on_the_seed(cog, root):
    scenarios = cog.scenario.load_suite(root / workloads.SUITE_DIR)[:2]

    def generate(seed):
        return workloads.stored_traces(
            cog, scenarios, cog.cli.parse_faults(workloads.SUITE_FAULTS, seed=seed)
        )

    first = generate(4)
    assert first == generate(4)
    assert len(first) == 10 and all(g.governed and not b.governed for g, b in first)
    assert [g.text for g, _ in first] != [g.text for g, _ in generate(5)]


# ------------------------------------------------------------------ wrappers
def _bindings(cog):
    return {
        "loop.assemble_input": cog.loop.assemble_input,
        "loop.validate": cog.loop.validate,
        "cli.run_episode": cog.cli.run_episode,
        "trace.iter_chains": cog.trace.iter_chains,
        "MemoryStore.commit_cycle": cog.loop.MemoryStore.__dict__["commit_cycle"],
        "EpisodeTrace.loads": cog.trace.EpisodeTrace.__dict__["loads"],
    }


def test_wrappers_time_every_layer_and_are_removed_after(cog, root):
    scenario = cog.scenario.load_scenario(root / "scenarios" / "weather_two_city.json")
    config = scenario.episode_config(1, faults=cog.cli.parse_faults("all=0.3"))
    untraced = cog.loop.run_episode(config).trace.dumps()
    before = _bindings(cog)

    recorder = SpanRecorder()
    instrumentation = Instrumentation(layers.TARGETS)
    instrumentation.install(recorder)
    try:
        assert instrumentation.installed() == sorted(layers.SPAN_NAMES)
        assert cog.loop.assemble_input is not before["loop.assemble_input"]
        traced = cog.loop.run_episode(config).trace
        text = traced.dumps()
        list(cog.trace.iter_chains(cog.trace.EpisodeTrace.loads(text)))
    finally:
        instrumentation.restore()

    assert text == untraced  # the wrappers change no output
    assert instrumentation.installed() == []
    assert _bindings(cog) == before
    timed = self_times(recorder.rows())
    for name in ("loop.run_episode", "cognition.assemble_input", "control.validate",
                 "memory.commit_cycle", "trace.dumps", "trace.loads", "trace.iter_chains"):
        assert timed[name][0] > 0, name
    assert recorder.counters["memory.log_entries_indexed"] > 0

    spans = len(recorder)
    cog.loop.run_episode(config)
    assert len(recorder) == spans  # nothing records once restored


def test_layer_metrics_cover_every_per_layer_name():
    recorder = SpanRecorder()
    values = layers.layer_metrics(recorder, overhead=1.0)
    assert list(values) == [name for name, _ in layers.PER_LAYER]


def test_missing_sources_fail_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "suite_faults", "--seconds", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""
