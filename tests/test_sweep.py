"""Sweep-level guarantees over generated suites, the cost of canonical calls, and memos."""
from __future__ import annotations

import copy
import hashlib
import importlib
import json
import pkgutil
from collections import Counter
from dataclasses import fields, replace
from functools import cached_property
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import cogloop
from cogloop import baseline, cognition, control, loop, runtime, util
from cogloop.baseline import Baseline, run_baseline_episode
from cogloop.cli import parse_faults
from cogloop.cognition import (
    FACT_KINDS, CognitionInput, FactIndex, FaultConfig, format_memory_fact, parse_entities
)
from cogloop.evidence import UNKNOWN
from cogloop.goals import GoalSpec, GoalWatch
from cogloop.loop import Governed, drive_episode, make_proposer, run_episode
from cogloop.memory import EntryKind, MemoryQuery
from cogloop.regulation import DEFAULT_RULESET
from cogloop.runtime import ToolCall, canon_args
from cogloop.scenario import SUITE_SEEDS, load_scenario, load_suite
from cogloop.trace import JustificationChain, compute_metrics, iter_chains
from cogloop.util import canonical_json, content_digest, stored
from conftest import SCENARIO_DIR, SUITE_DIR
from reference import cache_free
from test_cognition import assembled, fact_histories
from strategies import episode_seeds, fault_configs, suite_seeds, whole_episodes
from suitegen import generate_suite


def outcome(result) -> tuple:
    """What an episode did: its status, its length and its successful calls."""
    calls = [(r["tool"], r["args"]) for r in result.invocation_log if r["outcome"]["ok"]]
    return result.status, result.cycles_used, calls


@settings(whole_episodes, max_examples=10)
@given(
    count=st.integers(1, 3),
    suite_seed=suite_seeds,
    episode_seed=episode_seeds,
    faults=fault_configs,
)
def test_generated_sweeps_keep_the_core_invariants(count, suite_seed, episode_seed, faults):
    for scenario in generate_suite(count, suite_seed):
        config = scenario.episode_config(episode_seed, faults=faults)
        governed = run_episode(config)
        records = governed.trace.cycles
        assert not any(r.fault_label and r.executed_ok() for r in records)
        chains = list(iter_chains(governed.trace))
        assert all(isinstance(chain, JustificationChain) for chain in chains)
        assert len(chains) == sum(r["outcome"]["ok"] for r in governed.invocation_log)
        # Control and the goal agree: an approved goal action is one the goal
        # triggers at the memory that cycle read.
        goal = config.scenario.policy.goal
        for record, snapshot in governed.trace.replay():
            if not record.approved():
                continue
            call = ToolCall(**record.decision["call"])
            if goal.matching_template(call) is None:
                continue
            triggered = goal.triggered(snapshot)
            assert triggered is not UNKNOWN
            wanted = (call.name, call.canonical_args)
            assert wanted in [
                (action.name, action.canonical_args)
                for branch in triggered
                for action in branch.actions
            ]

        budget, decay = scenario.baseline_budget, scenario.baseline_decay
        baseline = run_baseline_episode(config, budget, decay)
        assert run_episode(config).trace.dumps() == governed.trace.dumps()
        assert run_baseline_episode(config, budget, decay).trace.dumps() == baseline.trace.dumps()

        # With nothing forgotten and no faults to let through, the baseline
        # runs exactly the governed episode.
        clean = scenario.episode_config(episode_seed)
        unlimited = run_baseline_episode(clean, budget=10_000, decay=0.0)
        reference = run_episode(clean)
        assert outcome(unlimited) == outcome(reference)
        for fact in scenario.goal["required_facts"]:
            assert (
                unlimited.store.snapshot.resolve(fact) == reference.store.snapshot.resolve(fact)
            )


def test_sweep_canonicalizes_call_arguments_at_most_once_per_two_cycles(monkeypatch):
    """A call's canonical arguments are computed when it is built, not at each use, and
    a decision keeps the proposal's own call. With a canonical copy of the call built on
    each cycle's decision, this sweep made 2,358 over 1,610 cycles."""
    original = runtime.canon_args
    calls = 0

    def counting(arguments):
        nonlocal calls
        calls += 1
        return original(arguments)

    for info in pkgutil.iter_modules(cogloop.__path__):
        module = importlib.import_module(f"cogloop.{info.name}")
        if getattr(module, "canon_args", None) is original:
            monkeypatch.setattr(module, "canon_args", counting)

    faults = parse_faults("all=0.1")  # as `cogloop suite --faults all=0.1` sets it
    cycles = 0
    for scenario in generate_suite(10):
        for seed in scenario.seeds:
            config = scenario.episode_config(seed, faults=faults)
            cycles += run_episode(config).cycles_used
            budget, decay = scenario.baseline_budget, scenario.baseline_decay
            cycles += run_baseline_episode(config, budget, decay).cycles_used
    assert cycles > 1000
    assert 2 * calls <= cycles, f"{calls} canonicalizations over {cycles} cycles"


def probe_config():
    """The ROADMAP probe: 237 cycles, nearly all of them rejected duplicates."""
    scenario = load_scenario(SCENARIO_DIR / "weather_two_city.json")
    return scenario.episode_config(
        1, faults=FaultConfig(seed=3, p_duplicate=0.995), max_cycles=2000
    )


def test_governed_cycle_encodes_and_parses_only_what_each_commit_adds(monkeypatch):
    """On the long probe (237 cycles, 476 entries), each fact line is JSON-encoded once,
    when its entry is committed, and no governed cycle parses its fact lines afresh.
    Only the lines of observations and action records are parsed, each once; the
    scenario's load parses its context once more (the read-back check). Feedback lines,
    one per rejection, are not parsed.

    Encoding every line on every cycle made 28,436 encodes here; parsing the feedback
    lines made 238 parses.
    """
    counts = {"encodes": 0, "fresh_parses": 0, "constraints": 0, "line_parses": 0}
    encode_json, fresh_parse, assemble, parse_line = (
        cognition.canonical_json, cognition.parse_entities, loop.assemble_input,
        cognition.parse_fact_line,
    )

    def encode(value):
        counts["encodes"] += isinstance(value, str)  # a fact line or a constraint
        return encode_json(value)

    def parse(facts):
        counts["fresh_parses"] += 1
        return fresh_parse(facts)

    def parse_one(line):
        counts["line_parses"] += 1
        return parse_line(line)

    def assembling(task, snapshot, constraints, ruleset, facts):
        counts["constraints"] += len(constraints)
        return assemble(task, snapshot, constraints, ruleset, facts)

    monkeypatch.setattr(cognition, "canonical_json", encode)
    monkeypatch.setattr(cognition, "parse_entities", parse)
    monkeypatch.setattr(loop, "assemble_input", assembling)
    monkeypatch.setattr(cognition, "parse_fact_line", parse_one)
    result = run_episode(probe_config())
    assert (result.cycles_used, len(result.store.entries())) == (237, 476)
    fact_entries = sum(e.kind in FACT_KINDS for e in result.store.entries())
    assert counts["encodes"] <= fact_entries + counts["constraints"]
    assert counts["fresh_parses"] == 0
    shown = sum(e.kind in (EntryKind.OBSERVATION, EntryKind.ACTION)
                for e in result.store.entries())
    assert shown == 4
    assert counts["line_parses"] <= shown + 1


def test_probe_validates_a_repeated_rejection_once(monkeypatch):
    """On the long probe, where nearly every cycle re-proposes a duplicate gather, control
    runs its checks in full only for what it has not rejected before: 4 validations for 237
    cycles. The rejection it keeps is never changed: after the episode it still serializes
    as the decision the first cycle that got it recorded. Validating every cycle in full
    made 236 validations here."""
    runs, decisions = [0], []
    validation, decide = control._Validation, loop.validate

    def counting(*args):
        runs[0] += 1
        return validation(*args)

    def deciding(*args):
        decisions.append(decide(*args))
        return decisions[-1]

    monkeypatch.setattr(control, "_Validation", counting)
    monkeypatch.setattr(loop, "validate", deciding)
    result = run_episode(probe_config())
    assert result.cycles_used == len(decisions) == 237
    assert runs[0] == 4
    served = Counter(map(id, decisions))
    (kept,) = {id(d): d for d in decisions if served[id(d)] > 1}.values()
    first = next(cycle for cycle, d in enumerate(decisions, start=1) if d is kept)
    record = next(r for r in result.trace.cycles if r.cycle == first)
    assert kept.to_dict() == record.decision


def long_config():
    """The longest `long_horizon` benchmark episode: 469 cycles of inputs up to 67 KB."""
    scenario = load_scenario(SUITE_DIR / "trip36_gdansk.json")
    return scenario.episode_config(
        3, faults=FaultConfig(seed=3822, p_duplicate=0.99), max_cycles=2000
    )


def count_hashed_bytes(patch) -> list[int]:
    """Count, in the returned list's one item, the bytes given to SHA-256 in cognition and
    util, the modules that hash proposer inputs: governed inputs, and the rest."""
    hashed = [0]
    sha256 = hashlib.sha256

    class Counting:
        def __init__(self, data=b""):
            self.state = sha256()
            self.update(data)

        def update(self, data):
            hashed[0] += len(data)
            self.state.update(data)

        def copy(self):
            twin = Counting()
            twin.state = self.state.copy()
            return twin

        def hexdigest(self):
            return self.state.hexdigest()

    for module in (cognition, util):
        patch.setattr(module, "hashlib", SimpleNamespace(sha256=Counting))
    return hashed


class Recorded:
    """A proposer that keeps each input it is given."""

    def __init__(self, proposer):
        self.proposer, self.inputs = proposer, []

    @property
    def last_meta(self):
        return self.proposer.last_meta

    def propose(self, cog_input):
        self.inputs.append(cog_input)
        return self.proposer.propose(cog_input)


class Reading(Recorded):
    """A proposer that also reads each input's digest in its own cycle, as an eager digest
    would be hashed."""

    def propose(self, cog_input):
        cog_input.input_digest
        return super().propose(cog_input)


def plans(policy, inputs) -> list:
    """What one scripted planner answers to ``inputs`` in turn: a proposal and its fact
    reads, or the ``PolicyGap`` raised. A memo hit returns the stored proposal itself."""
    planner, answers = cognition.ScriptedProposer(policy), []
    for cog_input in inputs:
        try:
            answers.append((planner.propose(cog_input), planner.last_meta.fact_reads))
        except cognition.PolicyGap as gap:
            answers.append((gap, None))
    return answers


def hashed_episode(config, proposer=Recorded) -> SimpleNamespace:
    """A governed episode run once, with a ``proposer`` that records its inputs, and its
    trace dumped: its result, its inputs, its trace text, the bytes hashed while it ran
    and computed its metrics, and the bytes hashed when its digests were resolved by
    ``dumps``. The config's digest is hashed before counting starts."""
    config.digest()
    recorded = proposer(make_proposer(config))
    with pytest.MonkeyPatch.context() as patch:
        hashed = count_hashed_bytes(patch)
        result = drive_episode(Governed(config), recorded)
        compute_metrics(result.trace)
        ran = hashed[0]
        text = result.trace.dumps()
    total = sum(len(canonical_json(i.to_request()).encode()) for i in recorded.inputs)
    return SimpleNamespace(result=result, inputs=recorded.inputs, text=text, ran=ran,
                           hashed=hashed[0] - ran, total=total)


@pytest.fixture(scope="module")
def long_episode():
    """The 469-cycle episode, run once by `hashed_episode`."""
    return hashed_episode(long_config())


@pytest.fixture(scope="module")
def probe_episode():
    """The 237-cycle probe, run once by `hashed_episode`."""
    return hashed_episode(probe_config())


def test_every_cycle_records_the_digest_of_its_whole_input(long_episode, probe_episode):
    """On the probe and the 469-cycle episode, whose inputs grow to hundreds of fact
    lines, each cycle's input digest, resumed from the last input's, is that of the
    request."""
    for episode in (probe_episode, long_episode):
        result, inputs = episode.result, episode.inputs
        assert len(inputs) == result.cycles_used == len(result.trace.cycles) - 1
        for record, cog_input in zip(result.trace.cycles[1:], inputs):
            assert record.input_digest == content_digest(cog_input.to_request())
    assert (probe_episode.result.cycles_used, long_episode.result.cycles_used) == (237, 469)
    assert len(canonical_json(long_episode.inputs[-1].to_request())) > 65_536


def test_long_episode_hashes_at_most_a_third_of_its_input_bytes(long_episode):
    """Each input is hashed from the mark, the first line the last input changed, so the
    469-cycle episode hashes about 30% of its input bytes. Hashing every input whole
    hashed all of them; a state kept every 64 lines hashed 42%."""
    hashed, total = long_episode.hashed, long_episode.total
    assert 0 < 3 * hashed <= total, f"{hashed} of {total} bytes hashed"


def test_probe_hashes_at_most_55_percent_of_its_input_bytes(probe_episode):
    """The 237-cycle probe's inputs are shorter, so the tail after each change is a
    larger share: about 52% of its input bytes are hashed. A state kept every 64 lines
    hashed 72%."""
    hashed, total = probe_episode.hashed, probe_episode.total
    assert 0 < 100 * hashed <= 55 * total, f"{hashed} of {total} bytes hashed"


def hashed_per_input(history) -> list[tuple[CognitionInput, int]]:
    """Each input that ``history`` gives, with the bytes SHA-256 was given when its digest
    was read. The inputs are all assembled first, which hashes nothing, and then read in
    input order, so that each read hashes its own input alone."""
    hashed = []
    with pytest.MonkeyPatch.context() as patch:
        total = count_hashed_bytes(patch)
        inputs = assembled(history)
        assert total[0] == 0
        for cog_input in inputs:
            before = total[0]
            cog_input.input_digest
            hashed.append(total[0] - before)
    return list(zip(inputs, hashed, strict=True))


def check_hashed_per_input(history) -> None:
    """Each input's digest is its request's, and hashes no more bytes than the request."""
    for built, hashed in hashed_per_input(history):
        request = canonical_json(built.to_request())
        assert built.input_digest == util.text_digest(request)
        assert hashed <= len(request.encode())


def test_a_run_and_its_metrics_hash_no_input_and_a_dump_hashes_what_eager_digests_did(
    long_episode
):
    """The 469-cycle episode and its metrics hash no input byte. Its dump then hashes,
    every digest at once, the 4,816,046 bytes that reading each digest in its own cycle
    hashes, which is what an eager digest hashed, and writes the same trace."""
    eager = hashed_episode(long_config(), Reading)
    assert (long_episode.ran, eager.hashed) == (0, 0)
    assert long_episode.hashed == eager.ran == 4_816_046
    assert long_episode.text == eager.text


@pytest.mark.parametrize("fault_spec", ["all=0.1", "duplicate=0.5"])
def test_golden_sweeps_hash_the_same_bytes_read_each_cycle_or_at_the_dump(suite_dir, fault_spec):
    """Over each golden sweep's governed episodes, a digest read in its own cycle and one
    first read by ``dumps`` hash the same bytes and write the same trace."""
    faults, hashed = parse_faults(fault_spec), 0
    for scenario in load_suite(suite_dir):
        for seed in scenario.seeds:
            config = scenario.episode_config(seed, faults=faults)
            eager, lazy = hashed_episode(config, Reading), hashed_episode(config)
            assert (eager.ran + eager.hashed, eager.text) == (lazy.hashed, lazy.text)
            assert lazy.ran == eager.hashed == 0
            hashed += lazy.hashed
    assert hashed > 1_000_000


@settings(max_examples=50, deadline=None)
@given(history=fact_histories(), data=st.data())
def test_digests_read_in_any_order_equal_plain_digests(history, data):
    """An input's digest is its request's whichever input is read first: reading one hashes
    every input queued before it, in input order. Last-first is one order drawn."""
    inputs = assembled(history)
    order = data.draw(st.one_of(st.just(list(reversed(range(len(inputs))))),
                                st.permutations(range(len(inputs)))))
    digests = {at: inputs[at].input_digest for at in order}
    assert [digests[at] for at in range(len(inputs))] == [
        content_digest(built.to_request()) for built in inputs
    ]


def test_unread_digests_survive_copies_comparisons_and_edited_traces():
    """A record's unread digest resolves to its input's after ``dataclasses.replace``,
    ``copy.deepcopy`` (whose copy holds the digest itself, though the index holds a SHA-256
    state once one digest is read), ``==``, and after the live trace's list of records is
    reversed and cut in place."""
    config = probe_config()
    recorded = Recorded(make_proposer(config))
    trace = drive_episode(Governed(config), recorded).trace
    wanted = {r.cycle: content_digest(i.to_request()) for r, i in zip(trace.cycles[1:],
                                                                        recorded.inputs)}
    assert trace.cycles[1].input_digest == wanted[1]
    records = trace.cycles
    records.reverse()
    del records[: len(records) // 2]
    last = records[0]
    twin = copy.deepcopy(last)
    assert type(stored(twin, "input_digest")) is str
    assert twin.input_digest == wanted[last.cycle]
    moved = replace(records[1], cycle=-1)
    assert moved.input_digest == wanted[records[1].cycle]
    assert records[2] == replace(records[2]) and records[2] != records[3]
    assert {r.cycle: r.input_digest for r in records if r.cycle} == {
        cycle: digest for cycle, digest in wanted.items() if cycle <= records[0].cycle
    }


@settings(max_examples=30, deadline=None)
@given(history=fact_histories(constraints=None))
def test_inputs_whose_constraints_change_every_cycle_hash_no_more_than_plain(history):
    """New constraints change an input's text before its first fact line, so the mark
    cannot serve: each input is hashed once from its start, as a plain digest would."""
    check_hashed_per_input(history)


@settings(max_examples=100, deadline=None)
@given(history=fact_histories())
def test_no_input_hashes_more_than_its_whole_request(history):
    """Whether a cycle's first change lands before the mark, at it or after it, changes
    no line, or comes with new constraints, its input hashes at most its request's bytes."""
    check_hashed_per_input(history)


@pytest.fixture(scope="module")
def suite50_sweep(suite_dir):
    """The suite50 sweep at all=0.1, both systems, then the probe: (config, result,
    proposer inputs) per episode, and every call a system was asked to decide or decided."""
    calls = []

    def keeping(system):
        decide = system.decide

        def deciding(proposal, snapshot, cycle, max_cycles):
            decision = decide(proposal, snapshot, cycle, max_cycles)
            calls.extend(call for call in (proposal.call, decision.call) if call is not None)
            return decision

        system.decide = deciding
        return system

    def episode(system):
        proposer = Recorded(make_proposer(system.config))
        return system.config, drive_episode(keeping(system), proposer), proposer.inputs

    faults = parse_faults("all=0.1")
    episodes = []
    for scenario in load_suite(suite_dir):
        for seed in scenario.seeds:
            config = scenario.episode_config(seed, faults=faults)
            budget, decay = scenario.baseline_budget, scenario.baseline_decay
            episodes += [episode(Governed(config)), episode(Baseline(config, budget, decay))]
    episodes.append(episode(Governed(probe_config())))
    return SimpleNamespace(episodes=episodes, calls=calls)


def entity_lines(cog_input) -> tuple[str, ...]:
    """The input's fact lines that its entity map shows: all but the feedback lines."""
    return tuple(line for line in cog_input.facts if not line.startswith(cognition.FEEDBACK_LINE))


def test_inputs_share_one_entity_map_until_an_entity_line_changes(suite50_sweep):
    """After the suite50 sweep at all=0.1 (both systems) and the probe, every input's entity
    map still equals `parse_entities` of its facts: no map handed out was changed later.
    Consecutive governed inputs whose entity lines are the same hold the same map object,
    the identity the scripted proposer's last-plan check relies on."""
    shared = changed = 0
    for _, result, inputs in suite50_sweep.episodes:
        for cog_input in inputs:
            assert cog_input.entities == parse_entities(cog_input.facts)
        if result.trace.header.baseline:
            continue
        for last, cog_input in zip(inputs, inputs[1:]):
            if entity_lines(last) == entity_lines(cog_input):
                assert cog_input.entities is last.entities
                shared += 1
            else:
                changed += 1
    probe_inputs = suite50_sweep.episodes[-1][2]
    assert len(probe_inputs) == 237
    assert sum(a.entities is b.entities for a, b in zip(probe_inputs, probe_inputs[1:])) == 233
    assert (shared, changed) == (301, 988)  # suite50's episodes are short; most share on the probe


def test_probe_plans_once_per_state_its_goal_reads():
    """Given the probe's 237 inputs in turn, the scripted planner makes 4 plans: once per
    state of the facts its goal reads. Re-planning on every cycle made 237 plans here."""
    config = probe_config()
    recorded = Recorded(make_proposer(config))
    assert drive_episode(Governed(config), recorded).cycles_used == 237
    memoized = plans(config.scenario.policy, recorded.inputs)
    assert len({id(proposal) for proposal, _ in memoized}) == 4


def fresh_plan(policy, entities) -> tuple:
    """What a planner with no memo answers over every entity: a proposal and its fact reads,
    or the ``PolicyGap`` raised."""
    view = cognition.FactView(dict(entities))
    try:
        proposal, _ = cognition.ScriptedProposer(policy)._plan(view)
    except cognition.PolicyGap as gap:
        return gap, None
    return proposal, list(view.reads.items())


def test_memoized_plans_equal_plans_over_the_full_view(suite50_sweep):
    """On every cycle of the suite50 sweep at all=0.1, both systems, and of the probe,
    the memoized plan has the proposal and fact reads of a planner with no memo that
    reads every entity of the cycle's input."""
    cycles = made = 0
    for config, _, inputs in suite50_sweep.episodes:
        memoized = plans(config.scenario.policy, inputs)
        cycles += len(inputs)
        made += len({id(proposal) for proposal, _ in memoized})
        for cog_input, (proposal, reads) in zip(inputs, memoized):
            fresh, fresh_reads = fresh_plan(config.scenario.policy, cog_input.entities)
            if reads is None:  # a PolicyGap
                assert fresh_reads is None
            else:
                assert (proposal.to_response(), reads) == (fresh.to_response(), fresh_reads)
    # Distinct plans per episode: about half the cycles reuse one.
    assert (cycles, made) == (8742, 4219)


def test_memoized_views_equal_fresh_ones_over_interleaved_sweeps(suite_dir, monkeypatch):
    """Three suite50 sweeps at all=0.1, both systems, with the scenarios interleaved (every
    scenario's episode of one seed, then the next seed), so that the memos serve episodes of
    many scenarios in turn and evict. Every plan the proposers are given equals a plan with
    no memo over every entity of the input; every baseline input's digest and entity map
    equal ``content_digest`` of its request and `parse_entities` of its facts; no memo ever
    holds more than its bound; and each sweep writes the same traces."""
    planned, built = cognition.ScriptedProposer._planned, Baseline.cognition_input
    counts = {"plans": 0, "inputs": 0}

    def checking_plan(self, entities):
        plan = planned(self, entities)
        fresh, fresh_reads = fresh_plan(self.policy, entities)
        assert (plan[0].to_response(), list(plan[2])) == (fresh.to_response(), fresh_reads)
        counts["plans"] += 1
        return plan

    def checking_input(self, snapshot, constraints, cycle):
        cog_input = built(self, snapshot, constraints, cycle)
        assert cog_input.input_digest == content_digest(cog_input.to_request())
        assert cog_input.entities == parse_entities(cog_input.facts)
        counts["inputs"] += 1
        return cog_input

    def memo_sizes() -> list[int]:
        return [
            len(cognition._PLANS), baseline._derived.cache_info().currsize,
            cognition.parse_fact_line.cache_info().currsize,
        ]

    bounds = [cognition.PLAN_MEMO, baseline.INPUT_MEMO, cognition.PARSE_MEMO]
    monkeypatch.setattr(cognition.ScriptedProposer, "_planned", checking_plan)
    monkeypatch.setattr(Baseline, "cognition_input", checking_input)
    scenarios, faults = load_suite(suite_dir), parse_faults("all=0.1")
    sweeps = []
    for _ in range(3):
        traces = []
        for at in range(len(SUITE_SEEDS)):
            for scenario in scenarios:
                config = scenario.episode_config(scenario.seeds[at], faults=faults)
                budget, decay = scenario.baseline_budget, scenario.baseline_decay
                traces.append(run_episode(config).trace.dumps())
                traces.append(run_baseline_episode(config, budget, decay).trace.dumps())
                assert all(size <= bound for size, bound in zip(memo_sizes(), bounds))
        sweeps.append(traces)
    assert sweeps[0] == sweeps[1] == sweeps[2]
    assert memo_sizes()[:2] == bounds[:2]  # filled up, so evicting
    assert counts["plans"] > 3 * 8000 and counts["inputs"] > 3 * 7000


FACT_QUERY = MemoryQuery(kinds=FACT_KINDS, latest_only=True)


# Worked scenarios: transient_retry rewrites a fact key after a tool failure.
WORKED = [load_scenario(SCENARIO_DIR / f"{name}.json")
          for name in ("weather_two_city", "rain_cancellation", "transient_retry")]


@settings(whole_episodes, max_examples=10)
@given(
    count=st.integers(1, 3),
    suite_seed=suite_seeds,
    worked=st.sampled_from(WORKED),
    episode_seed=episode_seeds,
    faults=fault_configs,
)
def test_cached_fact_lines_equal_lines_rendered_afresh(
    count, suite_seed, worked, episode_seed, faults
):
    """Each cycle's governed facts, and the values derived from them, equal a fresh
    assembly and the from-scratch computations; with every cache bypassed, both systems
    write the same bytes."""
    original = loop.assemble_input
    checked = 0

    def checking(task, snapshot, constraints, ruleset, facts):
        nonlocal checked
        built = original(task, snapshot, constraints, ruleset, facts)
        assert built == original(task, snapshot, constraints, ruleset, FactIndex())
        reference = tuple(format_memory_fact(e) for e in snapshot.read(FACT_QUERY))
        assert built.facts == reference
        assert built.entities == parse_entities(reference)
        assert built.input_digest == content_digest(built.to_request())
        checked += 1
        return built

    for scenario in [*generate_suite(count, suite_seed), worked]:
        config = scenario.episode_config(episode_seed, faults=faults)
        budget, decay = scenario.baseline_budget, scenario.baseline_decay
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(loop, "assemble_input", checking)
            governed = run_episode(config)
        assert checked == governed.cycles_used
        checked = 0
        cached = run_baseline_episode(config, budget, decay).trace.dumps()
        with cache_free():
            assert run_baseline_episode(config, budget, decay).trace.dumps() == cached
            assert run_episode(config).trace.dumps() == governed.trace.dumps()


# ------------------------------------------------------------- goal watch
def assert_watch_agrees(goal, trace) -> int:
    """On every cycle, the episode's watch (read off its decisions) and a watch given each
    replayed snapshot in turn both give ``GoalSpec.success`` computed afresh; the cycles."""
    watch = GoalWatch(goal)
    for record, snapshot in trace.replay():
        fresh = goal.success(snapshot)
        assert watch.success(snapshot) is fresh
        if record.decision is not None:
            assert (record.decision["reason"] == "GoalSatisfied") is fresh
    return len(trace.cycles)


@settings(whole_episodes, max_examples=10)
@given(
    count=st.integers(1, 3),
    suite_seed=suite_seeds,
    episode_seed=episode_seeds,
    faults=fault_configs,
)
def test_goal_watch_gives_fresh_success_over_generated_suites(
    count, suite_seed, episode_seed, faults
):
    for scenario in generate_suite(count, suite_seed):
        config = scenario.episode_config(episode_seed, faults=faults)
        goal = config.scenario.policy.goal
        assert_watch_agrees(goal, run_episode(config).trace)
        budget, decay = scenario.baseline_budget, scenario.baseline_decay
        assert_watch_agrees(goal, run_baseline_episode(config, budget, decay).trace)


def test_goal_watch_gives_fresh_success_on_suite50_and_the_probe(suite50_sweep):
    cycles = sum(
        assert_watch_agrees(config.scenario.policy.goal, result.trace)
        for config, result, _ in suite50_sweep.episodes
    )
    assert cycles == 8742 + 501  # every cycle and each episode's cycle 0


def test_probe_computes_success_once_per_commit_of_a_key_its_goal_reads(monkeypatch):
    """Over the probe's 237 cycles the goal's verdict is computed 4 times: at cycle 1 and
    after each commit of an observation or action record. It was computed every cycle."""
    computed = 0
    success = GoalSpec.success

    def counting(self, snapshot):
        nonlocal computed
        computed += 1
        return success(self, snapshot)

    monkeypatch.setattr(GoalSpec, "success", counting)
    assert run_episode(probe_config()).cycles_used == 237
    assert computed == 4


class Interleaving:
    """A proposer that runs a whole other episode before each of its proposals."""

    def __init__(self, proposer, other):
        self.proposer, self.other, self.others = proposer, other, []

    @property
    def last_meta(self):
        return self.proposer.last_meta

    def propose(self, cog_input):
        self.others.append(self.other())
        return self.proposer.propose(cog_input)


@pytest.mark.parametrize("outer_baseline", [False, True])
@pytest.mark.parametrize("inner_baseline", [False, True])
@pytest.mark.parametrize("swap", [False, True])
def test_episodes_sharing_one_goal_spec_run_interleaved(
    two_city, outer_baseline, inner_baseline, swap
):
    """Two episodes of one ``GoalSpec`` over worlds that book different cities, where a
    premature booking is right in one and wrong in the other: each runs the same bytes
    with the other's cycles run between its own as when run alone."""
    faults = FaultConfig(seed=3, p_premature_action=0.5)
    shipped = two_city.episode_config(1, faults=faults)
    swapped = [{**row, "temp_f": 112.6 - row["temp_f"]} for row in two_city.world["weather"]]
    swapped_city = replace(two_city, world={**two_city.world, "weather": swapped})
    vars(swapped_city)["policy"] = two_city.policy  # the cached policy: one parsed GoalSpec
    other = swapped_city.episode_config(2, faults=faults)
    assert shipped.scenario.policy.goal is other.scenario.policy.goal
    first, second = (other, shipped) if swap else (shipped, other)
    budget, decay = 10_000, 0.0  # a baseline that forgets nothing books the right city too

    def episode(config, baseline, proposer=None):
        system = Baseline(config, budget, decay) if baseline else Governed(config)
        return drive_episode(system, proposer or make_proposer(config))

    def alone(config, baseline):
        """The episode's bytes when it runs on a ``GoalSpec`` of its own."""
        return episode(replace(config, scenario=replace(config.scenario)), baseline)

    proposer = Interleaving(make_proposer(first), lambda: episode(second, inner_baseline))
    outer = episode(first, outer_baseline, proposer)
    assert outer.trace.dumps() == alone(first, outer_baseline).trace.dumps()
    assert len(proposer.others) == outer.cycles_used
    inner = alone(second, inner_baseline).trace.dumps()
    assert {result.trace.dumps() for result in proposer.others} == {inner}


# --------------------------------------------------------------- tool calls
def test_tool_call_strings_equal_their_formulas_over_suite50(suite50_sweep):
    """Each call's cached strings and dict forms equal what the formulas compute afresh."""
    calls = list({id(call): call for call in suite50_sweep.calls}.values())
    assert len(suite50_sweep.calls) > 15_000 and len(calls) > 100
    for call in calls:
        canonical = canon_args(call.arguments)
        assert call.call_id() == f"{call.name}:{canonical_json(canonical)}"
        listed = ", ".join(f"{k}={v}" for k, v in canonical.items())
        assert call.describe() == f"{call.name}({listed})"
        assert call.to_dict() == {"name": call.name, "arguments": call.arguments}
        assert json.dumps(call.canonical_dict()) == json.dumps(
            {"name": call.name, "arguments": canonical}
        )


def test_sweep_leaves_no_episode_state_on_shared_specs(suite50_sweep):
    """After the sweep, every spec object that episodes share holds only its fields and
    the values of its class's cached properties: no episode wrote its state there."""
    def allowed(obj) -> set[str]:
        cached = {
            name for cls in type(obj).__mro__ for name, value in vars(cls).items()
            if isinstance(value, cached_property)
        }
        return {f.name for f in fields(obj)} | cached

    shared = {}
    for config, _, _ in suite50_sweep.episodes:
        policy, goal = config.scenario.policy, config.scenario.policy.goal
        for obj in (config, config.scenario, config.faults, DEFAULT_RULESET,
                    *DEFAULT_RULESET.rules, policy,
                    policy.gather, goal, *goal.all_branches(), *goal.action_templates()):
            shared[id(obj)] = obj
    assert len(shared) > 800
    leaks = [
        f"{type(obj).__name__}: {sorted(set(vars(obj)) - allowed(obj))}"
        for obj in shared.values()
        if not set(vars(obj)) <= allowed(obj)
    ]
    assert leaks == []
