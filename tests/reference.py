"""A cache-free reference run: ``cache_free()`` bypasses every cache the program keeps.

Each cache holds a pure function of its key, so a run with every one of them
bypassed writes the bytes a cached run writes, and its audit reports the same
metrics and chains; ``test_reference.py`` checks that on the golden sweeps and
the long probe. ``CACHES`` names each cache
with its bypass, and ``test_source.py`` requires every ``lru_cache`` and
every module-level memo in ``src/cogloop`` to be named there, so a new cache
adds one entry here rather than an oracle test of its own; a bypass whose
memo is gone raises, so a deleted cache takes its entry with it. Cached
properties of frozen values (a call's id, a goal's read keys, a config's
digest) are not caches in this sense: each is computed once per object, by
its formula.
"""
from __future__ import annotations

import importlib
import pkgutil
from contextlib import contextmanager
from typing import Callable, Iterator

import pytest

import cogloop
from cogloop import baseline, cognition, control, evidence, goals, loop, memory, runtime, trace, util
from cogloop.regulation import DEFAULT_RULESET


class NeverStores(dict):
    """A memo that forgets every value it is given."""

    def __setitem__(self, key, value):
        pass


def unwrapped(module, name: str) -> Callable[[pytest.MonkeyPatch], None]:
    """Bypass the ``lru_cache`` of ``module.name`` wherever the package binds it."""
    def bypass(patch: pytest.MonkeyPatch) -> None:
        cached = getattr(module, name)
        for info in pkgutil.iter_modules(cogloop.__path__):
            other = importlib.import_module(f"cogloop.{info.name}")
            for attr, value in list(vars(other).items()):
                if value is cached:
                    patch.setattr(other, attr, cached.__wrapped__)
    return bypass


def require_memo(instance: object, attr: str) -> None:
    """Raise if ``instance`` holds no ``attr``: the ``CACHES`` entry naming it is stale."""
    if attr not in vars(instance):
        raise AttributeError(
            f"{type(instance).__name__} instance has no memo attribute {attr!r} to bypass"
        )


def forgetting(cls: type, *attrs: str) -> Callable[[pytest.MonkeyPatch], None]:
    """Give every new ``cls`` a ``NeverStores`` for each of its memo attributes ``attrs``,
    which its ``__init__`` must have set."""
    def bypass(patch: pytest.MonkeyPatch) -> None:
        init = cls.__init__

        def forgetful_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            for attr in attrs:
                require_memo(self, attr)
                setattr(self, attr, NeverStores())

        patch.setattr(cls, "__init__", forgetful_init)
    return bypass


def planning_afresh(patch: pytest.MonkeyPatch) -> None:
    """The scripted proposer forgets the entity map it planned over last."""
    planned = cognition.ScriptedProposer._planned

    def forgetful(self, entities):
        require_memo(self, "_last")
        self._last = None
        return planned(self, entities)

    patch.setattr(cognition.ScriptedProposer, "_planned", forgetful)


def fresh_fact_index(patch: pytest.MonkeyPatch) -> None:
    """Each governed input is assembled by a new ``FactIndex``: every line rendered, encoded
    and parsed, and a new entity map."""
    def cognition_input(self, snapshot, constraints, cycle):
        require_memo(self, "facts")
        task = self.config.scenario.task
        return loop.assemble_input(task, snapshot, constraints, DEFAULT_RULESET,
                                   cognition.FactIndex())

    patch.setattr(loop.Governed, "cognition_input", cognition_input)


def fresh_success(patch: pytest.MonkeyPatch) -> None:
    """Every termination check computes ``GoalSpec.success`` afresh."""
    patch.setattr(goals.GoalWatch, "success", lambda self, snapshot: self.goal.success(snapshot))


# Every cache, by where it lives, and its bypass.
CACHES: dict[str, Callable[[pytest.MonkeyPatch], None]] = {
    # process-wide
    "baseline._derived": unwrapped(baseline, "_derived"),
    "cognition._json_tail": unwrapped(cognition, "_json_tail"),
    "cognition.parse_fact_line": unwrapped(cognition, "parse_fact_line"),
    "cognition._PLANS": lambda patch: patch.setattr(cognition, "_PLANS", NeverStores()),
    "evidence._parse_text": unwrapped(evidence, "_parse_text"),
    "memory.key_segments": unwrapped(memory, "key_segments"),
    "memory.resolve_plan": unwrapped(memory, "resolve_plan"),
    "runtime.simulated_latency": unwrapped(runtime, "simulated_latency"),
    "util.tick_timestamp": unwrapped(util, "tick_timestamp"),
    # per episode
    "baseline.Baseline.leaves": forgetting(baseline.Baseline, "leaves"),
    "baseline.ContextModel._shown": forgetting(baseline.ContextModel, "_shown"),
    "cognition.ScriptedProposer._gather_calls": forgetting(
        cognition.ScriptedProposer, "_gather_calls"
    ),
    "cognition.ScriptedProposer._last": planning_afresh,
    "cognition.FaultyProposer._duplicates": forgetting(cognition.FaultyProposer, "_duplicates"),
    # the rejections that read no memory, kept per proposal object: every cycle validated
    "control.CallChecks._rejected": forgetting(control.CallChecks, "_rejected"),
    "goals.GoalWatch.success": fresh_success,
    # the fact lines, their canonical JSON and the shared entity map: each input built anew
    "loop.Governed.facts": fresh_fact_index,
    # per metrics replay
    # each consumed path's value until its owner commits: every consumption resolved
    "trace._ConsumedValues.values": forgetting(trace._ConsumedValues, "values"),
}


@contextmanager
def cache_free() -> Iterator[None]:
    """Run the enclosed code with every cache in ``CACHES`` bypassed; restore them after."""
    with pytest.MonkeyPatch.context() as patch:
        for bypass in CACHES.values():
            bypass(patch)
        yield
