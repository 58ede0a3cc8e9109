"""Outside-in span recorder for the traced benchmark run.

Nothing under ``src/`` knows about tracing. ``Instrumentation.install``
replaces the public functions the episode drivers call with thin wrappers
that open and close a span around the original; ``restore`` puts every
original back. A span is (name, start, end, parent, episode id), kept in
flat arrays while the run lasts and written out when it ends.

A module-level function can be bound under several names (``loop.py`` does
``from .cognition import assemble_input``), so installing one scans every
loaded ``cogloop`` module and replaces each binding of that same object.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

PACKAGE = "cogloop"
MARKER = "__perfbench_span__"


class SpanRecorder:
    """Spans of one traced pass, in the order they were opened."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.episode = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: Counter = Counter()
        self.episode_id = -1
        self._stack: list[int] = []

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.episode.append(self.episode_id)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.open(self.name_index(name))
        try:
            yield
        finally:
            self.close(index)

    def __len__(self) -> int:
        return len(self.start)

    def rows(self) -> Iterator[tuple[str, int, int, int]]:
        """(name, start_ns, end_ns, parent index) per span."""
        for i in range(len(self.start)):
            yield self.names[self.name_id[i]], self.start[i], self.end[i], self.parent[i]

    def write_tsv(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tparent\tepisode\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.parent[i]}\t{self.episode[i]}\t{self.names[self.name_id[i]]}"
                    f"\t{self.start[i]}\t{self.end[i]}\n"
                )


def self_times(rows: Iterable[tuple[str, int, int, int]]) -> dict[str, tuple[int, int]]:
    """Per span name: (calls, self time in ns).

    A span's self time is its duration minus the durations of its direct
    children. Spans of one thread nest, so children never overlap.
    ``rows`` are (name, start, end, parent index) with parents before children.
    """
    rows = list(rows)
    child_ns = [0] * len(rows)
    for name, start, end, parent in rows:
        if parent >= 0:
            child_ns[parent] += end - start
    totals: dict[str, list[int]] = {}
    for i, (name, start, end, _) in enumerate(rows):
        bucket = totals.setdefault(name, [0, 0])
        bucket[0] += 1
        bucket[1] += end - start - child_ns[i]
    return {name: (calls, ns) for name, (calls, ns) in totals.items()}


Count = Callable[[Counter, tuple, Any], None]


@dataclass(frozen=True)
class Target:
    """One function to time: ``owner`` is a module, or ``module:Class``."""

    name: str
    owner: str
    attr: str
    count: Count | None = None


def _resolve(owner: str) -> Any:
    module, _, cls = owner.partition(":")
    obj = sys.modules[module]
    return getattr(obj, cls) if cls else obj


def _wrap(recorder: SpanRecorder, name: str, func: Callable, count: Count | None) -> Callable:
    name_id = recorder.name_index(name)

    if inspect.isgeneratorfunction(func):
        # The span lasts until the generator is exhausted, so callers must
        # consume it at once (``list(...)``) for spans to stay nested.
        @functools.wraps(func)
        def generator_wrapper(*args: Any, **kwargs: Any) -> Any:
            index = recorder.open(name_id)
            try:
                yield from func(*args, **kwargs)
            finally:
                recorder.close(index)

        setattr(generator_wrapper, MARKER, name)
        return generator_wrapper

    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        index = recorder.open(name_id)
        try:
            result = func(*args, **kwargs)
        finally:
            recorder.close(index)
        if count is not None:
            count(recorder.counters, args, result)
        return result

    setattr(wrapper, MARKER, name)
    return wrapper


class Instrumentation:
    """Installs span wrappers on a set of targets and removes them again."""

    def __init__(self, targets: Iterable[Target]):
        self.targets = tuple(targets)
        self._saved: list[tuple[Any, str, Any]] = []

    @staticmethod
    def _modules() -> list[Any]:
        return [
            module
            for name, module in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]

    def install(self, recorder: SpanRecorder) -> None:
        if self._saved:
            raise RuntimeError("instrumentation is already installed")
        for target in self.targets:
            owner = _resolve(target.owner)
            if isinstance(owner, type):
                raw = owner.__dict__[target.attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(_wrap(recorder, target.name, raw.__func__, target.count))
                else:
                    wrapped = _wrap(recorder, target.name, raw, target.count)
                self._saved.append((owner, target.attr, raw))
                setattr(owner, target.attr, wrapped)
                continue
            original = getattr(owner, target.attr)
            wrapped = _wrap(recorder, target.name, original, target.count)
            for module in self._modules():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, value))
                        setattr(module, attr, wrapped)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def installed(self) -> list[str]:
        """Names of span wrappers currently reachable from the package."""
        found = set()
        for module in self._modules():
            for value in vars(module).values():
                candidates = [value]
                if isinstance(value, type):
                    candidates = [
                        getattr(raw, "__func__", raw) for raw in vars(value).values()
                    ]
                for candidate in candidates:
                    if hasattr(candidate, MARKER):
                        found.add(getattr(candidate, MARKER))
        return sorted(found)
