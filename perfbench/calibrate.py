"""Machine-speed calibration: a fixed probe kernel sampled while the program runs.

The CPU a run gets on a shared host changes speed by up to 2x, in stretches
of seconds to minutes, and a slow stretch can outlast a whole run. Wall time
and CPU time move together, so neither clock removes it. What removes most
of it is a fixed piece of work timed alongside the program: while a
``Speedometer`` is running, a SIGALRM handler runs ``probe_kernel`` every
``PERIOD_S`` of wall time and records how long it took. ``Speedometer.reference_s`` then turns
any interval of the run into reference seconds: the interval's wall time,
less the probes that ran inside it, times ``REFERENCE_PROBE_S`` over the
mean probe time around it. A reference second is a second of a machine on
which the probe takes ``REFERENCE_PROBE_S``.

The kernel does the kind of work the program does: interpreter-bound object
work over a spread of pure-Python code (``Fraction`` arithmetic, frozen
dataclasses, dict indexes, ``difflib``, ``textwrap``, ``deepcopy``). Of the
candidates tried, alone and mixed (plain dict and string loops, ``json``,
slotted objects, reads scattered over a 2-30 MB list, ``tomllib``, ``re``
compilation, pure-Python ``pickle``, ``ast.unparse``), it followed all three
workloads' speed most closely. The kernel is the benchmark's own and never
changes between the runs compared, so any change in the program's cost
shows in full.
"""
from __future__ import annotations

import copy
import dataclasses
import difflib
import signal
import statistics
import textwrap
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.025
# About the probe's time on the 2-vCPU Xeon VM the benchmark was written on,
# in its fast state; this only sets the unit, the same in every run.
REFERENCE_PROBE_S = 0.0005

_WORDS_A = "the quick brown fox jumps over the lazy dog".split()
_WORDS_B = "the quick red fox jumped over a lazy dog today".split()


@dataclasses.dataclass(frozen=True)
class _Entry:
    key: str
    value: int
    parent: int | None = None


def probe_kernel() -> int:
    """A fixed amount of work, the same on every call."""
    total = Fraction(0)
    entries = [_Entry(f"k{i % 7}", i, i - 1 if i else None) for i in range(40)]
    index: dict[str, list[_Entry]] = {}
    for entry in entries:
        index.setdefault(entry.key, []).append(entry)
        total += Fraction(entry.value, 7)
    bumped = [dataclasses.replace(entry, value=entry.value + 1) for entry in entries[:10]]
    similarity = difflib.SequenceMatcher(None, _WORDS_A, _WORDS_B).ratio()
    wrapped = textwrap.fill(" ".join(_WORDS_A * 2), 30)
    copied = copy.deepcopy(index["k1"])
    return int(total) + len(bumped) + int(similarity * 100) + len(wrapped) + len(copied)


class Speedometer:
    """Probe timings over a run, taken from a wall-clock interval timer."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._busy = False
        self._previous: object = None
        self._running = False

    def probe(self, *_: object) -> None:
        if self._busy:  # a signal that lands inside a probe is dropped
            return
        self._busy = True
        try:
            started = perf_counter()
            probe_kernel()
            ended = perf_counter()
            self.starts.append(started)
            self.ends.append(ended)
        finally:
            self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        self._running = True
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self) -> None:
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        # None: the previous handler was not set from Python, so the default.
        signal.signal(signal.SIGALRM, signal.SIG_DFL if self._previous is None else self._previous)
        self._running = False
        self.probe()  # closes the last interval of the run

    def __enter__(self) -> "Speedometer":
        self.start()
        return self

    def __exit__(self, *_: object) -> None:
        self.stop()

    def reference_s(self, start: float, end: float) -> float:
        """Reference seconds of the wall-clock interval [start, end].

        Probes that started inside the interval are taken out of its length.
        The speed is the mean probe time over those probes and the nearest
        one on each side.
        """
        first = bisect_left(self.starts, start)
        last = bisect_right(self.starts, end)
        inside = sum(self.ends[i] - self.starts[i] for i in range(first, last))
        around = range(max(0, first - 1), min(len(self.starts), last + 1))
        if not around:
            raise ValueError("no probe was taken around the interval")
        probe_s = statistics.fmean(self.ends[i] - self.starts[i] for i in around)
        return (end - start - inside) * REFERENCE_PROBE_S / probe_s

    def median_probe_s(self) -> float:
        return statistics.median(e - s for s, e in zip(self.starts, self.ends))

