"""Lines of ``src/cogloop`` that no shipped run reaches, measured with a line trace.

    python tests/reach.py

Runs, under ``sys.settrace``, the shipped command-line paths: each worked
scenario at seeds 1-3 plain, with ``--compare --out``, with ``--faults
all=0.3 --compare --out``, with ``--compare --baseline-budget 2
--baseline-decay 0.5`` and with ``--verbose``; ``cogloop suite
scenarios/suite50 --compare --out`` plain, with ``--faults all=0.1`` and with
``--seeds 1,2``; and ``cogloop trace`` on every trace those runs wrote, once
plain and once per ``act.<tool>`` and ``act.<tool>@<version>`` reference to
an action record the trace holds. Then it runs one pass
of each benchmark workload at seed 0 (``perfbench/workloads.py``, read but
not changed). It prints every executable line of ``src/cogloop`` that none of
this ran, then the count per module. Outputs go to a temporary directory.
Under the line trace the whole list takes about 26 s on one core of a
2-vCPU x86-64 VM.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import tempfile
from pathlib import Path
from types import CodeType, SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "cogloop"
WORKED = ("weather_two_city", "rain_cancellation", "transient_retry")
RUN_FLAGS = (
    [],
    ["--compare", "--out"],
    ["--faults", "all=0.3", "--compare", "--out"],
    ["--compare", "--baseline-budget", "2", "--baseline-decay", "0.5"],
    ["--verbose"],
)
SUITE_FLAGS = ([], ["--faults", "all=0.1"], ["--seeds", "1,2"])
BENCH_MODULES = ("cli", "loop", "baseline", "scenario", "trace", "cognition")


def code_lines(code: CodeType) -> set[int]:
    """The lines ``code`` itself runs, without those of the functions it defines."""
    return {line for _, _, line in code.co_lines() if line is not None}


def nested(code: CodeType) -> list[CodeType]:
    """``code`` and every code object defined inside it."""
    found = [code]
    for const in code.co_consts:
        if isinstance(const, CodeType):
            found += nested(const)
    return found


class LineTrace:
    """The (file, line) pairs run in ``files``; a code object whose every line has run
    is no longer traced, so hot paths cost little once they are covered."""

    def __init__(self, files: set[str]):
        self.files = files
        self.reached: set[tuple[str, int]] = set()
        self.left: dict[CodeType, set[int]] = {}  # code -> its lines not yet reached

    def call(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename not in self.files:
            return None
        left = self.left.get(code)
        if left is None:
            # The first line is the def (or decorator) line, which runs where it stands.
            left = self.left[code] = code_lines(code) - {code.co_firstlineno}
        return self.line if left else None

    def line(self, frame, event, arg):
        if event == "line":
            self.reached.add((frame.f_code.co_filename, frame.f_lineno))
            self.left[frame.f_code].discard(frame.f_lineno)
        return self.line


def action_refs(path: Path) -> list[str]:
    """``act.<tool>`` and ``act.<tool>@<version>`` for each action record the trace holds."""
    refs = set()
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        for entry in json.loads(line)["memory_delta"]:
            if entry["kind"] == "action":
                refs |= {entry["key"], f"{entry['key']}@{entry['version']}"}
    return sorted(refs)


def shipped_calls(main, out: Path) -> None:
    """The command-line call list, each call's printed output dropped."""
    calls = []
    for name in WORKED:
        for seed in (1, 2, 3):
            for flags in RUN_FLAGS:
                flags = [*flags, str(out / f"{name}_{seed}")] if "--out" in flags else flags
                calls.append(["run", str(ROOT / "scenarios" / f"{name}.json"),
                              "--seed", str(seed), *flags])
    for index, flags in enumerate(SUITE_FLAGS):
        suite = str(ROOT / "scenarios" / "suite50")
        calls.append(["suite", suite, *flags, "--compare", "--out", str(out / f"suite{index}")])
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in calls:
            main(argv)
        for path in sorted(out.rglob("*.jsonl")):
            main(["trace", str(path)])
            for ref in action_refs(path):
                main(["trace", str(path), ref])


def bench_passes() -> list[str]:
    """One pass of each benchmark workload at seed 0; the failures it reports."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    cog = SimpleNamespace(**{m: importlib.import_module(f"cogloop.{m}") for m in BENCH_MODULES})
    failures = []
    for name, make in workloads.WORKLOADS.items():
        workload = make(cog, ROOT, 0)
        result = workload.run(workload.items)
        failures += [f"{name}: {problem}" for problem in (
            workload.setup_failures + result.failures + workload.check_pass(result)
        )]
    return failures


def main() -> int:
    sources = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    tracer = LineTrace(set(sources))
    sys.path.insert(0, str(SRC))
    sys.settrace(tracer.call)
    try:
        cli = importlib.import_module("cogloop.cli")  # module-level lines run under the trace
        with tempfile.TemporaryDirectory() as out:
            shipped_calls(cli.main, Path(out))
        failures = bench_passes()
    finally:
        sys.settrace(None)
    totals = {}
    for name, path in sources.items():
        text = path.read_text(encoding="utf-8").splitlines()
        module = compile("\n".join(text) + "\n", name, "exec")
        lines = set().union(*map(code_lines, nested(module))) - {0}
        unreached = sorted(line for line in lines if (name, line) not in tracer.reached)
        totals[path.name] = (len(unreached), len(lines))
        for line in unreached:
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    for module, (unreached, lines) in totals.items():
        print(f"{module:<16}{unreached:>5} of {lines:>5} executable lines unreached")
    for failure in failures:
        print(f"benchmark check failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
