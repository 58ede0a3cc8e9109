"""Source hygiene: no unused imports in src/cogloop or tests, no module-level names nothing uses,
every name the benchmark harness reaches into still there, and the harness's own tests passing."""
from __future__ import annotations

import ast
import importlib
import io
import re
import subprocess
import sys
import tokenize
from pathlib import Path

from reference import CACHES

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "cogloop"
MODULES = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
TEST_MODULES = {
    f"tests/{path.name}": path.read_text(encoding="utf-8") for path in sorted(TESTS.glob("*.py"))
}
PERFBENCH = TESTS.parent / "perfbench"


def used_names(tree: ast.Module) -> set[str]:
    """Names the module reads, including those in quoted annotations and in ``__all__``."""
    used = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    quoting = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            quoting.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            quoting.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            quoting.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            quoting.append(node.value)
    for part in quoting:
        for node in ast.walk(part):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    expr = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return used


def test_no_unused_imports():
    unused = []
    for name, text in {**MODULES, **TEST_MODULES}.items():
        tree = ast.parse(text)
        used = used_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound not in used:
                    unused.append(f"{name}:{node.lineno} {bound}")
    assert unused == []


def module_level_names(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of every function, class and variable a module defines at top level,
    and of every method and property its classes define, dunders aside."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.name, node.lineno))
        elif isinstance(node, ast.Assign):
            defined += [(t.id, node.lineno) for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defined.append((node.target.id, node.lineno))
        if isinstance(node, ast.ClassDef):
            defined += [
                (f"{node.name}.{item.name}", item.lineno)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not item.name.startswith("__")
            ]
    return defined


# Names no line of src/cogloop mentions that stay on purpose, each with its reason.
KEPT_UNMENTIONED = {
    "cognition.py CognitionInput.to_request":
        "the request form the input digest covers; test_input_digest_equals_digest_of_request "
        "checks the digest against it",
    "trace.py EpisodeTrace.snapshot_before":
        "perfbench times it as its trace.snapshot_before layer, until that benchmark "
        "revision drops the layer",
}


DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> list[str]:
    """The module's lines with comments and docstrings blanked out."""
    lines = text.splitlines()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT:
            row, col = token.start
            lines[row - 1] = lines[row - 1][:col]
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node) is not None:
            docstring = node.body[0]
            for row in range(docstring.lineno, docstring.end_lineno + 1):
                lines[row - 1] = ""
    return lines


def test_every_module_level_name_is_mentioned_elsewhere():
    """Prose does not keep a name alive: comments and docstrings are not searched.

    A method or property counts as mentioned when its own name is, on any other line.
    """
    lines = [
        (name, number, line)
        for name, text in MODULES.items()
        if name != "__init__.py"
        for number, line in enumerate(code_lines(text), start=1)
    ]
    dead = []
    for module, text in MODULES.items():
        if module == "__init__.py":
            continue
        for name, defined_at in module_level_names(ast.parse(text)):
            pattern = re.compile(rf"\b{re.escape(name.rpartition('.')[2])}\b")
            mentioned = any(
                pattern.search(line)
                for other, number, line in lines
                if (other, number) != (module, defined_at)
            )
            if not mentioned:
                dead.append(f"{module} {name}")
    assert sorted(dead) == sorted(KEPT_UNMENTIONED)


def test_every_top_level_name_is_read():
    """A top-level function, class or variable is read by its own module, imported by name
    into another, or read in another as ``module.name``. Unlike the word search above, a
    definition of the same name in another module does not count."""
    read = set()
    for module, text in MODULES.items():
        tree = ast.parse(text)
        read |= {(module, name) for name in used_names(tree)}
        siblings = {}  # alias -> module, from ``from . import module``
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module:
                        read.add((f"{node.module}.py", alias.name))
                    else:
                        siblings[alias.asname or alias.name] = f"{alias.name}.py"
        read |= {
            (siblings[node.value.id], node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in siblings
        }
    unread = [
        f"{module} {name}"
        for module, text in MODULES.items()
        if module != "__init__.py"
        for name, _ in module_level_names(ast.parse(text))
        if "." not in name and (module, name) not in read
    ]
    assert unread == []


def private_reaches(tree: ast.Module) -> list[str]:
    """``from .x import _y``, and ``name._y`` where ``name`` came from a sibling module."""
    found, siblings = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{node.lineno} import {alias.name}")
                siblings.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            found.append(f"{node.lineno} {node.value.id}.{node.attr}")
    return found


def test_no_module_reaches_into_another_modules_private_names():
    """A private name is one module's own business; a second user means it wants a public one."""
    reaches = [
        f"{module}:{reach}"
        for module, text in MODULES.items()
        for reach in private_reaches(ast.parse(text))
    ]
    assert reaches == []


def cogloop_names(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) of every ``cog.<module>.<name>`` and ``from cogloop.<module> import``."""
    found = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                and "cog" in (getattr(node.value.value, "id", None),
                              getattr(node.value.value, "attr", None))):
            found.add((f"cogloop.{node.value.attr}", node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cogloop."):
            found |= {(node.module, alias.name) for alias in node.names}
    return found


def test_perfbench_hooks_resolve():
    """The traced benchmark wraps ``layers.TARGETS``; it and its tests bind cogloop names.

    Neither runs in this suite, so a removed or renamed target would only show
    when the benchmark runs. A class target must sit in the class's own
    ``__dict__``, where the span recorder replaces it.
    """
    missing = []
    layers = ast.parse((PERFBENCH / "layers.py").read_text(encoding="utf-8"))
    targets = [
        tuple(arg.value for arg in node.args[1:3])
        for node in ast.walk(layers)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Target"
    ]
    assert len(targets) > 10
    for owner, attr in targets:
        module, _, cls = owner.partition(":")
        obj = importlib.import_module(module)
        if cls:
            obj = getattr(obj, cls, None)
            present = obj is not None and attr in vars(obj)
        else:
            present = hasattr(obj, attr)
        if not present:
            missing.append(f"layers.py Target {owner} {attr}")
    for path in sorted(PERFBENCH.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for module, name in sorted(cogloop_names(tree)):
            if not hasattr(importlib.import_module(module), name):
                missing.append(f"{path.relative_to(PERFBENCH)} {module}.{name}")
    assert missing == []


def test_only_goals_and_control_evaluate_conditions():
    """``GoalSpec.triggered`` decides what the goal calls for, and control checks each
    condition itself; any other caller of ``evidence.evaluate_all`` is a copy of that walk."""
    callers = {
        module
        for module, text in MODULES.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Call)
        and "evaluate_all" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
    }
    assert callers <= {"goals.py", "control.py"}


def test_only_cognition_parses_fact_lines():
    """The proposer reads memory through ``cognition``'s parse of its fact lines; another
    module that parses them is a private copy of that read, which can drift from it."""
    readers = {
        module
        for module, text in MODULES.items()
        for node in ast.walk(ast.parse(text))
        if "parse_fact_line" in (getattr(node, "id", None), getattr(node, "attr", None),
                                 getattr(node, "name", None))
    }
    assert readers == {"cognition.py"}


def test_no_module_reads_or_writes_an_instance_dict():
    """No module touches an object's ``__dict__`` or calls ``vars()`` on one. On CPython 3.11
    an instance keeps its attribute values inline until its ``__dict__`` is asked for, and
    then holds a dict of its own for good: a deferred input digest first stored by writing
    each record's ``__dict__`` made perfbench's ``audit_replay`` 9.0% slower (0 of 8 pairs
    faster; a shared 2-vCPU VM) and its ``setup_s`` 7.8% longer. `util.Deferred` stores
    through ``object.__setattr__``."""
    found = [
        f"{module}:{node.lineno}"
        for module, text in MODULES.items()
        for node in ast.walk(ast.parse(text))
        if (isinstance(node, ast.Attribute) and node.attr == "__dict__")
        or (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "vars")
    ]
    assert found == []


def test_only_util_writes_compact_json():
    """``util.canonical_json`` is the one home of compact sorted JSON: a second writer
    with the same separators could drift from it in the bytes a digest covers."""
    writers = [
        f"{module}:{node.lineno}"
        for module, text in MODULES.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.keyword) and node.arg == "separators"
        and isinstance(node.value, ast.Tuple)
        and [getattr(item, "value", None) for item in node.value.elts] == [",", ":"]
    ]
    assert len(writers) == 1 and writers[0].startswith("util.py:"), writers


def calls_by_function(tree: ast.Module, names: set[str]) -> set[tuple[str, str]]:
    """(called name, qualified name of the enclosing function) of every call of ``names``."""
    found = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Call):
                called = getattr(child.func, "id", None) or getattr(child.func, "attr", None)
                if called in names:
                    found.add((called, scope))
            visit(child, inner)

    visit(tree, "")
    return found


def test_each_value_rule_is_judged_by_the_object_that_holds_the_value():
    """``check_context`` and ``check_max_cycles`` run in the ``validate`` of the scenario or
    config that holds the value (and the context model checks what it is given), so no
    loader or CLI keeps a second copy of a rule that could drift from the first."""
    callers = {
        (name, f"{module}:{scope}")
        for module, text in MODULES.items()
        for name, scope in calls_by_function(
            ast.parse(text), {"check_context", "check_max_cycles"}
        )
    }
    assert callers == {
        ("check_context", "scenario.py:Scenario.validate"),
        ("check_context", "baseline.py:ContextModel.__init__"),
        ("check_max_cycles", "scenario.py:Scenario.validate"),
        ("check_max_cycles", "loop.py:EpisodeConfig.validate"),
    }


def caches(module: str, tree: ast.Module) -> list[str]:
    """``<module>.<name>`` of each function the module wraps in an ``lru_cache`` (or ``cache``),
    and of each module-level memo: a container bound at top level that the module's code fills,
    by item assignment or deletion or a method that adds."""
    stem, found, containers = module.removesuffix(".py"), [], set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                if (getattr(target, "id", None) or getattr(target, "attr", None)) in (
                    "lru_cache", "cache"
                ):
                    found.append(f"{stem}.{node.name}")
        value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
        if isinstance(value, (ast.Dict, ast.List, ast.Set)) or (
            isinstance(value, ast.Call) and getattr(value.func, "id", None) in (
                "dict", "list", "set", "OrderedDict", "defaultdict"
            )
        ):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            containers |= {target.id for target in targets if isinstance(target, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
                and getattr(node.value, "id", None) in containers):
            found.append(f"{stem}.{node.value.id}")
        elif (isinstance(node, ast.Attribute)
              and getattr(node.value, "id", None) in containers
              and node.attr in ("setdefault", "update", "append", "add", "insert", "extend")):
            found.append(f"{stem}.{node.value.id}")
    return found


def test_every_cache_has_a_bypass_in_the_reference_run():
    """``tests/reference.py``'s ``cache_free`` bypasses every cache it names, and
    ``test_reference.py`` requires that run's bytes to equal a cached run's: so every cache
    must be named there, or that oracle would not cover it."""
    found = {name for module, text in MODULES.items() for name in caches(module, ast.parse(text))}
    assert {"cognition.parse_fact_line", "cognition._PLANS"} <= found
    assert sorted(found - set(CACHES)) == []


def test_perfbench_own_tests_pass():
    """The benchmark's tests drive stored traces, chains and metrics through cogloop.

    They run in a process of their own: their ``conftest.py`` would shadow this suite's.
    """
    root = TESTS.parent
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-4000:]
