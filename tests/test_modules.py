from __future__ import annotations

import ast
import importlib
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Iterator

import choreo

SOURCES = sorted(Path(choreo.__file__).parent.glob("*.py"))
BENCHMARK = sorted((Path(__file__).parent.parent / "perfbench").glob("*.py"))


def test_no_module_imports_another_modules_private_names() -> None:
    offences = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offences += [
                    f"{path.name}:{node.lineno}: {alias.name} from .{node.module or ''}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert len(SOURCES) > 1
    assert offences == []


def _names_used(tree: ast.AST) -> Iterator[str]:
    """Every name a tree refers to: identifiers, attributes, imported names,
    and strings, as perfbench/tracer.py names the functions it wraps."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_package_definition_has_a_caller_outside_the_tests() -> None:
    # the package ships the checker, not its test scaffolding: each top-level
    # function and class is named in src/choreo or perfbench/ somewhere other
    # than in its own definition; cli.main is the console entry point that
    # pyproject.toml names
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SOURCES + BENCHMARK}
    uses = Counter(name for tree in trees.values() for name in _names_used(tree))
    unused = [
        f"{path.stem}.{node.name}"
        for path in SOURCES
        for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and uses[node.name] == Counter(_names_used(node))[node.name]
        and f"{path.stem}.{node.name}" != "cli.main"
    ]
    assert len(BENCHMARK) > 1
    assert unused == []


def test_every_function_the_benchmark_tracer_wraps_exists() -> None:
    # perfbench/tracer.py wraps (module, function name) pairs by name; read
    # them from its source, without importing it
    tracer = Path(__file__).parent.parent / "perfbench" / "tracer.py"
    tree = ast.parse(tracer.read_text(), str(tracer))
    targets = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    )
    missing = []
    for entry in targets.elts:
        module, function = entry.elts[0].id, entry.elts[1].value
        if not callable(getattr(importlib.import_module(f"choreo.{module}"), function, None)):
            missing.append(f"{module}.{function}")
    assert len(targets.elts) > 1
    assert missing == []


def test_benchmark_quick_run_is_correct() -> None:
    # a change that breaks a name or shape the benchmark relies on shows up
    # here, not only when the benchmark is next run; it writes only under the
    # git-ignored perfbench/out/
    root = Path(__file__).parent.parent
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--quick"],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
