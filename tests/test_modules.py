from __future__ import annotations

import ast
from pathlib import Path

import choreo

SOURCES = sorted(Path(choreo.__file__).parent.glob("*.py"))


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
