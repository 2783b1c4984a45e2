"""Static checks over the package source."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "portcall"


def unused_imports(source: str) -> list[str]:
    """`line: name` for each name an import binds that the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1]) if name not in read]


def test_unused_imports_are_found():
    source = "import os.path\nfrom typing import Iterable as It, Mapping\nimport sys\nsys.exit(Mapping)\n"
    assert unused_imports(source) == ["1: os", "2: It"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_src_imports_are_used(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []
