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


def private_imports(source: str) -> list[str]:
    """`line: name` for each `_`-prefixed name the module takes from another module.

    That is a `from m import _name`, or `m._name` where `m` is a module the
    source imports. Dunder names such as `__version__` are public.
    """
    tree = ast.parse(source)

    def private(name: str) -> bool:
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    found: list[tuple[int, str]] = []
    modules: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names if private(alias.name)]
            if node.module is None:  # `from . import m` binds modules
                modules.update(alias.asname or alias.name for alias in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
                and private(node.attr)):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_private_imports_are_found():
    source = ("import os\nfrom . import geo, __version__\nfrom .validate import Outage, _cell\n"
              "os._exit(geo._project(1) + geo.project(2) + __version__)\nself._cache = Outage._fields\n")
    assert private_imports(source) == ["3: _cell", "4: geo._project", "4: os._exit"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_src_takes_no_private_name_from_another_module(module):
    assert private_imports((SRC / module).read_text(encoding="utf-8")) == []
