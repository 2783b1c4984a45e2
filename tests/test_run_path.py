"""Every `def` in src/ is entered by some command: src/ holds no code that only the tests reach."""

import ast
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "portcall"

# The defs no command enters, kept because perfbench's tracer looks them up, each with what it does with them.
TRACER_ONLY = {
    "cli.validated_to_dict": "the tracer wraps it as dict.validated_to_dict",
    "cli.validated_from_dict": "the tracer wraps it as dict.validated_from_dict",
    "geo.PortGeometry.anchorage_at": "the tracer wraps it as geo.PortGeometry.anchorage_at",
    "codec.MessageDecoder.counts": "the tracer reads each decoder's counts into its codec.* metrics",
    "table.Table.__iter__": "the tracer iterates the validated table for validate.knn_decided",
    "columnar.Validated.row": "the tracer's validate.knn_decided builds a ValidatedMessage per row",
    "codec.Positions.row": "the tracer's validate.knn_decided builds each ValidatedMessage's PositionReport",
    "jsonl.message_to_dict": "the tracer wraps it as dict.message_to_dict in cli and ingest; cli.validated_to_dict "
                             "calls it",
    "jsonl.message_from_dict": "the tracer wraps it as dict.message_from_dict in cli; cli.validated_from_dict "
                               "calls it",
}


def defs(path: pathlib.Path) -> dict[int, str]:
    """The qualified name, `module.Class.def`, of each def in a module, by the first line of its code object: the
    line of its first decorator, if it has one."""
    found = {}

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    found[min([child.lineno] + [d.lineno for d in child.decorator_list])] = name
                visit(child, name)
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_defs_are_named_by_their_first_line(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("class A:\n    @property\n    @staticmethod\n    def f(self):\n"
                      "        def g():\n            pass\n\nif True:\n    def h():\n        pass\n")
    assert defs(module) == {2: "m.A.f", 5: "m.A.f.g", 9: "m.h"}


def unentered(src: pathlib.Path, work: pathlib.Path) -> list[str]:
    """The defs of the package under `src` that no command enters, by trace_commands.py in a fresh process."""
    out = work / "entered.json"
    proc = subprocess.run([sys.executable, str(ROOT / "tests" / "trace_commands.py"), str(work), str(out)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src.parent)})
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    entered = {(pathlib.Path(f).resolve(), line) for f, line in json.loads(out.read_text())}
    return sorted(name for path in src.glob("*.py") for line, name in defs(path.resolve()).items()
                  if (path.resolve(), line) not in entered)


def test_every_def_in_src_runs_under_some_command(tmp_path):
    names = unentered(SRC, tmp_path)
    assert [name for name in names if name not in TRACER_ONLY] == []
    assert [name for name in TRACER_ONLY if name not in names] == [], "entered by a command: drop it from TRACER_ONLY"

