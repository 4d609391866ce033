"""Rules on the runtime source: it imports nothing outside the standard
library and antsim, and it sums floats only by explicit left folds."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "antsim"


def test_runtime_imports_only_stdlib_and_antsim():
    files = sorted(SRC.rglob("*.py"))
    assert files
    foreign = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "antsim" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.relative_to(SRC)}: {name}")
    assert foreign == []


def test_runtime_never_calls_builtin_sum():
    # From CPython 3.12, builtin sum() over floats is compensated, so a total
    # it gives may differ from the left-to-right fold the outputs were
    # recorded with; sums in src/ are written as explicit left folds from 0.0
    uses = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and node.id == "sum":
                uses.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert uses == []
