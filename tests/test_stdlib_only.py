"""The runtime imports nothing outside the standard library and antsim."""

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
