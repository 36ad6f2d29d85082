"""The exact layers never sample: every identity is decided by exact
equality, so only the front end (seeds for generate and survey) may
import random."""

import ast
import pathlib

import hasseforge

ALLOWED = {"cli.py"}


def test_only_cli_imports_random():
    pkg = pathlib.Path(hasseforge.__file__).parent
    found = []
    for path in sorted(pkg.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if "random" in [n.split(".")[0] for n in names] and path.name not in ALLOWED:
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []
