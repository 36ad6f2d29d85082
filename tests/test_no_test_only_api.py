"""Every function, method and class defined in the library is read by name
in the library or in the benchmark (perfbench/): a definition that only
tests read is test code, and belongs beside the tests that read it (the
R-level reference in tests/oracle.py, say).  Dunders are exempt, since the
language reads them.

The check goes by name, so a member that shares its name with a used one
(apply, elements and add once did) escapes it; a line trace of every CLI
subcommand is the check for those."""

import ast
import pathlib

import hasseforge

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _defined(tree):
    """(line, name) of every function, method and class but the dunders."""
    return sorted((node.lineno, node.name) for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and not (node.name.startswith("__") and node.name.endswith("__")))


def _read(tree):
    """Names loaded as a bare name or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_library_definition_is_read_outside_the_tests():
    lib = sorted(pathlib.Path(hasseforge.__file__).parent.glob("*.py"))
    trees = {path: _tree(path) for path in lib + sorted(PERFBENCH.glob("*.py"))}
    read = set().union(*map(_read, trees.values()))
    unread = ["%s:%d %s" % (path.name, line, name)
              for path in lib for line, name in _defined(trees[path]) if name not in read]
    assert unread == []
