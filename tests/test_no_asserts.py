"""The library checks with typed errors, never with assert: python -O strips
assert statements, and the checks go with them."""

import ast
import pathlib

import hasseforge


def test_library_has_no_assert_statements():
    pkg = pathlib.Path(hasseforge.__file__).parent
    found = []
    for path in sorted(pkg.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
