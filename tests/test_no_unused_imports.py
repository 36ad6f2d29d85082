"""Every imported name is read by its module: an import that nothing reads
is left over from deleted code.  Scans the library (but not the package's
__init__.py, whose imports are its interface) and the tests."""

import ast
import pathlib

import hasseforge


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # import a.b binds a
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return ["%s:%d %s" % (path.name, line, name)
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read]


def test_every_import_is_read():
    pkg = pathlib.Path(hasseforge.__file__).parent
    tests = pathlib.Path(__file__).parent
    paths = [p for p in sorted(pkg.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(tests.glob("*.py"))
    found = [hit for path in paths for hit in _unused_imports(path)]
    assert found == []
