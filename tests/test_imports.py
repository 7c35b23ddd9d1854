"""Every module-level import in the funkinv package is used, imports inside
functions are kept for import cycles, every name a module lists in
``__all__`` exists, and every module-level private name is read somewhere in
the package.

A name counts as used when the module reads it or exports it through
``__all__``; an import kept only so that other code can reach it through the
module is marked ``# noqa: F401`` on its line.  A relative import inside a
function must say on its line why it is there (for example ``# import
cycle``); otherwise it belongs at the top of the module.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import funkinv

PACKAGE = Path(funkinv.__file__).resolve().parent


def _exported(tree: ast.Module, module: str) -> set:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in stmt.targets
        ):
            try:
                return set(ast.literal_eval(stmt.value))
            except ValueError:  # computed at import, as the package namespace is
                return set(importlib.import_module(module).__all__)
    return set()


def unused_imports(path: Path, module: str) -> list:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree, module)
    unused = []
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        for alias in stmt.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"{path.name}:{alias.lineno}: {name}")
    return unused


def test_no_unused_module_level_imports():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = "funkinv" if path.stem == "__init__" else f"funkinv.{path.stem}"
        found += unused_imports(path, module)
    assert found == []


def test_unused_import_is_found(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "import math\nimport os  # noqa: F401\nfrom json import dumps, loads\n"
        "__all__ = ['dumps']\n"
    )
    assert unused_imports(path, "probe") == ["probe.py:1: math", "probe.py:3: loads"]


def unresolved_exports(module) -> list:
    """Names listed in ``module.__all__`` that the module does not bind."""
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


def test_every_exported_name_resolves():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__main__":  # importing it runs the CLI
            continue
        module = "funkinv" if path.stem == "__init__" else f"funkinv.{path.stem}"
        found += [f"{module}.{name}" for name in unresolved_exports(importlib.import_module(module))]
    assert found == []


def test_stale_export_is_found(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("from json import dumps\n__all__ = ['dumps', 'gone', 'loads']\n")
    spec = importlib.util.spec_from_file_location("probe", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert unresolved_exports(module) == ["gone", "loads"]


def function_level_relative_imports(path: Path) -> list:
    """Relative imports inside functions whose line carries no comment."""
    source = path.read_text()
    lines = source.splitlines()
    found = set()  # a nested function is walked again inside its parent
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.ImportFrom) and node.level:
                if "#" not in lines[node.lineno - 1]:
                    found.add(node.lineno)
    return [f"{path.name}:{lineno}" for lineno in sorted(found)]


def test_no_unexplained_function_level_imports():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += function_level_relative_imports(path)
    assert found == []


def test_function_level_import_is_found(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "from . import a\n"
        "def f():\n    from .b import c\n    from .d import e  # import cycle\n"
        "    def g():\n        from .h import i\n"
        "class K:\n    def m(self):\n        import os\n        from ..p import q\n"
    )
    assert function_level_relative_imports(path) == ["probe.py:3", "probe.py:6", "probe.py:10"]


def _private_definitions(tree: ast.Module):
    """(name, line) of each module-level def, class or assignment whose name
    has one leading underscore (dunders such as ``__all__`` are not private)."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [(stmt.name, stmt.lineno)]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            nodes = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            targets = [(node.id, node.lineno) for node in nodes if isinstance(node, ast.Name)]
        else:
            continue
        for name, lineno in targets:
            if name.startswith("_") and not name.endswith("__"):
                yield name, lineno


def unloaded_private_names(paths) -> list:
    """Module-level private names that no file in ``paths`` reads: as a name,
    as an attribute, or in a ``from`` import."""
    trees = {path: ast.parse(path.read_text()) for path in paths}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                loaded.update(alias.name for alias in node.names)
    return [f"{path.name}:{lineno}: {name}" for path, tree in trees.items()
            for name, lineno in _private_definitions(tree) if name not in loaded]


def test_no_unloaded_private_names():
    assert unloaded_private_names(sorted(PACKAGE.glob("*.py"))) == []


def test_unloaded_private_name_is_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "_USED = 1\n_GONE: int = 2\n__all__ = []\n"
        "def _called():\n    return _USED\n"
        "def _dead():\n    pass\n"
        "class _Old:\n    pass\n"
        "_imported = _attr = 0\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import _imported\nfrom . import a\na._attr\na._called()\n"
    )
    found = unloaded_private_names([tmp_path / "a.py", tmp_path / "b.py"])
    assert found == ["a.py:2: _GONE", "a.py:6: _dead", "a.py:8: _Old"]
