"""Every module-level import in the funkinv package is used, imports inside
functions are kept for import cycles, every name a module lists in
``__all__`` exists and is read somewhere in the package or the benchmark
(or is kept on purpose as user API), the package exports no submodule, and
every module-level private name is read somewhere in the package.

A name counts as used when the module reads it or exports it through
``__all__``; an import kept only so that other code can reach it through the
module is marked ``# noqa: F401`` on its line.  A relative import inside a
function must say on its line why it is there (for example ``# import
cycle``); otherwise it belongs at the top of the module.
"""

import ast
import importlib
import importlib.util
import types
from pathlib import Path

import funkinv

PACKAGE = Path(funkinv.__file__).resolve().parent
BENCH = PACKAGE.parents[1] / "perfbench"


def _all_assignment(tree: ast.Module):
    """The module-level ``__all__ = ...`` statement, or None."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in stmt.targets
        ):
            return stmt
    return None


def _exported(tree: ast.Module, module: str) -> set:
    stmt = _all_assignment(tree)
    if stmt is None:
        return set()
    try:
        return set(ast.literal_eval(stmt.value))
    except ValueError:  # computed at import, as the package namespace is
        return set(importlib.import_module(module).__all__)


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


def test_package_exports_no_module():
    assert [name for name in funkinv.__all__
            if isinstance(getattr(funkinv, name), types.ModuleType)] == []


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


def _read_names(tree: ast.AST) -> set:
    """Names the code reads: as a name, as an attribute, or in a ``from``
    import."""
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute):
            loaded.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            loaded.update(alias.name for alias in node.names)
    return loaded


def unloaded_private_names(paths) -> list:
    """Module-level private names that no file in ``paths`` reads: as a name,
    as an attribute, or in a ``from`` import."""
    trees = {path: ast.parse(path.read_text()) for path in paths}
    loaded = set().union(*map(_read_names, trees.values()))
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


# Public names that nothing in the package or the benchmark calls, kept on
# purpose.  A name leaves this table when a caller appears.
KEPT_API = {
    "even_project": "parity projection of grid samples, for callers outside the package",
    "remove_mean": "mean-zero part of grid samples, for callers outside the package",
    "constant_function": "constant samples on a grid, for callers outside the package",
    "cosine_k_function": "the codimension-k cosine transform, beside funk_k_function",
    "invert_cosine1_k": "the codimension-k 1-cosine inversion (4.14) as a library call",
    "funk_hecke_multiplier_quadrature": "the reference the closed-form multipliers are tested against",
}


def _all_entries(tree: ast.Module):
    """(name, line) of each string in a literal module-level ``__all__``."""
    stmt = _all_assignment(tree)
    if stmt is not None and isinstance(stmt.value, (ast.List, ast.Tuple)):
        for elt in stmt.value.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                yield elt.value, elt.lineno


def unused_public_names(paths, bench_paths, kept=()) -> list:
    """Names listed in a module's ``__all__`` that no module in ``paths`` and
    no file in ``bench_paths`` reads, apart from those in ``kept``.

    The package ``__init__.py`` only re-exports, so its imports are not
    reads.  The benchmark names the functions it traces as strings
    (``"HarmonicSpectrum.evaluate"``), so each dotted part of a string in a
    benchmark file is a read too.
    """
    trees = {path: ast.parse(path.read_text()) for path in paths}
    loaded = set().union(*(_read_names(tree) for path, tree in trees.items()
                           if path.name != "__init__.py"))
    for path in bench_paths:
        tree = ast.parse(path.read_text())
        loaded |= _read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                loaded.update(node.value.split("."))
    loaded |= set(kept)
    return [f"{path.name}:{lineno}: {name}" for path, tree in trees.items()
            for name, lineno in _all_entries(tree) if name not in loaded]


def test_unused_public_names():
    paths, bench = sorted(PACKAGE.glob("*.py")), sorted(BENCH.glob("*.py"))
    assert unused_public_names(paths, bench, KEPT_API) == []
    # every kept name is still unused: one that gained a caller leaves KEPT_API
    unused = [entry.rsplit(" ", 1)[1] for entry in unused_public_names(paths, bench)]
    assert sorted(unused) == sorted(KEPT_API)


def test_unused_public_name_is_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "__all__ = ['used', 'traced', 'method_owner', 'kept',\n"
        "           'gone', 'reexported']\n"
        "def used():\n    pass\n"
        "def traced():\n    pass\n"
        "class method_owner:\n    pass\n"
        "def kept():\n    pass\n"
        "def gone():\n    pass\n"
        "def reexported():\n    pass\n"
    )
    (tmp_path / "b.py").write_text("from .a import used\n__all__ = ['helper']\n"
                                   "def helper():\n    return used()\n")
    (tmp_path / "__init__.py").write_text("from .a import reexported\n")
    (tmp_path / "bench.py").write_text(
        "HOOKS = (('layer', 'pkg.a', 'traced'), ('layer', 'pkg.a', 'method_owner.m'))\n"
        "import pkg.b\npkg.b.helper()\n"
    )
    paths = [tmp_path / name for name in ("a.py", "b.py", "__init__.py")]
    found = unused_public_names(paths, [tmp_path / "bench.py"], kept={"kept": "probe"})
    assert found == ["a.py:2: gone", "a.py:2: reexported"]
