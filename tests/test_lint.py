"""Static checks on the package source, parsed with ``ast``.

Core claims:
    - no module of ``src/epsarb`` imports a name at module level that it
      never uses (``__init__`` is exempt: its imports are the public API)
    - every private module-level name (``_name``) is referenced somewhere in
      the package, so dead helpers do not linger
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "epsarb"
MODULES = {path.stem: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(SRC.glob("*.py"))}


def _loaded_names(tree) -> set:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_unused_module_level_imports():
    unused = []
    for module, tree in MODULES.items():
        if module == "__init__":
            continue
        used = _loaded_names(tree)
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{module}: {bound}")
    assert not unused, unused


def test_every_private_name_is_referenced():
    referenced = set()
    for tree in MODULES.values():
        referenced |= _loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    dead = []
    for module, tree in MODULES.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, ast.Assign):
                names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                names = [stmt.target.id]
            else:
                continue
            dead += [f"{module}: {name}" for name in names
                     if _private(name) and name not in referenced]
    assert not dead, dead
