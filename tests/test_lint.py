"""Static checks on the package source, parsed with ``ast``.

Core claims:
    - no module of ``src/epsarb`` imports a name at module level that it
      never uses (``__init__`` is exempt: its imports are the public API)
    - every private module-level name (``_name``) is referenced somewhere in
      the package, so dead helpers do not linger
    - no module imports scipy: ``solvers._scipy_extension`` loads the two
      compiled modules the solvers call
    - LPs have one entry point: only ``solvers.solve_lp`` refers to the
      HiGHS solver class ``_Highs``, and no module defines ``linprog``
    - every defaulted tolerance, cap, threshold or budget of a public
      function is passed by some call in the package, the tests or the
      demos: a setting that nothing sets is a constant at its use
    - the upper layers load on first use: at module level ``__init__``
      imports only ``market`` and ``solvers``, ``cli`` only ``io`` and
      ``market``, and ``transport`` neither ``arbitrage`` nor ``pricing``
    - the choice between the LP and the conic route lives in ``programs``:
      ``pricing`` imports nothing from ``solvers`` and names none of
      ``tree_ops``, ``strategy_from_packed`` and ``_l1_slack_rows``
    - what a model keeps is written by one helper, ``programs._kept``: no
      other function names ``__dict__`` or calls ``setattr`` or ``vars``,
      and ``__setattr__`` is called only on ``self`` in a ``__post_init__``
      (``market.MarketModel`` building itself, other frozen classes their
      own fields)
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "epsarb"
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


def _scipy_imports(tree, scope=None):
    """(enclosing function or None, import statement) for every import of
    scipy or a scipy submodule in ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] if node.level == 0 else []
        else:
            inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
            yield from _scipy_imports(node, inner)
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            yield scope, node


def test_scipy_enters_only_through_the_extension_loader():
    found = {(module, scope): node.lineno for module, tree in MODULES.items()
             for scope, node in _scipy_imports(tree)}
    assert not found, found


def _functions(tree):
    """Every function defined in ``tree``, nested ones included."""
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def test_one_lp_entry_point():
    highs = {(module, fn.name) for module, tree in MODULES.items() for fn in _functions(tree)
             if any(isinstance(node, ast.Attribute) and node.attr == "_Highs"
                    or isinstance(node, ast.Name) and node.id == "_Highs"
                    for node in ast.walk(fn))}
    assert highs == {("solvers", "solve_lp")}, highs
    linprog = [module for module, tree in MODULES.items()
               for fn in _functions(tree) if fn.name == "linprog"]
    assert not linprog, linprog


# Parameter-name endings of the settings the next check covers.
SETTING_SUFFIXES = ("tol", "_cap", "threshold", "decimals", "polish", "max_iter", "band")


def _public_functions(tree):
    """(name, offset, function node) for every public module-level function
    and public method of a public class; ``offset`` is 1 where a call
    binds the first parameter itself (a method not marked static)."""
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
            yield stmt.name, 0, stmt
        elif isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
            for item in stmt.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    static = any(isinstance(dec, ast.Name) and dec.id == "staticmethod"
                                 for dec in item.decorator_list)
                    yield item.name, 0 if static else 1, item


def _defaulted_settings(fn, offset):
    """(parameter name, position in a call or None) of each defaulted
    parameter of ``fn`` whose name ends in one of SETTING_SUFFIXES."""
    args = fn.args
    positional = args.posonlyargs + args.args
    defaulted = [(a.arg, i - offset) for i, a in enumerate(positional)
                 if i >= len(positional) - len(args.defaults)]
    defaulted += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]
    return [(name, pos) for name, pos in defaulted if name.endswith(SETTING_SUFFIXES)]


def _calls_by_name():
    """Every call in the package, the tests and the demos, keyed by the
    name of the function called (``f(...)`` and ``x.f(...)`` alike)."""
    files = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")) \
        + sorted((ROOT / "demos").glob("*.py"))
    calls: dict = {}
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call, param: str, pos) -> bool:
    """Whether ``call`` passes ``param`` by keyword or at position ``pos``."""
    if any(kw.arg == param for kw in call.keywords):
        return True
    return (pos is not None and len(call.args) > pos
            and not any(isinstance(arg, ast.Starred) for arg in call.args[:pos + 1]))


def test_every_public_setting_is_set_by_some_caller():
    calls = _calls_by_name()
    unset = []
    for module, tree in MODULES.items():
        for name, offset, fn in _public_functions(tree):
            for param, pos in _defaulted_settings(fn, offset):
                if not any(_passes(call, param, pos) for call in calls.get(name, [])):
                    unset.append(f"{module}.{name}({param})")
    assert not unset, unset


def _module_level(tree):
    """Every node of ``tree`` that runs on import: function bodies are skipped."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _package_imports(tree) -> set:
    """The epsarb modules that ``tree`` imports at module level; a name
    imported from the package itself counts as ``__init__``."""
    found = set()
    for node in _module_level(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("epsarb.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "epsarb":
                    continue
                module = module.partition(".")[2]
            if module:
                found.add(module.split(".")[0])
            else:  # from . import name
                found |= {alias.name if alias.name in MODULES else "__init__"
                          for alias in node.names}
    return found


def test_upper_layers_load_on_first_use():
    imports = {module: _package_imports(tree) for module, tree in MODULES.items()}
    assert imports["__init__"] <= {"market", "solvers"}, imports["__init__"]
    assert imports["cli"] <= {"io", "market"}, imports["cli"]
    assert not imports["transport"] & {"arbitrage", "pricing"}, imports["transport"]


def test_pricing_leaves_the_routes_to_programs():
    tree = MODULES["pricing"]
    nodes = list(ast.walk(tree))
    modules = {node.module or "" for node in nodes if isinstance(node, ast.ImportFrom)}
    modules |= {alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names}
    names = _loaded_names(tree) | {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in nodes if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert not [m for m in modules if m.split(".")[-1] == "solvers"], modules
    assert not names & {"solvers", "tree_ops", "strategy_from_packed", "_l1_slack_rows"}


def _scoped(tree, scope=None):
    """(innermost enclosing function name or None, node) for every node."""
    for node in ast.iter_child_nodes(tree):
        yield scope, node
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        yield from _scoped(node, inner)


def test_only_the_keeper_writes_a_model():
    keeper = ("programs", "_kept")
    found = []
    for module, tree in MODULES.items():
        for scope, node in _scoped(tree):
            if (module, scope) == keeper:
                continue
            if isinstance(node, ast.Attribute) and node.attr == "__dict__":
                found.append(f"{module}.{scope}:{node.lineno} __dict__")
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id in ("setattr", "vars"):
                    found.append(f"{module}.{scope}:{node.lineno} {func.id}")
                elif isinstance(func, ast.Attribute) and func.attr == "__setattr__" and not (
                        scope == "__post_init__" and node.args
                        and isinstance(node.args[0], ast.Name) and node.args[0].id == "self"):
                    found.append(f"{module}.{scope}:{node.lineno} __setattr__")
    assert not found, found
