"""The flow kernel stays inside ``connectivity``, and no module strips loops.

``_FlowNet`` is built by two functions only: ``is_k_strong``, which decides
k-strong connectivity, and ``_path_systems``, which reads every disjoint
path system.  Every other module asks them.  Only ``_path_systems`` runs
the flow unseeded, so the paths it reads, and the certificate path lines
built from them, come from shortest augmenting paths alone.  Every
connectivity function ignores loops, so no module makes a loop-free copy
before calling one.  The neighbourhood bitmasks (``_rows``) and the reach
over them (``_reach``) are defined once, in ``connectivity``: strong
components, the flow kernel's masks and the exhaustive sweep in
``search`` share them.
The sources are read with ``ast``, so the check sees names, not behaviour.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "extendix"
FLOW_BUILDERS = {"is_k_strong", "_path_systems"}


def _modules() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _names(node: ast.AST) -> set[str]:
    """Every identifier a module names: names, attributes, imports, classes
    and functions."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
        elif isinstance(sub, (ast.ClassDef, ast.FunctionDef)):
            found.add(sub.name)
    return found


def _calls(node: ast.AST, enclosing: str = "") -> list[tuple[str, ast.Call]]:
    """(innermost enclosing function name, call) for every call under node."""
    out = []
    for child in ast.iter_child_nodes(node):
        name = child.name if isinstance(child, ast.FunctionDef) else enclosing
        if isinstance(child, ast.Call):
            out.append((enclosing, child))
        out += _calls(child, name)
    return out


def _callee(call: ast.Call) -> str:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def test_flow_net_is_named_in_connectivity_only():
    modules = _modules()
    assert "connectivity.py" in modules
    naming = sorted(name for name, tree in modules.items() if "_FlowNet" in _names(tree))
    assert naming == ["connectivity.py"]


def test_flow_net_is_built_by_two_functions_only():
    builders = {enclosing for enclosing, call in _calls(_modules()["connectivity.py"])
                if _callee(call) == "_FlowNet"}
    assert builders == FLOW_BUILDERS


def test_only_path_systems_runs_the_flow_unseeded():
    unseeded = sorted((module, enclosing) for module, tree in _modules().items()
                      for enclosing, call in _calls(tree)
                      if _callee(call) == "flow"
                      and any(kw.arg == "seeded" for kw in call.keywords))
    assert unseeded == [("connectivity.py", "_path_systems")]


def test_no_module_strips_loops():
    strippers = sorted(name for name, tree in _modules().items()
                       for _, call in _calls(tree)
                       if isinstance(call.func, ast.Attribute)
                       and call.func.attr == "loop_free")
    assert strippers == []


def _defined(tree: ast.Module) -> list[str]:
    return [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]


def test_rows_and_reach_are_defined_once_in_connectivity():
    modules = _modules()
    for helper in ("_rows", "_reach"):
        defining = sorted((name, fn) for name, tree in modules.items()
                          for fn in _defined(tree) if fn == helper)
        assert defining == [("connectivity.py", helper)]


def test_search_imports_the_one_reach():
    tree = _modules()["search.py"]
    imported = {(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert ("connectivity", "_reach") in imported
    assert [fn for fn in _defined(tree) if "reach" in fn] == []


def _imports(node: ast.AST, in_function: bool = False) -> list[tuple[str, bool]]:
    """(top-level package, whether inside a function) for every import."""
    out = []
    for child in ast.iter_child_nodes(node):
        inside = in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                   ast.Lambda))
        if isinstance(child, ast.Import):
            out += [(alias.name.split(".")[0], inside) for alias in child.names]
        elif isinstance(child, ast.ImportFrom) and child.module and not child.level:
            out.append((child.module.split(".")[0], inside))
        out += _imports(child, inside)
    return out


def test_numpy_is_imported_inside_functions_only():
    """No module imports numpy when it is loaded; ``core``'s matrix helpers
    import it in their bodies.  A module-level import would raise every
    process's resident memory (from about 17 to 28 MB when measured) and
    its start-up time, which the benchmark reads as ``peak_rss_mb`` and
    ``setup_s``."""
    found = {(name, inside) for name, tree in _modules().items()
             for package, inside in _imports(tree) if package == "numpy"}
    assert found == {("core.py", True)}


def test_argparse_is_imported_inside_functions_only():
    """``cli`` reads a well-formed command line off its command table and
    imports argparse only where it builds a parser, for help, usage and
    errors.  A module-level import would cost every ``python -m extendix``
    process the import (about 4 ms when measured with ``-X importtime``)."""
    found = {(name, inside) for name, tree in _modules().items()
             for package, inside in _imports(tree) if package == "argparse"}
    assert found == {("cli.py", True)}
