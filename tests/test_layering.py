"""The flow kernel stays inside ``connectivity``, and no module strips loops.

``_FlowNet`` is built by three functions only, each on a digraph's rows:
``_k_strong``, the body of ``is_k_strong``, which decides k-strong
connectivity with a separator, also for each k of ``vertex_connectivity``
and in the ``search`` sweep; ``_arc_test``, the arc lemma's test of
whether an arc is deletable, one pair flow per arc on D itself, for
``_minimal_k_strong`` and ``is_minimal_k_extendable``; and
``_path_systems``, which reads every disjoint path system.  The first and
the last are the only readers of a flow's minimum cut, so there is one way
to turn a cut into a witness.  Every other module asks them, and every
separator printed comes from ``is_k_strong``.  The flow kernel's
out-lists are built per net, in ``connectivity``, not kept on the
instance.
No module copies an instance to delete an edge or an arc.
Only ``_path_systems`` runs the flow unseeded, so the paths it reads, and
the certificate path lines built from them, come from shortest augmenting
paths alone.  Every
connectivity function ignores loops, so no module makes a loop-free copy
before calling one.  The neighbourhood bitmasks (``_rows``) and the reach
over them (``_reach``) are defined once, in ``connectivity``: strong
components, the flow kernel's masks and the exhaustive sweep in
``search`` share them.  Every size budget is enforced by one helper,
``core.check_budget``, and from every command but ``search`` the call
graph reaches no budget check but the count's.  The ``reach-trees``
check, the whole proof of a positive k = 1 claim, reaches no decider and
reads no row mask, and neither it nor the ``fan-paths`` check builds a
``Matching`` or B(A).  One function, ``fileio.read_matching``, splits a
matching token on "-".  One augmenting-path
search, ``matching._augment``, serves every matching route, and no module
but ``core`` and the ``deficient-set`` witness check reads a graph's
neighbour lists.  Every name a module
imports is read in it, so a deletion leaves no dead import behind.
The sources are read with ``ast``, so the check sees names, not behaviour.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "extendix"
FLOW_BUILDERS = {"_short_check", "_arc_test", "_path_systems"}
CUT_READERS = {"_k_strong", "_path_systems"}


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


def test_flow_net_is_built_by_three_functions_only():
    builders = {enclosing for enclosing, call in _calls(_modules()["connectivity.py"])
                if _callee(call) == "_FlowNet"}
    assert builders == FLOW_BUILDERS


def test_only_the_flow_builders_read_a_cut():
    """``_FlowNet.cut()`` is called for the separators of ``is_k_strong``,
    on the net of the failing check that ``_short_check`` hands back, and
    for the cut witness of ``_path_systems``; κ and the minimality test
    read only flow values."""
    readers = {(module, enclosing) for module, tree in _modules().items()
               for enclosing, call in _calls(tree) if _callee(call) == "cut"}
    assert readers == {("connectivity.py", name) for name in CUT_READERS}


def test_flow_net_reads_rows_and_keeps_its_own_lists():
    """``_FlowNet.__init__`` takes the out- and in-rows only, its out-lists
    come from ``connectivity._split_lists``, and ``core`` keeps no flow
    lists on the digraph; no connectivity route copies a digraph to
    delete an arc."""
    modules = _modules()
    flow_net = next(node for node in ast.walk(modules["connectivity.py"])
                    if isinstance(node, ast.ClassDef) and node.name == "_FlowNet")
    init = next(node for node in flow_net.body
                if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    assert [arg.arg for arg in init.args.args] == ["self", "outs", "ins"]
    assert not init.args.kwonlyargs and not init.args.defaults
    assert not {"_succ", "_pred", "_split_lists"} & _names(modules["core.py"])
    defining = sorted((name, fn) for name, tree in modules.items()
                      for fn in _defined(tree) if fn == "_split_lists")
    assert defining == [("connectivity.py", "_split_lists")]
    assert not [call for _, call in _calls(modules["connectivity.py"])
                if _callee(call) == "without_arc"]


def test_no_module_copies_an_instance_to_delete_an_edge():
    """Minimality is decided on one D(G, M) or one D, per edge and per arc
    alike, so no module calls ``without_edge`` or ``without_arc``."""
    copying = sorted((module, enclosing) for module, tree in _modules().items()
                     for enclosing, call in _calls(tree)
                     if _callee(call) in {"without_edge", "without_arc"})
    assert copying == []


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


def test_search_takes_its_decisions_from_connectivity():
    """``search`` defines no k-strong decision, minimality test or
    matching-edge test of its own: it imports ``_minimal_k_strong`` from
    ``connectivity`` and calls it in one place, the k >= 2 row walk, and
    imports the matching-edge test of ``is_minimal_k_extendable`` from
    ``extendability`` and calls it in one place, the transfer; the
    k-strong decision it reaches only through those two."""
    tree = _modules()["search.py"]
    imported = {(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert {("connectivity", "_minimal_k_strong"),
            ("extendability", "_extendable_without_matching_edge")} <= imported
    assert sorted(fn for fn in _defined(tree) if "strong" in fn) == [
        "_minimal_k_strong_rows", "_minimal_strong_rows", "minimal_k_strong_digraphs"]
    assert sorted(fn for fn in _defined(tree) if "extendable" in fn) == [
        "_minimal_k_extendable_rows", "minimal_k_extendable_graphs"]
    decisions = {"_k_strong", "_minimal_k_strong", "_extendable_without_matching_edge"}
    callers = {(enclosing, _callee(call)) for enclosing, call in _calls(tree)
               if _callee(call) in decisions}
    assert callers == {("_transfers", "_extendable_without_matching_edge"),
                       ("_row_walk", "_minimal_k_strong")}


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


# ---------------------------------------------------------------------------
# budgets: one raise, and no budget on a command but ``search``


def _functions() -> dict[str, list[ast.AST]]:
    """Every function, method and nested function in the package, by name."""
    found: dict[str, list[ast.AST]] = {}
    for tree in _modules().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                found.setdefault(node.name, []).append(node)
    return found


def _referenced(fn: ast.AST) -> set[str]:
    """The names a function calls or passes on: every loaded name and
    called attribute in its body, lambdas and nested functions included."""
    names = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            names.add(node.func.attr)
    return names


def _call_graph() -> dict[str, set[str]]:
    """name -> the package's function names it may reach in one step.
    Calls are resolved by name alone, so a name shared by several
    functions reaches all of them: an over-approximation."""
    functions = _functions()
    return {name: {callee for fn in fns for callee in _referenced(fn)
                   if callee in functions and callee != name}
            for name, fns in functions.items()}


def _reachable(graph: dict[str, set[str]], start: str) -> set[str]:
    seen, todo = {start}, [start]
    while todo:
        for callee in graph[todo.pop()] - seen:
            seen.add(callee)
            todo.append(callee)
    return seen


def _budget_checkers() -> set[str]:
    return {name for name, fns in _functions().items()
            if any(_callee(call) == "check_budget" for fn in fns for _, call in _calls(fn))}


def _raises(node: ast.AST, enclosing: str = "") -> list[tuple[str, ast.Raise]]:
    """(innermost enclosing function name, raise) for every raise under node."""
    out = []
    for child in ast.iter_child_nodes(node):
        name = child.name if isinstance(child, ast.FunctionDef) else enclosing
        if isinstance(child, ast.Raise):
            out.append((enclosing, child))
        out += _raises(child, name)
    return out


def test_too_large_is_raised_by_check_budget_only():
    raisers = sorted((module, enclosing) for module, tree in _modules().items()
                     for enclosing, node in _raises(tree)
                     if "TooLargeError" in _names(node))
    assert raisers == [("core.py", "check_budget")]


def test_commands_but_search_reach_no_budget_but_the_count():
    """The exhaustive routes are definitional cross-checks: from every
    command handler but ``cmd_search`` the only function that checks a
    budget is ``count_perfect_matchings``, whose refusal ``analyze``
    prints as ``not counted``."""
    graph, checkers = _call_graph(), _budget_checkers()
    handlers = sorted(name for name in graph if name.startswith("cmd_"))
    assert handlers == ["cmd_analyze", "cmd_certify", "cmd_convert", "cmd_randgen",
                        "cmd_search", "cmd_verify"]
    reached = {name: _reachable(graph, name) & checkers for name in handlers}
    # the row generators that check the sweep budgets, which ``search``
    # prints from without building the public wrappers' objects
    assert reached.pop("cmd_search") == {"_minimal_k_strong_rows", "_minimal_k_extendable_rows"}
    assert reached.pop("cmd_analyze") == {"count_perfect_matchings"}
    assert all(found <= {"count_perfect_matchings"} for found in reached.values()), reached


def test_every_budget_is_checked():
    from extendix.core import BUDGETS

    named = {const.value for _, tree in _modules().items() for _, call in _calls(tree)
             if _callee(call) == "check_budget" and call.args
             for const in ast.walk(call.args[0])
             if isinstance(const, ast.Constant) and isinstance(const.value, str)}
    assert named == set(BUDGETS)


# ---------------------------------------------------------------------------
# kappa and the separators from one decision on the fan schedule


def test_kappa_reaches_the_fan_route_and_not_the_pair_scan():
    """``vertex_connectivity`` decides each k with ``_short_check``, the
    fan schedule of ``is_k_strong``; no second decision route is left."""
    graph = _call_graph()
    assert "_short_check" in _reachable(graph, "vertex_connectivity")
    assert "_short_check" in _reachable(graph, "is_k_strong")
    assert "_fan_decision" not in graph


def _separator_sources(fn: ast.AST) -> list[str]:
    """For each ``name.separator`` read in fn, the callee of the call that
    fn binds name to, by ``=`` or ``:=`` ("" when fn binds it to no call)."""
    bound = {target.id: _callee(node.value) for node in ast.walk(fn)
             if isinstance(node, (ast.Assign, ast.NamedExpr))
             and isinstance(node.value, ast.Call)
             for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
             if isinstance(target, ast.Name)}
    return [bound.get(node.value.id, "") for node in ast.walk(fn)
            if isinstance(node, ast.Attribute) and node.attr == "separator"
            and isinstance(node.value, ast.Name)]


def test_every_printed_separator_comes_from_is_k_strong():
    """``certify``'s separator lines, ``extendability._deficient_set`` and
    ``matrixlab._reducible`` read the separator of an ``is_k_strong``
    verdict, and no other function of the package reads one;
    ``vertex_connectivity`` reads only the failing check's flow value."""
    readers = {(module, node.name): _separator_sources(node)
               for module, tree in _modules().items() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and _separator_sources(node)}
    assert set(readers) == {("certify.py", "build_certificate"),
                            ("extendability.py", "_deficient_set"),
                            ("matrixlab.py", "_reducible")}
    assert all(set(sources) == {"is_k_strong"} for sources in readers.values()), readers


def _imported(tree: ast.Module) -> list[str]:
    """The names a module's imports bind, at any depth, ``__future__``
    features left out: the alias, else the first part of the name."""
    return [alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__" for alias in node.names]


def test_every_import_is_used():
    """Each name a module but ``__init__`` imports is read in that module,
    so a deletion leaves no dead import behind."""
    unused = {}
    for name, tree in _modules().items():
        if name == "__init__.py":
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused[name] = sorted(set(_imported(tree)) - read)
    assert unused == {name: [] for name in unused}


# ---------------------------------------------------------------------------
# verify: the witness is the proof, the deciders a fallback


CERTIFY_DECIDERS = {"is_k_extendable", "is_k_strong", "is_k_partly_decomposable",
                    "is_k_reducible"}


def test_certify_calls_the_deciders_in_two_functions_only():
    """``build_certificate`` decides; ``check_certificate`` reaches a
    decider only through ``_recompute_verdict``, called at one site, which
    a self-proving witness never reaches."""
    calls = _calls(_modules()["certify.py"])
    deciding = {enclosing for enclosing, call in calls if _callee(call) in CERTIFY_DECIDERS}
    assert deciding <= {"build_certificate", "_recompute_verdict"}
    assert "_recompute_verdict" in deciding
    recomputing = [enclosing for enclosing, call in calls
                   if _callee(call) == "_recompute_verdict"]
    assert recomputing == ["check_certificate"]


def test_the_reach_tree_check_reaches_no_decider():
    """A ``reach-trees`` witness is the whole proof of its claim: on the
    call graph its check reaches no decider, no ``_recompute_verdict``, no
    flow kernel or matching search and no mask build, and no function it
    reaches names the flow net or a row mask."""
    graph, functions = _call_graph(), _functions()
    reached = _reachable(graph, "_reach_tree_problems")
    assert {"_perfect_mate", "read_matching", "_cycle_vertex", "_vertices", "_lookup"} <= reached
    assert not reached & (CERTIFY_DECIDERS | {"_recompute_verdict", "_k_strong", "_augment",
                                              "max_matching_pairs", "_neighbourhood_masks"})
    named = {name for fn in reached for node in functions[fn] for name in _names(node)}
    assert not named & {"_FlowNet", "_masks", "_rows", "_u_rows", "_w_rows", "Matching",
                        "bipartite_of_matrix"}


def test_the_fan_path_check_reaches_no_decider():
    """A ``fan-paths`` witness is the whole proof of its claim: on the call
    graph its check reaches no decider, no ``_recompute_verdict``, neither
    the schedule nor the flow kernel and no matching search, and no
    function it reaches names the flow net.  It reads the digraph's row
    masks, which counting the arcs of a check needs."""
    graph, functions = _call_graph(), _functions()
    reached = _reachable(graph, "_fan_path_problems")
    assert {"_fan_digraph", "_fan_sections", "_open_checks", "_perfect_mate", "read_matching",
            "_rows", "_vertices"} <= reached
    assert not reached & (CERTIFY_DECIDERS | {"_recompute_verdict", "_k_strong", "_short_check",
                                              "_augment", "max_matching_pairs", "digraph_of"})
    named = {name for fn in reached for node in functions[fn] for name in _names(node)}
    assert not named & {"_FlowNet", "Matching", "bipartite_of_matrix"}


def test_one_function_splits_a_matching_token():
    """``fileio.read_matching`` is the one function that splits a token on
    "-": ``convert --matching`` and every witness that embeds M read their
    matching through it."""
    splitting = sorted((name, enclosing) for name, tree in _modules().items()
                       for enclosing, call in _calls(tree)
                       if isinstance(call.func, ast.Attribute)
                       and call.func.attr in ("split", "rsplit", "partition", "rpartition")
                       and any(isinstance(arg, ast.Constant) and arg.value == "-"
                               for arg in call.args))
    assert splitting == [("fileio.py", "read_matching")]


# ---------------------------------------------------------------------------
# one matching kernel, on the instance's rows

NEIGHBOUR_LISTS = {"u_neighbors", "w_neighbors", "degree_u", "degree_w", "_u_adj", "_w_adj"}


def _uses(node: ast.AST, enclosing: str = "") -> list[tuple[str, str]]:
    """(innermost enclosing function name, identifier) for every name and
    attribute under node."""
    out = []
    for child in ast.iter_child_nodes(node):
        name = child.name if isinstance(child, ast.FunctionDef) else enclosing
        if isinstance(child, ast.Name):
            out.append((enclosing, child.id))
        elif isinstance(child, ast.Attribute):
            out.append((enclosing, child.attr))
        out += _uses(child, name)
    return out


def test_matching_defines_the_one_augmenting_path_search():
    """Besides the flow kernel's method, ``matching._augment`` is the only
    augmenting-path function, and ``extendability`` (the Koenig set) and
    ``matrixlab`` (the minors of the diagonal criterion) import and call it
    instead of keeping their own."""
    modules = _modules()
    defining = sorted((name, fn) for name, tree in modules.items()
                      for fn in _defined(tree) if "augment" in fn)
    assert defining == [("connectivity.py", "_augment"), ("matching.py", "_augment")]
    flow_net = next(node for node in ast.walk(modules["connectivity.py"])
                    if isinstance(node, ast.ClassDef) and node.name == "_FlowNet")
    assert "_augment" in _defined(flow_net)
    for module in ("extendability.py", "matrixlab.py"):
        tree = modules[module]
        imported = {(node.module, alias.name) for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert ("matching", "_augment") in imported
        assert any(_callee(call) == "_augment" for _, call in _calls(tree))


def test_only_core_reads_neighbour_lists():
    """Every production route, the ``deficient-set`` witness check among
    them, reads the graph's rows.  The neighbour-list methods and their
    global caches serve library callers only."""
    readers = {(module, enclosing) for module, tree in _modules().items() if module != "core.py"
               for enclosing, name in _uses(tree) if name in NEIGHBOUR_LISTS}
    assert readers == set()
