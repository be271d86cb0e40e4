"""Per-layer spans for the traced run, recorded from outside the library.

Every public module-level function of every ``extendix`` module is
wrapped, and the wrapper is bound wherever the original was bound: in
its own module and in every module that imported it by name (``from
.connectivity import is_k_strong``).  Lazy in-function imports read the
module attribute, so they get the wrapper too.  In ``core`` and
``fileio``, whose work sits mostly in the types, the public methods,
class methods and ``__post_init__`` of the public classes are wrapped
as well, as spans named ``core.Digraph.build`` and so on.  A generator
function is wrapped so that each resumption is a span of its own, which
keeps the time spent producing items in the generator's layer.

Spans live in flat arrays while the run goes and are written out once at
the end.  A layer's self time is its spans' duration minus the part
covered by their child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

PACKAGE = "extendix"
LAYERS = ("cli", "certify", "extendability", "matrixlab", "connectivity",
          "matching", "correspond", "fileio", "core", "search")
# Layers whose classes carry their work, so their methods get spans too.
METHOD_LAYERS = ("core", "fileio")

HOT_SPOTS = (
    "connectivity.is_k_strong", "connectivity.vertex_connectivity",
    "connectivity.menger_paths",
    "matching.first_perfect_matching", "matching.count_perfect_matchings",
    "matching.classify_edges", "matching.max_matching_pairs",
    "extendability.is_k_extendable", "extendability.max_extendability",
    "extendability.elementary_components",
    "extendability.is_k_extendable_via_neighborhood",
    "matrixlab.is_k_partly_decomposable", "matrixlab.is_k_reducible",
    "correspond.digraph_of",
    "certify.build_certificate", "certify.check_certificate",
)

# The decision procedures a certificate check can re-run.
DECIDERS = frozenset({
    "extendability.is_k_extendable", "connectivity.is_k_strong",
    "matrixlab.is_k_partly_decomposable", "matrixlab.is_k_reducible",
})

CACHES = ("core._u_adj", "core._w_adj", "core._out_adj", "core._in_adj",
          "matching._has_pm_masked")

CALL, ERROR = 1, 2


class Spans:
    """Flat span store: name, start, end, parent index, op id, flags."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.ops = array("l")
        self.flags = bytearray()
        self.stack: list[int] = []
        self.op = -1

    def __len__(self) -> int:
        return len(self.names)

    def enter(self, name: str, call: bool) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op)
        self.flags.append(CALL if call else 0)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def exit(self, idx: int, error: bool) -> None:
        self.ends[idx] = perf_counter()
        if error:
            self.flags[idx] |= ERROR
        if self.stack and self.stack[-1] == idx:
            self.stack.pop()

    def add(self, name, start, end, parent, op=0, call=True, error=False) -> int:
        """Append a finished span (for synthetic trees in tests)."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.ops.append(op)
        self.flags.append((CALL if call else 0) | (ERROR if error else 0))
        return len(self.names) - 1

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\top\tname\tstart\tend\tcall\terror\n")
            for i, name in enumerate(self.names):
                f = self.flags[i]
                fh.write(f"{i}\t{self.parents[i]}\t{self.ops[i]}\t{name}\t"
                         f"{self.starts[i]:.9f}\t{self.ends[i]:.9f}\t"
                         f"{int(bool(f & CALL))}\t{int(bool(f & ERROR))}\n")


def _wrap(spans: Spans, name: str, fn):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            call = True
            try:
                while True:
                    idx = spans.enter(name, call)
                    call = False
                    try:
                        item = next(inner)
                    except StopIteration:
                        spans.exit(idx, False)
                        return
                    except BaseException:
                        spans.exit(idx, True)
                        raise
                    spans.exit(idx, False)
                    yield item
            finally:
                inner.close()
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = spans.enter(name, True)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            spans.exit(idx, True)
            raise
        spans.exit(idx, False)
        return result
    return wrapper


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def public_functions() -> dict:
    """{"layer.name": function} for every public function a layer defines."""
    found = {}
    for module in _package_modules():
        layer = module.__name__.rsplit(".", 1)[-1]
        if layer not in LAYERS:
            continue
        for name, value in vars(module).items():
            if (inspect.isfunction(value) and value.__module__ == module.__name__
                    and not name.startswith("_")):
                found[f"{layer}.{name}"] = value
    return found


def public_methods() -> dict:
    """{"layer.Class.name": (class, name)} for the methods, class methods
    and ``__post_init__`` of the public classes of the METHOD_LAYERS."""
    found = {}
    for module in _package_modules():
        layer = module.__name__.rsplit(".", 1)[-1]
        if layer not in METHOD_LAYERS:
            continue
        for cname, cls in vars(module).items():
            if (not inspect.isclass(cls) or cls.__module__ != module.__name__
                    or cname.startswith("_") or issubclass(cls, BaseException)):
                continue
            for name, value in vars(cls).items():
                if name.startswith("_") and name != "__post_init__":
                    continue
                if inspect.isfunction(getattr(value, "__func__", value)):
                    found[f"{layer}.{cname}.{name}"] = (cls, name)
    return found


class Tracer:
    """Installs span wrappers on the package and removes them again."""

    def __init__(self):
        self.spans = Spans()
        self._undo: list = []

    def install(self) -> int:
        originals = public_functions()
        wrappers = {id(fn): _wrap(self.spans, qual, fn) for qual, fn in originals.items()}
        for module in _package_modules():
            for name, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    self._undo.append((module, name, value))
                    setattr(module, name, wrapper)
        methods = public_methods()
        for qual, (cls, name) in methods.items():
            value = vars(cls)[name]
            if isinstance(value, (classmethod, staticmethod)):
                wrapper = type(value)(_wrap(self.spans, qual, value.__func__))
            else:
                wrapper = _wrap(self.spans, qual, value)
            self._undo.append((cls, name, value))
            setattr(cls, name, wrapper)
        return len(originals) + len(methods)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()


# ---------------------------------------------------------------------------
# arithmetic over a finished span store


def self_times(spans: Spans) -> list:
    """Duration of each span minus the durations of its direct children."""
    out = [spans.ends[i] - spans.starts[i] for i in range(len(spans))]
    for i in range(len(spans)):
        p = spans.parents[i]
        if p >= 0:
            out[p] -= spans.ends[i] - spans.starts[i]
    return out


def _has_ancestor(spans: Spans, idx: int, names) -> int:
    """Index of the nearest ancestor whose name is in ``names``, or -1."""
    p = spans.parents[idx]
    while p >= 0:
        if spans.names[p] in names:
            return p
        p = spans.parents[p]
    return -1


def layer_metrics(spans: Spans) -> dict:
    """Per-layer calls, self time and escaping errors; hot-spot calls and
    outermost total time; the verify-side decider share."""
    selfs = self_times(spans)
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = 0
        m[f"{layer}.self_s"] = 0.0
        m[f"{layer}.errors"] = 0
    for hot in HOT_SPOTS:
        m[f"{hot}.calls"] = 0
        m[f"{hot}.total_s"] = 0.0
    hot = set(HOT_SPOTS)
    check_total = decider_in_check = 0.0
    for i, name in enumerate(spans.names):
        layer = name.split(".", 1)[0]
        flags = spans.flags[i]
        dur = spans.ends[i] - spans.starts[i]
        m[f"{layer}.self_s"] += selfs[i]
        if flags & CALL:
            m[f"{layer}.calls"] += 1
        if flags & ERROR:
            p = spans.parents[i]
            if p < 0 or spans.names[p].split(".", 1)[0] != layer:
                m[f"{layer}.errors"] += 1
        if name in hot:
            if flags & CALL:
                m[f"{name}.calls"] += 1
            if _has_ancestor(spans, i, {name}) < 0:
                m[f"{name}.total_s"] += dur
        if name == "certify.check_certificate" and \
                _has_ancestor(spans, i, {name}) < 0:
            check_total += dur
        if name in DECIDERS and _has_ancestor(spans, i, DECIDERS) < 0 and \
                _has_ancestor(spans, i, {"certify.check_certificate"}) >= 0:
            decider_in_check += dur
    m["certify.check_certificate.decider_share"] = (
        decider_in_check / check_total if check_total else 0.0)
    return m


def op_self_sums(spans: Spans) -> dict:
    """{op id: summed self time of all its spans}."""
    selfs = self_times(spans)
    out: dict = {}
    for i, s in enumerate(selfs):
        out[spans.ops[i]] = out.get(spans.ops[i], 0.0) + s
    return out
