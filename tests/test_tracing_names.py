"""Every library name the benchmark's tracer refers to still exists.

``perfbench/tracing.py`` names hot spots, deciders and caches as
``module.attribute`` strings, and ``perfbench/run.py`` looks the caches up
when it starts, so a refactor that removes or renames one of them would
only show when the benchmark crashes.  The tracer file is read with
``ast``, not imported, so this check runs without the benchmark.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _string_sets() -> dict[str, tuple]:
    """The string tuples and frozensets assigned at the tracer's top level."""
    found = {}
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            value = node.value
            if isinstance(value, ast.Call) and getattr(value.func, "id", "") == "frozenset":
                value = value.args[0]
            try:
                items = ast.literal_eval(value)
            except ValueError:
                continue
            if isinstance(items, (tuple, set)) and all(isinstance(x, str) for x in items):
                found[node.targets[0].id] = tuple(sorted(items))
    return found


NAMES = _string_sets()


def _resolve(dotted: str):
    module, attr = dotted.split(".", 1)
    obj = importlib.import_module(f"extendix.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_tracer_lists_are_found():
    assert {"LAYERS", "CACHES", "HOT_SPOTS", "DECIDERS"} <= set(NAMES)
    for layer in NAMES["LAYERS"]:
        importlib.import_module(f"extendix.{layer}")


@pytest.mark.parametrize("name", sorted(set(NAMES["HOT_SPOTS"] + NAMES["DECIDERS"])))
def test_hot_spots_and_deciders_resolve(name):
    assert callable(_resolve(name))


@pytest.mark.parametrize("name", NAMES["CACHES"])
def test_caches_resolve_to_lru_caches(name):
    cache = _resolve(name)
    assert callable(cache.cache_clear) and callable(cache.cache_info)
