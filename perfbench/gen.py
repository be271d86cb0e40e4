"""Seeded instance sets for the four benchmark workloads.

The generators draw from ``random.Random(seed)`` in the same order as
``extendix.core.random_digraph`` and ``random_bipartite_with_pm``, so a
file here equals the library's own ``randgen`` output for the same
arguments; but they live in the benchmark, so a change to the library
cannot change the benchmark's inputs.

Run as a script it is the benchmark's set-up step: start the interpreter,
import ``extendix`` from the checkout, write every instance file and the
manifest.  ``run.py`` times that step as ``setup_s``.

    python3 perfbench/gen.py --workload dg-connectivity --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

WORKLOADS = ("dg-connectivity", "bg-extendability", "mat-battery", "small-sweep")

# The exhaustive sweeps of the small-sweep workload: (target, n-max, k, and
# how many instances the sweep must list).  Every listed instance is checked
# against the definitions in ref.py; the counts pin the sweeps' size.
SEARCHES = (
    ("minimal_k_strong", 5, 1, 1133),
    ("minimal_k_extendable", 4, 1, 21),
    ("minimal_k_extendable", 4, 2, 10),
    ("minimality_counterexample", 5, 1, 888),
    ("minimal_k_strong", 4, 1, 64),
    ("minimal_k_strong", 4, 2, 18),
    ("minimality_counterexample", 4, 1, 43),
)


# ---------------------------------------------------------------------------
# generators (0-based pairs in memory, 1-based on disk)


def random_digraph_arcs(n: int, p: float, seed) -> list:
    rng = random.Random(seed)
    return [(i, j) for i in range(n) for j in range(n)
            if i != j and rng.random() < p]


def random_bipartite_edges(n: int, p: float, seed) -> list:
    """The canonical matching plus each off-diagonal edge with probability p."""
    rng = random.Random(seed)
    off = [(i, j) for i in range(n) for j in range(n)
           if i != j and rng.random() < p]
    return sorted(off + [(i, i) for i in range(n)])


def random_matrix_rows(n: int, p: float, seed, unit_diagonal: bool) -> list:
    rng = random.Random(seed)
    return [[1 if (unit_diagonal and i == j) or rng.random() < p else 0
             for j in range(n)] for i in range(n)]


def no_pm_matrix_rows(n: int, p: float, seed) -> list:
    """Random rows with an a x b zero block, a + b = n + 1, in a seeded
    place: by Frobenius-Koenig the matrix has no nonzero diagonal."""
    rng = random.Random(seed)
    a = rng.randint(1, n)
    zero_rows = set(rng.sample(range(n), a))
    zero_cols = set(rng.sample(range(n), n + 1 - a))
    return [[0 if i in zero_rows and j in zero_cols else int(rng.random() < p)
             for j in range(n)] for i in range(n)]


def block_triangular_rows(n: int, h: int) -> list:
    """[[J, J], [0, J]] with an (n - h) x h zero block bottom left."""
    return [[1 if i < h or j >= h else 0 for j in range(n)] for i in range(n)]


def no_pm_bipartite_edges(n: int) -> list:
    """Connected, no perfect matching: u1 and u2 see only w1, every other
    u sees every w."""
    return sorted({(0, 0), (1, 0)} | {(i, j) for i in range(2, n) for j in range(n)})


def format_pairs(kind: str, n: int, pairs) -> str:
    pairs = sorted(pairs)
    return "".join([f"{kind} {n} {len(pairs)}\n"]
                   + [f"{a + 1} {b + 1}\n" for a, b in pairs])


def format_matrix(rows) -> str:
    return f"mat {len(rows)}\n" + "".join("".join(map(str, r)) + "\n" for r in rows)


# ---------------------------------------------------------------------------
# workloads


def _sub_seed(seed: int, *parts) -> int:
    return random.Random(f"{seed}/" + "/".join(map(str, parts))).getrandbits(48)


def _dg(family: str, n: int, p: float, seed: int) -> dict:
    return {"kind": "dg", "family": family, "n": n,
            "text": format_pairs("dg", n, random_digraph_arcs(n, p, seed))}


def _bg(family: str, n: int, p: float, seed: int) -> dict:
    return {"kind": "bg", "family": family, "n": n,
            "text": format_pairs("bg", n, random_bipartite_edges(n, p, seed))}


def _mat(family: str, rows) -> dict:
    return {"kind": "mat", "family": family, "n": len(rows), "text": format_matrix(rows)}


PASS_SETS = 4  # distinct instance sets; a run cycles through them pass by pass


def instance_classes(workload: str, seed: int, pass_set: int) -> list:
    """Per class, the instances of one pass of the workload.

    Random classes keep a fixed size and density and draw only their
    content from the seed, so every seed gives the same mix of work; the
    adversarial families are the same in every pass.  The family names the
    ops an instance gets (``run.file_ops``) and, for the block-triangular
    matrices, carries the split.
    """
    s = lambda *parts: _sub_seed(seed, workload, pass_set, *parts)  # noqa: E731
    if workload == "dg-connectivity":
        return [[_dg("random", 20, 0.4, s(i)) for i in range(16)]]
    if workload == "bg-extendability":
        nopm = {"kind": "bg", "family": "nopm", "n": 8,
                "text": format_pairs("bg", 8, no_pm_bipartite_edges(8))}
        return [[_bg("dense", 18, 0.6, s("dense"))],
                [_bg("random", 14, 0.45, s(i)) for i in range(20)],
                [nopm] * 5,
                [_bg("neg", n, 0.3, s("neg", n)) for n in (17 + pass_set % 2, 19 + pass_set % 2)]]
    if workload == "mat-battery":
        h = (3, 6)[pass_set % 2]
        return [[_mat("random", random_matrix_rows(10, 0.6, s(i), True)) for i in range(24)],
                [_mat("nopm", no_pm_matrix_rows(8, 0.5, s("nopm", i))) for i in range(3)],
                [_mat(f"bt12h{h}", block_triangular_rows(12, h))]]
    if workload == "small-sweep":
        return [[_bg("tiny", 6, 0.8, s("bg", i)) for i in range(16)],
                [_dg("tiny", 6, 0.8, s("dg", i)) for i in range(16)],
                [_mat("tiny", random_matrix_rows(6, 0.8, s("mat", i), True)) for i in range(16)]]
    raise ValueError(f"unknown workload {workload!r}")


def write_instances(workload: str, seed: int, out: Path) -> list:
    """Write every instance file and ``manifest.json``; return the manifest:
    per pass set, per class, the file entries."""
    out.mkdir(parents=True, exist_ok=True)
    manifest = []
    for ps in range(PASS_SETS):
        classes = []
        for ci, cls in enumerate(instance_classes(workload, seed, ps)):
            names = []
            for fi, inst in enumerate(cls):
                name = f"p{ps}c{ci:02d}f{fi:02d}.{inst['kind']}"
                (out / name).write_text(inst["text"], encoding="utf-8")
                names.append({"file": name, "kind": inst["kind"],
                              "family": inst["family"], "n": inst["n"]})
            classes.append(names)
        manifest.append(classes)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import extendix  # noqa: F401  (the library import is part of set-up)

    write_instances(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
