"""Reference answers for the benchmark, computed without extendix.

Everything here uses networkx, numpy and the definitions; nothing imports
the library under test.  ``run.py`` runs this module as a separate
process after set-up and before the measured phase, so the reference
work never lands in a timed region or in the workload's peak RSS.

    python3 perfbench/ref.py DIR     # reads DIR/manifest.json, writes DIR/reference.json

Pitfall: ``nx.node_connectivity`` on a DiGraph does not compute the
vertex connectivity used here (it reports 1 on a digraph that is not
strong, and 4 where removing 3 vertices already disconnects).  ``kappa``
takes the minimum of ``local_node_connectivity`` over ordered pairs with
no arc s -> t instead, which matches brute-force subset removal.
"""

from __future__ import annotations

import json
import sys
from itertools import combinations
from math import factorial
from pathlib import Path

import networkx as nx
import numpy as np
from networkx.algorithms.connectivity import (build_auxiliary_node_connectivity,
                                              local_node_connectivity)
from networkx.algorithms.flow import build_residual_network

from gen import format_matrix, format_pairs

# ---------------------------------------------------------------------------
# parsing the benchmark's own files


def parse(text: str):
    """(kind, n, payload): pairs (0-based) for bg/dg, rows for mat."""
    lines = text.split("\n")
    head = lines[0].split()
    kind, n = head[0], int(head[1])
    if kind == "mat":
        return kind, n, [[int(c) for c in row] for row in lines[1:1 + n]]
    m = int(head[2])
    pairs = [tuple(int(x) - 1 for x in ln.split()) for ln in lines[1:1 + m]]
    return kind, n, pairs


# ---------------------------------------------------------------------------
# digraphs


def digraph(n: int, arcs) -> nx.DiGraph:
    d = nx.DiGraph()
    d.add_nodes_from(range(n))
    d.add_edges_from((a, b) for a, b in arcs if a != b)
    return d


def kappa(n: int, arcs) -> int:
    """Vertex connectivity: 0 unless strong, else the minimum over ordered
    pairs (s, t) with no arc s -> t of the local connectivity, or n - 1
    when every ordered pair is an arc."""
    d = digraph(n, arcs)
    if n == 1 or not nx.is_strongly_connected(d):
        return 0
    aux = build_auxiliary_node_connectivity(d)
    res = build_residual_network(aux, "capacity")
    best = n - 1
    for s in range(n):
        for t in range(n):
            if s != t and not d.has_edge(s, t):
                best = min(best, local_node_connectivity(
                    d, s, t, auxiliary=aux, residual=res, cutoff=best))
    return best


def kappa_brute(n: int, arcs) -> int:
    """The definition: the largest k with n >= k + 1 and D - S strong for
    every S of fewer than k vertices."""
    d = digraph(n, arcs)
    k = 0
    while k + 1 <= n - 1 and all(
            nx.is_strongly_connected(d.subgraph(set(range(n)) - set(s)))
            for s in combinations(range(n), k)):
        k += 1
    return k


def strong_components(n: int, arcs) -> list:
    return sorted(sorted(c) for c in nx.strongly_connected_components(digraph(n, arcs)))


# ---------------------------------------------------------------------------
# bipartite graphs (u_i = ("u", i), w_j = ("w", j))


def bipartite(n: int, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(("u", i) for i in range(n))
    g.add_nodes_from(("w", j) for j in range(n))
    g.add_edges_from((("u", i), ("w", j)) for i, j in edges)
    return g


def perfect_matching(n: int, edges) -> dict | None:
    """u -> w pairing of some perfect matching (networkx), or None."""
    g = bipartite(n, edges)
    m = nx.bipartite.hopcroft_karp_matching(g, top_nodes=[("u", i) for i in range(n)])
    pairing = {u[1]: w[1] for u, w in m.items() if u[0] == "u"}
    return pairing if len(pairing) == n else None


def lex_first_perfect_matching(n: int, edges) -> dict | None:
    """For u1, u2, ... take the smallest w that still leaves a perfect
    matching of the rest: the lexicographically first perfect matching."""
    if perfect_matching(n, edges) is None:
        return None
    adj = {i: sorted(j for a, j in edges if a == i) for i in range(n)}
    chosen: dict = {}
    for i in range(n):
        for j in adj[i]:
            if j in chosen.values():
                continue
            trial = {**chosen, i: j}
            rest = [(a, b) for a, b in edges if a not in trial and b not in trial.values()]
            left = sorted(set(range(n)) - set(trial))
            if _has_pm_on(left, sorted(set(range(n)) - set(trial.values())), rest):
                chosen = trial
                break
    return chosen


def _has_pm_on(us, ws, edges) -> bool:
    if not us:
        return True
    g = nx.Graph()
    g.add_nodes_from(("u", i) for i in us)
    g.add_nodes_from(("w", j) for j in ws)
    g.add_edges_from((("u", i), ("w", j)) for i, j in edges)
    m = nx.bipartite.hopcroft_karp_matching(g, top_nodes=[("u", i) for i in us])
    return len(m) == 2 * len(us)


def contraction(n: int, edges, pairing: dict) -> list:
    """Arcs of D(G, M): vertex i is the matching edge at u_i; a non-matching
    edge u_i w_j becomes the arc i -> (the u matched to w_j)."""
    owner = {j: i for i, j in pairing.items()}
    return sorted((i, owner[j]) for i, j in edges if pairing[i] != j)


def permanent(n: int, edges) -> int:
    """Number of perfect matchings, by a dynamic programme over column
    masks in numpy (exact in int64 up to n = 20, since 20! < 2**63)."""
    if n > 20:
        raise ValueError("permanent reference is exact up to n = 20")
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
    dp = np.zeros(1 << n, dtype=np.int64)
    dp[0] = 1
    for i in range(n):
        new = np.zeros_like(dp)
        for j in adj[i]:
            low = 1 << j
            view_new = new.reshape(-1, 2, low)
            view_old = dp.reshape(-1, 2, low)
            view_new[:, 1, :] += view_old[:, 0, :]
        dp = new
    return int(dp[-1])


def extendability(n: int, edges) -> dict:
    """Verdict data for a bipartite graph: connected, a perfect matching,
    and the extendability, which is kappa of the contraction under any
    perfect matching (0 without one, or when disconnected)."""
    g = bipartite(n, edges)
    conn = nx.is_connected(g)
    pm = perfect_matching(n, edges)
    ext = 0
    if pm is not None and (conn or n < 2):
        ext = kappa(n, contraction(n, edges, pm))
    return {"connected": conn, "has_pm": pm is not None, "ext": ext, "pm": pm}


def u_list(vs) -> str:
    return " ".join(f"u{i + 1}" for i in sorted(vs))


def w_list(vs) -> str:
    return " ".join(f"w{j + 1}" for j in sorted(vs))


def bg_reference(n: int, edges) -> dict:
    info = extendability(n, edges)
    pm_count = permanent(n, edges)
    analyze = {"kind": "bg", "n": str(n), "edges": str(len(edges)),
               "connected": "yes" if info["connected"] else "no",
               "perfect-matchings": str(pm_count),
               "max-extendability": str(info["ext"])}
    components = []
    if pm_count:
        pm = info["pm"]
        sccs = sorted(strong_components(n, contraction(n, edges, pm)))
        comp_of = {v: ci for ci, c in enumerate(sccs) for v in c}
        owner = {j: i for i, j in pm.items()}
        single = sum(1 for i, j in edges if comp_of[i] != comp_of[owner[j]])
        double = sum(1 for c in sccs if len(c) == 1)
        analyze["edge-classes"] = (f"fixed_single={single} fixed_double={double} "
                                   f"allowed_nonfixed={len(edges) - single - double}")
        elem = len(sccs) - double
        analyze["elementary-components"] = str(elem)
        analyze["fixed-double-singletons"] = str(double)
        for idx, c in enumerate(sorted(sccs, key=min), 1):
            kind = "elementary" if len(c) > 1 else "fixed_double"
            components.append(
                f"component {idx}: {kind} u=[{u_list(c)}] "
                f"w=[{w_list(pm[i] for i in c)}] scc=[{' '.join(str(v + 1) for v in c)}]")
        plural = "s" if elem != 1 else ""
        ext = info["ext"]
        analyze["summary"] = (f"{ext}-extendable, not {ext + 1}-extendable; "
                              f"{elem} elementary component{plural}" if ext >= 1 else
                              f"not 1-extendable; {elem} elementary component{plural}")
    else:
        analyze["summary"] = "no perfect matching"
    lex = lex_first_perfect_matching(n, edges)
    g2d = None if lex is None else format_pairs("dg", n, contraction(n, edges, lex))
    es = set(edges)
    g2m = format_matrix([[int((i, j) in es) for j in range(n)] for i in range(n)])
    return {"analyze": analyze, "components": components, "g2d": g2d, "g2m": g2m,
            "connected": info["connected"], "has_pm": info["has_pm"], "ext": info["ext"]}


def dg_reference(n: int, arcs) -> dict:
    k = kappa(n, arcs)
    comps = strong_components(n, arcs)
    strong = len(comps) == 1
    analyze = {"kind": "dg", "n": str(n), "arcs": str(len(arcs)),
               "strong": "yes" if strong else "no",
               "strong-components": str(len(comps)), "kappa": str(k)}
    if strong and n >= 2:
        ears = len(arcs) - n + 1
        analyze["ear-decomposition"] = f"{ears} ears"
        analyze["summary"] = (f"strong, kappa={k}; ear decomposition with "
                              f"{ears} ear" + ("s" if ears != 1 else ""))
    elif not strong:
        analyze["summary"] = f"not strong, {len(comps)} strong components"
    components = sorted(" ".join(str(v + 1) for v in c) for c in comps)
    d2g = format_pairs("bg", n, set(arcs) | {(i, i) for i in range(n)})
    return {"analyze": analyze, "components": components, "d2g": d2g, "kappa": k}


def matrix_verdicts(rows) -> dict:
    """Through the equivalences: k-irreducible iff the digraph of A is
    k-strong; k-indecomposable (k >= 1) iff B(A) is k-extendable, and
    0-indecomposable iff B(A) has a perfect matching."""
    n = len(rows)
    ones = [(i, j) for i in range(n) for j in range(n) if rows[i][j]]
    info = extendability(n, ones)
    kd = kappa(n, ones)
    indec = ([0] if info["has_pm"] else []) + list(range(1, min(info["ext"], n - 1) + 1))
    irred = list(range(1, min(kd, n - 1) + 1))
    return {"ones": ones, "perm": None, "indec": indec, "irred": irred,
            "irreducible": n == 1 or nx.is_strongly_connected(digraph(n, ones))}


def block_triangular_verdicts(n: int, h: int) -> dict:
    """[[J, J], [0, J]] by construction: the diagonal blocks carry every
    nonzero diagonal, the zero block makes it partly decomposable and
    reducible, and no vertex below the split reaches one above it."""
    ones = [(i, j) for i in range(n) for j in range(n) if i < h or j >= h]
    return {"ones": ones, "perm": factorial(h) * factorial(n - h), "indec": [0],
            "irred": [], "irreducible": False}


def mat_reference(rows, family: str) -> dict:
    n = len(rows)
    if family.startswith("bt"):
        v = block_triangular_verdicts(n, int(family.split("h")[1]))
    else:
        v = matrix_verdicts(rows)
        v["perm"] = permanent(n, v["ones"])
    if family == "nopm" and (v["perm"] or v["indec"]):
        raise ValueError("a no-PM matrix has a nonzero diagonal: construction broken")
    indec, irred = v["indec"], v["irred"]
    fully = n == 1 or 1 in indec
    parts = ["fully indecomposable" if fully else "partly decomposable"]
    if indec and max(indec) >= 1:
        parts.append(f"{max(indec)}-indecomposable")
    parts.append("irreducible" if v["irreducible"] else "reducible")
    if irred:
        parts.append(f"{max(irred)}-irreducible")
    analyze = {"kind": "mat", "n": str(n), "ones": str(len(v["ones"])),
               "nonzero-diagonals": str(v["perm"]),
               "irreducible": "yes" if v["irreducible"] else "no",
               "fully-indecomposable": "yes" if fully else "no",
               "k-indecomposable": " ".join(map(str, indec)) or "none",
               "k-irreducible": " ".join(map(str, irred)) or "none",
               "summary": ", ".join(parts)}
    return {"analyze": analyze, "components": [], "m2g": format_pairs("bg", n, v["ones"]),
            "indec": indec, "irred": irred}


def reference_for(text: str, family: str) -> dict:
    kind, n, payload = parse(text)
    if kind == "dg":
        return dg_reference(n, payload)
    if kind == "bg":
        return bg_reference(n, payload)
    return mat_reference(payload, family)


# ---------------------------------------------------------------------------
# search output checks


def strongly_connected(n: int, arcs) -> bool:
    """Every vertex reaches vertex 0 and is reached from it (bit masks; the
    sweeps check thousands of digraphs with n <= 5)."""
    out, into = [0] * n, [0] * n
    for a, b in arcs:
        out[a] |= 1 << b
        into[b] |= 1 << a

    def reaches_all(adj):
        seen = frontier = 1
        while frontier:
            step = 0
            for v in range(n):
                if frontier >> v & 1:
                    step |= adj[v]
            frontier = step & ~seen
            seen |= step
        return seen == (1 << n) - 1

    return reaches_all(out) and reaches_all(into)


def is_minimal_k_strong(n: int, arcs, k: int) -> bool:
    """k-strong, and no longer k-strong after deleting any one arc."""
    def ok(a):
        return strongly_connected(n, a) if k == 1 else kappa(n, a) >= k
    return ok(arcs) and not any(ok([a for a in arcs if a != drop]) for drop in arcs)


def is_k_extendable(n: int, edges, k: int) -> bool:
    """Connected, a perfect matching M, and D(G, M) k-strong (for k = 1
    just strongly connected on at least two vertices)."""
    pm = perfect_matching(n, edges)
    if pm is None or n < k + 1 or not nx.is_connected(bipartite(n, edges)):
        return False
    arcs = contraction(n, edges, pm)
    return strongly_connected(n, arcs) if k == 1 else kappa(n, arcs) >= k


def is_minimal_k_extendable(n: int, edges, k: int) -> bool:
    return is_k_extendable(n, edges, k) and not any(
        is_k_extendable(n, [e for e in edges if e != drop], k) for drop in edges)


def main(argv=None) -> int:
    directory = Path((argv or sys.argv[1:])[0])
    manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
    out = {}
    for pass_set in manifest:
        for entry in (e for cls in pass_set for e in cls):
            text = (directory / entry["file"]).read_text(encoding="utf-8")
            out[entry["file"]] = reference_for(text, entry["family"])
    (directory / "reference.json").write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
