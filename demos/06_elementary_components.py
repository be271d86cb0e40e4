# A graph with a perfect matching that is not 1-extendable splits into
# elementary components plus fixed-double singletons, and those pieces are
# exactly the strong components of the derived digraph.

from extendix import (BipartiteGraph, classify_edges, digraph_of,
                      elementary_components, first_perfect_matching,
                      strong_components)

# a 4-cycle with a pendant matching edge hung on u2
g = BipartiteGraph(3, frozenset({(0, 0), (1, 1), (2, 2),
                                 (0, 1), (1, 0), (1, 2)}))
cls = classify_edges(g)
print("edge classes:", cls.counts)
print("  fixed single:", sorted(cls.fixed_single))
print("  fixed double:", sorted(cls.fixed_double))
print("  non-fixed:  ", sorted(cls.nonfixed))

cm = elementary_components(g)
print("\npieces:")
for piece in cm.pieces:
    us = sorted(f"u{i + 1}" for i in piece.u_vertices)
    ws = sorted(f"w{j + 1}" for j in piece.w_vertices)
    print(f"  {piece.kind}: {us} + {ws} <-> strong component "
          f"{sorted(piece.scc)}")

m = first_perfect_matching(g)
d, _ = digraph_of(g, m)
print("\nderived digraph:", d.sorted_arcs())
print("its strong components:", [sorted(c) for c in strong_components(d)])
# the pieces are read off the strong components of one derived digraph, so
# they align with them by construction; the tests check them against the
# components of the non-fixed subgraph found by enumerating perfect matchings
