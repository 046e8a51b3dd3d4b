"""Enumerating junior strata at a fixed level.

classify_junior scans every loopless, bridgeless base graph that can
support a junior ghost at level ell (fewer than ell edges suffices),
every faithful decoration, and groups the junior ones into isomorphism
classes: the orbits of the base graph's automorphisms, which act by
permuting edges and negating M on an edge whose ends they swap.  The
orbit size of a class is its number of labelled decorations.  By default only closure-maximal classes are reported: those
whose junior witnesses never vanish on an edge, so no further
contraction stays junior; those tables skip, unscanned, the base graphs
with a vertex that has two neighbours, one of them joined by a single
edge, as they carry no maximal class.  A class keeps its base graph and
its decoration as integers in edge-id order (c.graph, c.row).
"""

from collections import Counter

from ghostgraph import classify_junior, vine_notation

for ell in (2, 3, 5, 7):
    classes = classify_junior(ell, k=1, only_maximal=True)
    print(f"level {ell}: {len(classes)} maximal junior classes at k=1")
    by_shape = Counter((c.graph.n_vertices, c.graph.n_edges) for c in classes)
    for (n_v, n_e), count in sorted(by_shape.items()):
        print(f"   {count} classes on graphs with {n_v} vertices, {n_e} edges")

# Vine classes (two vertices) have a compact notation: the sorted tuple
# of twist values, normalized by unit scaling.
print("\nlevel 5, k=1 vines:")
for c in classify_junior(5, k=1, only_maximal=True):
    if c.vine is not None:
        print(f"   {vine_notation(c.decorated)}  age {c.age}  "
              f"orbit size {c.orbit_size}")

# The k parameter filters by which twist powers admit a consistent
# genus labeling; k=0 is the most restrictive.
print("\nlevel 7, k=0 classes (all vines):")
for c in classify_junior(7, k=0, only_maximal=True):
    print(f"   {vine_notation(c.decorated)}  age {c.age}")

# Beyond vines, level 7 at k=1 also has classes on the doubled triangle
# (three vertices, six edges) and on the doubled-complete-graph shape
# with four vertices; their minimal witnesses are all-ones with age 6/7.
print("\nlevel 7, k=1 non-vine classes:")
for c in classify_junior(7, k=1, only_maximal=True):
    g = c.graph
    if c.vine is None:
        print(f"   {g.n_vertices} vertices, {g.n_edges} edges, "
              f"M={list(c.row)}, age {c.age}")
