"""Independent brute-force oracles.

Everything here recomputes results from first principles: membership in
im delta by enumerating all potentials, ghost groups by testing every
even function, bridges by edge removal, and the junior classification by
a labelled no-pruning pipeline.  The implementations deliberately avoid
the library's own algorithms (circuit tests, cut bases, vectorized
scans) so agreement is meaningful.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from ghostgraph import DecoratedGraph, Multigraph, OneCochain, canonical_code
from ghostgraph.classify import decoration_code


# ---------------------------------------------------------------------------
# graph corpus


def connected_multigraphs(max_edges: int, dedup: bool = True):
    """All connected multigraphs (loops and bridges allowed) with at most
    max_edges edges, one per isomorphism class when dedup is set."""
    out = []
    seen = set()
    for n_v in range(1, max_edges + 2):
        pairs = [(i, j) for i in range(n_v) for j in range(i, n_v)]
        lo = max(1, n_v - 1)
        for n_e in range(lo, max_edges + 1):
            for combo in itertools.combinations_with_replacement(pairs, n_e):
                g = _build_connected(n_v, combo)
                if g is None:
                    continue
                if dedup:
                    code = canonical_code(g)
                    if code in seen:
                        continue
                    seen.add(code)
                out.append(g)
    return out


def _build_connected(n_v, combo):
    if n_v > 1:
        # connectivity via union-find on the chosen pairs
        parent = list(range(n_v))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for a, b in combo:
            parent[find(a)] = find(b)
        if len({find(v) for v in range(n_v)}) != 1:
            return None
    return Multigraph(range(n_v), list(combo))


def brute_bridges(g: Multigraph) -> set[int]:
    """Bridges by the definition: removal disconnects the graph."""
    out = set()
    for e in g.edge_ids:
        if g.is_loop(e):
            continue
        adj = {v: set() for v in g.vertices}
        for f, (t, h) in g.edges.items():
            if f == e:
                continue
            adj[t].add(h)
            adj[h].add(t)
        seen = {g.vertices[0]}
        stack = [g.vertices[0]]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != g.n_vertices:
            out.add(e)
    return out


# ---------------------------------------------------------------------------
# cochain oracles


_IMAGE_CACHE: dict = {}


def image_delta_set(g: Multigraph, ell: int) -> frozenset[tuple[int, ...]]:
    """All of im delta as tuples of forward edge values, by enumerating
    every potential.  Memoized: the oracles below call this in hot loops."""
    key = (tuple(g.vertices), tuple(sorted(g.edges.items())), ell)
    cached = _IMAGE_CACHE.get(key)
    if cached is not None:
        return cached
    edge_list = sorted(g.edges.items())
    out = set()
    for vals in itertools.product(range(ell), repeat=g.n_vertices):
        a = dict(zip(g.vertices, vals))
        out.add(tuple((a[h] - a[t]) % ell for _, (t, h) in edge_list))
    result = frozenset(out)
    _IMAGE_CACHE[key] = result
    return result


def brute_in_image_delta(b: OneCochain) -> bool:
    g = b.graph
    vec = tuple(b.on_edge(e) for e, _ in sorted(g.edges.items()))
    return vec in image_delta_set(g, b.ell)


# ---------------------------------------------------------------------------
# ghost-group oracles


def even_functions(g: Multigraph, ell: int):
    edge_ids = g.edge_ids
    for vals in itertools.product(range(ell), repeat=len(edge_ids)):
        yield dict(zip(edge_ids, vals))


def brute_ghost_set(d: DecoratedGraph) -> frozenset[tuple[int, ...]]:
    """Every even function a on the faithful graph with aM in im delta,
    as tuples of edge values.  d must already be faithful."""
    g = d.graph
    ell = d.ell
    edge_list = sorted(g.edges.items())
    image = image_delta_set(g, ell)
    out = set()
    for a in even_functions(g, ell):
        prod = tuple((a[e] * d.m_value(e)) % ell for e, _ in edge_list)
        if prod in image:
            out.add(tuple(a[e] for e, _ in edge_list))
    return frozenset(out)


def brute_qr_set(d: DecoratedGraph) -> frozenset[tuple[int, ...]]:
    """Even functions supported on bridges only (d faithful)."""
    g = d.graph
    ell = d.ell
    bridges = brute_bridges(g)
    edge_list = sorted(g.edges.items())
    out = set()
    for a in even_functions(g, ell):
        if all(a[e] == 0 for e, _ in edge_list if e not in bridges):
            out.add(tuple(a[e] for e, _ in edge_list))
    return frozenset(out)


def group_set(group) -> frozenset[tuple[int, ...]]:
    """Expand a GhostGroup into the same tuple representation."""
    g = group.decorated.graph
    edge_list = sorted(g.edges.items())
    return frozenset(
        tuple(a.on_edge(e) for e, _ in edge_list) for a in group.elements()
    )


# ---------------------------------------------------------------------------
# stratum age / juniority oracle


def _contract(g: Multigraph, m: dict[int, int], drop: set[int]):
    """Contract the edges in drop, keeping forward m values of survivors."""
    parent = {v: v for v in g.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in drop:
        t, h = g.ends(e)
        rt, rh = find(t), find(h)
        if rt != rh:
            parent[max(rt, rh)] = min(rt, rh)
    verts = sorted({find(v) for v in g.vertices})
    edges = {
        e: (find(t), find(h)) for e, (t, h) in g.edges.items() if e not in drop
    }
    g2 = Multigraph(verts, edges)
    return g2, {e: m[e] for e in edges}


def brute_stratum_age(d: DecoratedGraph):
    """Minimum age over nonzero ghosts of the loop- and bridge-free core,
    entirely by exhaustive enumeration; Fraction or None when trivial."""
    g = d.graph
    ell = d.ell
    m = {e: d.m_value(e) for e in g.edge_ids}
    # faithful part
    g, m = _contract(g, m, {e for e, v in m.items() if v == 0})
    # contract loops and bridges until none remain
    while True:
        drop = {e for e in g.edge_ids if g.is_loop(e)} | brute_bridges(g)
        if not drop:
            break
        g, m = _contract(g, m, drop)
    if g.n_edges == 0:
        return None
    edge_list = sorted(g.edges.items())
    image = image_delta_set(g, ell)
    best = None
    for a in even_functions(g, ell):
        vec = tuple(a[e] for e, _ in edge_list)
        if not any(vec):
            continue
        prod = tuple((a[e] * m[e]) % ell for e, _ in edge_list)
        if prod not in image:
            continue
        this = Fraction(sum(vec), ell)
        if best is None or this < best:
            best = this
    return best


def vine_stratum_age(ell: int, ms) -> Fraction:
    """Stratum age of the vine with edges 0 -> 1 carrying the units ms (at
    least two).  On a vine im delta is the constant cochains, so the ghosts
    are a(e) = c * M(e)^-1 for c in Z/ell."""
    inv = [pow(m, -1, ell) for m in ms]
    return min(Fraction(sum(c * i % ell for i in inv), ell) for c in range(1, ell))


# ---------------------------------------------------------------------------
# labelled no-pruning classification oracle


def brute_junior_classes(ell: int, max_edges: int):
    """Canonical codes of all junior decorated classes with loopless,
    bridgeless base and at most max_edges edges: every labelled graph,
    every decoration, no isomorphism pruning before the final dedup.

    Returns {code: (age, maximal)}.
    """
    out = {}
    for g in connected_multigraphs(max_edges, dedup=False):
        if g.loops() or brute_bridges(g) or g.n_vertices < 2:
            continue
        edge_ids = g.edge_ids
        image = image_delta_set(g, ell)
        edge_list = sorted(g.edges.items())
        for deco in itertools.product(range(1, ell), repeat=len(edge_ids)):
            m = dict(zip(edge_ids, deco))
            valid = []
            for a in even_functions(g, ell):
                vec = tuple(a[e] for e, _ in edge_list)
                if not any(vec):
                    continue
                prod = tuple((a[e] * m[e]) % ell for e, _ in edge_list)
                if prod in image:
                    valid.append(vec)
            juniors = [v for v in valid if sum(v) < ell]
            if not juniors:
                continue
            age = Fraction(min(sum(v) for v in juniors), ell)
            maximal = all(0 not in v for v in juniors)
            d = DecoratedGraph(g, ell, OneCochain(g, ell, m))
            code = decoration_code(d)
            prev = out.get(code)
            if prev is None:
                out[code] = (age, maximal)
            else:
                assert prev == (age, maximal), "class invariants must agree"
    return out
