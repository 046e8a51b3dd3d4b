"""Connected multigraphs with loops and parallel edges.

Edges are stored as ``edge id -> (tail, head)``.  A dart (half-edge) is a
pair ``(edge_id, side)`` where side 0 runs tail -> head and side 1 is the
conjugate dart.  Contractions keep the surviving edge ids, so functions on
the edges of a contraction are literally functions on a subset of the
original edges.  Canonical codes are computed in numpy, imported by the
encoder when it runs.
"""

from __future__ import annotations

import itertools
from types import MappingProxyType
from typing import Callable, Container, Iterable, Mapping, NamedTuple, Optional

Dart = tuple[int, int]

MAX_CODE_VERTICES = 8


class GraphError(ValueError):
    """Invalid graph data or arguments."""


class SizeBoundExceeded(RuntimeError):
    """A configured enumeration or expansion bound was exceeded: ``bound``
    names it, ``limit`` is its value and ``requested`` the size asked for."""

    def __init__(self, message: str, bound: str, limit, requested):
        super().__init__(message)
        self.bound, self.limit, self.requested = bound, limit, requested


class Multigraph:
    """Connected multigraph.  Its vertices and edges never change; its
    bridges are kept on it from the first ``separating_edges`` request.

    Each vertex's darts are stored once, in edge-id order; every incidence
    question (darts, degree, neighbors, tree walks) reads that list.
    """

    __slots__ = ("_vertices", "_edges", "_edge_ids", "_darts", "_bridges")

    def __init__(self, vertices: Iterable[int], edges):
        vs = tuple(sorted(set(int(v) for v in vertices)))
        if not vs:
            raise GraphError("graph needs at least one vertex")
        if isinstance(edges, Mapping):
            items = [(int(e), (int(t), int(h))) for e, (t, h) in edges.items()]
        else:
            items = [(i, (int(t), int(h))) for i, (t, h) in enumerate(edges)]
        items.sort()
        ids = [e for e, _ in items]
        if len(set(ids)) != len(ids):
            raise GraphError("duplicate edge ids")
        darts: dict[int, list[Dart]] = {v: [] for v in vs}
        for e, (t, h) in items:
            if t not in darts or h not in darts:
                raise GraphError(f"edge {e} touches unknown vertex")
            darts[t].append((e, 0))
            darts[h].append((e, 1))
        self._vertices = vs
        self._edges = dict(items)
        self._edge_ids = tuple(ids)
        self._darts = darts
        self._bridges = None
        # connected iff a BFS over every edge reaches every vertex
        if len(_rooted_tree(self, self._edges)[0]) != len(vs):
            raise GraphError("graph is not connected")

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def edges(self) -> Mapping[int, tuple[int, int]]:
        return MappingProxyType(self._edges)

    @property
    def edge_ids(self) -> tuple[int, ...]:
        return self._edge_ids

    @property
    def n_vertices(self) -> int:
        return len(self._vertices)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def ends(self, e: int) -> tuple[int, int]:
        try:
            return self._edges[e]
        except KeyError:
            raise GraphError(f"unknown edge id {e}") from None

    def is_loop(self, e: int) -> bool:
        t, h = self.ends(e)
        return t == h

    def loops(self) -> frozenset[int]:
        return frozenset(e for e, (t, h) in self._edges.items() if t == h)

    def conj(self, d: Dart) -> Dart:
        e, s = d
        self.ends(e)
        return (e, 1 - s)

    def tail(self, d: Dart) -> int:
        e, s = d
        t, h = self.ends(e)
        return t if s == 0 else h

    def head(self, d: Dart) -> int:
        return self.tail((d[0], 1 - d[1]))

    def darts_at(self, v: int) -> list[Dart]:
        """All darts with tail v; a loop contributes both of its darts."""
        try:
            return list(self._darts[v])
        except KeyError:
            raise GraphError(f"unknown vertex {v}") from None

    def degree(self, v: int) -> int:
        return len(self.darts_at(v))

    def neighbors(self, v: int) -> set[int]:
        return {self._edges[e][1 - s] for e, s in self.darts_at(v)} - {v}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Multigraph)
            and self._vertices == other._vertices
            and self._edges == other._edges
        )

    def __hash__(self) -> int:
        return hash((self._vertices, tuple(sorted(self._edges.items()))))

    def __repr__(self) -> str:
        es = ", ".join(f"{e}:{t}-{h}" for e, (t, h) in self._edges.items())
        return f"Multigraph(V={list(self._vertices)}, E={{{es}}})"


class Contraction(NamedTuple):
    graph: Multigraph
    vertex_map: dict[int, int]


def spanning_forest(g: Multigraph, edges: Iterable[int]) -> tuple[list[int], dict[int, int]]:
    """Kruskal over ``edges`` in the order given.

    Returns the edges that joined two components, in that order, and for
    every vertex the smallest vertex of its component.
    """
    parent = {v: v for v in g.vertices}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    joined = []
    for e in edges:
        t, h = g.ends(e)
        rt, rh = find(t), find(h)
        if rt != rh:
            # the smaller root stays a root, so each root is its class minimum
            parent[max(rt, rh)] = min(rt, rh)
            joined.append(e)
    return joined, {v: find(v) for v in g.vertices}


def contract_edges(g: Multigraph, f: Iterable[int]) -> Contraction:
    """Contract the edge set f; surviving edges keep their ids.

    Vertices merged along f are renamed to the smallest original id of
    their merged class.  Loops created by the contraction are kept.  An
    empty f gives g itself with the identity map.
    """
    fset = set(f)
    if not fset:
        return Contraction(g, {v: v for v in g._vertices})
    _, vertex_map = spanning_forest(g, fset)
    new_edges = {
        e: (vertex_map[t], vertex_map[h])
        for e, (t, h) in g.edges.items()
        if e not in fset
    }
    return Contraction(Multigraph(vertex_map.values(), new_edges), vertex_map)


def separating_edges(g: Multigraph) -> frozenset[int]:
    """The bridges of g (Tarjan 1974): the BFS tree's edge into c is one
    exactly when no other edge leaves the preorder interval below c.  Loops
    and parallel edges never are.  Computed once and kept on g."""
    if g._bridges is not None:
        return g._bridges
    order, parent, _ = _rooted_tree(g, g._edges)
    start, size = _intervals(g, order, parent)
    # low[v], high[v]: the least and greatest number reached from below v by
    # an edge other than the one into v (tree edges down stay in the interval)
    low, high = dict(start), dict(start)
    bridges = []
    for c, (e, s) in reversed(parent.items()):
        lo, hi = low[c], high[c]
        for f, r in g._darts[c]:
            if f != e:
                y = start[g._edges[f][1 - r]]
                if y < lo:
                    lo = y
                elif y > hi:
                    hi = y
        if start[c] <= lo and hi < start[c] + size[c]:
            bridges.append(e)
        p = g._edges[e][s]
        low[p], high[p] = min(low[p], lo), max(high[p], hi)
    g._bridges = frozenset(bridges)
    return g._bridges


def spanning_tree(g: Multigraph) -> frozenset[int]:
    """Lowest-edge-id spanning tree (Kruskal on edge ids)."""
    return frozenset(spanning_forest(g, sorted(g.edge_ids))[0])


def _rooted_tree(
    g: Multigraph, tset: Container[int]
) -> tuple[list[int], dict[int, Dart], dict[int, int]]:
    """BFS from the first vertex over the edges in tset: the vertices it
    reaches in BFS order, the dart from its parent into each of them but
    the root, and each one's depth.  On a spanning tree this roots it."""
    root = g.vertices[0]
    order, parent, depth = [root], {}, {root: 0}
    for x in order:
        for e, s in g._darts[x]:
            y = g._edges[e][1 - s]
            if e in tset and y not in depth:
                parent[y], depth[y] = (e, s), depth[x] + 1
                order.append(y)
    return order, parent, depth


def _rooted_spanning_tree(g: Multigraph, t: Iterable[int]):
    """t as a set and ``_rooted_tree`` over it, once t is checked to be a spanning tree."""
    tset = frozenset(t)
    for e in tset:  # raises on an id that names no edge of g
        g.ends(e)
    if len(tset) != g.n_vertices - 1:
        raise GraphError("not a spanning tree: wrong edge count")
    order, parent, depth = _rooted_tree(g, tset)
    if len(order) != g.n_vertices:  # #V - 1 edges missing a vertex close a circuit
        raise GraphError("not a spanning tree: contains a circuit")
    return tset, order, parent, depth


def _intervals(g: Multigraph, order: list[int], parent: dict[int, Dart]):
    """Preorder numbers of the tree that ``_rooted_tree`` roots: the subtree
    below v takes the numbers [start[v], start[v] + size[v])."""
    up = {v: g._edges[e][s] for v, (e, s) in parent.items()}
    size = dict.fromkeys(order, 1)
    for v in reversed(order[1:]):
        size[up[v]] += size[v]
    # the children of v take consecutive intervals after v's own number
    start, free = {order[0]: 0}, {order[0]: 1}
    for v in order[1:]:
        start[v] = free[up[v]]
        free[up[v]] += size[v]
        free[v] = start[v] + 1
    return start, size


def fundamental_circuits(g: Multigraph, t: Iterable[int]) -> list[list[Dart]]:
    """One circuit per non-tree edge: the edge followed by the tree path back.

    A loop yields a length-1 circuit.
    """
    tset, _, parent, depth = _rooted_spanning_tree(g, t)
    circuits = []
    for e in sorted(set(g.edge_ids) - tset):
        # climb from both ends to where they meet: up from the head, down to the tail
        tail, head = g.ends(e)
        up, down = [(e, 0)], []
        while head != tail:
            if depth[head] >= depth[tail]:
                up.append(g.conj(parent[head]))
                head = g.tail(parent[head])
            else:
                down.append(parent[tail])
                tail = g.tail(parent[tail])
        circuits.append(up + down[::-1])
    return circuits


def betti1(g: Multigraph) -> int:
    return g.n_edges - g.n_vertices + 1


def is_tree_like(g: Multigraph) -> bool:
    """True iff every circuit of g is a loop, i.e. the non-loop edges form a
    spanning tree of the connected graph g."""
    return sum(t != h for t, h in g._edges.values()) == g.n_vertices - 1


def _degree_orderings(g: Multigraph) -> list[tuple[int, ...]]:
    """Every ordering of the vertex indices by ascending degree, the first
    keeping each degree class in vertex order.  There are prod(class size!)
    of them, so the vertex count is bounded by ``MAX_CODE_VERTICES``."""
    if g.n_vertices > MAX_CODE_VERTICES:
        raise SizeBoundExceeded(
            f"canonical_code limited to {MAX_CODE_VERTICES} vertices, "
            f"asked for {g.n_vertices}",
            "MAX_CODE_VERTICES", MAX_CODE_VERTICES, g.n_vertices,
        )
    classes: dict[int, list[int]] = {}
    for i, v in enumerate(g.vertices):
        classes.setdefault(g.degree(v), []).append(i)
    parts = [itertools.permutations(classes[d]) for d in sorted(classes)]
    return [sum(perm_parts, ()) for perm_parts in itertools.product(*parts)]


def _end_positions(g: Multigraph):
    """The vertex indices of each edge's tail and head, in edge-id order."""
    import numpy as np

    index = {v: i for i, v in enumerate(g.vertices)}
    ends = [(index[t], index[h]) for t, h in g.edges.values()]
    return np.array(ends, int).reshape(-1, 2).T


def _minimal_orderings(g: Multigraph):
    """The degree orderings that give g, without labels, its least
    encoding.  They form one coset of the automorphisms of g, so the least
    encoding of a labelled row over them is again a complete invariant of
    the row up to isomorphism, though not always its least encoding over
    every ordering.  The 5-cycle has 10 of them against 120 orderings."""
    import numpy as np

    orderings = np.array(_degree_orderings(g))
    if not g.n_edges:
        return orderings
    position = np.argsort(orderings, axis=1)
    tails, heads = _end_positions(g)
    a, b = position[:, tails], position[:, heads]
    enc = np.sort(np.minimum(a, b) * g.n_vertices + np.maximum(a, b), axis=1)
    least = enc[np.lexsort(enc.T[::-1])[0]]
    return orderings[(enc == least).all(axis=1)]


def least_encodings(g: Multigraph, rows, ell: int = 1, _orderings=None):
    """The least encoding of each row of edge labels over the degree
    orderings (over ``_orderings`` when given), as an int array shaped
    like ``rows``.

    A row labels the edges, in edge-id order, by residues mod ell read from
    tail to head.  Under an ordering, an edge with ends at positions a <= b
    is coded (a #V + b) ell + m, for m its label read from a to b: reversing
    a dart negates the label, and a loop keeps the lesser of m and -m.  A
    row's encoding is its sorted edge codes, so two labelled graphs are
    isomorphic exactly when their least encodings are equal.
    """
    import numpy as np

    n_v = g.n_vertices
    orderings = _degree_orderings(g) if _orderings is None else _orderings
    position = np.argsort(orderings, axis=1)  # row o: each vertex's position
    tails, heads = _end_positions(g)
    fwd = np.asarray(rows, int) % ell
    back = -fwd % ell
    fwd = np.where(tails == heads, np.minimum(fwd, back), fwd)
    # above every edge code; a level past int64 raises OverflowError here
    best = np.full(fwd.shape, n_v * n_v * ell, dtype=int)
    if not g.n_edges:  # a single vertex: every encoding is empty
        return best
    at = np.arange(len(fwd))
    a, b = position[:, tails], position[:, heads]
    for pair, flip in zip((np.minimum(a, b) * n_v + np.maximum(a, b)) * ell, a > b):
        enc = np.sort(pair + np.where(flip, back, fwd), axis=1)
        # lexicographic comparison at each row's first differing column
        col = (enc != best).argmax(axis=1)
        less = enc[at, col] < best[at, col]
        best[less] = enc[less]
    return best


def code_bytes(g: Multigraph, enc, ell: int = 1) -> list[bytes]:
    """The code of each least-encoding row: the repr of the sorted vertex
    degrees and of the (a, b, m) triple of each edge code.  Each distinct
    edge code is rendered once and the rows join those strings."""
    import numpy as np

    enc = np.asarray(enc)
    prefix = repr(tuple(sorted(g.degree(v) for v in g.vertices)))
    values, inverse = np.unique(enc, return_inverse=True)
    triples = [repr((*divmod(c // ell, g.n_vertices), c % ell)) for c in values.tolist()]
    # a 1-tuple keeps its trailing comma
    end = ",))" if g.n_edges == 1 else "))"
    return [
        f"({prefix}, ({', '.join([triples[i] for i in row])}{end}".encode("ascii")
        for row in inverse.reshape(enc.shape).tolist()
    ]


def canonical_code(
    g: Multigraph, labels: Optional[Mapping[int, int]] = None, ell: int = 1
) -> bytes:
    """Isomorphism-invariant code of g with edge labels mod ell (all 0
    without ``labels``), where an isomorphism may reverse darts and
    reversing a dart negates its label: the one-row ``code_bytes``, for at
    most ``MAX_CODE_VERTICES`` vertices."""
    row = [labels[e] for e in g.edge_ids] if labels is not None else [0] * g.n_edges
    return code_bytes(g, least_encodings(g, [row], ell), ell)[0]


# pair multisets streamed per block, and entries per temporary array, in
# enumerate_base_graphs
_BLOCK = 1 << 14
_TEMP = 1 << 20


def _greatest(counts, moved):
    """The indices of the rows of ``counts`` (pair multiplicities, pairs in
    ascending order) that no relabelling makes greater.  A sorted pair list
    is greater than another exactly when, at the first pair whose
    multiplicities differ, it has fewer of that pair.  ``moved[p]`` gathers
    the multiplicities under one relabelling; chunks of relabellings are
    tested against the rows still standing, each temporary at most
    ``_TEMP`` entries."""
    import numpy as np

    keep = np.arange(len(counts))
    done = 0
    while keep.size and done < len(moved):
        step = max(1, _TEMP // (keep.size * counts.shape[1]))
        rows = counts[keep]
        relabelled = rows[:, moved[done : done + step]]
        first = (relabelled != rows[:, None]).argmax(axis=2)
        greater = np.take_along_axis(relabelled, first[..., None], 2)[..., 0] < np.take_along_axis(
            rows, first, 1
        )
        keep = keep[~greater.any(axis=1)]
        done += step
    return keep


def enumerate_base_graphs(
    max_edges: int, keep: Optional[Callable[[Multigraph], bool]] = None
) -> list[Multigraph]:
    """All connected loopless bridgeless multigraphs with >= 2 vertices and
    at most ``max_edges`` edges, one per isomorphism class; with ``keep``
    given, only those it accepts, tested before their codes are computed.

    Every vertex necessarily has degree >= 2, so #V <= #E.  Each class comes
    in its greatest labelling: vertices ``range(#V)``, edge ids numbering the
    pairs (t < h) in ascending order, and no vertex permutation gives a
    greater sorted pair list.  The snapshots are written in this labelling.
    The pair multisets are streamed in blocks of ``_BLOCK`` through two
    array filters: every vertex met at least twice (bitmasks of the vertices
    met once and twice), then the greatest labelling against every vertex
    permutation at once.  Deterministic order: (edge count, vertex count,
    canonical code).
    """
    import numpy as np

    if max_edges > MAX_CODE_VERTICES:
        raise SizeBoundExceeded(
            f"enumerate_base_graphs limited to {MAX_CODE_VERTICES} edges, "
            f"asked for {max_edges}",
            "MAX_CODE_VERTICES", MAX_CODE_VERTICES, max_edges,
        )
    kept = []
    for nv in range(2, max_edges + 1):
        pairs = list(itertools.combinations(range(nv), 2))
        tails, heads = np.array(pairs).T
        index = np.zeros((nv, nv), int)
        index[tails, heads] = index[heads, tails] = np.arange(len(pairs))
        perms = np.array(list(itertools.permutations(range(nv)))[1:]).reshape(-1, nv)
        moved = index[perms[:, tails], perms[:, heads]]  # moved[p, i]: pair i under p
        ends = 1 << tails | 1 << heads  # each pair's ends as a vertex bitmask
        for ne in range(nv, max_edges + 1):
            multisets = itertools.combinations_with_replacement(range(len(pairs)), ne)
            while (block := np.fromiter(
                itertools.chain.from_iterable(itertools.islice(multisets, _BLOCK)), np.int8
            ).reshape(-1, ne)).size:
                once, twice = np.zeros((2, len(block)), int)
                for col in ends[block].T:
                    twice |= once & col
                    once |= col
                block = block[twice == (1 << nv) - 1]
                cells = block + len(pairs) * np.arange(len(block))[:, None]
                counts = np.bincount(cells.ravel(), minlength=len(block) * len(pairs))
                for chosen in block[_greatest(counts.reshape(-1, len(pairs)), moved)].tolist():
                    try:
                        g = Multigraph(range(nv), [pairs[i] for i in chosen])
                    except GraphError:  # not connected
                        continue
                    if not separating_edges(g) and (keep is None or keep(g)):
                        kept.append(((ne, nv, canonical_code(g)), g))
    kept.sort(key=lambda item: item[0])
    return [g for _, g in kept]
