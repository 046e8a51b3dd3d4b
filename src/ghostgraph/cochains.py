"""Exact Z/ell cochain algebra on a multigraph.

ZeroCochain: functions on vertices.  OneCochain: antisymmetric functions on
darts, b(conj e) = -b(e).  EvenFunction: symmetric functions on darts.
All three share one class body, _Cochain: a dict of values on the domain.
Dart functions store one value per edge, on the tail -> head dart;
antisymmetry and evenness are structural.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .graphs import (
    Dart,
    GraphError,
    Multigraph,
    spanning_tree,
    _intervals,
    _rooted_spanning_tree,
    _rooted_tree,
)


class CochainError(ValueError):
    """Invalid cochain data or unsolvable system."""


def _check_ell(ell: int) -> int:
    ell = int(ell)
    if ell < 1:
        raise CochainError("modulus must be positive")
    return ell


class _Cochain:
    """Z/ell values on a domain of the graph.  A subclass gives the domain,
    ``_domain(graph)``, and its element's name, singular and plural."""

    __slots__ = ("graph", "ell", "_values")

    def __init__(self, graph: Multigraph, ell: int, values: Mapping[int, int]):
        self.graph = graph
        self.ell = _check_ell(ell)
        vals = {}
        for x in self._domain(graph):
            if x not in values:
                raise CochainError(f"missing value at {self._names[0]} {x}")
            vals[x] = values[x] % self.ell
        if len(values) != len(vals):
            raise CochainError(f"values on unknown {self._names[1]}")
        self._values = vals

    def as_dict(self) -> dict[int, int]:
        return dict(self._values)

    def support(self) -> frozenset[int]:
        return frozenset(x for x, m in self._values.items() if m != 0)

    def is_zero(self) -> bool:
        return not any(self._values.values())

    def __add__(self, other):
        return type(self)(
            self.graph, self.ell, {x: m + other._values[x] for x, m in self._values.items()}
        )

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: int):
        return type(self)(self.graph, self.ell, {x: c * m for x, m in self._values.items()})

    def __eq__(self, other) -> bool:
        return (
            type(self) is type(other)
            and self.ell == other.ell
            and self.graph == other.graph
            and self._values == other._values
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.ell, tuple(sorted(self._values.items()))))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(ell={self.ell}, {self._values})"


class ZeroCochain(_Cochain):
    """Z/ell valued function on the vertices."""

    __slots__ = ()
    _names = ("vertex", "vertices")

    @staticmethod
    def _domain(graph: Multigraph) -> tuple[int, ...]:
        return graph.vertices

    def __call__(self, v: int) -> int:
        return self._values[v]


class _EdgeFunction(_Cochain):
    """Dart functions: one value per edge, on the forward dart."""

    __slots__ = ()
    _names = ("edge", "edges")

    #: multiplier applied when a dart is reversed (-1 odd, +1 even)
    SIGN = -1

    @staticmethod
    def _domain(graph: Multigraph) -> tuple[int, ...]:
        return graph.edge_ids

    @classmethod
    def from_dart_values(cls, graph: Multigraph, ell: int, dart_values: Mapping[Dart, int]):
        """Build from a full dart table, checking the symmetry rule."""
        ell = _check_ell(ell)
        edge_values = {}
        for e in graph.edge_ids:
            fwd = dart_values.get((e, 0))
            rev = dart_values.get((e, 1))
            if fwd is None or rev is None:
                raise CochainError(f"missing dart values on edge {e}")
            if (rev - cls.SIGN * fwd) % ell != 0:
                raise CochainError(f"symmetry rule violated on edge {e}")
            edge_values[e] = fwd
        return cls(graph, ell, edge_values)

    def on_edge(self, e: int) -> int:
        """Value on the tail -> head dart of e."""
        return self._values[e]

    def on_dart(self, d: Dart) -> int:
        e, s = d
        v = self._values[e]
        return v if s == 0 else (self.SIGN * v) % self.ell


class OneCochain(_EdgeFunction):
    """Antisymmetric dart function, b(conj e) = -b(e)."""

    SIGN = -1


class EvenFunction(_EdgeFunction):
    """Symmetric dart function, b(conj e) = b(e)."""

    SIGN = 1


def delta(a: ZeroCochain) -> OneCochain:
    """(delta a)(e) = a(head) - a(tail) on every dart."""
    g, values = a.graph, a._values
    return OneCochain(g, a.ell, {e: values[h] - values[t] for e, (t, h) in g.edges.items()})


def boundary(b: OneCochain) -> ZeroCochain:
    """(boundary b)(v) = sum of b over the darts pointing into v."""
    g, values = b.graph, b._values
    vals = {v: 0 for v in g.vertices}
    # each edge's forward dart points into its head, the conjugate into its tail
    for e, (t, h) in g.edges.items():
        vals[h] += values[e]
        vals[t] -= values[e]
    return ZeroCochain(g, b.ell, vals)


def pairing(x, y) -> int:
    """Bilinear pairing on C0 (sum over vertices) or C1 (sum over edges).

    On C1 the per-edge product b1(e)b2(e) is orientation independent, which
    sidesteps the 1/2 factor and works for even moduli too.
    """
    if x.ell != y.ell or x.graph != y.graph:
        raise CochainError("mismatched cochains")
    if isinstance(x, ZeroCochain) and isinstance(y, ZeroCochain):
        return sum(x(v) * y(v) for v in x.graph.vertices) % x.ell
    if isinstance(x, _EdgeFunction) and isinstance(y, _EdgeFunction):
        return sum(x.on_edge(e) * y.on_edge(e) for e in x.graph.edge_ids) % x.ell
    raise CochainError("pairing needs two cochains of the same degree")


def cut(g: Multigraph, t: Iterable[int], e: int, ell: int) -> OneCochain:
    """The cut of the tree edge e: +1 on every edge crossing from the
    tail-side component of t - e to the head-side component."""
    tset = _rooted_spanning_tree(g, t)[0]
    if e not in tset:
        raise GraphError("cut edge must lie in the spanning tree")
    reached = _rooted_tree(g, tset - {e})[2]  # the root's side
    head_in = g.ends(e)[1] in reached
    return delta(ZeroCochain(g, ell, {v: int((v in reached) == head_in) for v in g.vertices}))


def cut_basis(g: Multigraph, t: Iterable[int], ell: int) -> list[OneCochain]:
    """One cut per tree edge; a basis of im delta (#V - 1 elements).

    The tree is rooted once and numbered in preorder.  The cut of a tree
    edge is delta of the indicator of the interval of numbers below it,
    negated when the edge points towards the root.
    """
    tset, order, parent, _ = _rooted_spanning_tree(g, t)
    start, size = _intervals(g, order, parent)
    cuts = {}
    for c, (e, s) in parent.items():  # s = 0: e points from the parent into c
        lo, hi = start[c], start[c] + size[c]
        cuts[e] = OneCochain(g, ell, {
            f: (1 - 2 * s) * ((lo <= start[h] < hi) - (lo <= start[t] < hi))
            for f, (t, h) in g.edges.items()
        })
    return [cuts[e] for e in sorted(tset)]


def circuit_sum(b, circuit: list[Dart]) -> int:
    return sum(b.on_dart(d) for d in circuit) % b.ell


def _tree_potential(b: OneCochain) -> ZeroCochain:
    """The potential that agrees with b on the BFS tree over every edge, 0
    at the lowest vertex: b lies in im delta exactly when delta of it equals b."""
    g = b.graph
    order, parent, _ = _rooted_tree(g, g.edges)
    vals = {order[0]: 0}
    for v, d in parent.items():
        vals[v] = (vals[g.tail(d)] + b.on_dart(d)) % b.ell
    return ZeroCochain(g, b.ell, vals)


def in_image_delta(b: OneCochain) -> bool:
    """True iff b lies in im delta, i.e. sums to 0 over every circuit."""
    return delta(_tree_potential(b)) == b


def solve_delta(b: OneCochain) -> ZeroCochain:
    """A potential a with delta a = b, normalized to 0 at the lowest vertex."""
    a = _tree_potential(b)
    if delta(a) != b:
        raise CochainError("cochain is not in the image of delta")
    return a


def solve_boundary(d0: ZeroCochain) -> OneCochain:
    """A one-cochain M with boundary M = d0, supported on a spanning tree.

    Solvable iff the values of d0 sum to zero; built leaf-to-root.
    """
    g = d0.graph
    ell = d0.ell
    if sum(d0(v) for v in g.vertices) % ell != 0:
        raise CochainError("total sum nonzero: no solution")
    # spanning_tree is valid by construction: root it unchecked
    _, parent, _ = _rooted_tree(g, spanning_tree(g))
    remaining = d0.as_dict()
    vals = {e: 0 for e in g.edge_ids}
    # deepest first, each vertex settles its need on the edge from its parent
    for v, (e, s) in reversed(parent.items()):
        # orient what v still needs into v; the parent gives it up
        vals[e] = remaining[v] if s == 0 else -remaining[v]
        remaining[g.tail((e, s))] += remaining[v]
    m = OneCochain(g, ell, vals)
    if boundary(m) != d0:
        raise CochainError("internal error: boundary solve failed")
    return m
