"""Decorated dual graphs: a multigraph, a level ell, a multiplicity index M
and optional genus labels, plus the contractions and admissibility tests
that read off stack structure from the decoration."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .cochains import OneCochain, ZeroCochain, boundary
from .graphs import GraphError, Multigraph, contract_edges
from .modular import inverse_mod


class DecorationError(ValueError):
    """Invalid decorated-graph data."""


def prime_factors(ell: int) -> dict[int, int]:
    """Prime factorization as {p: exponent}."""
    out: dict[int, int] = {}
    n = ell
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def val_p(n: int, p: int) -> float:
    """p-adic valuation of the representative n; val_p(0) is +infinity."""
    if n == 0:
        return float("inf")
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


@dataclass(frozen=True)
class DecoratedGraph:
    graph: Multigraph
    ell: int
    m: OneCochain
    genus: Optional[dict[int, int]] = None

    def __post_init__(self):
        if self.ell < 1:
            raise DecorationError("level must be positive")
        if self.m.graph != self.graph or self.m.ell != self.ell:
            raise DecorationError("multiplicity index does not match the graph")
        if self.genus is not None:
            for v in self.graph.vertices:
                if self.genus.get(v, -1) < 0:
                    raise DecorationError(f"bad genus label at vertex {v}")

    @classmethod
    def from_edge_values(cls, graph, ell, edge_values, genus=None):
        return cls(graph, ell, OneCochain(graph, ell, edge_values), genus)

    def m_value(self, e: int) -> int:
        """M on the tail -> head dart of e."""
        return self.m.on_edge(e)

    def zero_edges(self) -> frozenset[int]:
        return frozenset(e for e in self.graph.edge_ids if self.m_value(e) == 0)

    def is_faithful(self) -> bool:
        """True when no edge carries a trivial stabilizer (M(e) = 0)."""
        return not self.zero_edges()

    def with_genus(self, genus: Optional[dict[int, int]]) -> "DecoratedGraph":
        return DecoratedGraph(self.graph, self.ell, self.m, genus)

    def scale(self, c: int) -> "DecoratedGraph":
        return DecoratedGraph(self.graph, self.ell, self.m.scale(c), self.genus)


def restrict_decoration(d: DecoratedGraph, contraction) -> DecoratedGraph:
    """Carry M (and genus by summing merged vertices) onto a contraction."""
    g = contraction.graph
    vals = {e: d.m_value(e) for e in g.edge_ids}
    genus = None
    if d.genus is not None:
        genus = {v: 0 for v in g.vertices}
        for v in d.graph.vertices:
            genus[contraction.vertex_map[v]] += d.genus[v]
    return DecoratedGraph(g, d.ell, OneCochain(g, d.ell, vals), genus)


def contract_decorated(d: DecoratedGraph, edges) -> DecoratedGraph:
    return restrict_decoration(d, contract_edges(d.graph, edges))


def gamma0(d: DecoratedGraph) -> tuple[DecoratedGraph, dict[int, int]]:
    """Contract exactly the M = 0 edges; the result is faithful."""
    con = contract_edges(d.graph, d.zero_edges())
    return restrict_decoration(d, con), con.edge_map


def gamma_nu(d: DecoratedGraph, p: int, k: int) -> Multigraph:
    """Contract every edge whose M value is divisible by p^k.

    Divisibility is read off the integer representative in [0, ell);
    M(e) = 0 counts as divisible by everything.
    """
    fac = prime_factors(d.ell)
    if p not in fac:
        raise DecorationError(f"{p} does not divide the level {d.ell}")
    if not 1 <= k <= fac[p]:
        raise DecorationError(f"k must lie in 1..{fac[p]}")
    f = [e for e in d.graph.edge_ids if val_p(d.m_value(e), p) >= k]
    return contract_edges(d.graph, f).graph


def gamma_p(d: DecoratedGraph, p: int) -> Multigraph:
    fac = prime_factors(d.ell)
    if p not in fac:
        raise DecorationError(f"{p} does not divide the level {d.ell}")
    return gamma_nu(d, p, fac[p])


def stabilizer_order(d: DecoratedGraph, e: int) -> int:
    """Order of the local stabilizer at the node e: ell / gcd(M(e), ell)."""
    import math

    return d.ell // math.gcd(d.m_value(e), d.ell)


def multidegree(d: DecoratedGraph) -> ZeroCochain:
    """The boundary of M: per-vertex sum of incoming multiplicities."""
    return boundary(d.m)


def genus_labeling(d: DecoratedGraph, k: int) -> Optional[dict[int, int]]:
    """Nonnegative genus labels satisfying the multidegree condition

        sum_{e into v} M(e) = k (2 g_v - 2 + N_v)  (mod ell)

    with N_v the number of half-edges at v.  Labels are the minimal
    residues, bumped by +ell at any genus-0 vertex of degree < 3 to keep
    stability.  Returns None when no solution exists.
    """
    ell = d.ell
    k = k % ell
    dm = multidegree(d)
    import math

    genus = {}
    for v in d.graph.vertices:
        n_v = d.graph.degree(v)
        rhs = (dm(v) - k * (n_v - 2)) % ell
        two_k = (2 * k) % ell
        if math.gcd(two_k, ell) == 1:
            g_v = (rhs * inverse_mod(two_k, ell)) % ell
        else:
            # 2k is not invertible (k = 0, or ell even); solvable only when
            # the right side is killed by every choice, i.e. rhs in 2k Z/ell
            g = math.gcd(two_k, ell)
            if rhs % g != 0:
                return None
            if two_k == 0:
                g_v = 0
            else:
                # smallest nonnegative solution of two_k * g_v = rhs
                g_v = next(
                    x for x in range(ell) if (two_k * x - rhs) % ell == 0
                )
        if g_v == 0 and n_v < 3:
            g_v += ell
        genus[v] = g_v
    return genus


def total_genus(d: DecoratedGraph) -> int:
    """Sum of the genus labels plus the first Betti number of the graph."""
    if d.genus is None:
        raise DecorationError("genus labels missing")
    from .graphs import betti1

    return sum(d.genus[v] for v in d.graph.vertices) + betti1(d.graph)


def root_count(g: int, ell: int) -> int:
    """Number of ell-th roots of a fixed line bundle on a genus g curve."""
    return ell ** (2 * g)


def _integer(item, key: str, what: str) -> int:
    """item[key] when item is an object and the value an integer (not a bool)."""
    value = item.get(key) if isinstance(item, dict) else item
    if not isinstance(item, dict) or isinstance(value, bool) or not isinstance(value, int):
        raise DecorationError(f"{what}: {key!r} must be an integer in an object, got {value!r}")
    return value


def decorated_from_dict(data: dict) -> DecoratedGraph:
    """Build a decorated graph from the JSON object layout.

    Vertices and edges are objects; ell, id, tail, head, m and a non-null
    genus are integers.  Any other input raises DecorationError.
    """
    ell = _integer(data, "ell", "decorated graph")
    raw_vertices, raw_edges = data.get("vertices"), data.get("edges")
    if not isinstance(raw_vertices, list) or not isinstance(raw_edges, list):
        raise DecorationError("vertices and edges must be lists")
    if ell < 1:
        raise DecorationError("ell must be positive")
    ids, labels = [], []
    for i, item in enumerate(raw_vertices):
        ids.append(_integer(item, "id", f"vertex {i}"))
        has_genus = item.get("genus") is not None
        labels.append(_integer(item, "genus", f"vertex {i}") if has_genus else None)
    if len(set(ids)) != len(ids):
        raise DecorationError("duplicate vertex ids")
    genus = None if None in labels else dict(zip(ids, labels))
    edges = {}
    mvals = {}
    for i, item in enumerate(raw_edges):
        what = f"edge {i}"
        edges[i] = (_integer(item, "tail", what), _integer(item, "head", what))
        mvals[i] = _integer(item, "m", what)
        if not 0 <= mvals[i] < ell:
            raise DecorationError(f"{what}: m={mvals[i]} out of range for ell={ell}")
    try:
        graph = Multigraph(ids, edges)
    except GraphError as exc:
        raise DecorationError(str(exc)) from exc
    return DecoratedGraph.from_edge_values(graph, ell, mvals, genus)


def parse_decorated(text: str) -> DecoratedGraph:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DecorationError(f"invalid JSON at position {exc.pos}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise DecorationError("top-level JSON value must be an object")
    return decorated_from_dict(data)


def decorated_to_dict(d: DecoratedGraph) -> dict:
    vertices = [
        {"genus": None if d.genus is None else d.genus[v], "id": v}
        for v in d.graph.vertices
    ]
    edges = []
    for e, (t, h) in d.graph.edges.items():
        m = d.m_value(e)
        if t > h:
            t, h, m = h, t, (-m) % d.ell
        edges.append({"head": h, "m": m, "tail": t})
    edges.sort(key=lambda item: (item["tail"], item["head"], item["m"]))
    return {"edges": edges, "ell": d.ell, "vertices": vertices}


def serialize_decorated(d: DecoratedGraph) -> str:
    """Bit-stable JSON form: sorted keys, sorted edges, tail <= head."""
    return json.dumps(decorated_to_dict(d), sort_keys=True, indent=2) + "\n"
