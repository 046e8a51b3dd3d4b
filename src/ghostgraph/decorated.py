"""Decorated dual graphs: a multigraph, a level ell, a multiplicity index M
and optional genus labels, plus the contractions and admissibility tests
that read off stack structure from the decoration."""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Optional

from .cochains import OneCochain, ZeroCochain, boundary
from .graphs import GraphError, Multigraph, SizeBoundExceeded, betti1, contract_edges


class DecorationError(ValueError):
    """Invalid decorated-graph data."""


# Largest level any computation accepts.  Checked in prime_factors, before
# its trial division; at this level a two-edge vine still gets its full
# report (admissible_k and the age search are linear in ell) within a second.
MAX_LEVEL = 100_003


def prime_factors(ell: int) -> dict[int, int]:
    """Prime factorization as {p: exponent}, for 1 <= ell <= MAX_LEVEL."""
    if ell > MAX_LEVEL:
        raise SizeBoundExceeded(
            f"level bound MAX_LEVEL = {MAX_LEVEL} exceeded: ell = {ell}",
            "MAX_LEVEL", MAX_LEVEL, ell,
        )
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


def is_prime(ell: int) -> bool:
    return list(prime_factors(ell).values()) == [1]


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
        return frozenset(self.graph.edge_ids) - self.m.support()

    def is_faithful(self) -> bool:
        """True when no edge carries a trivial stabilizer (M(e) = 0)."""
        return len(self.m.support()) == self.graph.n_edges

    def with_genus(self, genus: Optional[dict[int, int]]) -> "DecoratedGraph":
        return DecoratedGraph(self.graph, self.ell, self.m, genus)

    def scale(self, c: int) -> "DecoratedGraph":
        return DecoratedGraph(self.graph, self.ell, self.m.scale(c), self.genus)


def contract_decorated(d: DecoratedGraph, edges) -> DecoratedGraph:
    """Contract the edges, carrying M along and summing merged genus labels."""
    g, vertex_map = contract_edges(d.graph, edges)
    genus = None
    if d.genus is not None:
        genus = {v: 0 for v in g.vertices}
        for v in d.graph.vertices:
            genus[vertex_map[v]] += d.genus[v]
    vals = {e: d.m_value(e) for e in g.edge_ids}
    return DecoratedGraph(g, d.ell, OneCochain(g, d.ell, vals), genus)


def gamma0(d: DecoratedGraph) -> DecoratedGraph:
    """Contract exactly the M = 0 edges; the result is faithful.  A faithful
    d is returned as it is."""
    if d.is_faithful():
        return d
    return contract_decorated(d, d.zero_edges())


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
    f = [e for e in d.graph.edge_ids if d.m_value(e) % p**k == 0]
    return contract_edges(d.graph, f).graph


def gamma_p(d: DecoratedGraph, p: int) -> Multigraph:
    return gamma_nu(d, p, prime_factors(d.ell).get(p, 1))


def stabilizer_order(d: DecoratedGraph, e: int) -> int:
    """Order of the local stabilizer at the node e: ell / gcd(M(e), ell)."""
    return d.ell // math.gcd(d.m_value(e), d.ell)


def multidegree(d: DecoratedGraph) -> ZeroCochain:
    """The boundary of M: per-vertex sum of incoming multiplicities."""
    return boundary(d.m)


def _multidegree_table(d: DecoratedGraph) -> dict[int, tuple[int, int]]:
    """vertex -> (multidegree, number of half-edges N_v), computed on the
    first call and kept on d (in its ``__dict__``, as d is frozen)."""
    if "_multidegree_table" not in d.__dict__:
        dm = multidegree(d)
        d.__dict__["_multidegree_table"] = {v: (dm(v), d.graph.degree(v)) for v in d.graph.vertices}
    return d.__dict__["_multidegree_table"]


def _solvable(table, step: int, k: int) -> bool:
    """2k g = dm - k (N - 2) mod ell has a solution g at every vertex
    exactly when step = gcd(2k, ell) divides each right side."""
    return all((dm - k * (n_v - 2)) % step == 0 for dm, n_v in table.values())


def genus_labeling(d: DecoratedGraph, k: int) -> Optional[dict[int, int]]:
    """Nonnegative genus labels satisfying the multidegree condition

        sum_{e into v} M(e) = k (2 g_v - 2 + N_v)  (mod ell)

    with N_v the number of half-edges at v.  Labels are the minimal
    residues, bumped by +ell at any genus-0 vertex of degree < 3 to keep
    stability.  Returns None when no solution exists.
    """
    ell = d.ell
    k = k % ell
    table = _multidegree_table(d)
    step = math.gcd(2 * k, ell)
    if not _solvable(table, step, k):
        return None
    # 2k g = rhs mod ell  <=>  (2k/s) g = rhs/s mod n, with s = gcd(2k, ell)
    # and n = ell/s; the smallest nonnegative solution lies in [0, n)
    n = ell // step
    inv = pow(2 * k // step, -1, n)
    genus = {}
    for v, (dm, n_v) in table.items():
        rhs = (dm - k * (n_v - 2)) % ell
        g_v = (rhs // step) * inv % n
        if g_v == 0 and n_v < 3:
            g_v += ell
        genus[v] = g_v
    return genus


def admissible_k(d: DecoratedGraph) -> frozenset[int]:
    """Every k in range(ell) for which genus_labeling(d, k) has a solution,
    from one multidegree for all k.  Solvability depends on k only through
    s = gcd(2k, ell) and k mod s, so the vertices are walked once per such
    pair: twice at an odd prime level."""
    table = _multidegree_table(d)
    solvable = functools.cache(lambda step, r: _solvable(table, step, r))
    return frozenset(
        k for k in range(d.ell) if solvable(step := math.gcd(2 * k, d.ell), k % step)
    )


def total_genus(d: DecoratedGraph) -> int:
    """Sum of the genus labels plus the first Betti number of the graph."""
    if d.genus is None:
        raise DecorationError("genus labels missing")
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
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise DecorationError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:  # arrays or objects nested past the stack
        raise DecorationError("invalid JSON: nested too deeply") from exc
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
