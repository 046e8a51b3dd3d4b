"""Ghost automorphism groups of a decorated graph.

A ghost automorphism is an even Z/ell function a on the faithful part of
the graph; it belongs to the automorphism group of the root iff the odd
cochain a*M lies in im delta.  At a prime level every M(e) there is a unit,
so the ghosts are exactly a = delta(phi) * M^-1, one for each potential phi
in (Z/ell)^V up to constants.  Ages are exact rationals; the stratum age
minimizes over the quotient graph with loops and separating edges
contracted, which quotients out the quasireflections, by branch-and-bound
over potentials.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .cochains import (
    EvenFunction,
    OneCochain,
    cut_basis,
    in_image_delta,
    spanning_tree,
)
from .decorated import (
    DecoratedGraph,
    DecorationError,
    contract_decorated,
    gamma0,
    gamma_p,
    gamma_nu,
    prime_factors,
)
from .graphs import (
    Multigraph,
    SizeBoundExceeded,
    is_tree_like,
    separating_edges,
    spanning_forest,
)
from .modular import solve_mod_prime

EXPANSION_BOUND = 10**7

INFINITE_AGE = math.inf


def is_prime(ell: int) -> bool:
    fac = prime_factors(ell)
    return len(fac) == 1 and next(iter(fac.values())) == 1


def _require_prime(ell: int):
    if not is_prime(ell):
        raise DecorationError(f"operation needs a prime level, got {ell}")


def lifts(a: EvenFunction, d: DecoratedGraph) -> bool:
    """True iff the odd cochain a*M lies in im delta (circuit test)."""
    _require_prime(d.ell)
    if not d.is_faithful():
        raise DecorationError("decorated graph must be faithful; apply gamma0 first")
    prod = OneCochain(
        d.graph, d.ell, {e: a.on_edge(e) * d.m_value(e) for e in d.graph.edge_ids}
    )
    return in_image_delta(prod)


@dataclass
class GhostGroup:
    decorated: DecoratedGraph
    generators: list[EvenFunction]
    order: int

    def elements(self, max_elements: int = EXPANSION_BOUND) -> Iterator[EvenFunction]:
        """All group elements (including the identity) by expansion."""
        if self.order > max_elements:
            raise SizeBoundExceeded(
                f"group order {self.order} exceeds the expansion bound"
            )
        g = self.decorated.graph
        ell = self.decorated.ell
        edge_ids = g.edge_ids
        gen_rows = [[gen.on_edge(e) for e in edge_ids] for gen in self.generators]
        seen = set()
        for coeffs in itertools.product(range(ell), repeat=len(gen_rows)):
            row = tuple(
                sum(c * gr[i] for c, gr in zip(coeffs, gen_rows)) % ell
                for i in range(len(edge_ids))
            )
            if row in seen:
                continue
            seen.add(row)
            yield EvenFunction(g, ell, dict(zip(edge_ids, row)))


def ghost_group(d: DecoratedGraph) -> GhostGroup:
    """The ghost group of the decorated graph, computed on gamma0.

    Generators: cut basis of the faithful part divided pointwise by M.
    Order: ell^(#V0 - 1) for prime ell.
    """
    _require_prime(d.ell)
    d0 = gamma0(d)
    g = d0.graph
    ell = d0.ell
    inv_m = {e: pow(d0.m_value(e), -1, ell) for e in g.edge_ids}
    gens = [
        EvenFunction(g, ell, {e: b.on_edge(e) * inv_m[e] for e in g.edge_ids})
        for b in cut_basis(g, spanning_tree(g), ell)
    ]
    return GhostGroup(d0, gens, ell ** (g.n_vertices - 1))


def qr_subgroup(d: DecoratedGraph) -> GhostGroup:
    """Subgroup generated by ghosts supported on one separating edge each."""
    _require_prime(d.ell)
    d0 = gamma0(d)
    g = d0.graph
    ell = d0.ell
    gens = []
    for e in sorted(separating_edges(g)):
        vals = {f: (1 if f == e else 0) for f in g.edge_ids}
        gens.append(EvenFunction(g, ell, vals))
    return GhostGroup(d0, gens, ell ** len(gens))


def age(a: EvenFunction) -> Fraction:
    """Sum of rep(a(e))/ell over the unoriented non-loop edges."""
    g = a.graph
    total = sum(a.on_edge(e) for e in g.edge_ids if not g.is_loop(e))
    return Fraction(total, a.ell)


def is_supported(a: EvenFunction) -> bool:
    """True iff a is nonzero on every edge of its graph."""
    return len(a.support()) == a.graph.n_edges


def inverse(a: EvenFunction) -> EvenFunction:
    return -a


@dataclass
class AgeReport:
    automorphism: EvenFunction
    age: Fraction
    support_size: int


def reduced_core(d: DecoratedGraph) -> DecoratedGraph:
    """gamma0 with loops and separating edges contracted to a fixpoint."""
    core = gamma0(d)
    while True:
        drop = set(core.graph.loops()) | set(separating_edges(core.graph))
        if not drop:
            return core
        core = contract_decorated(core, drop)


def minimal_age_report(
    d: DecoratedGraph, max_elements: int = EXPANSION_BOUND
) -> Optional[AgeReport]:
    """Minimum age over the non-identity ghosts a = delta(phi) * M^-1 of the
    reduced core (None when there are none), by depth-first branch-and-bound
    over the potentials phi with phi = 0 at the first vertex.  The others
    take values in BFS order, so each closes an edge to an earlier one;
    rep(a(e)) is added as each edge closes, and a branch is pruned once its
    partial sum reaches the best found.  max_elements bounds the partial
    potentials visited, ell per assigned vertex; past it SizeBoundExceeded.
    """
    _require_prime(d.ell)
    core = reduced_core(d)
    g = core.graph
    ell = core.ell
    if g.n_vertices == 1:
        return None
    order = [g.vertices[0]]
    for v in order:
        order.extend(w for w in sorted(g.neighbors(v)) if w not in order)
    pos = {v: i for i, v in enumerate(order)}
    inv_m = {e: pow(core.m_value(e), -1, ell) for e in g.edge_ids}
    # closing[i][j][x]: sum of rep(a(e)) over the edges joining vertex i to
    # an earlier vertex j when phi_i - phi_j = x; x < 2 ell makes shifts slices
    closing: list[dict[int, list[int]]] = [{} for _ in order]
    for e, (t, h) in g.edges.items():
        i, j, k = pos[h], pos[t], inv_m[e]
        if i < j:
            i, j, k = j, i, -k
        row = closing[i].setdefault(j, [0] * (2 * ell))
        for x in range(2 * ell):
            row[x] += x * k % ell
    phi = [0] * len(order)
    best_sum, best_phi, visited = math.inf, phi, 0

    def search(i: int, partial: int):
        nonlocal best_sum, best_phi, visited
        visited += ell
        if visited > max_elements:
            raise SizeBoundExceeded(
                f"age search exceeds its bound of {max_elements} partial potentials"
            )
        rows = [row[ell - phi[j] : 2 * ell - phi[j]] for j, row in closing[i].items()]
        costs = [sum(c) for c in zip(*rows)]
        for c in sorted(range(ell), key=costs.__getitem__):
            total = partial + costs[c]
            if total >= best_sum:
                return
            phi[i] = c
            if i + 1 < len(order):
                search(i + 1, total)
            elif total:
                best_sum, best_phi = total, list(phi)

    search(1, 0)
    p = dict(zip(order, best_phi))
    a = EvenFunction(
        g, ell, {e: (p[h] - p[t]) * inv_m[e] for e, (t, h) in g.edges.items()}
    )
    return AgeReport(a, Fraction(best_sum, ell), len(a.support()))


def stratum_age(d: DecoratedGraph, max_elements: int = EXPANSION_BOUND):
    """Minimum age over non-identity reduced ghosts; +inf if none exist."""
    report = minimal_age_report(d, max_elements)
    return INFINITE_AGE if report is None else report.age


def is_junior(d: DecoratedGraph, max_elements: int = EXPANSION_BOUND) -> bool:
    return stratum_age(d, max_elements) < 1


def generated_by_qr(d: DecoratedGraph) -> bool:
    """True iff every ghost is a product of quasireflections.

    Prime level: the faithful graph is tree-like.  Composite level: the
    graph Gamma_p is tree-like for every prime divisor p.
    """
    if is_prime(d.ell):
        d0 = gamma0(d)
        return is_tree_like(d0.graph)
    return all(is_tree_like(gamma_p(d, p)) for p in prime_factors(d.ell))


def alpha_beta(d: DecoratedGraph, p: int) -> tuple[list[int], list[int]]:
    """The vertex and separating-edge increments along the p-divisibility
    contraction chain, for k = 1 .. e_p.

    alpha_p^k = #V(Gamma(nu_p^{e_p-k+1})) - #V(Gamma(nu_p^{e_p-k})), with
    the k = e_p term taken against the single point; beta analogous with
    separating-edge counts.
    """
    fac = prime_factors(d.ell)
    if p not in fac:
        raise DecorationError(f"{p} does not divide the level {d.ell}")
    e_p = fac[p]

    def stats(graph: Multigraph) -> tuple[int, int]:
        return graph.n_vertices, len(separating_edges(graph))

    alphas, betas = [], []
    for k in range(1, e_p + 1):
        hi = gamma_nu(d, p, e_p - k + 1)
        if e_p - k >= 1:
            lo_v, lo_s = stats(gamma_nu(d, p, e_p - k))
        else:
            lo_v, lo_s = 1, 0
        hi_v, hi_s = stats(hi)
        alphas.append(hi_v - lo_v)
        betas.append(hi_s - lo_s)
    return alphas, betas


def vine_witness(d: DecoratedGraph) -> Optional[tuple[frozenset[int], frozenset[int], int]]:
    """A 2-part vertex partition of the faithful graph contracting onto an
    n-vine with n >= 2, or None when the graph is tree-like."""
    d0 = gamma0(d)
    g = d0.graph
    seps = separating_edges(g)
    e = min((e for e in g.edge_ids if not g.is_loop(e) and e not in seps), default=None)
    if e is None:  # tree-like
        return None
    # a spanning tree through e, split at e
    tree, _ = spanning_forest(g, [e] + [f for f in sorted(g.edge_ids) if f != e])
    _, component = spanning_forest(g, [f for f in tree if f != e])
    tail_side = component[g.ends(e)[0]]
    part1 = frozenset(v for v in g.vertices if component[v] == tail_side)
    part2 = frozenset(g.vertices) - part1
    n = sum((a in part1) != (b in part1) for a, b in g.edges.values())
    return part1, part2, n


@dataclass
class CoverDecomposition:
    decorated: DecoratedGraph
    parts: list[frozenset[int]]
    graphs: list[DecoratedGraph]
    rank_equal: bool

    def decompose(self, a: EvenFunction) -> Optional[list[EvenFunction]]:
        """Write a as a sum of group elements supported on the parts."""
        d0 = self.decorated
        g = d0.graph
        ell = d0.ell
        edge_ids = g.edge_ids
        columns = []
        owners = []
        for idx, dec in enumerate(self.graphs):
            for gen in ghost_group(dec).generators:
                columns.append(
                    [gen.on_edge(e) if e in dec.graph.edge_ids else 0 for e in edge_ids]
                )
                owners.append(idx)
        matrix = [
            [columns[j][i] for j in range(len(columns))]
            for i in range(len(edge_ids))
        ]
        rhs = [a.on_edge(e) for e in edge_ids]
        sol = solve_mod_prime(matrix, rhs, ell)
        if sol is None:
            return None
        out = []
        for idx in range(len(self.graphs)):
            vals = {e: 0 for e in edge_ids}
            for j, c in enumerate(sol):
                if owners[j] != idx or c == 0:
                    continue
                for e in edge_ids:
                    vals[e] = (vals[e] + c * columns[j][edge_ids.index(e)]) % ell
            out.append(EvenFunction(g, ell, vals))
        return out


def cover_decompose(
    d: DecoratedGraph, parts: Iterable[Iterable[int]]
) -> CoverDecomposition:
    """Decomposition data for a disjoint edge cover of the faithful graph.

    Each part keeps exactly its edge subset (the rest is contracted).  For
    2-part covers the rank condition #V0 - 1 = sum(#Vi - 1) is recorded.
    """
    _require_prime(d.ell)
    d0 = gamma0(d)
    g = d0.graph
    part_sets = [frozenset(p) for p in parts]
    all_edges = frozenset(g.edge_ids)
    seen: set[int] = set()
    for p in part_sets:
        if not p or not p <= all_edges:
            raise DecorationError("each part must be a nonempty edge subset")
        if p & seen:
            raise DecorationError("parts overlap: not permitted")
        seen |= p
    if seen != all_edges:
        raise DecorationError("parts do not cover the edge set")
    graphs = [contract_decorated(d0, all_edges - p) for p in part_sets]
    rank_equal = (g.n_vertices - 1) == sum(
        dec.graph.n_vertices - 1 for dec in graphs
    )
    return CoverDecomposition(d0, part_sets, graphs, rank_equal)
