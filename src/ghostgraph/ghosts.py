"""Ghost automorphism groups of a decorated graph.

A ghost automorphism is an even Z/ell function a on the faithful part of
the graph; it belongs to the automorphism group of the root iff the odd
cochain a*M lies in im delta.  At a prime level every M(e) there is a unit,
so the ghosts are exactly a = delta(phi) * M^-1, one for each potential phi
in (Z/ell)^V up to constants, and every ghost here is built that way: the
group from the potentials 1_v, the age witness from the best potential.
A disjoint edge cover splits a ghost into its restrictions to the parts.
Ages are exact rationals; the stratum age minimizes over the quotient
graph with loops and separating edges contracted, which quotients out the
quasireflections, by branch-and-bound over potentials.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional

from .cochains import EvenFunction, OneCochain, in_image_delta
from .decorated import (
    DecoratedGraph,
    DecorationError,
    contract_decorated,
    gamma0,
    gamma_nu,
    gamma_p,
    is_prime,
    prime_factors,
)
from .graphs import (
    Multigraph,
    SizeBoundExceeded,
    _rooted_tree,
    is_tree_like,
    separating_edges,
    spanning_forest,
)

EXPANSION_BOUND = 10**7

INFINITE_AGE = math.inf


def _require_prime(ell: int):
    if not is_prime(ell):
        raise DecorationError(f"operation needs a prime level, got {ell}")


def lifts(a: EvenFunction, d: DecoratedGraph) -> bool:
    """True iff the odd cochain a*M lies in im delta (tree-potential test)."""
    _require_prime(d.ell)
    if not d.is_faithful():
        raise DecorationError("decorated graph must be faithful; apply gamma0 first")
    prod = OneCochain(
        d.graph, d.ell, {e: a.on_edge(e) * d.m_value(e) for e in d.graph.edge_ids}
    )
    return in_image_delta(prod)


def _ghost(d: DecoratedGraph, phi: Mapping[int, int]) -> EvenFunction:
    """The ghost delta(phi) * M^-1 of the potential phi; d must be faithful
    at a prime level."""
    dphi = {e: phi[h] - phi[t] for e, (t, h) in d.graph.edges.items()}
    vals = {e: x and x * pow(d.m_value(e), -1, d.ell) for e, x in dphi.items()}
    return EvenFunction(d.graph, d.ell, vals)


@dataclass
class GhostGroup:
    """A group of ghosts on a faithful decorated graph, given by generators
    that are independent over Z/ell, so its order is ell^#generators."""

    decorated: DecoratedGraph
    generators: list[EvenFunction]

    @property
    def order(self) -> int:
        return self.decorated.ell ** len(self.generators)

    def elements(self, max_elements: int = EXPANSION_BOUND) -> Iterator[EvenFunction]:
        """All group elements (including the identity), one per coefficient
        tuple over the generators."""
        if self.order > max_elements:
            raise SizeBoundExceeded(
                f"group order {self.order} exceeds the expansion bound {max_elements}",
                "max_elements", max_elements, self.order,
            )
        g = self.decorated.graph
        ell = self.decorated.ell
        # per edge, the (generator index, value) pairs that are nonzero there
        terms = [
            [(j, x) for j, gen in enumerate(self.generators) if (x := gen.on_edge(e))]
            for e in g.edge_ids
        ]
        for coeffs in itertools.product(range(ell), repeat=len(self.generators)):
            vals = {e: sum(coeffs[j] * x for j, x in t) for e, t in zip(g.edge_ids, terms)}
            yield EvenFunction(g, ell, vals)


def ghost_group(d: DecoratedGraph) -> GhostGroup:
    """The ghost group of the decorated graph, computed on gamma0.

    Generators: the ghosts delta(1_v) * M^-1 of the vertex indicators, for
    every vertex v of the faithful graph but the first.  Order:
    ell^(#V0 - 1) for prime ell.
    """
    _require_prime(d.ell)
    d0 = gamma0(d)
    vs = d0.graph.vertices
    return GhostGroup(d0, [_ghost(d0, {w: int(w == v) for w in vs}) for v in vs[1:]])


def qr_subgroup(d: DecoratedGraph) -> GhostGroup:
    """Subgroup generated by ghosts supported on one separating edge each."""
    _require_prime(d.ell)
    d0 = gamma0(d)
    g = d0.graph
    units = ({f: int(f == e) for f in g.edge_ids} for e in sorted(separating_edges(g)))
    return GhostGroup(d0, [EvenFunction(g, d0.ell, vals) for vals in units])


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
    """gamma0 with its loops and separating edges contracted.

    One pass suffices: contracting bridges joins no edge's ends and leaves
    every circuit intact, so it creates no loop and no bridge.
    """
    core = gamma0(d)
    drop = core.graph.loops() | separating_edges(core.graph)
    return contract_decorated(core, drop) if drop else core


def minimal_age_report(
    d: DecoratedGraph, max_elements: int = EXPANSION_BOUND
) -> Optional[AgeReport]:
    """Minimum age over the non-identity ghosts a = delta(phi) * M^-1 of the
    reduced core (None when there are none), by depth-first branch-and-bound
    over the potentials phi with phi = 0 at the first vertex.  The others
    take values in BFS order, so each closes an edge to an earlier one;
    rep(a(e)) is added as each edge closes, and a branch is pruned once its
    partial sum reaches the best found.  max_elements bounds the partial
    potentials visited, ell per assigned vertex, and the entries of the
    cost table, 2 ell per adjacent vertex pair; past it SizeBoundExceeded,
    the table checked before it is built.
    """
    _require_prime(d.ell)
    core = reduced_core(d)
    g, ell = core.graph, core.ell
    if g.n_vertices == 1:
        return None

    def exceeded(unit: str, requested: int, detail: str) -> SizeBoundExceeded:
        return SizeBoundExceeded(
            f"age search exceeds its bound of {max_elements} {unit}: {detail}",
            "max_elements", max_elements, requested,
        )

    # the first descent is never pruned and visits ell per vertex
    if (first := ell * (g.n_vertices - 1)) > max_elements:
        raise exceeded("partial potentials", first,
                       f"its first descent visits ell * (#V - 1) = {first}")
    order = [g.vertices[0]]
    seen = set(order)
    for v in order:
        for w in sorted(g.neighbors(v) - seen):
            seen.add(w)
            order.append(w)
    pos = {v: i for i, v in enumerate(order)}
    # closing[i][j]: M^-1 read from j to i on the edges joining vertex i to
    # an earlier vertex j, then the sum of rep(a(e)) over them when
    # phi_i - phi_j = x; x < 2 ell makes shifts slices, 2 ell entries a pair
    closing: list[dict[int, list[int]]] = [{} for _ in order]
    for e, (t, h) in g.edges.items():
        i, j, k = pos[h], pos[t], pow(core.m_value(e), -1, ell)
        if i < j:
            i, j, k = j, i, -k
        closing[i].setdefault(j, []).append(k)
    if (entries := 2 * ell * (adjacent := sum(map(len, closing)))) > max_elements:
        raise exceeded("elements", entries, "its cost table holds 2 ell * (adjacent vertex pairs) "
                       f"= 2 * {ell} * {adjacent} = {entries} entries")
    for pairs in closing:
        for j, ks in pairs.items():
            pairs[j] = [sum(x * k % ell for k in ks) for x in range(ell)] * 2
    phi = [0] * len(order)
    best_sum, best_phi, visited = math.inf, phi, 0

    def frame(i: int, partial: int):
        # vertex i's closing costs, given phi on the earlier vertices
        nonlocal visited
        visited += ell
        if visited > max_elements:
            raise exceeded("partial potentials", visited, f"{visited} visited")
        rows = [row[ell - phi[j] : 2 * ell - phi[j]] for j, row in closing[i].items()]
        costs = [sum(c) for c in zip(*rows)]
        return i, partial, costs, iter(sorted(range(ell), key=costs.__getitem__))

    # depth-first with an explicit stack: the core may have thousands of vertices
    stack = [frame(1, 0)]
    while stack:
        i, partial, costs, values = stack[-1]
        c = next(values, None)
        total = math.inf if c is None else partial + costs[c]
        if total >= best_sum:
            stack.pop()
            continue
        phi[i] = c
        if i + 1 < len(order):
            stack.append(frame(i + 1, total))
        elif total:
            best_sum, best_phi = total, list(phi)
    a = _ghost(core, dict(zip(order, best_phi)))
    return AgeReport(a, Fraction(best_sum, ell), len(a.support()))


def stratum_age(d: DecoratedGraph, max_elements: int = EXPANSION_BOUND):
    """Minimum age over non-identity reduced ghosts; +inf if none exist."""
    report = minimal_age_report(d, max_elements)
    return INFINITE_AGE if report is None else report.age


def is_junior(d: DecoratedGraph, max_elements: int = EXPANSION_BOUND) -> bool:
    return stratum_age(d, max_elements) < 1


def generated_by_qr(d: DecoratedGraph) -> bool:
    """True iff every ghost is a product of quasireflections: the graph
    Gamma_p is tree-like for every prime divisor p of the level.  At a prime
    level Gamma_ell is the faithful graph."""
    return all(is_tree_like(gamma_p(d, p)) for p in prime_factors(d.ell))


def alpha_beta(d: DecoratedGraph, p: int, _chain=None) -> tuple[list[int], list[int]]:
    """The vertex and separating-edge increments along the p-divisibility
    contraction chain, for k = 1 .. e_p.

    alpha_p^k = #V(Gamma(nu_p^{e_p-k+1})) - #V(Gamma(nu_p^{e_p-k})), with
    the k = e_p term taken against the single point; beta analogous with
    separating-edge counts.  ``_chain`` is ``_contraction_chain(d, p)`` when
    the caller has it.
    """
    if p not in prime_factors(d.ell):
        raise DecorationError(f"{p} does not divide the level {d.ell}")
    chain = _contraction_chain(d, p) if _chain is None else _chain
    stats = [(g.n_vertices, len(separating_edges(g))) for g in chain] + [(1, 0)]
    alphas = [hi_v - lo_v for (hi_v, _), (lo_v, _) in zip(stats, stats[1:])]
    betas = [hi_s - lo_s for (_, hi_s), (_, lo_s) in zip(stats, stats[1:])]
    return alphas, betas


def _contraction_chain(d: DecoratedGraph, p: int) -> list[Multigraph]:
    """Gamma(nu_p^j) for j = e_p .. 1; the first is gamma_p(d, p)."""
    return [gamma_nu(d, p, j) for j in range(prime_factors(d.ell)[p], 0, -1)]


def vine_witness(d: DecoratedGraph) -> Optional[tuple[frozenset[int], frozenset[int], int]]:
    """A 2-part vertex partition of the faithful graph contracting onto an
    n-vine with n >= 2, or None when the graph is tree-like."""
    d0 = gamma0(d)
    g = d0.graph
    seps = separating_edges(g)
    e = min((e for e in g.edge_ids if not g.is_loop(e) and e not in seps), default=None)
    if e is None:  # tree-like
        return None
    # a spanning tree through e (Kruskal skips its repeat), split by the walk over the rest
    tree, _ = spanning_forest(g, [e, *sorted(g.edge_ids)])
    reached = frozenset(_rooted_tree(g, set(tree[1:]))[2])
    other = frozenset(g.vertices) - reached
    part1, part2 = (reached, other) if g.ends(e)[0] in reached else (other, reached)
    n = sum((a in part1) != (b in part1) for a, b in g.edges.values())
    return part1, part2, n


@dataclass
class CoverDecomposition:
    decorated: DecoratedGraph
    parts: list[frozenset[int]]
    graphs: list[DecoratedGraph]
    rank_equal: bool

    def decompose(self, a: EvenFunction) -> Optional[list[EvenFunction]]:
        """Write a as a sum of ghosts supported on the parts, or None.

        The parts are disjoint, so the only candidate summands are the
        restrictions a|p_i.  They are the answer when each one lifts on its
        part graph; otherwise no decomposition exists.
        """
        g = self.decorated.graph
        ell = a.ell
        out = []
        for p, dec in zip(self.parts, self.graphs):
            own = {e: a.on_edge(e) for e in p}
            if not lifts(EvenFunction(dec.graph, ell, own), dec):
                return None
            out.append(EvenFunction(g, ell, {e: own.get(e, 0) for e in g.edge_ids}))
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
    covered: set[int] = set()
    for p in part_sets:
        if not p or not p <= all_edges:
            raise DecorationError("each part must be a nonempty edge subset")
        if p & covered:
            raise DecorationError("parts overlap: not permitted")
        covered |= p
    if covered != all_edges:
        raise DecorationError("parts do not cover the edge set")
    graphs = [contract_decorated(d0, all_edges - p) for p in part_sets]
    rank_equal = g.n_vertices - 1 == sum(dec.graph.n_vertices - 1 for dec in graphs)
    return CoverDecomposition(d0, part_sets, graphs, rank_equal)
