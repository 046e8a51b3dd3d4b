"""Exhaustive classification of junior strata for prime levels.

A class is an isomorphism class of decorated graphs (loopless bridgeless
base, faithful decoration).  An even function of age below 1 has rep
values summing to less than ell, so the junior witnesses a live in a small
candidate set, and a is a witness for M exactly when a M = delta(phi) for
a potential phi.  For every base graph the junior rows are generated from
these (phi, a) pairs in one numpy pass over all decorations.  The junior
rows are then grouped into classes by the library's one canonical
encoder, ``graphs.least_encodings``, in one call per base graph over only
the orderings that give the unlabelled graph its least encoding: a coset
of its automorphisms, so the least encoding over it is a complete
invariant.  ``np.unique`` compares the encodings as byte strings, and
only each class's first row is coded over every ordering, which gives
the class code; ``decoration_code`` is the one-row call.  The
multidegrees give the admissible k, so the Python work per class is one
record of integer rows from lists converted once per base graph; its
``DecoratedGraph`` and witness are built only when read.  Maximal tables
skip the base graphs that ``reduce_step``'s lemma rules out before
scanning them.

numpy is imported inside the kernels that use it, so importing the
package, and analyzing one graph, never loads it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .cochains import EvenFunction
from .decorated import (
    DecoratedGraph,
    DecorationError,
    contract_decorated,
    is_prime,
)
from .graphs import (
    Multigraph,
    SizeBoundExceeded,
    _end_positions,
    _minimal_orderings,
    canonical_code,
    code_bytes,
    enumerate_base_graphs,
    least_encodings,
    separating_edges,
    spanning_forest,
)

SUPPORTED_LEVELS = (2, 3, 5, 7)


class _cached_field(functools.cached_property):
    """A cached property that is also a dataclass field: a value given to
    ``__init__`` or ``dataclasses.replace`` is kept, otherwise the value is
    built on first read."""

    def __set__(self, obj, value):
        if value is not self:  # the field default: build on first read
            obj.__dict__[self.attrname] = value


@dataclass
class StratumClass:
    """One class: its base graph, the level, and the integer rows of its
    smallest decoration and of a minimal witness, in ``graph.edge_ids``
    order.  ``decorated`` and ``witness`` are built from the rows on first
    read."""

    graph: Multigraph
    ell: int
    row: tuple[int, ...]
    code: bytes
    vine: Optional[tuple[int, ...]]
    age: Fraction
    witness_row: tuple[int, ...]
    codimension: int
    admissible_k: frozenset[int]
    orbit_size: int
    maximal: bool

    def _decorated(self) -> DecoratedGraph:
        return DecoratedGraph.from_edge_values(
            self.graph, self.ell, dict(zip(self.graph.edge_ids, self.row))
        )

    def _witness(self) -> EvenFunction:
        return EvenFunction(self.graph, self.ell, dict(zip(self.graph.edge_ids, self.witness_row)))

    decorated: DecoratedGraph = field(
        default=_cached_field(_decorated), repr=False, compare=False
    )
    witness: EvenFunction = field(default=_cached_field(_witness), repr=False, compare=False)


def decoration_code(d: DecoratedGraph) -> bytes:
    """Canonical code of a decorated graph: graph isomorphisms act on the
    decoration by pullback, dart reversal negates M."""
    return canonical_code(d.graph, {e: d.m_value(e) for e in d.graph.edge_ids}, d.ell)


def vine_notation(d: DecoratedGraph) -> Optional[tuple[int, ...]]:
    """For a 2-vertex graph, the sorted decoration values oriented from the
    lower vertex, normalized under global negation."""
    return _vine(d.graph, d.ell, [d.m_value(e) for e in d.graph.edge_ids])


def _vine(g: Multigraph, ell: int, row) -> Optional[tuple[int, ...]]:
    """``vine_notation`` of the decoration with values ``row`` in
    ``g.edge_ids`` order."""
    if g.n_vertices != 2 or g.loops():
        return None
    lo = g.vertices[0]
    vals = [m if g.ends(e)[0] == lo else (-m) % ell for e, m in zip(g.edge_ids, row)]
    fwd = tuple(sorted(vals))
    bwd = tuple(sorted((-m) % ell for m in vals))
    return min(fwd, bwd)


def _candidate_matrix(n_edges: int, ell: int):
    """All nonzero rep vectors with entry sum below ell, in lexicographic
    order: the gaps between n_edges bars among ell - 1 + n_edges slots."""
    import numpy as np

    bars = np.array(list(itertools.combinations(range(ell - 1 + n_edges), n_edges)))
    return (np.diff(bars, axis=1, prepend=-1) - 1)[1:]


@dataclass
class _GraphScan:
    graph: Multigraph
    decorations: np.ndarray  # (n, E) all-nonzero decorations
    junior: np.ndarray  # (n,) bool
    age_num: np.ndarray  # (n,) minimal age numerator (over ell), 0 if senior
    witness_idx: np.ndarray  # (n,) candidate row index of the minimal witness
    candidates: np.ndarray
    maximal: np.ndarray  # (n,) bool: every junior witness fully supported


def scan_graph(g: Multigraph, ell: int) -> _GraphScan:
    """Junior flags, minimal ages and witnesses of every all-nonzero
    decoration M of g, generated from (potential, witness) pairs.

    A candidate a (rep values with 0 < sum a < ell) is a witness for M iff
    a M = delta(phi) for a potential phi with phi = 0 at the first vertex.
    As M is nowhere zero, a and delta(phi) then share their zero pattern
    S, M = delta(phi) / a on S, and M is free off S.  Per pattern S the
    pairs are reduced onto the (ell-1)^|S| grid of M on S by the minimum
    key (sum a) * n_c + row: the minimal age, then the first candidate
    row of that age.  Each sub-grid is broadcast into the (ell-1)^E grid
    of all decorations; a decoration is maximal when only the full edge
    set reached it.  Memory: a few arrays over that grid plus one
    pattern's pairs, at most ell^(#V-1) * C(ell-1, |S|) rows of |S|.
    """
    import numpy as np

    n_e, n_v = g.n_edges, g.n_vertices
    cands = _candidate_matrix(n_e, ell)
    n_c = cands.shape[0]
    keys_c = cands.sum(axis=1) * n_c + np.arange(n_c)
    tails, heads = _end_positions(g)
    phi = np.indices((1,) + (ell,) * (n_v - 1)).reshape(n_v, -1).T
    cob = (phi[:, heads] - phi[:, tails]) % ell
    bits = 1 << np.arange(n_e)
    cob_mask = (cob != 0) @ bits
    cand_mask = (cands != 0) @ bits
    inv = np.array([0] + [pow(v, -1, ell) for v in range(1, ell)])
    big = ell * n_c
    supported = np.full((ell - 1,) * n_e, big)  # keys of fully supported witnesses
    partial = np.full((ell - 1,) * n_e, big)  # keys of witnesses with a zero entry
    for s in sorted(set(cob_mask.tolist()) & set(cand_mask.tolist())):
        cols = np.nonzero(s & bits)[0]
        rows = np.nonzero(cand_mask == s)[0]
        m = cob[cob_mask == s][:, None, cols] * inv[cands[rows][:, cols]] % ell
        sub = np.full((ell - 1) ** cols.size, big)
        index = (m - 1) @ (ell - 1) ** np.arange(cols.size - 1, -1, -1)
        np.minimum.at(sub, index.ravel(), np.tile(keys_c[rows], m.shape[0]))
        target = supported if cols.size == n_e else partial
        sub = sub.reshape([ell - 1 if s >> i & 1 else 1 for i in range(n_e)])
        np.minimum(target, sub, out=target)
    keys = np.minimum(supported, partial).ravel()
    junior = keys < big
    return _GraphScan(
        g,
        np.indices((ell - 1,) * n_e).reshape(n_e, -1).T + 1,
        junior,
        np.where(junior, keys // n_c, 0),
        np.where(junior, keys % n_c, 0),
        cands,
        junior & (partial.ravel() == big),
    )


def classify_junior(
    ell: int,
    k: Optional[int] = None,
    max_edges: Optional[int] = None,
    only_maximal: bool = False,
) -> list[StratumClass]:
    """Every isomorphism class of junior decorated graphs with at most
    max_edges (default ell - 1) edges, with closure-maximality flags.

    A class is junior when some nonzero ghost has age below 1; it is
    closure-maximal when no proper contraction of it is already junior,
    which happens exactly when every junior witness is fully supported.
    With ``k`` given, only classes whose multidegree condition is solvable
    for that k are returned.  The classification of closure-maximal classes
    is complete at the default bound: a fully supported witness of age
    below 1 forces #E < ell.  The list is fresh, but its classes are the
    cached objects that every call with the same arguments shares: do not
    assign to their fields; ``dataclasses.replace`` gives a changed copy.
    """
    # every supported level is prime: no trial division of an arbitrary ell
    if ell not in SUPPORTED_LEVELS:
        raise DecorationError(f"level {ell} not supported (supported: {SUPPORTED_LEVELS})")
    if max_edges is None:
        max_edges = ell - 1
    classes = list(_classify_cached(ell, max_edges, only_maximal))
    if k is not None:
        classes = [c for c in classes if k % ell in c.admissible_k]
    return classes


# per-class Python work (one record of integer rows) and the class list
# itself grow with the junior decorations of one graph; cap them for full
# (non-maximal) listings at large levels
BUCKET_BOUND = 20_000


def _byte_rows(a):
    """Each row of the 2-D array a as one np.void scalar, so that
    np.unique groups rows by comparing their bytes."""
    import numpy as np

    a = np.ascontiguousarray(a)
    return a.view(np.dtype((np.void, a.dtype.itemsize * a.shape[1]))).ravel()


def _admissible_sets(g: Multigraph, ell: int, rows: np.ndarray) -> list[frozenset[int]]:
    """``admissible_k`` of each decoration row, one frozenset per pattern: k
    is admissible when gcd(2k, ell) divides dm - k (N - 2) at every vertex,
    for the multidegree dm = rows @ B^T with B the signed incidence."""
    import numpy as np

    at = np.arange(g.n_vertices)[:, None]
    tails, heads = _end_positions(g)
    dm = rows @ ((heads == at).astype(int) - (tails == at)).T
    ks = np.arange(ell)[:, None]
    rhs = dm[:, None, :] - ks * (np.array([g.degree(v) for v in g.vertices]) - 2)
    ok = (rhs % np.gcd(2 * ks, ell) == 0).all(axis=2)
    patterns, inverse = np.unique(_byte_rows(ok), return_inverse=True)
    sets = [frozenset(np.flatnonzero(p).tolist()) for p in patterns.view(bool).reshape(-1, ell)]
    return [sets[i] for i in inverse.ravel().tolist()]


@functools.lru_cache(maxsize=16)
def _classify_cached(
    ell: int, max_edges: int, only_maximal: bool
) -> tuple[StratumClass, ...]:
    import numpy as np

    # scan the base graphs and test the bound before any per-class work,
    # keeping only the rows that will be grouped into classes; a graph with
    # a vine-reduction configuration carries no maximal class (reduce_step)
    found = []
    keep = (lambda g: _reduction(g) is None) if only_maximal else None
    for g in enumerate_base_graphs(max_edges, keep):
        scan = scan_graph(g, ell)
        mask = scan.junior & scan.maximal if only_maximal else scan.junior
        idxs = np.nonzero(mask)[0]
        if idxs.size > BUCKET_BOUND:
            raise SizeBoundExceeded(
                f"{idxs.size} junior decorations on the base graph "
                f"{list(g.edges.values())} exceed the bucketing bound "
                f"BUCKET_BOUND = {BUCKET_BOUND}; restrict to maximal classes or fewer edges",
                "BUCKET_BOUND", BUCKET_BOUND, idxs.size,
            )
        if idxs.size:
            found.append((g, scan.decorations[idxs], scan.age_num[idxs],
                          scan.candidates[scan.witness_idx[idxs]], scan.maximal[idxs]))
    classes: list[StratumClass] = []
    ages = [Fraction(n, ell) for n in range(ell)]
    for g, rows, age_num, witnesses, maximal in found:
        # group by the least encoding over the automorphism-minimal
        # orderings, a complete invariant; rows are in lexicographic order,
        # so each class's first row is its smallest decoration
        enc = least_encodings(g, rows, ell, _orderings=_minimal_orderings(g))
        _, first, inverse, counts = np.unique(
            _byte_rows(enc), return_index=True, return_inverse=True, return_counts=True
        )
        assert (maximal == maximal[first][inverse]).all(), "maximality must be orbit invariant"
        codes = code_bytes(g, least_encodings(g, rows[first], ell), ell)
        k_sets = _admissible_sets(g, ell, rows[first])
        for row, witness, n, is_maximal, code, k_set, orbit_size in zip(
            rows[first].tolist(), witnesses[first].tolist(), age_num[first].tolist(),
            maximal[first].tolist(), codes, k_sets, counts.tolist(),
        ):
            classes.append(StratumClass(
                graph=g, ell=ell, row=tuple(row), code=code, vine=_vine(g, ell, row),
                age=ages[n], witness_row=tuple(witness), codimension=g.n_edges,
                admissible_k=k_set, orbit_size=orbit_size, maximal=is_maximal,
            ))
    classes.sort(key=lambda c: (c.codimension, c.graph.n_vertices, c.code))
    assert all(c.codimension < ell for c in classes if c.maximal)
    return tuple(classes)


def contracts_to(d0: DecoratedGraph, d1: DecoratedGraph) -> bool:
    """True iff some edge-subset contraction of d0 is isomorphic to d1.

    Only a contraction that shares the target's invariants is coded: its
    sorted degrees (the prefix of the code) and its sorted values
    min(M, -M), which reversing a dart keeps."""
    if d0.ell != d1.ell:
        return False
    e0 = d0.graph.n_edges
    e1 = d1.graph.n_edges
    if e1 > e0:
        return False

    def invariants(d: DecoratedGraph):
        g = d.graph
        values = (d.m_value(e) for e in g.edge_ids)
        return sorted(map(g.degree, g.vertices)), sorted(min(m, d.ell - m) for m in values)

    target_invariants, target = invariants(d1), None
    for f in itertools.combinations(d0.graph.edge_ids, e0 - e1):
        contracted = contract_decorated(d0, f)
        if invariants(contracted) != target_invariants:
            continue
        target = target or decoration_code(d1)
        if decoration_code(contracted) == target:
            return True
    return False


def reduce_step(d: DecoratedGraph) -> Optional[tuple[DecoratedGraph, DecoratedGraph]]:
    """The two contractions of the vine-reduction configuration of
    ``_reduction``, if present: along e' and along the rest of the tree.
    Whenever d is junior, one of the two contractions is junior as well,
    so such graphs never carry maximal junior strata."""
    found = _reduction(d.graph)
    if found is None:
        return None
    _, _, e_prime, tree = found
    return contract_decorated(d, {e_prime}), contract_decorated(d, set(tree) - {e_prime})


def _reduction(g: Multigraph) -> Optional[tuple[int, int, int, list[int]]]:
    """The vine-reduction configuration (v1, e, e', tree), if present.

    Looks for a vertex v1 with exactly two neighbors v2, v3 and a single
    edge e to one of them; e' is one edge from v1 to the other neighbor and
    tree a spanning tree through e' that avoids e.
    """
    for v1 in g.vertices:
        # the edges at v1 grouped by their other end; a loop's is v1 itself
        by_nbr: dict[int, list[int]] = {}
        for e, s in g.darts_at(v1):
            by_nbr.setdefault(g.ends(e)[1 - s], []).append(e)
        if v1 in by_nbr or len(by_nbr) != 2:
            continue
        for v2, v3 in itertools.permutations(sorted(by_nbr)):
            if len(by_nbr[v2]) != 1:
                continue
            (e,) = by_nbr[v2]
            # no spanning tree avoids a bridge
            if e in separating_edges(g):
                continue
            e_prime = min(by_nbr[v3])
            # spanning tree through e_prime (Kruskal skips its repeat) avoiding e
            tree, _ = spanning_forest(g, [e_prime, *(f for f in sorted(g.edge_ids) if f != e)])
            return v1, e, e_prime, tree
    return None


def prop_k_symmetry(
    ell: int,
    k: int,
    max_edges: Optional[int] = None,
    only_maximal: bool = False,
) -> bool:
    """Check that the k classification is the M -> k M image of the k=1 one.
    The scaled representatives of each base graph are coded in one call."""
    if not is_prime(ell) or k % ell == 0:
        raise DecorationError("needs prime level and k nonzero")
    base = classify_junior(ell, k=1, max_edges=max_edges, only_maximal=only_maximal)
    target = classify_junior(ell, k=k, max_edges=max_edges, only_maximal=only_maximal)
    scaled: dict[Multigraph, list[list[int]]] = {}
    for c in base:
        scaled.setdefault(c.graph, []).append([k * m for m in c.row])
    mapped = {
        code for g, rows in scaled.items()
        for code in code_bytes(g, least_encodings(g, rows, ell), ell)
    }
    return mapped == {c.code for c in target}
