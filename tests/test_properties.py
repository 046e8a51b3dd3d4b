"""Randomized invariants (hypothesis strategies over small graphs)."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ghostgraph import (
    DecoratedGraph,
    EvenFunction,
    Multigraph,
    OneCochain,
    ZeroCochain,
    age,
    boundary,
    canonical_code,
    contract_edges,
    cut_basis,
    delta,
    gamma0,
    ghost_group,
    in_image_delta,
    inverse,
    lifts,
    pairing,
    qr_subgroup,
    separating_edges,
    solve_boundary,
    solve_delta,
    spanning_tree,
)
from ghostgraph.classify import decoration_code

from oracles import brute_bridges, brute_in_image_delta, relabel


@st.composite
def multigraphs(draw, max_vertices=5, max_extra=3, allow_loops=True):
    n_v = draw(st.integers(1, max_vertices))
    edges = []
    for v in range(1, n_v):
        edges.append((draw(st.integers(0, v - 1)), v))
    extra = draw(st.integers(0, max_extra))
    for _ in range(extra):
        a = draw(st.integers(0, n_v - 1))
        b = draw(st.integers(0, n_v - 1))
        if a == b and not allow_loops:
            continue
        edges.append((a, b))
    if not edges:
        edges.append((0, 0))
    return Multigraph(range(n_v), edges)


@st.composite
def graph_with_cochain(draw, ells=(2, 3, 5, 7, 12)):
    g = draw(multigraphs())
    ell = draw(st.sampled_from(ells))
    vals = {e: draw(st.integers(0, ell - 1)) for e in g.edge_ids}
    return g, ell, OneCochain(g, ell, vals)


@st.composite
def decorated_graphs(draw, ells=(2, 3, 5, 7), faithful=True):
    g = draw(multigraphs())
    ell = draw(st.sampled_from(ells))
    lo = 1 if faithful else 0
    vals = {e: draw(st.integers(lo, ell - 1)) for e in g.edge_ids}
    return DecoratedGraph.from_edge_values(g, ell, vals)


@settings(max_examples=60, deadline=None)
@given(graph_with_cochain())
def test_adjointness(data):
    g, ell, b = data
    a = ZeroCochain(g, ell, {v: (v * 3 + 1) % ell for v in g.vertices})
    assert pairing(delta(a), b) == pairing(a, boundary(b))


@settings(max_examples=60, deadline=None)
@given(graph_with_cochain(ells=(2, 3, 5)))
def test_in_image_delta_matches_oracle(data):
    g, ell, b = data
    assert in_image_delta(b) == brute_in_image_delta(b)


@settings(max_examples=60, deadline=None)
@given(multigraphs(), st.sampled_from([2, 3, 5, 7]))
def test_cut_basis_spans_inside_image(g, ell):
    t = spanning_tree(g)
    for b in cut_basis(g, t, ell):
        assert in_image_delta(b)
        a = solve_delta(b)
        assert delta(a) == b


@settings(max_examples=60, deadline=None)
@given(multigraphs(), st.sampled_from([2, 3, 5, 6]), st.data())
def test_solve_boundary_roundtrip(g, ell, data):
    vals = {v: data.draw(st.integers(0, ell - 1)) for v in g.vertices}
    total = sum(vals.values()) % ell
    vals[g.vertices[0]] = (vals[g.vertices[0]] - total) % ell
    d0 = ZeroCochain(g, ell, vals)
    assert boundary(solve_boundary(d0)) == d0


@settings(max_examples=60, deadline=None)
@given(multigraphs())
def test_bridges_match_oracle_and_survive_contraction(g):
    seps = separating_edges(g)
    assert seps == brute_bridges(g)
    for e in list(g.edge_ids)[:2]:
        out = contract_edges(g, {e}).graph
        new = separating_edges(out)
        for f in out.edge_ids:
            assert (f in seps) == (f in new)


@settings(max_examples=40, deadline=None)
@given(multigraphs(max_vertices=5), st.permutations(range(5)))
def test_canonical_code_invariant(g, perm):
    mapping = {v: sorted(perm[v] for v in g.vertices).index(perm[v]) for v in g.vertices}
    h = Multigraph(
        mapping.values(),
        {e: (mapping[t], mapping[hd]) for e, (t, hd) in g.edges.items()},
    )
    assert canonical_code(g) == canonical_code(h)


@settings(max_examples=60, deadline=None)
@given(decorated_graphs(faithful=False), st.data())
def test_decoration_code_invariant(d, data):
    # loops and zero values included; a reversed dart reads -M
    g = d.graph
    perm = dict(zip(g.vertices, data.draw(st.permutations(g.vertices))))
    flipped = data.draw(st.sets(st.sampled_from(g.edge_ids)))
    h, (row,) = relabel(g, [[d.m_value(e) for e in g.edge_ids]], d.ell, perm, flipped)
    moved = DecoratedGraph.from_edge_values(h, d.ell, dict(zip(h.edge_ids, row)))
    assert decoration_code(moved) == decoration_code(d)


@settings(max_examples=40, deadline=None)
@given(decorated_graphs(faithful=False))
def test_gamma0_faithful_and_group_lifts(d):
    d0 = gamma0(d)
    assert d0.is_faithful()
    group = ghost_group(d)
    for gen in group.generators:
        assert lifts(gen, group.decorated)
    qr = qr_subgroup(d)
    for gen in qr.generators:
        assert len(gen.support()) == 1
        assert lifts(gen, group.decorated)


@settings(max_examples=60, deadline=None)
@given(multigraphs(), st.sampled_from([3, 5, 7]), st.data())
def test_age_inverse_counts_support(g, ell, data):
    # age sums over non-loop edges only, so the inverse identity counts
    # the non-loop part of the support
    vals = {e: data.draw(st.integers(0, ell - 1)) for e in g.edge_ids}
    a = EvenFunction(g, ell, vals)
    non_loop = [e for e in a.support() if not g.is_loop(e)]
    assert age(a) + age(inverse(a)) == Fraction(len(non_loop))
