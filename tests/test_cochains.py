"""Z/ell cochain algebra: operators, pairings, cuts, image of delta."""

import random

import pytest

from ghostgraph import (
    CochainError,
    DecoratedGraph,
    EvenFunction,
    GraphError,
    Multigraph,
    OneCochain,
    ZeroCochain,
    boundary,
    cut,
    cut_basis,
    delta,
    fundamental_circuits,
    in_image_delta,
    lifts,
    pairing,
    separating_edges,
    solve_boundary,
    solve_delta,
    spanning_tree,
)
from ghostgraph import classify, graphs
from ghostgraph.cochains import circuit_sum
from ghostgraph.graphs import spanning_forest

from oracles import brute_in_image_delta, connected_multigraphs, image_delta_set
from test_cli import count_calls


def vine(n):
    return Multigraph([0, 1], [(0, 1)] * n)


def theta():
    return vine(3)


class TestConstruction:
    def test_values_reduced(self):
        b = OneCochain(vine(2), 5, {0: 7, 1: -1})
        assert b.on_edge(0) == 2
        assert b.on_edge(1) == 4

    def test_antisymmetry_on_darts(self):
        b = OneCochain(vine(2), 5, {0: 2, 1: 0})
        assert b.on_dart((0, 0)) == 2
        assert b.on_dart((0, 1)) == 3

    def test_evenness_on_darts(self):
        a = EvenFunction(vine(2), 5, {0: 2, 1: 0})
        assert a.on_dart((0, 0)) == 2
        assert a.on_dart((0, 1)) == 2

    def test_from_dart_values_consistency(self):
        g = vine(2)
        b = OneCochain.from_dart_values(g, 5, {(0, 0): 2, (0, 1): 3, (1, 0): 0, (1, 1): 0})
        assert b.on_edge(0) == 2
        with pytest.raises(CochainError):
            OneCochain.from_dart_values(g, 5, {(0, 0): 2, (0, 1): 2, (1, 0): 0, (1, 1): 0})
        with pytest.raises(CochainError):
            EvenFunction.from_dart_values(g, 5, {(0, 0): 2, (0, 1): 3, (1, 0): 0, (1, 1): 0})

    def test_loop_darts_are_conjugate(self):
        g = Multigraph([0], [(0, 0)])
        b = OneCochain(g, 4, {0: 2})  # 2 == -2 mod 4
        assert b.on_dart((0, 1)) == 2
        b2 = OneCochain(g, 5, {0: 1})  # the two loop darts carry 1 and 4
        assert b2.on_dart((0, 1)) == 4

    def test_unknown_edge_rejected(self):
        with pytest.raises(CochainError):
            OneCochain(vine(2), 5, {0: 1, 1: 1, 7: 1})


def on_domain(cls, values, ell=7):
    """A cochain of class cls on a triangle with a doubled side: the four
    values go to the edges in order, or their first three to the vertices."""
    g = Multigraph(range(3), [(0, 1), (1, 2), (2, 0), (1, 2)])
    domain = g.vertices if cls is ZeroCochain else g.edge_ids
    return cls(g, ell, dict(zip(domain, values)))


@pytest.mark.parametrize("cls", [ZeroCochain, OneCochain, EvenFunction])
class TestSharedAlgebra:
    """The one class body behind vertex functions and dart functions."""

    def test_negation_and_difference(self, cls):
        a, b = on_domain(cls, [1, 5, 2, 3]), on_domain(cls, [4, 0, 6, 6])
        assert (a + (-a)).is_zero()
        assert a - b == a + (-b) == on_domain(cls, [4, 5, 3, 4])

    def test_scale(self, cls):
        a = on_domain(cls, [1, 5, 2, 3])
        assert a.scale(3) == on_domain(cls, [3, 1, 6, 2])
        assert a.scale(-1) == -a
        assert a.scale(7).is_zero()
        assert on_domain(cls, [0, 5, 0, 0]).support() == frozenset({1})

    def test_equal_values_equal_objects(self, cls):
        a, b = on_domain(cls, [1, 5, 2, 3]), on_domain(cls, [8, -2, 2, 10])
        assert a == b and hash(a) == hash(b)
        assert a != on_domain(cls, [2, 5, 2, 3])
        assert a != on_domain(cls, [1, 5, 2, 3], ell=11)

    def test_classes_unequal(self, cls):
        for other in (ZeroCochain, OneCochain, EvenFunction):
            if other is not cls:
                assert on_domain(cls, [1, 5, 2, 3]) != on_domain(other, [1, 5, 2, 3])

    def test_repr_names_class(self, cls):
        assert repr(on_domain(cls, [1, 0, 0, 0])).startswith(f"{cls.__name__}(ell=7, ")

    def test_error_messages(self, cls):
        kind, kinds = ("vertex", "vertices") if cls is ZeroCochain else ("edge", "edges")
        a = on_domain(cls, [1, 1, 1, 1])
        values = a.as_dict()
        del values[2]
        with pytest.raises(CochainError, match=f"^missing value at {kind} 2$"):
            cls(a.graph, 7, values)
        with pytest.raises(CochainError, match=f"^values on unknown {kinds}$"):
            cls(a.graph, 7, {**a.as_dict(), 9: 1})


class TestDelta:
    def test_constant_maps_to_zero(self):
        g = theta()
        assert delta(ZeroCochain(g, 5, {0: 3, 1: 3})).is_zero()

    def test_vine_example(self):
        b = delta(ZeroCochain(vine(2), 5, {0: 0, 1: 1}))
        assert b.on_dart((0, 0)) == 1 and b.on_dart((1, 0)) == 1

    def test_loop_dart_zero(self):
        g = Multigraph([0], [(0, 0)])
        assert delta(ZeroCochain(g, 5, {0: 4})).is_zero()


class TestBoundary:
    def test_vine_example(self):
        # both edges oriented toward vertex 1, value 1: head sums +2, tail -2
        b = OneCochain(vine(2), 5, {0: 1, 1: 1})
        d0 = boundary(b)
        assert d0(1) == 2 and d0(0) == 3

    def test_total_sum_vanishes(self):
        g = Multigraph(range(3), [(0, 1), (1, 2), (2, 0), (0, 0)])
        b = OneCochain(g, 7, {0: 1, 1: 2, 2: 3, 3: 0})
        assert sum(boundary(b).as_dict().values()) % 7 == 0

    def test_zero(self):
        assert boundary(OneCochain(vine(2), 5, {0: 0, 1: 0})).is_zero()


class TestPairing:
    def test_zero_cochain_pairing(self):
        g = vine(2)
        assert pairing(ZeroCochain(g, 5, {0: 1, 1: 1}), ZeroCochain(g, 5, {0: 1, 1: 1})) == 2

    def test_orientation_independent(self):
        g = vine(2)
        b1 = OneCochain(g, 5, {0: 2, 1: 3})
        b2 = OneCochain(g, 5, {0: 1, 1: 4})
        # negating both darts of an edge leaves each product unchanged
        assert pairing(b1, b2) == pairing(-b1, -b2)

    def test_adjointness(self):
        g = Multigraph(range(3), [(0, 1), (1, 2), (2, 0), (1, 2)])
        a = ZeroCochain(g, 7, {0: 1, 1: 5, 2: 2})
        b = OneCochain(g, 7, {0: 3, 1: 0, 2: 6, 3: 2})
        assert pairing(delta(a), b) == pairing(a, boundary(b))

    def test_zero(self):
        g = vine(2)
        assert pairing(OneCochain(g, 5, {0: 0, 1: 0}), OneCochain(g, 5, {0: 1, 1: 2})) == 0


def reachable(g, edges, start):
    """The vertices joined to start by the given edges, by breadth-first search."""
    seen, queue = {start}, [start]
    for x in queue:
        for f in edges:
            a, b = g.ends(f)
            for u, w in ((a, b), (b, a)):
                if u == x and w not in seen:
                    seen.add(w)
                    queue.append(w)
    return seen


def random_multigraph(rng):
    """A connected multigraph on 1 to 9 vertices with loops and parallel
    edges, tails and heads in either order."""
    nv = rng.randint(1, 9)
    pairs = [(rng.randrange(v), v) for v in range(1, nv)]
    pairs += [(rng.randrange(nv), rng.randrange(nv)) for _ in range(rng.randint(0, 8))]
    pairs += pairs[: rng.randint(0, 2)]
    return Multigraph(range(nv), [p[::-1] if rng.random() < 0.5 else p for p in pairs])


# the functions that take a spanning tree t of g, each checking it first
TREE_FUNCTIONS = {
    "fundamental_circuits": fundamental_circuits,
    "cut": lambda g, t: cut(g, t, min(t), 5),
    "cut_basis": lambda g, t: cut_basis(g, t, 5),
}


class TestCuts:
    @pytest.mark.parametrize("name", sorted(TREE_FUNCTIONS))
    @pytest.mark.parametrize("edges, t, message", [
        ([(0, 1), (0, 1)], {0, 1}, "not a spanning tree: wrong edge count"),
        ([(0, 1), (0, 1), (1, 2)], {0, 1}, "not a spanning tree: contains a circuit"),
        ([(0, 0), (0, 1)], {0}, "not a spanning tree: contains a circuit"),
        ([(0, 1), (1, 2)], {0, 7}, "unknown edge id 7"),
    ])
    def test_non_tree_rejected(self, name, edges, t, message):
        g = Multigraph(range(1 + max(max(p) for p in edges)), edges)
        with pytest.raises(GraphError, match=f"^{message}$"):
            TREE_FUNCTIONS[name](g, t)

    def test_cut_edge_outside_tree_rejected(self):
        g = Multigraph(range(3), [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(GraphError, match="^cut edge must lie in the spanning tree$"):
            cut(g, {0, 1}, 2, 5)

    def test_vine_cut(self):
        g = vine(2)
        c = cut(g, {0}, 0, 5)
        assert c.on_edge(0) == c.on_edge(1) != 0

    def test_tree_graph_single_support(self):
        g = Multigraph(range(3), [(0, 1), (1, 2)])
        for b in cut_basis(g, spanning_tree(g), 5):
            assert len(b.support()) == 1

    def test_theta_full_support(self):
        g = theta()
        (b,) = cut_basis(g, spanning_tree(g), 5)
        assert b.support() == frozenset({0, 1, 2})

    def test_cut_is_delta_of_head_side(self):
        for g in connected_multigraphs(4):
            t = spanning_tree(g)
            for e in t:
                head_side = reachable(g, t - {e}, g.ends(e)[1])
                indicator = ZeroCochain(
                    g, 5, {v: int(v in head_side) for v in g.vertices}
                )
                c = cut(g, t, e, 5)
                assert c == delta(indicator)
                assert c.on_edge(e) == 1

    @pytest.mark.parametrize("ell", [2, 5, 7, 12])
    def test_basis_matches_single_cuts(self, ell):
        # random trees of random multigraphs with loops and parallel edges
        rng = random.Random(ell)
        for _ in range(60):
            g = random_multigraph(rng)
            t, _ = spanning_forest(g, rng.sample(g.edge_ids, g.n_edges))
            assert cut_basis(g, t, ell) == [cut(g, t, e, ell) for e in sorted(t)]

    def test_basis_size_and_membership(self):
        for g in connected_multigraphs(4):
            basis = cut_basis(g, spanning_tree(g), 5)
            assert len(basis) == g.n_vertices - 1
            for b in basis:
                assert brute_in_image_delta(b)


class TestInImageDelta:
    def test_vine_examples(self):
        g = vine(2)
        assert in_image_delta(OneCochain(g, 5, {0: 1, 1: 1}))
        assert not in_image_delta(OneCochain(g, 5, {0: 1, 1: 2}))

    @pytest.mark.parametrize("ell", [2, 3, 5])
    def test_matches_oracle(self, ell):
        import itertools

        for g in connected_multigraphs(3):
            image = image_delta_set(g, ell)
            edge_list = sorted(g.edges.items())
            for vals in itertools.product(range(ell), repeat=g.n_edges):
                b = OneCochain(g, ell, dict(zip([e for e, _ in edge_list], vals)))
                assert in_image_delta(b) == (vals in image)

    @pytest.mark.parametrize("ell", [2, 5, 6, 12])
    def test_matches_circuit_definition(self, ell):
        # b lies in im delta iff it sums to 0 over every fundamental circuit;
        # random multigraphs with loops and parallel edges, half the cochains exact
        rng = random.Random(ell)
        for _ in range(60):
            g = random_multigraph(rng)
            circuits = fundamental_circuits(g, spanning_tree(g))
            b = OneCochain(g, ell, {e: rng.randrange(ell) for e in g.edge_ids})
            if rng.random() < 0.5:
                b = delta(ZeroCochain(g, ell, {v: rng.randrange(ell) for v in g.vertices}))
            assert in_image_delta(b) == all(circuit_sum(b, c) == 0 for c in circuits)

    def test_long_path_with_parallel_chords(self):
        # a 1,000-vertex path and 1,000 chords joining its ends: the
        # fundamental circuits have total length about 10^6, one tree walk 2,000
        n, ell = 1000, 7
        g = Multigraph(range(n), [(v, v + 1) for v in range(n - 1)] + [(0, n - 1)] * 1000)
        rng = random.Random(0)
        phi = ZeroCochain(g, ell, {v: rng.randrange(ell) for v in g.vertices})
        phi -= ZeroCochain(g, ell, dict.fromkeys(g.vertices, phi(0)))
        b = delta(phi)
        assert in_image_delta(b)
        assert solve_delta(b) == phi
        chord = rng.randrange(n - 1, g.n_edges)
        broken = b + OneCochain(g, ell, {e: int(e == chord) for e in g.edge_ids})
        assert not in_image_delta(broken)
        with pytest.raises(CochainError):
            solve_delta(broken)
        m = OneCochain(g, ell, {e: rng.randrange(1, ell) for e in g.edge_ids})
        d = DecoratedGraph(g, ell, m)
        for c in (b, broken):
            ghost = {e: c.on_edge(e) * pow(m.on_edge(e), -1, ell) for e in g.edge_ids}
            assert lifts(EvenFunction(g, ell, ghost), d) == in_image_delta(c)

    def test_no_union_find_pass(self, monkeypatch):
        # bridges, exactness, cuts and circuits root the BFS tree: no
        # spanning_forest pass
        g = Multigraph(range(3), [(0, 0), (0, 1), (0, 1), (1, 2)])
        phi = ZeroCochain(g, 5, {0: 0, 1: 2, 2: 4})
        calls = count_calls(monkeypatch, graphs, "spanning_forest")
        assert separating_edges(g) == {3}
        assert in_image_delta(delta(phi))
        assert solve_delta(delta(phi)) == phi
        t = {1, 3}
        assert cut(g, t, 3, 5) == cut_basis(g, t, 5)[1]
        assert len(fundamental_circuits(g, t)) == 2
        # vertex 1's single edge to a neighbour is the bridge 3: no
        # configuration, so no tree is built
        assert classify._reduction(g) is None
        assert calls == []
        spanning_tree(g)
        assert calls == [g]

    @pytest.mark.parametrize("ell", [2, 3, 5])
    def test_image_size(self, ell):
        for g in connected_multigraphs(4):
            assert len(image_delta_set(g, ell)) == ell ** (g.n_vertices - 1)


class TestSolveDelta:
    def test_zero(self):
        b = OneCochain(vine(2), 5, {0: 0, 1: 0})
        assert solve_delta(b).is_zero()

    def test_vine(self):
        b = OneCochain(vine(2), 5, {0: 1, 1: 1})
        a = solve_delta(b)
        assert delta(a) == b
        assert a(0) == 0  # base normalization at the lowest vertex

    def test_rejects_non_image(self):
        with pytest.raises(CochainError):
            solve_delta(OneCochain(vine(2), 5, {0: 1, 1: 2}))


class TestSolveBoundary:
    def test_zero(self):
        g = vine(2)
        assert boundary(solve_boundary(ZeroCochain(g, 5, {0: 0, 1: 0}))).is_zero()

    def test_vine_example(self):
        g = vine(2)
        d0 = ZeroCochain(g, 5, {0: 2, 1: 3})
        m = solve_boundary(d0)
        assert boundary(m) == d0

    def test_obstruction(self):
        with pytest.raises(CochainError):
            solve_boundary(ZeroCochain(vine(2), 5, {0: 1, 1: 1}))

    def test_roundtrip_on_corpus(self):
        import itertools

        for g in connected_multigraphs(3):
            # the corpus runs every edge upward; the flip runs it toward the root
            flipped = Multigraph(g.vertices, {e: (h, t) for e, (t, h) in g.edges.items()})
            for vals in itertools.product(range(3), repeat=g.n_vertices):
                if sum(vals) % 3 != 0:
                    continue
                for h in (g, flipped):
                    d0 = ZeroCochain(h, 3, dict(zip(h.vertices, vals)))
                    assert boundary(solve_boundary(d0)) == d0
