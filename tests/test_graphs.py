"""Multigraph structure: contraction, bridges, trees, circuits, codes."""

import itertools
import pickle
import random
from collections import Counter

import pytest

from ghostgraph import (
    GraphError,
    Multigraph,
    betti1,
    canonical_code,
    contract_edges,
    cut,
    enumerate_base_graphs,
    fundamental_circuits,
    is_tree_like,
    separating_edges,
    spanning_tree,
)
from ghostgraph.graphs import SizeBoundExceeded, code_bytes, least_encodings

from oracles import brute_bridges, brute_key, connected_multigraphs


def vine(n, v0=0, v1=1):
    return Multigraph([v0, v1], [(v0, v1)] * n)


def triangle():
    return Multigraph(range(3), [(0, 1), (1, 2), (2, 0)])


def random_graph(seed):
    """A random tree on up to 30 vertices plus a few chords, loops and
    parallel edges, so both bridges and circuits occur."""
    rng = random.Random(seed)
    n = rng.randint(1, 30)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n // 2))]
    return Multigraph(range(n), edges or [(0, 0)])


def barbell():
    # two 2-vines joined by one edge
    return Multigraph(range(4), [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3)])


class TestConstruction:
    def test_disconnected_rejected(self):
        with pytest.raises(GraphError):
            Multigraph([0, 1, 2], [(0, 1)])

    def test_unknown_vertex_rejected(self):
        with pytest.raises(GraphError):
            Multigraph([0, 1], [(0, 5)])

    def test_duplicate_edge_ids_rejected(self):
        with pytest.raises(GraphError):
            Multigraph([0, 1], {"1": (0, 1), 1: (1, 0)})

    def test_darts(self):
        g = vine(2)
        assert g.tail((0, 0)) == 0
        assert g.head((0, 0)) == 1
        assert g.conj((0, 0)) == (0, 1)
        assert g.tail((0, 1)) == 1


def scanned_darts(g, v):
    """The darts at v by a scan of every edge, in edge-id order."""
    out = []
    for e, (t, h) in sorted(g.edges.items()):
        if t == v:
            out.append((e, 0))
        if h == v:
            out.append((e, 1))
    return out


class TestIncidence:
    def test_matches_edge_scan(self):
        for g in connected_multigraphs(4):
            # single-edge contractions keep non-contiguous edge ids
            for h in [g] + [contract_edges(g, {e}).graph for e in g.edge_ids]:
                for v in h.vertices:
                    darts = scanned_darts(h, v)
                    assert h.darts_at(v) == darts
                    assert h.degree(v) == len(darts)
                    assert h.neighbors(v) == {h.head(d) for d in darts} - {v}

    def test_unknown_vertex(self):
        with pytest.raises(GraphError):
            vine(2).darts_at(5)

    def test_edges_read_only(self):
        g = barbell()
        with pytest.raises(TypeError):
            g.edges[0] = (1, 0)
        assert g.ends(0) == (0, 1)
        assert pickle.loads(pickle.dumps(g)) == g
        # keeping its bridges changes neither equality nor hash
        bridges = separating_edges(g)
        fresh = barbell()
        assert g == fresh and hash(g) == hash(fresh)
        copy = pickle.loads(pickle.dumps(g))
        assert copy == fresh and separating_edges(copy) == bridges == brute_bridges(fresh)


class TestContraction:
    def test_triangle_one_edge(self):
        out = contract_edges(triangle(), {1})
        assert out.graph.n_vertices == 2
        assert out.graph.n_edges == 2
        assert not out.graph.loops()
        # surviving ids are preserved
        assert set(out.graph.edge_ids) == {0, 2}

    def test_parallel_pair_to_loop(self):
        out = contract_edges(vine(2), {0})
        assert out.graph.n_vertices == 1
        assert out.graph.loops() == frozenset({1})

    def test_empty_contraction_is_identity(self):
        g = triangle()
        out = contract_edges(g, set())
        assert out.graph is g  # no new graph is built
        assert out.vertex_map == {v: v for v in g.vertices}

    def test_unknown_edge(self):
        with pytest.raises(GraphError):
            contract_edges(triangle(), {99})

    def test_contract_loop_keeps_vertices(self):
        g = Multigraph([0, 1], [(0, 1), (0, 0)])
        out = contract_edges(g, {1})
        assert out.graph.n_vertices == 2


class TestSeparatingEdges:
    def test_path(self):
        g = Multigraph(range(3), [(0, 1), (1, 2)])
        assert separating_edges(g) == {0, 1}

    def test_vine(self):
        assert separating_edges(vine(3)) == set()

    def test_barbell(self):
        assert separating_edges(barbell()) == {2}

    def test_loops_never_separate(self):
        g = Multigraph([0], [(0, 0)])
        assert separating_edges(g) == set()

    @staticmethod
    def chorded_path(n=1000, pendant=False):
        """A path on n vertices whose two ends are joined by n parallel
        chords, so n fundamental circuits share the whole path."""
        edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)] * n
        if pendant:
            edges.append((n - 1, n))
        return Multigraph(range(n + pendant), edges)

    def test_chorded_path(self):
        assert separating_edges(self.chorded_path()) == set()

    def test_chorded_path_with_pendant_edge(self):
        g = self.chorded_path(pendant=True)
        assert separating_edges(g) == {g.n_edges - 1}

    @pytest.mark.parametrize(
        "g", connected_multigraphs(4) + [random_graph(seed) for seed in range(30)]
    )
    def test_matches_removal_oracle(self, g):
        assert separating_edges(g) == brute_bridges(g)

    @pytest.mark.parametrize(
        "g", connected_multigraphs(4) + [random_graph(seed) for seed in range(30)]
    )
    def test_single_edge_cuts(self, g):
        # a bridge is a tree edge whose cut is supported on it alone
        t = spanning_tree(g)
        assert separating_edges(g) == {e for e in t if cut(g, t, e, 5).support() == {e}}


class TestSpanningTree:
    def test_tree_input(self):
        g = Multigraph(range(4), [(0, 1), (1, 2), (1, 3)])
        assert spanning_tree(g) == {0, 1, 2}

    def test_vine_lowest_id(self):
        assert spanning_tree(vine(2)) == {0}

    @pytest.mark.parametrize("g", connected_multigraphs(4))
    def test_size_and_bridges(self, g):
        t = spanning_tree(g)
        assert len(t) == g.n_vertices - 1
        assert brute_bridges(g) <= t


class TestCircuits:
    def test_vine(self):
        g = vine(2)
        circs = fundamental_circuits(g, {0})
        assert circs == [[(1, 0), (0, 1)]]

    def test_loop(self):
        g = Multigraph([0], [(0, 0)])
        assert fundamental_circuits(g, set()) == [[(0, 0)]]

    def test_triangle(self):
        g = triangle()
        t = spanning_tree(g)
        (circ,) = fundamental_circuits(g, t)
        assert len(circ) == 3
        # closed path
        for d, d2 in zip(circ, circ[1:] + circ[:1]):
            assert g.head(d) == g.tail(d2)

    def test_bad_tree_rejected(self):
        with pytest.raises(GraphError):
            fundamental_circuits(vine(2), {0, 1})

    def test_tree_with_circuit_rejected(self):
        # the right edge count, but the two parallel edges close a circuit
        g = Multigraph(range(3), [(0, 1), (0, 1), (1, 2)])
        with pytest.raises(GraphError, match="circuit"):
            fundamental_circuits(g, {0, 1})


class TestBetti:
    def test_examples(self):
        assert betti1(Multigraph(range(3), [(0, 1), (1, 2)])) == 0
        assert betti1(vine(4)) == 3
        assert betti1(vine(3)) == 2


class TestTreeLike:
    def test_examples(self):
        assert is_tree_like(Multigraph([0], [(0, 0)]))
        assert not is_tree_like(vine(2))
        assert is_tree_like(Multigraph(range(3), [(0, 1), (1, 2), (2, 2)]))

    @pytest.mark.parametrize("g", connected_multigraphs(4))
    def test_bridge_count_characterization(self, g):
        assert is_tree_like(g) == (len(brute_bridges(g)) == g.n_vertices - 1)


class TestCanonicalCode:
    def test_labelled_vine_swap(self):
        g = vine(2)
        c1 = canonical_code(g, labels={0: 1, 1: 2}, ell=5)
        c2 = canonical_code(g, labels={0: 2, 1: 1}, ell=5)
        assert c1 == c2

    def test_labelled_vine_distinct(self):
        g = vine(2)
        c1 = canonical_code(g, labels={0: 1, 1: 1}, ell=5)
        c2 = canonical_code(g, labels={0: 1, 1: 4}, ell=5)
        assert c1 != c2

    def test_self_equal_under_relabeling(self):
        g = Multigraph([3, 7, 9], [(3, 7), (7, 9), (9, 3), (3, 7)])
        h = Multigraph([0, 1, 2], [(1, 2), (2, 0), (0, 1), (1, 2)])
        assert canonical_code(g) == canonical_code(h)

    def test_distinguishes_orientation_classes(self):
        # directed labels around a triangle vs one edge flipped
        g = triangle()
        aligned = canonical_code(g, labels={0: 1, 1: 1, 2: 1}, ell=5)
        flipped = canonical_code(g, labels={0: 1, 1: 1, 2: 4}, ell=5)
        assert aligned != flipped

    def test_loop_label_up_to_sign(self):
        g = Multigraph([0, 1], [(0, 1), (1, 1)])
        assert canonical_code(g, {0: 2, 1: 1}, ell=5) == canonical_code(g, {0: 2, 1: 4}, ell=5)
        assert canonical_code(g, {0: 2, 1: 1}, ell=5) != canonical_code(g, {0: 2, 1: 2}, ell=5)

    def test_single_vertex(self):
        assert canonical_code(Multigraph([4], [])) == b"((0,), ())"
        assert canonical_code(Multigraph([4], [(4, 4)])) == b"((2,), ((0, 0, 0),))"

    def test_size_bound(self):
        n = 9
        g = Multigraph(range(n), [(i, (i + 1) % n) for i in range(n)])
        with pytest.raises(SizeBoundExceeded, match="limited to 8 vertices, asked for 9"):
            canonical_code(g)

    def test_partition_matches_brute_key(self):
        # the oracle's permutation key and canonical_code group the labelled
        # graphs (loops and bridges allowed) the same way
        pairs = {(brute_key(g), canonical_code(g)) for g in connected_multigraphs(5, dedup=False)}
        assert len(pairs) == len({k for k, _ in pairs}) == len({c for _, c in pairs})
        assert len(pairs) == len(connected_multigraphs(5))

    @pytest.mark.parametrize("ell", [2, 3])
    def test_labelled_partition_matches_brute_key(self, ell):
        # every labelling mod ell, zeros included, of every labelled graph
        # with at most 3 edges (loops allowed), coded in one batch per graph
        pairs = set()
        for g in connected_multigraphs(3, dedup=False):
            rows = list(itertools.product(range(ell), repeat=g.n_edges))
            codes = code_bytes(g, least_encodings(g, rows, ell), ell)
            for row, code in zip(rows, codes):
                pairs.add((brute_key(g, dict(zip(g.edge_ids, row)), ell), code))
        assert len(pairs) == len({k for k, _ in pairs}) == len({c for _, c in pairs})


def repr_code_bytes(g, enc, ell):
    """code_bytes written out as the repr of the sorted degrees and of the
    (a, b, m) triples of each row, one row at a time."""
    prefix = tuple(sorted(g.degree(v) for v in g.vertices))
    return [
        repr((prefix, tuple((*divmod(c // ell, g.n_vertices), c % ell) for c in row))).encode()
        for row in enc.tolist()
    ]


class TestCodeBytes:
    """The table-driven code_bytes against the repr of each row."""

    @pytest.mark.parametrize(
        "g,rows,ell",
        [
            (Multigraph([4], []), [[], []], 5),
            (Multigraph([0, 1], [(0, 1)]), [[1], [3], [4]], 5),
            (Multigraph([0], [(0, 0)]), [[2], [3]], 7),
            (Multigraph([0, 1], [(0, 1), (1, 1), (1, 1)]), [[1, 2, 5], [6, 6, 1]], 7),
            (triangle(), [[1, 2, 3], [3, 3, 3], [6, 1, 1]], 7),
        ],
        ids=["no-edges", "one-edge", "loop", "loops", "triangle"],
    )
    def test_matches_repr(self, g, rows, ell):
        enc = least_encodings(g, rows, ell)
        assert code_bytes(g, enc, ell) == repr_code_bytes(g, enc, ell)

    def test_edge_cases(self):
        assert code_bytes(Multigraph([4], []), least_encodings(Multigraph([4], []), [[]])) == [
            b"((0,), ())"
        ]
        one = Multigraph([0, 1], [(0, 1)])
        # swapping the ends reads 3 as -3 = 2; a 1-tuple keeps its comma
        assert code_bytes(one, least_encodings(one, [[3]], 5), 5) == [b"((1, 1), ((0, 1, 2),))"]
        loop = Multigraph([0], [(0, 0)])
        # a loop keeps the lesser of m and -m
        assert code_bytes(loop, least_encodings(loop, [[5]], 7), 7) == [b"((2,), ((0, 0, 2),))"]

    def test_one_row_at_large_level(self):
        ell = 100003
        g = Multigraph([0, 1], [(0, 1), (0, 1), (0, 1)])
        enc = least_encodings(g, [[1, 50000, ell - 1]], ell)
        assert code_bytes(g, enc, ell) == repr_code_bytes(g, enc, ell)
        assert code_bytes(g, enc, ell) == [b"((3, 3), ((0, 1, 1), (0, 1, 50000), (0, 1, 100002)))"]


class TestEnumerateBaseGraphs:
    def test_two_edges(self):
        (g,) = enumerate_base_graphs(2)
        assert canonical_code(g) == canonical_code(vine(2))

    def test_three_edges(self):
        codes = {canonical_code(g) for g in enumerate_base_graphs(3)}
        expected = {canonical_code(vine(2)), canonical_code(vine(3)), canonical_code(triangle())}
        assert codes == expected

    @pytest.mark.parametrize("max_edges", [4, 5])
    def test_matches_oracle(self, max_edges):
        got = {brute_key(g) for g in enumerate_base_graphs(max_edges)}
        expected = {
            brute_key(g)
            for g in connected_multigraphs(max_edges)
            if g.n_vertices >= 2 and not g.loops() and not brute_bridges(g)
        }
        assert got == expected

    def test_every_graph_valid(self):
        for g in enumerate_base_graphs(5):
            assert not g.loops()
            assert not separating_edges(g)
            assert all(g.degree(v) >= 2 for v in g.vertices)
            assert g.n_vertices >= 2

    def test_greatest_labelling(self):
        """Each graph lives on range(#V), its edge ids number its sorted pair
        list, and no vertex permutation gives a greater sorted pair list."""
        for g in enumerate_base_graphs(6):
            assert g.vertices == tuple(range(g.n_vertices))
            assert g.edge_ids == tuple(range(g.n_edges))
            pairs = tuple(g.ends(e) for e in g.edge_ids)
            assert pairs == tuple(sorted(pairs))
            assert all(t < h for t, h in pairs)
            for p in itertools.permutations(g.vertices):
                relabelled = sorted(tuple(sorted((p[t], p[h]))) for t, h in pairs)
                assert tuple(relabelled) <= pairs, (g, p)

    def test_smaller_bound_is_prefix(self):
        five, six = enumerate_base_graphs(5), enumerate_base_graphs(6)
        assert five == six[: len(five)]
        assert all(g.n_edges == 6 for g in six[len(five):])

    def test_counts_and_order(self):
        graphs = enumerate_base_graphs(6)
        counts = Counter(g.n_edges for g in graphs)
        assert counts == {2: 1, 3: 2, 4: 4, 5: 8, 6: 23}
        keys = [(g.n_edges, g.n_vertices, canonical_code(g)) for g in graphs]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_size_bound(self):
        with pytest.raises(SizeBoundExceeded, match="limited to 8 edges, asked for 9"):
            enumerate_base_graphs(9)

    def test_seven_edges(self):
        graphs = enumerate_base_graphs(7)
        counts = Counter(g.n_edges for g in graphs)
        assert counts == {2: 1, 3: 2, 4: 4, 5: 8, 6: 23, 7: 56}
        assert len(graphs) == 94
        keys = [(g.n_edges, g.n_vertices, canonical_code(g)) for g in graphs]
        assert keys == sorted(keys)
        six = enumerate_base_graphs(6)
        assert graphs[: len(six)] == six
