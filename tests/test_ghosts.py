"""Ghost groups, ages, stratum age, composite-level criteria, covers."""

import itertools
import random
import sys
from fractions import Fraction

import pytest

from ghostgraph import (
    DecoratedGraph,
    DecorationError,
    EvenFunction,
    Multigraph,
    age,
    alpha_beta,
    cover_decompose,
    generated_by_qr,
    ghost_group,
    inverse,
    is_junior,
    is_supported,
    is_tree_like,
    lifts,
    qr_subgroup,
    stratum_age,
    vine_witness,
)
from ghostgraph import cochains, graphs
from ghostgraph.decorated import admissible_k, gamma_nu, genus_labeling, prime_factors
from ghostgraph.ghosts import INFINITE_AGE, minimal_age_report, reduced_core
from ghostgraph.graphs import SizeBoundExceeded

from oracles import (
    brute_bridges,
    brute_ghost_set,
    connected_multigraphs,
    brute_qr_set,
    brute_stratum_age,
    group_set,
    vine_stratum_age,
)
from test_cli import count_bridge_computations, count_calls
from test_cochains import random_multigraph


def vine(n):
    return Multigraph([0, 1], [(0, 1)] * n)


def dec(g, ell, values):
    return DecoratedGraph.from_edge_values(g, ell, values)


def two_part_covers(edge_ids):
    """Every split of the edges into two nonempty parts, the first part
    holding the first edge."""
    first, *rest = edge_ids
    for r in range(len(rest)):
        for extra in itertools.combinations(rest, r):
            p1 = frozenset((first, *extra))
            yield p1, frozenset(edge_ids) - p1


class TestLifts:
    def test_vine_ell3(self):
        d = dec(vine(2), 3, {0: 1, 1: 1})
        assert lifts(EvenFunction(d.graph, 3, {0: 1, 1: 1}), d)
        assert not lifts(EvenFunction(d.graph, 3, {0: 1, 1: 2}), d)

    def test_zero_always_lifts(self):
        d = dec(vine(2), 3, {0: 1, 1: 2})
        assert lifts(EvenFunction(d.graph, 3, {0: 0, 1: 0}), d)

    def test_requires_faithful(self):
        d = dec(vine(2), 3, {0: 0, 1: 1})
        with pytest.raises(DecorationError):
            lifts(EvenFunction(d.graph, 3, {0: 0, 1: 0}), d)


class TestGhostGroup:
    def test_vine_ell5_solution_set(self):
        d = dec(vine(2), 5, {0: 1, 1: 2})
        got = group_set(ghost_group(d))
        assert got == frozenset({(c % 5, (3 * c) % 5) for c in range(5)})

    def test_tree_like_full_on_bridges(self):
        g = Multigraph(range(3), [(0, 1), (1, 2)])
        d = dec(g, 5, {0: 1, 1: 3})
        group = ghost_group(d)
        assert group.order == 25
        assert group_set(group) == frozenset(itertools.product(range(5), repeat=2))

    def test_single_loop_trivial(self):
        g = Multigraph([0, 1], [(0, 1), (1, 1)])
        # gamma0 contracts the zero edge, leaving one loop
        d = dec(g, 5, {0: 0, 1: 2})
        group = ghost_group(d)
        assert group.order == 1
        assert all(a.is_zero() for a in group.elements())

    def test_order_formula(self):
        d = dec(vine(3), 5, {0: 1, 1: 1, 2: 3})
        assert ghost_group(d).order == 5

    def test_generators_lift(self):
        d = dec(vine(3), 7, {0: 1, 1: 2, 2: 5})
        group = ghost_group(d)
        for gen in group.generators:
            assert lifts(gen, group.decorated)

    @pytest.mark.parametrize("ell", [2, 3])
    def test_elements_distinct(self, ell):
        # independent generators: every coefficient tuple is a new element
        rng = random.Random(ell)
        for g in connected_multigraphs(3):
            d = dec(g, ell, {e: rng.randrange(ell) for e in g.edge_ids})
            for group in (ghost_group(d), qr_subgroup(d)):
                elements = list(group.elements())
                assert len(elements) == len(set(elements)) == group.order, g

    def test_expansion_bound(self):
        group = ghost_group(dec(vine(2), 5, {0: 1, 1: 1}))
        with pytest.raises(
            SizeBoundExceeded, match="group order 5 exceeds the expansion bound 4"
        ):
            next(group.elements(max_elements=4))


class TestQrSubgroup:
    def test_vine_trivial(self):
        assert qr_subgroup(dec(vine(3), 5, {0: 1, 1: 1, 2: 1})).order == 1

    def test_barbell_bridge(self):
        g = Multigraph(range(4), [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3)])
        d = dec(g, 5, {0: 1, 1: 1, 2: 1, 3: 1, 4: 1})
        qr = qr_subgroup(d)
        assert qr.order == 5
        assert all(a.support() <= {2} for a in qr.elements())

    def test_tree_full_group(self):
        g = Multigraph(range(3), [(0, 1), (1, 2)])
        d = dec(g, 5, {0: 1, 1: 3})
        assert group_set(qr_subgroup(d)) == group_set(ghost_group(d))


class TestAge:
    def test_examples(self):
        assert age(EvenFunction(vine(2), 3, {0: 1, 1: 1})) == Fraction(2, 3)
        assert age(EvenFunction(vine(3), 5, {0: 1, 1: 1, 2: 2})) == Fraction(4, 5)
        assert age(EvenFunction(vine(2), 5, {0: 0, 1: 0})) == 0

    def test_loops_excluded(self):
        g = Multigraph([0, 1], [(0, 1), (0, 1), (1, 1)])
        a = EvenFunction(g, 5, {0: 1, 1: 1, 2: 3})
        assert age(a) == Fraction(2, 5)

    def test_supported_inverse_identity(self):
        a = EvenFunction(vine(2), 5, {0: 1, 1: 3})
        assert is_supported(a)
        assert age(a) + age(inverse(a)) == 2
        b = EvenFunction(vine(2), 3, {0: 1, 1: 1})
        assert age(b) + age(inverse(b)) == 2

    def test_unsupported(self):
        assert not is_supported(EvenFunction(vine(2), 5, {0: 1, 1: 0}))


class TestStratumAge:
    def test_vine_table_ell5(self):
        table = {
            (1, 1): Fraction(2, 5),
            (1, 2): Fraction(3, 5),
            (1, 3): Fraction(3, 5),
            (1, 4): Fraction(1),
            (2, 2): Fraction(2, 5),
        }
        for (m0, m1), expected in table.items():
            d = dec(vine(2), 5, {0: m0, 1: m1})
            assert stratum_age(d) == expected, (m0, m1)

    def test_junior_flags(self):
        assert is_junior(dec(vine(2), 5, {0: 1, 1: 3}))
        assert not is_junior(dec(vine(2), 5, {0: 1, 1: 4}))

    def test_tree_like_infinite(self):
        g = Multigraph(range(3), [(0, 1), (1, 2)])
        assert stratum_age(dec(g, 5, {0: 1, 1: 3})) == INFINITE_AGE

    @pytest.mark.parametrize("ell", [11, 13])
    def test_matches_oracle_at_larger_levels(self, ell):
        # 15 random graphs with 2-4 vertices, at most 5 edges, zero twists
        # with probability 0.2 and a reduced core of at least 2 vertices
        rng = random.Random(ell)
        cases = 0
        while cases < 15:
            nv = rng.randint(2, 4)
            edges = [(rng.randrange(v), v) for v in range(1, nv)]
            while len(edges) < 5 and rng.random() < 0.8:
                edges.append((rng.randrange(nv), rng.randrange(nv)))
            g = Multigraph(range(nv), edges)
            twists = {e: rng.randrange(1, ell) if rng.random() > 0.2 else 0 for e in g.edge_ids}
            d = dec(g, ell, twists)
            if reduced_core(d).graph.n_vertices == 1:
                continue
            cases += 1
            assert stratum_age(d) == brute_stratum_age(d), d

    def test_vine_at_level_1009(self):
        ms = (1, 10, 100, 1000)
        d = dec(vine(4), 1009, dict(enumerate(ms)))
        assert stratum_age(d) == vine_stratum_age(1009, ms)

    def test_search_bound(self):
        g = Multigraph(range(5), [(i, (i + 1) % 5) for i in range(5)] * 2)
        d = dec(g, 11, {e: 1 + e for e in g.edge_ids})
        with pytest.raises(SizeBoundExceeded, match="1 partial potentials"):
            stratum_age(d, max_elements=1)
        assert stratum_age(d) < INFINITE_AGE

    def test_cost_table_bound(self):
        # a triangle at ell = 7: the first descent visits 14 potentials,
        # the cost table holds 2 * 7 entries for each of 3 adjacent pairs
        g = Multigraph(range(3), [(0, 1), (1, 2), (2, 0), (2, 0)])
        d = dec(g, 7, {e: 1 + e for e in g.edge_ids})
        with pytest.raises(SizeBoundExceeded, match=r"bound of 41 elements: .* = 2 \* 7 \* 3 = 42"):
            stratum_age(d, max_elements=41)
        assert stratum_age(d) < INFINITE_AGE

    @pytest.mark.parametrize("max_elements, attributes, message", [
        (14, None, None),
        (13, (13, 14), "bound of 13 elements: its cost table holds 2 ell * (adjacent vertex "
                       "pairs) = 2 * 7 * 1 = 14 entries"),
        (7, (7, 14), "bound of 7 elements: its cost table holds 2 ell * (adjacent vertex "
                     "pairs) = 2 * 7 * 1 = 14 entries"),
        (6, (6, 7), "bound of 6 partial potentials: its first descent visits "
                    "ell * (#V - 1) = 7"),
    ])
    def test_bounds_at_their_boundary(self, max_elements, attributes, message):
        # a 3-edge vine is its own reduced core: one descent of 7 potentials
        # and a cost table of 2 * 7 entries for its one adjacent pair
        d = dec(vine(3), 7, {0: 1, 1: 2, 2: 3})
        assert reduced_core(d).graph.n_edges == 3
        if attributes is None:
            assert stratum_age(d, max_elements=max_elements) == Fraction(6, 7)
            return
        with pytest.raises(SizeBoundExceeded) as info:
            stratum_age(d, max_elements=max_elements)
        assert (info.value.bound, info.value.limit, info.value.requested) == (
            "max_elements", *attributes
        )
        assert str(info.value) == f"age search exceeds its {message}"

    def test_deep_core_without_recursion(self):
        # a chain of 300 vertices joined by doubled edges: the search goes
        # 300 vertices deep, past a recursion limit of 150
        g = Multigraph(range(300), [(i, i + 1) for i in range(299) for _ in range(2)])
        d = dec(g, 5, {e: 1 for e in g.edge_ids})
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(150)
        try:
            got = stratum_age(d)
        finally:
            sys.setrecursionlimit(limit)
        assert got == Fraction(2, 5)

    def test_reduced_core_drops_loops_and_bridges(self):
        # 2-vine with a pendant bridge and a loop
        g = Multigraph(range(3), [(0, 1), (0, 1), (1, 2), (2, 2)])
        d = dec(g, 5, {0: 1, 1: 3, 2: 2, 3: 4})
        core = reduced_core(d)
        assert core.graph.n_edges == 2
        assert stratum_age(d) == stratum_age(dec(vine(2), 5, {0: 1, 1: 3}))

    def test_reduced_core_has_no_loops_or_bridges(self):
        # one contraction pass leaves nothing to contract, zero twists included
        for g in connected_multigraphs(3):
            for values in itertools.product(range(5), repeat=g.n_edges):
                core = reduced_core(dec(g, 5, dict(zip(g.edge_ids, values)))).graph
                assert not core.loops() and not brute_bridges(core)


class TestGeneratedByQr:
    def test_vine_false(self):
        assert not generated_by_qr(dec(vine(2), 5, {0: 1, 1: 1}))
        assert not generated_by_qr(dec(vine(2), 3, {0: 1, 1: 1}))

    def test_bridge_only_true(self):
        g = Multigraph(range(3), [(0, 1), (1, 2)])
        assert generated_by_qr(dec(g, 5, {0: 1, 1: 2}))

    def test_composite_example(self):
        # level 6, values (2,2): Gamma_2 is a point but Gamma_3 is the vine
        d = dec(vine(2), 6, {0: 2, 1: 2})
        assert not generated_by_qr(d)

    def test_composite_mixed_true(self):
        d = dec(vine(2), 6, {0: 2, 1: 3})
        assert generated_by_qr(d)


class TestAlphaBeta:
    def test_prime_level(self):
        d = dec(vine(2), 5, {0: 1, 1: 1})
        alphas, betas = alpha_beta(d, 5)
        assert alphas == [1] and betas == [0]

    def test_ell4_vine(self):
        d = dec(vine(2), 4, {0: 1, 1: 1})
        alphas, betas = alpha_beta(d, 2)
        assert alphas == [0, 1] and betas == [0, 0]

    def test_sums_match_gamma_p(self):
        from ghostgraph import separating_edges
        from ghostgraph.decorated import gamma_p, prime_factors

        for ell in (4, 6, 12):
            for values in itertools.product(range(ell), repeat=2):
                d = dec(vine(2), ell, dict(enumerate(values)))
                for p in prime_factors(ell):
                    alphas, betas = alpha_beta(d, p)
                    gp = gamma_p(d, p)
                    assert sum(alphas) == gp.n_vertices - 1
                    assert sum(betas) == len(separating_edges(gp))
                    assert all(a >= b >= 0 for a, b in zip(alphas, betas))

    def test_rejects_bad_prime(self):
        with pytest.raises(DecorationError):
            alpha_beta(dec(vine(2), 6, {0: 1, 1: 1}), 5)

    @pytest.mark.parametrize("ell", [4, 8, 12])
    def test_matches_definition(self, ell):
        def stats(d, p, j):
            # Gamma(nu_p^0) is the single point
            if j == 0:
                return 1, 0
            g = gamma_nu(d, p, j)
            return g.n_vertices, len(brute_bridges(g))

        for g in connected_multigraphs(3):
            for values in itertools.product(range(ell), repeat=g.n_edges):
                d = dec(g, ell, dict(zip(g.edge_ids, values)))
                for p, e_p in prime_factors(ell).items():
                    chain = [stats(d, p, e_p - k) for k in range(e_p + 1)]
                    alphas = [hi[0] - lo[0] for hi, lo in zip(chain, chain[1:])]
                    betas = [hi[1] - lo[1] for hi, lo in zip(chain, chain[1:])]
                    assert alpha_beta(d, p) == (alphas, betas)


class TestVineWitness:
    def test_vine_itself(self):
        d = dec(vine(2), 5, {0: 1, 1: 1})
        p1, p2, n = vine_witness(d)
        assert {p1, p2} == {frozenset({0}), frozenset({1})}
        assert n == 2

    def test_theta(self):
        d = dec(vine(3), 5, {0: 1, 1: 1, 2: 1})
        assert vine_witness(d)[2] == 3

    def test_tree_like_none(self):
        g = Multigraph(range(3), [(0, 1), (1, 2)])
        assert vine_witness(dec(g, 5, {0: 1, 1: 1})) is None

    def test_partition_crossing_count(self):
        g = Multigraph(range(4), [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        d = dec(g, 7, {e: 1 for e in range(5)})
        p1, p2, n = vine_witness(d)
        crossing = sum(
            1 for t, h in g.edges.values() if (t in p1) != (h in p1)
        )
        assert n == crossing >= 2

    def test_parts_on_small_graphs(self):
        for g in connected_multigraphs(4):
            witness = vine_witness(dec(g, 5, {e: 1 for e in g.edge_ids}))
            if witness is None:
                assert is_tree_like(g)
                continue
            p1, p2, n = witness
            assert p1 | p2 == frozenset(g.vertices) and not p1 & p2
            for part in (p1, p2):
                seen, queue = {min(part)}, [min(part)]
                for x in queue:
                    for t, h in g.edges.values():
                        for u, w in ((t, h), (h, t)):
                            if u == x and w in part and w not in seen:
                                seen.add(w)
                                queue.append(w)
                assert seen == part
            crossing = sum(1 for t, h in g.edges.values() if (t in p1) != (h in p1))
            assert n == crossing >= 2

    def test_matches_reference_with_one_kruskal(self, monkeypatch):
        # the pinned witness: Kruskal over e, the least non-loop non-bridge
        # edge, then every edge in ascending order; part1 is the side of e's
        # tail in that tree less e
        rng = random.Random(24)
        forests = count_calls(monkeypatch, graphs, "spanning_forest")
        split = 0
        for _ in range(300):
            g = random_multigraph(rng)
            d = dec(g, 7, {e: rng.randrange(1, 7) for e in g.edge_ids})  # faithful
            bridges = brute_bridges(g)
            e = min((f for f in g.edge_ids if not g.is_loop(f) and f not in bridges), default=None)
            forests.clear()
            witness = vine_witness(d)
            if e is None:
                assert witness is None and forests == []
                continue
            split += 1
            assert forests == [g]
            root = {v: v for v in g.vertices}

            def find(v):
                while root[v] != v:
                    v = root[v]
                return v

            tree = []
            for f in [e, *sorted(g.edge_ids)]:
                a, b = map(find, g.ends(f))
                if a != b:
                    root[a] = b
                    tree.append(f)
            queue = [g.ends(e)[0]]
            part1 = set(queue)
            for x in queue:
                for f in tree[1:]:
                    for u, w in (g.ends(f), g.ends(f)[::-1]):
                        if u == x and w not in part1:
                            part1.add(w)
                            queue.append(w)
            n = sum((t in part1) != (h in part1) for t, h in g.edges.values())
            assert witness == (frozenset(part1), frozenset(g.vertices) - part1, n)
        assert split >= 100, split


class TestKeptFacts:
    def test_each_fact_computed_once(self, monkeypatch):
        # faithful: a triangle 0-1-2 with a doubled edge, a loop at 0 and a
        # pendant bridge to 3
        g = Multigraph(range(4), [(0, 1), (1, 2), (2, 0), (2, 0), (0, 0), (2, 3)])
        d0 = dec(g, 5, {0: 1, 1: 2, 2: 3, 3: 4, 4: 1, 5: 2})
        bridges = count_bridge_computations(monkeypatch)
        boundaries = count_calls(monkeypatch, cochains, "boundary")
        assert graphs.separating_edges(g) == {5}
        assert reduced_core(d0).graph.n_vertices == 3
        assert minimal_age_report(d0).age == Fraction(3, 5)
        assert vine_witness(d0) == (frozenset({0}), frozenset({1, 2, 3}), 3)
        assert alpha_beta(d0, 5) == ([3], [1])
        assert len(qr_subgroup(d0).generators) == 1
        assert len(bridges) == 1 and bridges[0] is g
        assert genus_labeling(d0, 1) == {0: 4, 1: 2, 2: 3, 3: 4}
        assert admissible_k(d0) == frozenset({1, 2, 3, 4})
        assert boundaries == [d0.m]

    def test_answers_follow_the_graph(self):
        # the pendant bridge is contracted away, and every ghost of the
        # triangle has age at least 1
        g = Multigraph(range(4), [(0, 1), (1, 2), (2, 0), (2, 3)])
        assert minimal_age_report(dec(g, 5, {e: 1 for e in g.edge_ids})).age == 1
        # a path is tree-like, so it has no vine witness
        path = dec(Multigraph(range(3), [(0, 1), (1, 2)]), 5, {0: 1, 1: 1})
        assert vine_witness(path) is None


class TestCoverDecompose:
    def test_overlap_rejected(self):
        d = dec(vine(3), 5, {0: 1, 1: 1, 2: 1})
        with pytest.raises(DecorationError):
            cover_decompose(d, [{0, 1}, {1, 2}])

    def test_non_covering_rejected(self):
        d = dec(vine(3), 5, {0: 1, 1: 1, 2: 1})
        with pytest.raises(DecorationError):
            cover_decompose(d, [{0}, {1}])

    def test_four_cycle_split_rank_fails(self):
        # contracting two opposite edges of a 4-cycle leaves 2-vines, and
        # 4 - 1 != (2 - 1) + (2 - 1): no direct sum
        g = Multigraph(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
        d = dec(g, 5, {0: 1, 1: 1, 2: 1, 3: 1})
        cover = cover_decompose(d, [{0, 1}, {2, 3}])
        assert not cover.rank_equal

    def test_butterfly_split(self):
        # two 2-vines sharing a vertex: the vine covers satisfy the rank
        # condition and split the group as a direct sum
        g = Multigraph(range(3), [(0, 1), (0, 1), (1, 2), (1, 2)])
        d = dec(g, 5, {0: 1, 1: 1, 2: 1, 3: 1})
        cover = cover_decompose(d, [{0, 1}, {2, 3}])
        assert cover.rank_equal
        assert all(not dg.graph.loops() for dg in cover.graphs)
        for a in ghost_group(d).elements():
            parts = cover.decompose(a)
            assert parts is not None
            total = parts[0]
            for part in parts[1:]:
                total = total + part
            assert total == a
            for part, edges in zip(parts, cover.parts):
                assert part.support() <= edges

    def test_restrictions_or_none(self):
        # every faithful decoration at ell = 3 with at most 3 edges, every
        # 2-part cover, every even function: the parts are the restrictions
        # when each lies in its part's ghost group, and None otherwise
        ell, outcomes = 3, set()
        for g in connected_multigraphs(3):
            if g.n_edges < 2:
                continue
            edge_ids = g.edge_ids
            for values in itertools.product(range(1, ell), repeat=len(edge_ids)):
                d = dec(g, ell, dict(zip(edge_ids, values)))
                for cover in (cover_decompose(d, c) for c in two_part_covers(edge_ids)):
                    ghost_sets = [brute_ghost_set(dg) for dg in cover.graphs]
                    for vals in itertools.product(range(ell), repeat=len(edge_ids)):
                        a = EvenFunction(g, ell, dict(zip(edge_ids, vals)))
                        inside = all(
                            tuple(a.on_edge(e) for e in sorted(p)) in ghosts
                            for p, ghosts in zip(cover.parts, ghost_sets)
                        )
                        got = cover.decompose(a)
                        outcomes.add(inside)
                        if not inside:
                            assert got is None
                            continue
                        assert got == [
                            EvenFunction(g, ell, {e: a.on_edge(e) * (e in p) for e in edge_ids})
                            for p in cover.parts
                        ]
        assert outcomes == {False, True}

    def test_identity_cover(self):
        d = dec(vine(2), 5, {0: 1, 1: 1})
        cover = cover_decompose(d, [{0, 1}])
        for a in ghost_group(d).elements():
            (part,) = cover.decompose(a)
            assert part == a


class TestBruteForceAgreement:
    @pytest.mark.parametrize("ell", [2, 3, 5])
    def test_vine_groups(self, ell):
        for n in (2, 3):
            for values in itertools.product(range(1, ell), repeat=n):
                d = dec(vine(n), ell, dict(enumerate(values)))
                assert group_set(ghost_group(d)) == brute_ghost_set(d)
                assert group_set(qr_subgroup(d)) == brute_qr_set(d)
