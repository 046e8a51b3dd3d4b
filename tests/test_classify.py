"""Junior-stratum classification: enumeration, codes, closure structure."""

import dataclasses
import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from ghostgraph import (
    DecoratedGraph,
    DecorationError,
    Multigraph,
    OneCochain,
    SizeBoundExceeded,
    admissible_k,
    classify_junior,
    contracts_to,
    enumerate_base_graphs,
    genus_labeling,
    lifts,
    prop_k_symmetry,
    reduce_step,
    stratum_age,
    vine_notation,
)
from ghostgraph import classify as classify_mod
from ghostgraph import cochains
from ghostgraph.classify import (
    BUCKET_BOUND,
    _admissible_sets,
    _reduction,
    decoration_code,
    scan_graph,
)
from ghostgraph.cli import class_row, rows_to_tsv
from ghostgraph.decorated import contract_decorated
from ghostgraph.ghosts import age, is_supported
from ghostgraph.graphs import (
    _minimal_orderings,
    code_bytes,
    contract_edges,
    least_encodings,
    spanning_forest,
)

from oracles import (
    brute_decoration_key,
    brute_in_image_delta,
    brute_junior_classes,
    brute_stratum_age,
    junior_decorations,
    relabel,
)


def vine(n):
    return Multigraph([0, 1], [(0, 1)] * n)


def dec(g, ell, values):
    return DecoratedGraph.from_edge_values(g, ell, values)


def batch_codes(g, ell, rows):
    """The decoration codes of the rows (M in edge-id order) of g, coded
    in one batched call."""
    return code_bytes(g, least_encodings(g, rows, ell), ell)


def values_by_graph(decorations):
    """graph -> the M rows (edge-id order) of the decorations on it."""
    rows = {}
    for d in decorations:
        rows.setdefault(d.graph, []).append([d.m_value(e) for e in d.graph.edge_ids])
    return rows


class TestDecorationCode:
    def test_negation_on_swap(self):
        assert decoration_code(dec(vine(2), 5, {0: 1, 1: 2})) == decoration_code(
            dec(vine(2), 5, {0: 2, 1: 1})
        )
        # swapping the two vertices negates both values
        assert decoration_code(dec(vine(2), 5, {0: 1, 1: 1})) == decoration_code(
            dec(vine(2), 5, {0: 4, 1: 4})
        )
        assert decoration_code(dec(vine(2), 5, {0: 1, 1: 1})) != decoration_code(
            dec(vine(2), 5, {0: 1, 1: 4})
        )


class TestVineNotation:
    def test_examples(self):
        assert vine_notation(dec(vine(2), 5, {0: 1, 1: 3})) == (1, 3)
        assert vine_notation(dec(vine(2), 5, {0: 4, 1: 4})) == (1, 1)
        assert vine_notation(dec(vine(3), 7, {0: 6, 1: 6, 2: 2})) == (1, 1, 5)

    def test_non_vine_none(self):
        g = Multigraph(range(3), [(0, 1), (1, 2), (2, 0)])
        assert vine_notation(dec(g, 5, {0: 1, 1: 1, 2: 1})) is None


def decoration_orbits(g, ell):
    """The all-nonzero decorations of g grouped into isomorphism classes by
    one-row ``decoration_code`` calls: code -> the decorations of its orbit."""
    orbits = {}
    for values in itertools.product(range(1, ell), repeat=g.n_edges):
        d = dec(g, ell, dict(zip(g.edge_ids, values)))
        orbits.setdefault(decoration_code(d), []).append(d)
    return orbits


def vine_orbit_notations(ell):
    orbits = decoration_orbits(vine(2), ell).values()
    notations = [{vine_notation(d) for d in orbit} for orbit in orbits]
    assert all(len(n) == 1 for n in notations), "vine notation is an orbit invariant"
    return sorted(n.pop() for n in notations)


class TestEnumerateDecorations:
    """Decoration orbits enumerated by one-row ``decoration_code`` calls."""

    def test_ell3_vine(self):
        assert vine_orbit_notations(3) == [(1, 1), (1, 2)]

    def test_ell5_vine_orbits(self):
        notations = vine_orbit_notations(5)
        assert notations == [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3)]
        # the 16 labelled decorations split into these orbits
        orbits = decoration_orbits(vine(2), 5)
        assert len(orbits) == 6
        assert sum(map(len, orbits.values())) == 16

    def test_ell2_single_decoration(self):
        g = Multigraph(range(3), [(0, 1), (1, 2), (2, 0)])
        (orbit,) = decoration_orbits(g, 2).values()
        assert len(orbit) == 1
        assert all(orbit[0].m_value(e) == 1 for e in g.edge_ids)


class TestClassCodes:
    """The batched class codes and admissible k of every all-nonzero
    decoration of small base graphs: a row's code does not depend on the
    batch it is coded in, nor on the labelling of its graph."""

    @pytest.mark.parametrize(
        "ell,edge_counts",
        [(3, (2, 3, 4)), (5, (2, 3, 4, 5)), (7, (2, 3, 4))],
        ids=["ell3", "ell5", "ell7"],
    )
    def test_match_decoration_code_and_admissible_k(self, ell, edge_counts):
        rng = random.Random(ell)
        graphs = [g for g in enumerate_base_graphs(max(edge_counts))
                  if g.n_edges in edge_counts]
        assert graphs
        for g in graphs:
            rows = np.array(list(itertools.product(range(1, ell), repeat=g.n_edges)))
            codes = batch_codes(g, ell, rows)
            # the same rows coded in five batches, and a sample of one-row calls
            chunks = [batch_codes(g, ell, part) for part in np.array_split(rows, 5)]
            assert list(itertools.chain.from_iterable(chunks)) == codes
            for i in range(0, len(rows), 53):
                d = dec(g, ell, dict(zip(g.edge_ids, rows[i].tolist())))
                assert decoration_code(d) == codes[i], (g, rows[i])
            # every row moved by one vertex permutation and random dart reversals
            perm = dict(zip(g.vertices, rng.sample(g.vertices, g.n_vertices)))
            flipped = {e for e in g.edge_ids if rng.random() < 0.5}
            h, moved = relabel(g, rows.tolist(), ell, perm, flipped)
            assert batch_codes(h, ell, moved) == codes, (g, perm, flipped)
            k_sets = _admissible_sets(g, ell, rows)
            assert len(k_sets) == len(rows)
            for row, k_set in zip(rows.tolist(), k_sets):
                d = dec(g, ell, dict(zip(g.edge_ids, row)))
                assert k_set == admissible_k(d), (g, row)


class TestMinimalOrderings:
    """Classes are grouped by the least encoding over the orderings that
    give the unlabelled graph its least encoding: the same partition of
    the junior rows as the least encoding over every degree ordering."""

    def test_cycle(self):
        cycle = Multigraph(range(5), [(i, (i + 1) % 5) for i in range(5)])
        assert len(_minimal_orderings(cycle)) == 10  # the dihedral group, of 120 orderings

    @pytest.mark.parametrize("ell,max_edges", [(5, 4), (7, 5)])
    def test_same_partition_as_every_ordering(self, ell, max_edges):
        for g in enumerate_base_graphs(max_edges):
            scan = scan_graph(g, ell)
            rows = scan.decorations[scan.junior]
            if not len(rows):
                continue
            full = least_encodings(g, rows, ell)
            minimal = least_encodings(g, rows, ell, _orderings=_minimal_orderings(g))
            _, by_full = np.unique(full, axis=0, return_inverse=True)
            _, by_minimal = np.unique(minimal, axis=0, return_inverse=True)
            pairs = set(zip(by_full.ravel().tolist(), by_minimal.ravel().tolist()))
            assert len(pairs) == by_full.max() + 1 == by_minimal.max() + 1, g


class TestScanGraph:
    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_matches_stratum_age(self, ell):
        g = vine(2)
        scan = scan_graph(g, ell)
        for i, row in enumerate(scan.decorations):
            d = dec(g, ell, dict(zip(g.edge_ids, (int(v) for v in row))))
            expected = stratum_age(d)
            if scan.junior[i]:
                assert Fraction(int(scan.age_num[i]), ell) == expected
            else:
                assert expected >= 1

    @pytest.mark.parametrize("ell,max_edges", [(5, 4), (7, 4)])
    def test_matches_brute_lifts(self, ell, max_edges):
        """Every decoration of every base graph against the definition:
        the candidates a (0 < sum a < ell, lexicographic order) whose a M
        lies in im delta, by the brute-force membership oracle."""
        for g in enumerate_base_graphs(max_edges):
            n_e = g.n_edges
            scan = scan_graph(g, ell)
            decorations = list(itertools.product(range(1, ell), repeat=n_e))
            assert scan.decorations.tolist() == [list(m) for m in decorations]
            cands = [
                a for a in itertools.product(range(ell), repeat=n_e) if 0 < sum(a) < ell
            ]
            # in_image[code(b)] for every edge vector b, code in base ell
            in_image = np.array([
                brute_in_image_delta(OneCochain(g, ell, dict(zip(g.edge_ids, b))))
                for b in itertools.product(range(ell), repeat=n_e)
            ])
            powers = ell ** np.arange(n_e - 1, -1, -1)
            products = np.array(decorations)[:, None, :] * np.array(cands)[None] % ell
            lifting = in_image[products @ powers]
            for i in range(len(decorations)):
                found = [cands[c] for c in np.nonzero(lifting[i])[0]]
                assert scan.junior[i] == bool(found)
                if not found:
                    assert not scan.maximal[i]
                    continue
                best = min(found, key=sum)  # the first of minimal age
                assert scan.age_num[i] == sum(best)
                assert tuple(scan.candidates[scan.witness_idx[i]]) == best
                assert scan.maximal[i] == all(all(a) for a in found)

    def test_witness_validity(self):
        g = Multigraph(range(3), [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)])
        scan = scan_graph(g, 7)
        idxs = [i for i in range(len(scan.decorations)) if scan.junior[i]][:50]
        from ghostgraph import EvenFunction

        for i in idxs:
            d = dec(g, 7, dict(zip(g.edge_ids, map(int, scan.decorations[i]))))
            cand = scan.candidates[scan.witness_idx[i]]
            a = EvenFunction(g, 7, dict(zip(g.edge_ids, map(int, cand))))
            assert lifts(a, d)
            assert age(a) == Fraction(int(scan.age_num[i]), 7)


class TestClassifyJunior:
    def test_levels_guarded(self):
        with pytest.raises(DecorationError):
            classify_junior(6)
        with pytest.raises(DecorationError):
            classify_junior(11)

    def test_ell3(self):
        classes = classify_junior(3)
        assert [c.vine for c in classes] == [(1, 1)]
        assert classes[0].age == Fraction(2, 3)
        assert classes[0].codimension == 2
        assert classes[0].maximal
        assert classes[0].orbit_size == 2
        assert classes[0].admissible_k == frozenset({1, 2})

    def test_soundness_of_witnesses(self):
        for c in classify_junior(5):
            d0 = c.decorated
            assert lifts(c.witness, d0)
            assert age(c.witness) == c.age == stratum_age(d0)
            assert c.age < 1
            assert c.codimension == d0.graph.n_edges
            if c.maximal:
                assert is_supported(c.witness)

    def test_matches_brute_classification_ell3(self):
        expected = brute_junior_classes(3, 2)
        classes = classify_junior(3)
        got = {brute_decoration_key(c.decorated): (c.age, c.maximal) for c in classes}
        assert len(got) == len(classes)
        assert got == expected

    def test_matches_brute_classification_ell5(self):
        expected = brute_junior_classes(5, 4)
        classes = classify_junior(5)
        got = {brute_decoration_key(c.decorated): (c.age, c.maximal) for c in classes}
        assert len(got) == len(classes)
        assert got == expected

    def test_brute_key_partition_matches_decoration_code(self):
        # the oracle's permutation key and the library's code, one batched
        # call per labelled graph, group the junior decorations the same way
        ds = [d for d, _, _ in junior_decorations(5, 4)]
        codes = {g: iter(batch_codes(g, 5, rows)) for g, rows in values_by_graph(ds).items()}
        pairs = {(brute_decoration_key(d), next(codes[d.graph])) for d in ds}
        assert len(pairs) == len({k for k, _ in pairs}) == len({c for _, c in pairs}) == 179

    def test_no_junior_class_at_ell_edges(self):
        for c in classify_junior(5, max_edges=4):
            if c.maximal:
                assert c.decorated.graph.n_edges < 5

    def test_k_filter(self):
        all_k1 = classify_junior(5, k=1)
        assert all(1 in c.admissible_k for c in all_k1)
        k0 = classify_junior(5, k=0, only_maximal=True)
        assert {vine_notation(c.decorated) for c in k0} == {(1, 1, 3), (1, 2, 2)}

    @pytest.mark.parametrize("ell,max_edges", [(5, None), (7, 4)])
    def test_class_invariants_match_scalar_reference(self, ell, max_edges):
        """Orbit size, representative and admissible k of every class,
        against all (ell - 1)^E decorations of its base graph coded in one
        batch and the scalar genus_labeling."""
        classes = classify_junior(ell, max_edges=max_edges, only_maximal=False)
        by_graph = {}
        for c in classes:
            by_graph.setdefault(c.decorated.graph, []).append(c)
        for g, graph_classes in by_graph.items():
            orbits = {}
            rows = list(itertools.product(range(1, ell), repeat=g.n_edges))
            for values, code in zip(rows, batch_codes(g, ell, rows)):
                orbits.setdefault(code, []).append(values)
            for c in graph_classes:
                members = orbits[c.code]
                rep = tuple(c.decorated.m_value(e) for e in g.edge_ids)
                assert c.orbit_size == len(members)
                assert rep == min(members)
                assert c.admissible_k == {
                    k for k in range(ell) if genus_labeling(c.decorated, k) is not None
                }

    def test_listing_matches_scalar_reference(self):
        """Every ell = 7 class up to 5 edges carries the code of its
        representative coded apart from the other junior rows, and the
        scalar admissible k, and its orbits cover the junior rows of its
        graph."""
        classes = classify_junior(7, max_edges=5)
        covered = Counter()
        for c in classes:
            assert c.admissible_k == admissible_k(c.decorated)
            covered[c.decorated.graph] += c.orbit_size
        codes = {g: iter(batch_codes(g, 7, rows))
                 for g, rows in values_by_graph(c.decorated for c in classes).items()}
        assert [c.code for c in classes] == [next(codes[c.decorated.graph]) for c in classes]
        junior = {g: int(scan_graph(g, 7).junior.sum()) for g in enumerate_base_graphs(5)}
        assert covered == {g: n for g, n in junior.items() if n}

    def test_full_listing_ell7_pinned(self):
        """The ell = 7 listing up to 5 edges: the SHA-256 of its TSV and of
        its class codes joined by newlines, in class order."""
        classes = classify_junior(7, max_edges=5)
        assert len(classes) == 10985
        tsv = rows_to_tsv([class_row(c) for c in classes]).encode()
        assert hashlib.sha256(tsv).hexdigest() == (
            "c408bd647515001eb9ca9a8fc0df51c5455c53384488cf00b4d36e27b126b780"
        )
        assert hashlib.sha256(b"\n".join(c.code for c in classes)).hexdigest() == (
            "28eb9a6cc4bae4285a9249f57af97241bdb5b831f5b15499b368c0fa519ab310"
        )

    def test_full_listing_keeps_bucket_bound(self):
        with pytest.raises(
            SizeBoundExceeded,
            match=r"junior decorations on the base graph \[.*\] exceed the "
            r"bucketing bound BUCKET_BOUND = 20000;",
        ) as info:
            classify_junior(7, only_maximal=False)
        assert int(str(info.value).split()[0]) > BUCKET_BOUND

    def test_maximality_antichain(self):
        classes = classify_junior(5, only_maximal=True)
        for c1 in classes:
            for c2 in classes:
                if c1.code == c2.code:
                    continue
                assert not contracts_to(c1.decorated, c2.decorated)

    def test_non_maximal_dominated(self, monkeypatch):
        calls = Counter()

        def counted(name, f):
            def wrapper(*args):
                calls[name] += 1
                return f(*args)
            return wrapper

        for name in ("decoration_code", "contract_decorated"):
            monkeypatch.setattr(classify_mod, name, counted(name, getattr(classify_mod, name)))
        classes = classify_junior(5)
        juniors = [c.decorated for c in classes]
        for c in classes:
            if c.maximal:
                continue
            assert any(
                d1.graph.n_edges < c.decorated.graph.n_edges
                and contracts_to(c.decorated, d1)
                for d1 in juniors
            )
        # without the invariants, each of the 2,003 contractions and each
        # target would be coded
        assert calls["decoration_code"] < calls["contract_decorated"] // 2


def contracts_to_by_codes(d0, d1):
    """contracts_to without invariants: the code of every contraction."""
    e0, e1 = d0.graph.n_edges, d1.graph.n_edges
    if d0.ell != d1.ell or e1 > e0:
        return False
    target = decoration_code(d1)
    return any(
        decoration_code(contract_decorated(d0, f)) == target
        for f in itertools.combinations(d0.graph.edge_ids, e0 - e1)
    )


class TestContractsTo:
    def test_matches_codes_of_every_contraction(self):
        # every ordered pair of ell = 5 classes up to 3 edges, and every
        # eighth 4-edge class against those
        classes = classify_junior(5, max_edges=4)
        small = [c.decorated for c in classes if c.codimension <= 3]
        big = [c.decorated for c in classes if c.codimension == 4][::8]
        pairs = [(d0, d1) for d0 in small + big for d1 in small if d0 is not d1]
        found = [contracts_to(d0, d1) for d0, d1 in pairs]
        assert found == [contracts_to_by_codes(d0, d1) for d0, d1 in pairs]
        assert 0 < sum(found) < len(pairs)

    def test_reflexive(self):
        d = dec(vine(2), 5, {0: 1, 1: 1})
        assert contracts_to(d, d)

    def test_theta_to_vine_fails(self):
        theta = dec(vine(3), 5, {0: 1, 1: 1, 2: 1})
        two = dec(vine(2), 5, {0: 1, 1: 1})
        assert not contracts_to(theta, two)
        assert not contracts_to(two, theta)

    def test_square_to_vine(self):
        g = Multigraph(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
        d = dec(g, 5, {0: 1, 1: 1, 2: 1, 3: 1})
        target = dec(vine(2), 5, {0: 1, 1: 4})
        assert contracts_to(d, target)


class TestReduceStep:
    def test_vine_none(self):
        assert reduce_step(dec(vine(4), 5, {e: 1 for e in range(4)})) is None

    def test_doubled_triangle_none(self):
        g = Multigraph(range(3), [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)])
        d = dec(g, 7, {e: 1 for e in range(6)})
        assert reduce_step(d) is None

    def test_configuration_found_and_covers_juniority(self):
        # triangle with one doubled edge: vertex 2 has two neighbours and a
        # single edge to each of them
        g = Multigraph(range(3), [(0, 1), (0, 1), (1, 2), (2, 0)])
        for values in itertools.product(range(1, 5), repeat=4):
            d = dec(g, 5, dict(enumerate(values)))
            out = reduce_step(d)
            assert out is not None
            d1, d2 = out
            assert d1.graph.n_edges < 4 and d2.graph.n_edges < 4
            if stratum_age(d) < 1:
                assert min(stratum_age(d1), stratum_age(d2)) < 1

    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_reducible_base_graphs_carry_no_maximal_row(self, ell):
        # the lemma that lets the maximal tables skip these graphs unscanned
        reducible = [g for g in enumerate_base_graphs(6) if _reduction(g) is not None]
        assert len(reducible) == 25
        for g in reducible:
            scan = scan_graph(g, ell)
            assert not (scan.junior & scan.maximal).any(), g

    def test_reduction_agrees_with_reduce_step(self):
        graphs = enumerate_base_graphs(6)
        for g in graphs:
            found = _reduction(g)
            d = dec(g, 7, {e: 1 for e in g.edge_ids})
            out = reduce_step(d)
            assert (found is None) == (out is None), g
            if found is None:
                continue
            v1, e, e_prime, tree = found
            (v2,), (v3,) = set(g.ends(e)) - {v1}, set(g.ends(e_prime)) - {v1}
            assert g.neighbors(v1) == {v2, v3} and v2 != v3
            assert [f for f in g.edge_ids if set(g.ends(f)) == {v1, v2}] == [e]
            assert e_prime in tree and e not in tree
            assert len(spanning_forest(g, tree)[0]) == len(tree) == g.n_vertices - 1
            d1, d2 = out
            assert d1.graph == contract_edges(g, {e_prime}).graph
            assert d2.graph == contract_edges(g, set(tree) - {e_prime}).graph
        kept = enumerate_base_graphs(6, lambda g: _reduction(g) is None)
        assert kept == [
            g for g in graphs if reduce_step(dec(g, 7, {e: 1 for e in g.edge_ids})) is None
        ]


class TestClassRows:
    def test_rows_back_the_objects_ell5(self):
        for c in classify_junior(5):
            d, w = c.decorated, c.witness
            edges = [f"{t}-{h}:{d.m_value(e)}" for e, (t, h) in sorted(d.graph.edges.items())]
            assert class_row(c) == {
                "vertices": d.graph.n_vertices,
                "edges": d.graph.n_edges,
                "vine": "(" + ",".join(map(str, c.vine)) + ")" if c.vine else "-",
                "age": f"{c.age.numerator}/{c.age.denominator}",
                "codimension": c.codimension,
                "admissible_k": ",".join(map(str, sorted(c.admissible_k))),
                "orbit_size": c.orbit_size,
                "maximal": c.maximal,
                "decoration": ";".join(edges),
            }
            assert tuple(d.m_value(e) for e in c.graph.edge_ids) == c.row
            assert tuple(w.on_edge(e) for e in c.graph.edge_ids) == c.witness_row
            assert d.graph is w.graph is c.graph and d.ell == w.ell == c.ell
            assert c.vine == vine_notation(d)

    def test_listing_builds_no_cochains(self, monkeypatch):
        calls = Counter()
        init = cochains._Cochain.__init__

        def counted(self, *args):
            calls[type(self).__name__] += 1
            init(self, *args)

        monkeypatch.setattr(cochains._Cochain, "__init__", counted)
        classify_mod._classify_cached.cache_clear()
        classes = classify_junior(7, max_edges=5)
        assert len([class_row(c) for c in classes]) == 10985
        assert not calls
        assert classes[0].decorated is classes[0].decorated
        assert classes[0].witness is classes[0].witness
        assert calls == {"OneCochain": 1, "EvenFunction": 1}

    @pytest.mark.parametrize("ell, kwargs", [
        (5, {"only_maximal": False}), (7, {"only_maximal": True}), (7, {"max_edges": 5}),
    ])
    def test_records_hold_plain_python_values(self, ell, kwargs):
        # numpy scalars must not leak into rows, JSON or hashes
        for c in classify_junior(ell, **kwargs):
            for row in (c.row, c.witness_row):
                assert type(row) is tuple and all(type(m) is int for m in row)
            assert type(c.maximal) is bool and type(c.orbit_size) is int
            assert type(c.age) is Fraction and ell % c.age.denominator == 0
            assert type(c.admissible_k) is frozenset
            assert all(type(k) is int for k in c.admissible_k)

    def test_replace_keeps_a_given_witness(self):
        c = classify_junior(5)[0]
        w = c.witness.scale(2)
        swapped = dataclasses.replace(c, witness=w)
        assert swapped.witness is w and swapped.decorated == c.decorated
        assert dataclasses.replace(c, age=c.age).witness == c.witness


class TestPropK:
    def test_small_cases(self):
        assert prop_k_symmetry(3, 2)
        assert prop_k_symmetry(5, 2)
        assert prop_k_symmetry(5, 1)


class TestOracleStratumAges:
    @pytest.mark.parametrize("ell", [3, 5])
    def test_vines_and_theta(self, ell):
        for g in (vine(2), vine(3)):
            for values in itertools.product(range(ell), repeat=g.n_edges):
                d = dec(g, ell, dict(enumerate(values)))
                expected = brute_stratum_age(d)
                got = stratum_age(d)
                if expected is None:
                    assert got == float("inf")
                else:
                    assert got == expected
