"""Decorated graphs: contractions, multidegree, genus labels, file format."""

import json
import math
import random

import pytest

from ghostgraph import (
    DecoratedGraph,
    DecorationError,
    Multigraph,
    SizeBoundExceeded,
    admissible_k,
    gamma0,
    gamma_nu,
    gamma_p,
    genus_labeling,
    multidegree,
    parse_decorated,
    root_count,
    serialize_decorated,
    stabilizer_order,
    total_genus,
)
from ghostgraph.decorated import (
    MAX_LEVEL,
    contract_decorated,
    decorated_to_dict,
    prime_factors,
)
from ghostgraph.ghosts import is_prime


def vine(n):
    return Multigraph([0, 1], [(0, 1)] * n)


def dec(g, ell, values, genus=None):
    return DecoratedGraph.from_edge_values(g, ell, values, genus=genus)


class TestGamma0:
    def test_all_zero(self):
        d = dec(vine(2), 3, {0: 0, 1: 0})
        d0 = gamma0(d)
        assert d0.graph.n_vertices == 1
        assert d0.graph.n_edges == 0

    def test_all_nonzero_identity(self):
        d = dec(vine(2), 3, {0: 1, 1: 2})
        d0 = gamma0(d)
        assert d0 == d

    def test_zero_edge_makes_loops(self):
        d = dec(vine(3), 3, {0: 1, 1: 0, 2: 2})
        d0 = gamma0(d)
        assert d0.graph.n_vertices == 1
        assert d0.graph.loops() == frozenset({0, 2})
        assert d0.m_value(0) == 1 and d0.m_value(2) == 2

    def test_output_faithful(self):
        d = dec(vine(3), 6, {0: 0, 1: 3, 2: 0})
        d0 = gamma0(d)
        assert d0.is_faithful()


class TestGammaNu:
    def test_prime_equals_gamma0(self):
        d = dec(vine(3), 5, {0: 1, 1: 0, 2: 2})
        assert gamma_p(d, 5) == gamma0(d).graph

    def test_ell4_example(self):
        d = dec(vine(2), 4, {0: 2, 1: 1})
        g1 = gamma_nu(d, 2, 1)  # contracts the 2-edge
        assert g1.n_vertices == 1 and g1.loops() == frozenset({1})
        g2 = gamma_nu(d, 2, 2)  # 4 divides neither value
        assert g2 == d.graph

    def test_coprime_identity(self):
        d = dec(vine(2), 6, {0: 1, 1: 5})
        assert gamma_nu(d, 2, 1) == d.graph
        assert gamma_nu(d, 3, 1) == d.graph

    def test_zero_contracts_at_every_level(self):
        d = dec(vine(2), 4, {0: 0, 1: 1})
        assert gamma_nu(d, 2, 1).n_vertices == 1
        assert gamma_nu(d, 2, 2).n_vertices == 1

    def test_rejects_bad_prime(self):
        with pytest.raises(DecorationError):
            gamma_nu(dec(vine(2), 4, {0: 1, 1: 1}), 3, 1)

    def test_gamma_p_rejects_prime_off_the_level(self):
        with pytest.raises(DecorationError, match="3 does not divide the level 4"):
            gamma_p(dec(vine(2), 4, {0: 1, 1: 1}), 3)


class TestStabilizerOrder:
    def test_examples(self):
        assert stabilizer_order(dec(vine(2), 5, {0: 2, 1: 1}), 0) == 5
        assert stabilizer_order(dec(vine(2), 4, {0: 2, 1: 1}), 0) == 2
        assert stabilizer_order(dec(vine(2), 6, {0: 0, 1: 1}), 0) == 1

    def test_gcd_formula(self):
        import math

        for ell in (4, 6, 12):
            g = vine(2)
            for m in range(ell):
                d = dec(g, ell, {0: m, 1: 1})
                assert stabilizer_order(d, 0) == ell // math.gcd(m, ell)


class TestMultidegree:
    def test_three_vine_k0_case(self):
        d = dec(vine(3), 5, {0: 1, 1: 1, 2: 3})
        dm = multidegree(d)
        assert dm(0) == 0 and dm(1) == 0

    def test_four_vine(self):
        d = dec(vine(4), 5, {0: 1, 1: 1, 2: 1, 3: 1})
        dm = multidegree(d)
        assert dm(1) == 4 and dm(0) == 1

    def test_zero(self):
        d = dec(vine(2), 5, {0: 0, 1: 0})
        assert multidegree(d).is_zero()


class TestGenusLabeling:
    def test_k0_solvable_iff_multidegree_zero(self):
        d = dec(vine(3), 5, {0: 1, 1: 1, 2: 3})
        assert genus_labeling(d, 0) is not None
        d2 = dec(vine(2), 3, {0: 1, 1: 1})
        assert genus_labeling(d2, 0) is None

    def test_k1_ell3_vine(self):
        d = dec(vine(2), 3, {0: 1, 1: 1})
        labels = genus_labeling(d, 1)
        assert labels is not None

    def test_labels_satisfy_congruence_and_stability(self):
        d = dec(vine(4), 7, {0: 1, 1: 2, 2: 3, 3: 4})
        for k in range(7):
            labels = genus_labeling(d, k)
            if labels is None:
                continue
            dm = multidegree(d)
            for v in d.graph.vertices:
                n_v = d.graph.degree(v)
                assert (dm(v) - k * (2 * labels[v] - 2 + n_v)) % 7 == 0
                assert labels[v] > 0 or n_v >= 3


def random_decorated(rng, ell):
    """A connected multigraph on 1-5 vertices with loops and parallel
    edges, and a decoration that may vanish on some edges."""
    n_v = rng.randint(1, 5)
    edges = [(rng.randrange(v), v) for v in range(1, n_v)]
    edges += [
        (rng.randrange(n_v), rng.randrange(n_v)) for _ in range(rng.randint(0, 4))
    ]
    if not edges:
        edges.append((0, 0))
    g = Multigraph(range(n_v), edges)
    return dec(g, ell, {e: rng.randrange(ell) for e in g.edge_ids})


class TestAdmissibleK:
    @pytest.mark.parametrize("ell", [2, 3, 5, 6, 7, 12, 13])
    def test_matches_genus_labeling(self, ell):
        rng = random.Random(ell)
        for _ in range(40):
            d = random_decorated(rng, ell)
            dm = multidegree(d)
            got = admissible_k(d)
            assert got == {k for k in range(ell) if genus_labeling(d, k) is not None}
            for k in range(ell):
                # the smallest g in [0, ell) solving 2k g = dm - k (N - 2),
                # bumped by ell at an unstable genus-0 vertex
                minimal = {}
                for v in d.graph.vertices:
                    n_v = d.graph.degree(v)
                    rhs = dm(v) - k * (n_v - 2)
                    sols = [x for x in range(ell) if (2 * k * x - rhs) % ell == 0]
                    if sols:
                        minimal[v] = sols[0] + (ell if sols[0] == 0 and n_v < 3 else 0)
                solvable = len(minimal) == d.graph.n_vertices
                assert (k in got) == solvable
                assert genus_labeling(d, k) == (minimal if solvable else None)


class TestLevelBound:
    def test_prime_factors_refuses_large_level(self):
        ell = 100000000000000000039
        for fn in (prime_factors, is_prime):
            with pytest.raises(SizeBoundExceeded) as info:
                fn(ell)
            message = str(info.value)
            assert "MAX_LEVEL" in message
            assert str(MAX_LEVEL) in message
            assert str(ell) in message

    def test_largest_allowed_level(self):
        fac = prime_factors(MAX_LEVEL)
        assert math.prod(p**e for p, e in fac.items()) == MAX_LEVEL
        with pytest.raises(SizeBoundExceeded):
            prime_factors(MAX_LEVEL + 1)


class TestGenusTotals:
    def test_total_genus(self):
        g = Multigraph(range(3), [(0, 1), (1, 2)])
        d = dec(g, 5, {0: 1, 1: 1}, genus={0: 1, 1: 1, 2: 1})
        assert total_genus(d) == 3
        d2 = dec(vine(2), 5, {0: 1, 1: 1}, genus={0: 2, 1: 1})
        assert total_genus(d2) == 4
        g3 = Multigraph([0], [(0, 0)])
        d3 = dec(g3, 5, {0: 0}, genus={0: 4})
        assert total_genus(d3) == 5

    def test_total_genus_needs_labels(self):
        with pytest.raises(DecorationError):
            total_genus(dec(vine(2), 5, {0: 1, 1: 1}))

    def test_root_count(self):
        assert root_count(1, 2) == 4
        assert root_count(0, 3) == 1
        assert root_count(2, 5) == 5**4


class TestContractDecorated:
    def test_restriction(self):
        d = dec(vine(3), 5, {0: 1, 1: 2, 2: 3})
        out = contract_decorated(d, {1})
        assert set(out.graph.edge_ids) == {0, 2}
        assert out.m_value(0) == 1 and out.m_value(2) == 3

    def test_genus_sums_over_merged_vertices(self):
        g = Multigraph(range(3), [(0, 1), (1, 2), (2, 0)])
        d = dec(g, 5, {0: 1, 1: 2, 2: 2}, genus={0: 1, 1: 2, 2: 3})
        out = contract_decorated(d, {0})
        assert out.genus[min(out.graph.vertices)] == 3


class TestFileFormat:
    def sample(self):
        return {
            "ell": 5,
            "vertices": [{"id": 0, "genus": None}, {"id": 1, "genus": None}],
            "edges": [
                {"tail": 0, "head": 1, "m": 1},
                {"tail": 0, "head": 1, "m": 1},
                {"tail": 0, "head": 1, "m": 3},
            ],
        }

    def test_parse_roundtrip_bit_stable(self):
        text = json.dumps(self.sample())
        d = parse_decorated(text)
        canon = serialize_decorated(d)
        assert serialize_decorated(parse_decorated(canon)) == canon

    def test_edges_normalized(self):
        data = self.sample()
        data["edges"][0] = {"tail": 1, "head": 0, "m": 4}
        d = parse_decorated(json.dumps(data))
        out = decorated_to_dict(d)
        for edge in out["edges"]:
            assert edge["tail"] <= edge["head"]

    def test_rejects_bad_input(self):
        with pytest.raises(DecorationError):
            parse_decorated("not json")
        bad = self.sample()
        bad["edges"][0]["m"] = 9
        with pytest.raises(DecorationError):
            parse_decorated(json.dumps(bad))
        dup = self.sample()
        dup["vertices"].append({"id": 0, "genus": None})
        with pytest.raises(DecorationError):
            parse_decorated(json.dumps(dup))
        disc = self.sample()
        disc["vertices"].append({"id": 2, "genus": None})
        with pytest.raises(DecorationError):
            parse_decorated(json.dumps(disc))

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda data: data.update(ell=True),
            lambda data: data.update(ell=5.0),
            lambda data: data.update(edges={"0": {"tail": 0, "head": 1, "m": 1}}),
            lambda data: data["edges"].append([0, 1, 2]),
            lambda data: data["edges"][0].update(tail="0"),
            lambda data: data["edges"][0].pop("head"),
            lambda data: data["vertices"][0].update(id=0.0),
            lambda data: data["vertices"][1].update(genus="2"),
        ],
        ids=[
            "ell-bool",
            "ell-float",
            "edges-not-list",
            "edge-not-object",
            "tail-string",
            "head-missing",
            "id-float",
            "genus-string",
        ],
    )
    def test_rejects_non_integer_fields(self, corrupt):
        data = self.sample()
        corrupt(data)
        with pytest.raises(DecorationError):
            parse_decorated(json.dumps(data))

    def test_parse_error_reports_position(self):
        with pytest.raises(DecorationError) as exc:
            parse_decorated('{"ell": 5,,}')
        assert "position" in str(exc.value)


class TestScale:
    def test_scale_wraps(self):
        d = dec(vine(2), 5, {0: 2, 1: 3})
        s = d.scale(3)
        assert s.m_value(0) == 1 and s.m_value(1) == 4
