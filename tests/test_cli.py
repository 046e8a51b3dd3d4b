"""Command-line interface: reports, tables, snapshots, exit codes."""

import functools
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from ghostgraph import (
    DecoratedGraph,
    Multigraph,
    canonical_code,
    classify_junior,
    cochains,
    enumerate_base_graphs,
    gamma0,
    genus_labeling,
    ghost_group,
    graphs,
    minimal_age_report,
    qr_subgroup,
)
from ghostgraph import props as props_mod
from ghostgraph.cli import MAX_DIGITS, _int_digits, build_report, main
from ghostgraph.decorated import MAX_LEVEL, decorated_from_dict
from ghostgraph.graphs import SizeBoundExceeded

from oracles import connected_multigraphs, vine_stratum_age

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SNAPSHOTS = ROOT / "snapshots"


# levels for the fuzzed documents; BIG_LEVEL, past MAX_LEVEL, goes only on
# graphs of at most two vertices, since a triangle at ell = 100003 runs
# seconds before its age search stops
FUZZ_LEVELS = (0, 1, 2, 4, 5, 6, 7, 12, 13)
BIG_LEVEL = 100_004
# genus labels near the root-count digit bound, and one past CPython's
# default 4,300-digit limit for int <-> str
FUZZ_GENERA = (None, 0, 1, 2, -1, MAX_DIGITS - 1, MAX_DIGITS, MAX_DIGITS + 1, 10**4300)
JUNK = ("x", 1.5, None, True, [], {})


@st.composite
def analyze_documents(draw):
    """A JSON value for analyze: mostly a well-formed connected decorated
    graph, each fault drawn on its own and rarely, so that both answers and
    every kind of rejection occur.  The faults are a duplicate or unknown
    vertex, a missing tree edge (a disconnected graph), m out of range,
    values of the wrong type or removed, and a top level that is no object."""

    def rarely():  # hypothesis shrinks toward 0: the least example has no fault
        return draw(st.integers(0, 7)) == 7

    n = draw(st.integers(1, 5))
    ids = list(range(n)) + ([draw(st.integers(0, n - 1))] if rarely() else [])
    ell = draw(st.sampled_from(FUZZ_LEVELS + ((BIG_LEVEL,) if len(ids) <= 2 else ())))
    labelled = draw(st.booleans())
    vertices = [
        {"id": v, "genus": draw(st.sampled_from(FUZZ_GENERA)) if labelled else None}
        for v in ids
    ]
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n) if not rarely()]
    vertex = st.integers(0, n - 1)
    pairs += [(draw(vertex), draw(vertex)) for _ in range(draw(st.integers(0, 3)))]
    m = st.integers(0, max(ell - 1, 0))
    edges = [
        {
            "tail": n if rarely() else t,  # n names no vertex
            "head": h,
            "m": draw(st.sampled_from([-1, ell])) if rarely() else draw(m),
        }
        for t, h in pairs
    ]
    doc = {"ell": ell, "vertices": vertices, "edges": edges}
    while rarely():
        item = draw(st.sampled_from([doc] + vertices + edges))
        if item:
            key = draw(st.sampled_from(sorted(item)))
            if draw(st.booleans()):
                del item[key]
            else:
                item[key] = draw(st.sampled_from(JUNK))
    return draw(st.sampled_from(JUNK)) if rarely() else doc


def vine_file(tmp_path, ell, values, name="graph.json"):
    data = {
        "ell": ell,
        "vertices": [{"id": 0, "genus": None}, {"id": 1, "genus": None}],
        "edges": [{"tail": 0, "head": 1, "m": m} for m in values],
    }
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def path_file(tmp_path, ell, n):
    data = {
        "ell": ell,
        "vertices": [{"id": i, "genus": None} for i in range(n)],
        "edges": [{"tail": i, "head": i + 1, "m": 1} for i in range(n - 1)],
    }
    path = tmp_path / "path.json"
    path.write_text(json.dumps(data))
    return path


class TestAnalyze:
    def test_junior_vine_k0(self, tmp_path):
        path = vine_file(tmp_path, 5, [1, 1, 3])
        result = CliRunner().invoke(main, ["analyze", str(path), "--k", "0", "--json"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["junior"] is True
        assert report["stratum_age"] == "4/5"
        assert report["genus_labeling"] is not None
        assert 0 in report["admissible_k"]
        assert report["codimension"] == 3

    def test_tree_like_input(self, tmp_path):
        data = {
            "ell": 5,
            "vertices": [{"id": 0, "genus": None}, {"id": 1, "genus": None}, {"id": 2, "genus": None}],
            "edges": [
                {"tail": 0, "head": 1, "m": 1},
                {"tail": 1, "head": 2, "m": 2},
            ],
        }
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(data))
        result = CliRunner().invoke(main, ["analyze", str(path), "--json"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["junior"] is False
        assert report["stratum_age"] == "inf"
        assert report["generated_by_quasireflections"] is True
        assert report["vine_witness"] is None

    def test_composite_level_report(self, tmp_path):
        path = vine_file(tmp_path, 6, [2, 3])
        result = CliRunner().invoke(main, ["analyze", str(path), "--json"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert set(report["per_prime"]) == {"2", "3"}
        assert report["ghost_group_order"] is None
        assert report["generated_by_quasireflections"] is True

    @pytest.mark.parametrize("ell", [3, 5])
    def test_group_orders_match_groups(self, ell):
        # the report states the orders without building the groups
        rng = random.Random(ell)
        for g in connected_multigraphs(4):
            vals = {e: rng.randrange(ell) for e in g.edge_ids}
            d = DecoratedGraph.from_edge_values(g, ell, vals)
            report = build_report(d, None)
            assert report["ghost_group_order"] == ghost_group(d).order
            assert report["qr_order"] == qr_subgroup(d).order

    def test_text_output(self, tmp_path):
        path = vine_file(tmp_path, 3, [1, 1])
        result = CliRunner().invoke(main, ["analyze", str(path)])
        assert result.exit_code == 0
        assert "stratum age: 2/3" in result.output
        assert "junior: True" in result.output

    def test_parse_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        result = CliRunner().invoke(main, ["analyze", str(path)])
        assert result.exit_code == 3

    def test_deeply_nested_input_exit_code(self, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text("[" * 200_000)
        result = CliRunner().invoke(main, ["analyze", str(path)])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert "nested too deeply" in result.output

    def test_vine_at_level_1009(self, tmp_path):
        ms = (1, 10, 100, 1000)
        path = vine_file(tmp_path, 1009, ms)
        result = CliRunner().invoke(main, ["analyze", str(path), "--json"])
        assert result.exit_code == 0
        expected = vine_stratum_age(1009, ms)
        assert json.loads(result.output)["stratum_age"] == (
            f"{expected.numerator}/{expected.denominator}"
        )

    def test_level_past_bound_exit_code(self, tmp_path):
        path = vine_file(tmp_path, 100000000000000000039, (1, 2))
        result = CliRunner().invoke(main, ["analyze", str(path)])
        assert result.exit_code == 4
        assert isinstance(result.exception, SystemExit)
        assert f"MAX_LEVEL = {MAX_LEVEL}" in result.output

    def test_root_count_past_default_digit_limit(self, tmp_path):
        # total genus 1010, so root_count = 1009^2020 has 6,068 digits
        path = vine_file(tmp_path, 1009, (1, 2, 1006))
        result = CliRunner().invoke(main, ["analyze", str(path), "--json", "--k", "1"])
        assert result.exit_code == 0
        with _int_digits(MAX_DIGITS):
            report = json.loads(result.output)
            assert len(str(report["root_count"])) == 6068
        assert report["root_count"] == 1009 ** 2020

    def test_group_order_past_default_digit_limit(self, tmp_path):
        # a 1,500-vertex path: ghost_group_order = 1009^1499 has 4,503 digits
        path = path_file(tmp_path, 1009, 1500)
        result = CliRunner().invoke(main, ["analyze", str(path), "--json"])
        assert result.exit_code == 0
        with _int_digits(MAX_DIGITS):
            assert json.loads(result.output)["ghost_group_order"] == 1009 ** 1499
            text = CliRunner().invoke(main, ["analyze", str(path)])
            assert text.exit_code == 0
            assert f"ghost group order: {1009 ** 1499}" in text.output

    def test_genus_label_past_digit_bound(self, tmp_path):
        path = vine_file(tmp_path, 5, (1, 1, 3))
        data = json.loads(path.read_text())
        data["vertices"][0]["genus"] = 100000
        data["vertices"][1]["genus"] = 0
        path.write_text(json.dumps(data))
        result = CliRunner().invoke(main, ["analyze", str(path), "--json"])
        assert result.exit_code == 4
        assert isinstance(result.exception, SystemExit)
        # total genus 100002 (labels plus betti1 = 2): root_count = 5^200004
        digits = math.floor(200004 * math.log10(5)) + 1
        assert digits == 139797
        assert (
            f"digit bound MAX_DIGITS = {MAX_DIGITS} exceeded: "
            f"root_count = 5^200004 has {digits} digits"
        ) in result.output

    def test_age_search_bound_checked_first(self, tmp_path):
        # a 120-vertex all-ones cycle is its own reduced core: the age
        # search's first descent alone visits 100003 * 119 partial potentials
        n = 120
        data = {
            "ell": 100003,
            "vertices": [{"id": i, "genus": None} for i in range(n)],
            "edges": [{"tail": i, "head": (i + 1) % n, "m": 1} for i in range(n)],
        }
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps(data))
        start = time.perf_counter()
        result = CliRunner().invoke(main, ["analyze", str(path), "--json"])
        assert time.perf_counter() - start < 1
        assert result.exit_code == 4
        assert isinstance(result.exception, SystemExit)
        assert "bound of 10000000 partial potentials" in result.output
        assert f"= {100003 * 119}" in result.output

    def test_age_cost_table_bound_checked_first(self, tmp_path):
        # K11 with all M = 1 is its own reduced core: its first descent
        # visits 100003 * 10 potentials, but its cost table would hold
        # 2 * 100003 entries for each of its 55 adjacent pairs
        n = 11
        data = {
            "ell": 100003,
            "vertices": [{"id": i, "genus": None} for i in range(n)],
            "edges": [{"tail": i, "head": j, "m": 1} for i in range(n) for j in range(i)],
        }
        path = tmp_path / "k11.json"
        path.write_text(json.dumps(data))
        start = time.perf_counter()
        result = CliRunner().invoke(main, ["analyze", str(path), "--json"])
        assert time.perf_counter() - start < 1
        assert result.exit_code == 4
        assert isinstance(result.exception, SystemExit)
        assert (
            "age search exceeds its bound of 10000000 elements: its cost table holds "
            f"2 ell * (adjacent vertex pairs) = 2 * 100003 * 55 = {2 * 100003 * 55} entries"
        ) in result.output

    def test_integer_past_parse_digit_limit_exit_code(self, tmp_path):
        path = vine_file(tmp_path, 5, (1, 4))
        text = path.read_text().replace('"genus": null', '"genus": ' + "9" * (MAX_DIGITS + 1), 1)
        path.write_text(text.replace('"genus": null', '"genus": 0'))
        result = CliRunner().invoke(main, ["analyze", str(path)])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)

    def test_vine_at_largest_allowed_level(self, tmp_path):
        ms = (1, 2)
        path = vine_file(tmp_path, MAX_LEVEL, ms)
        result = CliRunner().invoke(main, ["analyze", str(path), "--json"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        expected = vine_stratum_age(MAX_LEVEL, ms)
        assert report["stratum_age"] == f"{expected.numerator}/{expected.denominator}"
        # the multidegree is -3, 3: at an odd prime level every k != 0 has
        # 2k invertible, and k = 0 would need a zero multidegree
        assert report["admissible_k"] == list(range(1, MAX_LEVEL))

    def test_long_path_at_largest_allowed_level(self, tmp_path):
        # M = 1 on a 900-vertex path: the end multidegrees are -1 and 1, so
        # again every k but 0 is admissible
        path = path_file(tmp_path, MAX_LEVEL, 900)
        result = CliRunner().invoke(main, ["analyze", str(path), "--json"])
        assert result.exit_code == 0
        with _int_digits(MAX_DIGITS):
            report = json.loads(result.output)
        assert report["admissible_k"] == list(range(1, MAX_LEVEL))
        assert report["ghost_group_order"] == MAX_LEVEL ** 899

    @pytest.mark.parametrize("ell", [2, 5, 6, 7, 12])
    def test_admissible_k_matches_genus_labeling(self, ell):
        graphs = [
            Multigraph([0, 1], [(0, 1)] * 3),
            Multigraph(range(3), [(0, 1), (1, 2), (2, 0), (0, 1)]),
            Multigraph(range(3), [(0, 1), (1, 1), (1, 2), (2, 0)]),
        ]
        for g in graphs:
            for shift in range(ell):
                values = {e: (shift + 2 * e) % ell for e in g.edge_ids}
                d = DecoratedGraph.from_edge_values(g, ell, values)
                report = build_report(d, None)
                if report["stratum_age"] is None:  # composite level
                    assert report["admissible_k"] is None
                    continue
                assert report["admissible_k"] == [
                    k for k in range(ell) if genus_labeling(d, k) is not None
                ]

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda data: data.update(vertices=[1, 2]),
            lambda data: data.update(ell="x"),
            lambda data: data["edges"][0].update(m="a"),
            lambda data: data["edges"][0].pop("m"),
            lambda data: data["edges"][0].update(m=1.5),
        ],
        ids=["vertex-not-object", "ell-string", "m-string", "m-missing", "m-float"],
    )
    def test_malformed_input_exit_code(self, tmp_path, corrupt):
        path = vine_file(tmp_path, 5, [1, 4])
        data = json.loads(path.read_text())
        corrupt(data)
        path.write_text(json.dumps(data))
        result = CliRunner().invoke(main, ["analyze", str(path)])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)

    def test_missing_file_exit_code(self, tmp_path):
        result = CliRunner().invoke(main, ["analyze", str(tmp_path / "nope.json")])
        assert result.exit_code == 3

    def test_usage_error_exit_code(self):
        result = CliRunner().invoke(main, ["analyze"])
        assert result.exit_code == 2

    @settings(max_examples=200, deadline=None)
    @given(doc=analyze_documents(), k=st.sampled_from([None, 0, 1, 2, -1]), as_json=st.booleans())
    def test_any_document_answers_or_exits(self, tmp_path_factory, doc, k, as_json):
        path = tmp_path_factory.mktemp("fuzz") / "graph.json"
        with _int_digits(MAX_DIGITS):
            path.write_text(json.dumps(doc))
        args = ["analyze", str(path)] + (["--k", str(k)] if k is not None else [])
        result = CliRunner().invoke(main, args + (["--json"] if as_json else []))
        assert result.exception is None or isinstance(result.exception, SystemExit), (
            result.exc_info
        )
        assert result.exit_code in (0, 3, 4), result.output


class TestClassify:
    def test_ell3_one_row(self):
        result = CliRunner().invoke(main, ["classify", "--ell", "3", "--k", "1"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert len(lines) == 2  # header + one class
        assert "(1,1)" in lines[1]
        assert "2/3" in lines[1]

    def test_ell2_empty(self):
        for k in ("0", "1"):
            result = CliRunner().invoke(main, ["classify", "--ell", "2", "--k", k])
            assert result.exit_code == 0
            assert len(result.output.strip().splitlines()) == 1

    def test_json_format(self):
        result = CliRunner().invoke(
            main, ["classify", "--ell", "3", "--k", "1", "--format", "json"]
        )
        assert result.exit_code == 0
        rows = json.loads(result.output)
        assert len(rows) == 1
        assert rows[0]["vine"] == "(1,1)"

    def test_all_includes_non_maximal(self):
        base = CliRunner().invoke(main, ["classify", "--ell", "5", "--k", "1"])
        full = CliRunner().invoke(main, ["classify", "--ell", "5", "--k", "1", "--all"])
        assert len(full.output.splitlines()) >= len(base.output.splitlines())

    def test_unsupported_level(self):
        result = CliRunner().invoke(main, ["classify", "--ell", "9", "--k", "1"])
        assert result.exit_code == 2

    def test_huge_level_is_a_usage_error(self):
        result = CliRunner().invoke(
            main, ["classify", "--ell", "100000000000000000039"]
        )
        assert result.exit_code == 2
        assert "not supported" in result.output

    def test_full_listing_past_bucket_bound(self):
        result = CliRunner().invoke(main, ["classify", "--ell", "7", "--all"])
        assert result.exit_code == 4
        assert "bucketing bound" in result.output

    def test_full_listing_snapshot(self):
        result = CliRunner().invoke(
            main, ["classify", "--ell", "5", "--all", "--snapshot", str(SNAPSHOTS)]
        )
        assert result.exit_code == 0
        assert "ell5_kall_full.tsv" in result.output

    def test_snapshot_roundtrip(self, tmp_path):
        result = CliRunner().invoke(main, ["classify", "--ell", "3", "--k", "1"])
        ref = tmp_path / "ell3_k1.tsv"
        ref.write_text(result.output)
        again = CliRunner().invoke(
            main, ["classify", "--ell", "3", "--k", "1", "--snapshot", str(tmp_path)]
        )
        assert again.exit_code == 0

    def test_snapshot_drift(self, tmp_path):
        ref = tmp_path / "ell3_k1.tsv"
        ref.write_text("vertices\tedges\n")
        result = CliRunner().invoke(
            main, ["classify", "--ell", "3", "--k", "1", "--snapshot", str(tmp_path)]
        )
        assert result.exit_code == 1

    def test_snapshot_missing_file(self, tmp_path):
        result = CliRunner().invoke(
            main, ["classify", "--ell", "3", "--k", "1", "--snapshot", str(tmp_path)]
        )
        assert result.exit_code == 3


class TestLazyNumpy:
    """numpy loads only inside classify's kernels; each check runs in a
    fresh interpreter."""

    BLOCK = "import sys; sys.modules['numpy'] = None\n"

    def run(self, code):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )

    def test_import_loads_no_numpy(self):
        result = self.run(
            "import sys, ghostgraph, ghostgraph.cli\n"
            "assert 'numpy' not in sys.modules, 'numpy loaded'\n"
        )
        assert result.returncode == 0, result.stderr

    def test_analyze_without_numpy(self, tmp_path):
        path = vine_file(tmp_path, 5, [1, 1, 3])
        code = (
            "from ghostgraph.cli import main\n"
            f"main(['analyze', {str(path)!r}, '--json', '--k', '1'])\n"
        )
        plain, blocked = self.run(code), self.run(self.BLOCK + code)
        assert plain.returncode == blocked.returncode == 0, blocked.stderr
        assert blocked.stdout == plain.stdout
        assert json.loads(blocked.stdout)["stratum_age"] == "4/5"

    def test_classify_needs_numpy(self):
        result = self.run(
            self.BLOCK
            + "from ghostgraph import classify_junior\n"
            "try:\n"
            "    classify_junior(3)\n"
            "except ImportError:\n"
            "    print('ImportError')\n"
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "ImportError\n"


class TestProps:
    @pytest.mark.parametrize("scope", props_mod.SCOPES)
    def test_scoped_run(self, scope):
        result = CliRunner().invoke(
            main, ["props", "--scope", scope, "--cases", "10", "--seed", "1"]
        )
        assert result.exit_code == 0
        assert f"[{scope}]" in result.output
        assert "FAIL" not in result.output

    def test_failing_property(self, monkeypatch):
        always_fails = [("always fails", lambda rng: "no luck")]
        monkeypatch.setitem(props_mod._REGISTRY, "graph", always_fails)
        result = CliRunner().invoke(main, ["props", "--scope", "graph", "--cases", "3"])
        assert result.exit_code == 1
        assert "[graph] always fails: 3 cases FAIL" in result.output
        assert "case 0: no luck" in result.output

    def test_failures_stop_at_five(self, monkeypatch):
        always_fails = [("always fails", lambda rng: "no luck")]
        monkeypatch.setitem(props_mod._REGISTRY, "graph", always_fails)
        result = CliRunner().invoke(main, ["props", "--scope", "graph", "--cases", "10"])
        assert result.exit_code == 1
        assert "[graph] always fails: 10 cases FAIL" in result.output
        failures = [line.strip() for line in result.output.splitlines() if "case " in line]
        assert failures == [f"case {i}: no luck" for i in range(5)]

    def test_seed_reproducible(self):
        args = ["props", "--scope", "graph", "--cases", "10", "--seed", "7"]
        a = CliRunner().invoke(main, args)
        b = CliRunner().invoke(main, args)
        assert a.output == b.output
        assert a.exit_code == 0


REPORT_LEVELS = (5, 6, 7, 12, 13)


def seeded_requests(n=300, seed=2017):
    """n (decorated graph, k) pairs: 1-5 vertices, a random spanning tree
    plus up to four random pairs (loops and parallel edges), either
    orientation, M = 0 with probability 0.2, genus labels on about a third
    and k = None on about a quarter."""
    rng = random.Random(seed)
    for i in range(n):
        ell = REPORT_LEVELS[i % len(REPORT_LEVELS)]
        nv = rng.randint(1, 5)
        pairs = [(rng.randrange(v), v) for v in range(1, nv)]
        pairs += [(rng.randrange(nv), rng.randrange(nv)) for _ in range(rng.randint(0, 4))]
        pairs = [p[::-1] if rng.random() < 0.5 else p for p in pairs]
        m = {e: 0 if rng.random() < 0.2 else rng.randrange(1, ell) for e in range(len(pairs))}
        genus = {v: rng.randrange(3) for v in range(nv)} if rng.random() < 0.3 else None
        k = None if rng.random() < 0.25 else rng.randrange(-ell, 2 * ell)
        yield DecoratedGraph.from_edge_values(Multigraph(range(nv), pairs), ell, m, genus), k


def count_calls(monkeypatch, module, name, when=None):
    """Wrap module.name in every ghostgraph module that binds it; the
    returned list collects the first argument of each call (of each call
    whose first argument satisfies ``when`` on entry, when given)."""
    fn = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        if when is None or when(args[0]):
            calls.append(args[0])
        return fn(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "ghostgraph" and getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, counted)
    return calls


def count_bridge_computations(monkeypatch):
    """The graphs whose bridges ``separating_edges`` computes: the calls
    that find no answer kept on the graph."""
    return count_calls(monkeypatch, graphs, "separating_edges", lambda g: g._bridges is None)


class TestReportStructure:
    def test_seeded_reports_pinned(self):
        """The SHA-256 of 300 seeded reports as sorted-key JSON lines."""
        texts = [json.dumps(build_report(d, k), sort_keys=True) for d, k in seeded_requests()]
        assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == (
            "c749ae2e6636435d21bf3e9f6514a115dc65d6fe6316987d20b90ce3b0255e2f"
        )

    @pytest.mark.parametrize("ell, chain_lengths", [(5, ()), (12, (2, 1))])
    def test_structural_facts_computed_once(self, monkeypatch, ell, chain_lengths):
        # a zero edge, a loop, a bridge and a doubled edge: gamma0 is a
        # triangle 0-1-2 with a loop at 0 and a pendant vertex 3
        pairs = [(0, 1), (1, 2), (2, 0), (2, 0), (0, 0), (2, 3), (3, 4)]
        g = Multigraph(range(5), pairs)
        d = DecoratedGraph.from_edge_values(g, ell, {0: 1, 1: 2, 2: 3, 3: 4, 4: 1, 5: 2, 6: 0})
        bridges = count_bridge_computations(monkeypatch)
        boundaries = count_calls(monkeypatch, cochains, "boundary")
        for first in (True, False):
            bridges.clear()
            boundaries.clear()
            report = build_report(d, 1)
            assert report["gamma0"]["separating_edges"] == [5]
            # gamma0's bridges and those of each graph of each prime's chain,
            # once each: d is not faithful, so each report builds them anew
            assert len(bridges) == 1 + sum(chain_lengths)
            assert bridges.count(gamma0(d).graph) == 1
            # d keeps its multidegree table from the first report on
            assert boundaries == ([d.m] if first else [])


def path_graph(n):
    return Multigraph(range(n), [(i, i + 1) for i in range(n - 1)])


def graph_doc(ell, pairs, m, genus=None):
    n = 1 + max(max(p) for p in pairs)
    return {
        "ell": ell,
        "vertices": [{"id": v, "genus": None if genus is None else genus[v]} for v in range(n)],
        "edges": [{"tail": t, "head": h, "m": x} for (t, h), x in zip(pairs, m)],
    }


def graph_decorated(ell, pairs, m):
    return decorated_from_dict(graph_doc(ell, pairs, m))


def doubled_cycle_report(max_elements):
    g = Multigraph(range(5), [(i, (i + 1) % 5) for i in range(5)] * 2)
    d = DecoratedGraph.from_edge_values(g, 11, {e: 1 + e for e in g.edge_ids})
    return minimal_age_report(d, max_elements)


CYCLE = [(i, (i + 1) % 120) for i in range(120)]
K11 = [(i, j) for i in range(11) for j in range(i)]
BUCKET_MESSAGE = (
    "39420 junior decorations on the base graph [(0, 2), (0, 2), (1, 2), (1, 2), "
    "(1, 2), (1, 2)] exceed the bucketing bound BUCKET_BOUND = 20000; restrict to "
    "maximal classes or fewer edges"
)


# every raise site of SizeBoundExceeded: a call that reaches it (an analyze
# document, or a callable and the command line that reaches it, if any),
# the (bound, limit, requested) it carries and its message
BOUND_SITES = [
    pytest.param(
        lambda: canonical_code(path_graph(9)), None,
        ("MAX_CODE_VERTICES", 8, 9), "canonical_code limited to 8 vertices, asked for 9",
        id="code-vertices",
    ),
    pytest.param(
        lambda: enumerate_base_graphs(9), ["classify", "--ell", "7", "--max-edges", "9"],
        ("MAX_CODE_VERTICES", 8, 9), "enumerate_base_graphs limited to 8 edges, asked for 9",
        id="base-graph-edges",
    ),
    pytest.param(
        graph_doc(MAX_LEVEL + 1, [(0, 1), (0, 1)], [1, 2]), None,
        ("MAX_LEVEL", MAX_LEVEL, MAX_LEVEL + 1),
        f"level bound MAX_LEVEL = {MAX_LEVEL} exceeded: ell = {MAX_LEVEL + 1}",
        id="level",
    ),
    pytest.param(
        graph_doc(5, [(0, 1)] * 3, [1, 1, 3], {0: 100000, 1: 0}), None,
        ("MAX_DIGITS", MAX_DIGITS, 139797),
        f"digit bound MAX_DIGITS = {MAX_DIGITS} exceeded: root_count = 5^200004 has 139797 digits",
        id="digits",
    ),
    pytest.param(
        lambda: list(ghost_group(graph_decorated(5, [(0, 1)] * 2, [1, 2])).elements(4)), None,
        ("max_elements", 4, 5), "group order 5 exceeds the expansion bound 4",
        id="group-elements",
    ),
    pytest.param(
        graph_doc(100003, CYCLE, [1] * 120), None,
        ("max_elements", 10**7, 100003 * 119),
        "age search exceeds its bound of 10000000 partial potentials: its first descent "
        f"visits ell * (#V - 1) = {100003 * 119}",
        id="age-first-descent",
    ),
    pytest.param(
        graph_doc(100003, K11, [1] * 55), None,
        ("max_elements", 10**7, 2 * 100003 * 55),
        "age search exceeds its bound of 10000000 elements: its cost table holds "
        f"2 ell * (adjacent vertex pairs) = 2 * 100003 * 55 = {2 * 100003 * 55} entries",
        id="age-cost-table",
    ),
    pytest.param(
        lambda: doubled_cycle_report(110), None,
        ("max_elements", 110, 121),
        "age search exceeds its bound of 110 partial potentials: 121 visited",
        id="age-visited",
    ),
    pytest.param(
        lambda: classify_junior(7, only_maximal=False), ["classify", "--ell", "7", "--all"],
        ("BUCKET_BOUND", 20000, 39420), BUCKET_MESSAGE,
        id="bucket",
    ),
]


@pytest.mark.parametrize("call, argv, attributes, message", BOUND_SITES)
def test_size_bound_attributes(tmp_path, call, argv, attributes, message):
    if isinstance(call, dict):  # an analyze document
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(call))
        argv = ["analyze", str(path), "--json"]
        call = functools.partial(build_report, decorated_from_dict(call), None)
    with pytest.raises(SizeBoundExceeded) as info:
        call()
    assert (info.value.bound, info.value.limit, info.value.requested) == attributes
    assert str(info.value) == message
    if argv is not None:
        result = CliRunner().invoke(main, argv)
        assert result.exit_code == 4
        assert result.stdout == ""
        assert result.stderr == f"resource bound: {message}\n"
