"""Command-line interface: reports, tables, snapshots, exit codes."""

import json

import pytest
from click.testing import CliRunner

from ghostgraph.cli import main

from oracles import vine_stratum_age


def vine_file(tmp_path, ell, values, name="graph.json"):
    data = {
        "ell": ell,
        "vertices": [{"id": 0, "genus": None}, {"id": 1, "genus": None}],
        "edges": [{"tail": 0, "head": 1, "m": m} for m in values],
    }
    path = tmp_path / name
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

    def test_vine_at_level_1009(self, tmp_path):
        ms = (1, 10, 100, 1000)
        path = vine_file(tmp_path, 1009, ms)
        result = CliRunner().invoke(main, ["analyze", str(path), "--json"])
        assert result.exit_code == 0
        expected = vine_stratum_age(1009, ms)
        assert json.loads(result.output)["stratum_age"] == (
            f"{expected.numerator}/{expected.denominator}"
        )

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


class TestProps:
    def test_scoped_run(self):
        result = CliRunner().invoke(
            main, ["props", "--scope", "cochain", "--cases", "10", "--seed", "1"]
        )
        assert result.exit_code == 0
        assert "[cochain]" in result.output
        assert "FAIL" not in result.output

    def test_seed_reproducible(self):
        args = ["props", "--scope", "graph", "--cases", "10", "--seed", "7"]
        a = CliRunner().invoke(main, args)
        b = CliRunner().invoke(main, args)
        assert a.output == b.output
        assert a.exit_code == 0
