"""Command-line interface: file outputs, exit codes, determinism."""

import json

import pytest

from reluconstruct import deserialize, evaluate
from reluconstruct.cli import main


def run(argv, capsys=None):
    return main([str(a) for a in argv])


class TestConstruct:
    def test_writes_network_and_sidecar(self, tmp_path):
        out = tmp_path / "net.json"
        code = run(
            ["construct", "--target", "cone", "--d", "1", "--alpha", "1", "--nu", "1",
             "--N", "4", "--out", out, "--grid-points", "50000"]
        )
        assert code == 0
        net = deserialize(out.read_bytes())
        assert net.hidden_widths == [8, 9]
        meta = json.loads((tmp_path / "net.json.meta.json").read_text())
        assert meta["measured_l1"] <= 0.125
        assert meta["config"]["seed"] == 0
        assert meta["version"]

    def test_zero_target_d2(self, tmp_path):
        out = tmp_path / "zero.json"
        code = run(
            ["construct", "--target", "zero", "--d", "2", "--alpha", "1", "--nu", "1",
             "--N", "4", "--out", out, "--grid-points", "128"]
        )
        assert code == 0
        meta = json.loads((tmp_path / "zero.json.meta.json").read_text())
        assert meta["measured_l1"] <= 1e-9

    def test_invalid_alpha_exits_2(self, tmp_path, capsys):
        code = run(
            ["construct", "--target", "cone", "--d", "1", "--alpha", "1.5",
             "--N", "4", "--out", tmp_path / "x.json"]
        )
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    def test_infeasible_budget_exits_3(self, tmp_path, capsys):
        code = run(
            ["construct", "--target", "cone", "--d", "1", "--alpha", "0.5",
             "--N", "2", "--out", tmp_path / "x.json",
             "--delta-target", "1e-300", "--delta-floor", "1e-8"]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "construction-infeasible" in err

    def test_config_document_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"target": "cone", "d": 1, "alpha": 0.5, "N": 2,
                                   "grid_points": 20000}))
        out = tmp_path / "net.json"
        code = run(["construct", "--config", cfg, "--alpha", "1.0", "--N", "2",
                    "--out", out])
        assert code == 0
        meta = json.loads((tmp_path / "net.json.meta.json").read_text())
        assert meta["config"]["alpha"] == 1.0  # flag wins over config file


class TestEval:
    def test_eval_round_trip(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "net.json"
        run(["construct", "--target", "cone", "--d", "1", "--alpha", "1",
             "--N", "2", "--out", out, "--grid-points", "1000"])
        capsys.readouterr()
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("0.25\n0.5\n\n0.75\n"))
        code = run(["eval", "--net", out])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        vals = [float(v) for v in lines]
        net = deserialize(out.read_bytes())
        assert vals == [evaluate(net, 0.25), evaluate(net, 0.5), evaluate(net, 0.75)]

    def test_dimension_mismatch_exits_2(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "net.json"
        run(["construct", "--target", "cone", "--d", "1", "--alpha", "1",
             "--N", "2", "--out", out, "--grid-points", "1000"])
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("0.25 0.5\n"))
        assert run(["eval", "--net", out]) == 2


class TestSweep:
    def test_rate_summary_and_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        summary = tmp_path / "summary.json"
        code = run(
            ["sweep", "--target", "cone", "--d", "1", "--alpha", "0.5",
             "--N", "2", "4", "8", "--grid-points", "50000",
             "--out", out, "--summary", summary]
        )
        assert code == 0
        doc = json.loads(summary.read_text())
        assert doc["rate_defined"] and doc["slope"] < -1.0
        assert doc["theoretical_slope"] == -1.0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# ")
        assert lines[1] == "name,d,alpha,nu,N,widthvec,l1,linf,bound,pass"
        assert len(lines) == 5

    def test_zero_target_rate_undefined(self, tmp_path):
        out = tmp_path / "sweep.csv"
        summary = tmp_path / "summary.json"
        code = run(
            ["sweep", "--target", "zero", "--d", "1", "--alpha", "1",
             "--N", "2", "3", "4", "--grid-points", "20000",
             "--out", out, "--summary", summary]
        )
        assert code == 0
        doc = json.loads(summary.read_text())
        assert not doc["rate_defined"]
        assert doc["slope"] is None

    def test_needs_three_points(self, tmp_path):
        assert run(["sweep", "--target", "cone", "--d", "1", "--N", "2", "4",
                    "--out", tmp_path / "s.csv"]) == 2

    def test_needs_three_distinct_points(self, tmp_path):
        assert run(["sweep", "--target", "cone", "--d", "1", "--N", "4", "4", "8",
                    "--out", tmp_path / "s.csv"]) == 2

    def test_config_echoes_delta_target(self, tmp_path):
        out = tmp_path / "sweep.csv"
        summary = tmp_path / "summary.json"
        code = run(
            ["sweep", "--target", "zero", "--d", "1", "--alpha", "1",
             "--N", "2", "3", "4", "--grid-points", "2000", "--delta-target", "0.001",
             "--out", out, "--summary", summary]
        )
        assert code == 0
        header = json.loads(out.read_text().splitlines()[0][2:])
        assert header["config"]["delta_target"] == 0.001
        assert json.loads(summary.read_text())["config"]["delta_target"] == 0.001


class TestCost:
    def test_cost_csv(self, tmp_path):
        out = tmp_path / "cost.csv"
        code = run(["cost", "--N", "8", "--L", "4", "--d", "2", "--m", "1", "64",
                    "--out", out])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1].split(",")[0] == "family"
        assert len(lines) == 2 + 3 * 2  # header rows + families x m values


class TestCheck:
    def test_unknown_suite_exits_2(self, capsys):
        assert run(["check", "--suite", "nonsense"]) == 2

    def test_filtered_lemma2_suite(self, tmp_path, capsys):
        report = tmp_path / "report.xml"
        code = run(["check", "--suite", "lemma2", "--m", "4", "--n", "4",
                    "--out", report, "--seed", "5"])
        assert code == 0
        text = report.read_text()
        assert "<testsuite" in text and 'name="lemma2"' in text
        assert 'failures="0"' in text
