"""Command-line interface: file outputs, exit codes, determinism."""

import csv
import json
from types import SimpleNamespace
from xml.etree import ElementTree as ET

import numpy as np
import pytest

from reluconstruct import (ConstructionInfeasibleError, DeltaPolicy, GridSpec, ReluNetwork,
                           build_1d, cli, construct, deserialize, evaluate_batch, grid_errors,
                           holder_family, l1_error, linf_error, metrics)
from reluconstruct.cli import main


def run(argv, capsys=None):
    return main([str(a) for a in argv])


def exit_code(argv):
    """The status the process would exit with, also when argparse exits."""
    try:
        return run(argv)
    except SystemExit as e:
        return e.code


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

    @pytest.mark.parametrize("grid_points", [None, 50000])
    def test_sidecar_records_the_grid(self, tmp_path, grid_points):
        out = tmp_path / "net.json"
        flags = [] if grid_points is None else ["--grid-points", grid_points]
        assert run(["construct", "--N", "4", "--out", out, *flags]) == 0
        meta = json.loads((tmp_path / "net.json.meta.json").read_text())
        p = metrics.default_grid(1).points_per_axis if grid_points is None else grid_points
        assert meta["grid"] == {"rule": "midpoint", "points_per_axis": p}

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

    def test_infeasible_budget_at_the_default_floor_exits_3(self, tmp_path, capsys):
        out = tmp_path / "x.net"
        code = run(
            ["construct", "--target", "cone", "--d", "1", "--alpha", "0.5",
             "--N", "16", "--delta-target", "1e-30", "--out", out]
        )
        assert code == 3
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "construction-infeasible" and record["delta"] == 1e-12
        assert not out.exists()

    def test_infeasible_meta_record(self, tmp_path, capsys):
        out, meta = tmp_path / "x.json", tmp_path / "m.json"
        code = run(["construct", "--alpha", "0.5", "--N", "2", "--out", out, "--meta", meta,
                    "--delta-target", "1e-300", "--delta-floor", "1e-8"])
        assert code == 3
        assert not out.exists()
        record = json.loads(meta.read_text())
        assert sorted(record) == ["achieved", "config", "delta", "error", "message", "version"]
        assert record["error"] == "construction-infeasible"
        assert record["delta"] == 1e-8 and record["achieved"] > 0
        assert record["config"]["delta_floor"] == 1e-8
        stderr = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert stderr == {k: record[k] for k in ("achieved", "delta", "error", "message")}

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

    def test_sidecar_config_reproduces_network(self, tmp_path):
        first = tmp_path / "first.json"
        assert run(["construct", "--target", "cone", "--d", "1", "--alpha", "0.6",
                    "--nu", "2", "--N", "4", "--delta-floor", "1e-10",
                    "--grid-points", "2000", "--out", first]) == 0
        config = json.loads((tmp_path / "first.json.meta.json").read_text())["config"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        second = tmp_path / "second.json"
        assert run(["construct", "--config", cfg, "--N", "4", "--out", second]) == 0
        assert second.read_bytes() == first.read_bytes()
        assert json.loads((tmp_path / "second.json.meta.json").read_text())["config"] == config


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
        assert vals == evaluate_batch(net, [0.25, 0.5, 0.75]).tolist()

    def test_eval_is_one_batched_evaluation_in_input_order(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "net.json"
        run(["construct", "--target", "cone", "--d", "2", "--alpha", "0.5",
             "--N", "4", "--out", out, "--grid-points", "64"])
        capsys.readouterr()
        rng = np.random.default_rng(4)
        pts = rng.random((9, 2))
        calls = []
        monkeypatch.setattr(cli, "evaluate_batch", lambda net, xs: calls.append(xs) or evaluate_batch(net, xs))
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(f"{a!r} {b!r}\n" for a, b in pts.tolist())))
        assert run(["eval", "--net", out]) == 0
        vals = [float(v) for v in capsys.readouterr().out.split()]
        assert len(calls) == 1 and np.array_equal(calls[0], pts)
        assert vals == evaluate_batch(deserialize(out.read_bytes()), pts).tolist()

    @pytest.mark.parametrize("text", ["0.25\n0.5 0.1\n", "0.25\nabc\n", "0.25\nnan\n"],
                             ids=["dimension", "not-a-number", "not-finite"])
    def test_malformed_line_fails_before_any_output(self, tmp_path, capsys, monkeypatch, text):
        out = tmp_path / "net.json"
        run(["construct", "--target", "cone", "--d", "1", "--alpha", "1",
             "--N", "2", "--out", out, "--grid-points", "1000"])
        capsys.readouterr()
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert run(["eval", "--net", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "usage error:" in captured.err

    def test_eval_of_no_points_prints_nothing(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "net.json"
        run(["construct", "--target", "cone", "--d", "1", "--alpha", "1",
             "--N", "2", "--out", out, "--grid-points", "1000"])
        capsys.readouterr()
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("\n  \n"))
        assert run(["eval", "--net", out]) == 0
        assert capsys.readouterr().out == ""

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

    def test_target_sees_each_grid_point_once(self, tmp_path, monkeypatch):
        # every N is measured in one shared pass: the target sees the grid
        # once in total, block by block in chunk order
        grid = GridSpec(1, metrics._CHUNK + 1000)
        seen = []
        cone = holder_family("cone", 1, 0.5, 1.0)

        def recording(points):
            seen.append(points.copy())
            return cone(points)

        def measuring(*args):
            seen.clear()  # the builds, which run first at one thread, sample the target too
            return grid_pass(*args)

        grid_pass = cli._grid_metrics
        monkeypatch.setattr(cli, "_grid_metrics", measuring)
        monkeypatch.setattr(cli, "holder_family",
                            lambda *a: cli.HolderTarget(recording, 1, 0.5, 1.0))
        assert run(["sweep", "--d", "1", "--alpha", "0.5", "--N", "4", "8", "16", "--threads", "1",
                    "--grid-points", grid.total_points, "--out", tmp_path / "s.csv"]) == 0
        sizes = [len(points) for points in seen]
        assert sizes == [metrics._BLOCK] * (metrics._CHUNK // metrics._BLOCK) + [1000]
        every = (np.arange(grid.total_points) + 0.5) / grid.total_points
        assert np.array_equal(np.concatenate(seen)[:, 0], every)

    def test_nan_target_recorded_as_error(self, tmp_path, monkeypatch):
        # NaN at one grid point of the second chunk, which no build samples
        grid_points = metrics._CHUNK + 1000
        bad = (metrics._CHUNK + 5.5) / grid_points
        cone = holder_family("cone", 1, 0.5, 1.0)

        def f(points):
            out = cone(points)
            out[points[:, 0] == bad] = float("nan")
            return out

        monkeypatch.setattr(cli, "holder_family", lambda *a: cli.HolderTarget(f, 1, 0.5, 1.0))
        out, summary = tmp_path / "s.csv", tmp_path / "summary.json"
        assert run(["sweep", "--d", "1", "--alpha", "0.5", "--N", "4", "8", "16",
                    "--grid-points", grid_points, "--out", out, "--summary", summary]) == 1
        rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
        assert [r["pass"] for r in rows] == ["error: ValueError: target or network is NaN "
                                             "on the grid"] * 3
        assert json.loads(summary.read_text())["partial"] is True

    def test_target_shape_error_recorded_in_every_row(self, tmp_path, monkeypatch):
        cone = holder_family("cone", 1, 0.5, 1.0)

        def f(points):  # right on the builds' few thousand points, short on a grid block
            out = cone(points)
            return out if len(points) <= 5000 else out[:-1]

        monkeypatch.setattr(cli, "holder_family", lambda *a: cli.HolderTarget(f, 1, 0.5, 1.0))
        out = tmp_path / "s.csv"
        assert run(["sweep", "--d", "1", "--alpha", "0.5", "--N", "4", "8", "16",
                    "--grid-points", "20000", "--out", out]) == 1
        rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
        assert [r["pass"] for r in rows] == ["error: ShapeError: target must map (k, d) points "
                                             "to (k,) values"] * 3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("w1", [[[2.0]], [[1.0, 1.0]], [[2.0, 0.0]]])
    def test_overflowing_network_recorded_as_error(self, tmp_path, monkeypatch, w1):
        # the networks of TestGridErrors.test_overflowing_network_raises
        d = len(w1[0])
        net = ReluNetwork(d, ((np.array(w1), np.zeros(1)), (np.array([[1e308]]), np.zeros(1))))
        monkeypatch.setattr(cli, "_build", lambda *args: SimpleNamespace(net=net))
        with pytest.raises(ValueError) as raised:
            grid_errors(holder_family("cone", d, 0.5, 1.0), net, GridSpec(d, 64))
        out = tmp_path / "s.csv"
        assert run(["sweep", "--d", d, "--alpha", "0.5", "--N", "2", "3", "4",
                    "--grid-points", "64", "--out", out]) == 1
        rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
        want = f"error: {type(raised.value).__name__}: {raised.value}"
        assert [r["pass"] for r in rows] == [want] * 3

    @pytest.mark.parametrize("d, ns", [(1, ["2", "4", "8", "16"]), (2, ["4", "9", "16"])])
    def test_certificate_spot_checked_once(self, tmp_path, monkeypatch, d, ns):
        checked = []
        check = construct.spot_check_holder
        monkeypatch.setattr(construct, "spot_check_holder",
                            lambda t: checked.append(t) or check(t))
        assert run(["sweep", "--d", d, "--alpha", "0.5", "--N", *ns, "--threads", "1",
                    "--grid-points", "64", "--out", tmp_path / "s.csv"]) == 0
        assert len(checked) == 1

    def test_cells_equal_single_metrics(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["sweep", "--d", "1", "--alpha", "0.6", "--N", "4", "8", "16",
                    "--grid-points", "20000", "--out", out]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
        target, grid = holder_family("cone", 1, 0.6, 1.0), GridSpec(1, 20000)
        assert [int(r["N"]) for r in rows] == [4, 8, 16]
        for row in rows:
            net = build_1d(target, int(row["N"]), DeltaPolicy()).net
            assert row["l1"] == format(l1_error(target, net, grid), ".17g")
            assert row["linf"] == format(linf_error(target, net, grid), ".17g")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_d1_csv_independent_of_threads(self, tmp_path, monkeypatch):
        # two chunks; the N = 8 network is 0 up to the second chunk and
        # infinite inside it, so only a later chunk fails its row
        points = metrics._CHUNK + 1000
        edge = (metrics._CHUNK + 1) / points
        bad = ReluNetwork(1, ((np.ones((1, 1)), np.array([-edge])),
                              (np.array([[1e308]]), np.zeros(1)),
                              (np.array([[1e308]]), np.zeros(1))))
        build = cli._build
        monkeypatch.setattr(cli, "_build", lambda target, big_n, policy: (
            SimpleNamespace(net=bad, bound=1.0) if big_n == 8 else build(target, big_n, policy)))
        args = ["sweep", "--d", "1", "--alpha", "0.5", "--N", "4", "8", "16", "32",
                "--grid-points", points]
        one, two = tmp_path / "t1.csv", tmp_path / "t2.csv"
        assert run(args + ["--threads", "1", "--out", one]) == 1
        assert run(args + ["--threads", "2", "--out", two]) == 1
        assert one.read_bytes() == two.read_bytes()
        rows = list(csv.DictReader(one.read_text().splitlines()[1:]))
        assert [r["pass"] for r in rows] == [
            "True", "error: ValueError: target or network is infinite on the grid", "True", "True"]

    def test_d2_csv_independent_of_threads(self, tmp_path):
        args = ["sweep", "--target", "cone", "--d", "2", "--alpha", "0.5",
                "--N", "4", "9", "16", "--grid-points", "256"]
        one, two = tmp_path / "t1.csv", tmp_path / "t2.csv"
        assert run(args + ["--threads", "1", "--out", one]) == 0
        assert run(args + ["--threads", "2", "--out", two]) == 0
        assert one.read_bytes() == two.read_bytes()

    def test_failed_rows_independent_of_threads(self, tmp_path):
        args = ["sweep", "--target", "cone", "--d", "2", "--alpha", "0.5",
                "--N", "1", "4", "9", "300", "--grid-points", "128"]
        one, two = tmp_path / "t1.csv", tmp_path / "t2.csv"
        assert run(args + ["--threads", "1", "--out", one]) == 1
        assert run(args + ["--threads", "2", "--out", two]) == 1
        assert one.read_bytes() == two.read_bytes()
        rows = one.read_text().splitlines()[2:]
        assert rows[0].endswith(",,,,,error: DegenerateGridError: N=1 yields a single cell "
                                "per axis in d=2")
        assert rows[1].endswith(",True") and rows[2].endswith(",True")
        assert "error: ResolutionError" in rows[3]


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

    def test_residual_schedule_reports_its_worst_value(self, capsys, monkeypatch):
        # the detail is the largest scheduled residual of the construction's
        # own record; a nonzero one planted there fails the case with its value
        traces, build = [], cli.lemma2_interpolant

        def recording(plan, residuals=False):
            net, trace = build(plan, residuals)
            traces.append(trace)
            if len(traces) == 2:
                trace.residuals[3][1] = -3e-6
            return net, trace

        monkeypatch.setattr(cli, "lemma2_interpolant", recording)
        m = n = 4
        assert run(["check", "--suite", "lemma2", "--m", m, "--n", n, "--seed", "5"]) == 0
        (trace,) = traces
        worst = max(abs(trace.residuals[k + 1][j * (n + 1) + ell])
                    for k in range(n + 1) for j in range(m) for ell in range(k + 1))
        worst = max(worst, *(abs(trace.residuals[k + 1][m * (n + 1)]) for k in range(n + 1)))
        assert f"PASS lemma2.residual-schedule: max scheduled residual {worst:.2e}" in \
            capsys.readouterr().out
        assert run(["check", "--suite", "lemma2", "--m", m, "--n", n, "--seed", "5"]) == 1
        assert "FAIL lemma2.residual-schedule: max scheduled residual 3.00e-06" in \
            capsys.readouterr().out

    def test_lemma2_node_error_is_one_batched_evaluation(self, capsys, monkeypatch):
        # at m = n = 64 the weights reach 2.6e6; one-row products lost digits
        # (2.57e-8 at seed 0) where one batched product reads 1.74e-9
        built, build = [], cli.lemma2_interpolant

        def recording(plan, residuals=False):
            net, trace = build(plan, residuals)
            built.append((plan.samples, net))
            return net, trace

        monkeypatch.setattr(cli, "lemma2_interpolant", recording)
        assert run(["check", "--suite", "lemma2", "--m", "64", "--n", "64", "--seed", "0"]) == 0
        ((samples, net),) = built
        node_err = float(np.max(np.abs(evaluate_batch(net, samples.xs) - samples.ys)))
        assert f"PASS lemma2.node-exactness: max node error {node_err:.2e}" in \
            capsys.readouterr().out

    def test_infeasible_closure_exits_3(self, capsys, monkeypatch):
        def infeasible(g, m, n, eps):
            raise ConstructionInfeasibleError("closure out of reach", achieved=0.5, delta=1e-12)

        monkeypatch.setattr(cli, "corollary32_check", infeasible)
        assert run(["check", "--suite", "corollary32"]) == 3
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record == {"achieved": 0.5, "delta": 1e-12, "error": "construction-infeasible",
                          "message": "closure out of reach"}

    def test_failing_suite_exits_1_with_failure_element(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(cli._SUITES, "failing", lambda seed, m, n: [("case", False, "why")])
        report = tmp_path / "report.xml"
        assert run(["check", "--suite", "failing", "--out", report]) == 1
        (failure,) = ET.parse(report).getroot().iter("failure")
        assert failure.get("message") == "why"
        assert "FAIL failing.case: why" in capsys.readouterr().out

    def test_every_suite_passes(self, tmp_path, capsys):
        report = tmp_path / "report.xml"
        assert run(["check", "--out", report]) == 0
        suites = ET.parse(report).getroot().findall("testsuite")
        assert len(suites) == 6
        assert all(s.get("failures") == "0" for s in suites)


class TestUsageErrors:
    """Bad input exits 2 with a message on stderr, never with a traceback."""

    def test_missing_net_file(self, tmp_path, capsys):
        assert exit_code(["eval", "--net", tmp_path / "missing.json"]) == 2
        assert "missing.json" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = exit_code(["construct", "--config", tmp_path / "missing.json", "--N", "2",
                          "--out", tmp_path / "net.json"])
        assert code == 2
        assert "missing.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc",
        [[1, 2], {"bogus": 1}, {"func": 1}, {"alpha": "0.5x"}],
        ids=["json-list", "unknown-key", "internal-name", "wrong-type"],
    )
    def test_bad_config_document(self, tmp_path, capsys, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "net.json"
        assert exit_code(["construct", "--config", cfg, "--N", "2", "--out", out]) == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    def test_threads_below_one(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = exit_code(["sweep", "--d", "1", "--N", "2", "4", "8", "--threads", "0",
                          "--out", out])
        assert code == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_points_over_cap(self, tmp_path, capsys):
        out = tmp_path / "net.json"
        code = exit_code(["construct", "--d", "2", "--N", "4", "--grid-points", "4097",
                          "--out", out])
        assert code == 2
        assert "cap" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_misspelt_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alph": 0.5, "grid_points": 100}))
        out = tmp_path / "net.json"
        assert exit_code(["construct", "--config", cfg, "--N", "2", "--out", out]) == 2
        assert "'alph'" in capsys.readouterr().err
        assert not out.exists()
        # an abbreviated flag on the command line is still argparse's to expand
        assert run(["construct", "--alph", "0.5", "--N", "2", "--grid-points", "2000",
                    "--out", out]) == 0
        meta = json.loads((tmp_path / "net.json.meta.json").read_text())
        assert meta["config"]["alpha"] == 0.5

    @pytest.mark.parametrize("flag", ["--out", "--meta"])
    def test_output_directory_checked_before_building(self, tmp_path, capsys, monkeypatch,
                                                      flag):
        builds = []
        monkeypatch.setattr(cli, "build_1d", lambda *a: builds.append(a))
        paths = {"--out": tmp_path / "net.json", "--meta": tmp_path / "net.meta.json"}
        paths[flag] = tmp_path / "missing-dir" / "x.json"
        argv = ["construct", "--N", "2"] + [t for kv in paths.items() for t in kv]
        assert exit_code(argv) == 2
        assert "missing-dir" in capsys.readouterr().err
        assert builds == []
        assert list(tmp_path.iterdir()) == []

    def test_output_that_is_a_directory(self, tmp_path, capsys, monkeypatch):
        builds = []
        monkeypatch.setattr(cli, "build_1d", lambda *a: builds.append(a))
        out = tmp_path / "net.json"
        out.mkdir()
        assert exit_code(["construct", "--N", "2", "--out", out]) == 2
        assert f"usage error: cannot write {str(out)!r}" in capsys.readouterr().err
        assert builds == []
        assert list(tmp_path.iterdir()) == [out] and list(out.iterdir()) == []

    @pytest.mark.parametrize("command", [["construct", "--N", "4", "--out", "{dir}/x.json"],
                                         ["sweep", "--N", "2", "3", "4", "--out", "{dir}/s.csv"]])
    @pytest.mark.parametrize("flags, message", [
        (["--target", "nope", "--delta-floor", "0", "--grid-points", "0"],
         "unknown target family: 'nope'"),
        (["--delta-floor", "0", "--grid-points", "0"], "floor must lie in"),
        (["--grid-points", "0"], "points_per_axis must be a positive integer"),
    ], ids=["target", "policy", "grid"])
    def test_inputs_are_checked_target_policy_grid(self, tmp_path, capsys, monkeypatch,
                                                   command, flags, message):
        # the first bad input in that order is the one reported
        builds = []
        monkeypatch.setattr(cli, "build_1d", lambda *a: builds.append(a))
        assert exit_code([a.format(dir=tmp_path) for a in command] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1 and message in err
        assert builds == []
        assert list(tmp_path.iterdir()) == []

    def test_delta_floor_below_min_break_gap(self, tmp_path, capsys, monkeypatch):
        builds = []
        monkeypatch.setattr(cli, "build_1d", lambda *a: builds.append(a))
        code = exit_code(["construct", "--N", "4", "--out", tmp_path / "x.json",
                          "--delta-floor", "1e-40"])
        assert code == 2
        assert "floor" in capsys.readouterr().err
        assert builds == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mode", ["empirical-shrink", "paper-sufficient"])
    @pytest.mark.parametrize("target", ["nan", "-1", "0", "inf"])
    def test_delta_target_not_positive_and_finite(self, tmp_path, capsys, monkeypatch, mode,
                                                  target):
        builds = []
        monkeypatch.setattr(cli, "build_1d", lambda *a: builds.append(a))
        code = exit_code(["construct", "--N", "8", "--out", tmp_path / "x.json",
                          "--delta-mode", mode, "--delta-target", target])
        assert code == 2
        assert "target must be None or lie in (0, inf)" in capsys.readouterr().err
        assert builds == []
        assert list(tmp_path.iterdir()) == []

    def test_infinite_nu(self, tmp_path, capsys, monkeypatch):
        builds = []
        monkeypatch.setattr(cli, "build_1d", lambda *a: builds.append(a))
        code = exit_code(["construct", "--N", "4", "--nu", "inf", "--out", tmp_path / "x.json"])
        assert code == 2
        assert "nu must be positive and finite" in capsys.readouterr().err
        assert builds == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (["eval", "--net", "{net}"], "malformed network document"),
        (["construct", "--d", "3", "--N", "100", "--out", "{out}"], "d <= 3, n <= 16"),
        (["construct", "--d", "2", "--N", "1", "--out", "{out}"], "single cell per axis"),
    ], ids=["parse", "resolution", "degenerate-grid"])
    def test_library_error_exits_2(self, tmp_path, capsys, argv, message):
        net = tmp_path / "net.json"
        net.write_text('{"input_dim": 1, "layers": [')  # truncated
        assert exit_code([a.format(net=net, out=tmp_path / "x.json") for a in argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("usage error:") == 1 and message in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [net]

    @pytest.mark.parametrize("weight", [{"a": 1.0}, "abc"], ids=["object", "string"])
    def test_weight_that_is_not_numbers_exits_2(self, tmp_path, capsys, weight):
        net = tmp_path / "net.json"
        net.write_text(json.dumps({"input_dim": 1, "layers": [{"weight": weight, "bias": [0.0]}]}))
        assert exit_code(["eval", "--net", net]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "usage error: layer 0 weight must be" in err
        assert "Traceback" not in err

    def test_infeasible_writes_no_network(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = exit_code(["construct", "--alpha", "0.5", "--N", "2", "--out", out,
                          "--delta-target", "1e-300", "--delta-floor", "1e-8"])
        assert code == 3
        assert list(tmp_path.iterdir()) == []


class TestParser:
    def test_main_reuses_one_parser_with_the_outputs_of_fresh_ones(self, tmp_path, capsys,
                                                                  monkeypatch):
        # commands and --config files in turn: no call's flags or config keys
        # reach a later call through the parser main keeps
        costs = tmp_path / "cost.json"
        costs.write_text(json.dumps({"m": [1, 64], "L": 2, "t_s": 0.5}))
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"alpha": 0.5, "grid_points": 2000, "threads": 2}))
        commands = [
            ["cost", "--config", costs, "--N", "8", "--out", "{dir}/cost-config.csv"],
            ["cost", "--N", "8", "--out", "{dir}/cost-defaults.csv"],
            ["sweep", "--config", sweep, "--N", "2", "3", "4", "--out", "{dir}/s.csv",
             "--summary", "{dir}/s.json"],
            ["construct", "--config", costs, "--N", "2", "--out", "{dir}/bad-key.json"],
            ["construct", "--N", "2", "--grid-points", "1000", "--out", "{dir}/net.json"],
            ["sweep", "--config", sweep, "--N", "2", "4", "--out", "{dir}/too-few.csv"],
            ["check", "--suite", "delta"],
            ["sweep", "--N", "2", "3", "4", "--grid-points", "1000", "--threads", "0",
             "--out", "{dir}/no-threads.csv"],
            ["sweep", "--target", "zero", "--alpha", "1", "--N", "2", "3", "4",
             "--grid-points", "500", "--out", "{dir}/zero.csv"],
        ]

        def outputs(name):
            folder = tmp_path / name
            folder.mkdir()
            got = []
            for argv in commands:
                code = exit_code([str(a).format(dir=folder) for a in argv])
                out, err = capsys.readouterr()
                got.append((code, out.replace(str(folder), "DIR"), err.replace(str(folder), "DIR")))
            return got, {p.name: p.read_bytes() for p in sorted(folder.iterdir())}

        reused = outputs("reused")
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = outputs("fresh")
        assert reused == fresh
        assert [code for code, _, _ in reused[0]] == [0, 0, 0, 2, 0, 2, 0, 2, 0]
        assert sorted(reused[1]) == ["cost-config.csv", "cost-defaults.csv", "net.json",
                                     "net.json.meta.json", "s.csv", "s.json", "zero.csv"]

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()
        assert cli._parser() is cli._parser()
