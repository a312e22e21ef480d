import json

import pytest

from logitweibull.cli import main
from logitweibull.verify import AUDITED_FORMULAS


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestVerify:
    def test_single_point_report(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta_grid": [[1, 1]]}))
        code, out = run_cli(["--config", str(cfg), "verify"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert set(doc["meta"]) == {"version", "config_hash"}
        names = [r["name"] for r in doc["records"]]
        assert names == list(AUDITED_FORMULAS)
        recs = {r["name"]: r for r in doc["records"]}
        assert recs["E[x^b]"]["abs_diff"] <= 1e-8
        assert recs["Phi_closed_vs_integral"]["abs_diff"] == pytest.approx(0.25 + 1 / 6, abs=1e-10)

    def test_deviation_reported_off_unit(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta_grid": [[1, 2]]}))
        _, out = run_cli(["--config", str(cfg), "verify"], capsys)
        recs = {r["name"]: r for r in json.loads(out)["records"]}
        assert recs["E[log x]"]["abs_diff"] > 0.1

    def test_one_record_per_point_and_formula(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta_grid": [[1, 1], [2, 1]]}))
        _, out = run_cli(["--config", str(cfg), "verify"], capsys)
        doc = json.loads(out)
        keys = [(tuple(r["theta"]), r["name"]) for r in doc["records"]]
        assert len(keys) == len(set(keys)) == 2 * len(AUDITED_FORMULAS)

    def test_byte_reproducible(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta_grid": [[1, 1]]}))
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["--config", str(cfg), "verify", "--out", str(out1)]) == 0
        assert main(["--config", str(cfg), "verify", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestMetric:
    def test_round_trip(self, capsys):
        code, out = run_cli(["metric", "--theta", "1,1"], capsys)
        assert code == 0
        doc = json.loads(out)
        rec = doc["records"][0]
        assert rec["paper"]["g11"] == pytest.approx(1.0)
        assert rec["numeric_hessian"]["g11"] == pytest.approx(1.0, abs=1e-8)

    def test_paper_g11(self, capsys):
        _, out = run_cli(["metric", "--theta", "2,4"], capsys)
        assert json.loads(out)["records"][0]["paper"]["g11"] == pytest.approx(4.0)


class TestFlow:
    def test_csv_shape_and_monotone_phi(self, capsys):
        code, out = run_cli(
            ["flow", "--theta", "1,1", "--x", "1.0", "--sign", "descent", "--t-end", "0.05", "--step", "1e-3"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,a,b,phi"
        phis = [float(l.split(",")[3]) for l in lines[1:]]
        assert all(p2 <= p1 + 1e-8 for p1, p2 in zip(phis, phis[1:]))

    def test_byte_identical_runs(self, tmp_path):
        args = ["flow", "--theta", "1,1", "--x", "1.0", "--t-end", "0.02", "--step", "1e-3"]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_floats_round_trip(self, capsys):
        _, out = run_cli(["flow", "--theta", "1,1", "--x", "1.0", "--t-end", "0.01", "--step", "1e-3"], capsys)
        row = out.strip().splitlines()[-1].split(",")
        assert float(row[1]) == float(format(float(row[1]), ".17g"))


class TestConstraint:
    def test_root_record(self, capsys):
        code, out = run_cli(["constraint", "--theta", "1,1"], capsys)
        assert code == 0
        rec = json.loads(out)["records"][0]
        assert 1.37 < rec["x"] < 1.38
        assert abs(rec["residual"]) <= 1e-12

    def test_no_bracket_structured_error(self, capsys):
        code, out = run_cli(
            ["constraint", "--theta", "1,1", "--window-lo", "5", "--window-hi", "10"], capsys
        )
        assert code == 0  # findings are data, not failures
        rec = json.loads(out)["records"][0]
        assert rec["error"] == "no_bracket"


class TestPotential:
    def test_fixed_mode(self, capsys):
        code, out = run_cli(["potential", "--theta", "1,1", "--x", "1.0"], capsys)
        assert code == 0
        rec = json.loads(out)["records"][0]
        assert rec["phi_closed"] == pytest.approx(0.25)
        assert rec["phi_integral"] == pytest.approx(-1 / 6)
        assert rec["eta"] == pytest.approx([-5 / 6, 0.5])
        assert rec["legendre_residual"] == 0.0

    def test_total_mode(self, capsys):
        _, out = run_cli(["potential", "--theta", "1,1", "--x", "1.378501900488447", "--mode", "total"], capsys)
        rec = json.loads(out)["records"][0]
        assert rec["mode"] == "total_derivative"
        assert abs(rec["legendre_residual"]) <= 1e-12


class TestErrors:
    def test_unwritable_output_is_operational_error(self, capsys):
        code = main(["constraint", "--theta", "1,1", "--out", "/nonexistent-dir/x.json"])
        assert code == 1


class TestFlowArguments:
    @pytest.mark.parametrize(
        "extra, flag",
        [
            (["--step", "0"], "--step"),
            (["--step", "nan"], "--step"),
            (["--step", "-1", "--t-end", "3"], "--step"),
            (["--step", "abc"], "--step"),
            (["--t-end", "0"], "--t-end"),
            (["--t-end", "inf"], "--t-end"),
            (["--t-end", "-0.5"], "--t-end"),
        ],
    )
    def test_invalid_step_or_t_end_exits_2(self, capsys, extra, flag):
        with pytest.raises(SystemExit) as exc:
            main(["flow", "--theta", "1,1", "--x", "1.0"] + extra)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: must be a finite positive number" in captured.err
        assert "Traceback" not in captured.err


class TestInvalidInput:
    """Each invalid input gives one error line and exit code 2, never a traceback or exit 0."""

    @staticmethod
    def exit_code(argv):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse rejects the argument
            return exc.code

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["metric", "--theta", "1,2,3"], "argument --theta: must be a,b"),
            (["metric", "--theta", "nan,1"], "argument --theta: must be a,b"),
            (["flow", "--theta", "1,1", "--x", "0"], "argument --x: must be a finite positive number"),
            (["flow", "--theta", "1,1", "--x", "abc"], "argument --x: must be a finite positive number"),
            (["potential", "--theta", "1,1", "--x", "0"], "argument --x: must be a finite positive number"),
            (["constraint", "--theta", "1,1", "--window-lo", "10", "--window-hi", "1"], "error: invalid search window"),
            (["constraint", "--theta", "1,1", "--tol", "nan"], "argument --tol: must be a finite positive number"),
        ],
    )
    def test_invalid_argument(self, capsys, argv, message):
        assert self.exit_code(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"flow": {"step": 0}}, "error: flow.step must be a finite positive number, got 0"),
            ({"flow": {"step": True, "t_end": True}}, "error: flow.t_end must be a finite positive number, got True"),
            ({"flow": {"x_policy": 0}}, "error: flow.x_policy must be a finite positive number"),
            ({"flow": {"step": 1e-13}}, "error: t_end/step = 5e+12 exceeds MAX_STEPS"),
        ],
    )
    def test_invalid_flow_config(self, capsys, tmp_path, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert self.exit_code(["--config", str(cfg), "flow", "--theta", "1,1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"quadratur": {}}, "error: unknown config key 'quadratur'"),
            ({"quadrature": {"rel_tl": 1e-10}}, "error: unknown config key 'quadrature.rel_tl'"),
            ({"flow": {"stp": 1e-3}}, "error: unknown config key 'flow.stp'"),
            ({"quadrature": 1}, "error: quadrature must be a JSON object, got 1"),
            ([1, 2], "error: config must be a JSON object, got [1, 2]"),
            ({"theta_grid": [[True, 2]]}, "error: theta_grid entries must be a finite positive number, got True"),
            ({"theta_grid": [["1", 2]]}, "error: theta_grid entries must be a finite positive number, got '1'"),
            ({"theta_grid": [[1, 2, 3]]}, "error: theta_grid must be a list of [a, b] pairs"),
            ({"quadrature": {"rel_tol": True}}, "error: quadrature.rel_tol must be a finite positive number, got True"),
            ({"quadrature": {"max_subdivisions": 2.5}}, "error: quadrature.max_subdivisions must be a finite positive integer, got 2.5"),
            ({"output_path": 1}, "error: output_path must be a string or null, got 1"),
        ],
    )
    def test_invalid_config(self, capsys, tmp_path, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert self.exit_code(["--config", str(cfg), "constraint", "--theta", "1,1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)
        assert captured.err.count("\n") == 1

    def test_flags_override_invalid_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"flow": {"step": 0, "t_end": True, "x_policy": "abc"}}))
        argv = ["--config", str(cfg), "flow", "--theta", "1,1", "--x", "root", "--t-end", "0.002", "--step", "1e-3"]
        assert main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4

    def test_invalid_potential_x_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"potential_x": 0}))
        assert self.exit_code(["--config", str(cfg), "potential", "--theta", "1,1"]) == 2
        assert capsys.readouterr().err == "error: potential_x must be a finite positive number, got 0\n"
