"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/selftest.py

Smoke runs of each workload at tiny size, the result protocol of run.py, its
refusal to run without the package source, and negative tests showing that
every output check rejects a corrupted output and counts the op as failed.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

CLI_MAIN = worker._import_package()

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def _performed(name: str, theta, workdir) -> workloads.Op:
    op = workloads.prepare(workloads.WORKLOADS[name], theta, str(workdir))
    workloads.perform(op, CLI_MAIN)
    return op


def _edit_json(path: str, edit) -> None:
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _edit_csv_row(path: str, row: int, column: int, value: float) -> None:
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[row].split(",")
    cells[column] = repr(value)
    lines[row] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


def test_inputs_are_seeded_and_the_scan_keeps_the_failing_corners():
    first = list(itertools.islice(workloads.thetas(7), 64))
    assert first == list(itertools.islice(workloads.thetas(7), 64))
    assert first != list(itertools.islice(workloads.thetas(8), 64))
    assert all(0.2 <= a <= 3.0 and 1.0 <= b <= 4.0 for a, b in first)
    grid = workloads.roadmap_grid()
    assert len(grid) == workloads.SCAN_SIDE**2 and grid == workloads.roadmap_grid()
    # the b = 0.2 row, where quadrature fails today, and the large-a, large-b
    # corner, where the logit Hessian is singular, are scanned
    assert (0.2, 0.2) in grid and (5.0, 8.0) in grid


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_untraced_and_traced(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    res = worker.run_untraced(wl, 3, 1e-3, str(tmp_path), CLI_MAIN)
    assert res["attempted"] == 1 and res["wrong_outputs"] == 0
    res = worker.run_traced(wl, 3, 1e-3, str(tmp_path), CLI_MAIN, str(tmp_path / "spans.csv"), scan_side=2)
    assert res["attempted"] == 2 and res["wrong_outputs"] == 0
    assert res["scan"]["attempted"] == 4 and res["scan"]["wrong_outputs"] == 0
    expected = {m["name"] for m in BENCH["per_layer"]} - {"import.total_s", "import.scipy_s"}
    assert set(res["layers"]) == expected
    assert res["layers"]["cli.self_ms"] > 0.0
    assert (res["layers"]["oracles.quad_calls_per_op"] > 0) == (wl.x_policy is None)
    # today the corner (5, 8) fails at x = 1 (audit, flow_fixed), and (0.2, 0.2)
    # in quadrature (audit); the root-mode flow succeeds at all four corners
    assert (res["layers"]["roadmap_box.ok_frac"] < 1.0) == (wl.x_policy != "root")
    assert (res["layers"]["oracles.quad_fail_frac"] > 0) == (wl.x_policy is None)
    with open(tmp_path / "spans.csv") as fh:
        assert fh.readline().startswith("kind,name,op,parent")


def test_wrappers_are_removed_after_a_traced_call():
    import logitweibull.fisher as fisher
    import logitweibull.oracles as oracles

    before = (fisher.expectation_quadrature, oracles.integrate_halfline)
    with spans.wrap_layers(spans.Tracer()):
        assert fisher.expectation_quadrature is not before[0]
    assert (fisher.expectation_quadrature, oracles.integrate_halfline) == before


def test_importtime_parsing():
    sample = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       200 |        300 |   scipy._lib",
            "import time:       100 |        700 | scipy",
            "import time:        50 |       1000 | logitweibull",
        ]
    )
    assert spans.parse_importtime(sample, "logitweibull") == pytest.approx((1e-3, 3e-4))


def test_audit_check_rejects_a_perturbed_g22_as_an_inaccurate_oracle(tmp_path):
    op = _performed("audit", (1.3, 0.7), tmp_path)
    assert workloads.check(op) == []
    _edit_json(op.outputs["verify"], lambda d: d["records"][2].update(oracle_value=d["records"][2]["oracle_value"] * (1 + 1e-6)))
    problems = workloads.check(op)
    assert problems and "g22" in problems[0] and problems[0].startswith(workloads.INACCURATE)
    tally = worker.Tally()
    assert not tally.record(op, None)
    assert tally.summary()["failures"] == {"oracle inaccurate": 1} and tally.summary()["wrong_outputs"] == 0


def test_audit_check_rejects_a_corrupted_metric_report(tmp_path):
    op = _performed("audit", (0.6, 3.0), tmp_path)
    _edit_json(op.outputs["metric"], lambda d: d["records"][0]["numeric_outer"].update(g12=0.0))
    assert any("numeric_outer.g12" in p for p in workloads.check(op))


@pytest.mark.parametrize(
    "role, edit",
    [
        ("verify", lambda d: d["records"].pop(5)),
        ("verify", lambda d: d["records"][0].update(theta=[1.0, 1.0])),
        ("metric", lambda d: d["records"][0]["paper"].update(g11=d["records"][0]["paper"]["g11"] * (1 + 1e-9))),
    ],
)
def test_audit_check_counts_a_wrong_report_as_a_wrong_output(role, edit, tmp_path):
    op = _performed("audit", (0.6, 3.0), tmp_path)
    _edit_json(op.outputs[role], edit)
    tally = worker.Tally()
    assert not tally.record(op, None)
    assert tally.summary()["wrong_outputs"] == 1


@pytest.mark.parametrize("name", ["flow_fixed", "flow_root"])
def test_flow_check_rejects_non_increasing_t_and_a_wrong_phi(name, tmp_path):
    op = _performed(name, (1.1, 2.3), tmp_path)
    assert workloads.check(op) == []
    with open(op.outputs["csv"]) as fh:
        good = fh.read()

    _edit_csv_row(op.outputs["csv"], 3, 0, 0.0)  # row 3 holds t = 0.002
    assert any("increase" in p for p in workloads.check(op))
    tally = worker.Tally()
    assert not tally.record(op, None)
    assert tally.summary()["wrong_outputs"] == 1

    with open(op.outputs["csv"], "w") as fh:
        fh.write(good)
    phi = float(good.splitlines()[-1].split(",")[3])
    _edit_csv_row(op.outputs["csv"], -1, 3, phi * (1 + 1e-5))
    assert any("phi" in p for p in workloads.check(op))


def test_flow_check_rejects_a_lyapunov_state_count_mismatch(tmp_path):
    op = _performed("flow_fixed", (2.0, 1.5), tmp_path)
    report = json.loads(op.stderr)
    report["n_states"] += 1
    op.stderr = json.dumps(report)
    assert any("n_states" in p for p in workloads.check(op))


def test_errors_and_aborted_trajectories_count_as_failed_not_wrong(tmp_path):
    tally = worker.Tally()
    op = workloads.prepare(workloads.WORKLOADS["audit"], (1.0, 1.0), str(tmp_path))
    assert not tally.record(op, RuntimeError("quadrature did not converge"))
    op = _performed("flow_fixed", (1.0, 1.0), tmp_path)
    with open(op.outputs["csv"], "a") as fh:
        fh.write("# aborted: singular field\n")
    assert not tally.record(op, None)
    summary = tally.summary()
    assert summary["failed"] == 2 and summary["wrong_outputs"] == 0


def test_run_prints_the_result_protocol_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flow_fixed", "--seed", "0", "--seconds", "2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 10
    assert list(result["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb", "fail_frac"):
        assert name in proc.stdout


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
