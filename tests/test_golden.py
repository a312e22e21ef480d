"""Golden CLI outputs as a regression oracle.

Each case runs one ``logitweibull`` subcommand in-process and compares its
output with the files in ``tests/golden/``:

- flow cases (``flow ... --lyapunov``): the trajectory CSV and the Lyapunov
  report, floats within RTOL relative;
- report cases (``verify``, ``constraint``, ``potential``): the JSON report,
  floats within RTOL·max(1, |ref|).

Integers, strings, keys, list lengths, the CSV header and any abort line must
match exactly.  After a change that is meant to move these numbers, regenerate
the files with ``python tests/test_golden.py`` and state in CHANGES.md what
moved.
"""

import contextlib
import io
import json
import math
import pathlib
import sys

import pytest

GOLDEN = pathlib.Path(__file__).parent / "golden"
RTOL = 1e-12
ROOT_1_1 = "1.378501900488447"  # the constraint root at theta = (1, 1)

FLOWS = {
    "theta_1_1_x1_descent": ["--theta", "1,1", "--x", "1.0", "--sign", "descent"],
    "theta_3_2_x1_descent": ["--theta", "3,2", "--x", "1.0", "--sign", "descent"],
    "theta_1.3_2.1_root_descent": ["--theta", "1.3,2.1", "--x", "root", "--sign", "descent", "--t-end", "0.05"],
}

REPORTS = {
    "verify_default": ["verify"],
    "constraint_theta_1_1": ["constraint", "--theta", "1,1"],
    "potential_theta_1_1_root_fixed": ["potential", "--theta", "1,1", "--x", ROOT_1_1, "--mode", "fixed"],
    "potential_theta_1_1_root_total": ["potential", "--theta", "1,1", "--x", ROOT_1_1, "--mode", "total"],
}


def run(argv: list[str]) -> tuple[str, str]:
    """(stdout, stderr) of one CLI call, which must succeed."""
    from logitweibull.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0, err.getvalue()
    return out.getvalue(), err.getvalue()


def run_flow(name: str) -> tuple[str, str]:
    """(CSV text, Lyapunov JSON line) of one flow case."""
    return run(["flow", *FLOWS[name], "--lyapunov"])


def assert_close(new, old, where: str, floor: float = 0.0) -> None:
    """Floats within RTOL·max(floor, |old|); anything else exactly equal."""
    if isinstance(old, float):
        assert isinstance(new, float) and abs(new - old) <= RTOL * max(floor, abs(old)), (where, new, old)
    else:
        assert type(new) is type(old) and new == old, (where, new, old)


def assert_same_json(new, old, where: str = "") -> None:
    if isinstance(old, dict):
        assert isinstance(new, dict) and sorted(new) == sorted(old), where
        for key in old:
            assert_same_json(new[key], old[key], f"{where}.{key}")
    elif isinstance(old, list):
        assert isinstance(new, list) and len(new) == len(old), where
        for i, (n, o) in enumerate(zip(new, old)):
            assert_same_json(n, o, f"{where}[{i}]")
    else:
        assert_close(new, old, where, floor=1.0)


@pytest.mark.parametrize("name", sorted(FLOWS))
def test_trajectory_csv(name):
    new = run_flow(name)[0].splitlines()
    old = (GOLDEN / f"{name}.csv").read_text().splitlines()
    assert len(new) == len(old)
    for row, (n, o) in enumerate(zip(new, old)):
        if row == 0 or o.startswith("#"):
            assert n == o
            continue
        fields = list(zip(n.split(","), o.split(",")))
        assert len(fields) == len(o.split(","))
        for col, (nv, ov) in enumerate(fields):
            assert_close(float(nv), float(ov), f"row {row} col {col}")


@pytest.mark.parametrize("name", sorted(FLOWS))
def test_lyapunov_report(name):
    new = json.loads(run_flow(name)[1])
    old = json.loads((GOLDEN / f"{name}.lyapunov.json").read_text())
    assert sorted(new) == sorted(old)
    for key in old:
        assert_close(new[key], old[key], key)


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report(name):
    new = json.loads(run(REPORTS[name])[0])
    old = json.loads((GOLDEN / f"{name}.json").read_text())
    assert_same_json(new, old)


def test_tolerance_can_fail():
    with pytest.raises(AssertionError):
        assert_same_json({"v": [2.0]}, {"v": [2.0 + 1e-11]})
    with pytest.raises(AssertionError):
        assert_same_json({"v": 1}, {"v": 1.0})
    with pytest.raises(AssertionError):
        assert_same_json({"v": 1.0, "w": 0}, {"v": 1.0})
    assert_same_json({"v": [0.5 + 5e-13, "s"]}, {"v": [0.5, "s"]})


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(FLOWS):
        csv_text, lyapunov_text = run_flow(name)
        (GOLDEN / f"{name}.csv").write_text(csv_text)
        (GOLDEN / f"{name}.lyapunov.json").write_text(lyapunov_text)
        print(f"wrote {name}", file=sys.stderr)
    for name in sorted(REPORTS):
        (GOLDEN / f"{name}.json").write_text(run(REPORTS[name])[0])
        print(f"wrote {name}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
