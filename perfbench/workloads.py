"""Workload inputs, operations and output checks for the logitweibull benchmark.

Nothing here imports logitweibull.  An operation is a list of argument
vectors for ``logitweibull.cli.main``, which the caller passes in; every check
compares the files the CLI wrote with references computed here from exact
closed forms (the Weibull Fisher information, the Gamma-function derivative
moments, and the printed potential and constraint written out again), never
with values from the code under test.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

# Theta box of every workload's timed ops; both coordinates are drawn
# log-uniform.  It is the part of the ROADMAP box on which no op fails, with a
# margin, so a run's failure count does not depend on how many ops fit in its
# time.  Outside it the package fails deterministically: quadrature raises
# QuadratureError at most points with b < 0.25 and in pockets up to b = 0.65,
# and the logit Hessian turns singular once b * log(a) exceeds about 6.5
# (flows abort) or 7.2 (audit raises).  With b >= 1 the Weibull density is
# bounded at 0, and b * log(a) <= 4 * log(3) = 4.4 here.  Those failures are
# measured on the fixed ROADMAP-box grid below, not in the timed ops.
A_BOX = (0.2, 3.0)
B_BOX = (1.0, 4.0)
# Inputs come in Latin-hypercube blocks of this size, so each block covers the
# box evenly in both coordinates and the cost mix of a run barely depends on
# the seed.  Marginally every draw is still log-uniform on its interval.
BLOCK = 32

# The ROADMAP box, a in [0.2, 5] and b in [0.2, 8].  The traced run performs
# the workload's op once at each point of a fixed log-spaced grid over it
# (SCAN_SIDE points per axis, corners included) and reports the share that
# succeeds, so the failing corners stay measured.
ROADMAP_A_BOX = (0.2, 5.0)
ROADMAP_B_BOX = (0.2, 8.0)
SCAN_SIDE = 8

EULER_GAMMA = 0.57721566490153286061
ZETA2 = math.pi**2 / 6.0

# Record names of one audited grid point, in report order (the published list).
AUDIT_RECORDS = (
    "g11",
    "g12",
    "g22",
    "E[x^b]",
    "E[log x]",
    "E[x^b log x]",
    "E[x^b log^2 x]",
    "G_times_printed_inverse_minus_identity",
    "integrability_residual",
    "Phi_closed_vs_integral",
    "I_times_inverse_minus_identity",
    "legendre_residual",
    "logit_score_component_gap",
)

# Quadrature oracles must match the exact references to this relative error.
# A miss is the program's numerical failure, like a QuadratureError: its
# problem carries the INACCURATE prefix, the op fails, and the output does
# not count as wrong (``correct`` stays true).  Every other problem is a
# wrong output.
ORACLE_RTOL = 1e-7
INACCURATE = "inaccurate: "
# A closed form the CLI prints must match its reference up to rounding.
EXACT_RTOL = 1e-12
# The fixed-x potential is a closed form on both sides: only rounding differs.
PHI_FIXED_RTOL = 1e-10
# Root-mode potential: the CLI solves the constraint to |R| <= 1e-12, this
# module to machine precision, so the two roots differ by about 1e-12 / R_x.
PHI_ROOT_RTOL = 1e-7


@dataclass(frozen=True)
class Workload:
    name: str
    x_policy: str | None  # None: audit op; "1.0" or "root": flow op
    t_end: float | None = None  # None: the CLI default


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("audit", None),
        Workload("flow_fixed", "1.0"),
        Workload("flow_root", "root", t_end=0.01),
    )
}

# The CLI's default flow t_end (500 steps of 1e-3); the check needs it when an
# op leaves t_end to the CLI.
DEFAULT_T_END = 0.5


def _log_uniform(box: tuple[float, float], q: np.ndarray) -> np.ndarray:
    lo, hi = math.log(box[0]), math.log(box[1])
    return np.exp(lo + q * (hi - lo))


def thetas(seed: int):
    """Endless stream of (a, b) points, Latin-hypercube blocks drawn from the seed."""
    block = 0
    while True:
        rng = np.random.default_rng([seed, block])
        qa = (rng.permutation(BLOCK) + rng.random(BLOCK)) / BLOCK
        qb = (rng.permutation(BLOCK) + rng.random(BLOCK)) / BLOCK
        for a, b in zip(_log_uniform(A_BOX, qa), _log_uniform(B_BOX, qb)):
            yield float(a), float(b)
        block += 1


def roadmap_grid(side: int = SCAN_SIDE) -> list[tuple[float, float]]:
    """The fixed side x side log-spaced grid over the ROADMAP box."""
    a_axis = np.geomspace(*ROADMAP_A_BOX, side)
    b_axis = np.geomspace(*ROADMAP_B_BOX, side)
    return [(float(a), float(b)) for a in a_axis for b in b_axis]


@dataclass
class Op:
    """One operation: the CLI calls to make and the files they leave behind."""

    workload: Workload
    theta: tuple[float, float]
    argvs: list[list[str]]
    outputs: dict[str, str]  # role -> path
    stderr: str = ""
    aborted: bool = False


def prepare(workload: Workload, theta: tuple[float, float], workdir: str) -> Op:
    """Write the op's input files and build its argument vectors (untimed)."""
    a, b = theta
    spec = f"{a!r},{b!r}"
    if workload.x_policy is None:
        config = os.path.join(workdir, "grid.json")
        with open(config, "w") as fh:
            json.dump({"theta_grid": [[a, b]]}, fh)
        outputs = {
            "verify": os.path.join(workdir, "verify.json"),
            "metric": os.path.join(workdir, "metric.json"),
        }
        argvs = [
            ["--config", config, "verify", "--out", outputs["verify"]],
            ["metric", "--theta", spec, "--out", outputs["metric"]],
        ]
    else:
        outputs = {"csv": os.path.join(workdir, "flow.csv")}
        argv = ["flow", "--theta", spec, "--x", workload.x_policy, "--sign", "descent", "--lyapunov"]
        if workload.t_end is not None:
            argv += ["--t-end", repr(workload.t_end)]
        argvs = [argv + ["--out", outputs["csv"]]]
    for path in outputs.values():
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    return Op(workload, theta, argvs, outputs)


class OpFailed(RuntimeError):
    """The CLI returned a nonzero exit code."""


def perform(op: Op, main) -> None:
    """Run the op's CLI calls in-process; this is the timed part of an op."""
    buf = io.StringIO()
    with contextlib.redirect_stderr(buf):
        for argv in op.argvs:
            code = main(argv)
            if code != 0:
                raise OpFailed(f"exit code {code}")
    op.stderr = buf.getvalue()


def check(op: Op) -> list[str]:
    """Problems found in the op's outputs; empty when every check passes.

    Sets ``op.aborted`` when a trajectory ends in the CLI's abort trailer; that
    is a failed op but not a wrong output.
    """
    try:
        if op.workload.x_policy is None:
            return check_audit(op.theta, _read(op.outputs["verify"]), _read(op.outputs["metric"]))
        csv_text = _read(op.outputs["csv"])
        op.aborted = any(line.startswith("# aborted") for line in csv_text.splitlines())
        if op.aborted:
            return []
        t_end = op.workload.t_end if op.workload.t_end is not None else DEFAULT_T_END
        return check_flow(op.theta, csv_text, op.stderr, op.workload.x_policy, t_end)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


# ----------------------------------------------------------------- references


def fisher_exact(a: float, b: float) -> dict[str, float]:
    """Fisher information of Weibull(a, b) in (scale, shape) coordinates."""
    return {
        "g11": b * b / (a * a),
        "g12": -(1.0 - EULER_GAMMA) / a,
        "g22": ((1.0 - EULER_GAMMA) ** 2 + ZETA2) / (b * b),
    }


def moments_exact(a: float, b: float) -> dict[str, tuple[float, float]]:
    """Exact audited expectations as (value, scale).

    With x = a u^(1/b), u ~ Exp(1), each is a combination of Gamma-function
    derivatives: E[u] = 1, E[log u] = -gamma, E[u log u] = 1 - gamma,
    E[u log^2 u] = (1 - gamma)^2 + pi^2/6 - 1.  The scale is the sum of the
    absolute values of the terms, so a value near zero by cancellation is
    still checked to a meaningful relative accuracy.
    """
    la = math.log(a)
    ab = a**b
    k1 = 1.0 - EULER_GAMMA
    k2 = k1**2 + ZETA2 - 1.0
    return {
        "E[x^b]": (ab, ab),
        "E[log x]": (la - EULER_GAMMA / b, abs(la) + EULER_GAMMA / b),
        "E[x^b log x]": (ab * (la + k1 / b), ab * (abs(la) + k1 / b)),
        "E[x^b log^2 x]": (
            ab * (la * la + 2.0 * k1 * la / b + k2 / (b * b)),
            ab * (la * la + 2.0 * k1 * abs(la) / b + k2 / (b * b)),
        ),
    }


def potential(a: float, b: float, x: float) -> tuple[float, float]:
    """The printed closed-form potential at (a, b, x), with its rounding scale."""
    u = (x / a) ** b
    c = b * b / (12.0 * a * a * x)
    return c * ((u - 1.0) ** 4 + 4.0 * u - 1.0), c * ((u - 1.0) ** 4 + 4.0 * u + 1.0)


def constraint(a: float, b: float, x):
    """The printed constraint residual R(x); accepts a float or an array."""
    lx = np.log(x)
    la = math.log(a)
    u = np.exp(b * (lx - la))
    return 2 * b * u - 2 * b - 2 * u * a * la + 2 * u * a * lx - 2 * a * lx + 2 * a * la - a


def constraint_roots(a: float, b: float, lo: float = 1e-3, hi: float = 1e3, n: int = 16385) -> list[float]:
    """Every root of R on [lo, hi] that a sign change on a fine log grid
    brackets, each refined by bisection to floating-point resolution."""
    grid = np.geomspace(lo, hi, n)
    vals = constraint(a, b, grid)
    roots = []
    for i in np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) <= 0.0):
        x0, x1, f0 = float(grid[i]), float(grid[i + 1]), float(vals[i])
        if f0 == 0.0:
            roots.append(x0)
            continue
        while True:
            mid = 0.5 * (x0 + x1)
            if not x0 < mid < x1:
                break
            fm = float(constraint(a, b, mid))
            if fm == 0.0:
                x0 = x1 = mid
                break
            if (fm < 0.0) == (f0 < 0.0):
                x0, f0 = mid, fm
            else:
                x1 = mid
        roots.append(0.5 * (x0 + x1))
    return roots


# --------------------------------------------------------------------- checks


def _close(value, ref: float, scale: float, rtol: float) -> bool:
    return isinstance(value, (int, float)) and abs(value - ref) <= rtol * abs(scale)


def check_audit(theta: tuple[float, float], verify_text: str, metric_text: str) -> list[str]:
    """Check a one-point verify report and a metric report against exact values."""
    a, b = theta
    problems = []
    fisher = fisher_exact(a, b)
    moments = moments_exact(a, b)

    records = json.loads(verify_text)["records"]
    names = tuple(r["name"] for r in records)
    if names != AUDIT_RECORDS:
        problems.append(f"verify: record names {names} != {AUDIT_RECORDS}")
    for rec in records:
        name = rec["name"]
        if rec["theta"] != [a, b]:
            problems.append(f"verify: {name} at theta {rec['theta']} != {[a, b]}")
        if name in fisher and not _close(rec["oracle_value"], fisher[name], fisher[name], ORACLE_RTOL):
            problems.append(f"{INACCURATE}verify: {name} oracle {rec['oracle_value']!r} != exact {fisher[name]!r}")
        if name in moments:
            ref, scale = moments[name]
            if not _close(rec["oracle_value"], ref, scale, ORACLE_RTOL):
                problems.append(f"{INACCURATE}verify: {name} oracle {rec['oracle_value']!r} != exact {ref!r}")

    (metric,) = json.loads(metric_text)["records"]
    if metric["theta"] != [a, b]:
        problems.append(f"metric: theta {metric['theta']} != {[a, b]}")
    routes = [
        ("numeric_hessian", fisher, ORACLE_RTOL, INACCURATE),
        ("numeric_outer", fisher, ORACLE_RTOL, INACCURATE),
        ("paper", {"g11": fisher["g11"]}, EXACT_RTOL, ""),
    ]
    for route, refs, rtol, kind in routes:
        for key, ref in refs.items():
            value = metric[route][key]
            if not _close(value, ref, ref, rtol):
                problems.append(f"{kind}metric: {route}.{key} {value!r} != exact {ref!r}")
    return problems


def parse_trajectory(csv_text: str) -> np.ndarray:
    """Rows of (t, a, b, phi) from the CLI's flow CSV; trailer lines skipped."""
    lines = [ln for ln in csv_text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != "t,a,b,phi":
        raise ValueError(f"bad CSV header {lines[:1]!r}")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    if not rows or any(len(r) != 4 for r in rows):
        raise ValueError("CSV rows must hold four numbers")
    return np.array(rows)


def check_flow(theta: tuple[float, float], csv_text: str, lyapunov_text: str, x_policy: str, t_end: float) -> list[str]:
    """Check a flow CSV and its --lyapunov JSON against the printed potential."""
    problems = []
    rows = parse_trajectory(csv_text)
    t, a, b, phi = rows.T
    if not np.all(np.isfinite(rows)):
        problems.append("trajectory holds non-finite values")
    if t[0] != 0.0 or (a[0], b[0]) != tuple(theta):
        problems.append(f"trajectory starts at t={t[0]!r}, theta=({a[0]!r}, {b[0]!r}), not at 0, {theta}")
    if not np.all(np.diff(t) > 0.0):
        problems.append("t does not increase strictly")
    if not (np.all(a > 0.0) and np.all(b > 0.0)):
        problems.append("trajectory leaves the positive quadrant")
    if not t[-1] >= t_end * (1.0 - 1e-12):
        problems.append(f"trajectory ends at t={t[-1]!r} before t_end={t_end!r}")
    n_states = json.loads(lyapunov_text.strip().splitlines()[-1])["n_states"]
    if n_states != len(rows):
        problems.append(f"lyapunov n_states {n_states} != {len(rows)} rows")
    for ti, ai, bi, pi in rows:
        if x_policy == "root":
            candidates = [potential(ai, bi, x) for x in constraint_roots(ai, bi)]
            rtol = PHI_ROOT_RTOL
        else:
            candidates = [potential(ai, bi, float(x_policy))]
            rtol = PHI_FIXED_RTOL
        if not any(_close(pi, ref, scale, rtol) for ref, scale in candidates):
            refs = [ref for ref, _ in candidates]
            problems.append(f"phi {pi!r} at t={ti!r} matches none of {refs}")
            break
    return problems
