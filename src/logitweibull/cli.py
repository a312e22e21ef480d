"""Command-line front end.

Subcommands: verify (formula audit over a theta grid), metric (all metric
routes at one point), flow (trajectory CSV), constraint (root record),
potential (Legendre evaluation).  Output is JSON, except trajectories which
are CSV with 17-significant-digit decimals so floats round-trip exactly.
Verification deviations never set a nonzero exit code; only operational
errors do.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

from . import __version__
from .family import ThetaPoint, as_theta
from .fisher import metric_numeric_hessian, metric_numeric_outer, metric_paper
from .flow import integrate_flow, lyapunov_report
from .logit import dual_potential, potential_closed, potential_integral, solve_constraint
from .oracles import BracketError, QuadratureConfig
from .verify import verification_records

DEFAULT_GRID = [[a, b] for a in (0.5, 1.0, 2.0) for b in (0.5, 1.0, 2.0, 4.0)]

DEFAULT_CONFIG = {
    "theta_grid": DEFAULT_GRID,
    "quadrature": {"rel_tol": 1e-10, "abs_tol": 1e-12, "max_subdivisions": 200},
    "flow": {"t_end": 0.5, "step": 1e-3, "sign_mode": "descent", "x_policy": 1.0},
    "potential_x": 1.0,
    "output_path": None,
}


def load_config(path: str | None) -> dict:
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path:
        with open(path) as fh:
            user = json.load(fh)
        for key, val in user.items():
            if isinstance(val, dict) and isinstance(cfg.get(key), dict):
                cfg[key].update(val)
            else:
                cfg[key] = val
    return cfg


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def _quad_config(cfg: dict) -> QuadratureConfig:
    q = cfg["quadrature"]
    return QuadratureConfig(q["rel_tol"], q["abs_tol"], q["max_subdivisions"])


def _theta(text: str) -> ThetaPoint:
    """argparse type: 'a,b' with a and b finite and positive."""
    try:
        return as_theta(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a,b with a and b finite and positive, got {text!r}") from None


def _positive_finite(text, key: str = "") -> float:
    """argparse type, also applied to the config value named key: finite, positive, not a bool."""
    try:
        value = math.nan if isinstance(text, bool) else float(text)
    except (TypeError, ValueError):
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"{key}{' ' if key else ''}must be a finite positive number, got {text!r}")
    return value


def _x_policy(text, key: str = "") -> float | str:
    """argparse type, also applied to the config's x_policy: 'root' or a finite positive number."""
    return "root" if text == "root" else _positive_finite(text, key)


def _fmt(v: float) -> str:
    return format(v, ".17g")


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(cfg: dict, records: list[dict]) -> str:
    doc = {
        "meta": {"version": __version__, "config_hash": config_hash(cfg)},
        "records": records,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    quad, x = _quad_config(cfg), cfg["potential_x"]
    grid = sorted((float(a), float(b)) for a, b in cfg["theta_grid"])
    records = [{**rec.to_dict(), "theta": [a, b]} for a, b in grid for rec in verification_records((a, b), quad, x)]
    _write(_report(cfg, records), args.out or cfg["output_path"])
    return 0


def cmd_metric(args) -> int:
    cfg = load_config(args.config)
    quad = _quad_config(cfg)
    th = args.theta
    out = {"theta": [th.a, th.b]}
    for label, tensor in (
        ("paper", metric_paper(th)),
        ("numeric_hessian", metric_numeric_hessian(th, quad)),
        ("numeric_outer", metric_numeric_outer(th, quad)),
    ):
        out[label] = {
            "g11": tensor.g11,
            "g12": tensor.g12,
            "g22": tensor.g22,
            "eigenvalues": sorted(tensor.eigenvalues().tolist()),
        }
    _write(_report(cfg, [out]), args.out or cfg["output_path"])
    return 0


def cmd_flow(args) -> int:
    cfg = load_config(args.config)
    fcfg = cfg["flow"]
    traj = integrate_flow(
        args.theta,
        args.x or _x_policy(fcfg["x_policy"], "flow.x_policy"),
        args.sign or fcfg["sign_mode"],
        t_end=args.t_end or _positive_finite(fcfg["t_end"], "flow.t_end"),
        step=args.step or _positive_finite(fcfg["step"], "flow.step"),
    )
    lines = ["t,a,b,phi"]
    for s in traj.states:
        lines.append(",".join(_fmt(v) for v in (s.t, s.theta.a, s.theta.b, s.phi)))
    if traj.aborted:
        lines.append(f"# aborted: {traj.aborted}")
    _write("\n".join(lines) + "\n", args.out or cfg["output_path"])
    if args.lyapunov:
        report = lyapunov_report(traj)
        sys.stderr.write(json.dumps(report, sort_keys=True) + "\n")
    return 0


def cmd_constraint(args) -> int:
    cfg = load_config(args.config)
    th = args.theta
    window = (args.window_lo, args.window_hi)
    try:
        root = solve_constraint(th, window, args.tol)
        record = {
            "theta": [th.a, th.b],
            "x": root.x,
            "residual": root.residual,
            "bracket": list(root.bracket),
        }
    except BracketError as exc:
        record = {"theta": [th.a, th.b], "error": "no_bracket", "detail": str(exc)}
    _write(_report(cfg, [record]), args.out or cfg["output_path"])
    return 0


def cmd_potential(args) -> int:
    cfg = load_config(args.config)
    th = args.theta
    x = args.x or _positive_finite(cfg["potential_x"], "potential_x")
    mode = "total_derivative" if args.mode == "total" else "fixed_x"
    ev = dual_potential(th, x, mode)
    record = {
        "theta": [th.a, th.b],
        "x": x,
        "mode": ev.mode,
        "phi_closed": potential_closed(th, x),
        "phi_integral": potential_integral(th, x),
        "eta": [ev.eta1, ev.eta2],
        "psi": ev.psi,
        "legendre_residual": ev.legendre_residual,
    }
    _write(_report(cfg, [record]), args.out or cfg["output_path"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="logitweibull")
    parser.add_argument("--config", help="JSON config file overriding defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="audit every published formula over the grid")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("metric", help="evaluate all metric routes at one point")
    p.add_argument("--theta", type=_theta, required=True, metavar="a,b")
    p.add_argument("--out")
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("flow", help="integrate the gradient flow, emit CSV")
    p.add_argument("--theta", type=_theta, required=True, metavar="a,b")
    p.add_argument("--sign", choices=["paper", "descent"])
    p.add_argument("--x", type=_x_policy, help="fixed x value, or 'root'")
    p.add_argument("--t-end", type=_positive_finite, dest="t_end")
    p.add_argument("--step", type=_positive_finite)
    p.add_argument("--lyapunov", action="store_true", help="print the monitor to stderr")
    p.add_argument("--out")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("constraint", help="solve the root constraint at theta")
    p.add_argument("--theta", type=_theta, required=True, metavar="a,b")
    p.add_argument("--window-lo", type=float, default=1e-3)
    p.add_argument("--window-hi", type=float, default=1e3)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--out")
    p.set_defaults(func=cmd_constraint)

    p = sub.add_parser("potential", help="evaluate the potential and its Legendre dual")
    p.add_argument("--theta", type=_theta, required=True, metavar="a,b")
    p.add_argument("--x", type=_positive_finite)
    p.add_argument("--mode", choices=["fixed", "total"], default="fixed")
    p.add_argument("--out")
    p.set_defaults(func=cmd_potential)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, argparse.ArgumentTypeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1 if isinstance(exc, OSError) else 2  # 2: an invalid value in the config or input


if __name__ == "__main__":
    sys.exit(main())
