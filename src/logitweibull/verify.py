"""The audit table: every audited formula, declared once.

Each AUDIT entry is (name, printed, oracle, note): the printed and oracle
values are functions of one grid point, and the table order is the report
order.  Deviations are findings, not failures; so is an oracle that cannot be
computed (no constraint root, a singular information matrix), whose record
carries a NaN oracle value and the reason in its note.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .family import as_theta, moment_log_paper, moment_xb, moment_xb_log2_paper, moment_xb_log_paper, score
from .fisher import integrability_residual, metric_numeric_hessian, metric_paper, metric_paper_inverse
from .logit import (
    SingularInformationError,
    dual_potential,
    logit_information,
    potential_closed,
    potential_integral,
    solve_constraint,
)
from .oracles import BracketError, QuadratureConfig, expectation_quadrature


@dataclass(frozen=True)
class VerificationRecord:
    """One named quantity, its published value, and the oracle's."""

    name: str
    paper_value: float
    oracle_value: float
    abs_diff: float
    rel_diff: float
    note: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def make_record(name: str, paper_value: float, oracle_value: float, note: str = "") -> VerificationRecord:
    abs_diff = abs(paper_value - oracle_value)
    rel_diff = abs_diff / max(1.0, abs(oracle_value))
    return VerificationRecord(name, paper_value, oracle_value, abs_diff, rel_diff, note)


class _Point(dict):
    """A grid point's 'theta', 'cfg' and 'x', plus each _SHARED value, computed once on first use."""

    def __missing__(self, key):
        self[key] = value = _SHARED[key](self)
        return value


# Table fields call package functions by their module-global names, so that
# a wrapper swapped into this module's globals is the one that runs.
_SHARED = {
    "paper": lambda p: metric_paper(p["theta"]),
    "hess": lambda p: metric_numeric_hessian(p["theta"], p["cfg"]),  # three quadratures
    "info": lambda p: logit_information(p["theta"], p["x"], "fixed_x"),
    "score": lambda p: score(p["theta"], p["root"].x),
    "root": lambda p: solve_constraint(p["theta"]),
}


def _quad(p: _Point, g) -> float:
    """E[g(x, b)] by quadrature."""
    return expectation_quadrature(p["theta"], lambda x: g(x, p["theta"].b), p["cfg"]).value


def _identity_gap(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - np.eye(2))))


RHO2_TYPO_NOTE = "printed '(1++2a+b)' read as (1+2a+b)"

# (name, printed, oracle[, note]): printed is a function of the point, or the 0.0 that
# an identity or a residual claims; a note is a str.format template over the point's keys.
AUDIT = (
    ("g11", lambda p: p["paper"].g11, lambda p: p["hess"].g11),
    ("g12", lambda p: p["paper"].g12, lambda p: p["hess"].g12),
    ("g22", lambda p: p["paper"].g22, lambda p: p["hess"].g22, RHO2_TYPO_NOTE),
    ("E[x^b]", lambda p: moment_xb(p["theta"]), lambda p: _quad(p, lambda x, b: x**b)),
    ("E[log x]", lambda p: moment_log_paper(p["theta"]), lambda p: _quad(p, lambda x, b: np.log(x))),
    ("E[x^b log x]", lambda p: moment_xb_log_paper(p["theta"]), lambda p: _quad(p, lambda x, b: x**b * np.log(x))),
    ("E[x^b log^2 x]", lambda p: moment_xb_log2_paper(p["theta"]), lambda p: _quad(p, lambda x, b: x**b * np.log(x) ** 2)),
    (
        "G_times_printed_inverse_minus_identity",
        0.0,
        lambda p: _identity_gap(p["paper"].as_matrix() @ metric_paper_inverse(p["theta"]).as_matrix()),
        RHO2_TYPO_NOTE,
    ),
    (
        "integrability_residual",
        0.0,
        lambda p: integrability_residual(p["theta"]),
        "a vanishing value would be necessary for the metric to admit a potential",
    ),
    (
        "Phi_closed_vs_integral",
        lambda p: potential_closed(p["theta"], p["x"]),
        lambda p: potential_integral(p["theta"], p["x"]),
        "closed form vs exact double integral of the link at x={x:g}",
    ),
    ("I_times_inverse_minus_identity", 0.0, lambda p: _identity_gap(p["info"].matrix @ p["info"].inverse)),
    ("legendre_residual", 0.0, lambda p: dual_potential(p["theta"], p["x"], "fixed_x").legendre_residual),
    (
        "logit_score_component_gap",
        0.0,
        lambda p: p["score"].d_a - p["score"].d_b,
        "score components at the constraint root x*={root.x:.12g}",
    ),
)
AUDITED_FORMULAS = tuple(entry[0] for entry in AUDIT)
METRIC_ENTRIES, INVERSE_ENTRIES = AUDIT[:7], AUDIT[7:8]  # fisher.compare_metrics, fisher.verify_inverse


def _record(p: _Point, name: str, printed, oracle, note: str = "") -> VerificationRecord:
    """One record; an oracle that finds no root or a singular matrix gives NaN and says why."""
    paper_value = printed(p) if callable(printed) else printed
    try:
        return make_record(name, paper_value, oracle(p), note.format_map(p))
    except BracketError as exc:
        return make_record(name, paper_value, math.nan, f"no root: {exc}")
    except SingularInformationError as exc:
        return make_record(name, paper_value, math.nan, f"singular: {exc}")


def audit(entries, theta, cfg: QuadratureConfig | None = None, potential_x: float = 1.0) -> list[VerificationRecord]:
    """The records of the given table entries at one grid point, in entry order."""
    p = _Point(theta=as_theta(theta), cfg=cfg, x=potential_x)
    return [_record(p, *entry) for entry in entries]


def verification_records(theta, cfg: QuadratureConfig | None = None, potential_x: float = 1.0) -> list:
    """All audit records at one grid point, in AUDITED_FORMULAS order."""
    return audit(AUDIT, theta, cfg, potential_x)
