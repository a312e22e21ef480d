"""Fisher metric on the Weibull manifold.

Three routes to the same 2x2 tensor: the published closed form (with its
printed inverse, treated as a claim to verify), the negative expected
log-likelihood Hessian, and the score outer product.  Also the mixed-partials
integrability test that witnesses the non-existence of a potential function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .family import EULER_GAMMA, as_theta, log_likelihood_hessian, score
from .oracles import QuadratureConfig, expectation_quadrature


class SingularMetricError(ZeroDivisionError):
    """The printed inverse's denominator vanishes (or a Hessian determinant does)."""


@dataclass(frozen=True)
class MetricTensor2:
    """Symmetric 2x2 metric; source records which evaluation route produced it."""

    g11: float
    g12: float
    g22: float
    source: str  # paper_closed_form | numeric_hessian | numeric_outer | paper_inverse

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.g11, self.g12], [self.g12, self.g22]])

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.as_matrix())

    def is_positive_definite(self) -> bool:
        return bool(np.all(self.eigenvalues() > 0.0))


@dataclass(frozen=True)
class MetricIntermediates:
    rho1: float
    rho2: float
    vartheta: float


def intermediates(theta) -> MetricIntermediates:
    """The closed-form building blocks rho1, rho2 and vartheta."""
    th = as_theta(theta)
    a, b = th.a, th.b
    la = math.log(a)
    k = EULER_GAMMA
    vartheta = -1.0 / b + (1.0 - k) / a + la
    rho1 = a * b + b * (1.0 - a * b) * la - (1.0 - k) * b**2
    rho2 = (
        -1.0 / b**2
        - 2.0 * (1.0 / b - a + (1.0 - k) * b + 2.0 * vartheta) * la
        - (1.0 + 2.0 * a + b) * la**2
        - b * vartheta**2
    )
    return MetricIntermediates(rho1, rho2, vartheta)


def metric_paper(theta) -> MetricTensor2:
    """The published closed-form metric."""
    th = as_theta(theta)
    a, b = th.a, th.b
    im = intermediates(th)
    g11 = b**2 / a**2
    g12 = (im.rho1 - 1.0) / a
    g22 = (b * math.pi**2 - 6.0 * a**2 * im.rho2) / (6.0 * a**2)
    return MetricTensor2(g11, g12, g22, "paper_closed_form")


def metric_paper_inverse(theta) -> MetricTensor2:
    """The published closed-form inverse, entry by entry as printed.

    Raises SingularMetricError when the printed denominator vanishes.
    """
    th = as_theta(theta)
    a, b = th.a, th.b
    im = intermediates(th)
    den = (
        b**3 * math.pi**2
        - 6.0 * a**2 * b**2 * im.rho2
        - 6.0 * a**2
        + 12.0 * a**2 * im.rho1
        - 6.0 * a**2 * im.rho1**2
    )
    if abs(den) < 1e-12:
        raise SingularMetricError(f"printed inverse denominator vanishes at {th}")
    g11 = a**2 * (b * math.pi**2 - 6.0 * a**2 * im.rho2) / den
    g12 = -6.0 * a**3 * (im.rho1 - 1.0) / den
    g22 = 6.0 * a**2 * b**2 / den
    return MetricTensor2(g11, g12, g22, "paper_inverse")


def metric_numeric_hessian(theta, cfg: QuadratureConfig | None = None) -> MetricTensor2:
    """Fisher metric as -E[second partials of the log-likelihood], by quadrature."""
    th = as_theta(theta)
    g11 = -expectation_quadrature(th, lambda x: log_likelihood_hessian(th, x).h_aa, cfg).value
    g12 = -expectation_quadrature(th, lambda x: log_likelihood_hessian(th, x).h_ab, cfg).value
    g22 = -expectation_quadrature(th, lambda x: log_likelihood_hessian(th, x).h_bb, cfg).value
    return MetricTensor2(g11, g12, g22, "numeric_hessian")


def metric_numeric_outer(theta, cfg: QuadratureConfig | None = None) -> MetricTensor2:
    """Fisher metric as E[score outer product], by quadrature."""
    th = as_theta(theta)
    g11 = expectation_quadrature(th, lambda x: score(th, x).d_a ** 2, cfg).value
    g12 = expectation_quadrature(th, lambda x: score(th, x).d_a * score(th, x).d_b, cfg).value
    g22 = expectation_quadrature(th, lambda x: score(th, x).d_b ** 2, cfg).value
    return MetricTensor2(g11, g12, g22, "numeric_outer")


def integrability_residual(theta, h: float = 1e-4, metric_fn=metric_paper) -> float:
    """Mixed-partials test d(g11)/db - d(g12)/da on a metric, by central differences.

    If the metric were the Hessian of any potential in (a, b), this residual
    would vanish identically; a value bounded away from zero witnesses that no
    such potential exists.
    """
    th = as_theta(theta)
    a, b = th.a, th.b
    sa = h * max(1.0, abs(a))
    sb = h * max(1.0, abs(b))
    dg11_db = (metric_fn((a, b + sb)).g11 - metric_fn((a, b - sb)).g11) / (2.0 * sb)
    dg12_da = (metric_fn((a + sa, b)).g12 - metric_fn((a - sa, b)).g12) / (2.0 * sa)
    return dg11_db - dg12_da


def verify_inverse(theta):
    """Max-norm deviation of G_paper * G_paper_inverse from the identity: the audit table's record."""
    from .verify import INVERSE_ENTRIES, audit  # verify imports this module

    return audit(INVERSE_ENTRIES, theta)[0]


def compare_metrics(theta, cfg: QuadratureConfig | None = None) -> list:
    """The audit table's records of the published metric against the numeric-Hessian
    oracle and of the published moment formulas against quadrature."""
    from .verify import METRIC_ENTRIES, audit

    return audit(METRIC_ENTRIES, theta, cfg)
