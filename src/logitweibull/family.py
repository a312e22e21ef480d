"""Two-parameter Weibull family: density, likelihood derivatives, moments, sampling.

The parameter point is theta = (a, b) with scale a > 0 and shape b > 0, and the
density is (b/a)(x/a)^(b-1) exp(-(x/a)^b) on (0, inf).

The moment helpers whose names end in ``_paper`` return published closed-form
expressions verbatim.  Some of those expressions disagree with direct numerical
integration away from (a, b) = (1, 1); they are kept literal on purpose so the
verification layer can report the deviations instead of hiding them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Euler-Mascheroni constant, double precision.
EULER_GAMMA = 0.5772156649015329


@dataclass(frozen=True)
class ThetaPoint:
    """Weibull parameter pair: scale a > 0, shape b > 0."""

    a: float
    b: float

    def __post_init__(self):
        for name, v in (("a", self.a), ("b", self.b)):
            if not isinstance(v, (int, float)) or not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be a finite positive real, got {v!r}")


def as_theta(theta) -> ThetaPoint:
    """Coerce a ThetaPoint or (a, b) pair into a validated ThetaPoint."""
    if isinstance(theta, ThetaPoint):
        return theta
    a, b = theta
    return ThetaPoint(float(a), float(b))


@dataclass(frozen=True)
class ScoreVector:
    """First partials of the log-likelihood with respect to (a, b); arrays for array x."""

    d_a: float
    d_b: float


@dataclass(frozen=True)
class LogLikHessian:
    """Second partials of the log-likelihood; h_ab is stored once (symmetric).
    Arrays for array x."""

    h_aa: float
    h_ab: float
    h_bb: float


@dataclass(frozen=True)
class GumbelLink:
    """Moments of the log-transformed variable xi = log(x) after the Gumbel change
    of variables: mean_xi = -1/b + (1-kappa)/a + log(a), var_xi = pi^2/(6 a^2)."""

    mean_xi: float
    var_xi: float


def _check_x(x):
    """x as a float (scalar input) or a float array, every entry finite and positive."""
    if isinstance(x, (int, float)):  # fast path for the common scalar call
        if not (math.isfinite(x) and x > 0.0):
            raise ValueError(f"x must be a finite positive real, got {x!r}")
        return float(x)
    arr = np.asarray(x, dtype=float)
    ok = np.isfinite(arr) & (arr > 0.0)
    if not ok.all():
        raise ValueError(f"x must be a finite positive real, got {arr[~ok].flat[0]!r}")
    return float(arr) if arr.ndim == 0 else arr


def _log(x):
    """math.log for a float, np.log for an array: scalar calls stay cheap."""
    return math.log(x) if isinstance(x, float) else np.log(x)


def _exp(x):
    return math.exp(x) if isinstance(x, float) else np.exp(x)


def pdf(theta, x):
    """Weibull density (b/a)(x/a)^(b-1) exp(-(x/a)^b); x may be an array.

    Evaluated as exp((b-1) log z - z^b) so that a z^b that overflows gives 0,
    not inf * 0.
    """
    th = as_theta(theta)
    z = _check_x(x) / th.a
    return (th.b / th.a) * _exp((th.b - 1.0) * _log(z) - z**th.b)


def log_likelihood(theta, x):
    """log p_theta(x) = log b - log a - (b-1) log a + (b-1) log x - a^(-b) x^b."""
    th = as_theta(theta)
    x = _check_x(x)
    a, b = th.a, th.b
    return (
        math.log(b)
        - math.log(a)
        - (b - 1.0) * math.log(a)
        + (b - 1.0) * _log(x)
        - a ** (-b) * x**b
    )


def score(theta, x) -> ScoreVector:
    """Gradient of the log-likelihood in (a, b) at a sample point x (or an array of them)."""
    th = as_theta(theta)
    x = _check_x(x)
    a, b = th.a, th.b
    u = a ** (-b) * x**b
    la, lx = math.log(a), _log(x)
    d_a = (b / a) * (u - 1.0)
    d_b = u * la - u * lx + lx - la + 1.0 / b
    return ScoreVector(d_a, d_b)


def log_likelihood_hessian(theta, x) -> LogLikHessian:
    """Second partials of the log-likelihood at (theta, x); x may be an array."""
    th = as_theta(theta)
    x = _check_x(x)
    a, b = th.a, th.b
    u = a ** (-b) * x**b
    la, lx = math.log(a), _log(x)
    h_aa = -(b / a**2) * (-1.0 + b * u + u)
    h_ab = -(1.0 / a) * (1.0 + b * u * la - u - b * u * lx)
    h_bb = -(1.0 / b**2) * (1.0 + b**2 * u * la**2 - 2.0 * b**2 * u * la * lx + b**2 * u * lx**2)
    return LogLikHessian(h_aa, h_ab, h_bb)


def moment_xb(theta) -> float:
    """E[x^b] = a^b."""
    th = as_theta(theta)
    return th.a**th.b


def moment_log_paper(theta) -> float:
    """Published closed form for E[log x]: -a + (1-kappa) b + a b log(a).

    Returned verbatim; it coincides with quadrature only at special points
    such as (1, 1).  The verification layer reports the discrepancy.
    """
    th = as_theta(theta)
    a, b = th.a, th.b
    return -a + (1.0 - EULER_GAMMA) * b + a * b * math.log(a)


def moment_xb_log_paper(theta) -> float:
    """Published closed form for E[x^b log x]:
    a^b/b - a^(b+1) + (1-kappa) a^b b + a^(b+1) b log(a).  Returned verbatim."""
    th = as_theta(theta)
    a, b = th.a, th.b
    return (
        a**b / b
        - a ** (b + 1.0)
        + (1.0 - EULER_GAMMA) * a**b * b
        + a ** (b + 1.0) * b * math.log(a)
    )


def moment_xb_log2_paper(theta) -> float:
    """Published closed form for E[x^b log^2 x], built from the Gumbel-link mean
    m = -1/b + (1-kappa)/a + log(a) and variance pi^2/(6 a^2).  Returned verbatim."""
    th = as_theta(theta)
    a, b = th.a, th.b
    la = math.log(a)
    m = -1.0 / b + (1.0 - EULER_GAMMA) / a + la
    return (
        (a**b * b / (6.0 * a**2)) * math.pi**2
        + a**b * b * m**2
        + 2.0 * a**b * la * m
        + a**b * b * la**2
    )


def gumbel_link(theta) -> GumbelLink:
    """Mean and variance of xi = log(x) under the Gumbel change of variables."""
    th = as_theta(theta)
    a, b = th.a, th.b
    mean_xi = -1.0 / b + (1.0 - EULER_GAMMA) / a + math.log(a)
    var_xi = math.pi**2 / (6.0 * a**2)
    return GumbelLink(mean_xi, var_xi)


def sample(theta, seed: int, n: int) -> np.ndarray:
    """Draw n Weibull variates via the inverse CDF x = a(-log u)^(1/b).

    Deterministic for a fixed seed; exact (no rejection step).
    """
    th = as_theta(theta)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    # u = 0 would map to x = inf; probability ~2^-53 but guard anyway
    u = np.where(u == 0.0, np.finfo(float).tiny, u)
    return th.a * (-np.log(u)) ** (1.0 / th.b)
