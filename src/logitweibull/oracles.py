"""Independent numerical ground truth used to audit closed-form identities.

Half-line quadrature by the exp-sinh double-exponential rule (Takahasi & Mori
1974) with level-doubling error control, Weibull expectations in the Exp(1)
coordinate u = (x/a)^b, Monte Carlo expectations, central finite
differences, bracketed root finding, and exact nested integration of
polynomial integrands.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .family import ThetaPoint, as_theta, sample


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances of integrate_halfline; max_subdivisions caps the number of
    halvings of the step h (the rule builds MAX_LEVEL of them)."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 200

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class OracleValue:
    value: float
    error_estimate: float
    evaluations: int


class QuadratureError(RuntimeError):
    """Quadrature failed: no convergence within the halving cap, a non-finite
    integrand value, or an integrand that does not decay at the truncation."""


class BracketError(ValueError):
    """The supplied interval does not bracket a sign change."""


DEFAULT_QUADRATURE = QuadratureConfig()

# Exp-sinh rule: x = exp(pi/2 sinh t), t in [-T_MAX, T_MAX], on nested grids of
# step 2^-k.  Level 0 holds the integer t; level k > 0 adds the odd multiples
# of 2^-k.  Nodes are stored level after level, so the first LEVEL_END[k] of
# them make up the level-k grid.  T_MAX = 4 loses 3e-6 of the mass of the
# density at (a, b) = (0.5, 0.3); T_MAX = 5 loses under 1e-15.
T_MAX = 5
MAX_LEVEL = 10
# The audited integrands meet the default tolerance at level 5 (h = 1/32), so
# the first evaluation covers that grid and compares it with level 4.
START_LEVEL = 5


def _exp_sinh_nodes() -> tuple[np.ndarray, np.ndarray, list[int]]:
    levels = [np.arange(-T_MAX, T_MAX + 1, dtype=float)]
    for k in range(1, MAX_LEVEL + 1):
        h = 2.0**-k
        levels.append(-T_MAX + h * np.arange(1, 2 * T_MAX * 2**k, 2))
    t = np.concatenate(levels)
    x = np.exp(0.5 * math.pi * np.sinh(t))
    return x, 0.5 * math.pi * np.cosh(t) * x, np.cumsum([len(v) for v in levels]).tolist()


NODES, WEIGHTS, LEVEL_END = _exp_sinh_nodes()
# Indices of t = -T_MAX and t = T_MAX, whose terms bound the truncation error.
ENDPOINTS = [0, 2 * T_MAX]


def _evaluate(f: Callable, x: np.ndarray) -> np.ndarray:
    """f at every entry of x: one call on the array, or, for a scalar-only f
    (such as math.log), one call per entry."""
    try:
        vals = np.asarray(f(x), dtype=float)
        if vals.shape == x.shape:
            return vals
    except (TypeError, ValueError):
        pass
    return np.fromiter((f(v) for v in x.tolist()), dtype=float, count=x.size)


def integrate_halfline(f: Callable, cfg: QuadratureConfig | None = None) -> OracleValue:
    """Integral of f over (0, inf) by the exp-sinh rule.

    Each level halves h and evaluates only its new nodes, in one call of f.
    The error estimate is |I_h - I_2h|; the rule stops once it is within
    max(abs_tol, rel_tol |I|).  QuadratureError is raised when that does not
    happen within cfg.max_subdivisions halvings, when f returns a non-finite
    value, or when the terms at t = +-T_MAX exceed the tolerance, the sign of
    an integral the truncation cuts short (a divergent one among them).
    Integrable endpoint singularities such as x^(b-1) with b < 1 decay
    double-exponentially in t and need no special care.
    """
    cfg = cfg or DEFAULT_QUADRATURE
    cap = min(cfg.max_subdivisions, MAX_LEVEL)
    level = min(START_LEVEL, cap)

    def terms(lo: int, hi: int) -> np.ndarray:
        # floating-point flags are not reported as warnings: a non-finite
        # term fails the finiteness check on the sums instead
        with np.errstate(all="ignore"):
            return _evaluate(f, NODES[lo:hi]) * WEIGHTS[lo:hi]

    first = terms(0, LEVEL_END[level])
    tails = np.abs(first[ENDPOINTS])
    total = float(first[: LEVEL_END[level - 1]].sum())
    coarse = total * 2.0 ** (1 - level)
    total += float(first[LEVEL_END[level - 1] :].sum())
    while True:
        if not math.isfinite(total):
            raise QuadratureError("non-finite integrand value")
        value = total * 2.0**-level
        err = abs(value - coarse)
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(value))
        if err <= tol:
            break
        if level == cap:
            raise QuadratureError(
                f"quadrature did not converge after {level} halvings: error {err:.3g} > {tol:.3g}"
            )
        level += 1
        coarse = value
        total += float(terms(LEVEL_END[level - 1], LEVEL_END[level]).sum())
    if tails.max() > tol:
        raise QuadratureError(
            f"integrand does not decay at the truncation |t| = {T_MAX}: term {tails.max():.3g} > {tol:.3g}"
        )
    return OracleValue(value, err, LEVEL_END[level])


def expectation_quadrature(theta, g: Callable, cfg: QuadratureConfig | None = None) -> OracleValue:
    """E[g(X)] for X ~ Weibull(theta), as the integral over u in (0, inf) of
    g(a u^(1/b)) e^(-u): the substitution u = (x/a)^b removes the density's
    x^(b-1) singularity.  Where e^(-u) underflows the node contributes exactly
    0 and g is not evaluated."""
    th = as_theta(theta)
    a, inv_b = th.a, 1.0 / th.b

    def phi(u: np.ndarray) -> np.ndarray:
        # 0-d input too: if g raises on the whole array, integrate_halfline
        # retries node by node, and g's own error then surfaces
        u = np.asarray(u)
        w = np.exp(-u)
        live = w > 0.0
        out = np.zeros_like(u)
        out[live] = _evaluate(g, a * u[live] ** inv_b) * w[live]
        return out

    return integrate_halfline(phi, cfg)


def expectation_montecarlo(theta, g, seed: int, n: int) -> OracleValue:
    """Sample-mean estimate of E[g(X)]; error_estimate is the sample stderr."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    vals = _evaluate(g, sample(theta, seed, n))
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(n))
    return OracleValue(mean, stderr, n)


def _steps(theta: ThetaPoint, h: float) -> tuple[float, float]:
    """Relative steps per coordinate, clipped so theta +/- step stays positive."""
    steps = []
    for v in (theta.a, theta.b):
        s = h * max(1.0, abs(v))
        if v - s <= 0.0:
            warnings.warn(
                f"finite-difference step {s:g} clipped to stay in the positive quadrant at {v:g}",
                stacklevel=3,
            )
            s = 0.5 * v
        steps.append(s)
    return steps[0], steps[1]


def finite_diff_gradient(F, theta, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of F: ThetaPoint -> real at theta."""
    th = as_theta(theta)
    sa, sb = _steps(th, h)
    a, b = th.a, th.b
    da = (F(ThetaPoint(a + sa, b)) - F(ThetaPoint(a - sa, b))) / (2.0 * sa)
    db = (F(ThetaPoint(a, b + sb)) - F(ThetaPoint(a, b - sb))) / (2.0 * sb)
    return np.array([da, db])


def finite_diff_hessian(F, theta, h: float = 1e-4) -> np.ndarray:
    """Central second-order stencil Hessian of F at theta, symmetrized."""
    th = as_theta(theta)
    sa, sb = _steps(th, h)
    a, b = th.a, th.b
    f0 = F(th)
    h_aa = (F(ThetaPoint(a + sa, b)) - 2.0 * f0 + F(ThetaPoint(a - sa, b))) / sa**2
    h_bb = (F(ThetaPoint(a, b + sb)) - 2.0 * f0 + F(ThetaPoint(a, b - sb))) / sb**2
    h_ab = (
        F(ThetaPoint(a + sa, b + sb))
        - F(ThetaPoint(a + sa, b - sb))
        - F(ThetaPoint(a - sa, b + sb))
        + F(ThetaPoint(a - sa, b - sb))
    ) / (4.0 * sa * sb)
    return np.array([[h_aa, h_ab], [h_ab, h_bb]])


def find_root_bracketed(f: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    """Root of f in [lo, hi] by bisection with interpolated acceleration steps.

    Requires a sign change across the bracket.  Iterates until |f(x)| <= tol
    or the bracket collapses to floating-point resolution, returning the
    evaluated point with the smallest |f|.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got ({lo}, {hi})")
    if tol <= 0:
        raise ValueError("tol must be positive")
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise BracketError(f"f has the same sign at both endpoints ({lo}, {hi})")
    best_x, best_f = (lo, flo) if abs(flo) < abs(fhi) else (hi, fhi)
    for i in range(200):
        # secant candidate on even iterations, forced bisection on odd ones
        # keeps the bracket shrinking geometrically
        x = 0.5 * (lo + hi)
        if i % 2 == 0 and fhi != flo:
            xs = hi - fhi * (hi - lo) / (fhi - flo)
            if lo < xs < hi:
                x = xs
        fx = f(x)
        if abs(fx) < abs(best_f):
            best_x, best_f = x, fx
        if abs(fx) <= tol:
            return x
        if flo * fx < 0.0:
            hi, fhi = x, fx
        else:
            lo, flo = x, fx
        if hi - lo <= max(tol, math.ulp(hi)):
            break
    return best_x


def nested_polynomial_integral(coeffs: Sequence[float], u0: float) -> float:
    """Exact evaluation of the double integral of a polynomial r:
    integral over (0, u0) of (integral over (0, v) of r(u) du) dv,
    with r(u) = sum coeffs[k] u^k."""
    total = 0.0
    for k, c in enumerate(coeffs):
        total += c * u0 ** (k + 2) / ((k + 1) * (k + 2))
    return total
