"""Logit extension of the Weibull family.

The scaling group on the positive quadrant, its action u = a^(-b) x^b on the
sample space, the transcendental constraint pinning x, the potential function
(both the printed closed form and the exact double integral it is claimed to
come from), Legendre duality, and the resulting information matrix.

The closed-form potential and its double-integral definition disagree; both
are exposed and the verification layer reports the gap rather than forcing
agreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .family import ThetaPoint, _check_x, _log, as_theta, pdf
from .oracles import BracketError, find_root_bracketed


class SingularConstraintError(ZeroDivisionError):
    """The constraint's x-derivative vanishes where an implicit derivative is needed."""


class SingularInformationError(ZeroDivisionError):
    """The potential Hessian determinant is too small to invert."""


@dataclass(frozen=True)
class GroupElement:
    """Element (m, n) of the scaling group on the positive quadrant."""

    m: float
    n: float

    def __post_init__(self):
        if not (math.isfinite(self.m) and self.m > 0.0):
            raise ValueError(f"m must be finite and positive, got {self.m!r}")
        if not (math.isfinite(self.n) and self.n > 0.0):
            raise ValueError(f"n must be finite and positive, got {self.n!r}")


IDENTITY = GroupElement(1.0, 1.0)


def _pair(obj) -> tuple[float, float]:
    """(a, b) of a theta, validated by as_theta unless a ThetaPoint; (m, n) of a GroupElement."""
    if isinstance(obj, ThetaPoint):
        return obj.a, obj.b
    if isinstance(obj, GroupElement):
        return obj.m, obj.n
    return _pair(as_theta(obj))


@dataclass(frozen=True)
class ConstraintRoot:
    x: float
    residual: float
    bracket: tuple[float, float]


@dataclass(frozen=True)
class PotentialEval:
    phi: float
    eta1: float
    eta2: float
    psi: float
    legendre_residual: float
    mode: str  # fixed_x | total_derivative


@dataclass(frozen=True)
class LogitInformation:
    """Information matrix I = -Hessian(Phi) with the printed inverse and det."""

    matrix: np.ndarray
    inverse: np.ndarray
    detA: float
    hessian: np.ndarray
    hessian_positive_definite: bool


def iota_product(X, Y) -> GroupElement:
    """Group product: for X=(m,n), Y=(m',n') returns (m'^(1/n) m, n n')."""
    m, n = _pair(X)
    mp, np_ = _pair(Y)
    return GroupElement(mp ** (1.0 / n) * m, n * np_)


def action(theta, x: float) -> float:
    """Group action on the sample space: u = a^(-b) x^b."""
    a, b = _pair(theta)
    return a ** (-b) * _check_x(x) ** b


def constraint_residual(theta, x):
    """The transcendental constraint on x, written exactly as published:
    2b u - 2b - 2 u a ln a + 2 u a ln x - 2 a ln x + 2 a ln a - a, u = a^(-b) x^b.

    x may be an array (numpy in, numpy out); a scalar x gives a float.
    """
    a, b = _pair(theta)
    x = _check_x(x)
    u = a ** (-b) * x**b
    la, lx = math.log(a), _log(x)
    return 2.0 * b * u - 2.0 * b - 2.0 * u * a * la + 2.0 * u * a * lx - 2.0 * a * lx + 2.0 * a * la - a


def solve_constraint(theta, search_window: tuple[float, float] = (1e-3, 1e3), tol: float = 1e-12) -> ConstraintRoot:
    """Solve the constraint for x in the window.

    Scans 256 log-spaced panels for sign changes and refines the highest
    bracket only: its root is the largest (the residual tends to +inf at both
    ends of the half line, so small spurious roots can appear below the scale
    parameter).
    """
    th = as_theta(theta)
    lo, hi = search_window
    if not (0.0 < lo < hi):
        raise ValueError(f"invalid search window {search_window!r}")
    f = lambda x: constraint_residual(th, x)
    grid = np.geomspace(lo, hi, 257)
    vals = constraint_residual(th, grid)
    changes = np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0))
    if not changes.size:
        raise BracketError(f"no sign change of the constraint found in {search_window!r} at {th}")
    i = int(changes[-1])
    bracket = (float(grid[i]), float(grid[i + 1]))
    x_star = bracket[0] if vals[i] == 0.0 else find_root_bracketed(f, *bracket, tol)
    return ConstraintRoot(x_star, f(x_star), bracket)


def logit_density(theta, y: int, x: float) -> float:
    """Binary-extended density p(y, x) = pdf(theta, x)/2, independent of y."""
    if y not in (0, 1):
        raise ValueError(f"y must be 0 or 1, got {y!r}")
    return 0.5 * pdf(theta, x)


def link_function(theta, x: float, u: float) -> float:
    """Link r(u) = (b/a)(u - 1)/(2x) driving the potential's double integral."""
    a, b = _pair(theta)
    return (b / a) * (u - 1.0) / (2.0 * _check_x(x))


def potential_closed(theta, x: float) -> float:
    """The published closed-form potential:
    b^2/(12 a^2 x) (u-1)^4 + b^2/(3 a^2 x) u - b^2/(12 a^2 x), u = a^(-b) x^b."""
    a, b = _pair(theta)
    u = action(theta, x)
    c = b**2 / (12.0 * a**2 * x)
    return c * ((u - 1.0) ** 4 + 4.0 * u - 1.0)


def potential_integral(theta, x: float) -> float:
    """Exact value of the double integral of the link over (0, u0), u0 = a^(-b) x^b:
    (b/(2 a x)) (u0^3/6 - u0^2/2).  Differs from potential_closed; see verify."""
    a, b = _pair(theta)
    u0 = action(theta, x)
    return (b / (2.0 * a * x)) * (u0**3 / 6.0 - u0**2 / 2.0)


def _phi_pieces(a: float, b: float, x: float):
    """Shared quantities for the analytic derivatives of the closed-form potential."""
    u = a ** (-b) * x**b
    c = b**2 / (12.0 * a**2 * x)
    p = (u - 1.0) ** 4 + 4.0 * u - 1.0
    dp = 4.0 * (u - 1.0) ** 3 + 4.0
    ddp = 12.0 * (u - 1.0) ** 2
    big_l = math.log(x) - math.log(a)  # d(log u)/db
    return u, c, p, dp, ddp, big_l


def potential_gradient_fixed(theta, x: float) -> np.ndarray:
    """Analytic (dPhi/da, dPhi/db) of the closed form, x held constant."""
    a, b = _pair(theta)
    u, c, p, dp, _, big_l = _phi_pieces(a, b, float(x))
    u_a = -(b / a) * u
    u_b = u * big_l
    phi_a = (-2.0 * c / a) * p + c * dp * u_a
    phi_b = (2.0 * c / b) * p + c * dp * u_b
    return np.array([phi_a, phi_b])


def potential_hessian_fixed(theta, x: float) -> np.ndarray:
    """Analytic Hessian of the closed-form potential in (a, b), x held constant."""
    a, b = _pair(theta)
    u, c, p, dp, ddp, big_l = _phi_pieces(a, b, float(x))
    c_a, c_aa = -2.0 * c / a, 6.0 * c / a**2
    c_b, c_bb = 2.0 * c / b, 2.0 * c / b**2
    c_ab = -4.0 * c / (a * b)
    u_a = -(b / a) * u
    u_b = u * big_l
    u_aa = (b / a**2) * u * (1.0 + b)
    u_ab = -(u / a) * (1.0 + b * big_l)
    u_bb = u * big_l**2
    h_aa = c_aa * p + 2.0 * c_a * dp * u_a + c * (ddp * u_a**2 + dp * u_aa)
    h_ab = c_ab * p + c_a * dp * u_b + c_b * dp * u_a + c * (ddp * u_a * u_b + dp * u_ab)
    h_bb = c_bb * p + 2.0 * c_b * dp * u_b + c * (ddp * u_b**2 + dp * u_bb)
    return np.array([[h_aa, h_ab], [h_ab, h_bb]])


def _phi_x_partial(a: float, b: float, x: float) -> float:
    """dPhi/dx of the closed form."""
    u, c, p, dp, _, _ = _phi_pieces(a, b, x)
    u_x = (b / x) * u
    return (-c / x) * p + c * dp * u_x


def _constraint_partials(a: float, b: float, x: float) -> tuple[float, float, float]:
    """(dR/da, dR/db, dR/dx) of the constraint residual."""
    u = a ** (-b) * x**b
    la, lx = math.log(a), math.log(x)
    u_a = -(b / a) * u
    u_b = u * (lx - la)
    u_x = (b / x) * u
    r_a = (
        2.0 * b * u_a
        - 2.0 * (u_a * a * la + u * (la + 1.0))
        + 2.0 * (u_a * a * lx + u * lx)
        - 2.0 * lx
        + 2.0 * (la + 1.0)
        - 1.0
    )
    r_b = 2.0 * u + 2.0 * b * u_b - 2.0 - 2.0 * a * la * u_b + 2.0 * a * lx * u_b
    r_x = 2.0 * b * u_x - 2.0 * a * la * u_x + 2.0 * a * (u_x * lx + u / x) - 2.0 * a / x
    return r_a, r_b, r_x


def _root_slope(a: float, b: float, x: float, r_a: float, r_b: float, r_x: float) -> tuple[float, float]:
    """(dx/da, dx/db) = -(R_a, R_b)/R_x, or SingularConstraintError when R_x vanishes."""
    if abs(r_x) < 1e-12 * max(1.0, abs(r_a), abs(r_b)):
        raise SingularConstraintError(f"constraint x-derivative vanishes at theta=({a}, {b}), x={x}")
    return -r_a / r_x, -r_b / r_x


def implicit_root_gradient(theta, x: float) -> np.ndarray:
    """(dx/da, dx/db) along the constraint, from implicit differentiation."""
    a, b = _pair(theta)
    x = float(x)
    return np.array(_root_slope(a, b, x, *_constraint_partials(a, b, x)))


def dual_coordinates(theta, x: float, mode: str = "fixed_x") -> tuple[float, float]:
    """Dual coordinates eta = dPhi/dtheta of the closed-form potential.

    mode 'fixed_x' treats x as an independent constant (the published
    symbol-level algebra); 'total_derivative' adds the implicit term
    (dPhi/dx)(dx/dtheta) obtained by differentiating the constraint.
    """
    a, b = _pair(theta)
    x = float(x)
    grad = potential_gradient_fixed(theta, x)
    if mode == "fixed_x":
        return float(grad[0]), float(grad[1])
    if mode == "total_derivative":
        grad = grad + _phi_x_partial(a, b, x) * implicit_root_gradient(theta, x)
        return float(grad[0]), float(grad[1])
    raise ValueError(f"unknown mode {mode!r}")


def dual_potential(theta, x: float, mode: str = "fixed_x") -> PotentialEval:
    """Legendre transform: Psi = a eta1 + b eta2 - Phi, with the residual of the
    Legendre identity (zero by construction) carried alongside."""
    a, b = _pair(theta)
    phi = potential_closed(theta, x)
    eta1, eta2 = dual_coordinates(theta, x, mode)
    psi = a * eta1 + b * eta2 - phi
    residual = a * eta1 + b * eta2 - phi - psi
    return PotentialEval(phi, eta1, eta2, psi, residual, mode)


def solve_near(theta, x_guess: float, tol: float = 1e-12) -> ConstraintRoot:
    """Re-solve the constraint in a window centered (geometrically) on a guess."""
    for half_width in (1.5, 4.0, 32.0):
        try:
            return solve_constraint(theta, (x_guess / half_width, x_guess * half_width), tol)
        except BracketError:
            continue
    return solve_constraint(theta, tol=tol)


def potential_hessian_total(theta, x: float) -> np.ndarray:
    """Hessian of theta -> Phi(theta, x*(theta)) along the constraint R(theta, x*) = 0.

    Second-order implicit differentiation in w = (a, b, x): with Phi'' and R''
    the 3x3 second derivatives and J = [I; -R_theta/R_x] the tangent of the
    constraint surface, H = J^T (Phi'' - (Phi_x/R_x) R'') J.  The constraint
    is written R = 2(u-1) s - a with s = b + a L, L = ln(x/a), u = e^(bL).
    Raises SingularConstraintError where R_x vanishes, as implicit_root_gradient.
    """
    a, b = _pair(theta)
    x = float(x)
    u, c, p, dp, ddp, big_l = _phi_pieces(a, b, x)
    s = b + a * big_l
    # first partials in (a, b, x)
    c1 = (-2.0 * c / a, 2.0 * c / b, -c / x)
    u1 = (-(b / a) * u, u * big_l, (b / x) * u)
    s1 = (big_l - 1.0, 1.0, a / x)
    # second partials, indexed by the pairs aa, ab, ax, bb, bx, xx
    pairs = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
    c2 = (6.0 * c / a**2, -4.0 * c / (a * b), 2.0 * c / (a * x), 2.0 * c / b**2, -2.0 * c / (b * x), 2.0 * c / x**2)
    u2 = (
        (b / a**2) * u * (1.0 + b),
        -(u / a) * (1.0 + b * big_l),
        -(b * b / (a * x)) * u,
        u * big_l**2,
        (u / x) * (1.0 + b * big_l),
        (b / x**2) * u * (b - 1.0),
    )
    s2 = (-1.0 / a, 0.0, 1.0 / x, 0.0, 0.0, -a / x**2)

    # R = 2(u-1)s - a, so R_i = 2(u_i s + (u-1) s_i), less 1 for i = a
    r_a, r_b, r_x = (2.0 * (ui * s + (u - 1.0) * si) for ui, si in zip(u1, s1))
    r_a -= 1.0
    xi_a, xi_b = _root_slope(a, b, x, r_a, r_b, r_x)
    k = (c1[2] * p + c * dp * u1[2]) / r_x  # Phi_x / R_x
    m = {}
    for (i, j), cij, uij, sij in zip(pairs, c2, u2, s2):
        phi_ij = cij * p + dp * (c1[i] * u1[j] + c1[j] * u1[i]) + c * (ddp * u1[i] * u1[j] + dp * uij)
        r_ij = 2.0 * (uij * s + u1[i] * s1[j] + u1[j] * s1[i] + (u - 1.0) * sij)
        m[i, j] = phi_ij - k * r_ij
    h_aa = m[0, 0] + 2.0 * xi_a * m[0, 2] + xi_a * xi_a * m[2, 2]
    h_ab = m[0, 1] + xi_b * m[0, 2] + xi_a * m[1, 2] + xi_a * xi_b * m[2, 2]
    h_bb = m[1, 1] + 2.0 * xi_b * m[1, 2] + xi_b * xi_b * m[2, 2]
    return np.array([[h_aa, h_ab], [h_ab, h_bb]])


def potential_hessian(theta, x: float, mode: str = "fixed_x") -> np.ndarray:
    """Hessian of the closed-form potential in (a, b) under a differentiation
    mode, the second-order twin of dual_coordinates: 'fixed_x' holds x
    constant, 'total_derivative' follows the constraint root."""
    if mode == "fixed_x":
        return potential_hessian_fixed(theta, x)
    if mode == "total_derivative":
        return potential_hessian_total(theta, x)
    raise ValueError(f"unknown mode {mode!r}")


def logit_information(theta, x: float, mode: str = "fixed_x") -> LogitInformation:
    """Information matrix of the logit model, with the printed sign I = -Hess(Phi).

    The printed inverse entries are (1/A) * [[-Phi_bb, Phi_ab], [Phi_ab, -Phi_aa]]
    with A = Phi_aa Phi_bb - Phi_ab^2; a positive-definiteness flag for the
    Hessian itself is included so consumers can pick their sign convention.
    """
    hess = potential_hessian(theta, x, mode)
    det_a = float(hess[0, 0] * hess[1, 1] - hess[0, 1] ** 2)
    if abs(det_a) <= 1e-12:
        raise SingularInformationError(f"potential Hessian determinant {det_a:g} too small")
    info = -hess
    inverse = (
        np.array(
            [
                [-hess[1, 1], hess[0, 1]],
                [hess[0, 1], -hess[0, 0]],
            ]
        )
        / det_a
    )
    pd = bool(np.all(np.linalg.eigvalsh(hess) > 0.0))
    return LogitInformation(info, inverse, det_a, hess, pd)
