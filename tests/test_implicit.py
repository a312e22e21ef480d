"""The constraint layer's calculus and solver: the analytic jet of the
potential in both modes against a sympy derivation, the array form of the
constraint residual, and the branch chosen by the local and the global solver."""

import math

import numpy as np
import pytest

import logitweibull as lw
from logitweibull.logit import (
    SingularConstraintError,
    _w_partials,
    implicit_root_gradient,
    potential_hessian,
    potential_hessian_fixed,
    potential_hessian_total,
    potential_jet,
    solve_near,
)
from logitweibull.oracles import find_root_bracketed

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

HESSIAN_THETAS = [(0.5, 3.0), (1.0, 1.0), (2.0, 0.5), (3.0, 2.0), (0.3, 6.0), (4.0, 1.5)]
OFF_ROOT = ((1.5, 2.0), 0.9)


@pytest.fixture(scope="module")
def exact_jet():
    """mode -> ((a, b, x) -> exact (gradient, Hessian) of Phi in (a, b)).

    'fixed_x' differentiates Phi(a, b, x) with x a plain symbol.  For
    'total_derivative' sympy applies the chain rule to Phi(a, b, X(a, b)) with
    X an undefined function, and takes the derivatives of X from the
    derivatives of the constraint identity R(a, b, X(a, b)) = 0.  Nothing here
    uses the J^T M J form of the implementation.  Values are in 40-digit mpmath.
    """
    a, b, x = sympy.symbols("a b x", positive=True)
    X = sympy.Function("X")(a, b)

    def phi_and_r(xv):
        u = a ** (-b) * xv**b
        phi = b**2 / (12 * a**2 * xv) * ((u - 1) ** 4 + 4 * u - 1)
        r = (
            2 * b * u - 2 * b - 2 * u * a * sympy.log(a) + 2 * u * a * sympy.log(xv)
            - 2 * a * sympy.log(xv) + 2 * a * sympy.log(a) - a
        )
        return phi, r

    d = {
        (1, 0): sympy.Symbol("x_a"),
        (0, 1): sympy.Symbol("x_b"),
        (2, 0): sympy.Symbol("x_aa"),
        (1, 1): sympy.Symbol("x_ab"),
        (0, 2): sympy.Symbol("x_bb"),
    }

    def plain(expr):
        # second derivatives of X first, so their first-order factors stay intact
        for (i, j) in [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1)]:
            var = [a] * i + [b] * j
            expr = expr.subs(sympy.Derivative(X, *var), d[i, j])
        return expr.subs(X, x)

    phi, r = phi_and_r(X)

    def slope(key):
        # the key-th derivative of R(a, b, X(a, b)) = 0 is linear in that derivative of X
        eq = plain(sympy.diff(r, *([a] * key[0] + [b] * key[1])))
        return -eq.subs(d[key], 0) / sympy.diff(eq, d[key])

    order = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    derivatives = ([a], [b], [a, a], [a, b], [b, b])
    symbols = [a, b, x] + [d[key] for key in order]
    slope_fns = [sympy.lambdify(symbols, slope(key), "mpmath") for key in order]
    total_fn = sympy.lambdify(symbols, [plain(sympy.diff(phi, *var)) for var in derivatives], "mpmath")
    phi_fixed = phi_and_r(x)[0]
    fixed_fn = sympy.lambdify([a, b, x], [sympy.diff(phi_fixed, *var) for var in derivatives], "mpmath")

    def jet(values):
        g_a, g_b, h_aa, h_ab, h_bb = (float(v) for v in values)
        return np.array([g_a, g_b]), np.array([[h_aa, h_ab], [h_ab, h_bb]])

    def fixed(av, bv, xv):
        with mpmath.workdps(40):
            return jet(fixed_fn(mpmath.mpf(av), mpmath.mpf(bv), mpmath.mpf(xv)))

    def total(av, bv, xv):
        with mpmath.workdps(40):
            args = [mpmath.mpf(av), mpmath.mpf(bv), mpmath.mpf(xv)]
            for fn in slope_fns:  # each slope needs only the ones before it
                args.append(fn(*args, *[0] * (len(symbols) - len(args))))
            return jet(total_fn(*args))

    return {"fixed_x": fixed, "total_derivative": total}


def assert_jet_matches(theta, x, mode, exact_jet):
    """Every gradient and Hessian entry within 1e-12 relative of the exact value."""
    for new, exact in zip(potential_jet(theta, x, mode), exact_jet[mode](*theta, x)):
        assert np.all(np.abs(new - exact) <= 1e-12 * np.abs(exact)), (new, exact)


class TestFixedJet:
    @pytest.mark.parametrize("theta", HESSIAN_THETAS)
    def test_matches_sympy_at_root(self, exact_jet, theta):
        assert_jet_matches(theta, lw.solve_constraint(theta).x, "fixed_x", exact_jet)

    def test_matches_sympy_off_root(self, exact_jet):
        assert_jet_matches(*OFF_ROOT, "fixed_x", exact_jet)


class TestTotalHessian:
    @pytest.mark.parametrize("theta", HESSIAN_THETAS)
    def test_matches_sympy_at_root(self, exact_jet, theta):
        assert_jet_matches(theta, lw.solve_constraint(theta).x, "total_derivative", exact_jet)

    def test_matches_sympy_off_root(self, exact_jet):
        # off the root the total derivative follows the level set of R through (theta, x)
        assert_jet_matches(*OFF_ROOT, "total_derivative", exact_jet)

    def test_singular_constraint_raises_like_gradient(self):
        # R_x vanishes at the minimum of R(x) for theta = (1, 1), between 0.5 and 0.8
        x = find_root_bracketed(lambda v: _w_partials(1.0, 1.0, v, True)[2][2], 0.5, 0.8, 1e-300)
        with pytest.raises(SingularConstraintError):
            implicit_root_gradient((1, 1), x)
        with pytest.raises(SingularConstraintError):
            potential_hessian_total((1, 1), x)

    def test_mode_dispatch(self):
        x = lw.solve_constraint((2.0, 0.5)).x
        assert np.array_equal(potential_hessian((2.0, 0.5), x), potential_hessian_fixed((2.0, 0.5), x))
        assert np.array_equal(
            potential_hessian((2.0, 0.5), x, "total_derivative"), potential_hessian_total((2.0, 0.5), x)
        )
        with pytest.raises(ValueError):
            potential_hessian((2.0, 0.5), x, "nope")
        info = lw.logit_information((2.0, 0.5), x, "total_derivative")
        assert np.array_equal(info.hessian, potential_hessian_total((2.0, 0.5), x))


class TestResidualArray:
    @pytest.mark.parametrize("theta", [(1.0, 1.0), (0.2, 8.0), (5.0, 0.2), (2.0, 3.5)])
    def test_array_equals_scalar_calls(self, theta):
        xs = np.geomspace(1e-3, 1e3, 257)
        vals = lw.constraint_residual(theta, xs)
        assert isinstance(vals, np.ndarray) and vals.shape == xs.shape
        scalar = np.array([lw.constraint_residual(theta, float(x)) for x in xs])
        # the two paths may differ by a rounding of log and pow; scale by the terms
        a, b = theta
        u = (xs / a) ** b
        scale = 2 * b * u + 2 * b + 2 * u * a * (abs(math.log(a)) + np.abs(np.log(xs))) + 2 * a * np.abs(np.log(xs / a)) + a
        assert np.all(np.abs(vals - scalar) <= 1e-14 * scale)

    def test_scalar_gives_float(self):
        r = lw.constraint_residual((1, 1), 2.0)
        assert type(r) is float
        assert r == pytest.approx(1 + 2 * math.log(2), abs=1e-14)
        assert type(lw.constraint_residual((1, 1), 2)) is float

    def test_array_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            lw.constraint_residual((1, 1), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            lw.constraint_residual((1, 1), np.array([1.0, math.nan]))


class TestBranch:
    def test_near_and_global_solvers_pick_the_same_root(self):
        # 15 x 15 log grid over a in [0.2, 5], b in [0.2, 8]: the local solver
        # seeded at the scale parameter stays on the largest-root branch
        gaps = []
        for a in np.geomspace(0.2, 5.0, 15):
            for b in np.geomspace(0.2, 8.0, 15):
                th = (float(a), float(b))
                gaps.append(abs(solve_near(th, th[0]).x - lw.solve_constraint(th).x))
        assert max(gaps) <= 1e-10

    def test_one_refinement_gives_the_largest_root(self, monkeypatch):
        # solve_constraint refines only the highest bracket of its 257-point
        # scan; refining every bracket and keeping the largest root, as it once
        # did, gives the same root bit for bit on the 15 x 15 grid
        from logitweibull import logit as logit_module

        refined = []

        def counting(*args):
            refined.append(args)
            return find_root_bracketed(*args)

        monkeypatch.setattr(logit_module, "find_root_bracketed", counting)
        grid = np.geomspace(1e-3, 1e3, 257)
        for a in np.geomspace(0.2, 5.0, 15):
            for b in np.geomspace(0.2, 8.0, 15):
                th = (float(a), float(b))
                refined.clear()
                root = lw.solve_constraint(th)
                assert len(refined) <= 1
                vals = lw.constraint_residual(th, grid)
                changes = np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0)).tolist()
                f = lambda x: lw.constraint_residual(th, x)
                roots = [
                    float(grid[i]) if vals[i] == 0.0 else find_root_bracketed(f, float(grid[i]), float(grid[i + 1]), 1e-12)
                    for i in changes
                ]
                assert root.x == max(roots)
