import math

import numpy as np
import pytest

import logitweibull as lw
from logitweibull.logit import (
    GroupElement,
    IDENTITY,
    potential_hessian_fixed,
    potential_hessian_total,
    solve_near,
)
from logitweibull.oracles import BracketError


def scaled_close(x, y, tol):
    assert abs(x - y) <= tol * max(1.0, abs(y))


class TestIotaProduct:
    def test_neutral_element(self):
        z = lw.iota_product(GroupElement(2, 3), IDENTITY)
        assert (z.m, z.n) == pytest.approx((2.0, 3.0), abs=1e-15)

    def test_substitution(self):
        z = lw.iota_product(GroupElement(2, 2), GroupElement(4, 3))
        assert (z.m, z.n) == pytest.approx((4.0, 6.0), abs=1e-14)
        z = lw.iota_product(GroupElement(3, 1), GroupElement(2, 2))
        assert (z.m, z.n) == pytest.approx((6.0, 2.0), abs=1e-14)

    def test_associativity(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a, b, c = (GroupElement(*rng.uniform(0.1, 10, 2)) for _ in range(3))
            left = lw.iota_product(lw.iota_product(a, b), c)
            right = lw.iota_product(a, lw.iota_product(b, c))
            scaled_close(left.m, right.m, 1e-12)
            scaled_close(left.n, right.n, 1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            GroupElement(-1.0, 2.0)


class TestAction:
    def test_identity_acts_trivially(self):
        for x in (0.1, 1.0, 7.3):
            assert lw.action(IDENTITY, x) == x

    def test_substitution(self):
        assert lw.action((2, 3), 4.0) == pytest.approx(8.0, abs=1e-14)

    def test_compatibility_example(self):
        X, Y = GroupElement(2, 2), GroupElement(3, 1)
        lhs = lw.action(X, lw.action(Y, 5.0))
        rhs = lw.action(lw.iota_product(Y, X), 5.0)
        assert lhs == pytest.approx(25 / 36, abs=1e-14)
        assert rhs == pytest.approx(25 / 36, abs=1e-14)

    def test_compatibility_random(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            X, Y = (GroupElement(*rng.uniform(0.1, 10, 2)) for _ in range(2))
            x = rng.uniform(0.1, 10)
            lhs = lw.action(X, lw.action(Y, x))
            rhs = lw.action(lw.iota_product(Y, X), x)
            scaled_close(lhs, rhs, 1e-12)


class TestThetaValidation:
    @pytest.mark.parametrize("theta", [(-1, 2), (1, 0), (math.nan, 1), (1, math.inf)])
    def test_invalid_pair_rejected(self, theta):
        for fn in (lw.potential_closed, lw.potential_integral, lw.dual_coordinates, lw.constraint_residual):
            with pytest.raises(ValueError):
                fn(theta, 1.0)

    def test_group_elements_still_accepted(self):
        assert lw.action(GroupElement(2, 3), 4.0) == pytest.approx(8.0, abs=1e-14)


class TestConstraint:
    def test_residual_at_unit_point(self):
        assert lw.constraint_residual((1, 1), 1.0) == pytest.approx(-1.0, abs=1e-15)

    def test_residual_at_two(self):
        assert lw.constraint_residual((1, 1), 2.0) == pytest.approx(1 + 2 * math.log(2), abs=1e-14)

    def test_solve_unit_point(self):
        root = lw.solve_constraint((1, 1), (0.1, 10), 1e-12)
        assert 1.37 < root.x < 1.38
        assert abs(root.residual) <= 1e-12
        assert root.bracket[0] < root.x < root.bracket[1]

    def test_no_bracket_window(self):
        with pytest.raises(BracketError):
            lw.solve_constraint((1, 1), (5, 10))

    def test_scale_two(self):
        root = lw.solve_constraint((2, 1), (0.1, 20), 1e-12)
        assert abs(root.residual) <= 1e-12
        assert abs(lw.constraint_residual((2, 1), root.x)) <= 1e-12

    def test_resolve_stability(self):
        r1 = lw.solve_constraint((1, 1), (0.1, 10), 1e-12)
        r2 = lw.solve_constraint((1, 1), (0.15, 9.1), 1e-12)
        assert abs(r1.x - r2.x) <= 1e-10


class TestLogitDensity:
    def test_half_pdf(self):
        assert lw.logit_density((1, 1), 1, 1.0) == pytest.approx(math.exp(-1) / 2, abs=1e-15)
        assert lw.logit_density((1, 2), 0, 1.0) == pytest.approx(math.exp(-1), abs=1e-15)

    def test_normalizes_over_both_outcomes(self):
        total = sum(
            lw.integrate_halfline(lambda x, y=y: lw.logit_density((1.3, 0.8), y, x)).value
            for y in (0, 1)
        )
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_rejects_bad_y(self):
        with pytest.raises(ValueError):
            lw.logit_density((1, 1), 2, 1.0)


class TestLinkFunction:
    def test_values(self):
        assert lw.link_function((1, 1), 1.0, 1.0) == 0.0
        assert lw.link_function((1, 1), 1.0, 3.0) == pytest.approx(1.0, abs=1e-15)
        assert lw.link_function((2, 4), 1.0, 2.0) == pytest.approx(1.0, abs=1e-15)


class TestPotential:
    def test_closed_spot_values(self):
        assert lw.potential_closed((1, 1), 1.0) == pytest.approx(0.25, abs=1e-15)
        assert lw.potential_closed((2, 1), 2.0) == pytest.approx(0.03125, abs=1e-15)
        assert lw.potential_closed((1, 1), 2.0) == pytest.approx(1 / 3, abs=1e-15)

    def test_integral_spot_values(self):
        assert lw.potential_integral((1, 1), 1.0) == pytest.approx(-1 / 6, abs=1e-15)
        assert lw.potential_integral((1, 1), 2.0) == pytest.approx(-1 / 6, abs=1e-15)

    def test_integral_matches_polynomial_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            a, b = rng.uniform(0.5, 2.5, 2)
            x = rng.uniform(0.5, 3.0)
            u0 = lw.action((a, b), x)
            # r(u) = (b/a)(u-1)/(2x) as a coefficient list
            coeffs = [-(b / a) / (2 * x), (b / a) / (2 * x)]
            assert lw.potential_integral((a, b), x) == pytest.approx(
                lw.nested_polynomial_integral(coeffs, u0), rel=1e-12, abs=1e-12
            )

    def test_closed_and_integral_disagree(self):
        # the printed closed form is not the double integral of the link
        diff = lw.potential_closed((1, 1), 1.0) - lw.potential_integral((1, 1), 1.0)
        assert diff == pytest.approx(0.25 + 1 / 6, abs=1e-12)


class TestDualCoordinates:
    def test_fixed_unit_point(self):
        eta = lw.dual_coordinates((1, 1), 1.0)
        assert eta == pytest.approx((-5 / 6, 0.5), abs=1e-14)

    def test_fixed_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            a, b = rng.uniform(0.5, 2.5, 2)
            x = rng.uniform(0.5, 3.0)
            eta = np.array(lw.dual_coordinates((a, b), x))
            fd = lw.finite_diff_gradient(lambda th: lw.potential_closed(th, x), (a, b), 1e-5)
            assert np.all(np.abs(eta - fd) <= 1e-6 * np.maximum(1.0, np.abs(fd)))

    def test_total_matches_finite_differences_through_root(self):
        root = lw.solve_constraint((1, 1)).x

        def phi_on_constraint(th):
            return lw.potential_closed(th, solve_near(th, root).x)

        fd = lw.finite_diff_gradient(phi_on_constraint, (1, 1), 1e-5)
        eta = np.array(lw.dual_coordinates((1, 1), root, "total_derivative"))
        assert np.all(np.abs(eta - fd) <= 1e-5)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            lw.dual_coordinates((1, 1), 1.0, "nope")


class TestDualPotential:
    def test_unit_point(self):
        ev = lw.dual_potential((1, 1), 1.0)
        assert ev.psi == pytest.approx(-7 / 12, abs=1e-14)

    def test_legendre_residual_both_modes(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            a, b = rng.uniform(0.5, 2.5, 2)
            x = rng.uniform(0.5, 3.0)
            for mode in ("fixed_x", "total_derivative"):
                ev = lw.dual_potential((a, b), x, mode)
                assert abs(ev.legendre_residual) <= 1e-12

    def test_legendre_residual_at_root_total_mode(self):
        root = lw.solve_constraint((2, 0.5), (0.1, 50)).x
        ev = lw.dual_potential((2, 0.5), root, "total_derivative")
        assert abs(ev.legendre_residual) <= 1e-12


class TestLogitInformation:
    def test_hessian_matches_finite_differences(self):
        info = lw.logit_information((1, 1), 1.0)
        fd = lw.finite_diff_hessian(lambda th: lw.potential_closed(th, 1.0), (1, 1), 1e-4)
        assert np.allclose(info.hessian, fd, atol=1e-5)

    def test_inverse_identity(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            a, b = rng.uniform(0.5, 2.0, 2)
            x = rng.uniform(0.5, 2.0)
            info = lw.logit_information((a, b), x)
            if abs(info.detA) > 1e-6:
                assert np.allclose(info.matrix @ info.inverse, np.eye(2), atol=1e-10)

    def test_detA_is_hessian_determinant(self):
        info = lw.logit_information((1, 1), 1.0)
        assert info.detA == pytest.approx(float(np.linalg.det(info.hessian)), abs=1e-12)

    def test_printed_sign(self):
        info = lw.logit_information((1, 1), 1.0)
        assert np.allclose(info.matrix, -info.hessian)
        assert info.hessian_positive_definite is False  # indefinite at (1,1), x=1

    def test_total_mode_hessian_symmetric(self):
        root = lw.solve_constraint((1, 1)).x
        h = potential_hessian_total((1, 1), root)
        assert h[0, 1] == h[1, 0]


class TestScoreComponentGap:
    def test_gap_at_constraint_root(self):
        # the constraint pins x so that the two logit score components differ by
        # exactly 1/b - 1/2; equality therefore holds only at b = 2
        root = lw.solve_constraint((1, 1)).x
        s = lw.score((1, 1), root)
        assert s.d_a - s.d_b == pytest.approx(-(1 / 1 - 0.5), abs=1e-10)
        root2 = lw.solve_constraint((1, 2)).x
        s2 = lw.score((1, 2), root2)
        assert s2.d_a - s2.d_b == pytest.approx(0.0, abs=1e-10)
