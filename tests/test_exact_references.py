"""Quadrature oracles against the exact Weibull references.

Every audited expectation is a combination of Gamma-function derivatives at
1, 2 and 3 (Cohen 1965 for the Fisher information), so each oracle value has
an exact counterpart.  The theta set spans the corners of the box
a in [0.2, 5], b in [0.2, 8], where the density is most singular (b = 0.2)
or most peaked (b = 8).
"""

import math

import pytest

import logitweibull as lw
from logitweibull.family import EULER_GAMMA

THETAS = [(0.2, 0.2), (5.0, 0.2), (1.0, 1.0), (2.0, 0.5), (0.5, 4.0), (0.2, 8.0), (5.0, 8.0), (1.3, 2.7)]
REL_TOL = 1e-12
K = 1.0 - EULER_GAMMA  # Gamma'(2)
Z = math.pi**2 / 6  # psi'(1)


def exact_metric(a, b):
    """Exact Weibull Fisher information (g11, g12, g22)."""
    return b**2 / a**2, -K / a, (K**2 + Z) / b**2


def exact_moments(a, b):
    """Exact E[x^b], E[log x], E[x^b log x], E[x^b log^2 x], each as the
    tuple of its terms, so the tolerance can scale with their sizes."""
    la, ab = math.log(a), a**b
    return {
        "E[x^b]": (ab,),
        "E[log x]": (la, -EULER_GAMMA / b),
        "E[x^b log x]": (ab * la, ab * K / b),
        "E[x^b log^2 x]": (ab * la**2, 2 * ab * K * la / b, ab * (K**2 + Z - 1) / b**2),
    }


def assert_rel(value, terms):
    scale = sum(abs(t) for t in terms)
    assert abs(value - sum(terms)) <= REL_TOL * scale, (value, sum(terms))


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("route", [lw.metric_numeric_hessian, lw.metric_numeric_outer])
def test_metric_routes_match_exact_information(theta, route):
    m = route(theta)
    for got, want in zip((m.g11, m.g12, m.g22), exact_metric(*theta)):
        assert_rel(got, (want,))


@pytest.mark.parametrize("theta", THETAS)
def test_audited_moments_match_gamma_derivative_forms(theta):
    recs = {r.name: r for r in lw.compare_metrics(theta)}
    for name, terms in exact_moments(*theta).items():
        assert_rel(recs[name].oracle_value, terms)
    for name, want in zip(("g11", "g12", "g22"), exact_metric(*theta)):
        assert_rel(recs[name].oracle_value, (want,))


def test_default_grid_oracles_within_tolerance_of_exact():
    for a in (0.5, 1.0, 2.0):
        for b in (0.5, 1.0, 2.0, 4.0):
            recs = {r.name: r for r in lw.verification_records((a, b))}
            for name, terms in exact_moments(a, b).items():
                assert_rel(recs[name].oracle_value, terms)
            for name, want in zip(("g11", "g12", "g22"), exact_metric(a, b)):
                assert_rel(recs[name].oracle_value, (want,))


def test_thirty_digit_spot_value():
    # E[x^b log^2 x] at (a, b) = (0.2, 0.2) by mpmath's tanh-sinh rule at 30
    # digits, in u = (x/a)^b where the integrand is u (log a + log u / b)^2 a^b
    # e^-u; it checks the exact form and the oracle at once
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        a, b = mpmath.mpf("0.2"), mpmath.mpf("0.2")
        la = mpmath.log(a)
        f = lambda u: a**b * u * (la + mpmath.log(u) / b) ** 2 * mpmath.exp(-u)
        spot = mpmath.quad(f, [0, 1, 10, 100, mpmath.inf])
        k = 1 - mpmath.euler
        exact = a**b * (la**2 + 2 * k * la / b + (k**2 + mpmath.pi**2 / 6 - 1) / b**2)
        assert abs(spot - exact) <= mpmath.mpf(10) ** -28 * abs(exact)
        spot = float(spot)
    recs = {r.name: r for r in lw.compare_metrics((0.2, 0.2))}
    assert abs(recs["E[x^b log^2 x]"].oracle_value - spot) <= REL_TOL * abs(spot)
