"""The exp-sinh quadrature path: truncation, failure modes, scalar callbacks,
the dependency footprint, and a QUADPACK cross-check."""

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import logitweibull as lw
from logitweibull import oracles
from logitweibull.oracles import QuadratureConfig, QuadratureError


class TestTruncation:
    def test_range_keeps_the_mass_of_a_singular_density(self):
        # with |t| <= 4 the rule loses 3e-6 of this mass near x = 0
        assert oracles.T_MAX == 5
        r = lw.integrate_halfline(lambda x: lw.pdf((0.5, 0.3), x))
        assert r.value == pytest.approx(1.0, abs=1e-12)

    def test_divergent_integrand_raises(self):
        with pytest.raises(QuadratureError):
            lw.integrate_halfline(lambda x: 1.0 / (1.0 + x))

    def test_mass_cut_off_by_the_truncation_raises(self):
        # level doubling converges here, to a value 8e-10 short of 1 (the
        # mass below x ~ 2e-51); only the terms at |t| = T_MAX reveal it
        with pytest.raises(QuadratureError, match="truncation"):
            lw.integrate_halfline(lambda x: lw.pdf((0.5, 0.18), x))


class TestFailurePath:
    def test_nan_integrand_raises(self):
        with pytest.raises(QuadratureError, match="non-finite"):
            lw.integrate_halfline(lambda x: np.where(x > 2.0, np.nan, np.exp(-x)))

    def test_halving_cap_is_enforced(self):
        with pytest.raises(QuadratureError, match="did not converge"):
            lw.integrate_halfline(lambda x: np.exp(-x), QuadratureConfig(max_subdivisions=2))
        r = lw.integrate_halfline(lambda x: np.exp(-x), QuadratureConfig(max_subdivisions=6))
        assert r.value == pytest.approx(1.0, abs=1e-14)

    def test_overflow_at_far_nodes_gives_zero_without_warning(self, recwarn):
        # (x/a)^b overflows at the largest nodes; the density is 0 there
        r = lw.integrate_halfline(lambda x: lw.pdf((0.5, 8.0), x))
        assert r.value == pytest.approx(1.0, abs=1e-12)
        assert len(recwarn) == 0


class TestEvaluation:
    def test_error_estimate_and_evaluation_count(self):
        r = lw.integrate_halfline(lambda x: np.exp(-x))
        assert r.value == pytest.approx(1.0, abs=1e-14)
        assert 0.0 <= r.error_estimate <= 1e-10
        assert r.evaluations in oracles.LEVEL_END

    def test_scalar_only_callback_matches_vectorised(self):
        v = lw.expectation_quadrature((2.0, 0.5), np.log)
        s = lw.expectation_quadrature((2.0, 0.5), math.log)
        assert s.value == pytest.approx(v.value, rel=1e-14)
        assert s.evaluations == v.evaluations

    def test_g_not_evaluated_where_the_weight_underflows(self):
        seen = []

        def g(x):
            seen.append(np.max(x))
            return np.ones_like(x)

        r = lw.expectation_quadrature((1.0, 1.0), g)
        assert r.value == pytest.approx(1.0, abs=1e-14)
        # e^-u > 0 only for u below about 745
        assert max(seen) < 746.0

    def test_family_functions_take_arrays(self):
        x = np.array([0.5, 1.0, 2.0])
        th = (1.5, 0.7)
        assert np.allclose(lw.pdf(th, x), [lw.pdf(th, v) for v in x], rtol=1e-14, atol=0)
        s = lw.score(th, x)
        assert np.allclose(s.d_b, [lw.score(th, v).d_b for v in x], rtol=1e-14, atol=0)
        h = lw.log_likelihood_hessian(th, x)
        assert np.allclose(h.h_bb, [lw.log_likelihood_hessian(th, v).h_bb for v in x], rtol=1e-14, atol=0)
        assert isinstance(lw.pdf(th, 1.0), float) and isinstance(lw.score(th, 1.0).d_a, float)
        with pytest.raises(ValueError):
            lw.pdf(th, np.array([1.0, 0.0]))

    def test_montecarlo_shares_the_scalar_fallback(self):
        v = lw.expectation_montecarlo((1, 1), np.log, 0, 1000)
        s = lw.expectation_montecarlo((1, 1), math.log, 0, 1000)
        assert s == v


def test_import_does_not_load_scipy():
    code = "import sys, logitweibull.cli; print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"
    # the child imports the package from where this process found it
    src = str(pathlib.Path(lw.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


class TestAgainstQuadpack:
    """scipy's QUADPACK as a test-time cross-check of integrate_halfline."""

    @pytest.mark.parametrize(
        "f",
        [
            lambda x: math.exp(-x),
            lambda x: x * math.exp(-x),
            lambda x: lw.pdf((1.5, 2.5), x) * x**2.5,
            lambda x: lw.pdf((0.5, 4.0), x),
            lambda x: lw.logit_density((1.3, 0.8), 1, x),  # x^-0.2 singularity at 0
            lambda x: lw.pdf((1.3, 0.8), x) * math.log(x) ** 2,
        ],
    )
    def test_matches_quad(self, f):
        quad = pytest.importorskip("scipy.integrate").quad
        expected = quad(f, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
        expected += quad(f, 1.0, math.inf, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
        assert lw.integrate_halfline(f).value == pytest.approx(expected, rel=1e-10, abs=1e-12)
