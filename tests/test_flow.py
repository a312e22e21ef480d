import math

import numpy as np
import pytest

import logitweibull as lw
from logitweibull import flow as flow_module
from logitweibull.flow import field_ingredients


class TestVectorField:
    def test_equals_matrix_form(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            a, b = rng.uniform(0.7, 1.8, 2)
            x = rng.uniform(0.6, 1.8)
            grad, hess, _ = field_ingredients((a, b), x)
            det = np.linalg.det(hess)
            if abs(det) <= 1e-6:
                continue
            expected = np.linalg.solve(hess, grad)
            v = np.array(lw.vector_field((a, b), x, "paper"))
            assert np.all(np.abs(v - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))

    def test_descent_is_negated_paper(self):
        vp = np.array(lw.vector_field((1, 1), 1.0, "paper"))
        vd = np.array(lw.vector_field((1, 1), 1.0, "descent"))
        assert np.allclose(vp, -vd, atol=0)

    def test_resolve_root_policy(self):
        v = lw.vector_field((1, 1), "root", "descent")
        assert all(math.isfinite(c) for c in v)

    def test_unknown_sign_mode(self):
        with pytest.raises(ValueError):
            lw.vector_field((1, 1), 1.0, "sideways")


class TestIntegrateFlow:
    def test_deterministic(self):
        t1 = lw.integrate_flow((1, 1), 1.0, "descent", t_end=0.1, step=1e-3)
        t2 = lw.integrate_flow((1, 1), 1.0, "descent", t_end=0.1, step=1e-3)
        assert [(s.t, s.theta.a, s.theta.b, s.phi) for s in t1.states] == [
            (s.t, s.theta.a, s.theta.b, s.phi) for s in t2.states
        ]

    def test_time_strictly_increasing(self):
        traj = lw.integrate_flow((1, 1), 1.0, "descent", t_end=0.1, step=1e-3)
        ts = [s.t for s in traj.states]
        assert all(t2 > t1 for t1, t2 in zip(ts, ts[1:]))
        assert traj.aborted is None

    def test_descent_phi_nonincreasing(self):
        traj = lw.integrate_flow((1, 1), 1.0, "descent", t_end=0.5, step=1e-3)
        phis = [s.phi for s in traj.states]
        assert max(b - a for a, b in zip(phis, phis[1:])) <= 1e-8

    def test_rk4_order(self):
        def final(h):
            t = lw.integrate_flow((1, 1), 1.0, "descent", t_end=0.2, step=h)
            s = t.states[-1]
            return np.array([s.theta.a, s.theta.b])

        y1, y2, y4 = final(0.02), final(0.01), final(0.005)
        order = math.log2(np.linalg.norm(y1 - y2) / np.linalg.norm(y2 - y4))
        assert order >= 3.5

    def test_rejects_bad_t_end(self):
        with pytest.raises(ValueError):
            lw.integrate_flow((1, 1), 1.0, "descent", t_end=0.0)


class TestLyapunovReport:
    def test_monitor_fields(self):
        traj = lw.integrate_flow((1, 1), 1.0, "descent", t_end=0.1, step=2e-3)
        rep = lw.lyapunov_report(traj)
        assert rep["n_states"] == len(traj.states)
        assert rep["max_upward_jump"] <= 1e-8
        assert 0.0 <= rep["pd_fraction"] <= 1.0
        assert rep["dphi_dt_max"] <= 0.0

    def test_paper_sign_report_emitted(self):
        # report is emitted regardless of monotonicity; no assertion on the sign
        traj = lw.integrate_flow((1, 1), 1.0, "paper", t_end=0.05, step=2e-3)
        rep = lw.lyapunov_report(traj)
        assert "max_upward_jump" in rep and "pd_fraction" in rep

    def test_empty_trajectory_rejected(self):
        from logitweibull.flow import FlowTrajectory

        with pytest.raises(ValueError):
            lw.lyapunov_report(FlowTrajectory([], 1.0, "descent"))


class TestInvalidSteps:
    @pytest.mark.parametrize(
        "name, kwargs",
        [
            ("step", {"step": 0.0}),
            ("step", {"step": -1.0, "t_end": 3.0}),
            ("step", {"step": math.nan}),
            ("step", {"step": math.inf}),
            ("t_end", {"t_end": 0.0}),
            ("t_end", {"t_end": -0.5}),
            ("t_end", {"t_end": math.nan}),
            ("t_end", {"t_end": math.inf}),
        ],
    )
    def test_rejected_before_integrating(self, name, kwargs):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            lw.integrate_flow((1, 1), 1.0, "descent", **kwargs)

    def test_unknown_sign_mode(self):
        with pytest.raises(ValueError):
            lw.integrate_flow((1, 1), 1.0, "sideways", t_end=0.01)

    def test_step_count_bounded_before_any_state(self, monkeypatch):
        def no_state(*args):
            raise AssertionError("a state was evaluated")

        monkeypatch.setattr(flow_module, "field_ingredients", no_state)
        with pytest.raises(ValueError, match="exceeds MAX_STEPS"):
            lw.integrate_flow((1, 1), 1.0, t_end=0.5, step=1e-13)
        with pytest.raises(ValueError, match="exceeds MAX_STEPS"):
            lw.integrate_flow((1, 1), 1.0, t_end=1.0, step=0.999e-6)

    def test_step_count_at_the_bound_runs(self, monkeypatch):
        monkeypatch.setattr(flow_module, "MAX_STEPS", 10)
        assert lw.integrate_flow((1, 1), 1.0, t_end=0.01, step=1e-3).accepted == 10


class TestStoredIngredients:
    @pytest.mark.parametrize("x_policy", [1.0, "root"])
    def test_states_carry_their_ingredients(self, x_policy):
        traj = lw.integrate_flow((1.3, 2.2), x_policy, "descent", t_end=0.005, step=1e-3)
        for s in traj.states:
            grad, hess, x = field_ingredients(s.theta, x_policy)
            assert s.x == x
            assert np.array_equal(s.grad, grad) and np.array_equal(s.hess, hess)

    def test_one_solve_per_field_evaluation(self, monkeypatch):
        # root mode: one solve for the start state, then per step three stages
        # (k2, k3, k4) and the new state; k1 and the Lyapunov monitor reuse
        calls = []
        original = flow_module.solve_near

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(flow_module, "solve_near", counting)
        traj = lw.integrate_flow((1.3, 2.2), "root", "descent", t_end=0.01, step=1e-3)
        assert traj.accepted == 10 and traj.rejected == 0 and traj.aborted is None
        assert len(calls) == 1 + 4 * traj.accepted
        calls.clear()
        rep = lw.lyapunov_report(traj)
        assert rep["n_states"] == 11 and not calls


class TestLyapunovCoverage:
    def test_positive_definite_trajectory_exercises_the_clause(self):
        traj = lw.integrate_flow((3, 2), 1.0, "descent", t_end=0.1, step=1e-3)
        rep = lw.lyapunov_report(traj)
        assert rep["n_states"] == 101
        assert rep["pd_fraction"] == 1.0
        assert rep["pd_segments"] == 100
        assert rep["max_upward_jump_while_pd"] < 0.0

    def test_vacuous_clause_is_visible(self):
        # indefinite Hessian along the whole run from (1, 1): no segment is
        # covered, so the restricted jump is the empty-max default 0.0
        traj = lw.integrate_flow((1, 1), 1.0, "descent", t_end=0.1, step=1e-3)
        rep = lw.lyapunov_report(traj)
        assert rep["pd_fraction"] == 0.0
        assert rep["pd_segments"] == 0
        assert rep["max_upward_jump_while_pd"] == 0.0
