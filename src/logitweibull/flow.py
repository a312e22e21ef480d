"""Gradient flow on the logit Weibull manifold.

The published system is theta-dot = (1/A) adj(Hess Phi) grad Phi, which equals
+Hess^-1 grad Phi; 'descent' mode flips the sign to -Hess^-1 grad Phi so that
the flow descends Phi wherever the Hessian is positive definite.  Both signs
are kept: the printed system is reproducible verbatim, and the discrepancy is
reported rather than silently resolved.

With x pinned to the constraint root ('root' policy) the gradient and the
Hessian are total derivatives along the constraint surface: the gradient by
first-order implicit differentiation, the Hessian by the analytic second-order
formula H = J^T (Phi'' - (Phi_x/R_x) R'') J of logit.potential_hessian_total,
so one field evaluation costs one constraint solve.

Integration is classical fixed-step RK4 with step halving on quadrant exit or
non-finite field values, and a Lyapunov monitor over the recorded trajectory.
Each recorded state keeps its gradient and Hessian: they give the next step's
first RK4 stage and the monitor's definiteness test without re-evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .family import ThetaPoint, as_theta
from .logit import SingularInformationError, dual_coordinates, potential_closed, potential_hessian, solve_near

MIN_STEP = 1e-12
MAX_STEPS = 10**6  # bound on t_end/step, checked once per call


@dataclass(frozen=True)
class FlowState:
    t: float
    theta: ThetaPoint
    phi: float
    x: float  # the x actually used at this state (fixed or re-solved root)
    grad: np.ndarray = field(compare=False)  # grad Phi at (theta, x) under the x policy
    hess: np.ndarray = field(compare=False)  # Hess Phi at (theta, x) under the x policy


@dataclass
class FlowTrajectory:
    states: list[FlowState]
    x_policy: object  # float for fixed x, or the string "root"
    sign_mode: str
    accepted: int = 0
    rejected: int = 0
    min_step: float = math.inf
    aborted: str | None = None


def _resolve(theta, x_policy) -> tuple[float, str]:
    """Map an x policy to (x value, differentiation mode)."""
    if x_policy == "root":
        th = as_theta(theta)
        return solve_near(th, th.a).x, "total_derivative"
    return float(x_policy), "fixed_x"


def field_ingredients(theta, x_policy) -> tuple[np.ndarray, np.ndarray, float]:
    """(grad Phi, Hess Phi, x used) under the chosen x policy."""
    x, mode = _resolve(theta, x_policy)
    grad = np.array(dual_coordinates(theta, x, mode))
    return grad, potential_hessian(theta, x, mode), x


def _check_sign_mode(sign_mode: str) -> None:
    if sign_mode not in ("paper", "descent"):
        raise ValueError(f"unknown sign_mode {sign_mode!r}")


def _field(theta, grad: np.ndarray, hess: np.ndarray, sign_mode: str) -> tuple[float, float]:
    """The field from its ingredients; SingularInformationError when det Hess vanishes."""
    det_a = hess[0, 0] * hess[1, 1] - hess[0, 1] ** 2
    if abs(det_a) <= 1e-12:
        raise SingularInformationError(f"field is singular (det {det_a:g}) at {theta}")
    adot = (hess[1, 1] * grad[0] - hess[0, 1] * grad[1]) / det_a
    bdot = (-hess[0, 1] * grad[0] + hess[0, 0] * grad[1]) / det_a
    if sign_mode == "descent":
        adot, bdot = -adot, -bdot
    return float(adot), float(bdot)


def vector_field(theta, x_policy, sign_mode: str = "descent") -> tuple[float, float]:
    """The flow field at theta, componentwise as printed:
    a-dot = (Phi_bb Phi_a - Phi_ab Phi_b)/A, b-dot = (-Phi_ab Phi_a + Phi_aa Phi_b)/A
    with A = det(Hess Phi); 'descent' negates both components."""
    _check_sign_mode(sign_mode)
    grad, hess, _ = field_ingredients(theta, x_policy)
    return _field(theta, grad, hess, sign_mode)


def _state(t: float, theta: ThetaPoint, x_policy) -> FlowState:
    grad, hess, x = field_ingredients(theta, x_policy)
    return FlowState(t, theta, potential_closed(theta, x), x, grad, hess)


def integrate_flow(
    theta0,
    x_policy,
    sign_mode: str = "descent",
    t_end: float = 0.5,
    step: float = 1e-3,
) -> FlowTrajectory:
    """Integrate the flow from theta0 with classical RK4.

    The base step is retried with halving whenever a stage leaves the positive
    quadrant or produces non-finite values, or the field cannot be evaluated at
    the step's end; the run aborts (keeping the partial trajectory) on a
    singular field or when the step underflows MIN_STEP.  The first stage of
    each step is the field of the current state, from its stored ingredients.
    """
    th = as_theta(theta0)
    _check_sign_mode(sign_mode)
    for name, value in (("t_end", t_end), ("step", step)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    if t_end / step > MAX_STEPS:
        raise ValueError(f"t_end/step = {t_end / step:g} exceeds MAX_STEPS = {MAX_STEPS}")
    state = _state(0.0, th, x_policy)
    traj = FlowTrajectory([state], x_policy, sign_mode)

    def f(y: np.ndarray) -> np.ndarray:
        if y[0] <= 0.0 or y[1] <= 0.0 or not np.all(np.isfinite(y)):
            raise FloatingPointError("left the positive quadrant")
        return np.array(vector_field(ThetaPoint(float(y[0]), float(y[1])), x_policy, sign_mode))

    t = 0.0
    y = np.array([th.a, th.b])
    while t < t_end - 1e-15:
        h = min(step, t_end - t)
        while True:
            try:
                k1 = np.array(_field(state.theta, state.grad, state.hess, sign_mode))
                k2 = f(y + 0.5 * h * k1)
                k3 = f(y + 0.5 * h * k2)
                k4 = f(y + h * k3)
                y_new = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                if y_new[0] <= 0.0 or y_new[1] <= 0.0 or not np.all(np.isfinite(y_new)):
                    raise FloatingPointError("step left the positive quadrant")
                state = _state(t + h, ThetaPoint(float(y_new[0]), float(y_new[1])), x_policy)
                break
            except SingularInformationError as exc:
                traj.aborted = f"singular field: {exc}"
                return traj
            except (FloatingPointError, ValueError, OverflowError):
                traj.rejected += 1
                h *= 0.5
                if h < MIN_STEP:
                    traj.aborted = "step underflow"
                    return traj
        t += h
        y = y_new
        traj.accepted += 1
        traj.min_step = min(traj.min_step, h)
        traj.states.append(state)
    return traj


def lyapunov_report(trajectory: FlowTrajectory) -> dict:
    """Monitor of Phi along a trajectory.

    Reports the largest upward jump of Phi between consecutive states, the same
    restricted to segments where the potential Hessian (each state's stored
    Hessian) is positive definite at both ends, together with the number of
    such segments (when it is 0 the restricted jump is a vacuous 0.0), the
    fraction of states with a positive-definite Hessian, and the range of the
    dPhi/dt difference quotients.  Purely reporting: no assertion.
    """
    states = trajectory.states
    if not states:
        raise ValueError("empty trajectory")
    pd_flags = [bool(np.all(np.linalg.eigvalsh(s.hess) > 0.0)) for s in states]
    jumps = [b.phi - a.phi for a, b in zip(states, states[1:])]
    pd_jumps = [
        j for j, fa, fb in zip(jumps, pd_flags, pd_flags[1:]) if fa and fb
    ]
    rates = [
        (b.phi - a.phi) / (b.t - a.t) for a, b in zip(states, states[1:]) if b.t > a.t
    ]
    return {
        "n_states": len(states),
        "max_upward_jump": max(jumps, default=0.0) if jumps else 0.0,
        "max_upward_jump_while_pd": max(pd_jumps, default=0.0),
        "pd_segments": len(pd_jumps),
        "pd_fraction": sum(pd_flags) / len(pd_flags),
        "dphi_dt_min": min(rates, default=0.0),
        "dphi_dt_max": max(rates, default=0.0),
    }
