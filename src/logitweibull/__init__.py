"""Numerical toolkit for the Weibull statistical manifold and its logit extension."""

__version__ = "0.1.0"

from .family import (
    EULER_GAMMA,
    GumbelLink,
    LogLikHessian,
    ScoreVector,
    ThetaPoint,
    as_theta,
    gumbel_link,
    log_likelihood,
    log_likelihood_hessian,
    moment_log_paper,
    moment_xb,
    moment_xb_log2_paper,
    moment_xb_log_paper,
    pdf,
    sample,
    score,
)
from .fisher import (
    MetricIntermediates,
    MetricTensor2,
    compare_metrics,
    integrability_residual,
    intermediates,
    metric_numeric_hessian,
    metric_numeric_outer,
    metric_paper,
    metric_paper_inverse,
    verify_inverse,
)
from .flow import FlowState, FlowTrajectory, integrate_flow, lyapunov_report, vector_field
from .logit import (
    ConstraintRoot,
    GroupElement,
    PotentialEval,
    action,
    constraint_residual,
    dual_coordinates,
    dual_potential,
    iota_product,
    link_function,
    logit_density,
    logit_information,
    potential_closed,
    potential_integral,
    potential_jet,
    solve_constraint,
)
from .oracles import (
    BracketError,
    OracleValue,
    QuadratureConfig,
    QuadratureError,
    expectation_montecarlo,
    expectation_quadrature,
    find_root_bracketed,
    finite_diff_gradient,
    finite_diff_hessian,
    integrate_halfline,
    nested_polynomial_integral,
)
from .verify import VerificationRecord, make_record, verification_records
