"""Penalty toolkit for nonlinear semidefinite programming.

A twice continuously differentiable penalty for problems of the form
minimize f(x) subject to g(x) = 0 and G(x) PSD, with exact gradients and
Hessians, a second-order trust-region inner solver, an outer penalty method,
and first-/second-order sequential-optimality diagnostics.
"""

from .driver import (
    FEAS_OPT_REACHED,
    INNER_FAILURE,
    MAX_OUTER,
    IterateRecord,
    PenaltyConfig,
    SolveReport,
    solve,
)
from .errors import InvalidInputError, StartNotFeasibleError, UnknownProblemError
from .matfun import EigenDecomp, dq_apply, dq_coeff, eig_sym
from .model import DerivativeAuditReport, NsdpProblem, audit_derivatives, d2G_contract, dG_adjoint
from .optimality import (
    MultiplierPair,
    OptimalityResiduals,
    critical_subspace_basis,
    evaluate_residuals,
    infeasibility_u,
    jordan_complementarity,
    lagrangian_grad,
    lagrangian_hess,
    recover_multipliers,
    second_order_residual,
    sigma_term,
)
from .penalty import (
    PenaltyParams,
    PenaltyPoint,
    penalty_at,
    penalty_grad,
    penalty_hess,
    penalty_value,
    special_params,
)
from .problems import CorpusEntry, get_problem, list_problems
from .trustregion import TrResult, ms_subproblem, tr_minimize

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
