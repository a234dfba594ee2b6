"""Every array a caller passes, and every hook output, is read by ``errors.real_array``."""

import dataclasses

import numpy as np
import pytest

from nsdpen import cli, matfun, model, optimality, penalty, trustregion
from nsdpen.errors import InvalidInputError, real_array

from conftest import ball_problem, counting, script_F_point

# ball_problem(2, m=1): n = 3, m = 1, d = 2
X, Y, Z = np.zeros(3), np.zeros(1), np.eye(2)
PARAMS = dict(rho=1.0, sigma=1.0, tau=1.0)

# (argument name, the shape of a good value, a call that reads the bad value as that argument)
READERS = {
    "start_point": ("start_point", (3,), lambda prob, at, bad: dataclasses.replace(prob, start_point=bad)),
    "penalty_at": ("x", (3,), lambda prob, at, bad: penalty.penalty_at(prob, bad, at.p)),
    "PenaltyParams.v": ("v", (1,), lambda prob, at, bad: penalty.PenaltyParams(v=bad, M=None, **PARAMS)),
    "PenaltyParams.M": ("M", (2, 2), lambda prob, at, bad: penalty.PenaltyParams(v=None, M=bad, **PARAMS)),
    "dG_adjoint.Z": ("Z", (2, 2), lambda prob, at, bad: model.dG_adjoint(np.zeros((3, 2, 2)), bad)),
    "d2G_contract.x": ("x", (3,), lambda prob, at, bad: model.d2G_contract(prob, bad, Z)),
    "d2G_contract.W": ("W", (2, 2), lambda prob, at, bad: model.d2G_contract(prob, X, bad)),
    "lagrangian_grad.x": ("x", (3,), lambda prob, at, bad: optimality.lagrangian_grad(prob, bad, Y, Z)),
    "lagrangian_grad.y": ("y", (1,), lambda prob, at, bad: optimality.lagrangian_grad(prob, X, bad, Z)),
    "lagrangian_grad.Z": ("Z", (2, 2), lambda prob, at, bad: optimality.lagrangian_grad(prob, X, Y, bad)),
    "lagrangian_hess.x": ("x", (3,), lambda prob, at, bad: optimality.lagrangian_hess(prob, bad, Y, Z)),
    "lagrangian_hess.y": ("y", (1,), lambda prob, at, bad: optimality.lagrangian_hess(prob, X, bad, Z)),
    "lagrangian_hess.Z": ("Z", (2, 2), lambda prob, at, bad: optimality.lagrangian_hess(prob, X, Y, bad)),
    "jordan_complementarity": ("Z", (2, 2), lambda prob, at, bad: optimality.jordan_complementarity(at, bad)),
    "sigma_term": ("Z", (2, 2), lambda prob, at, bad: optimality.sigma_term(at, bad)),
    "second_order_residual": ("basis", (3, 1), lambda prob, at, bad: optimality.second_order_residual(at, Y, Z, bad)),
    "eig_sym": ("X", (2, 2), lambda prob, at, bad: matfun.eig_sym(bad)),
    "dq_apply": ("H", (2, 2), lambda prob, at, bad: matfun.dq_apply(matfun.eig_sym(Z), bad)),
    "ms_subproblem.B": ("B", (2, 2), lambda prob, at, bad: trustregion.ms_subproblem(bad, np.ones(2), 1.0)),
    "ms_subproblem.grad": ("grad", (2,), lambda prob, at, bad: trustregion.ms_subproblem(Z, bad, 1.0)),
    "tr_minimize": ("x0", (3,), lambda prob, at, bad: trustregion.tr_minimize(
        lambda z: penalty.penalty_at(prob, z, at.p).value, lambda z: penalty.penalty_at(prob, z, at.p).grad,
        lambda z: penalty.penalty_hess(penalty.penalty_at(prob, z, at.p)), bad, 1e-6)),
    "audit_derivatives": ("x", (3,), lambda prob, at, bad: model.audit_derivatives(prob, bad)),
    "lower_to_sym": ("lower", (3,), lambda prob, at, bad: cli.lower_to_sym({"dim": 2, "lower": bad})),
}

BAD = {
    "complex": (lambda shape: np.full(shape, 1.0 + 1.0j), "must be real numbers, got complex128"),
    "ragged": (lambda shape: [[0.0], [0.0, 0.0]], "is ragged"),
    "strings": (lambda shape: np.full(shape, "a").tolist(), "must be real numbers, got <U1"),
}


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("reader", READERS)
def test_bad_argument_named_before_any_hook_call(reader, bad):
    # a complex value lost its imaginary part behind a ComplexWarning, and a ragged or string
    # value escaped as numpy's bare ValueError
    name, shape, call = READERS[reader]
    make, message = BAD[bad]
    prob, counts = counting(ball_problem(2, m=1))
    at = script_F_point(prob, prob.start_point)
    counts.update(dict.fromkeys(counts, 0))
    with pytest.raises(InvalidInputError, match=f"^{name} {message}"):
        call(prob, at, make(shape))
    assert not any(counts.values())


def test_real_values_read_as_floats():
    x = np.arange(3.0)
    assert real_array("x", x) is x  # a float array is not copied
    for value in ([1, 2], [True, False], np.arange(2, dtype=np.int32), np.float32([1.5, 2.5])):
        out = real_array("x", value, (2,))
        assert out.dtype == np.float64 and out.tolist() == np.asarray(value).tolist()
