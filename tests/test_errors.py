"""Every array a caller passes, and every hook output, is read by ``errors.real_array``."""

import dataclasses

import numpy as np
import pytest

from nsdpen import cli, driver, matfun, model, optimality, penalty, trustregion
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
    "sym_to_lower": ("Z", (2, 2), lambda prob, at, bad: cli.sym_to_lower(bad)),
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


# (a call that reads a value of the wrong shape or type, the message it must raise)
WRONG = {
    # only a square matrix has a lower triangle to write
    "sym_to_lower (2, 3)": (lambda prob: cli.sym_to_lower(np.zeros((2, 3))),
                            r"Z must be a square matrix, got shape \(2, 3\)"),
    "sym_to_lower (2, 2, 2)": (lambda prob: cli.sym_to_lower(np.zeros((2, 2, 2))), "Z must be a square matrix"),
    "sym_to_lower (3,)": (lambda prob: cli.sym_to_lower(np.zeros(3)), "Z must be a square matrix"),
    # dim is read as it is, not rounded or parsed: 2.9, "2", True and NaN are no integer dim
    **{f"lower_to_sym dim={dim!r}": (lambda prob, dim=dim: cli.lower_to_sym({"dim": dim, "lower": [1.0, 2.0, 3.0]}),
                                     "dim must be an integer in")
       for dim in (2.9, "2", True, float("nan"), -1)},
    # a config or problem of another type is named, not read; only None selects the default config
    "solve config str": (lambda prob: driver.solve(prob, "cfg"), "config must be a PenaltyConfig, got str$"),
    "solve config class": (lambda prob: driver.solve(prob, driver.PenaltyConfig),
                           "config must be a PenaltyConfig, got type$"),
    "solve config falsy": (lambda prob: driver.solve(prob, 0), "config must be a PenaltyConfig, got int$"),
    "solve config TrConfig": (lambda prob: driver.solve(prob, trustregion.TrConfig()),
                              "config must be a PenaltyConfig, got TrConfig$"),
    "solve prob": (lambda prob: driver.solve("prob"), "prob must be a NsdpProblem, got str$"),
    "tr_minimize config str": (lambda prob: tr_minimize_with(prob, "c"), "config must be a TrConfig, got str$"),
    "tr_minimize config falsy": (lambda prob: tr_minimize_with(prob, []), "config must be a TrConfig, got list$"),
    "tr_minimize config PenaltyConfig": (lambda prob: tr_minimize_with(prob, driver.PenaltyConfig()),
                                         "config must be a TrConfig, got PenaltyConfig$"),
    "PenaltyConfig tr": (lambda prob: driver.PenaltyConfig(tr=None), "tr must be a TrConfig, got NoneType$"),
}


def tr_minimize_with(prob, config):
    """tr_minimize on ``prob``'s script_F penalty from its start point, under ``config``."""
    def at(z):
        return script_F_point(prob, z)
    return trustregion.tr_minimize(lambda z: at(z).value, lambda z: at(z).grad,
                                   lambda z: penalty.penalty_hess(at(z)), prob.start_point, 1e-6, config)


@pytest.mark.parametrize("case", WRONG)
def test_wrong_shape_or_type_named_before_any_hook_call(case):
    call, message = WRONG[case]
    prob, counts = counting(ball_problem(2, m=1))
    with pytest.raises(InvalidInputError, match=f"^{message}"):
        call(prob)
    assert not any(counts.values())
