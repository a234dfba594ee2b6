"""Every array a caller passes, and every hook output, is read by ``errors.real_array``."""

import dataclasses
import re

import numpy as np
import pytest

from nsdpen import cli, driver, matfun, model, optimality, penalty, problems, trustregion
from nsdpen.errors import InvalidInputError, real_array

from conftest import ball_problem, counting, rng, script_F_point

# ball_problem(2, m=1): n = 3, m = 1, d = 2
X, Y, Z = np.zeros(3), np.zeros(1), np.eye(2)
PARAMS = dict(rho=1.0, sigma=1.0, tau=1.0)

# (argument name, the shape of a good value, a call that reads the bad value as that argument)
READERS = {
    "start_point": ("start_point", (3,), lambda prob, at, bad: dataclasses.replace(prob, start_point=bad)),
    "penalty_at": ("x", (3,), lambda prob, at, bad: penalty.penalty_at(prob, bad, at.p)),
    "PenaltyParams.v": ("v", (1,), lambda prob, at, bad: penalty.PenaltyParams(v=bad, M=None, **PARAMS)),
    "PenaltyParams.M": ("M", (2, 2), lambda prob, at, bad: penalty.PenaltyParams(v=None, M=bad, **PARAMS)),
    "dG_adjoint.Gs": ("Gs", (3, 2, 2), lambda prob, at, bad: model.dG_adjoint(bad, Z)),
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
    "solve config PenaltyParams": (lambda prob: driver.solve(prob, penalty.special_params("script_P")),
                                   "config must be a PenaltyConfig, got PenaltyParams$"),
    "solve prob": (lambda prob: driver.solve("prob"), "prob must be a NsdpProblem, got str$"),
    # the inner iteration cap is an integer of at least 1; only None selects trustregion.MAX_ITER
    **{f"tr_minimize max_iter={max_iter!r}": (
        lambda prob, max_iter=max_iter: tr_minimize_with(prob, max_iter),
        rf"max_iter must be an integer in \[1, inf\], got {re.escape(repr(max_iter))}$")
       for max_iter in ("c", [], 1e4)},
    # each function taking a problem or a penalty point names one of another type, as solve does
    **{f"{name} prob": (lambda prob, call=call: call("prob"), "prob must be a NsdpProblem, got str$")
       for name, call in {
           "penalty_at": lambda prob: penalty.penalty_at(prob, X, penalty.special_params("script_P")),
           "audit_derivatives": lambda prob: model.audit_derivatives(prob, X),
           "d2G_contract": lambda prob: model.d2G_contract(prob, X, Z),
           "hess_fg": lambda prob: model.hess_fg(prob, X, 1.0, Y),
           "lagrangian_grad": lambda prob: optimality.lagrangian_grad(prob, X, Y, Z),
           "lagrangian_hess": lambda prob: optimality.lagrangian_hess(prob, X, Y, Z),
       }.items()},
    **{f"{name} at": (lambda prob, call=call: call("at"), "at must be a PenaltyPoint, got str$")
       for name, call in {
           "penalty_value": penalty.penalty_value,
           "penalty_grad": penalty.penalty_grad,
           "penalty_hess": penalty.penalty_hess,
           "recover_multipliers": optimality.recover_multipliers,
           "jordan_complementarity": lambda at: optimality.jordan_complementarity(at, Z),
           "sigma_term": lambda at: optimality.sigma_term(at, Z),
           "infeasibility_u": optimality.infeasibility_u,
           "critical_subspace_basis": lambda at: optimality.critical_subspace_basis(at, 0),
           "second_order_residual": lambda at: optimality.second_order_residual(at, Y, Z, np.zeros((3, 1))),
           "evaluate_residuals": lambda at: optimality.evaluate_residuals(at, 0),
           "estimate_b_count": lambda at: driver.estimate_b_count(at, 0.0),
       }.items()},
    "penalty_at params": (lambda prob: penalty.penalty_at(prob, X, "p"), "p must be a PenaltyParams, got str$"),
    # a shift of another shape than (m,) or (d, d) is named before g or G is called, also where m = 0 or d = 0
    **{f"penalty_at {name}": (lambda prob, shrink=shrink, shift=shift: penalty.penalty_at(
        dataclasses.replace(prob, **shrink), X, penalty.PenaltyParams(**shift, **PARAMS)), message)
       for name, shrink, shift, message in (
           ("v (4,)", {}, dict(v=np.zeros(4), M=None), r"v must have shape \(1,\), got \(4,\)$"),
           ("M (3, 3)", {}, dict(v=None, M=np.zeros((3, 3))), r"M must have shape \(2, 2\), got \(3, 3\)$"),
           ("v (4,) m=0", dict(m=0, g=None, jac_g=None, hess_g=None), dict(v=np.zeros(4), M=None),
            r"v must have shape \(0,\), got \(4,\)$"),
           ("M (3, 3) d=0", dict(d=0, G=None, dG=None, d2G=None), dict(v=None, M=np.zeros((3, 3))),
            r"M must have shape \(0, 0\), got \(3, 3\)$"))},
    # the point is made from another problem, whose hook calls are not counted
    "reweighted params": (lambda prob: script_F_point(ball_problem(2, m=1), X).reweighted("p"),
                          "p must be a PenaltyParams, got str$"),
    # a point built with shifts holds eig(M/tau - G), not eig(-G): at nearest-psd's x = (0.5, 0.5, 0.5) with M = 5I
    # it counted b = 2, where the unshifted point counts 1
    "estimate_b_count shifted": (lambda prob: driver.estimate_b_count(penalty.penalty_at(
        problems.get_problem("nearest-psd").problem, np.full(3, 0.5),
        penalty.PenaltyParams(v=None, M=5.0 * np.eye(2), **PARAMS)), 0.0),
        "certificates need a penalty point built with v = M = None$"),
    # degenerate inputs: no unknowns or a matrix of them, a stack of another rank, a document that is no dict
    # or misses an entry
    **{f"ms_subproblem grad {shape}": (
        lambda prob, shape=shape: trustregion.ms_subproblem(np.eye(2), np.zeros(shape), 1.0),
        f"grad must be a vector of at least one entry, got shape {re.escape(str(shape))}$")
       for shape in ((0,), (2, 2))},
    **{f"tr_minimize x0 {shape}": (
        lambda prob, shape=shape: trustregion.tr_minimize(prob.f, prob.grad_f, prob.hess_f, np.zeros(shape), 1e-6),
        f"x0 must be a vector of at least one entry, got shape {re.escape(str(shape))}$")
       for shape in ((0,), (2, 2))},
    "dG_adjoint (3, 4)": (lambda prob: model.dG_adjoint(np.zeros((3, 4)), Z),
                          r"Gs must be an \(n, d, d\) stack, got shape \(3, 4\)$"),
    "dG_adjoint (3, 2, 3)": (lambda prob: model.dG_adjoint(np.zeros((3, 2, 3)), Z),
                             r"Gs must be an \(n, d, d\) stack, got shape \(3, 2, 3\)$"),
    "lower_to_sym list": (lambda prob: cli.lower_to_sym([2, [1.0, 2.0, 3.0]]), "doc must be a dict, got list$"),
    "lower_to_sym no lower": (lambda prob: cli.lower_to_sym({"dim": 2}), "doc has no 'lower' entry$"),
    "lower_to_sym no dim": (lambda prob: cli.lower_to_sym({"lower": [1.0]}), "doc has no 'dim' entry$"),
}


def tr_minimize_with(prob, max_iter):
    """tr_minimize on ``prob``'s script_F penalty from its start point, capped at ``max_iter`` iterations."""
    def at(z):
        return script_F_point(prob, z)
    return trustregion.tr_minimize(lambda z: at(z).value, lambda z: at(z).grad,
                                   lambda z: penalty.penalty_hess(at(z)), prob.start_point, 1e-6, max_iter)


@pytest.mark.parametrize("case", WRONG)
def test_wrong_shape_or_type_named_before_any_hook_call(case):
    call, message = WRONG[case]
    prob, counts = counting(ball_problem(2, m=1))
    with pytest.raises(InvalidInputError, match=f"^{message}"):
        call(prob)
    assert not any(counts.values())


# each public reader of a hook's output, with the hooks it reads at an infeasible point of ball_problem(2, m=1)
# (rho = 1 and r != 0, so penalty_hess and lagrangian_hess read hess_f and hess_g); a penalty point is built anew
HOOK_READERS = {
    "penalty_at": ({"g", "G"}, lambda prob, x: script_F_point(prob, x, 3.0)),
    "penalty_value": ({"g", "G", "f"}, lambda prob, x: penalty.penalty_value(script_F_point(prob, x, 3.0))),
    "penalty_grad": ({"g", "G", "grad_f", "jac_g", "dG"},
                     lambda prob, x: penalty.penalty_grad(script_F_point(prob, x, 3.0))),
    "penalty_hess": ({"g", "G", "hess_f", "hess_g", "jac_g", "dG", "d2G"},
                     lambda prob, x: penalty.penalty_hess(script_F_point(prob, x, 3.0))),
    "lagrangian_grad": ({"grad_f", "jac_g", "dG"}, lambda prob, x: optimality.lagrangian_grad(prob, x, np.ones(1), Z)),
    "lagrangian_hess": ({"hess_f", "hess_g", "d2G"},
                        lambda prob, x: optimality.lagrangian_hess(prob, x, np.ones(1), Z)),
    "d2G_contract": ({"d2G"}, lambda prob, x: model.d2G_contract(prob, x, Z)),
}


# the shapes of wrong outputs other than a trailing axis: a scalar Hessian used to be broadcast into every entry, and
# a transposed Jacobian escaped as numpy's bare shape error; a scalar g (m = 1) or partial of G would broadcast alike
WRONG_OUTPUTS = {"grad_f": (), "hess_f": (3,), "g": (), "jac_g": (1, 3), "hess_g": (), "G": (2, 3), "dG": (),
                 "d2G": ()}


@pytest.mark.parametrize("hook,got", [
    *[pytest.param(hook, (*model._shape(ball_problem(2, m=1), hook), 1), id=hook) for hook in model.HOOK_SHAPES],
    *[pytest.param(hook, got, id=f"{hook}-{got}") for hook, got in WRONG_OUTPUTS.items()],
])
def test_wrong_hook_shape_named_alike_by_every_reader(hook, got):
    # every output of the hook is a zero array of shape got; each public function that reads it raises one message,
    # the others do not read it, and the audit records inf for the derivative it checks with it
    base = ball_problem(2, m=1)
    prob = dataclasses.replace(base, **{hook: lambda *args: np.zeros(got)})
    message = re.escape(f"{hook} must have shape {model._shape(base, hook)}, got {got}")
    x = rng(115).normal(size=base.n)
    for reads, call in HOOK_READERS.values():
        if hook in reads:
            with pytest.raises(InvalidInputError, match=f"^{message}$"):
                call(prob, x)
        else:
            call(prob, x)
    audited = {"f": "grad_f", "g": "jac_g", "G": "dG"}.get(hook, hook)
    assert model.audit_derivatives(prob, x).errors[audited] == np.inf
