import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsdpen import driver, matfun, model, optimality, penalty, problems
from nsdpen.errors import InvalidInputError, read_only
from nsdpen.matfun import symmetrize

from conftest import ball_problem, bench_families, cap_problem, counting, rng


def affine_matrix_problem():
    # G(x) = A0 + x0*A1 + x1*A2 with fixed symmetric coefficient matrices
    A0 = np.array([[1.0, 0.2], [0.2, 2.0]])
    A1 = np.array([[0.5, -1.0], [-1.0, 0.0]])
    A2 = np.array([[0.0, 0.3], [0.3, 1.5]])
    coeffs = [A1, A2]
    return model.NsdpProblem(
        name="affine-test",
        n=2, m=0, d=2,
        start_point=np.zeros(2),
        f=lambda x: float(x @ x),
        grad_f=lambda x: 2.0 * x,
        hess_f=lambda x: 2.0 * np.eye(2),
        G=lambda x: A0 + x[0] * A1 + x[1] * A2,
        dG=lambda x, i: coeffs[i].copy(),
        d2G=lambda x, i, j: np.zeros((2, 2)),
    )


def contracted_difference(fn, x, weights):
    """The synthesizer's reference: for each coordinate j, (fn(x + h_j e_j) - fn(x - h_j e_j)) / (2 h_j) at the
    second-order step, raveled to (n, k) and contracted with the (k,) weights as soon as it is made (row j), then
    one symmetrize.  The outputs are read C-contiguous, as the model gathers them: the product's rounding depends
    on the layout (a transposed jac_g output takes another BLAS path)."""
    n, rows = x.size, []
    for j in range(n):
        e = np.zeros(n)
        e[j] = model.FD_STEP_SECOND_ORDER * (1.0 + abs(x[j]))
        plus, minus = (np.ascontiguousarray(fn(z), dtype=float) for z in (x + e, x - e))
        diff = (plus - minus) / (2 * e[j])
        rows.append(diff.reshape(n, -1) @ weights)
    return symmetrize(np.stack(rows))


def loop_audit_errors(prob, x):
    """Reference audit errors: one central difference per coordinate and two norms per hook output, entry by entry,
    for each hook the problem supplies."""
    n = prob.n

    def fd(fn):
        rows = []
        for i in range(n):
            e = np.zeros(n)
            e[i] = model.FD_STEP_AUDIT * (1.0 + abs(x[i]))
            rows.append((np.asarray(fn(x + e), dtype=float) - np.asarray(fn(x - e), dtype=float)) / (2 * e[i]))
        return np.stack(rows)

    def err(analytic, approx):
        analytic = np.asarray(analytic, dtype=float)
        return np.linalg.norm((analytic - approx).ravel()) / (1.0 + np.linalg.norm(analytic.ravel()))

    errors = {"grad_f": [err(prob.grad_f(x), fd(prob.f))]}
    if prob.hess_f is not None:
        errors["hess_f"] = [err(prob.hess_f(x), symmetrize(fd(prob.grad_f)))]
    if prob.m > 0:
        errors["jac_g"] = [err(prob.jac_g(x), fd(prob.g))]
    if prob.m > 0 and prob.hess_g is not None:
        errors["hess_g"] = [err(prob.hess_g(x, np.eye(prob.m)[j]), symmetrize(fd(lambda z: prob.jac_g(z)[:, j])))
                            for j in range(prob.m)]
    errors["dG"] = [err(prob.dG(x, i), D) for i, D in enumerate(fd(prob.G))]
    if prob.d2G is not None:
        errors["d2G"] = [err(prob.d2G(x, i, j), D) for i in range(n) for j, D in enumerate(fd(lambda z: prob.dG(z, i)))]
    return {label: float(np.max(errs)) for label, errs in errors.items()}


# which checks read each hook's output
AUDITED_BY = {"f": {"grad_f"}, "grad_f": {"grad_f", "hess_f"}, "hess_f": {"hess_f"}, "g": {"jac_g"},
              "jac_g": {"jac_g", "hess_g"}, "hess_g": {"hess_g"}, "G": {"dG"}, "dG": {"dG", "d2G"}, "d2G": {"d2G"}}


class TestProblemDimensions:
    @pytest.mark.parametrize("name, dims", [
        ("corr-matrix", dict(m=-1)),  # ran its whole solve, then failed in the certificates on y's shape
        ("scalar-bound", dict(d=-2)),  # failed after its solve with a b_count message
        ("scalar-bound", dict(d=1.5)),
        ("scalar-bound", dict(n=1.0)),  # escaped as a TypeError
        ("scalar-bound", dict(m=True)),
    ])
    def test_bad_dimension_rejected_when_built(self, name, dims):
        prob, counts = counting(problems.get_problem(name).problem)
        field, = dims
        with pytest.raises(InvalidInputError, match=f"^{field} must be an integer"):
            dataclasses.replace(prob, **dims)
        assert not any(counts.values())


class TestDGAdjoint:
    def test_zero_multiplier(self):
        prob = affine_matrix_problem()
        Gs = model._dG_stack(prob, np.zeros(2))
        assert np.allclose(model.dG_adjoint(Gs, np.zeros((2, 2))), 0.0)

    def test_scalar_identity(self):
        prob = problems.get_problem("scalar-bound").problem
        out = model.dG_adjoint(model._dG_stack(prob, np.array([0.3])), np.array([[4.5]]))
        assert out == pytest.approx(np.array([4.5]))

    def test_adjoint_identity(self):
        gen = rng(22)
        for name in problems.list_problems():
            prob = problems.get_problem(name).problem
            if prob.d == 0:
                continue
            for _ in range(20):
                x = gen.normal(size=prob.n)
                h = gen.normal(size=prob.n)
                Z = gen.normal(size=(prob.d, prob.d))
                Z = 0.5 * (Z + Z.T)
                Gs = model._dG_stack(prob, x)
                lhs = float(np.sum(np.tensordot(h, Gs, 1) * Z))
                rhs = float(h @ model.dG_adjoint(Gs, Z))
                scale = 1 + np.linalg.norm(h) * np.linalg.norm(Z)
                assert abs(lhs - rhs) <= 1e-12 * scale

    def test_rejects_wrong_dG_shape(self):
        prob = affine_matrix_problem()
        bad = model.NsdpProblem(name="bad-dG", n=2, m=0, d=2, start_point=np.zeros(2),
                                f=prob.f, grad_f=prob.grad_f, hess_f=prob.hess_f,
                                G=prob.G, dG=lambda x, i: np.zeros((3, 3)), d2G=prob.d2G)
        with pytest.raises(InvalidInputError):
            model.dG_adjoint(model._dG_stack(bad, np.zeros(2)), np.zeros((2, 2)))

    def test_rejects_wrong_Z_shape(self):
        Gs = model._dG_stack(affine_matrix_problem(), np.zeros(2))
        with pytest.raises(InvalidInputError, match="Z must have shape"):
            model.dG_adjoint(Gs, np.zeros((3, 3)))


class TestD2GContract:
    def test_entries_and_symmetry(self):
        gen = rng(24)
        prob = ball_problem(3)
        x = gen.normal(size=prob.n)
        W = gen.normal(size=(3, 3))
        out = model.d2G_contract(prob, x, W)
        assert np.array_equal(out, out.T)
        for i, j in ((0, 0), (1, 4), (5, 2)):
            k, l = min(i, j), max(i, j)
            assert out[i, j] == pytest.approx(float(np.sum(prob.d2G(x, k, l) * W)), rel=1e-12, abs=1e-14)

    def test_rejects_wrong_shape(self):
        prob = ball_problem(3)
        with pytest.raises(InvalidInputError):
            model.d2G_contract(prob, np.zeros(prob.n), np.eye(2))

    def test_no_matrix_constraint_gives_zero(self):
        # with d = 0 there is no d2G hook; the contraction called None
        prob, counts = counting(dataclasses.replace(ball_problem(2), d=0, G=None, dG=None, d2G=None))
        out = model.d2G_contract(prob, np.ones(prob.n), np.zeros((0, 0)))
        assert out.shape == (3, 3) and not out.any()
        assert not any(counts.values())

    @pytest.mark.parametrize("d2G", [
        lambda x, i, j: np.zeros((3, 3)),  # wrong shape throughout
        lambda x, i, j: np.zeros((2, 2)) if j == i else np.zeros((2, 3)),  # ragged row
        lambda x, i, j: np.zeros(2),  # wrong rank
    ])
    def test_rejects_wrong_d2G_shape(self, d2G):
        prob = affine_matrix_problem()
        bad = model.NsdpProblem(name="bad-d2G", n=2, m=0, d=2, start_point=np.zeros(2),
                                f=prob.f, grad_f=prob.grad_f, hess_f=prob.hess_f, G=prob.G, dG=prob.dG, d2G=d2G)
        with pytest.raises(InvalidInputError, match="d2G"):
            model.d2G_contract(bad, np.zeros(2), np.eye(2))


UPPER_6 = [(i, j) for i in range(6) for j in range(i, 6)]  # the 21 row-major entries of ball_problem(3)


def small_ints(gen, *shape) -> np.ndarray:
    """A frozen (read-only, data-owning) symmetric 3 x 3 array, or stack of them, of small integers: every
    contraction of such arrays with a W of small integers is exact, whatever the order of its sums."""
    a = gen.integers(-4, 5, size=(*shape, 3, 3)).astype(float)
    return read_only(a + a.swapaxes(-1, -2))


def sized_contract(prob, x, W, monkeypatch):
    """d2G_contract(prob, x, W) and the number of entries of each ``_gather`` it makes."""
    sizes = []
    gather = model._gather

    def sized_gather(hook, entries, shape):
        sizes.append(len(entries))
        return gather(hook, entries, shape)

    monkeypatch.setattr(model, "_gather", sized_gather)
    return model.d2G_contract(prob, x, W), sizes


class TestD2GContractOnePass:
    # ball_problem(3): n = 6, so 21 upper-triangle entries, all called before any output is read; outputs that
    # are all one object are read once, any others are gathered in one stack of 21

    @staticmethod
    def contract(d2G, W, monkeypatch):
        """d2G_contract of ball_problem(3) with the given hook at a random x: the result, the hook's calls and
        the number of entries of each ``_gather``."""
        base = ball_problem(3)
        calls = []

        def logged(x, i, j):
            calls.append((i, j))
            return d2G(i, j)

        out, sizes = sized_contract(dataclasses.replace(base, d2G=logged), rng(5).normal(size=base.n), W,
                                    monkeypatch)
        return out, calls, sizes

    @staticmethod
    def fill(vals) -> np.ndarray:
        out = np.zeros((6, 6))
        for (i, j), v in zip(UPPER_6, vals):
            out[i, j] = out[j, i] = v
        return out

    @classmethod
    def stacked(cls, outs, W) -> np.ndarray:
        """The reference: the 21 outputs in one stack, contracted with W in one product."""
        return cls.fill(np.array(outs).reshape(len(UPPER_6), -1) @ W.ravel())

    def test_hook_calls_in_order_and_values(self, monkeypatch):
        gen = rng(31)
        base = ball_problem(3)
        x, W = gen.normal(size=base.n), gen.normal(size=(3, 3))
        out, calls, sizes = self.contract(lambda i, j: base.d2G(x, i, j), W, monkeypatch)
        assert sizes == [len(UPPER_6)]
        assert calls == UPPER_6
        assert all(type(i) is int and type(j) is int for i, j in calls)
        assert np.array_equal(out, out.T)
        ref = self.stacked([base.d2G(x, i, j) for i, j in UPPER_6], W)
        assert np.max(np.abs(out - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("bad", [
        lambda i, j: np.zeros((3, 4)) if (i, j) == (5, 5) else None,  # wrong shape in the last call
        lambda i, j: np.zeros((3, 4)) if (i, j) == (4, 5) else None,  # wrong shape in the next to last call
        lambda i, j: [[0.0] * 3] * 2 + [[0.0] * 2] if (i, j) == (4, 4) else None,  # ragged entry
    ])
    def test_wrong_output_raises_after_every_call(self, bad):
        base = ball_problem(3)
        calls = []

        def d2G(x, i, j):
            calls.append((i, j))
            out = bad(i, j)
            return base.d2G(x, i, j) if out is None else out

        with pytest.raises(InvalidInputError, match="d2G"):
            model.d2G_contract(dataclasses.replace(base, d2G=d2G), np.zeros(base.n), np.eye(3))
        assert calls == UPPER_6  # every output is read after the last call

    def test_shared_read_only_zero(self, monkeypatch):
        zero = np.zeros((3, 3))
        zero.flags.writeable = False
        W = rng(6).normal(size=(3, 3))
        out, calls, sizes = self.contract(lambda i, j: zero, W, monkeypatch)
        assert calls == UPPER_6
        assert all(type(i) is int and type(j) is int for i, j in calls)
        assert sizes == [1]
        # the reference: every output in one stack, contracted in one product
        ref = self.stacked([zero] * len(UPPER_6), W)
        assert out.tobytes() == ref.tobytes()

    def test_shared_nonzero_output(self, monkeypatch):
        gen = rng(7)
        D, W = symmetrize(gen.normal(size=(3, 3))), gen.normal(size=(3, 3))
        out, _, sizes = self.contract(lambda i, j: D, W, monkeypatch)
        assert sizes == [1]
        assert np.array_equal(out, out.T)
        value = float(np.sum(D * W))
        assert np.all(np.abs(out - value) <= 1e-15 * abs(value))

    # the one distinct output first, inside and last among the 21
    @pytest.mark.parametrize("odd", [0, 9, 20], ids=["first", "inside", "last"])
    def test_one_distinct_output_gathers_every_output(self, odd, monkeypatch):
        gen = rng(8)
        D, W = symmetrize(gen.normal(size=(3, 3))), gen.normal(size=(3, 3))
        E = symmetrize(gen.normal(size=(3, 3)))
        out, calls, sizes = self.contract(lambda i, j: E if (i, j) == UPPER_6[odd] else D, W, monkeypatch)
        assert calls == UPPER_6
        assert sizes == [len(UPPER_6)]
        ref = self.fill([float(np.sum((E if k == odd else D) * W)) for k in range(len(UPPER_6))])
        assert np.max(np.abs(out - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("bad", [
        np.zeros((3, 4)),  # wrong shape
        np.zeros((3, 3), dtype=complex),  # complex
        [[0.0] * 3] * 2 + [[0.0] * 2],  # ragged
    ], ids=["shape", "complex", "ragged"])
    def test_shared_bad_output_raises_the_stacked_message(self, bad, monkeypatch):
        with pytest.raises(InvalidInputError) as stacked:
            model._gather("d2G", [bad] * len(UPPER_6), (3, 3))
        with pytest.raises(InvalidInputError) as shared:
            self.contract(lambda i, j: bad, np.eye(3), monkeypatch)
        assert str(shared.value) == str(stacked.value)

    # ball_problem(3) and ball_problem(11): 21 outputs of 3 x 3 and 2,211 of 11 x 11, 2 MB when stacked
    @pytest.mark.parametrize("d", [3, 11])
    def test_reused_buffer_is_read_after_the_last_call(self, d, monkeypatch):
        # the hook rewrites one buffer and returns it: every entry is the contraction of the buffer's last
        # value, as a stack of all outputs made after the last call is; small integers keep it exact
        base = ball_problem(d)
        buf = np.zeros((d, d))

        def d2G(x, i, j):
            buf[...] = i + 2 * j
            return buf

        W = np.arange(d * d, dtype=float).reshape(d, d)
        out, sizes = sized_contract(dataclasses.replace(base, d2G=d2G), np.zeros(base.n), W, monkeypatch)
        assert sizes == [1]
        assert np.array_equal(out, np.full((base.n, base.n), 3 * (base.n - 1) * W.sum()))

    def test_shared_none_raises_the_stacked_message(self, monkeypatch):
        # a hook that returns None throughout is read once and rejected as a stack of its outputs is
        with pytest.raises(InvalidInputError) as stacked_error:
            model._gather("d2G", [None] * len(UPPER_6), (3, 3))
        with pytest.raises(InvalidInputError) as shared:
            self.contract(lambda i, j: None, np.eye(3), monkeypatch)
        assert str(shared.value) == str(stacked_error.value)

    def test_read_only_view_shared_by_every_call_is_read_once(self, monkeypatch):
        # a read-only view of other data is read once, after the last call, like any output shared by every call
        gen = rng(9)
        view, W = small_ints(gen, 2)[1], small_ints(gen)
        assert not view.flags.writeable and view.base is not None
        out, calls, sizes = self.contract(lambda i, j: view, W, monkeypatch)
        assert calls == UPPER_6
        assert sizes == [1]
        assert out.tobytes() == self.stacked([view] * len(UPPER_6), W).tobytes()

    def test_frozen_output_around_distinct_outputs_is_gathered_once(self, monkeypatch):
        # one frozen output everywhere but outputs 8 to 11, which are distinct: all 21 go into one gather
        gen = rng(10)
        D, W = small_ints(gen), small_ints(gen)
        distinct = dict(zip(UPPER_6[8:12], small_ints(gen, 4)))
        out, calls, sizes = self.contract(lambda i, j: distinct.get((i, j), D), W, monkeypatch)
        assert calls == UPPER_6
        assert sizes == [len(UPPER_6)]
        assert out.tobytes() == self.stacked([distinct.get(pair, D) for pair in UPPER_6], W).tobytes()

    def test_alternating_frozen_outputs_are_gathered_once(self, monkeypatch):
        # two frozen outputs that take turns every four calls are not one object: all 21 go into one gather
        gen = rng(11)
        A, B, W = small_ints(gen), small_ints(gen), small_ints(gen)
        pick = {pair: (A, B)[k // 4 % 2] for k, pair in enumerate(UPPER_6)}
        out, calls, sizes = self.contract(lambda i, j: pick[i, j], W, monkeypatch)
        assert calls == UPPER_6
        assert sizes == [len(UPPER_6)]
        assert out.tobytes() == self.stacked([pick[pair] for pair in UPPER_6], W).tobytes()


# ball_problem(d) has n = d(d+1)/2: 1, 6 and 666 outputs; at d = 8 they take 340 KB, more than one gather
# took when contractions were cut into blocks of 128 KB
@pytest.mark.parametrize("d", [1, 2, 8])
def test_d2G_contract_gathers_every_output_once_whatever_the_size(d, monkeypatch):
    gen = rng(32)
    base = ball_problem(d)
    x, W = gen.normal(size=base.n), gen.normal(size=(d, d))
    calls = []

    def d2G(x, i, j):
        calls.append((i, j))
        return base.d2G(x, i, j)

    out, sizes = sized_contract(dataclasses.replace(base, d2G=d2G), x, W, monkeypatch)
    pairs = [(i, j) for i in range(base.n) for j in range(i, base.n)]
    assert calls == pairs
    assert all(type(i) is int and type(j) is int for i, j in calls)
    assert sizes == [1 if len(pairs) == 1 else len(pairs)]  # one output alone is one object
    assert np.array_equal(out, out.T)
    # the reference: every output in one stack, contracted in one product
    vals = np.asarray([base.d2G(x, i, j) for i, j in pairs]).reshape(len(pairs), -1) @ W.ravel()
    ref = np.zeros((base.n, base.n))
    for (i, j), v in zip(pairs, vals):
        ref[i, j] = ref[j, i] = v
    assert np.max(np.abs(out - ref)) <= 1e-15 * np.max(np.abs(ref))


OUTPUT_KINDS =("frozen", "other-frozen", "frozen-view", "writable-shared", "fresh")


# per-entry output kinds drawn at random; 40 examples of 21 d2G calls each, and always one writable buffer
# rewritten in every call, which a contraction reading it before the last call would misread
@settings(max_examples=40)
@given(kinds=st.lists(st.sampled_from(OUTPUT_KINDS), min_size=len(UPPER_6), max_size=len(UPPER_6)))
@example(kinds=["writable-shared"] * len(UPPER_6))
def test_d2G_contract_matches_one_stack(kinds):
    """d2G_contract calls d2G in row-major order and gives, bit for bit, the one-product contraction of every
    output stacked after the last call, whichever outputs it reads once."""
    gen = rng(12)
    frozen, W = small_ints(gen, 2), small_ints(gen)
    view = small_ints(gen, 2)[0]
    buf = np.zeros((3, 3))
    kind = dict(zip(UPPER_6, kinds))
    calls = []

    def d2G(x, i, j):
        calls.append((i, j))
        k = kind[i, j]
        if k == "writable-shared":
            buf[...] = i + 2 * j
            return buf
        if k == "fresh":
            return np.full((3, 3), float(i - 3 * j))
        return {"frozen": frozen[0], "other-frozen": frozen[1], "frozen-view": view}[k]

    ref = TestD2GContractOnePass.stacked([d2G(None, i, j) for i, j in UPPER_6], W)
    calls.clear()
    base = ball_problem(3)
    out = model.d2G_contract(dataclasses.replace(base, d2G=d2G), np.zeros(base.n), W)
    assert calls == UPPER_6
    assert out.tobytes() == ref.tobytes()


def test_psd_d12_reads_its_d2G_zero_once(monkeypatch):
    # the benchmark's nearest-PSD instance at d = 12 (n = 78): 3,081 d2G calls, all of one read-only zero,
    # which is read once
    prob, counts = counting(bench_families().nearest_psd(12, rng(7)).problem)
    out, sizes = sized_contract(prob, prob.start_point, np.eye(12), monkeypatch)
    assert counts["d2G"] == 78 * 79 // 2 == 3081
    assert sizes == [1]
    assert out.shape == (78, 78) and not out.any()


class TestHugeStacks:
    # (A + A^T)/2 of a stack overflowed to inf for a finite entry above 2^1023; such entries are now halved first
    HUGE = np.array([[0.0, 1e308], [1e308, 0.0]])

    def test_dG_stack_of_huge_entries_is_finite(self):
        base = problems.get_problem("nearest-psd").problem
        prob = dataclasses.replace(base, dG=lambda x, i: self.HUGE.tolist())
        at = penalty.penalty_at(prob, prob.start_point, penalty.special_params("script_F", 1.0))
        assert np.array_equal(at.dG, np.broadcast_to(self.HUGE, (prob.n, 2, 2)))

    def test_synthesized_hess_f_of_huge_entries_is_finite(self):
        # grad_f = c (x1, x0) has the Hessian c [[0, 1], [1, 0]], which its central differences recover
        c = 1e308
        prob = model.NsdpProblem(name="huge-hess", n=2, m=0, d=0, start_point=np.zeros(2), f=lambda x: c * x[0] * x[1],
                                 grad_f=lambda x: c * x[::-1])
        H = model.hess_fg(prob, np.zeros(2), 1.0, None)
        assert np.isfinite(H).all() and np.array_equal(H, H.T)
        assert H[0, 1] == pytest.approx(c, rel=1e-10) and H[0, 0] == H[1, 1] == 0.0


class TestHessFg:
    def test_weighted_sum_and_hook_calls(self):
        # one hess_g call with the whole weight, each output read as given (the caller symmetrizes the sum)
        prob, counts = counting(ball_problem(3, m=2))
        x, y = rng(31).normal(size=prob.n), np.array([0.0, -1.5])
        H = model.hess_fg(prob, x, 2.0, y)
        assert (counts["hess_f"], counts["hess_g"]) == (1, 1)
        assert np.array_equal(H, 2.0 * prob.hess_f(x) - prob.hess_g(x, y))
        counts.update(dict.fromkeys(counts, 0))
        assert not model.hess_fg(prob, x, 0.0, np.zeros(2)).any()
        assert not any(counts.values())

    @pytest.mark.parametrize("hook", ["hess_f", "hess_g"])
    def test_wrong_shape_names_the_hook(self, hook):
        prob = dataclasses.replace(ball_problem(3, m=2), **{hook: lambda *args: np.ones(6)})
        with pytest.raises(InvalidInputError, match=rf"^{hook} must have shape \(6, 6\)"):
            model.hess_fg(prob, np.zeros(6), 1.0, np.ones(2))


def asymmetric(prob: model.NsdpProblem, seed: int) -> model.NsdpProblem:
    """A copy of ``prob`` whose hess_f and hess_g add fixed random non-symmetric matrices to their outputs."""
    gen = rng(seed)
    Nf, Ng = gen.normal(size=(prob.n, prob.n)), gen.normal(size=(prob.m, prob.n, prob.n))
    return dataclasses.replace(prob, hess_f=lambda x: prob.hess_f(x) + Nf,
                               hess_g=lambda x, y: prob.hess_g(x, y) + np.tensordot(y, Ng, 1))


class TestSymmetrizedOnce:
    """Each Hessian is symmetrized once, when complete: hess_fg reads the hook terms as given."""

    def test_hess_fg_reads_hooks_as_given(self):
        prob = asymmetric(ball_problem(3, m=2), seed=33)
        x, y = rng(34).normal(size=prob.n), np.array([0.5, -1.5])
        H = model.hess_fg(prob, x, 0.7, y)
        assert not np.array_equal(H, H.T)
        assert np.array_equal(H, 0.7 * prob.hess_f(x) - prob.hess_g(x, y))

    def test_penalty_hess_symmetrizes_the_raw_sum(self):
        prob = asymmetric(ball_problem(3, m=2), seed=35)
        x, p = rng(36).normal(size=prob.n), penalty.PenaltyParams(v=np.ones(2), M=None, rho=0.7, sigma=1.3, tau=2.0)
        at = penalty.penalty_at(prob, x, p)
        st = p.sigma * p.tau
        # the sum in penalty_hess's order, no term symmetrized on its own
        raw = p.rho * prob.hess_f(x) - prob.hess_g(x, st * at.r) + st * (at.J @ at.J.T)
        P = at.dec.vectors
        K = (P.T @ at.dG @ P).reshape(prob.n, -1)
        raw = raw + st * (K @ (matfun.dq_coeff(at.dec).ravel() * K).T - model.d2G_contract(prob, x, at.q_cube))
        H = penalty.penalty_hess(at)
        assert np.array_equal(H, H.T)
        assert H.tobytes() == symmetrize(raw).tobytes()
        assert not np.array_equal(raw, raw.T)

    def test_lagrangian_hess_symmetrizes_the_raw_sum(self):
        prob = asymmetric(ball_problem(3, m=2), seed=37)
        gen = rng(38)
        x, y, Z = gen.normal(size=prob.n), gen.normal(size=2), symmetrize(gen.normal(size=(3, 3)))
        raw = 1.0 * prob.hess_f(x) - prob.hess_g(x, y) - model.d2G_contract(prob, x, Z)
        H = optimality.lagrangian_hess(prob, x, y, Z)
        assert np.array_equal(H, H.T)
        assert H.tobytes() == symmetrize(raw).tobytes()
        assert not np.array_equal(raw, raw.T)

    def test_one_symmetrize_per_hessian(self, monkeypatch):
        # the shapes symmetrize is called with: one (n, n) matrix per Hessian, besides lagrangian_hess's
        # read of its (d, d) argument Z; hess_fg symmetrizes neither hess_f nor hess_g on its own
        shapes = []

        def recorded(X):
            shapes.append(np.shape(X))
            return matfun.symmetrize(X)
        for module in (model, penalty, optimality):
            monkeypatch.setattr(module, "symmetrize", recorded)
        prob = ball_problem(3, m=2)
        n, gen = prob.n, rng(39)
        at = penalty.penalty_at(prob, gen.normal(size=n), penalty.special_params("script_F", 3.0))
        _ = at.J, at.dG, at.q_cube  # read before counting: they are read once per point, not per Hessian
        shapes.clear()
        penalty.penalty_hess(at)
        assert shapes == [(n, n)]
        shapes.clear()
        optimality.lagrangian_hess(prob, at.x, gen.normal(size=2), np.eye(3))
        assert shapes == [(3, 3), (n, n)]


class TestContractedHessG:
    """hess_g(x, y) is read as one (n, n) matrix, sum_j y_j hess g_j(x)."""

    @staticmethod
    def recording(prob):
        """A copy of ``prob`` whose hess_g logs each weight it is handed, and the log."""
        calls = []

        def hess_g(x, y):
            calls.append(y)
            return prob.hess_g(x, y)
        return dataclasses.replace(prob, hess_g=hess_g), calls

    def test_one_call_per_hess_fg_with_a_nonzero_weight(self):
        prob, calls = self.recording(ball_problem(3, m=2))
        x = rng(40).normal(size=prob.n)
        for k, y in enumerate([[1.5, -0.5], [0.0, 2.0], [0.0, 0.0], [-0.0, 0.0], [3.0, 0.0]]):
            before = len(calls)
            model.hess_fg(prob, x, 1.0, np.array(y))
            assert len(calls) - before == int(any(y)), k
        assert [y.tolist() for y in calls] == [[1.5, -0.5], [0.0, 2.0], [3.0, 0.0]]
        # with m = 0 the hook is never read, whatever the weight
        unconstrained, calls = self.recording(dataclasses.replace(ball_problem(3), hess_g=ball_problem(3, m=1).hess_g))
        model.hess_fg(unconstrained, x, 1.0, None)
        assert calls == []

    def test_audit_calls_once_per_read_only_unit_weight(self):
        prob, calls = self.recording(ball_problem(3, m=2))
        report = model.audit_derivatives(prob, rng(41).normal(size=prob.n))
        assert report.passed and len(calls) == prob.m
        assert [y.tolist() for y in calls] == np.eye(prob.m).tolist()
        assert not any(y.flags.writeable for y in calls)

    def test_hook_writing_its_weight_fails_the_audit(self):
        base = ball_problem(3, m=2)

        def hess_g(x, y):
            y *= 1.0
            return base.hess_g(x, y)

        report = model.audit_derivatives(dataclasses.replace(base, hess_g=hess_g), rng(42).normal(size=base.n))
        assert report.failures == ["hess_g"] and report.errors["hess_g"] == np.inf

    def test_synthesized_is_the_contraction_of_one_difference(self):
        # powers of two as weights make every product exact, so a fused or a separate multiply-add gives these bits
        prob, counts = counting(ball_problem(3, m=2, synthesized=True))
        x, y = rng(43).normal(size=prob.n), np.array([0.5, -2.0])
        H = -model.hess_fg(prob, x, 0.0, y)
        assert counts["jac_g"] == 2 * prob.n
        assert np.array_equal(H, contracted_difference(prob.jac_g, x, y))
        assert np.allclose(H, ball_problem(3, m=2).hess_g(x, y), atol=1e-6)

    @pytest.mark.parametrize("out", [np.zeros((2, 6, 6)), np.zeros((6, 6, 1))], ids=["stack", "column"])
    def test_wrong_shape_raises(self, out):
        # the (m, n, n) stack is what a hook of the per-constraint form would return for every j at once
        prob = dataclasses.replace(ball_problem(3, m=2), hess_g=lambda x, y: out)
        message = rf"^hess_g must have shape \(6, 6\), got {re.escape(str(out.shape))}"
        with pytest.raises(InvalidInputError, match=message):
            model.hess_fg(prob, np.zeros(6), 1.0, np.ones(2))


class TestNorms:
    def test_rows_scaled_apart(self):
        # each row has its own power of two: a huge row neither overflows nor flushes a small one
        v = np.array([[1e200, -1e200, 3e199], [3e-200, 4e-200, 0.0], [0.5, 0.25, 1.0], [0.0, 0.0, 0.0]])
        assert model._norms(v).tolist() == [matfun._norm(row) for row in v]
        assert model._norms(v)[1] == pytest.approx(5e-200, rel=1e-15)
        # without overflow the rounding is that of np.linalg.norm
        w = rng(32).normal(size=(50, 4, 4)) * 10.0 ** rng(33).integers(-5, 5, size=(50, 1, 1))
        assert model._norms(w).tolist() == [float(np.linalg.norm(entry)) for entry in w]


class TestAudit:
    def test_polynomial_hooks_near_exact(self):
        prob = affine_matrix_problem()
        report = model.audit_derivatives(prob, np.array([0.3, -0.2]))
        assert report.passed
        assert all(err <= 1e-8 for err in report.errors.values())

    def test_corpus_problems_pass_at_random_points(self):
        gen = rng(23)
        for name in problems.list_problems():
            prob = problems.get_problem(name).problem
            x = prob.start_point + 0.5 * gen.normal(size=prob.n)
            report = model.audit_derivatives(prob, x)
            assert report.passed, (name, report.errors)

    def test_corrupted_gradient_flagged(self):
        entry = problems.get_problem("nearest-psd")
        base = entry.problem
        bad = model.NsdpProblem(
            name="corrupted",
            n=base.n, m=0, d=base.d,
            start_point=base.start_point,
            f=base.f,
            grad_f=lambda x: base.grad_f(x) + np.array([0.1, 0.0, 0.0]),
            hess_f=base.hess_f,
            G=base.G, dG=base.dG, d2G=base.d2G,
        )
        report = model.audit_derivatives(bad, base.start_point)
        assert not report.passed
        assert "grad_f" in report.failures
        assert "dG" not in report.failures

    def test_non_finite_hook_reported_not_raised(self):
        prob = model.NsdpProblem(
            name="nan-f",
            n=1, m=0, d=0,
            start_point=np.zeros(1),
            f=lambda x: float("nan"),
            grad_f=lambda x: np.array([1.0]),
            hess_f=lambda x: np.zeros((1, 1)),
        )
        report = model.audit_derivatives(prob, np.zeros(1))
        assert not report.passed
        assert report.errors["grad_f"] == np.inf

    @pytest.mark.parametrize("hook", ["hess_g", "dG", "d2G"])
    def test_nan_in_one_entry_fails(self, hook):
        # one NaN among several per-entry results must not be masked by the others
        prob = ball_problem(3, m=2)
        clean = getattr(prob, hook)

        def poisoned(x, *idx):
            out = np.array(clean(x, *idx), dtype=float)
            if idx[0] == 1:
                out[0, 0] = np.nan
            return out

        prob = dataclasses.replace(prob, **{hook: poisoned})
        report = model.audit_derivatives(prob, rng(25).normal(size=prob.n))
        assert report.errors[hook] == np.inf
        assert not report.passed and hook in report.failures

    def test_non_finite_differences_warn_only_from_the_hooks(self):
        # inf - inf in the audit's own differences used to escape as model.py's "invalid value" warnings;
        # a hook that overflows by itself still warns from its own line
        base = problems.get_problem("nearest-psd").problem
        cases = {"inf": (lambda x: np.full((2, 2), np.inf), lambda x, i: np.full((2, 2), np.inf)),
                 "overflowing": (lambda x: np.full((2, 2), 1e308) * (2.0 + x[0]),
                                 lambda x, i: np.full((2, 2), 1e308) * (2.0 + x[i]))}
        for label, (G, dG) in cases.items():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                report = model.audit_derivatives(dataclasses.replace(base, G=G, dG=dG), base.start_point)
            assert report.failures == ["dG", "d2G"] and report.errors["dG"] == report.errors["d2G"] == np.inf
            assert {w.filename for w in caught} == (set() if label == "inf" else {__file__}), label

    @pytest.mark.parametrize("hook", ["G", "dG"])
    def test_complex_hook_output_fails(self, hook):
        # complex output records inf instead of being audited on its real part
        base = problems.get_problem("scalar-bound").problem
        clean = getattr(base, hook)
        prob = dataclasses.replace(base, **{hook: lambda *args: clean(*args) + 0.5j})
        with warnings.catch_warnings():
            # so that the audit, not a ComplexWarning turned into an error, decides
            warnings.simplefilter("ignore", np.exceptions.ComplexWarning)
            report = model.audit_derivatives(prob, prob.start_point)
        assert not report.passed
        assert "dG" in report.failures and report.errors["dG"] == np.inf

    @given(st.integers(2, 4), st.integers(0, 2), st.booleans(), st.integers(0, 2**32 - 1))
    def test_matches_loop_reference(self, d, m, synthesized, seed):
        # the stacked differences and norms round as the per-entry loop does
        prob = ball_problem(d, m=m, synthesized=synthesized, seed=seed % 7)
        x = rng(seed).normal(size=prob.n)
        report = model.audit_derivatives(prob, x)
        assert report.errors == loop_audit_errors(prob, x)
        assert report.passed and report.step == model.FD_STEP_AUDIT

    @pytest.mark.parametrize("fd", [False, True], ids=["analytic", "synthesized"])
    def test_x_dependent_curvature_matches_loop_reference(self, fd):
        prob = cap_problem(3, seed=6, synthesized=fd)
        x = rng(44).normal(size=prob.n)
        report = model.audit_derivatives(prob, x)
        assert report.errors == loop_audit_errors(prob, x) and report.passed
        assert ("d2G" in report.errors) is not fd

    def test_x_dependent_curvature_read_at_another_point_fails(self):
        # G = I - X^3 has d2G(x) != d2G(x0): a hook that reads it at the start point fails its check alone
        prob = cap_problem(3, seed=6)
        frozen = dataclasses.replace(prob, d2G=lambda x, i, j: prob.d2G(prob.start_point, i, j))
        report = model.audit_derivatives(frozen, rng(45).normal(size=prob.n))
        assert report.failures == ["d2G"] and report.errors["d2G"] > 0.1

    def test_hook_call_counts_synthesized(self):
        # a second derivative left out is not audited, so neither it nor its difference is read
        prob, counts = counting(ball_problem(3, m=2, synthesized=True))
        n = prob.n
        report = model.audit_derivatives(prob, rng(26).normal(size=n))
        assert list(report.errors) == ["grad_f", "jac_g", "dG"]
        assert counts == {"f": 2 * n, "grad_f": 1, "hess_f": 0, "g": 2 * n, "jac_g": 1, "hess_g": 0, "G": 2 * n,
                          "dG": n, "d2G": 0}

    def test_hook_call_counts(self):
        prob, counts = counting(ball_problem(3, m=2))
        n, m = prob.n, prob.m
        model.audit_derivatives(prob, rng(26).normal(size=n))
        assert counts == {"f": 2 * n, "grad_f": 1 + 2 * n, "hess_f": 1, "g": 2 * n, "jac_g": 1 + 2 * n,
                          "hess_g": m, "G": 2 * n, "dG": n + 2 * n * n, "d2G": n * n}

    @pytest.mark.parametrize("wrong", ["scalar", "column"])
    @pytest.mark.parametrize("hook", list(AUDITED_BY))
    def test_wrong_shape_fails(self, hook, wrong):
        # a broadcastable output of another shape than the solver reads fails the checks that read it;
        # "scalar" is one number, or a 1-vector for f
        prob = ball_problem(3, m=2)
        clean = getattr(prob, hook)

        def bad(*args):
            out = np.asarray(clean(*args))
            if wrong == "column":
                return out.reshape(-1, 1)
            return out.reshape(1) if out.ndim == 0 else float(out.flat[0])

        prob = dataclasses.replace(prob, **{hook: bad})
        report = model.audit_derivatives(prob, rng(27).normal(size=prob.n))
        assert set(report.failures) == AUDITED_BY[hook]
        assert all(report.errors[label] == np.inf for label in AUDITED_BY[hook])

    @pytest.mark.parametrize("d2G", [lambda x, i, j: 0.0, lambda x, i, j: np.zeros(2)], ids=["scalar", "vector"])
    def test_audit_and_solve_agree_on_d2G_shape(self, d2G):
        # both outputs broadcast against the 2 x 2 difference, and passed the audit with error 0
        prob = dataclasses.replace(problems.get_problem("nearest-psd").problem, d2G=d2G)
        report = model.audit_derivatives(prob, prob.start_point)
        assert report.failures == ["d2G"] and report.errors["d2G"] == np.inf
        with pytest.raises(InvalidInputError, match="^d2G must have shape"):
            driver.solve(prob, problems.get_problem("nearest-psd").config)

    def test_hook_writing_its_argument_fails(self):
        # every difference reads the same shifted points, so a hook may not write into them
        base = problems.get_problem("scalar-bound").problem

        def f(x):
            x += 0.0
            return base.f(x)

        report = model.audit_derivatives(dataclasses.replace(base, f=f), base.start_point)
        assert report.failures == ["grad_f"] and report.errors["grad_f"] == np.inf


class TestSynthesizedSecondDerivatives:
    @pytest.mark.parametrize("out", [1.0, np.zeros(2), np.zeros((2, 3))])
    def test_wrong_shaped_dG_named(self, out):
        # the synthesized d2G reads dG at its shape, before the outputs are symmetrized
        prob = dataclasses.replace(affine_matrix_problem(), dG=lambda x, i: out, d2G=None)
        with pytest.raises(InvalidInputError, match=r"dG must have shape \(2, 2\)"):
            model.d2G_contract(prob, np.zeros(2), np.eye(2))

    def test_left_out_second_derivatives_match_analytic(self):
        analytic = affine_matrix_problem()
        fd = model.NsdpProblem(
            name="affine-fd",
            n=2, m=0, d=2,
            start_point=np.zeros(2),
            f=analytic.f, grad_f=analytic.grad_f,
            G=analytic.G, dG=analytic.dG,
        )
        x = np.array([0.4, -1.1])
        assert np.allclose(model.hess_fg(fd, x, 1.0, None), analytic.hess_f(x), atol=1e-8)
        assert np.allclose(model.d2G_contract(fd, x, rng(28).normal(size=(2, 2))), 0.0, atol=1e-8)
        # the audit checks the hooks the problem supplies; a synthesized second derivative is itself a difference
        report = model.audit_derivatives(fd, x)
        assert report.passed and list(report.errors) == ["grad_f", "dG"]

    def test_fd_equality_hooks(self):
        base = problems.get_problem("equality-degenerate").problem
        fd = model.NsdpProblem(
            name="eq-fd",
            n=1, m=1, d=0,
            start_point=np.zeros(1),
            f=base.f, grad_f=base.grad_f,
            g=base.g, jac_g=base.jac_g,
        )
        x = np.array([0.7])
        assert -model.hess_fg(fd, x, 0.0, np.array([3.0]))[0, 0] == pytest.approx(6.0, abs=1e-8)
        report = model.audit_derivatives(fd, x)
        assert report.passed and list(report.errors) == ["grad_f", "jac_g"]

    def test_d2G_contraction_is_one_difference_of_the_dG_stack(self):
        # 2n^2 dG calls (n at each of 2n points) and no d2G call; the weights contract each coordinate's difference
        # of the dG stack, symmetrized once, and a cubic G's d2G(x) is recovered at x itself
        prob, counts = counting(cap_problem(3, seed=8, synthesized=True))
        n, x, W = prob.n, rng(46).normal(size=prob.n), rng(47).normal(size=(3, 3))
        out = model.d2G_contract(prob, x, W)
        assert (counts["dG"], counts["d2G"]) == (2 * n * n, 0)
        assert np.array_equal(out, contracted_difference(lambda z: np.stack([prob.dG(z, i) for i in range(n)]), x,
                                                         W.ravel()))
        exact = model.d2G_contract(cap_problem(3, seed=8), x, W)
        assert np.linalg.norm(out - exact) <= 1e-8 * np.linalg.norm(exact)

    def test_d2G_contraction_holds_a_few_dG_stacks(self):
        # each coordinate's difference is contracted as soon as it is made, so about 7 dG stacks (n d^2 floats) are
        # held at once here, not the 2n shifted stacks
        prob = bench_families().nearest_psd(8, np.random.default_rng(7)).problem
        prob = dataclasses.replace(prob, hess_f=None, d2G=None)
        tracemalloc.start()
        try:
            model.d2G_contract(prob, prob.start_point + 0.1, np.eye(8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (prob.n * 8 * 8 * 8)

    def test_one_jac_g_difference_per_point(self):
        # hess_fg differences jac_g once (2n calls) per call with a nonzero weight, and not at all when every
        # weight is zero
        prob, counts = counting(ball_problem(3, m=2, synthesized=True))
        n, m = prob.n, prob.m
        for x in rng(29).normal(size=(2, n)):
            counts["jac_g"] = 0
            H = model.hess_fg(prob, x, 0.0, np.array([1.5, -0.5]))
            assert counts["jac_g"] == 2 * n
            assert not model.hess_fg(prob, x, 0.0, np.zeros(m)).any()
            assert counts["jac_g"] == 2 * n
            # bit for bit each coordinate's difference of jac_g contracted with the weights, symmetrized once
            assert np.array_equal(H, -contracted_difference(prob.jac_g, x, np.array([1.5, -0.5])))

    def test_replace_differences_the_new_hooks(self):
        # a copy with new first derivatives synthesizes its second derivatives from them, not from the
        # original's; doubling is exact, so every synthesized entry doubles bit for bit
        base = ball_problem(3, m=2, synthesized=True)
        doubled = dataclasses.replace(base, grad_f=lambda x: 2.0 * base.grad_f(x), jac_g=lambda x: 2.0 * base.jac_g(x),
                                      dG=lambda x, i: 2.0 * base.dG(x, i))
        x, W = rng(30).normal(size=base.n), rng(31).normal(size=(base.d, base.d))
        for rho, y in ((1.0, np.zeros(2)), (0.0, np.array([1.5, -0.5]))):  # hess_f, then hess_g alone
            assert np.array_equal(model.hess_fg(doubled, x, rho, y), 2.0 * model.hess_fg(base, x, rho, y))
        assert np.array_equal(model.d2G_contract(doubled, x, W), 2.0 * model.d2G_contract(base, x, W))

    def test_problem_is_immutable(self):
        # fields cannot be assigned, and the start point is a read-only copy of the caller's array
        start = np.zeros(6)
        prob = dataclasses.replace(ball_problem(3), start_point=start)
        start[0] = 5.0
        assert prob.start_point.tolist() == [0.0] * 6 and not prob.start_point.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            prob.hess_f = None

    @pytest.mark.parametrize("hook, value", [("hess_f", 2.0), ("f", None), ("dG", np.eye(1)), ("g", "g")])
    def test_hook_not_callable_rejected_when_built(self, hook, value):
        # hess_f=2.0 used to build, and solve then died with "'float' object is not callable"
        with pytest.raises(InvalidInputError, match=f"hook {hook} is not callable"):
            dataclasses.replace(problems.get_problem("scalar-bound").problem, **{hook: value})

    def test_missing_hooks_rejected(self):
        with pytest.raises(InvalidInputError):
            model.NsdpProblem(
                name="broken", n=1, m=1, d=0,
                start_point=np.zeros(1),
                f=lambda x: 0.0, grad_f=lambda x: np.zeros(1),
            )

    @pytest.mark.parametrize("hook", ["G", "dG"])
    def test_matrix_constraint_without_G_or_dG_rejected(self, hook):
        with pytest.raises(InvalidInputError, match="^problem 'scalar-bound': d > 0 requires G and dG hooks$"):
            dataclasses.replace(problems.get_problem("scalar-bound").problem, **{hook: None})
