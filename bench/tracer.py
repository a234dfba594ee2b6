"""In-memory tracer of nsdpen's public functions, installed from outside the package.

While a ``Tracer`` is installed, every module-level name in the nsdpen
package that is bound to a traced function is rebound to a wrapper.  Calls
are therefore seen whichever way the caller looks the function up: through
the module attribute (``penalty.penalty_hess``), through a name imported
into another module (``penalty.dG_adjoint``, ``optimality.dG_adjoint``,
``driver.eig_sym``) or as a module global (``ms_subproblem`` inside
``trustregion``).  Problem hooks are wrapped per problem by ``instrument``.

Each traced call adds one span (request, parent, name, start, end) to a
list kept in memory and written out by ``write_spans``.  Calls, self time
and total time are summed per name as the spans close; self time is a
span's duration minus the time of the traced calls and hooks it made.
"""

import dataclasses
import json
import sys
import time
from contextlib import contextmanager

from nsdpen import cli, driver, matfun, model, optimality, penalty, problems, trustregion

# metric prefix -> (module, attribute) of each function traced as a span
SPANS = {
    "matfun.eig_sym": (matfun, "eig_sym"),
    "matfun.dq_coeff": (matfun, "dq_coeff"),
    "matfun.dq_apply": (matfun, "dq_apply"),
    "model.dG_adjoint": (model, "dG_adjoint"),
    "model.audit_derivatives": (model, "audit_derivatives"),
    "penalty.value": (penalty, "penalty_value"),
    "penalty.grad": (penalty, "penalty_grad"),
    "penalty.hess": (penalty, "penalty_hess"),
    "trustregion.tr_minimize": (trustregion, "tr_minimize"),
    "trustregion.ms_subproblem": (trustregion, "ms_subproblem"),
    "optimality.lagrangian_hess": (optimality, "lagrangian_hess"),
    "optimality.sigma_term": (optimality, "sigma_term"),
    "optimality.critical_subspace_basis": (optimality, "critical_subspace_basis"),
    "optimality.second_order_residual": (optimality, "second_order_residual"),
    "driver.solve": (driver, "solve"),
    "cli.main": (cli, "main"),
}

HOOKS = ("f", "grad_f", "hess_f", "g", "jac_g", "hess_g", "G", "dG", "d2G")
REPORTED_HOOKS = ("f", "grad_f", "hess_f", "G", "dG", "d2G")

COUNTERS = ("trustregion.trial_steps", "trustregion.accepted_steps",
            "driver.outer_iterations", "driver.inner_iterations", "cli.bytes_written")


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in SPANS}  # calls, self_s, total_s
        self.stats.update({f"model.hook.{h}": [0, 0.0, 0.0] for h in HOOKS})
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.spans = []  # (request, parent index or -1, name, start, end)
        self.request = 0  # set by the caller, shared by the spans of one solve
        self._stack = []  # open spans: [span index, time of traced children]
        self._undo = []

    def _hook(self, name, fn):
        # hooks are called O(n^2) times per Hessian: counted and timed, no span
        stats, stack, clock = self.stats[name], self._stack, time.perf_counter

        def hook(*args):
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dur = clock() - t0
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur
                if stack:
                    stack[-1][1] += dur
        return hook

    def _span(self, name, fn):
        stats, stack, spans, clock = self.stats[name], self._stack, self.spans, time.perf_counter

        def span(*args, **kwargs):
            frame = [len(spans), 0.0]
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                spans[frame[0]] = (self.request, parent, name, t0, t1)
                stats[0] += 1
                stats[1] += dur - frame[1]
                stats[2] += dur
                if stack:
                    stack[-1][1] += dur
        return span

    def instrument(self, prob):
        """A copy of ``prob`` whose hooks are counted and timed."""
        hooks = {h: self._hook(f"model.hook.{h}", getattr(prob, h))
                 for h in HOOKS if getattr(prob, h) is not None}
        return dataclasses.replace(prob, **hooks)

    def _tr_minimize(self, traced):
        counters = self.counters

        def tr_minimize(fun, grad, hess, x0, delta, config=None):
            # one objective call per trial step and one Hessian call per
            # accepted step, plus one of each at the start point
            calls = [0, 0]

            def fun_counted(z):
                calls[0] += 1
                return fun(z)

            def hess_counted(z):
                calls[1] += 1
                return hess(z)

            try:
                return traced(fun_counted, grad, hess_counted, x0, delta, config)
            finally:
                counters["trustregion.trial_steps"] += max(calls[0] - 1, 0)
                counters["trustregion.accepted_steps"] += max(calls[1] - 1, 0)
        return tr_minimize

    def _solve(self, traced):
        counters = self.counters

        def solve(*args, **kwargs):
            report = traced(*args, **kwargs)
            counters["driver.outer_iterations"] += len(report.iterates)
            counters["driver.inner_iterations"] += sum(rec.inner_iterations for rec in report.iterates)
            return report
        return solve

    def _get_problem(self, original):
        def get_problem(name):
            entry = original(name)
            return dataclasses.replace(entry, problem=self.instrument(entry.problem))
        return get_problem

    def _rebind(self, original, replacement):
        found = False
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "nsdpen" and not mod_name.startswith("nsdpen."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)
                    self._undo.append((mod, key, original))
                    found = True
        if not found:
            raise LookupError(f"{original.__module__}.{original.__name__} is not bound in any nsdpen module")

    @contextmanager
    def installed(self):
        """Rebind the traced functions in every nsdpen module; restore them on exit."""
        try:
            for name, (mod, attr) in SPANS.items():
                original = getattr(mod, attr)
                wrapped = self._span(name, original)
                if name == "trustregion.tr_minimize":
                    wrapped = self._tr_minimize(wrapped)
                elif name == "driver.solve":
                    wrapped = self._solve(wrapped)
                self._rebind(original, wrapped)
            self._rebind(problems.get_problem, self._get_problem(problems.get_problem))
            yield self
        finally:
            while self._undo:
                mod, key, original = self._undo.pop()
                setattr(mod, key, original)

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        s, c = self.stats, self.counters

        def calls(name):
            return (s[name][0], "count")

        def self_s(name):
            return (s[name][1], "s")

        trials = c["trustregion.trial_steps"]
        hess = s["penalty.hess"]
        out = {
            "matfun.eig_sym.calls": calls("matfun.eig_sym"),
            "matfun.eig_sym.self_s": self_s("matfun.eig_sym"),
            "matfun.dq_coeff.self_s": self_s("matfun.dq_coeff"),
            "matfun.dq_apply.calls": calls("matfun.dq_apply"),
            "matfun.dq_apply.self_s": self_s("matfun.dq_apply"),
        }
        out.update({f"model.hook.{h}.calls": calls(f"model.hook.{h}") for h in REPORTED_HOOKS})
        out.update({
            "model.hook.self_s": (sum(s[f"model.hook.{h}"][1] for h in HOOKS), "s"),
            "model.dG_adjoint.self_s": self_s("model.dG_adjoint"),
            "model.audit_derivatives.self_s": self_s("model.audit_derivatives"),
        })
        for kind in ("value", "grad", "hess"):
            out[f"penalty.{kind}.calls"] = calls(f"penalty.{kind}")
            out[f"penalty.{kind}.self_s"] = self_s(f"penalty.{kind}")
        out.update({
            "penalty.hess.ms_per_call": (1e3 * hess[2] / hess[0] if hess[0] else 0.0, "ms"),
            "trustregion.ms_subproblem.calls": calls("trustregion.ms_subproblem"),
            "trustregion.ms_subproblem.self_s": self_s("trustregion.ms_subproblem"),
            "trustregion.tr_minimize.self_s": self_s("trustregion.tr_minimize"),
            "trustregion.trial_steps": (trials, "count"),
            "trustregion.accepted_steps": (c["trustregion.accepted_steps"], "count"),
            "trustregion.accept_ratio": (c["trustregion.accepted_steps"] / trials if trials else 0.0, "ratio"),
            "optimality.sigma_term.self_s": self_s("optimality.sigma_term"),
            "optimality.lagrangian_hess.self_s": self_s("optimality.lagrangian_hess"),
            "optimality.critical_subspace_basis.self_s": self_s("optimality.critical_subspace_basis"),
            "optimality.certificates.total_s": (s["optimality.critical_subspace_basis"][2]
                                                + s["optimality.second_order_residual"][2], "s"),
            "driver.outer_iterations": (c["driver.outer_iterations"], "count"),
            "driver.inner_iterations": (c["driver.inner_iterations"], "count"),
            "driver.solve.self_s": self_s("driver.solve"),
            # a share, not seconds: the generated families never call the
            # CLI, and a time that reads 0 on every run is not a measurement
            "cli.main.self_share": (s["cli.main"][1] / s["cli.main"][2] if s["cli.main"][2] else 0.0, "ratio"),
            "cli.bytes_written": (c["cli.bytes_written"], "bytes"),
        })
        return out

    def write_spans(self, path):
        """Write the spans as JSON lines after a header naming the fields; times in s from the first span."""
        origin = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as handle:
            handle.write(json.dumps({"fields": ["id", "request", "parent", "name", "start", "end"]}) + "\n")
            for i, (request, parent, name, t0, t1) in enumerate(self.spans):
                handle.write(json.dumps([i, request, parent, name, round(t0 - origin, 7), round(t1 - origin, 7)]) + "\n")
