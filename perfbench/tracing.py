"""Outside-in tracing of the package's layers.

The package binds its functions with ``from .x import f``, so one function
object can live under several module attributes (``apply_sampling`` is bound
in ``sensing``, ``measurement``, ``recovery``, ``frobenius_sets`` and
``nuclear_sets``).  :class:`Tracer` replaces every binding of each wrapped
function in every loaded ``lowrank_uq`` module, so internal calls cannot
escape the trace, and puts every original back on :meth:`Tracer.uninstall`.

Each wrapped call is a span.  A function's self time is its span time minus
the time of the wrapped spans it calls, so the self times of one op add up
to the time spent inside the outermost wrapped calls.
"""

from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass

PACKAGE = "lowrank_uq"

# the public functions of each measured layer (module of the package)
LAYERS = {
    "sensing": ("draw_plan", "draw_paired_plan", "full_basis_plan",
                "apply_sampling", "adjoint_average", "pauli_coefficients"),
    "measurement": ("measure_gaussian", "measure_bernoulli_pauli"),
    "recovery": ("pilot_estimate", "pilot_to_state"),
    "matrices": ("eigh", "project_state_space", "best_rank_k",
                 "project_rank_k_state_space"),
    "frobenius_sets": ("rss_statistic", "ustat_statistic", "reavg_statistic",
                       "paired_rss_statistic"),
    "nuclear_sets": ("eigenvalue_estimator", "select_k_hat", "nuclear_confidence_set"),
    "certificates": ("run_certificate",),
    "experiments": ("run_experiment", "replication_statistic"),
    "calibration": ("calibrate_nuclear",),
}
WRAPPED = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
PLAN_FUNCTIONS = ("sensing.draw_plan", "sensing.draw_paired_plan", "sensing.full_basis_plan")
_MARK = "__perfbench_span__"


@dataclass
class SpanStats:
    calls: int = 0
    self_ns: int = 0
    total_ns: int = 0


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Span timer and counters for the wrapped functions; one per run.

    ``label`` names the op class being run, so pilot solves can be broken
    down by class.
    """

    def __init__(self):
        self.label = None
        self._stack = []  # [qualified name, time of child spans] per open span
        self._bindings = []  # (module, attribute, original)
        self.reset()

    def reset(self) -> None:
        self.stats = {name: SpanStats() for name in WRAPPED}
        self.counters = {}
        self.pilot_by_label = {}  # label -> [solves, iterations, cap hits]

    def count(self, key: str, amount=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _inside(self, names) -> bool:
        return any(frame[0] in names for frame in self._stack)

    # -- install / uninstall ----------------------------------------------------

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for qualname in WRAPPED:
            mod_name, fn_name = qualname.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
            wrapper = self._wrap(qualname, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._bindings.append((module, attr, original))

    def uninstall(self) -> list:
        """Restore every replaced binding; return the names still wrapped
        anywhere in the package (empty when the restore is complete)."""
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings = []
        return [f"{module.__name__}.{attr}" for module in _package_modules()
                for attr, value in vars(module).items() if hasattr(value, _MARK)]

    # -- spans ------------------------------------------------------------------

    def _wrap(self, qualname, original):
        after = getattr(self, "_after_" + qualname.replace(".", "_"), None)
        params = inspect.signature(original).parameters
        names = tuple(params)
        defaults = {k: p.default for k, p in params.items() if p.default is not p.empty}
        wants_info = qualname == "recovery.pilot_estimate" and "return_info" in params

        def span(*args, **kwargs):
            caller_wants_info = kwargs.get("return_info", False)
            if wants_info:
                kwargs["return_info"] = True
            plans_before = self.counters.get("draw_plan_calls", 0)
            self._stack.append([qualname, 0])
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                _, child_ns = self._stack.pop()
                st = self.stats[qualname]
                st.calls += 1
                st.self_ns += elapsed - child_ns
                st.total_ns += elapsed
                if self._stack:
                    self._stack[-1][1] += elapsed
            if after is not None:
                after({**defaults, **dict(zip(names, args)), **kwargs}, result, plans_before)
            if wants_info and not caller_wants_info:
                return result[0]
            return result

        setattr(span, _MARK, qualname)
        span.__wrapped__ = original
        span.__name__ = original.__name__
        span.__doc__ = original.__doc__
        return span

    # -- per-function counters, run after the span closes ------------------------

    def _plan_bytes(self, plan) -> None:
        if self._inside(PLAN_FUNCTIONS):
            return  # a nested plan call is counted by the outermost one
        for array in (plan.matrices, plan.indices):
            if array is not None:
                self.count("plan_bytes", array.nbytes)

    def _after_sensing_draw_plan(self, args, plan, plans_before):
        self.count("draw_plan_calls")
        self._plan_bytes(plan)

    def _after_sensing_draw_paired_plan(self, args, plan, plans_before):
        self._plan_bytes(plan)

    def _after_sensing_full_basis_plan(self, args, plan, plans_before):
        self._plan_bytes(plan)

    def _after_sensing_pauli_coefficients(self, args, coeffs, plans_before):
        # computed, not measured: the dense-basis transform reads the
        # (4^N, d^2) complex basis, writes its conj() copy and reads the copy
        # in the matvec, plus the input matrix and the output coefficients
        d2 = 4 ** args["num_qubits"]
        basis = 16 * d2 * d2
        self.count("pauli_coefficients_bytes", 3 * basis + 16 * d2 + coeffs.nbytes)

    def _after_experiments_replication_statistic(self, args, stat, plans_before):
        if self.counters.get("draw_plan_calls", 0) == plans_before:
            self.count("replication_shortcuts")

    def _after_recovery_pilot_estimate(self, args, result, plans_before):
        info = result[1]
        iterations = info["iterations"] if isinstance(info, dict) else info.iterations
        capped = int(iterations >= args["config"].max_iters)
        self.count("pilot_iterations", iterations)
        self.count("pilot_cap_hits", capped)
        tally = self.pilot_by_label.setdefault(self.label, [0, 0, 0])
        tally[0] += 1
        tally[1] += iterations
        tally[2] += capped

    def _after_matrices_best_rank_k(self, args, result, plans_before):
        if self._inside(("nuclear_sets.select_k_hat",)):
            self.count("select_k_hat_rank_scans")

    def _after_certificates_run_certificate(self, args, cert, plans_before):
        self.count("certificate_epochs", len(cert.epochs))
