"""Per-layer tracing for the benchmark, applied from outside the package.

``Tracer.install()`` replaces chosen functions and methods of the loaded
``tau_forge`` modules with wrappers, at every module attribute that is bound
to the same function object (so ``qscalar.ipoly_gcd``, ``_kernels.ipoly_gcd``
and the global that ``_pykernels.ipoly_gcd`` calls all count).  Nothing
under ``src/`` is edited; ``restore()`` puts every original back.

A *span* wrapper times each call and keeps, per name, the number of calls
and the self time: the call's duration minus the time covered by nested
spans.  Spans are aggregated in memory as they close rather than stored one
by one, because the kernel layers see millions of calls per pass.  A
*count* wrapper only counts calls (``QScalar.is_zero`` sees ~10M calls on
the spin ladder).  Hooks add the work counters and ratios named below.

``LAYER_METRICS`` is the fixed list of per-layer metrics, with the
end-to-end metric each one should move.  Metrics of ``tau_forge._kernels``
are named ``kernels.*``: a metric name starts with a letter or a digit.
The run is single-threaded, so no waiting time is reported.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# the spin ladder (2j, 2j') and the Toda sizes the workloads run; they also
# name the curve metrics
LM_LADDER = ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (4, 4))
TODA_SIZES = (2, 3, 4, 5, 6)

# name, unit, better, which end-to-end metric it should move
LAYER_METRICS = []


def _metric(name, unit, better, moves):
    LAYER_METRICS.append((name, unit, better, moves))


def _span_metrics(name, moves):
    _metric(f"{name}.calls", "count", "lower", moves)
    _metric(f"{name}.self_s", "s", "lower", moves)


_span_metrics("kernels.ipoly_gcd", "spin.verdict_s")
_span_metrics("kernels.ipoly_prem", "spin.verdict_s")
_span_metrics("kernels.ipoly_mul", "spin.verdict_s")
_metric("kernels.ipoly_mul.term_products", "count", "lower", "spin.verdict_s")
_span_metrics("kernels.ipoly_divexact", "spin.verdict_s")
_span_metrics("kernels.tup_add", "toda.verdict_s, cli-all.verdict_s")
_span_metrics("qscalar.QScalar.mul", "toda.verdict_s, cli-all.verdict_s; spin unchanged")
_metric("qscalar.QScalar.mul.rational_share", "ratio", "lower", "toda.verdict_s, cli-all.verdict_s")
_span_metrics("qscalar.QScalar.add", "toda.verdict_s, cli-all.verdict_s; spin unchanged")
_span_metrics("qscalar.QScalar.inv", "spin.verdict_s")
_metric("qscalar.QScalar.is_zero.calls", "count", "lower", "spin.verdict_s")
_span_metrics("ncalg.TimesPoly.mul", "toda.verdict_s, cli-all.verdict_s")
_metric("ncalg.TimesPoly.mul.term_products", "count", "lower", "toda.verdict_s, cli-all.verdict_s")
_metric("ncalg.TimesPoly.mul.kept_ratio", "ratio", "higher", "toda.verdict_s, cli-all.verdict_s")
_span_metrics("ncalg.NCPoly.mul", "spin.verdict_s, cli-all.verdict_s")
_span_metrics("ncalg.Presentation.reduce_word", "spin.verdict_s, cli-all.verdict_s")
_metric("ncalg.Presentation.memo_hit_ratio", "ratio", "higher", "spin.verdict_s, cli-all.verdict_s")
_span_metrics("linalg.solve_exact", "spin.top_rung_s, spin.verdict_s")
_metric("linalg.solve_exact.unknowns_max", "count", "lower", "spin.top_rung_s")
_metric("linalg.solve_exact.unknowns_sum", "count", "lower", "spin.verdict_s")
_span_metrics("linalg.nullspace", "spin.top_rung_s, spin.verdict_s")
_metric("linalg.nullspace.cols_max", "count", "lower", "spin.verdict_s")
_span_metrics("uqsl2.make_rep", "spin.verdict_s")
_span_metrics("uqsl2.q_exp_nilpotent", "spin.verdict_s")
_span_metrics("funq.embed_chain", "spin.top_rung_s")
_metric("funq.embed_chain.builds", "count", "lower", "warm_s")
_span_metrics("funq.t_matrix", "spin.top_rung_s")
for _tj in range(1, 6):
    _metric(f"funq.t_matrix.2j{_tj}.s", "s", "lower", "spin.top_rung_s")
_span_metrics("qvertex.solve_vertex_components", "spin.verdict_s, cli-all.verdict_s")
_metric("qvertex.solve_vertex_components.builds", "count", "lower", "warm_s")
for _tj in range(1, 6):
    _metric(f"qvertex.solve_vertex_components.2j{_tj}.s", "s", "lower", "spin.verdict_s")
for _a, _b in LM_LADDER:
    _metric(f"qhirota.verify_lm.2j{_a}-2j{_b}.s", "s", "lower", "spin.verdict_s")
_span_metrics("kpfock.flow", "cli-all.verdict_s")
_span_metrics("kpfock.tau_kp", "cli-all.verdict_s")
_span_metrics("kpfock._tp_mul_capped", "cli-all.verdict_s, cli-all.top_rung_s")
_metric("kpfock._tp_mul_capped.term_products", "count", "lower", "cli-all.verdict_s")
_metric("kpfock._tp_mul_capped.kept_ratio", "ratio", "higher", "cli-all.verdict_s")
KP_CURVE = (("M3", 6), ("M4", 6), ("H6", 4))
for _which, _deg in KP_CURVE:
    _metric(f"kpfock.verify_hirota_kp.{_which}.deg{_deg}.s", "s", "lower", "cli-all.verdict_s")
_span_metrics("toda.toda_tau", "toda.verdict_s")
_span_metrics("toda.toda_tau_all", "toda.verdict_s")
_span_metrics("toda._tp_det", "toda.verdict_s, toda.top_rung_s")
for _n in TODA_SIZES:
    _metric(f"toda.verify_toda_bilinear.size{_n}.s", "s", "lower", "toda.verdict_s")
CHECK_IDS = (
    "funq.corep", "funq.dual-route", "funq.gauss-relations", "funq.gradings",
    "hopf.matrices", "kp.cauchy", "kp.fermions", "kp.h6", "kp.heisenberg",
    "kp.m3", "kp.m4", "lm", "lm.grid", "ncalg.confluence.funq-sl2",
    "ncalg.confluence.gauss-param", "ncalg.qexp-addition", "qliouville.eq-half",
    "qliouville.hierarchy", "qliouville.suite", "qscalar.canonical",
    "qscalar.qnumbers", "toda.random", "toda.worked",
    "vertex.component-relations", "vertex.normalizations", "vertex.qexp-commutation",
)
for _cid in CHECK_IDS:
    _metric(f"cli.run_check.{_cid}.s", "s", "lower", "cli-all.verdict_s")
_metric("cli.ms_unaccounted_checks", "count", "lower", "none (report truth; recorded, not gated)")
_metric("trace.overhead_s", "s", "lower", "none (traced minus untraced verdict_s)")
_metric("trace.traced_verdict_s", "s", "lower", "none (cold pass with tracing on)")


class Tracer:
    """Wraps package functions; aggregates calls, self time and counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self._stack = []
        self._undo = []
        self._seen_results = defaultdict(list)

    # -- wrapping ---------------------------------------------------------

    def _span(self, name, fn, after=None):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                calls[name] += 1
                self_s[name] += dur - child
                if stack:
                    stack[-1] += dur
            if after is not None:
                after(args, kwargs, out, dur)
            return out

        return wrapper

    def _count(self, name, fn, before=None):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if before is not None:
                before(args)
            return fn(*args, **kwargs)

        return wrapper

    def _rebind_function(self, module, attr, make):
        """Wrap ``module.attr`` at every tau_forge module binding it."""
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("tau_forge"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, original))

    def _rebind_method(self, cls, attr, make):
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._undo.append((cls, attr, original))

    def restore(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- counters ---------------------------------------------------------

    def _add(self, key, value):
        self.counters[key] += value

    def _max(self, key, value):
        if value > self.counters[key]:
            self.counters[key] = value

    def _builds(self, name):
        # a cache hit returns an object already returned before; keeping the
        # results alive stops their ids from being reused
        seen = self._seen_results[name]

        def after(args, kwargs, out, dur):
            if not any(out is prev for prev in seen):
                seen.append(out)
                self._add(f"{name}.builds", 1)

        return after

    def install(self):
        import tau_forge._kernels as kernels
        from tau_forge import funq, kpfock, linalg, ncalg, qhirota, qscalar, qvertex, toda, uqsl2

        span, rebind, twice = self._span, self._rebind_function, uqsl2.twice

        for kname in ("ipoly_gcd", "ipoly_prem", "ipoly_divexact", "tup_add"):
            rebind(kernels, kname, lambda f, n=kname: span(f"kernels.{n}", f))

        def mul_terms(args, kwargs, out, dur):
            self._add("kernels.ipoly_mul.term_products", len(args[0]) * len(args[1]))

        rebind(kernels, "ipoly_mul", lambda f: span("kernels.ipoly_mul", f, mul_terms))

        QScalar = qscalar.QScalar

        def rational_products(args, kwargs, out, dur):
            a, b = args
            if isinstance(b, QScalar):
                self._add("qscalar.mul.products", 1)
                if a.is_rational() and b.is_rational():
                    self._add("qscalar.mul.rational", 1)

        self._rebind_method(QScalar, "__mul__", lambda f: span("qscalar.QScalar.mul", f, rational_products))
        self._rebind_method(QScalar, "__add__", lambda f: span("qscalar.QScalar.add", f))
        self._rebind_method(QScalar, "inv", lambda f: span("qscalar.QScalar.inv", f))
        self._rebind_method(QScalar, "is_zero", lambda f: self._count("qscalar.QScalar.is_zero", f))

        def tp_products(prefix):
            def after(args, kwargs, out, dur):
                a, b = args[0], args[1]
                if isinstance(b, ncalg.TimesPoly):
                    self._add(f"{prefix}.term_products", len(a.terms) * len(b.terms))
                    self._add(f"{prefix}.kept_terms", len(out.terms))

            return after

        self._rebind_method(
            ncalg.TimesPoly, "__mul__",
            lambda f: span("ncalg.TimesPoly.mul", f, tp_products("ncalg.TimesPoly.mul")),
        )
        self._rebind_method(ncalg.NCPoly, "mul", lambda f: span("ncalg.NCPoly.mul", f))
        self._rebind_method(
            ncalg.Presentation, "reduce_word", lambda f: span("ncalg.Presentation.reduce_word", f)
        )

        def memo_probe(args):
            pres, word = args[0], args[1]
            if word in pres._memo:
                self._add("ncalg.Presentation.memo_hits", 1)

        self._rebind_method(
            ncalg.Presentation, "_reduce",
            lambda f: self._count("ncalg.Presentation._reduce", f, memo_probe),
        )

        def solve_size(args, kwargs, out, dur):
            n = len(args[0][0]) if args[0] else 0
            self._max("linalg.solve_exact.unknowns_max", n)
            self._add("linalg.solve_exact.unknowns_sum", n)

        def null_size(args, kwargs, out, dur):
            self._max("linalg.nullspace.cols_max", len(args[0][0]) if args[0] else 0)

        rebind(linalg, "solve_exact", lambda f: span("linalg.solve_exact", f, solve_size))
        rebind(linalg, "nullspace", lambda f: span("linalg.nullspace", f, null_size))
        rebind(uqsl2, "make_rep", lambda f: span("uqsl2.make_rep", f))
        rebind(uqsl2, "q_exp_nilpotent", lambda f: span("uqsl2.q_exp_nilpotent", f))

        rebind(funq, "embed_chain", lambda f: span("funq.embed_chain", f, self._builds("funq.embed_chain")))
        rebind(funq, "t_matrix", lambda f: span("funq.t_matrix", f))

        # the T^(j) curve times _semantic_t, which builds T^(j) for both t_matrix and tau_q
        def t_curve(args, kwargs, out, dur):
            route = args[1] if len(args) > 1 else kwargs.get("route", "abstract")
            if route == "abstract":
                self._add(f"funq.t_matrix.2j{args[0]}.s", dur)

        rebind(funq, "_semantic_t", lambda f: span("funq._semantic_t", f, t_curve))

        def vertex_curve(args, kwargs, out, dur):
            self._add(f"qvertex.solve_vertex_components.2j{twice(args[0])}.s", dur)

        vertex_builds = self._builds("qvertex.solve_vertex_components")

        def vertex_after(args, kwargs, out, dur):
            vertex_builds(args, kwargs, out, dur)
            vertex_curve(args, kwargs, out, dur)

        rebind(qvertex, "solve_vertex_components",
               lambda f: span("qvertex.solve_vertex_components", f, vertex_after))

        def lm_curve(args, kwargs, out, dur):
            self._add(f"qhirota.verify_lm.2j{twice(args[0])}-2j{twice(args[1])}.s", dur)

        rebind(qhirota, "verify_lm", lambda f: span("qhirota.verify_lm", f, lm_curve))

        rebind(kpfock, "flow", lambda f: span("kpfock.flow", f))
        rebind(kpfock, "tau_kp", lambda f: span("kpfock.tau_kp", f))
        rebind(kpfock, "_tp_mul_capped",
               lambda f: span("kpfock._tp_mul_capped", f, tp_products("kpfock._tp_mul_capped")))

        def kp_curve(args, kwargs, out, dur):
            which = args[0]
            self._add(f"kpfock.verify_hirota_kp.{which}.deg{out.params['degree']}.s", dur)

        rebind(kpfock, "verify_hirota_kp", lambda f: span("kpfock.verify_hirota_kp", f, kp_curve))

        rebind(toda, "toda_tau", lambda f: span("toda.toda_tau", f))
        rebind(toda, "toda_tau_all", lambda f: span("toda.toda_tau_all", f))
        rebind(toda, "_tp_det", lambda f: span("toda._tp_det", f))

        def toda_curve(args, kwargs, out, dur):
            self._add(f"toda.verify_toda_bilinear.size{args[0].size}.s", dur)

        rebind(toda, "verify_toda_bilinear", lambda f: span("toda.verify_toda_bilinear", f, toda_curve))

    # -- results ----------------------------------------------------------

    def metrics(self):
        """Every per-layer metric of ``LAYER_METRICS`` except the cli and
        trace ones, which the caller fills in; names no call reached read 0."""
        c = self.counters
        values = {}
        for name, _unit, _better, _moves in LAYER_METRICS:
            if name.endswith(".calls"):
                values[name] = self.calls.get(name[: -len(".calls")], 0)
            elif name.endswith(".self_s"):
                values[name] = self.self_s.get(name[: -len(".self_s")], 0.0)
            elif name in c:
                values[name] = c[name]
        values["qscalar.QScalar.mul.rational_share"] = _ratio(
            c["qscalar.mul.rational"], c["qscalar.mul.products"])
        for prefix in ("ncalg.TimesPoly.mul", "kpfock._tp_mul_capped"):
            values[f"{prefix}.kept_ratio"] = _ratio(c[f"{prefix}.kept_terms"], c[f"{prefix}.term_products"])
        values["ncalg.Presentation.memo_hit_ratio"] = _ratio(
            c["ncalg.Presentation.memo_hits"], self.calls.get("ncalg.Presentation._reduce", 0))
        for name, _unit, _better, _moves in LAYER_METRICS:
            values.setdefault(name, 0)
        return values


def _ratio(num, den):
    return num / den if den else 0.0
