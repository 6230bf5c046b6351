"""Per-layer tracing from outside the program, by wrapping module attributes.

Every target function is replaced in each mocktrace namespace that holds it
(``geodesic`` binds ``eval_jm`` by ``from ... import``, so patching ``modfun``
alone would miss its calls).  A wrapped call adds its duration to its
caller's child time, so a layer's self time is its span minus the spans
nested in it.  Coarse layers also keep a span record (name, start, end,
parent, operation) in memory; the round writes them out when it ends.
A target that no longer exists is reported absent instead of failing.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, keep span records).  Hot inner functions only count.
TARGETS = [
    ("cli", "dispatch", True),
    ("cli", "load_jm_cached", True),
    ("cli", "parse_jm", False),
    ("qform", "classes_negative", True),
    ("qform", "classes_nonsquare", True),
    ("qform", "classes_square", True),
    ("qform", "chi_D", False),
    ("modfun", "eval_jm", False),
    ("modfun", "eval_jmQ", False),
    ("modfun", "jm_coeffs", False),
    ("geodesic", "trace_negative", True),
    ("geodesic", "trace_nonsquare", True),
    ("geodesic", "trace_square", True),
    ("series", "coeff_a", True),
    ("series", "prop1_rhs", True),
    ("series", "_root_sum_array", True),
    ("series", "_bessel_tail_integral", False),
    ("series", "s_m_sum", False),
    ("arith", "bessel_J", False),
    ("arith", "bessel_J_vec", False),
    ("arith", "bessel_I_vec", False),
    ("poincare", "prop1_lhs", True),
    ("poincare", "_coset_arrays", True),
    ("poincare", "_sum_over_cosets", False),
]
SIEVE_TARGET = ("series", "_spf_sieve", True)

CLASSES = ("qform.classes_negative", "qform.classes_nonsquare", "qform.classes_square")
TRACES = ("geodesic.trace_negative", "geodesic.trace_nonsquare", "geodesic.trace_square")
INTEGRAL_TRACES = ("geodesic.trace_nonsquare", "geodesic.trace_square")


def coset_count(bound: int) -> int:
    """Cosets with max(|c|, |d|) <= bound: the identity plus coprime (c, d), c >= 1."""
    import numpy as np

    c = np.arange(1, bound + 1)[:, None]
    d = np.arange(-bound, bound + 1)[None, :]
    return 1 + int(np.count_nonzero(np.gcd(c, d) == 1))


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts = defaultdict(float)
        self.spans: list[list] = []  # [name, start, end, parent span, operation]
        self.absent: set[str] = set()
        self._stack: list[list] = []  # [start, time in nested wrapped calls]
        self._span_stack: list[int] = []
        self._patched: list[tuple] = []
        self._op = None
        self._in_integral = 0
        self._cosets: dict[int, int] = {}

    # ------------------------------------------------------------ patching

    def install(self, targets=TARGETS) -> None:
        for module, attr, keep in targets:
            mod = sys.modules.get(f"mocktrace.{module}")
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.absent.add(f"{module}.{attr}")
                continue
            for ns_name, ns in list(sys.modules.items()):
                if not ns_name.startswith("mocktrace") or ns is None:
                    continue
                for key, val in list(vars(ns).items()):
                    if val is fn:
                        self._patched.append((ns, key, fn))
                        setattr(ns, key, self._wrap(f"{module}.{attr}", fn, keep, ns_name))

    def restore(self) -> None:
        for ns, key, fn in reversed(self._patched):
            setattr(ns, key, fn)
        self._patched.clear()

    @contextmanager
    def only(self, target):
        """Trace one extra target for the duration of the block."""
        mark = len(self._patched)
        self.install([target])
        try:
            yield
        finally:
            while len(self._patched) > mark:
                ns, key, fn = self._patched.pop()
                setattr(ns, key, fn)

    def run_op(self, index: int, op: str, fn):
        """Call fn() as operation `index`, under a span of its own."""
        self._op = index
        try:
            return self._wrap("op", lambda _: fn(), True, None)(op)
        finally:
            self._op = None

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name, fn, keep, ns_name):
        stat = self.stats[name]
        stack, span_stack, spans = self._stack, self._span_stack, self.spans
        before, after = self._hooks(name, fn, ns_name)

        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            span_id = None
            if keep:
                span_id = len(spans)
                spans.append([name, 0.0, 0.0, span_stack[-1] if span_stack else None, self._op])
                span_stack.append(span_id)
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            error = None
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[0]
                if stack:
                    stack[-1][1] += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
                if keep:
                    span_stack.pop()
                    spans[span_id][1:3] = [frame[0], end]
                if after:
                    after(state, args, kwargs, error, dur)

        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self, name, fn, ns_name):
        """(before, after) callables that take the counts this layer needs."""
        c = self.counts
        if name == "series._root_sum_array":
            info = getattr(fn, "cache_info", None)

            def before(args, kwargs):
                return info().hits if info else None

            def after(hits, args, kwargs, error, dur):
                if error:
                    return
                if hits is not None and info().hits > hits:
                    c["root_sums.hits"] += 1
                else:
                    c["root_sums.misses"] += 1
                    c["root_sums.moduli"] += _arg(args, kwargs, 2, "c_max")
                    c["root_sums.miss_s"] += dur

            return before, after
        if name in ("arith.bessel_J_vec", "arith.bessel_I_vec"):
            import numpy as np

            def after(state, args, kwargs, error, dur):
                c[f"{name}.args"] += int(np.size(_arg(args, kwargs, 1, "x")))

            return None, after
        if name == "poincare._sum_over_cosets":

            def after(state, args, kwargs, error, dur):
                bound = _arg(args, kwargs, 3, "bound")
                if bound not in self._cosets:
                    self._cosets[bound] = coset_count(bound)
                c["coset_sum.nodes"] += 1
                c["coset_sum.coset_nodes"] += self._cosets[bound] - len(
                    _arg(args, kwargs, 4, "excluded", ())
                )

            return None, after
        if name == "cli.load_jm_cached":
            path_of = getattr(sys.modules["mocktrace.cli"], "_cache_path", None)

            def before(args, kwargs):
                if path_of is None:
                    return None
                path = path_of(_arg(args, kwargs, 0, "m"), _arg(args, kwargs, 1, "N"))
                return path, path.exists()

            def after(state, args, kwargs, error, dur):
                if state and not error and not state[1] and state[0].exists():
                    c["cli.cache.writes"] += 1

            return before, after
        if name == "cli.parse_jm":

            def after(state, args, kwargs, error, dur):
                if not error:
                    c["cli.cache.reads"] += 1

            return None, after
        if name in ("modfun.eval_jm", "modfun.eval_jmQ") and ns_name == "mocktrace.geodesic":

            def before(args, kwargs):
                if self._in_integral:
                    c["geodesic.integrand_evals"] += 1

            return before, None
        if name in TRACES:
            integral = name in INTEGRAL_TRACES

            def before(args, kwargs):
                if integral:
                    self._in_integral += 1
                    c["geodesic.integral_traces"] += 1

            def after(state, args, kwargs, error, dur):
                if integral:
                    self._in_integral -= 1
                if isinstance(error, ArithmeticError) and "imaginary residue" in str(error):
                    c["geodesic.imag_residue_errors"] += 1

            return before, after
        return None, None

    # ------------------------------------------------------------ metrics

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def total(self, name: str) -> float:
        return self.stats[name][1] if name in self.stats else 0.0

    def self_s(self, *names: str) -> float:
        return sum(self.stats[n][2] for n in names if n in self.stats)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of PER_LAYER, by name (absent targets read 0)."""
        return {name: float(fn(self)) for name, _, _, fn in PER_LAYER}

    def absent_metrics(self) -> list[str]:
        return [name for name, _, needs, _ in PER_LAYER if any(t in self.absent for t in needs)]


def _rate(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


# (metric, unit, targets it needs, value from a Tracer).  The unit and the
# better-direction are repeated in BENCHMARK.json's per_layer list.
PER_LAYER = [
    ("cli.dispatch.self_s", "s", ["cli.dispatch"], lambda t: t.self_s("cli.dispatch")),
    ("cli.cache.reads", "count", ["cli.parse_jm"], lambda t: t.counts["cli.cache.reads"]),
    ("cli.cache.writes", "count", ["cli.load_jm_cached"], lambda t: t.counts["cli.cache.writes"]),
    ("cli.load_jm_cached.self_s", "s", ["cli.load_jm_cached"],
     lambda t: t.self_s("cli.load_jm_cached")),
    ("qform.classes.calls", "count", list(CLASSES), lambda t: sum(t.calls(n) for n in CLASSES)),
    ("qform.classes.self_s", "s", list(CLASSES), lambda t: t.self_s(*CLASSES)),
    ("qform.chi_D.self_s", "s", ["qform.chi_D"], lambda t: t.self_s("qform.chi_D")),
    ("modfun.eval_jm.calls", "count", ["modfun.eval_jm"], lambda t: t.calls("modfun.eval_jm")),
    ("modfun.eval_jm.us_per_call", "us", ["modfun.eval_jm"],
     lambda t: _rate(t.total("modfun.eval_jm"), t.calls("modfun.eval_jm"), 1e6)),
    ("modfun.eval_jmQ.calls", "count", ["modfun.eval_jmQ"], lambda t: t.calls("modfun.eval_jmQ")),
    ("modfun.eval_jmQ.us_per_call", "us", ["modfun.eval_jmQ"],
     lambda t: _rate(t.total("modfun.eval_jmQ"), t.calls("modfun.eval_jmQ"), 1e6)),
    ("modfun.jm_coeffs.self_s", "s", ["modfun.jm_coeffs"], lambda t: t.self_s("modfun.jm_coeffs")),
    ("geodesic.integrand_evals_per_trace", "count", ["modfun.eval_jm", "modfun.eval_jmQ"],
     lambda t: _rate(t.counts["geodesic.integrand_evals"], t.counts["geodesic.integral_traces"])),
    ("geodesic.trace.self_s", "s", list(TRACES), lambda t: t.self_s(*TRACES)),
    ("geodesic.quad_warnings", "count", [], lambda t: t.counts["geodesic.quad_warnings"]),
    ("geodesic.imag_residue_errors", "count", list(TRACES),
     lambda t: t.counts["geodesic.imag_residue_errors"]),
    ("series.sieve_s", "s", ["series._spf_sieve"], lambda t: t.total("series._spf_sieve")),
    ("series.root_sums.moduli", "count", ["series._root_sum_array"],
     lambda t: t.counts["root_sums.moduli"]),
    ("series.root_sums.s_per_1e4_moduli", "s", ["series._root_sum_array"],
     lambda t: _rate(t.counts["root_sums.miss_s"], t.counts["root_sums.moduli"], 1e4)),
    ("series.root_sums.cache_hits", "count", ["series._root_sum_array"],
     lambda t: t.counts["root_sums.hits"]),
    ("series.root_sums.cache_misses", "count", ["series._root_sum_array"],
     lambda t: t.counts["root_sums.misses"]),
    ("series.tail_integral.calls", "count", ["series._bessel_tail_integral"],
     lambda t: t.calls("series._bessel_tail_integral")),
    ("series.tail_integral.self_s", "s", ["series._bessel_tail_integral"],
     lambda t: t.self_s("series._bessel_tail_integral")),
    ("arith.bessel_J.calls", "count", ["arith.bessel_J"], lambda t: t.calls("arith.bessel_J")),
    ("arith.bessel_J.self_s", "s", ["arith.bessel_J"], lambda t: t.self_s("arith.bessel_J")),
    ("arith.bessel_J_vec.args", "count", ["arith.bessel_J_vec"],
     lambda t: t.counts["arith.bessel_J_vec.args"]),
    ("arith.bessel_J_vec.ns_per_arg", "ns", ["arith.bessel_J_vec"],
     lambda t: _rate(t.total("arith.bessel_J_vec"), t.counts["arith.bessel_J_vec.args"], 1e9)),
    ("series.s_m_sum.calls", "count", ["series.s_m_sum"], lambda t: t.calls("series.s_m_sum")),
    ("series.s_m_sum.self_s", "s", ["series.s_m_sum"], lambda t: t.self_s("series.s_m_sum")),
    ("poincare.coset_arrays.self_s", "s", ["poincare._coset_arrays"],
     lambda t: t.self_s("poincare._coset_arrays")),
    ("poincare.coset_sum.nodes", "count", ["poincare._sum_over_cosets"],
     lambda t: t.counts["coset_sum.nodes"]),
    ("poincare.coset_sum.coset_nodes", "count", ["poincare._sum_over_cosets"],
     lambda t: t.counts["coset_sum.coset_nodes"]),
    ("poincare.coset_sum.s_per_1e6_coset_nodes", "s", ["poincare._sum_over_cosets"],
     lambda t: _rate(t.total("poincare._sum_over_cosets"), t.counts["coset_sum.coset_nodes"], 1e6)),
    ("arith.bessel_I_vec.args", "count", ["arith.bessel_I_vec"],
     lambda t: t.counts["arith.bessel_I_vec.args"]),
    ("arith.bessel_I_vec.ns_per_arg", "ns", ["arith.bessel_I_vec"],
     lambda t: _rate(t.total("arith.bessel_I_vec"), t.counts["arith.bessel_I_vec.args"], 1e9)),
    ("poincare.prop1_lhs.self_s", "s", ["poincare.prop1_lhs"],
     lambda t: t.self_s("poincare.prop1_lhs")),
]
