"""Span tracer for the benchmark child: wraps calls into qsym's public functions.

Nothing inside `src/` is edited. Each traced function is replaced where it is
defined *and* at every qsym module that imported it by name, so a call made
through any binding (for example `classify` calling `rootsys.weight_multiplicities`
through its own import, or `liealg` calling it through another) opens exactly
one span. `QRat` is the innermost arithmetic of `qsl2`; its methods run about
10^5 times per workload, so they are counted and timed as one layer instead of
recording a span per call.

A span is `[name, start, end, parent, row]`: times from `time.perf_counter`,
`parent` the index of the enclosing span (-1 at top level), and `row` the
classify row it belongs to (`"E6 1,0,0,0,0,0"`), inherited from the enclosing
`classify_pair` span.
"""

import sys
import time

# (layer, function) pairs, layer being the qsym module that defines it.
TARGETS = [
    ("rootsys", "weight_multiplicities"),
    ("liealg", "chevalley_basis"),
    ("liealg", "highest_weight_module"),
    ("liealg", "abelian_radical_module"),
    ("poisson", "r_minus_operator"),
    ("poisson", "generator_brackets"),
    ("poisson", "schouten_promoted"),
    ("poisson", "jacobi_oracle"),
    ("bialg", "standard_r"),
    ("bialg", "parabolic_semidirect"),
    ("bialg", "check_lie_bialgebra"),
    # traced so that the sweep's row enumeration is not counted in cli.main's
    # self time, which is then argument parsing plus JSON rendering
    ("classify", "classification_table"),
    ("classify", "classify_pair"),
    ("classify", "weight_filter"),
    ("classify", "geometric_ambients"),
    ("qsl2", "braided_flatness"),
    ("qsl2", "commutor_matrix"),
    ("qsl2", "locally_finite_generators"),
    ("cli", "main"),
]

# Functions whose distinct argument tuples are counted, to expose repeated work.
DISTINCT = {"bialg.parabolic_semidirect"}

_MARK = "_perfbench_wrapped"


def _row_label(g_type, lam):
    if isinstance(g_type, tuple):
        g_type = "%s%d" % g_type
    return "%s %s" % (g_type, ",".join(str(c) for c in lam))


class Tracer:
    """Installs the wrappers, records spans and counters, and restores everything."""

    def __init__(self):
        self.spans = []
        self.distinct = {name: set() for name in DISTINCT}
        self.rows = 0
        self.rows_passing = 0
        self.qrat = {"new": 0, "coeffs": 0, "busy_s": 0.0}
        self._stack = []
        self._qrat_depth = 0
        self._patches = []

    # -- installation -------------------------------------------------------

    def install(self):
        mods = _qsym_modules()
        for layer, fname in TARGETS:
            home = sys.modules["qsym." + layer]
            fn = getattr(home, fname)
            wrapper = self._span_wrapper("%s.%s" % (layer, fname), fn)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._patches.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        qrat = sys.modules["qsym.scalars"].QRat
        for attr, val in list(vars(qrat).items()):
            if isinstance(val, staticmethod):
                wrapped = staticmethod(self._qrat_wrapper(val.__func__, False))
            elif callable(val):
                wrapped = self._qrat_wrapper(val, attr == "__init__")
            else:
                continue
            self._patches.append((qrat, attr, val))
            setattr(qrat, attr, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @staticmethod
    def leftover_wrappers():
        """Bindings in qsym modules (and on QRat) that still hold a wrapper."""
        owners = _qsym_modules() + [sys.modules["qsym.scalars"].QRat]
        left = 0
        for owner in owners:
            for val in vars(owner).values():
                if isinstance(val, staticmethod):
                    val = val.__func__
                if getattr(val, _MARK, False):
                    left += 1
        return left

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        distinct = self.distinct.get(name)
        is_row = name == "classify.classify_pair"

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            row = spans[parent][4] if parent >= 0 else None
            if is_row:
                row = _row_label(args[0], args[1])
            if distinct is not None:
                distinct.add(repr((args, sorted(kwargs.items()))))
            rec = [name, 0.0, 0.0, parent, row]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if is_row:
                self.rows += 1
                self.rows_passing += bool(out.passing)
            return out

        setattr(wrapper, _MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    def _qrat_wrapper(self, fn, is_init):
        counters = self.qrat
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._qrat_depth += 1
            start = clock() if tracer._qrat_depth == 1 else None
            try:
                out = fn(*args, **kwargs)
                if is_init:
                    me = args[0]
                    counters["new"] += 1
                    counters["coeffs"] += len(me.num) + len(me.den)
                return out
            finally:
                tracer._qrat_depth -= 1
                if start is not None:
                    counters["busy_s"] += clock() - start

        setattr(wrapper, _MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- derived metrics --------------------------------------------------------

    def layer_metrics(self):
        """Per-function calls, busy, self and max seconds; see METRICS.md."""
        spans = self.spans
        child_sum = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_sum[parent] += end - start
        stats = {}
        for idx, (name, start, end, parent, _) in enumerate(spans):
            st = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                         "max_s": 0.0})
            dur = end - start
            st["calls"] += 1
            st["self_s"] += dur - child_sum[idx]
            st["max_s"] = max(st["max_s"], dur)
            # busy time counts a span only when no enclosing span has its name
            up = parent
            while up >= 0 and spans[up][0] != name:
                up = spans[up][3]
            if up < 0:
                st["busy_s"] += dur
        out = {}
        for layer, fname in TARGETS:
            name = "%s.%s" % (layer, fname)
            st = stats.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                  "max_s": 0.0})
            for key, val in st.items():
                out["%s.%s" % (name, key)] = val
        for name, keys in self.distinct.items():
            calls = out[name + ".calls"]
            out[name + ".distinct"] = len(keys)
            out[name + ".useful_ratio"] = len(keys) / calls if calls else 0.0
        out["classify.rows"] = self.rows
        out["classify.rows_passing"] = self.rows_passing
        out["scalars.QRat.new"] = self.qrat["new"]
        out["scalars.QRat.coeffs"] = self.qrat["coeffs"]
        out["scalars.QRat.busy_s"] = self.qrat["busy_s"]
        return out


def _qsym_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "qsym" or n.startswith("qsym."))]
