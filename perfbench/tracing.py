"""Span tracing of the package's layers, installed from outside.

Each hook replaces one public function, method or property with a
wrapper that records a span (name, start, end, parent, operation). A
function is wrapped where its caller looks it up: `harness.run` is
called through the `harness` module, `newton_solve` through the
`integrators` and `costs` modules that imported it, `tau_sweep` through
`cli`. Spans stay in memory until the run ends. A hook whose target no
longer exists is skipped and its metrics are reported as absent, so a
renamed function costs a metric, not the run.
"""

import importlib
import time
from array import array

import numpy as np


class Tracer:
    """In-memory span store with a parent stack (single thread).

    Span i has name `labels[codes[i]]`, times `starts[i]`..`ends[i]` in
    perf_counter nanoseconds, parent span `parents[i]` (-1 for none) and
    the pass `ops[i]` it belongs to; compact arrays keep a long traced
    run small.
    """

    def __init__(self):
        self.labels = []
        self.codes = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.ops = array("i")
        self.op = -1
        self._stack = []
        self.newton_iterations = 0
        self.newton_agents = 0
        self.solve_flops = 0.0
        self.eig_dim = 0

    def __len__(self):
        return len(self.codes)

    def wrap(self, name, fn, observe=None):
        if name not in self.labels:
            self.labels.append(name)
        code = self.labels.index(name)
        codes, starts, ends, parents, ops = (self.codes, self.starts, self.ends,
                                             self.parents, self.ops)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(codes)
            codes.append(code)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if observe is not None:
                observe(self, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def write(self, path):
        """Save the spans as an uncompressed numpy archive."""
        np.savez(path, labels=np.array(self.labels, dtype=str),
                 code=np.frombuffer(self.codes, dtype=np.int32),
                 start_ns=np.frombuffer(self.starts, dtype=np.int64),
                 end_ns=np.frombuffer(self.ends, dtype=np.int64),
                 parent=np.frombuffer(self.parents, dtype=np.int64),
                 op=np.frombuffer(self.ops, dtype=np.int32))


# -- observers: exact counts read from arguments and results ---------------

def _count_newton(tracer, args, report):
    tracer.newton_iterations += int(report.newton_iterations.sum())
    tracer.newton_agents += int(report.newton_iterations.size)


def _count_solve_flops(tracer, args, result):
    n = np.shape(args[0])[0]
    tracer.solve_flops += 2.0 * n ** 3 / 3.0


class _LinalgView:
    """numpy.linalg as seen from one module, recording eigvalsh sizes."""

    def __init__(self, tracer):
        self._tracer = tracer

    def eigvalsh(self, a, *args, **kwargs):
        self._tracer.eig_dim = max(self._tracer.eig_dim, int(np.shape(a)[-1]))
        return np.linalg.eigvalsh(a, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(np.linalg, name)


class _NumpyView:
    """Stands in for `numpy` inside one module; only linalg is observed."""

    def __init__(self, tracer):
        self.linalg = _LinalgView(tracer)

    def __getattr__(self, name):
        return getattr(np, name)


# (span name, owner, attribute, kind, observer). The owner is a module
# or a class, written as "module:Class".
HOOKS = (
    ("cli.main", "phmid.cli", "main", "function", None),
    ("harness.tau_sweep", "phmid.cli", "tau_sweep", "function", None),
    ("harness.export_csv", "phmid.cli", "export_csv", "function", None),
    ("harness.run", "phmid.harness", "run", "function", None),
    ("graphs.from_spec", "phmid.graphs", "from_spec", "function", None),
    ("graphs.adjacency", "phmid.graphs:Graph", "adjacency", "function", None),
    ("graphs.laplacian", "phmid.graphs:Graph", "laplacian", "function", None),
    ("graphs.degrees", "phmid.graphs:Graph", "degrees", "property", None),
    ("costs.from_spec", "phmid.costs", "from_spec", "function", None),
    ("costs.centralized_optimum", "phmid.costs:CostEnsemble",
     "centralized_optimum", "function", None),
    ("costs.gradient_stack", "phmid.costs:CostEnsemble", "gradient_stack",
     "function", None),
    ("costs.hessian_stack", "phmid.costs:CostEnsemble", "hessian_stack",
     "function", None),
    ("numerics.newton_solve", "phmid.costs", "newton_solve", "function", None),
    ("numerics.newton_solve", "phmid.integrators", "newton_solve", "function",
     None),
    ("numerics.solve_linear", "phmid.numerics", "solve_linear", "function",
     _count_solve_flops),
    ("integrators.mid_step", "phmid.integrators", "mid_step", "function",
     _count_newton),
    ("integrators.dg_central_step", "phmid.integrators", "dg_central_step",
     "function", None),
    ("integrators.euler_step", "phmid.integrators", "euler_step", "function",
     None),
    ("integrators.gradient_tracking_step", "phmid.integrators",
     "gradient_tracking_step", "function", None),
    ("integrators.gradient_tracking_init", "phmid.integrators",
     "gradient_tracking_init", "function", None),
    ("integrators.metropolis_weights", "phmid.integrators",
     "metropolis_weights", "function", None),
    ("dynamics.continuous_rhs", "phmid.integrators", "continuous_rhs",
     "function", None),
    ("stability.search_certificate", "phmid.stability", "search_certificate",
     "function", None),
    ("stability.check_certificate", "phmid.stability", "check_certificate",
     "function", None),
    ("stability.check_certificate_quadratic", "phmid.stability",
     "check_certificate_quadratic", "function", None),
    ("stability.closed_form_certificate", "phmid.stability",
     "closed_form_certificate", "function", None),
    ("stability.step_gram", "phmid.stability", "step_gram", "function", None),
    ("stability.midpoint_map_qr", "phmid.stability", "midpoint_map_qr",
     "function", None),
    ("stability.gradient_bound_block", "phmid.stability",
     "gradient_bound_block", "function", None),
    ("stability.quadratic_gradient_block", "phmid.stability",
     "quadratic_gradient_block", "function", None),
    ("stability.eig_dim", "phmid.stability", "np", "numpy", None),
)


def _resolve(owner):
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


class Hooks:
    """Installs the span wrappers and puts the originals back."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.absent = []
        self._saved = []

    def install(self):
        for name, owner, attr, kind, observe in HOOKS:
            target = _resolve(owner)
            if target is None or attr not in vars(target):
                self.absent.append(name)
                continue
            original = vars(target)[attr]
            if kind == "property":
                replacement = property(self.tracer.wrap(name, original.fget))
            elif kind == "numpy":
                replacement = _NumpyView(self.tracer)
            else:
                replacement = self.tracer.wrap(name, original, observe)
            self._saved.append((target, attr, original))
            setattr(target, attr, replacement)

    def remove(self):
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()


class SpanTable:
    """Per-name call counts, total and self time, from the span store."""

    def __init__(self, tracer):
        codes = np.frombuffer(tracer.codes, dtype=np.int32)
        dur = (np.frombuffer(tracer.ends, dtype=np.int64)
               - np.frombuffer(tracer.starts, dtype=np.int64))
        parents = np.frombuffer(tracer.parents, dtype=np.int64)
        has_parent = parents >= 0
        covered = np.zeros_like(dur)
        np.add.at(covered, parents[has_parent], dur[has_parent])
        k = len(tracer.labels)
        labels = tracer.labels
        self.calls = dict(zip(labels, np.bincount(codes, minlength=k).tolist()))
        self.total_ns = dict(zip(labels, np.bincount(codes, dur, k).tolist()))
        self.self_ns = dict(zip(labels, np.bincount(codes, dur - covered, k).tolist()))
        self._index = {label: i for i, label in enumerate(labels)}
        self._codes = codes
        self._parent_codes = np.where(has_parent, codes[np.maximum(parents, 0)], -1)

    def count(self, name):
        return self.calls.get(name, 0)

    def count_under(self, name, parent):
        if name not in self._index or parent not in self._index:
            return 0
        return int(np.sum((self._codes == self._index[name])
                          & (self._parent_codes == self._index[parent])))

    def per_call(self, name, scale, self_time=False):
        calls = self.count(name)
        if not calls:
            return 0.0
        source = self.self_ns if self_time else self.total_ns
        return source[name] / calls / scale


STEP_SPANS = ("integrators.mid_step", "integrators.dg_central_step",
              "integrators.euler_step", "integrators.gradient_tracking_step")
CHECK_SPANS = ("stability.check_certificate",
               "stability.check_certificate_quadratic")

_US, _MS, _S = 1e3, 1e6, 1e9


def _ratio(num, den):
    return num / den if den else 0.0


def _per_call(span, scale, self_time=False):
    return (span,), lambda t, tr, steps: t.per_call(span, scale, self_time)


def _per_step(span):
    return (span,), lambda t, tr, steps: _ratio(t.count(span), steps)


# metric name -> (unit, the span names it reads, function of (table, tracer, steps))
LAYER_METRICS = {
    "harness.run.self_us_per_step": (
        "us", ("harness.run",),
        lambda t, tr, steps: _ratio(t.self_ns.get("harness.run", 0) / _US, steps)),
    "harness.export_csv.s": ("s", *_per_call("harness.export_csv", _S)),
    "cli.main.self_s": ("s", *_per_call("cli.main", _S, self_time=True)),
    "integrators.mid_step.us_per_call": ("us", *_per_call("integrators.mid_step", _US)),
    "integrators.mid_step.self_us_per_call": (
        "us", *_per_call("integrators.mid_step", _US, self_time=True)),
    "integrators.mid_step.newton_iters_mean": (
        "count", ("integrators.mid_step",),
        lambda t, tr, steps: _ratio(tr.newton_iterations, tr.newton_agents)),
    "integrators.dg_central_step.us_per_call": (
        "us", *_per_call("integrators.dg_central_step", _US)),
    "integrators.euler_step.us_per_call": ("us", *_per_call("integrators.euler_step", _US)),
    "integrators.gradient_tracking_step.us_per_call": (
        "us", *_per_call("integrators.gradient_tracking_step", _US)),
    "costs.gradient_stack.calls_per_step": ("count", *_per_step("costs.gradient_stack")),
    "costs.hessian_stack.calls_per_step": ("count", *_per_step("costs.hessian_stack")),
    "costs.hessian_per_gradient": (
        "ratio", ("costs.gradient_stack", "costs.hessian_stack"),
        lambda t, tr, steps: _ratio(t.count("costs.hessian_stack"),
                                    t.count("costs.gradient_stack"))),
    "costs.gradient_stack.us_per_call": ("us", *_per_call("costs.gradient_stack", _US)),
    "costs.hessian_stack.us_per_call": ("us", *_per_call("costs.hessian_stack", _US)),
    "costs.from_spec.s": ("s", *_per_call("costs.from_spec", _S)),
    "costs.centralized_optimum.s": ("s", *_per_call("costs.centralized_optimum", _S)),
    "graphs.adjacency.calls_per_step": ("count", *_per_step("graphs.adjacency")),
    "graphs.adjacency.us_per_call": ("us", *_per_call("graphs.adjacency", _US)),
    "graphs.laplacian.calls_per_step": ("count", *_per_step("graphs.laplacian")),
    "graphs.degrees.calls_per_step": ("count", *_per_step("graphs.degrees")),
    "graphs.from_spec.s": ("s", *_per_call("graphs.from_spec", _S)),
    "numerics.newton_solve.calls_per_step": ("count", *_per_step("numerics.newton_solve")),
    "numerics.solve_linear.calls_per_step": ("count", *_per_step("numerics.solve_linear")),
    "numerics.solve_linear.ms_per_call": ("ms", *_per_call("numerics.solve_linear", _MS)),
    "numerics.solve_linear.computed_flops_per_call": (
        "flop", ("numerics.solve_linear",),
        lambda t, tr, steps: _ratio(tr.solve_flops, t.count("numerics.solve_linear"))),
    "dynamics.continuous_rhs.us_per_call": (
        "us", *_per_call("dynamics.continuous_rhs", _US)),
    "stability.check_certificate.ms_per_call": (
        "ms", *_per_call("stability.check_certificate", _MS)),
    "stability.check_certificate_quadratic.ms_per_call": (
        "ms", *_per_call("stability.check_certificate_quadratic", _MS)),
    "stability.search_certificate.checks_per_call": (
        "count", ("stability.search_certificate",) + CHECK_SPANS,
        lambda t, tr, steps: _ratio(
            sum(t.count_under(c, "stability.search_certificate") for c in CHECK_SPANS),
            t.count("stability.search_certificate"))),
    "stability.step_gram.calls_per_check": (
        "count", ("stability.step_gram",) + CHECK_SPANS,
        lambda t, tr, steps: _ratio(t.count("stability.step_gram"),
                                    sum(t.count(c) for c in CHECK_SPANS))),
    "stability.midpoint_map_qr.ms_per_call": (
        "ms", *_per_call("stability.midpoint_map_qr", _MS)),
    "stability.check.self_ms": (
        "ms", CHECK_SPANS,
        lambda t, tr, steps: _ratio(sum(t.self_ns.get(c, 0) for c in CHECK_SPANS) / _MS,
                                    sum(t.count(c) for c in CHECK_SPANS))),
    "stability.eig_dim": (
        "count", ("stability.eig_dim",),
        lambda t, tr, steps: float(tr.eig_dim)),
}


def layer_metrics(tracer, absent_hooks):
    """Per-layer metrics of a traced phase, and the ones left absent.

    A metric is absent when a hook it reads could not be installed; it
    is then reported as 0 and named in the returned list. Metrics of
    layers the workload never calls are 0 as well (no calls, no time).
    """
    table = SpanTable(tracer)
    steps = sum(table.count(name) for name in STEP_SPANS)
    values, absent = {}, []
    for metric, (unit, spans, compute) in LAYER_METRICS.items():
        if any(span in absent_hooks for span in spans):
            absent.append(metric)
            values[metric] = (0.0, unit)
        else:
            values[metric] = (float(compute(table, tracer, steps)), unit)
    return values, absent
