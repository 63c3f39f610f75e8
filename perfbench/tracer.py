"""Spans around the calls into each hankellab layer, installed from outside.

The tracer wraps the entry points listed in ``_targets`` and rebinds every name
that refers to them: a function imported with ``from .transform import
_contract`` is a separate binding in each importing module, and suites are
also reached through the ``cli._SUITE_FNS`` table.  Nothing under ``src/``
is edited.  Spans are kept in memory and written out when the invocation
ends; ``summarize`` turns them into per-layer figures.
"""

import functools
import inspect
import math
import os
import sys
import time

# Layers are the package modules; report.py has no wrapped entry point, so
# its time counts toward the CLI spans that call it.
LAYERS = ("specfun", "grid", "transform", "heat", "dyadic", "symbols",
          "sobolev", "multiplier", "verify", "cli")


class Span:
    """One call into a layer: name, start, end and the span that caused it.

    ``parent`` is the index of the enclosing span in the same invocation, or
    -1.  ``attrs`` holds counts derived from the call's arguments and result.
    """

    __slots__ = ("invocation", "name", "start", "end", "parent", "attrs")

    def __init__(self, invocation, name, start, end, parent, attrs=None):
        self.invocation = invocation
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.attrs = attrs

    def to_list(self):
        return [self.name, self.start, self.end, self.parent, self.attrs]

    @classmethod
    def from_list(cls, invocation, row):
        return cls(invocation, *row)


class Tracer:
    """Collects the spans of one CLI invocation in one thread."""

    def __init__(self, invocation, clock=time.perf_counter):
        self.invocation = invocation
        self.clock = clock
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, attrs=None):
        """Return fn recording a span per call.  attrs(args, kwargs, result)
        runs after the span closes: its cost falls in the parent's self
        time, not in this span's."""
        spans, stack, clock, inv = self.spans, self._stack, self.clock, \
            self.invocation

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(inv, name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced


# ---------------------------------------------------------------------------
# counts derived from array shapes ("computed": no cache or memory traffic)

def _contract_attrs(args, kwargs, result):
    mats, values = args[0], args[1]
    shape = list(getattr(values, "shape", ()))
    madds = 0
    for k, M in enumerate(mats):
        rows, cols = M.shape
        madds += rows * cols * math.prod(shape) // shape[k]
        shape[k] = rows
    is_complex = bool(getattr(values, "dtype", None) is not None
                      and values.dtype.kind == "c")
    return {"madds": madds, "complex": int(is_complex), "ndim": len(mats)}


def _points_attrs(args, kwargs, result):
    # e_kernel_axis(alpha_k, u) and inorm_scaled(nu, u)
    return {"points": int(_size(args[1]))}


def _size(x):
    shape = getattr(x, "shape", None)
    return math.prod(shape) if shape is not None else 1


def _symbol_call_attrs(args, kwargs, result):
    shape = getattr(args[1], "shape", None) or (1,)
    return {"points": int(math.prod(shape[:-1]))}


def _plan_attrs(args, kwargs, result):
    return {"matrix_bytes": int(sum(a.nbytes for a in result.fwd)
                                + sum(a.nbytes for a in result.inv))}


def _adapted_plan_attrs(args, kwargs, result):
    # unit-scale key: the kernel matrix depends on x*lambda only, so plans
    # with equal (alpha, node counts, R*Lambda) are dilates of one another
    rl = math.prod(g.R * d.R for g, d in zip(result.grid.axes,
                                              result.dual_grid.axes))
    key = [list(result.grid.alpha.alpha), list(result.grid.shape),
           list(result.dual_grid.shape), float(f"{rl:.10g}")]
    return {"key": key}


def _maximal_field_attrs(args, kwargs, result):
    tg = args[2] if len(args) > 2 else kwargs["tg"]
    return {"time_steps": len(tg.t_values)}


def _make_sobolev_attrs(sobolev):
    sig = inspect.signature(sobolev.local_sobolev_norm)

    def attrs(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        d = bound.arguments["n"].d
        samples = bound.arguments["samples"]
        if samples is None:
            samples = sobolev._DEFAULT_SAMPLES.get(d, sobolev.BOX_SAMPLES)
        return {"fft_points": int(samples) ** d}
    return attrs


def _write_artifacts_attrs(args, kwargs, result):
    suite, outdir = args[1], args[3]
    total = 0
    for fname in (f"report-{suite}.json", f"data-{suite}.csv"):
        path = os.path.join(outdir, fname)
        if os.path.exists(path):
            total += os.path.getsize(path)
    return {"bytes": total}


def _targets(pkg):
    """(module, attribute path, span name or None for "<module>.<path>",
    attrs function or None) for each wrapped entry point."""
    sobolev = sys.modules[f"{pkg}.sobolev"]
    return [
        ("specfun", "e_kernel_axis", None, _points_attrs),
        ("specfun", "inorm_scaled", None, _points_attrs),
        ("grid", "Grid.build", None, None),
        ("transform", "TransformPlan.build", None, _plan_attrs),
        ("transform", "_contract", None, _contract_attrs),
        ("transform", "hankel_transform", None, None),
        ("transform", "inverse_hankel", None, None),
        ("heat", "HeatKernelEval.__post_init__", "heat.HeatKernelEval.init",
         None),
        ("heat", "heat_apply", None, None),
        ("heat", "gaussian_bound_check", None, None),
        ("dyadic", "DyadicPartition.__call__", None, None),
        ("symbols", "Symbol.__call__", None, _symbol_call_attrs),
        ("symbols", "parse_symbol", None, None),
        ("sobolev", "local_sobolev_norm", None, _make_sobolev_attrs(sobolev)),
        ("sobolev", "hormander_sup", None, None),
        ("multiplier", "_symbol_values", None, None),
        ("multiplier", "apply_multiplier", None, None),
        ("verify", "adapted_plan", None, _adapted_plan_attrs),
        ("verify", "_maximal_field", None, _maximal_field_attrs),
        ("verify", "cz_hormander_check", None, None),
        ("verify", "h1_atom_check", None, None),
        ("verify", "lp_norm_probe", None, None),
        ("verify", "weak11_probe", None, None),
        ("cli", "_write_artifacts", None, _write_artifacts_attrs),
        ("cli", "_write_summary", None, None),
    ] + [("cli", name, None, None) for name in
         sorted(vars(sys.modules[f"{pkg}.cli"])) if name.startswith("suite_")]


def install(tracer, pkg="hankellab"):
    """Wrap every target of the imported package and rebind all references.

    Returns the wrapped ``cli.main``, which opens the invocation's root span.
    """
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == pkg or name.startswith(pkg + "."))]
    for modname, path, span_name, attrs in _targets(pkg):
        mod = sys.modules[f"{pkg}.{modname}"]
        span_name = span_name or f"{modname}.{path}"
        owner_path, _, attr = path.rpartition(".")
        if owner_path:
            owner = getattr(mod, owner_path)
            raw = inspect.getattr_static(owner, attr)
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            wrapped = tracer.wrap(span_name, fn, attrs)
            setattr(owner, attr, staticmethod(wrapped) if is_static else wrapped)
        else:
            fn = getattr(mod, attr)
            _rebind(modules, fn, tracer.wrap(span_name, fn, attrs))
    cli = sys.modules[f"{pkg}.cli"]
    main = tracer.wrap("cli.main", cli.main)
    _rebind(modules, cli.main, main)
    return main


def _rebind(modules, old, new):
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, name, new)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is old:
                        value[key] = new


# ---------------------------------------------------------------------------
# aggregation

def summarize(spans):
    """Per span name: calls, busy_s (outermost calls only, so recursion is
    not counted twice) and self_s (duration minus the time covered by
    direct children; children of one thread never overlap).  Also per
    layer self time and the attrs summed per name."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    names = {}
    layers = dict.fromkeys(LAYERS, 0.0)
    for i, span in enumerate(spans):
        dur = span.end - span.start
        st = names.setdefault(span.name, {"calls": 0, "busy_s": 0.0,
                                          "self_s": 0.0, "attrs": {}})
        st["calls"] += 1
        self_s = dur - child_time[i]
        st["self_s"] += self_s
        layers[span.name.split(".", 1)[0]] += self_s
        if not _has_ancestor_named(spans, i, span.name):
            st["busy_s"] += dur
        for key, val in (span.attrs or {}).items():
            if isinstance(val, (int, float)):
                st["attrs"][key] = st["attrs"].get(key, 0) + val
    return {"names": names, "layers": layers}


def _has_ancestor_named(spans, i, name):
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def children_named(spans, parent_name, child_name):
    """Number of spans named child_name whose direct parent is parent_name."""
    return sum(1 for s in spans
               if s.name == child_name and s.parent >= 0
               and spans[s.parent].name == parent_name)
