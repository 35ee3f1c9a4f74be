"""Span tracing of spherefp's public functions, installed from outside.

`Tracer.install()` wraps each function in LAYERS at its definition and at
every module that imported it by name (division and equidist bind
`enumerate_zeros`, `rref` and others directly, so patching the defining
module alone would miss those calls).  While a root span is open, each
wrapped call appends a span (name, start, end, parent span, instance) to
memory and adds its work counts; `layer_metrics` turns them into per-layer
metrics when the run ends.  No code inside the library is instrumented.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict


def _enumerated(args, kwargs):
    """Points enumerate_zeros scans: all of [p]^d, or the subspace."""
    M = args[0]
    S = args[1] if len(args) > 1 else kwargs.get("S")
    return M.p ** (M.d if S is None else S.dim())


def _fubini_points(args, kwargs):
    """|Omega| when a prepared enumeration is passed; a call that prepares
    its own counts those points under msets.enumerate_mset instead."""
    prepared = kwargs.get("prepared", args[6] if len(args) > 6 else None)
    return len(prepared[0]) if prepared is not None else 0


# (metric prefix, module, attribute path, {quantity: work(args, kwargs, out)});
# a quantity ending in _ratio is reported as its share of the calls
LAYERS = [
    ("ffcore.rref", "ffcore", "rref", {"cells": lambda a, kw, out: a[0].nrows * a[0].ncols}),
    ("zlinalg.int_solve", "_zlinalg", "int_solve",
     {"cells": lambda a, kw, out: len(a[0]) * len(a[0][0]) if a[0] else 0}),
    ("fpoly.eval_array", "fpoly", "FpMultiPoly.eval_array",
     {"term_points": lambda a, kw, out: len(a[0].terms) * len(a[1])}),
    ("fpoly.evaluate", "fpoly", "FpMultiPoly.evaluate", {}),
    ("fpoly.fp_mul", "fpoly", "FpMultiPoly.__mul__", {}),
    ("fpoly.compose_linear", "fpoly", "FpMultiPoly.compose_linear", {}),
    ("fpoly.rat_mul", "fpoly", "RatMultiPoly.__mul__", {}),
    ("fpoly.binomial_coeffs", "fpoly", "RatMultiPoly.binomial_coeffs", {}),
    ("fpoly.from_binomial", "fpoly", "RatMultiPoly.from_binomial", {}),
    ("fpoly.induce", "fpoly", "induce", {}),
    ("fpoly.regular_lift", "fpoly", "regular_lift", {}),
    ("quadform.eval_array", "quadform", "QuadForm.eval_array", {}),
    ("quadform.qf_rank", "quadform", "qf_rank", {}),
    ("quadform.normalize", "quadform", "normalize", {}),
    ("counting.enumerate_zeros", "counting", "enumerate_zeros", {
        "points_scanned": lambda a, kw, out: _enumerated(a, kw),
        "points_kept": lambda a, kw, out: len(out),
    }),
    ("counting.zero_count_check", "counting", "zero_count_check", {}),
    ("counting.exp_sum", "counting", "exp_sum", {}),
    ("counting.gowers_set", "counting", "gowers_set",
     {"tuples": lambda a, kw, out: out if isinstance(out, int) else len(out)}),
    ("counting.gowers_count_report", "counting", "gowers_count_report", {}),
    ("division.bij_division", "division", "bij_division", {}),
    ("division.nullstellensatz", "division", "nullstellensatz",
     {"certificate_ratio": lambda a, kw, out: out[0] == "certificate"}),
    ("division.dichotomy", "division", "dichotomy", {}),
    ("division._cube_difference", "division", "_cube_difference", {}),
    ("division.first_gowers_witness", "division", "first_gowers_witness", {}),
    ("division.intrinsic_decompose", "division", "intrinsic_decompose", {}),
    ("division.lift_nullstellensatz", "division", "lift_nullstellensatz", {}),
    ("division._fiber_coefficient_table", "division", "_fiber_coefficient_table",
     {"cells": lambda a, kw, out: out[1].size}),  # base points x grid indices
    ("division.sphere_vanishing_decompose", "division", "sphere_vanishing_decompose", {}),
    ("division.sphere_periodic_decompose", "division", "sphere_periodic_decompose", {}),
    ("msets.enumerate_mset", "msets", "enumerate_mset", {"points": lambda a, kw, out: len(out)}),
    ("msets.fubini_prepare", "msets", "fubini_prepare", {}),
    ("msets.fubini_check", "msets", "fubini_check",
     {"points": lambda a, kw, out: _fubini_points(a, kw)}),
    ("msets.sample_mset", "msets", "sample_mset", {}),
    ("msets.ideal_membership", "msets", "ideal_membership",
     {"certified_ratio": lambda a, kw, out: out is not None}),
    ("msets.irreducibility_probe", "msets", "irreducibility_probe", {}),
    ("equidist.sphere_points", "equidist", "sphere_points", {}),
    ("equidist.equidist_test", "equidist", "equidist_test", {}),
    ("equidist.weyl_dichotomy", "equidist", "weyl_dichotomy", {}),
    ("equidist.leibman_probe", "equidist", "leibman_probe", {}),
    ("cli.main", "cli", "main", {}),
]

INSTANCE = "instance"
SETUP = "setup"  # root span of the shared set-up, outside instance time
CLI_IMPORT = "cli.import"
CUBES = "division.first_gowers_witness.cubes"


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index, instance id)
        self.stack = []
        self.instance = None
        self.root = None
        self.work = defaultdict(int)

    def begin(self, instance, name=INSTANCE):
        """Open a root span; wrapped calls record spans until end()."""
        self.instance = instance
        self.root = name
        self.stack = [len(self.spans)]
        self.spans.append(None)
        return time.perf_counter()

    def end(self, start):
        end = time.perf_counter()
        self.spans[self.stack[0]] = (self.root, start, end, -1, self.instance)
        self.instance = None
        self.stack = []
        return end

    def wrap(self, name, fn, work):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.instance is None:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.instance)
            for quantity, count in work.items():
                tracer.work[f"{name}.{quantity}"] += count(args, kwargs, out)
            return out

        return traced

    def install(self):
        """Wrap every layer function at every import site in spherefp."""
        for name, modname, path, work in LAYERS:
            owner = importlib.import_module("spherefp." + modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if isinstance(owner, type):  # a method: patch the class only
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, work)))
                else:
                    setattr(owner, attr, self.wrap(name, raw, work))
                continue
            raw = getattr(owner, attr)
            wrapped = self.wrap(name, raw, work)
            for modname2, mod in list(sys.modules.items()):
                if modname2.startswith("spherefp") and mod is not None:
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            setattr(mod, key, wrapped)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "work": dict(self.work)}, fh)


def metric_names():
    names = []
    for name, _, _, work in LAYERS:
        names += [f"{name}.calls", f"{name}.self_s"] + [f"{name}.{q}" for q in work]
    return names + [CUBES, "cli.import_s", "trace.unattributed_frac", "trace.overhead_frac"]


def layer_metrics(spans, work):
    """Per-layer calls, self time, work counts and ratios, and the share of
    instance time that no wrapped span covers (all but trace.overhead_frac,
    which needs an untraced run)."""
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    cubes = 0
    imports = []
    instance_total = unattributed = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        own = end - start - child_time[i]
        if name == INSTANCE:
            instance_total += end - start
            unattributed += own
        elif name == CLI_IMPORT:
            imports.append(end - start)
        elif name != SETUP:
            calls[name] += 1
            self_s[name] += own
            if name == "division._cube_difference" and parent >= 0:
                cubes += spans[parent][0] == "division.first_gowers_witness"
    out = {}
    for name, _, _, quantities in LAYERS:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
        for q in quantities:
            total = work[f"{name}.{q}"]
            if q.endswith("_ratio"):
                out[f"{name}.{q}"] = (total / calls[name] if calls[name] else 0.0, "frac")
            else:
                out[f"{name}.{q}"] = (total, "count")
    out[CUBES] = (cubes, "count")
    imports.sort()
    out["cli.import_s"] = (imports[len(imports) // 2] if imports else 0.0, "s")
    out["trace.unattributed_frac"] = (unattributed / instance_total if instance_total else 0.0, "frac")
    return out
