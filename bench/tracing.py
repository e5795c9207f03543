"""Spans around calls into beltrami_growth, recorded from outside the package.

``install`` replaces each traced function at every module namespace of the
package that binds it (``growth.image_area`` and ``cli.image_area`` are the
same function), and the ``Mapping`` derivative and evaluation methods on the
class, so calls across modules nest as parent/child spans.  Spans are kept in
memory and aggregated, or dumped, when the run ends.  An untraced run never
calls ``install``.

A span is ``[name, start, end, parent, op, attrs]``; ``parent`` indexes the
span list (-1 for a top-level span) and ``op`` numbers the operation.  Spans
are recorded only while an operation is active.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time

import closed_forms as cf

PARSERS = ("parse_mapping", "parse_coefficient", "parse_profile", "parse_ladder", "parse_pair")

#: module -> traced public functions; the span is named "<module>.<function>"
FUNCTIONS = {
    "complex_polar": (
        "wirtinger_to_polar",
        "polar_to_wirtinger",
        "jacobian_polar",
        "jacobian_wirtinger",
        "normalize_angle",
    ),
    "dilatation": (
        "kappa",
        "circle_average_D",
        "angular_dilatation",
        "dilatation_on_circle",
        "sigma_from_K",
        "K_from_sigma",
    ),
    "growth": (
        "envelope_integral",
        "modulus_extremes",
        "circle_length",
        "image_area",
        "isoperimetric_check",
        "differential_inequality_check",
        "area_bound_check",
        "theorem1_check",
        "nonexistence_diagnostic",
    ),
    "verify": (
        "build_extremal",
        "pde_residual",
        "real_system_residual",
        "sharpness_ladder",
        "catalog_pair",
    ),
    "cli": ("main", "write_csv", "write_svg_polyline") + PARSERS,
}

#: the config parsers share one span name, so cli.parse.self_s is their sum
SPAN_NAMES = {f"cli.{fn}": "cli.parse" for fn in PARSERS}

#: Mapping methods traced on the class
METHODS = {
    "evaluate": "mappings.evaluate",
    "wirtinger_analytic": "mappings.wirtinger",
    "wirtinger_fd": "mappings.wirtinger",
}


def _points(z) -> int:
    return int(getattr(z, "size", 1))


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    def wrap(self, name, fn, attrs=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result

        return traced


def _attrs(package):
    """Counts and accuracy gauges taken at the span boundary."""
    Power = package.mappings.Power
    ConstantProfile = package.growth.ConstantProfile
    LogProductProfile = package.growth.LogProductProfile

    def image_area(args, kwargs, area):
        mapping, z0, r = args[:3]
        if isinstance(mapping, Power) and complex(z0) == 0:
            exact = math.pi * r ** (2.0 / mapping.alpha)
            return {"rel_err": abs(area - exact) / exact}
        return None

    def envelope_integral(args, kwargs, result):
        profile, r0, R = args[:3]
        if isinstance(profile, ConstantProfile):
            exact = math.log(R / r0) / profile.alpha
        elif isinstance(profile, LogProductProfile):
            exact = cf.log_product_integral(profile.alpha, profile.depth, r0, R)
        else:
            return None
        return {"abs_err": abs(result[0] - exact)}

    return {
        "growth.image_area": image_area,
        "growth.envelope_integral": envelope_integral,
        "verify.pde_residual": lambda a, k, report: {"points": report.count},
        "cli.write_csv": lambda a, k, path: {"bytes": os.path.getsize(path)},
        "mappings.evaluate": lambda a, k, r: {"points": _points(a[1])},
        "mappings.wirtinger": lambda a, k, r: {"points": _points(a[1])},
    }


def install(tracer: Tracer):
    """Wrap the traced functions and methods of the imported package."""
    import beltrami_growth as package
    # the traced modules, loaded so that every namespace binding them exists
    from beltrami_growth import cli, complex_polar, dilatation, growth, mappings, verify  # noqa

    attrs = _attrs(package)
    namespaces = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "beltrami_growth"]
    for module_name, functions in FUNCTIONS.items():
        module = getattr(package, module_name)
        for fn_name in functions:
            original = getattr(module, fn_name)
            span = SPAN_NAMES.get(f"{module_name}.{fn_name}", f"{module_name}.{fn_name}")
            traced = tracer.wrap(span, original, attrs.get(span))
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attr, traced)
    for method, span in METHODS.items():
        original = getattr(package.mappings.Mapping, method)
        setattr(package.mappings.Mapping, method, tracer.wrap(span, original, attrs.get(span)))


# ---------------------------------------------------------------------------
# aggregation

#: (metric, unit) of every per-layer metric, in report order
LAYER_METRICS = [
    ("import.total_s", "s"),
    ("import.scipy_s", "s"),
    ("import.modules", "count"),
    ("process.startup.total_s", "s/op"),
    ("process.exit.total_s", "s/op"),
    ("cli.main.calls", "count/op"),
    ("cli.main.self_s", "s/op"),
    ("cli.parse.self_s", "s/op"),
    ("cli.write_csv.calls", "count/op"),
    ("cli.write_csv.self_s", "s/op"),
    ("cli.write_csv.bytes", "B/op"),
    ("verify.pde_residual.calls", "count/op"),
    ("verify.pde_residual.points", "count/op"),
    ("verify.pde_residual.self_s", "s/op"),
    ("verify.build_extremal.calls", "count/op"),
    ("verify.build_extremal.total_s", "s/op"),
    ("verify.build_extremal.envelope_calls", "count/op"),
    ("verify.sharpness_ladder.total_s", "s/op"),
    ("verify.sharpness_ladder.modulus_calls", "count/op"),
    ("growth.image_area.calls", "count/op"),
    ("growth.image_area.self_s", "s/op"),
    ("growth.image_area.total_s", "s/op"),
    ("growth.image_area.jacobian_points", "count/op"),
    ("growth.differential_inequality_check.total_s", "s/op"),
    ("growth.isoperimetric_check.total_s", "s/op"),
    ("growth.area_bound_check.total_s", "s/op"),
    ("growth.theorem1_check.total_s", "s/op"),
    ("growth.circle_length.self_s", "s/op"),
    ("growth.envelope_integral.calls", "count/op"),
    ("growth.envelope_integral.self_s", "s/op"),
    ("growth.envelope_integral.total_s", "s/op"),
    ("growth.envelope_integral.kappa_calls", "count/op"),
    ("growth.modulus_extremes.calls", "count/op"),
    ("growth.modulus_extremes.self_s", "s/op"),
    ("growth.modulus_extremes.evaluate_calls", "count/op"),
    ("dilatation.kappa.calls", "count/op"),
    ("dilatation.kappa.self_s", "s/op"),
    ("dilatation.circle_average_D.calls", "count/op"),
    ("dilatation.circle_average_D.self_s", "s/op"),
    ("mappings.wirtinger.calls", "count/op"),
    ("mappings.wirtinger.points", "count/op"),
    ("mappings.wirtinger.self_s", "s/op"),
    ("mappings.wirtinger.bytes_computed", "B/op"),
    ("mappings.evaluate.calls", "count/op"),
    ("mappings.evaluate.points", "count/op"),
    ("mappings.evaluate.self_s", "s/op"),
    ("complex_polar.calls", "count/op"),
    ("complex_polar.self_s", "s/op"),
    ("growth.image_area.rel_err_max", "ratio"),
    ("growth.envelope_integral.abs_err_max", "1"),
    ("trace.overhead_ops_per_s", "1/s"),
    ("trace.coverage_min", "ratio"),
]

#: metric -> (ancestor, child): calls of child made under ancestor
NESTED_COUNTS = {
    "verify.build_extremal.envelope_calls": ("verify.build_extremal", "growth.envelope_integral"),
    "verify.sharpness_ladder.modulus_calls": ("verify.sharpness_ladder", "growth.modulus_extremes"),
    "growth.envelope_integral.kappa_calls": ("growth.envelope_integral", "dilatation.kappa"),
    "growth.modulus_extremes.evaluate_calls": ("growth.modulus_extremes", "mappings.evaluate"),
}

#: bytes of the two complex128 derivative arrays a wirtinger call returns;
#: a count computed from array sizes, not a measured memory traffic
WIRTINGER_BYTES_PER_POINT = 32


def aggregate(spans, n_ops: int):
    """Per-operation sums of the span metrics named in LAYER_METRICS."""
    totals = {}

    def add(key, value):
        totals[key] = totals.get(key, 0.0) + value

    child_time = [0.0] * len(spans)
    for name, start, end, parent, op, attrs in spans:
        if parent >= 0:
            child_time[parent] += end - start
    names = [span[0] for span in spans]

    def has_ancestor(i, wanted):
        parent = spans[i][3]
        while parent >= 0:
            if names[parent] == wanted:
                return True
            parent = spans[parent][3]
        return False

    for i, (name, start, end, parent, op, attrs) in enumerate(spans):
        duration = end - start
        # complex_polar is reported as one layer, summed over its functions
        keys = (name, "complex_polar") if name.startswith("complex_polar.") else (name,)
        for key in keys:
            add(f"{key}.calls", 1)
            add(f"{key}.self_s", duration - child_time[i])
            add(f"{key}.total_s", duration)
        attrs = attrs or {}
        for attr in ("points", "bytes"):
            if attr in attrs:
                add(f"{name}.{attr}", attrs[attr])
        for attr in ("rel_err", "abs_err"):
            if attr in attrs:
                key = f"{name}.{attr}_max"
                totals[key] = max(totals.get(key, 0.0), attrs[attr])
        for metric, (ancestor, child) in NESTED_COUNTS.items():
            if name == child and has_ancestor(i, ancestor):
                add(metric, 1)
        if name == "mappings.wirtinger" and has_ancestor(i, "growth.image_area"):
            add("growth.image_area.jacobian_points", attrs.get("points", 0))
    totals["mappings.wirtinger.bytes_computed"] = (
        WIRTINGER_BYTES_PER_POINT * totals.get("mappings.wirtinger.points", 0.0)
    )
    out = {}
    for metric, unit in LAYER_METRICS:
        value = totals.get(metric, 0.0)
        out[metric] = value / n_ops if unit.endswith("/op") else value
    return out


def coverage(spans, op_walls):
    """Per operation: the share of its wall time inside top-level spans."""
    covered = {}
    for name, start, end, parent, op, attrs in spans:
        if parent < 0:
            covered[op] = covered.get(op, 0.0) + (end - start)
    return [covered.get(op, 0.0) / wall for op, wall in op_walls.items()]
