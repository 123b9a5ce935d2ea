"""Spans around the public entry points of each thuecc layer.

The wrappers live here, in the benchmark, not in the program.  A
function is wrapped at every module attribute callers reach it through:
``padic.solution_valuations`` is also ``enumerate.solution_valuations``
and ``thuecc.solution_valuations``, and all three names get the same
wrapper.  Spans stay in memory and are written out when the run ends.

A span's self time is its duration minus the durations of its direct
child spans.  Calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter

import thuecc.forms as forms


def _cells(instance, box, x_lo, x_hi, *args, **kwargs) -> int:
    return (x_hi - x_lo + 1) * (2 * box + 1)


def _fp_pairs(instance, p, *args, **kwargs) -> int:
    return p * p


# (layer, function, size of the work computed from the arguments)
TARGETS = [
    ("cli", "main", None),
    ("forms", "build", None),
    ("forms", "monicize", None),
    ("polyutil", "discriminant", None),
    ("polyutil", "sqf_parts", None),
    ("polyutil", "factor_mod_p", None),
    ("padic", "difference_valuations", None),
    ("padic", "default_precision", None),
    ("padic", "hensel_track_roots", None),
    ("padic", "solution_valuations", None),
    ("padic", "check_vb_zero", None),
    ("charts", "chart_from_tracked", None),
    ("charts", "check_common_root_depth", None),
    ("bounds", "bertrand_prime", None),
    ("bounds", "classify_prime", None),
    ("bounds", "main_bounds", None),
    ("bounds", "refined_bounds_prime_degree", None),
    ("bounds", "refined_bounds_degree_pm1", None),
    ("enumerate", "primitive_solutions", None),
    ("enumerate", "scan_stripe", _cells),
    ("enumerate", "residue_class_census", None),
    ("enumerate", "count_affine_points_mod_p", _fp_pairs),
    ("enumerate", "count_projective_smooth", None),
    ("newton_zero", "zero_bound", None),
    ("fermat", "unique_triple_check", None),
    ("fermat", "orbit_count", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._request = None
        self._requests = 0

    def _open(self, name: str) -> dict:
        parent = self._stack[-1]["id"] if self._stack else None
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": parent,
            "request": self._request,
            "child_s": 0.0,
            "failed": False,
        }
        self.spans.append(span)
        self._stack.append(span)
        span["start"] = perf_counter()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1]["child_s"] += span["end"] - span["start"]

    def wrap(self, name: str, fn, size=None):
        def traced(*args, **kwargs):
            span = self._open(name)
            if size is not None:
                span["size"] = size(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span["failed"] = True
                raise
            finally:
                self._close(span)

        return traced

    @contextmanager
    def request(self, kind: str):
        """Root span of one request; the layers' spans share its id."""
        self._request = self._requests
        self._requests += 1
        span = self._open(f"request.{kind}")
        try:
            yield
        finally:
            self._close(span)
            self._request = None

    def summary(self) -> dict:
        """Per-name calls, self time, failures and summed work size."""
        out: dict[str, dict] = {}
        for s in self.spans:
            agg = out.setdefault(
                s["name"], {"calls": 0, "self_s": 0.0, "fails": 0, "size": 0}
            )
            agg["calls"] += 1
            agg["self_s"] += s["end"] - s["start"] - s["child_s"]
            agg["fails"] += s["failed"]
            agg["size"] += s.get("size", 0)
        return out


@contextmanager
def wrapped_layers(tracer: Tracer):
    """Install the tracer's wrappers on every thuecc module, then restore."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "thuecc"]
    undo = []
    for layer, fn_name, size in TARGETS:
        name = f"{layer}.{fn_name}"
        if (layer, fn_name) == ("forms", "build"):
            original = forms.ThueInstance.__dict__["build"]
            forms.ThueInstance.build = classmethod(tracer.wrap(name, original.__func__, size))
            undo.append((forms.ThueInstance, "build", original))
            continue
        original = getattr(sys.modules[f"thuecc.{layer}"], fn_name)
        wrapper = tracer.wrap(name, original, size)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, original))
    try:
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
