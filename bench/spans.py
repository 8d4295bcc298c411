"""Layer spans recorded from outside the library.

``Tracer`` replaces every public function of the ten library layers with a
wrapper that records a span (name, start, end, parent) in memory, in every
``semiapprox`` module namespace that holds it, so ``from .x import f``
bindings are traced too.  Uninstalling puts the original objects back.
Nothing inside ``src/`` changes.

``linalg.as_operator`` is left unwrapped: it is the input check at the top
of every linalg kernel, so each kernel's self time includes its own check.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = (
    "linalg", "numrange", "ensembles", "bounds", "poisson",
    "approximants", "contour", "harness", "report", "cli",
)
UNWRAPPED = {"linalg.as_operator"}
ROOT = "bench.call"

# per-span attribute taken from a function's return value
_ATTRS = {
    "numrange.numerical_range_boundary": len,  # sweep angles
    "numrange.certify_quasi_sectorial": lambda cert: int(cert.passed),
    "report.emit_report": len,  # bytes
    "contour.build_contour": len,  # quadrature nodes
}


class Tracer:
    """Context manager that traces the library while it is active."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, attribute]
        self._stack = []
        self._restore = []

    def __enter__(self):
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"semiapprox.{layer}")
            for name, fn in vars(module).items():
                qual = f"{layer}.{name}"
                if (
                    inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not name.startswith("_") and qual not in UNWRAPPED
                ):
                    wrappers[fn] = self._wrap(qual, fn)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "semiapprox" or modname.startswith("semiapprox.")):
                continue
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._restore.append((module, name, value))
                    setattr(module, name, wrappers[value])
        return self

    def __exit__(self, *exc):
        for module, name, value in reversed(self._restore):
            setattr(module, name, value)
        self._restore.clear()
        return False

    def _wrap(self, qual: str, fn):
        spans, stack = self.spans, self._stack
        attr_of = _ATTRS.get(qual)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [qual, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attr_of is not None:
                span[4] = attr_of(out)
            return out

        return traced

    def call(self, fn, *args):
        """Run ``fn(*args)`` under a root span: one verify call of the benchmark."""
        return self._wrap(ROOT, fn)(*args)

    def write_jsonl(self, path) -> None:
        """Write the spans out, one JSON object per line (done once, at the end)."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, attr) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "attr": attr,
                }) + "\n")


def self_times(spans) -> list:
    """Each span's duration minus the time its child spans cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


# Layer metric groups: name -> predicate on span names.
def _one(*names):
    return lambda qual: qual in names


GROUPS = {
    "linalg.op_norm": _one("linalg.op_norm"),
    "linalg.expm": _one("linalg.expm"),
    "linalg.inverse": _one("linalg.inverse"),
    "linalg.mat_pow": _one("linalg.mat_pow"),
    "numrange.boundary": _one("numrange.numerical_range_boundary"),
    "numrange.certify": _one("numrange.certify_quasi_sectorial"),
    "numrange.distance": _one("numrange.distance_to_D_alpha"),
    "contour.majorant": _one("contour.contour_norm_bound_check"),
    "contour.quadrature": _one("contour.riesz_dunford_many"),
    "poisson.split": _one("poisson.chernoff_split_sum"),
    "poisson.moments": _one("poisson.poisson_second_moment", "poisson.poisson_first_abs_moment"),
    "ensembles.draw": lambda q: q.startswith("ensembles.") and q not in (
        "ensembles.child_seed", "ensembles.splitmix64"),
    "bounds": lambda q: q.startswith("bounds."),
    "approximants": lambda q: q.startswith("approximants."),
    "harness.run": lambda q: q.startswith("harness."),
    "harness.fit_rate": _one("harness.fit_rate"),
    "report.emit": _one("report.emit_report"),
    "cli.main": _one("cli.main"),
}

# (metric, unit) in the order they are printed; must match BENCHMARK.json.
PER_LAYER = (
    ("linalg.op_norm.calls", "count"), ("linalg.op_norm.self_s", "s"),
    ("linalg.expm.calls", "count"), ("linalg.expm.self_s", "s"),
    ("linalg.inverse.calls", "count"), ("linalg.inverse.self_s", "s"),
    ("linalg.mat_pow.calls", "count"), ("linalg.mat_pow.self_s", "s"),
    ("numrange.boundary.calls", "count"), ("numrange.boundary.angles", "count"),
    ("numrange.boundary.self_s", "s"),
    ("numrange.certify.calls", "count"), ("numrange.certify.pass_ratio", "ratio"),
    ("numrange.distance.calls", "count"), ("numrange.distance.self_s", "s"),
    ("contour.majorant.calls", "count"), ("contour.majorant.self_s", "s"),
    ("contour.quadrature.calls", "count"), ("contour.quadrature.self_s", "s"),
    ("contour.quadrature.nodes", "count"), ("contour.quadrature.refinements", "count"),
    ("poisson.split.calls", "count"), ("poisson.split.self_s", "s"),
    ("poisson.moments.self_s", "s"),
    ("ensembles.draw.calls", "count"), ("ensembles.draw.self_s", "s"),
    ("bounds.self_s", "s"), ("approximants.self_s", "s"),
    ("harness.run.self_s", "s"), ("harness.fit_rate.calls", "count"),
    ("report.emit.calls", "count"), ("report.emit.self_s", "s"), ("report.emit.bytes", "bytes"),
    ("cli.main.self_s", "s"),
    ("report.bytes_changed", "count"),
    ("trace.overhead_frac", "ratio"),
)


def layer_values(spans) -> dict:
    """Every span-derived per-layer metric (all of PER_LAYER but the last two)."""
    own = self_times(spans)
    out = {}
    for group, match in GROUPS.items():
        idx = [i for i, s in enumerate(spans) if match(s[0])]
        out[f"{group}.calls"] = len(idx)
        out[f"{group}.self_s"] = sum(own[i] for i in idx)
        if group == "numrange.boundary":
            out[f"{group}.angles"] = sum(spans[i][4] for i in idx)
        elif group == "numrange.certify":
            out[f"{group}.pass_ratio"] = (
                sum(spans[i][4] for i in idx) / len(idx) if idx else 0.0)
        elif group == "report.emit":
            out[f"{group}.bytes"] = sum(spans[i][4] for i in idx)
    quad = {i for i, s in enumerate(spans) if s[0] == "contour.riesz_dunford_many"}
    builds = [s for s in spans if s[0] == "contour.build_contour" and s[3] in quad]
    out["contour.quadrature.refinements"] = len(builds)
    out["contour.quadrature.nodes"] = sum(s[4] for s in builds)
    wanted = {name for name, _ in PER_LAYER}
    return {k: v for k, v in out.items() if k in wanted}


def counts(spans) -> dict:
    """Exact work counts per span name, compared between two traced passes."""
    out = {}
    for name, _, _, _, attr in spans:
        calls, total = out.get(name, (0, 0))
        out[name] = (calls + 1, total + (attr or 0))
    return out


def module_shares(spans) -> dict:
    """Share of all traced self time spent in each layer (and the benchmark)."""
    own = self_times(spans)
    per = {}
    for span, t in zip(spans, own):
        layer = span[0].split(".")[0]
        per[layer] = per.get(layer, 0.0) + t
    total = sum(per.values()) or 1.0
    return {k: v / total for k, v in sorted(per.items(), key=lambda kv: -kv[1])}
