"""Per-layer spans, recorded from outside the package.

The search and billiard modules call their kernels through module globals
(``search.connect``, ``billiards.reflect``, ...), and the metric kernels
through methods on the metric class.  ``Tracer.install`` swaps those
attributes for wrappers that record one span per call (name, start, end,
parent span, whether the call returned a value) and swaps the originals
back afterwards.  Nothing under ``src/`` changes.

A span's search id is the number of ``cli.run_search`` spans that started
before it, less one, so the benchmark's own ``cli.dumps_report`` call after
a search belongs to that search.

Calls the wrappers miss, because they do not go through a patched attribute:

* ``tables.random_boundary_point`` projects through the ``tables`` module's
  own global, so the projections of random seeds are not in
  ``tables.project_to_boundary``;
* the Newton Jacobian is inline in ``search._refine`` (only its
  ``_grad_flat`` calls are seen), and so is the seeding loop of
  ``find_critical`` (seen through ``_random_seed`` and ``_trace_seed``);
* ``table.phi`` / ``table.grad``, ``orthonormal_complement``, ``conormal``,
  ``metric._L`` / ``_unit`` / ``_dual_argmax`` and the magnetic arc construction
  inside ``connect`` are not wrapped: they are either closures or so cheap
  that a wrapper would dominate them;
* ``topology`` is closed form and runs once per search in microseconds.
"""

from __future__ import annotations

import functools
import time

import numpy as np

LAYERS = ("cli", "search", "geodesics", "billiards", "metrics", "tables")

# (module, attribute, span name); the span name is the layer metric prefix.
FUNCTION_SITES = (
    ("cli", "run_search", "cli.run_search"),
    ("cli", "_build_geometry", "cli.build_geometry"),
    ("cli", "dumps_report", "cli.dumps_report"),
    ("cli", "find_critical", "search.find_critical"),
    ("cli", "validate_field_strength", "metrics.validate_field_strength"),
    ("search", "validate_field_strength", "metrics.validate_field_strength"),
    ("search", "_random_seed", "search.random_seed"),
    ("search", "_trace_seed", "search.trace_seed"),
    ("search", "_refine", "search.refine"),
    ("search", "_grad_flat", "search.grad_flat"),
    ("search", "_zr_distance", "search.dedup"),
    ("search", "morse_index", "search.morse_index"),
    ("search", "project_to_boundary", "tables.project_to_boundary"),
    ("search", "connect", "geodesics.connect"),
    ("search", "billiard_step", "billiards.billiard_step"),
    ("billiards", "_march_to_boundary", "geodesics.march_to_boundary"),
    ("billiards", "reflect", "billiards.reflect"),
)

# (method of the metric class, span name)
METHOD_SITES = (
    ("_DL", "metrics.DL"),
    ("_dual_norm", "metrics.dual_norm"),
)


class Tracer:
    """In-memory span log; spans are written out only when the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # (name id, start ns, end ns, parent index or -1, returned a value), in start order
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = result is not None
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, ok)

        return traced

    def install(self, modules: dict, metric_cls: type) -> None:
        """Wrap every site; ``modules`` maps a layer name to its module."""
        for mod_name, attr, name in FUNCTION_SITES:
            mod = modules[mod_name]
            self._patch(mod, attr, self.wrap(name, getattr(mod, attr)))
        for attr, name in METHOD_SITES:
            self._patch(metric_cls, attr, self.wrap(name, getattr(metric_cls, attr)))

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__.get(attr), attr in owner.__dict__))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original, owned = self._saved.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def arrays(self) -> dict:
        rows = [s for s in self.spans if s is not None]
        a = np.array(rows, dtype=np.int64).reshape(-1, 5)
        name, start = a[:, 0], a[:, 1]
        searches = start[name == self._name_id("cli.run_search")]
        return {
            "names": np.array(self.names),
            "name": name,
            "start_ns": start,
            "end_ns": a[:, 2],
            "parent": a[:, 3],
            "search": np.searchsorted(searches, start, side="right") - 1,
            "ok": a[:, 4].astype(bool),
        }


def _tail_percentile(ms: np.ndarray) -> tuple[int, float]:
    """Highest of p50/p75/p90/p95/p99 with at least ten samples beyond it."""
    best = 50
    for p in (75, 90, 95, 99):
        if ms.size * (100 - p) / 100.0 >= 10:
            best = p
    return best, float(np.percentile(ms, best)) if ms.size else 0.0


def layer_metrics(arrays: dict, searches: int) -> tuple[dict, dict]:
    """Per-layer metrics (value, unit) per traced search, plus run details.

    ``.calls`` are calls per search, ``.us``/``.ms`` mean time per call, and
    ``.s``/``.self_s`` seconds per search.  Self time is span time minus the
    time of its child spans (children of one span never overlap, since the
    search is single-threaded).
    """
    names = list(arrays["names"])
    name = arrays["name"]
    parent = arrays["parent"]
    dur = (arrays["end_ns"] - arrays["start_ns"]) / 1e9
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_s = dur - child

    def mask(span: str) -> np.ndarray:
        if span not in names:
            return np.zeros(name.shape, dtype=bool)
        return name == names.index(span)

    def calls(span):
        return int(mask(span).sum()) / searches

    def mean(span, factor):
        m = mask(span)
        return float(dur[m].mean()) * factor if m.any() else 0.0

    def total(span, values=dur):
        return float(values[mask(span)].sum()) / searches

    out = {}

    def put(key, value, unit):
        out[key] = {"value": value, "unit": unit}

    for span in ("tables.project_to_boundary", "metrics.DL", "metrics.dual_norm",
                 "geodesics.connect", "geodesics.march_to_boundary", "billiards.reflect",
                 "search.grad_flat"):
        put(f"{span}.calls", calls(span), "count")
        put(f"{span}.us", mean(span, 1e6), "us")
    put("tables.project_to_boundary.self_s", total("tables.project_to_boundary", self_s), "s")
    put("metrics.validate_field_strength.calls", calls("metrics.validate_field_strength"), "count")
    put("metrics.validate_field_strength.ms", mean("metrics.validate_field_strength", 1e3), "ms")
    put("billiards.billiard_step.calls", calls("billiards.billiard_step"), "count")

    put("search.seed.s", total("search.random_seed") + total("search.trace_seed"), "s")
    trace_seeds = mask("search.trace_seed")
    fallbacks = int((trace_seeds & ~arrays["ok"]).sum())
    put("search.seed_trace.fallback_ratio",
        fallbacks / int(trace_seeds.sum()) if trace_seeds.any() else 0.0, "ratio")

    refines = mask("search.refine")
    n_refine = int(refines.sum())
    put("search.refine.calls", calls("search.refine"), "count")
    put("search.refine.s", total("search.refine"), "s")
    put("search.refine.self_s", total("search.refine", self_s), "s")
    put("search.refine.ok_ratio",
        int((refines & arrays["ok"]).sum()) / n_refine if n_refine else 0.0, "ratio")
    refine_ms = dur[refines] * 1e3
    put("search.refine.ms.p50", float(np.median(refine_ms)) if n_refine else 0.0, "ms")
    pct, value = _tail_percentile(refine_ms)
    put("search.refine.ms.pN", value, "ms")
    put("search.grad_flat.per_refine",
        int(mask("search.grad_flat").sum()) / n_refine if n_refine else 0.0, "count")

    put("search.dedup.calls", calls("search.dedup"), "count")
    put("search.dedup.s", total("search.dedup"), "s")
    put("search.morse_index.calls", calls("search.morse_index"), "count")
    put("search.morse_index.ms", mean("search.morse_index", 1e3), "ms")
    put("search.find_critical.s", total("search.find_critical"), "s")

    put("cli.build_geometry.s", mean("cli.build_geometry", 1.0), "s")
    put("cli.dumps_report.ms", mean("cli.dumps_report", 1e3), "ms")

    for layer in LAYERS:
        ids = [i for i, n in enumerate(names) if n.startswith(layer + ".")]
        put(f"layer.{layer}.self_s", float(self_s[np.isin(name, ids)].sum()) / searches, "s")

    details = {"refine_samples": n_refine, "refine_pN_percentile": pct,
               "spans": int(name.size), "traced_searches": searches}
    return out, details
