"""Spans and counters taken around fibervox's public functions, from outside
the package.

`Tracer.instrumented()` swaps each named module-level function of the
``fibervox`` modules for a wrapper that records one span per call (name,
start, end, parent) and restores the originals on exit. Calls made between
fibervox functions go through module globals, so nested calls (for example
``simulate_fbp`` -> ``radon_slice``) are recorded as child spans. Spans stay
in memory until `write_jsonl` is called at the end of a run.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# Public functions that get one span per call, by defining module.
SPANNED = {
    "fibers": ("generate_model", "audit_model", "model_statistics",
               "write_fibers_csv", "read_fibers_csv"),
    "mesh": ("write_stl",),
    "ctsim": ("rasterize_labels", "rasterize_attenuation", "degrade",
              "simulate_fbp", "radon_slice", "fbp_slice"),
    "annotate": ("annotations_from_fibers", "render_polylines", "region_grow"),
    "vesselness": ("frangi_multiscale", "hessian_at_scale", "frangi_response",
                   "binarize", "connected_components",
                   "structure_tensor_orientation", "write_orientation_field"),
    "metrics": ("evaluate", "contingency_table"),
    "volume": ("write_volume", "read_volume"),
}

# Hot kernels that only get call and row counters: a span per call would
# cost more than the call itself (the packer makes ~10^5 of them).
COUNTED = {"fibers": ("segment_distance_sq",)}


def _result_counts(name, result) -> dict:
    """Counts taken from a spanned call's return value."""
    if name == "generate_model":
        return {"attempts": result.attempts_used, "fibers": len(result.fibers)}
    if name == "write_stl":
        return {"stl_bytes": 84 + 50 * int(result)}
    if name == "connected_components":
        return {"components": int(result.data.max(initial=0))}
    if name == "contingency_table":
        return {"contingency_cells": int(result.joint.size)}
    return {}


class Tracer:
    """In-memory span recorder. Spans are dicts with keys id, name, parent,
    start, end (seconds since the tracer was made) and counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1]["id"] if self._stack else None,
               "start": time.perf_counter() - self._t0, "end": None, "counts": {}}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._t0
            self._stack.pop()

    def count(self, key: str, value: int) -> None:
        """Add to a counter on the innermost open span."""
        if self._stack:
            counts = self._stack[-1]["counts"]
            counts[key] = counts.get(key, 0) + value

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                rec["counts"].update(_result_counts(name, result))
                return result
        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.count(name + ".calls", 1)
            self.count(name + ".rows", int(result.size))
            return result
        return wrapper

    @contextmanager
    def instrumented(self, package):
        """Wrap the SPANNED and COUNTED functions of ``package`` in every
        loaded module of the package that refers to them; restore them on
        exit."""
        prefix = package.__name__ + "."
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == package.__name__ or key.startswith(prefix)]
        patches = []
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for mod_name, names in table.items():
                home = getattr(package, mod_name)
                for name in names:
                    original = getattr(home, name)
                    wrapper = make(name, original)
                    for mod in modules:
                        if getattr(mod, name, None) is original:
                            patches.append((mod, name, original))
                            setattr(mod, name, wrapper)
        try:
            yield self
        finally:
            for mod, name, original in reversed(patches):
                setattr(mod, name, original)

    def children(self) -> dict[int, list[dict]]:
        out: dict[int, list[dict]] = {}
        for rec in self.spans:
            if rec["parent"] is not None:
                out.setdefault(rec["parent"], []).append(rec)
        return out

    def self_times(self) -> dict[int, float]:
        """Span duration minus the time its direct children cover. Children
        run one after another on the one thread, so they never overlap."""
        kids = self.children()
        return {rec["id"]: (rec["end"] - rec["start"])
                - sum(c["end"] - c["start"] for c in kids.get(rec["id"], ()))
                for rec in self.spans}

    def phase_totals(self, phase: str) -> list[dict]:
        """For each top-level span named ``phase``: per span name, the summed
        inclusive seconds (``name.s``), self seconds (``name.self_s``) and
        counts (``name.count_key``) of every span below it, itself included."""
        kids = self.children()
        selfs = self.self_times()
        out = []
        for root in self.spans:
            if root["parent"] is not None or root["name"] != phase:
                continue
            totals: dict[str, float] = {"spans": 0}
            todo = [root]
            while todo:
                rec = todo.pop()
                name = rec["name"]
                for key, value in ((name + ".s", rec["end"] - rec["start"]),
                                   (name + ".self_s", selfs[rec["id"]]),
                                   *((name + "." + k, v) for k, v in rec["counts"].items())):
                    totals[key] = totals.get(key, 0) + value
                totals["spans"] += 1
                todo.extend(kids.get(rec["id"], ()))
            out.append(totals)
        return out

    def write_jsonl(self, path: Path) -> None:
        selfs = self.self_times()
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for rec in self.spans:
                fh.write(json.dumps({**rec, "self": selfs[rec["id"]]}, sort_keys=True) + "\n")
