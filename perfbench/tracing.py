"""In-process tracing of ``genfields`` layers from outside the program.

The traced run calls ``genfields.cli.main(argv)`` directly.  Before it does,
:meth:`Tracer.install` replaces each layer's public functions where they are
bound -- the names imported into ``genfields.cli``, plus the module
attributes that library code calls internally (``oracle.boolean_footprint``
and ``oracle.numeric_footprint`` for ``verify_arch``, ``losses.ms_ssim`` for
``reconstruction_loss``) -- with wrappers that record one span per call:
name, start, end, parent span and operation id.  Spans stay in memory until
the run ends.  :func:`layer_metrics` turns one pass's spans into the
per-layer metrics; :func:`self_times` computes self time as a span's duration
minus the part of it its child spans cover.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from dataclasses import dataclass, field

# (module, name) of every wrapped binding; the layer is the function's own
# module, so ``genfields.cli.load_arch`` is an archgraph span.
WRAPPED = [
    ("genfields.cli", name) for name in (
        "load_arch", "stylegan2_preset",
        "fields_table", "table_csv",
        "load_landmarks_csv", "load_vectors_csv", "read_pgm", "read_ppm",
        "identity_loss", "landmark_loss", "pose_loss", "reconstruction_loss", "total_loss",
        "numeric_footprint", "verify_arch",
        "estimate_stats", "load_stats_csv", "log_likelihood", "log_likelihood_grad", "stats_csv",
        "mean_histogram", "reuse_rates", "topk_set",
        "mask_rle", "plan_by_gf", "plan_by_layers", "style_layout",
    )
] + [
    ("genfields.oracle", "boolean_footprint"),
    ("genfields.oracle", "numeric_footprint"),
    ("genfields.losses", "ms_ssim"),
]

ROOT = "cli.main"

# Starting layers reported by ``oracle.numeric_s.<layer_id>``: the 17 layers
# of stylegan2-1024; generated architectures use the same default ids.
ORACLE_LAYER_IDS = [f"conv{i}" for i in range(17)]


@dataclass
class Span:
    op: int
    sid: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float = math.nan
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _oracle_attrs(args, kwargs, result) -> dict:
    """Cells simulated, computed from the architecture and sim_base (1-D runs)."""
    arch, layer = args[0], args[1]
    sim_base = args[3] if len(args) > 3 else kwargs.get("sim_base", 16)
    length, cells = sim_base, 0
    for i, spec in enumerate(arch.layers):
        length *= spec.upsample
        if i >= layer:
            cells += length
    return {"cells": cells, "layer_id": arch.layers[layer].id}


def _ms_ssim_attrs(args, kwargs, result) -> dict:
    """Megapixels filtered over the pyramid, computed from the image shape."""
    shape = getattr(args[0], "shape", ())
    scales = args[2] if len(args) > 2 else kwargs.get("scales", 5)
    if len(shape) < 2:
        return {"mpx": 0.0}
    planes = shape[2] if len(shape) == 3 else 1
    return {"mpx": sum((shape[0] >> s) * (shape[1] >> s) for s in range(scales)) * planes / 1e6}


def _file_attrs(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _union_attrs(args, kwargs, result) -> dict:
    return {"union": len(result.union_dims)}


ATTRS = {
    "boolean_footprint": _oracle_attrs,
    "numeric_footprint": _oracle_attrs,
    "ms_ssim": _ms_ssim_attrs,
    "load_vectors_csv": _file_attrs,
    "load_landmarks_csv": _file_attrs,
    "read_ppm": _file_attrs,
    "read_pgm": _file_attrs,
    "reuse_rates": _union_attrs,
}


class Tracer:
    """Span recorder; ``install`` wraps the bindings, ``uninstall`` restores them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = 0
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str, layer: str) -> Span:
        span = Span(self.op, len(self.spans), self.stack[-1] if self.stack else None,
                    name, layer, time.perf_counter())
        self.spans.append(span)
        self.stack.append(span.sid)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn):
        name = fn.__name__
        layer = fn.__module__.rpartition(".")[2]
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        import importlib

        for module_name, attr in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"op": s.op, "id": s.sid, "parent": s.parent, "name": s.name,
                                     "layer": s.layer, "start": s.start, "end": s.end,
                                     **s.attrs}) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its direct children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    result = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.sid, []), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[s.sid] = s.duration - covered
    return result


def nesting_violations(spans: list[Span]) -> list[str]:
    """Spans whose children together last longer than the span itself."""
    by_id = {s.sid: s for s in spans}
    total: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            total[s.parent] = total.get(s.parent, 0.0) + s.duration
    return [f"{by_id[p].name}: children {t:.6f} s > span {by_id[p].duration:.6f} s"
            for p, t in total.items() if t > by_id[p].duration + 1e-9]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass (the spans of its operations)."""
    by_id = {s.sid: s for s in spans}
    selfs = self_times(spans)

    def total(*names):
        return sum(s.duration for s in spans if s.name in names)

    def count(*names):
        return sum(1 for s in spans if s.name in names)

    def layer_time(layer):
        # Outermost spans of the layer only, so nested calls count once.
        return sum(s.duration for s in spans if s.layer == layer
                   and (s.parent is None or by_id[s.parent].layer != layer))

    def attr_sum(key, *names):
        return sum(s.attrs.get(key, 0) for s in spans if s.name in names)

    vectors_s = total("load_vectors_csv", "load_landmarks_csv")
    vectors_mb = attr_sum("bytes", "load_vectors_csv", "load_landmarks_csv") / 1e6
    ms_ssim_s = total("ms_ssim")
    m = {
        "cli.self_s": sum(selfs[s.sid] for s in spans if s.name == ROOT),
        "oracle.boolean_s": total("boolean_footprint"),
        "oracle.numeric_s": total("numeric_footprint"),
        "oracle.calls": count("boolean_footprint", "numeric_footprint"),
        "oracle.cells": attr_sum("cells", "boolean_footprint", "numeric_footprint"),
        "fileio.vectors_s": vectors_s,
        "fileio.vectors_mb": vectors_mb,
        "fileio.vectors_mb_per_s": vectors_mb / vectors_s if vectors_s > 0 else 0.0,
        "fileio.images_s": total("read_ppm", "read_pgm"),
        "sparsity.histogram_s": total("mean_histogram"),
        "sparsity.topk_s": total("topk_set"),
        "sparsity.topk_calls": count("topk_set"),
        "sparsity.reuse_s": total("reuse_rates"),
        "sparsity.union_dims": max((s.attrs.get("union", 0) for s in spans), default=0),
        "regularizer.estimate_s": total("estimate_stats"),
        "regularizer.loglik_s": total("log_likelihood"),
        "regularizer.loglik_calls": count("log_likelihood"),
        "regularizer.grad_s": total("log_likelihood_grad"),
        "regularizer.stats_io_s": total("stats_csv", "load_stats_csv"),
        "losses.ms_ssim_s": ms_ssim_s,
        "losses.ms_ssim_mpx": attr_sum("mpx", "ms_ssim"),
        "losses.other_s": layer_time("losses") - ms_ssim_s,
    }
    for layer in ("archgraph", "fields", "stylespace"):
        m[f"{layer}.s"] = layer_time(layer)
        m[f"{layer}.calls"] = sum(1 for s in spans if s.layer == layer)
    for layer_id in ORACLE_LAYER_IDS:
        m[f"oracle.numeric_s.{layer_id}"] = sum(
            s.duration for s in spans
            if s.name == "numeric_footprint" and s.attrs.get("layer_id") == layer_id)
    return m

