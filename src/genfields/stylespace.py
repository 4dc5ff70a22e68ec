"""Style-space layout, control-signal arithmetic, and field-threshold planning.

Every convolution layer of a generator consumes a per-channel modulation
vector whose width equals the layer's input channel count.  Concatenating
those vectors in layer order yields the style space; for the stylegan2-256
preset it has 4928 dimensions.  A style vector ``S`` lives in that space, a
control signal is an additive offset to it, and a :class:`MaskPlan` selects
which layers' offset dimensions stay active when the offset is applied.

Plans are built from generative-field thresholds (:func:`plan_by_gf`) or
explicit layer ranges (:func:`plan_by_layers`).  Because generative fields
shrink monotonically along the stack, either construction enables a
contiguous run of layers.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from ._np import np
from .archgraph import ArchError, ArchSpec, _layer_index, _layer_span
from .fields import FieldTable
from .losses import _finite_array, _finite_result

__all__ = [
    "LayerRange",
    "StyleLayout",
    "MaskPlan",
    "style_layout",
    "apply_control",
    "plan_by_gf",
    "plan_by_layers",
    "face_scale",
    "mask_rle",
]


@dataclass(frozen=True)
class LayerRange:
    """Half-open dimension range [start, stop) owned by one layer."""

    layer_id: str
    style_label: str | None
    channel_count: int
    start: int
    stop: int


@dataclass(frozen=True)
class StyleLayout:
    """Partition of style-space dimensions into per-layer contiguous ranges."""

    arch_name: str
    ranges: tuple[LayerRange, ...]

    @property
    def total_dims(self) -> int:
        return self.ranges[-1].stop if self.ranges else 0

    def dims_of_layer(self, layer_id: str) -> range:
        r = self.ranges[_layer_index([r.layer_id for r in self.ranges], layer_id, self.arch_name)]
        return range(r.start, r.stop)

    def layer_of_dim(self, d: int) -> str:
        if not 0 <= d < self.total_dims:
            raise ArchError(f"dimension {d} out of range [0, {self.total_dims})")
        starts = [r.start for r in self.ranges]
        return self.ranges[bisect.bisect_right(starts, d) - 1].layer_id


def style_layout(arch: ArchSpec) -> StyleLayout:
    """One contiguous range per layer, width equal to its input channel count."""
    ranges = []
    start = 0
    for spec in arch.layers:
        stop = start + spec.channels_in
        ranges.append(
            LayerRange(
                layer_id=spec.id,
                style_label=spec.style_label,
                channel_count=spec.channels_in,
                start=start,
                stop=stop,
            )
        )
        start = stop
    return StyleLayout(arch_name=arch.name, ranges=tuple(ranges))


@dataclass(frozen=True, eq=False)
class MaskPlan:
    """Enabled-layer set plus the boolean dimension mask it induces.

    ``gf_range`` is (generative field of the last enabled layer, generative
    field of the first enabled layer) -- the realized (min, max), recomputed
    from the field table rather than copied from any published listing.
    """

    enabled_layers: tuple[str, ...]
    gf_range: tuple[int, int]
    mask: np.ndarray

    @property
    def enabled_dims(self) -> int:
        return int(np.count_nonzero(self.mask))


def apply_control(s_id, delta, plan: MaskPlan | None = None) -> np.ndarray:
    """Return ``s_id + mask * delta``; with no plan the mask is all-true.

    Disabled dimensions zero the control signal, never the style signal:
    outside the plan the result re-emits ``s_id`` values unchanged.  Both
    vectors must be finite, in disabled dimensions too.
    """
    s = _finite_array(s_id, "style vector")
    d = _finite_array(delta, "control signal")
    if s.shape != d.shape:
        raise ValueError(f"length mismatch: style vector {s.size} vs control signal {d.size}")
    if plan is None:
        return s + d
    if plan.mask.shape != s.shape:
        raise ValueError(f"length mismatch: plan mask {plan.mask.size} vs vectors {s.size}")
    out = s.copy()
    out[plan.mask] += d[plan.mask]
    return out


def _build_plan(table: FieldTable, layout: StyleLayout, enabled_ids: list[str]) -> MaskPlan:
    mask = np.zeros(layout.total_dims, dtype=bool)
    for layer_id in enabled_ids:
        dims = layout.dims_of_layer(layer_id)
        mask[dims.start : dims.stop] = True
    first_gf = table.record(enabled_ids[0]).generative_field
    last_gf = table.record(enabled_ids[-1]).generative_field
    return MaskPlan(enabled_layers=tuple(enabled_ids), gf_range=(last_gf, first_gf), mask=mask)


def plan_by_gf(table: FieldTable, layout: StyleLayout, min_gf: int, max_gf: int) -> MaskPlan:
    """Enable the layers whose generative fields cover the range [min_gf, max_gf].

    Each layer governs the band of field sizes between the next-finer layer's
    field (exclusive) and its own (inclusive); a layer is enabled when that
    band overlaps the requested range.  Equivalently: its field is at least
    ``min_gf`` and the next layer's field is below ``max_gf``.  A layer whose
    own field exceeds ``max_gf`` is therefore still enabled when no finer
    layer reaches the requested upper scales, which is how published
    control-unit configurations quote thresholds slightly below the coarsest
    enabled field.
    """
    if min_gf > max_gf:
        raise ValueError(f"min_gf {min_gf} exceeds max_gf {max_gf}")
    gfs = [rec.generative_field for rec in table.records]
    enabled = []
    for i, rec in enumerate(table.records):
        next_gf = gfs[i + 1] if i + 1 < len(gfs) else 0
        if rec.generative_field >= min_gf and next_gf < max_gf:
            enabled.append(rec.layer_id)
    if not enabled:
        raise ValueError(f"no layer in GF range [{min_gf}, {max_gf}]")
    return _build_plan(table, layout, enabled)


def plan_by_layers(
    table: FieldTable, layout: StyleLayout, first_layer: str, last_layer: str
) -> MaskPlan:
    """Enable a contiguous run of layers named by their ids."""
    ids = [rec.layer_id for rec in table.records]
    span = _layer_span(ids, first_layer, last_layer, table.arch_name)
    return _build_plan(table, layout, ids[span.start : span.stop])


def face_scale(landmark_sets) -> float:
    """Mean distance between the left and right temple landmarks, in pixels.

    Each element must provide at least 17 points with pixel coordinates; the
    distance is taken between points 1 and 17 (1-based) using x and y only,
    so 3-D landmark sets are measured in the image plane.  For reference,
    face datasets at 256x256 average around 141.68 pixels by this measure;
    that constant is documentation only and never asserted anywhere.
    """
    sets = list(landmark_sets)
    if not sets:
        raise ValueError("face_scale requires at least one landmark set")
    temples = []
    for i, points in enumerate(sets):
        arr = _finite_array(points, f"landmark set {i}", ndim=2)
        if arr.shape[0] < 17 or arr.shape[1] < 2:
            raise ValueError(
                f"landmark set {i} must have at least 17 points with (x, y) coordinates, "
                f"got shape {arr.shape}"
            )
        temples.append(arr[[0, 16], :2])
    with np.errstate(over="ignore"):
        distances = [np.hypot(*(right - left)) for left, right in temples]
        return _finite_result(np.mean(distances), "face scale")


def mask_rle(mask: np.ndarray) -> list[tuple[int, int]]:
    """Run-length encode a boolean mask as (value, run_length) pairs."""
    runs: list[tuple[int, int]] = []
    for v in np.asarray(mask, dtype=bool):
        bit = int(v)
        if runs and runs[-1][0] == bit:
            runs[-1] = (bit, runs[-1][1] + 1)
        else:
            runs.append((bit, 1))
    return runs
