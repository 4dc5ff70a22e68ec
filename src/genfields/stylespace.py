"""Style-space layout, control-signal arithmetic, and field-threshold planning.

Every convolution layer of a generator consumes a per-channel modulation
vector whose width equals the layer's input channel count.  Concatenating
those vectors in layer order yields the style space; for the stylegan2-256
preset it has 4928 dimensions.  A style vector ``S`` lives in that space, a
control signal is an additive offset to it, and a :class:`MaskPlan` selects
which layers' offset dimensions stay active when the offset is applied.

Plans are built from generative-field thresholds (:func:`plan_by_gf`) or
explicit layer ranges (:func:`plan_by_layers`); either construction enables
a contiguous run of layers.
"""

from __future__ import annotations

import bisect
import functools
import operator

from ._np import np
from ._record import record
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


@record
class LayerRange:
    """Half-open dimension range [start, stop) owned by one layer."""

    layer_id: str
    style_label: str | None
    channel_count: int
    start: int
    stop: int


@record
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

    def layer_of_dim(self, d) -> str:
        d = operator.index(d)
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


@record(eq=False)
class MaskPlan:
    """Enabled-layer run plus the span of style dimensions it owns.

    ``gf_range`` is (generative field of the last enabled layer, generative
    field of the first enabled layer) -- the realized (min, max), recomputed
    from the field table rather than copied from any published listing.
    ``dims`` is the enabled layers' contiguous dimension span, out of
    ``total_dims``; ``mask`` is that span as a boolean array, built on first use.
    """

    enabled_layers: tuple[str, ...]
    gf_range: tuple[int, int]
    dims: range
    total_dims: int

    @functools.cached_property
    def mask(self) -> np.ndarray:
        mask = np.zeros(self.total_dims, dtype=bool)
        mask[self.dims.start : self.dims.stop] = True
        return mask

    @property
    def enabled_dims(self) -> int:
        return self.dims.stop - self.dims.start  # len() of a range fails past sys.maxsize


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


def _build_plan(table: FieldTable, layout: StyleLayout, span: range) -> MaskPlan:
    """The plan enabling the layers at positions ``span``, a contiguous run."""
    if [rec.layer_id for rec in table.records] != [r.layer_id for r in layout.ranges]:
        raise ValueError(f"field table of {table.arch_name!r} and style layout of "
                         f"{layout.arch_name!r} list different layers")
    records = table.records[span.start : span.stop]
    return MaskPlan(enabled_layers=tuple(rec.layer_id for rec in records),
                    gf_range=(records[-1].generative_field, records[0].generative_field),
                    dims=range(layout.ranges[span[0]].start, layout.ranges[span[-1]].stop),
                    total_dims=layout.total_dims)


def plan_by_gf(table: FieldTable, layout: StyleLayout, min_gf: int, max_gf: int) -> MaskPlan:
    """Enable the run of layers from the first to the last that cover [min_gf, max_gf].

    Each layer governs the band of field sizes between the next-finer layer's
    field (exclusive) and its own (inclusive); a layer passes when that band
    overlaps the requested range.  Equivalently: its field is at least
    ``min_gf`` and the next layer's field is below ``max_gf``.  A layer whose
    own field exceeds ``max_gf`` therefore still passes when no finer layer
    reaches the requested upper scales, which is how published control-unit
    configurations quote thresholds slightly below the coarsest enabled field.
    Where fields shrink along the stack, the run holds only passing layers.
    """
    if min_gf > max_gf:
        raise ValueError(f"min_gf {min_gf} exceeds max_gf {max_gf}")
    gfs = [rec.generative_field for rec in table.records] + [0]
    passing = [i for i in range(len(table.records)) if gfs[i] >= min_gf and gfs[i + 1] < max_gf]
    if not passing:
        raise ValueError(f"no layer in GF range [{min_gf}, {max_gf}]")
    return _build_plan(table, layout, range(passing[0], passing[-1] + 1))


def plan_by_layers(
    table: FieldTable, layout: StyleLayout, first_layer: str, last_layer: str
) -> MaskPlan:
    """Enable a contiguous run of layers named by their ids."""
    ids = [rec.layer_id for rec in table.records]
    return _build_plan(table, layout, _layer_span(ids, first_layer, last_layer, table.arch_name))


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
        distances = np.array([np.hypot(*(right - left)) for left, right in temples])
        mean = np.mean(distances)
        if mean == np.inf:
            # The sum overflowed. Divided first by a power of two above the
            # count, the sum stays below the largest distance.
            scale = 2.0 ** len(distances).bit_length()
            mean = np.mean(distances / scale) * scale
        return float(_finite_result(mean, "face scale"))


def mask_rle(mask: np.ndarray) -> list[tuple[int, int]]:
    """Run-length encode a boolean mask as (value, run_length) pairs."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.size:
        return []
    starts = np.concatenate(([0], np.flatnonzero(np.diff(mask)) + 1))
    lengths = np.diff(starts, append=mask.size)
    return list(zip(mask[starts].astype(int).tolist(), lengths.tolist()))
