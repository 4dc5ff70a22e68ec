"""Architecture descriptions for convolutional generator stacks.

An :class:`ArchSpec` is an ordered list of convolution layers, each with a
kernel size, an integer spatial upsample factor, and channel widths.  It is
the input every other analysis in this package derives from: generative-field
sizes, influence footprints, and the style-space layout.

Architectures come from three places: JSON architecture files
(:func:`parse_arch` / :func:`load_arch`), the built-in StyleGAN2 presets
(:func:`stylegan2_preset`), or direct construction in code.  Specs are frozen
after validation and safe to share between concurrent analyses.
"""

from __future__ import annotations

import json
import re

from ._record import record
from .fileio import _load

__all__ = [
    "ArchError",
    "ArchParseError",
    "ArchValidationError",
    "LayerSpec",
    "ArchSpec",
    "parse_arch",
    "serialize_arch",
    "load_arch",
    "stylegan2_preset",
    "input_resolution",
]

SUPPORTED_PRESET_RESOLUTIONS = (8, 16, 32, 64, 128, 256, 512, 1024)

# Feature-map width of a generator block, reverse-engineered from the
# published StyleGAN2 channel table.  Preset-only; the field arithmetic in
# fields.py never consumes it.
_CHANNEL_BUDGET = 16384
_CHANNEL_CAP = 512


class ArchError(ValueError):
    """Base class for architecture construction failures."""


class ArchParseError(ArchError):
    """Raised when an architecture file is syntactically or structurally malformed."""


class ArchValidationError(ArchError):
    """Raised when a structurally well-formed architecture violates an invariant."""


@record
class LayerSpec:
    """One convolution layer: kernel size, spatial upsample factor, channels.

    ``upsample`` is the integer factor by which the layer scales its input
    feature map (1 means an ordinary stride-1 convolution).  ``style_label``
    is an optional external name for the layer's per-channel modulation input
    (e.g. ``"s6"``).
    """

    id: str
    kernel: int
    upsample: int
    channels_in: int
    channels_out: int
    style_label: str | None = None


@record
class ArchSpec:
    """An ordered convolution stack with a base feature-map resolution."""

    name: str
    base_resolution: int
    layers: tuple[LayerSpec, ...]

    @property
    def depth(self) -> int:
        """Number of convolution layers."""
        return len(self.layers)

    @property
    def output_resolution(self) -> int:
        """Side length of the final feature map: base times all upsamples."""
        return map_sides(self)[-1]

    def layer_index(self, layer_id: str) -> int:
        return _layer_index([layer.id for layer in self.layers], layer_id, self.name)


def _layer_index(ids: list[str], layer_id: str, arch_name: str) -> int:
    """Position of ``layer_id`` in ``ids``, the layer ids of architecture ``arch_name``."""
    try:
        return ids.index(layer_id)
    except ValueError:
        raise ArchValidationError(
            f"unknown layer id {layer_id!r} in architecture {arch_name!r}") from None


def _layer_span(ids: list[str], first: str, last: str, arch_name: str) -> range:
    """Positions of the layers ``first..last`` in ``ids``, both ends included."""
    lo, hi = _layer_index(ids, first, arch_name), _layer_index(ids, last, arch_name)
    if lo > hi:
        raise ArchValidationError(f"layer range {first + '..' + last!r} is reversed")
    return range(lo, hi + 1)


# Ids, labels and names are written verbatim into unquoted CSV cells and
# line-oriented report headers.
_CONTROL = re.compile(r"[\x00-\x1f\x7f-\x9f]")
_UNSAFE_CELL = re.compile(r"[,\x00-\x1f\x7f-\x9f]")
_CELL_CHARS = "a comma or a control character"
# A lone surrogate (from a JSON \ud800 escape) has no UTF-8 form, so no report can hold it.
_SURROGATE = re.compile("[\ud800-\udfff]")


# The file format is the records' fields; a layer's id and style_label are optional.
_TOP_LEVEL_FIELDS = set(ArchSpec.__match_args__)
_LAYER_FIELDS = set(LayerSpec.__match_args__)
# In field order, so that of several bad sizes the same one is reported every run.
_LAYER_REQUIRED = tuple(name for name in LayerSpec.__match_args__ if name not in ("id", "style_label"))


def _is_int(value: object) -> bool:
    # bool is an int subclass; reject it explicitly.
    return isinstance(value, int) and not isinstance(value, bool)


class _ArchTypeError(ArchParseError, ArchValidationError):
    """A field of the wrong type: malformed as a file and invalid as a spec."""


def _check_text(what: str, value: object, unsafe: re.Pattern, chars: str) -> None:
    """Refuse a name, id or label that is no string, or that no report line could hold."""
    if not isinstance(value, str):
        raise _ArchTypeError(f"{what} must be a string, got {value!r}")
    if unsafe.search(value):
        raise ArchValidationError(f"{what} {value!r} contains {chars}")
    if _SURROGATE.search(value):
        raise ArchValidationError(f"{what} {value!r} contains a lone surrogate")


def validate_arch(arch: ArchSpec) -> ArchSpec:
    """Check every type and value rule of an ArchSpec; return it unchanged.

    Architecture files and presets are validated on construction; call this
    on a spec built directly in code.
    """
    _check_text("architecture name", arch.name, _CONTROL, "a control character")
    if not arch.layers:
        raise ArchValidationError(f"architecture {arch.name!r} has no layers")
    if not _is_int(arch.base_resolution):
        raise _ArchTypeError(
            f"architecture {arch.name!r}: base_resolution must be an integer, "
            f"got {arch.base_resolution!r}"
        )
    if arch.base_resolution < 1:
        raise ArchValidationError(
            f"architecture {arch.name!r}: base_resolution must be positive, got {arch.base_resolution}"
        )
    seen: set[str] = set()
    for i, layer in enumerate(arch.layers):
        _check_text(f"layer {i} id", layer.id, _UNSAFE_CELL, _CELL_CHARS)
        if not layer.id:
            raise ArchValidationError(f"layer {i} has an empty id")
        if layer.style_label is not None:
            _check_text(f"{layer.id}: style_label", layer.style_label, _UNSAFE_CELL, _CELL_CHARS)
        if layer.id in seen:
            raise ArchValidationError(f"duplicate layer id {layer.id!r}")
        seen.add(layer.id)
        for field in _LAYER_REQUIRED:
            if not _is_int(getattr(layer, field)):
                raise _ArchTypeError(
                    f"{layer.id}: {field} must be an integer, got {getattr(layer, field)!r}"
                )
        if layer.kernel < 1:
            raise ArchValidationError(f"{layer.id}: kernel must be >= 1, got {layer.kernel}")
        if layer.upsample < 1:
            raise ArchValidationError(f"{layer.id}: upsample must be >= 1, got {layer.upsample}")
        if layer.channels_in < 1 or layer.channels_out < 1:
            raise ArchValidationError(
                f"{layer.id}: channel counts must be positive, got "
                f"{layer.channels_in}->{layer.channels_out}"
            )
        if i > 0:
            prev = arch.layers[i - 1]
            if layer.channels_in != prev.channels_out:
                raise ArchValidationError(
                    f"{layer.id}: channels_in {layer.channels_in} does not match "
                    f"{prev.id} channels_out {prev.channels_out}"
                )
    return arch


def parse_arch(text: str) -> ArchSpec:
    """Parse an architecture file (JSON document) into a validated ArchSpec.

    The document holds exactly the fields of :class:`ArchSpec`, with
    ``layers`` an array of objects holding the fields of :class:`LayerSpec`;
    ``id`` and ``style_label`` are optional and unknown fields are rejected.
    Missing ids are canonicalized to ``conv0..convN-1``.  Types and values
    are checked by :func:`validate_arch`.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArchParseError(
            f"malformed architecture file at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc

    if not isinstance(doc, dict):
        raise ArchParseError("architecture file must be a JSON object at the top level")
    unknown = set(doc) - _TOP_LEVEL_FIELDS
    if unknown:
        raise ArchParseError(f"unknown top-level field(s): {', '.join(sorted(unknown))}")
    missing = _TOP_LEVEL_FIELDS - set(doc)
    if missing:
        raise ArchParseError(f"missing top-level field(s): {', '.join(sorted(missing))}")
    if not isinstance(doc["layers"], list):
        raise ArchParseError("layers: expected an array of layer objects")

    layers: list[LayerSpec] = []
    for i, raw in enumerate(doc["layers"]):
        where = f"layers[{i}]"
        if not isinstance(raw, dict):
            raise ArchParseError(f"{where}: expected a layer object")
        unknown = set(raw) - _LAYER_FIELDS
        if unknown:
            raise ArchParseError(f"{where}: unknown field(s): {', '.join(sorted(unknown))}")
        missing = set(_LAYER_REQUIRED) - set(raw)
        if missing:
            raise ArchParseError(f"{where}: missing field(s): {', '.join(sorted(missing))}")
        layers.append(LayerSpec(**{"id": f"conv{i}", **raw}))

    return validate_arch(ArchSpec(**{**doc, "layers": tuple(layers)}))


def serialize_arch(arch: ArchSpec) -> str:
    """Render an ArchSpec back to its file form.  Round-trips through parse_arch."""
    # Only an unset style_label can be None; the file form omits it.
    layers = [{k: v for k, v in vars(layer).items() if v is not None} for layer in arch.layers]
    doc = {**vars(arch), "layers": layers}
    return json.dumps(doc, indent=2) + "\n"


def load_arch(path: str) -> ArchSpec:
    """Read and parse an architecture file from disk."""
    return _load(path, "architecture file", parse_arch, error=ArchParseError)


def _block_width(block_resolution: int) -> int:
    return min(_CHANNEL_CAP, _CHANNEL_BUDGET // block_resolution)


def stylegan2_preset(resolution: int) -> ArchSpec:
    """Built-in StyleGAN2 generator stack for a given output resolution.

    The first generator block holds a single stride-1 3x3 convolution at the
    4x4 base; every further block contributes one upsampling (factor 2) 3x3
    convolution followed by one stride-1 3x3 convolution, doubling resolution
    per block.  Channel widths follow min(512, 16384 / block_resolution),
    which reproduces the published channel column for the 256x256 model.
    Style labels (s0, s2, s3, s5, s6, ...) skip the per-block RGB convolution
    indices, which are not represented here.
    """
    if resolution not in SUPPORTED_PRESET_RESOLUTIONS:
        raise ArchError(
            f"unsupported preset resolution {resolution}; expected one of "
            f"{', '.join(str(r) for r in SUPPORTED_PRESET_RESOLUTIONS)}"
        )
    base = 4
    layers: list[LayerSpec] = [
        LayerSpec(
            id="conv0",
            kernel=3,
            upsample=1,
            channels_in=_block_width(base),
            channels_out=_block_width(base),
            style_label="s0",
        )
    ]
    block = 1
    res = base * 2
    while res <= resolution:
        w_in = _block_width(res // 2)
        w_out = _block_width(res)
        idx = len(layers)
        layers.append(
            LayerSpec(
                id=f"conv{idx}",
                kernel=3,
                upsample=2,
                channels_in=w_in,
                channels_out=w_out,
                style_label=f"s{3 * block - 1}",
            )
        )
        layers.append(
            LayerSpec(
                id=f"conv{idx + 1}",
                kernel=3,
                upsample=1,
                channels_in=w_out,
                channels_out=w_out,
                style_label=f"s{3 * block}",
            )
        )
        block += 1
        res *= 2
    return validate_arch(
        ArchSpec(name=f"stylegan2-{resolution}", base_resolution=base, layers=tuple(layers))
    )


def input_resolution(arch: ArchSpec, layer: int) -> int:
    """Side length of the feature map entering layer ``layer`` (0-based).

    This is the true input resolution: an upsampling layer is reported at the
    resolution it consumes, not the one it produces.
    """
    _check_layer(arch, layer)
    return map_sides(arch)[layer]


def _check_layer(arch: ArchSpec, layer: int) -> None:
    if not 0 <= layer < arch.depth:
        raise ArchError(f"layer index {layer} out of range [0, {arch.depth})")


def map_sides(arch: ArchSpec, base: int | None = None) -> list[int]:
    """Side of the map entering each layer, then of the output; ``base`` replaces the base resolution."""
    sides = [arch.base_resolution if base is None else base]
    for layer in arch.layers:
        sides.append(sides[-1] * layer.upsample)
    return sides
