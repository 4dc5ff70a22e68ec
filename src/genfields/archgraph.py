"""Architecture descriptions for convolutional generator stacks.

An :class:`ArchSpec` is an ordered list of convolution layers, each with a
kernel size, an integer spatial upsample factor, and channel widths.  It is
the input every other analysis in this package derives from: generative-field
sizes, influence footprints, and the style-space layout.

Architectures come from three places: JSON architecture files
(:func:`parse_arch` / :func:`load_arch`), the built-in StyleGAN2 presets
(:func:`stylegan2_preset`, built as a decoded file would be), or direct
construction in code.  Specs are frozen after validation and safe to share
between concurrent analyses.
"""

from __future__ import annotations

import json
import re
import sys

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
# The required ones, in field order, so that of several bad sizes the same one is reported every run.
_LAYER_SIZES = tuple(name for name in LayerSpec.__match_args__ if name not in ("id", "style_label"))
# The largest size and output side of an architecture: every exact integer a report
# derives from them has a few dozen digits, far below the 4300 Python converts to text.
_SIZE_LIMIT = 2**63


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


def _check_size(where: str, field: str, value: object) -> None:
    """Refuse a size that is no integer, or not in ``[1, _SIZE_LIMIT]``."""
    if not _is_int(value):
        raise _ArchTypeError(f"{where}: {field} must be an integer, got {value!r}")
    if value > _SIZE_LIMIT:  # printed, the value itself might have too many digits
        raise ArchValidationError(f"{where}: {field} must be at most {_SIZE_LIMIT}")
    if value < 1:
        raise ArchValidationError(f"{where}: {field} must be positive, got {value}")


def validate_arch(arch: ArchSpec) -> ArchSpec:
    """Check every type and value rule of an ArchSpec; return it unchanged.

    Architecture files and presets are validated on construction; call this
    on a spec built directly in code.
    """
    _check_text("architecture name", arch.name, _CONTROL, "a control character")
    if not arch.layers:
        raise ArchValidationError(f"architecture {arch.name!r} has no layers")
    _check_size(f"architecture {arch.name!r}", "base_resolution", arch.base_resolution)
    side = arch.base_resolution
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
        for field in _LAYER_SIZES:
            _check_size(layer.id, field, getattr(layer, field))
        side *= layer.upsample
        if side > _SIZE_LIMIT:
            raise ArchValidationError(f"{layer.id}: output side must be at most {_SIZE_LIMIT}")
        if i > 0:
            prev = arch.layers[i - 1]
            if layer.channels_in != prev.channels_out:
                raise ArchValidationError(
                    f"{layer.id}: channels_in {layer.channels_in} does not match "
                    f"{prev.id} channels_out {prev.channels_out}"
                )
    return arch


def _check_fields(where: str, raw: dict, allowed: set[str], required: set[str] | tuple[str, ...]) -> None:
    """Refuse an object ``raw`` with a field not in ``allowed`` or without one of ``required``."""
    for problem, names in (("unknown", set(raw) - allowed), ("missing", set(required) - set(raw))):
        if names:
            raise ArchParseError(f"{where}: {problem} field(s): {', '.join(sorted(names))}")


def _arch_from_doc(doc: object) -> ArchSpec:
    """The validated ArchSpec that a decoded architecture document describes."""
    if not isinstance(doc, dict):
        raise ArchParseError("architecture file must be a JSON object at the top level")
    _check_fields("top level", doc, _TOP_LEVEL_FIELDS, _TOP_LEVEL_FIELDS)
    if not isinstance(doc["layers"], list):
        raise ArchParseError("layers: expected an array of layer objects")
    layers: list[LayerSpec] = []
    for i, raw in enumerate(doc["layers"]):
        where = f"layers[{i}]"
        if not isinstance(raw, dict):
            raise ArchParseError(f"{where}: expected a layer object")
        _check_fields(where, raw, _LAYER_FIELDS, _LAYER_SIZES)
        layers.append(LayerSpec(**{"id": f"conv{i}", **raw}))
    return validate_arch(ArchSpec(**{**doc, "layers": tuple(layers)}))


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
        problem = f" at line {exc.lineno} column {exc.colno}: {exc.msg}"
    except ValueError:  # the only other one: int() refuses a literal over its digit limit
        problem = f": an integer has more than {sys.get_int_max_str_digits()} digits"
    except RecursionError:
        problem = ": arrays or objects nested too deeply"
    else:
        return _arch_from_doc(doc)
    raise ArchParseError(f"malformed architecture file{problem}")


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
    indices, which are not represented here.  The stack is built as an
    architecture document and goes through the same checks as a file.
    """
    if resolution not in SUPPORTED_PRESET_RESOLUTIONS:
        raise ArchError(
            f"unsupported preset resolution {resolution}; expected one of "
            f"{', '.join(str(r) for r in SUPPORTED_PRESET_RESOLUTIONS)}"
        )
    base = 4
    # (upsample, output side) of each layer: conv0, then two layers per doubling.
    schedule = [(1, base)] + [(u, base << b) for b in range(1, (resolution // base).bit_length())
                              for u in (2, 1)]
    layers = [
        {"kernel": 3, "upsample": u, "channels_in": _block_width(side // u),
         "channels_out": _block_width(side), "style_label": f"s{i + (i + 1) // 2}"}
        for i, (u, side) in enumerate(schedule)
    ]
    return _arch_from_doc({"name": f"stylegan2-{resolution}", "base_resolution": base, "layers": layers})


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
