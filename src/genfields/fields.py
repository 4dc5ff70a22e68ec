"""Analytic generative-field sizes for generator stacks.

The generative field of a layer input is the side length of the output-image
region that one position of that input can influence -- the inverted analogue
of a CNN receptive field.  For a stack of N layers with kernels ``k`` and
upsample factors ``s`` (1-based), the field seen from the input of layer
``L+1`` is

    g0(L) = sum_{l=1}^{N-L} (k_{N-l+1} - 1) * prod_{i=N-l+1}^{N} s_i  +  1

All arithmetic is exact integer arithmetic; values are structural quantities
and are deliberately not clipped to the output resolution (they can exceed
it).  Fields are side lengths of square regions, so a single scalar per layer
is stored.
"""

from __future__ import annotations

from ._record import record
from .archgraph import ArchSpec, _check_layer, _layer_index, map_sides
from .fileio import csv_text

__all__ = [
    "FieldRecord",
    "FieldTable",
    "generative_field",
    "fields_table",
    "table_csv",
]

# Widely cited reference values for the stylegan2-256 stack.  conv0 is listed
# as 506 in the published table while the formula above yields 507; the other
# twelve rows agree exactly.  Tables for that preset carry a note whenever the
# computed column diverges from these values, so neither number is silently
# presented as the only truth.
REFERENCE_FIELDS: dict[str, dict[str, int]] = {
    "stylegan2-256": {
        "conv0": 506,
        "conv1": 379,
        "conv2": 251,
        "conv3": 187,
        "conv4": 123,
        "conv5": 91,
        "conv6": 59,
        "conv7": 43,
        "conv8": 27,
        "conv9": 19,
        "conv10": 11,
        "conv11": 7,
        "conv12": 3,
    }
}


@record
class FieldRecord:
    """Per-layer generative field joined with layer metadata."""

    layer_id: str
    style_label: str | None
    input_resolution: int
    generative_field: int
    channels_in: int


@record
class FieldTable:
    """One FieldRecord per layer, in layer order, plus discrepancy notes."""

    arch_name: str
    records: tuple[FieldRecord, ...]
    notes: tuple[str, ...] = ()

    def record(self, layer_id: str) -> FieldRecord:
        ids = [rec.layer_id for rec in self.records]
        return self.records[_layer_index(ids, layer_id, self.arch_name)]


def generative_field(arch: ArchSpec, layer: int) -> int:
    """Generative field (pixels, side length) of the input of layer ``layer``.

    Exact integer evaluation of the formula in the module docstring; never
    clipped to the output resolution.
    """
    layer = _check_layer(arch, layer)
    total = 1
    suffix_stride = 1
    # Walk the stack backwards; suffix_stride accumulates prod s_i from the
    # output end up to and including the current layer.
    for spec in reversed(arch.layers[layer:]):
        suffix_stride *= spec.upsample
        total += (spec.kernel - 1) * suffix_stride
    return total


def fields_table(arch: ArchSpec) -> FieldTable:
    """Compute the full per-layer field table for an architecture."""
    sides = map_sides(arch)
    records = tuple(
        FieldRecord(
            layer_id=spec.id,
            style_label=spec.style_label,
            input_resolution=sides[i],
            generative_field=generative_field(arch, i),
            channels_in=spec.channels_in,
        )
        for i, spec in enumerate(arch.layers)
    )
    notes = []
    reference = REFERENCE_FIELDS.get(arch.name, {})
    for rec in records:
        published = reference.get(rec.layer_id)
        if published is not None and published != rec.generative_field:
            notes.append(
                f"{rec.layer_id}: computed generative field {rec.generative_field} differs "
                f"from the widely cited reference value {published} for this layer"
            )
    return FieldTable(arch_name=arch.name, records=records, notes=tuple(notes))


CSV_COLUMNS = ("layer_id", "style_label", "input_resolution", "generative_field", "channels_in")


def table_csv(table: FieldTable) -> str:
    """Render a FieldTable as CSV with the canonical column set."""
    return csv_text([CSV_COLUMNS, *map(table_row, table.records)])


def table_row(rec: FieldRecord) -> tuple:
    """One record's cells in ``CSV_COLUMNS`` order (no style label renders as '')."""
    return (rec.layer_id, rec.style_label or "", rec.input_resolution,
            rec.generative_field, rec.channels_in)
