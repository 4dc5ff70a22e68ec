import json
import re
import sys

import pytest

from genfields.archgraph import (
    ArchParseError,
    ArchSpec,
    ArchValidationError,
    LayerSpec,
    input_resolution,
    load_arch,
    parse_arch,
    serialize_arch,
    stylegan2_preset,
    validate_arch,
)

from helpers import make_arch, random_arch

MINIMAL = json.dumps(
    {
        "name": "minimal",
        "base_resolution": 4,
        "layers": [
            {"id": "conv0", "kernel": 3, "upsample": 1, "channels_in": 8, "channels_out": 8}
        ],
    }
)


def test_parse_minimal_single_layer():
    arch = parse_arch(MINIMAL)
    assert arch.depth == 1
    assert arch.output_resolution == 4
    assert arch.layers[0].kernel == 3


def test_parse_preset_file_round_trip():
    arch = stylegan2_preset(256)
    assert parse_arch(serialize_arch(arch)) == arch
    assert arch.depth == 13
    assert arch.output_resolution == 256


def test_round_trip_random_archs():
    import numpy as np

    rng = np.random.default_rng(11)
    for _ in range(25):
        arch = random_arch(rng)
        assert parse_arch(serialize_arch(arch)) == arch


def test_channel_mismatch_names_offending_layer():
    doc = {
        "name": "bad",
        "base_resolution": 4,
        "layers": [
            {"id": "conv0", "kernel": 3, "upsample": 1, "channels_in": 512, "channels_out": 512},
            {"id": "conv1", "kernel": 3, "upsample": 2, "channels_in": 256, "channels_out": 256},
        ],
    }
    with pytest.raises(ArchValidationError, match="conv1"):
        parse_arch(json.dumps(doc))


def test_nonpositive_kernel_and_upsample_rejected():
    base = {"id": "conv0", "kernel": 3, "upsample": 1, "channels_in": 4, "channels_out": 4}
    for key, value in (("kernel", 0), ("upsample", 0), ("channels_in", -1)):
        doc = {"name": "x", "base_resolution": 4, "layers": [dict(base, **{key: value})]}
        with pytest.raises(ArchValidationError, match="conv0"):
            parse_arch(json.dumps(doc))


def test_unknown_fields_rejected():
    doc = json.loads(MINIMAL)
    doc["extra"] = 1
    with pytest.raises(ArchParseError, match="extra"):
        parse_arch(json.dumps(doc))
    doc = json.loads(MINIMAL)
    doc["layers"][0]["stride"] = 2
    with pytest.raises(ArchParseError, match="stride"):
        parse_arch(json.dumps(doc))


def test_missing_fields_rejected():
    doc = json.loads(MINIMAL)
    del doc["layers"][0]["kernel"]
    with pytest.raises(ArchParseError, match="kernel"):
        parse_arch(json.dumps(doc))


@pytest.mark.parametrize("text, message", [
    ("[]", "architecture file must be a JSON object at the top level"),
    ('{"name": "x", "base_resolution": 4, "layers": {}}', "layers: expected an array of layer objects"),
    ('{"name": "x", "base_resolution": 4, "layers": [3]}', "layers[0]: expected a layer object"),
    pytest.param('{"name": "x", "base_resolution": ' + "4" * 5000 + ', "layers": []}',
                 "malformed architecture file: an integer has more than "
                 f"{sys.get_int_max_str_digits()} digits", id="long-integer"),
    pytest.param("[" * 100_000, "malformed architecture file: arrays or objects nested too deeply",
                 id="deep-nesting"),
])
def test_non_object_parts_rejected(text, message):
    with pytest.raises(ArchParseError) as info:
        parse_arch(text)
    assert str(info.value) == message


def test_malformed_json_reports_line():
    with pytest.raises(ArchParseError, match="line"):
        parse_arch('{"name": "x",\n  broken')


def test_bool_is_not_an_int():
    doc = json.loads(MINIMAL)
    doc["layers"][0]["kernel"] = True
    with pytest.raises(ArchParseError, match="kernel"):
        parse_arch(json.dumps(doc))


def test_duplicate_layer_ids_rejected():
    from genfields.archgraph import validate_arch

    dup = ArchSpec(
        "dup",
        4,
        (LayerSpec("conv0", 3, 1, 4, 4), LayerSpec("conv0", 3, 1, 4, 4)),
    )
    with pytest.raises(ArchValidationError, match="duplicate"):
        validate_arch(dup)
    doc = {
        "name": "dup",
        "base_resolution": 4,
        "layers": [
            {"id": "conv0", "kernel": 3, "upsample": 1, "channels_in": 4, "channels_out": 4},
            {"id": "conv0", "kernel": 3, "upsample": 1, "channels_in": 4, "channels_out": 4},
        ],
    }
    with pytest.raises(ArchValidationError, match="duplicate"):
        parse_arch(json.dumps(doc))


def test_ids_canonicalized_when_absent():
    doc = {
        "name": "anon",
        "base_resolution": 4,
        "layers": [
            {"kernel": 3, "upsample": 1, "channels_in": 4, "channels_out": 4},
            {"kernel": 3, "upsample": 2, "channels_in": 4, "channels_out": 4},
        ],
    }
    arch = parse_arch(json.dumps(doc))
    assert [l.id for l in arch.layers] == ["conv0", "conv1"]


def test_empty_layer_list_rejected():
    doc = {"name": "empty", "base_resolution": 4, "layers": []}
    with pytest.raises(ArchValidationError, match="no layers"):
        parse_arch(json.dumps(doc))


def test_preset_channels_match_published_column():
    arch = stylegan2_preset(256)
    assert arch.layers[8].channels_in == 256  # conv8
    assert arch.layers[12].channels_in == 64  # conv12
    assert sum(l.channels_in for l in arch.layers) == 4928


def test_preset_style_labels_and_upsample():
    arch = stylegan2_preset(256)
    conv1 = arch.layers[1]
    assert conv1.style_label == "s2"
    assert conv1.upsample == 2
    assert arch.layers[0].style_label == "s0"
    assert arch.layers[12].style_label == "s18"


def test_preset_8_has_three_layers():
    arch = stylegan2_preset(8)
    assert arch.depth == 3
    assert [l.id for l in arch.layers] == ["conv0", "conv1", "conv2"]
    assert arch.output_resolution == 8


def test_preset_64_has_nine_layers():
    assert stylegan2_preset(64).depth == 9


def test_unsupported_preset_resolution():
    with pytest.raises(Exception, match="unsupported"):
        stylegan2_preset(100)
    with pytest.raises(Exception, match="unsupported"):
        stylegan2_preset(4)


@pytest.mark.parametrize("resolution", [8, 16, 32, 64, 128, 256, 512, 1024])
def test_every_preset_matches_an_independent_table(resolution):
    # conv0 at the 4x4 base, then per doubling an upsampling and a stride-1 layer;
    # each layer's width is min(512, 16384 // its output side); the labels skip
    # s1, s4, s7, ..., the indices of the RGB convolutions.
    sides = [4]
    while sides[-1] < resolution:
        sides += [sides[-1] * 2] * 2
    blocks = len(sides) // 2
    ups = [1] + [2, 1] * blocks
    widths = [min(512, 16384 // side) for side in sides]
    labels = [f"s{n}" for n in range(3 * blocks + 1) if n % 3 != 1]
    expected = [(f"conv{i}", 3, ups[i], widths[max(i - 1, 0)], widths[i], labels[i])
                for i in range(len(sides))]
    arch = stylegan2_preset(resolution)
    assert (arch.name, arch.base_resolution) == (f"stylegan2-{resolution}", 4)
    assert [(l.id, l.kernel, l.upsample, l.channels_in, l.channels_out, l.style_label)
            for l in arch.layers] == expected
    assert arch.output_resolution == resolution
    assert parse_arch(serialize_arch(arch)) == arch


def test_input_resolution_values():
    preset = stylegan2_preset(256)
    assert input_resolution(preset, 0) == 4
    assert input_resolution(preset, 12) == 256
    single = make_arch("one", [3], [1], base=17)
    assert input_resolution(single, 0) == 17


def test_input_resolution_non_decreasing():
    preset = stylegan2_preset(1024)
    values = [input_resolution(preset, L) for L in range(preset.depth)]
    assert values == sorted(values)


def test_input_resolution_out_of_range():
    preset = stylegan2_preset(8)
    with pytest.raises(Exception, match="out of range"):
        input_resolution(preset, 3)
    with pytest.raises(Exception, match="out of range"):
        input_resolution(preset, -1)


def test_load_arch_reports_path(tmp_path):
    target = tmp_path / "broken.arch"
    target.write_text("{nope")
    with pytest.raises(ArchParseError, match="broken.arch"):
        load_arch(str(target))
    with pytest.raises(ArchParseError, match="missing.arch"):
        load_arch(str(tmp_path / "missing.arch"))


# ------------------------------------------------------------ invariants ---

@pytest.mark.parametrize("layer, message", [
    (LayerSpec("conv0", float("nan"), 2, 4, 4), "conv0: kernel must be an integer"),
    (LayerSpec("conv0", 3.0, 2, 4, 4), "conv0: kernel must be an integer"),
    (LayerSpec("conv0", 3, 2.5, 4, 4), "conv0: upsample must be an integer"),
    (LayerSpec("conv0", 3, True, 4, 4), "conv0: upsample must be an integer"),
    (LayerSpec("conv0", 3, 2, float("inf"), 4), "conv0: channels_in must be an integer"),
    (LayerSpec("conv0", 3, 2, 4, 4.0), "conv0: channels_out must be an integer"),
    (LayerSpec(5, 3, 1, 4, 4), "layer 0 id must be a string, got 5"),
    (LayerSpec("conv0", 3, 1, 4, 4, 7), "conv0: style_label must be a string, got 7"),
    (ArchSpec(None, 4, (LayerSpec("conv0", 3, 1, 4, 4),)),
     "architecture name must be a string, got None"),
    (ArchSpec("x", 0, (LayerSpec("conv0", 3, 1, 4, 4),)),
     "architecture 'x': base_resolution must be positive, got 0"),
])
def test_non_integer_layer_sizes_rejected(layer, message):
    from genfields.archgraph import validate_arch

    arch = layer if isinstance(layer, ArchSpec) else ArchSpec("x", 4, (layer,))
    with pytest.raises(ArchValidationError, match=message):
        validate_arch(arch)


@pytest.mark.parametrize("base", [4.5, 4.0, float("nan"), True])
def test_non_integer_base_resolution_rejected(base):
    from genfields.archgraph import validate_arch

    with pytest.raises(ArchValidationError, match="base_resolution must be an integer"):
        validate_arch(ArchSpec("x", base, (LayerSpec("conv0", 3, 2, 4, 4),)))


@pytest.mark.parametrize("layer_id, label, message", [
    ("c,0", None, "layer 0 id 'c,0'"),
    ("c\n0", None, "layer 0 id 'c\\n0'"),
    ("c\x7f0", None, "layer 0 id"),
    ("conv0", "s,1", "conv0: style_label 's,1'"),
    ("conv0", "s\n1", "conv0: style_label 's\\n1'"),
    ("conv0", "s\t1", "conv0: style_label"),
    ("c\ud800", None, "layer 0 id 'c\\ud800' contains a lone surrogate"),
    ("conv0", "s\udfff", "conv0: style_label 's\\udfff' contains a lone surrogate"),
    ("", None, "layer 0 has an empty id"),
])
def test_report_breaking_ids_and_labels_rejected(layer_id, label, message):
    doc = json.loads(MINIMAL)
    doc["layers"][0]["id"] = layer_id
    if label is not None:
        doc["layers"][0]["style_label"] = label
    with pytest.raises(ArchValidationError, match=re.escape(message)):
        parse_arch(json.dumps(doc))


def test_control_character_in_name_rejected():
    doc = json.loads(MINIMAL)
    doc["name"] = "min\rimal"
    with pytest.raises(ArchValidationError, match="control character"):
        parse_arch(json.dumps(doc))
    doc["name"] = "min\ud800imal"  # a lone surrogate has no UTF-8 form, so no report can hold it
    with pytest.raises(ArchValidationError, match="name 'min.ud800imal' contains a lone surrogate"):
        parse_arch(json.dumps(doc))
    doc["name"] = "min, imal"  # a comma in the name breaks no report
    assert parse_arch(json.dumps(doc)).name == "min, imal"


# ------------------------------------------------------------ properties ---

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# Names may hold commas; ids and labels may not, and none may hold a control character.
_names = st.text(st.characters(blacklist_categories=("Cc", "Cs")), max_size=8)
_cells = st.text(st.characters(blacklist_categories=("Cc", "Cs"), blacklist_characters=","),
                 min_size=1, max_size=6)


@st.composite
def valid_archs(draw):
    depth = draw(st.integers(1, 6))
    channels = draw(st.lists(st.integers(1, 512), min_size=depth + 1, max_size=depth + 1))
    ids = draw(st.one_of(st.just([f"conv{i}" for i in range(depth)]),
                         st.lists(_cells, min_size=depth, max_size=depth, unique=True)))
    layers = tuple(
        LayerSpec(ids[i], draw(st.integers(1, 7)), draw(st.integers(1, 4)),
                  channels[i], channels[i + 1], draw(st.none() | _cells))
        for i in range(depth)
    )
    return ArchSpec(draw(_names), draw(st.integers(1, 64)), layers)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(valid_archs())
def test_serialize_parse_round_trip(arch):
    text = serialize_arch(arch)
    assert parse_arch(text) == arch
    if [layer.id for layer in arch.layers] == [f"conv{i}" for i in range(arch.depth)]:
        doc = json.loads(text)
        for layer in doc["layers"]:
            del layer["id"]
        assert parse_arch(json.dumps(doc)) == arch


_not_int = st.one_of(st.floats(), st.text(max_size=3), st.booleans(), st.none(),
                     st.lists(st.integers(), max_size=2))
_not_str = st.one_of(st.integers(), st.floats(), st.booleans(), st.lists(st.text(), max_size=2))
_WRONG_TYPES = {"kernel": _not_int, "upsample": _not_int, "channels_in": _not_int,
                "channels_out": _not_int, "id": _not_str | st.none(), "style_label": _not_str}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(valid_archs(), st.data())
def test_wrong_field_type_is_a_parse_and_a_validation_error(arch, data):
    doc = json.loads(serialize_arch(arch))
    i = data.draw(st.integers(0, arch.depth - 1))
    field = data.draw(st.sampled_from(sorted(_WRONG_TYPES)))
    doc["layers"][i][field] = data.draw(_WRONG_TYPES[field])
    with pytest.raises(ArchParseError) as info:
        parse_arch(json.dumps(doc))
    assert isinstance(info.value, ArchValidationError)
    named = f"layer {i} id " if field == "id" else f"{arch.layers[i].id}: {field} "
    assert str(info.value).startswith(named)


@pytest.mark.parametrize("field, value, message", [
    ("name", 5, "architecture name must be a string, got 5"),
    ("base_resolution", 4.0, "architecture 'minimal': base_resolution must be an integer, got 4.0"),
])
def test_wrong_top_level_type_is_a_parse_and_a_validation_error(field, value, message):
    doc = json.loads(MINIMAL)
    doc[field] = value
    with pytest.raises(ArchParseError) as info:
        parse_arch(json.dumps(doc))
    assert isinstance(info.value, ArchValidationError)
    assert str(info.value) == message


# ------------------------------------------------------------ size limits ---

LIMIT = 2**63


def _sized(base=4, **sizes):
    """A two-layer architecture document, with ``sizes`` replacing fields of conv0 or conv1."""
    layers = [{"kernel": 3, "upsample": 1, "channels_in": 4, "channels_out": 4} for _ in range(2)]
    for key, value in sizes.items():
        field, i = key.rsplit("_", 1)
        layers[int(i)][field] = value
    return {"name": "x", "base_resolution": base, "layers": layers}


@pytest.mark.parametrize("doc, message", [
    (_sized(kernel_0=10**3000, upsample_0=10**3000, kernel_1=10**3000, upsample_1=10**3000),
     f"conv0: kernel must be at most {LIMIT}"),
    (_sized(upsample_1=LIMIT + 1), f"conv1: upsample must be at most {LIMIT}"),
    (_sized(channels_out_0=LIMIT + 1, channels_in_1=LIMIT + 1),
     f"conv0: channels_out must be at most {LIMIT}"),
    (_sized(base=LIMIT + 1), f"architecture 'x': base_resolution must be at most {LIMIT}"),
    (_sized(base=2, upsample_0=2**61, upsample_1=4), f"conv1: output side must be at most {LIMIT}"),
    (_sized(kernel_0=0), "conv0: kernel must be positive, got 0"),
    (_sized(channels_in_0=-1), "conv0: channels_in must be positive, got -1"),
], ids=["kernel", "upsample", "channels", "base", "output-side", "zero", "negative"])
def test_sizes_and_output_side_are_bounded(doc, message):
    with pytest.raises(ArchValidationError) as info:
        parse_arch(json.dumps(doc))
    assert str(info.value) == message


def test_size_bound_admits_its_edge_and_names_no_oversized_value():
    edge = _sized(base=2, upsample_0=2**61, upsample_1=2, kernel_0=LIMIT, kernel_1=LIMIT,
                  channels_in_0=LIMIT, channels_out_0=LIMIT, channels_in_1=LIMIT, channels_out_1=LIMIT)
    assert parse_arch(json.dumps(edge)).output_resolution == LIMIT
    # A value no str() can print, built in code, is refused without printing it.
    huge = ArchSpec("x", 4, (LayerSpec("conv0", 10**5000, 1, 4, 4),))
    with pytest.raises(ArchValidationError, match=f"^conv0: kernel must be at most {LIMIT}$"):
        validate_arch(huge)
