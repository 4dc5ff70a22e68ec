import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genfields.archgraph import (
    ArchSpec,
    ArchValidationError,
    LayerSpec,
    serialize_arch,
    stylegan2_preset,
)
from genfields.cli import _layer_range, main
from genfields.fields import FieldRecord, FieldTable, fields_table, generative_field
from genfields.stylespace import (
    apply_control,
    face_scale,
    mask_rle,
    plan_by_gf,
    plan_by_layers,
    style_layout,
)

from helpers import make_arch, random_arch


@pytest.fixture(scope="module")
def preset256():
    arch = stylegan2_preset(256)
    return arch, fields_table(arch), style_layout(arch)


def test_layout_total_dims(preset256):
    _, _, layout = preset256
    assert layout.total_dims == 4928


def test_layout_ranges(preset256):
    _, _, layout = preset256
    assert layout.dims_of_layer("conv0") == range(0, 512)
    assert layout.dims_of_layer("conv12") == range(4864, 4928)


def test_layout_partition_and_round_trip(preset256):
    _, _, layout = preset256
    stops = [r.stop for r in layout.ranges]
    starts = [r.start for r in layout.ranges]
    assert starts[0] == 0
    assert stops[-1] == 4928
    assert starts[1:] == stops[:-1]  # contiguous, disjoint, ordered
    for d in range(4928):
        layer = layout.layer_of_dim(d)
        assert d in layout.dims_of_layer(layer)


def test_layer_of_dim_spot_values(preset256):
    _, _, layout = preset256
    assert layout.layer_of_dim(0) == "conv0"
    assert layout.layer_of_dim(4927) == "conv12"
    assert layout.layer_of_dim(4096) == "conv8"


def test_layer_of_dim_out_of_range(preset256):
    _, _, layout = preset256
    with pytest.raises(Exception, match="out of range"):
        layout.layer_of_dim(4928)
    with pytest.raises(Exception, match="out of range"):
        layout.layer_of_dim(-1)


def test_single_layer_layout():
    arch = make_arch("one", [3], [1], channels=8)
    layout = style_layout(arch)
    assert layout.total_dims == 8
    assert layout.dims_of_layer("conv0") == range(0, 8)


def test_apply_control_identity():
    s = np.array([0.5, -1.0, 2.0])
    out = apply_control(s, np.zeros(3))
    np.testing.assert_array_equal(out, s)


def test_apply_control_full_mask_is_addition():
    rng = np.random.default_rng(3)
    s = rng.normal(size=16)
    d = rng.normal(size=16)
    np.testing.assert_array_equal(apply_control(s, d), s + d)


def test_apply_control_empty_plan_bitwise_identity():
    arch = make_arch("two", [3, 3], [1, 1], channels=2)
    table, layout = fields_table(arch), style_layout(arch)
    plan = plan_by_layers(table, layout, "conv0", "conv0")
    empty = plan.__class__(
        enabled_layers=(), gf_range=plan.gf_range, dims=range(0), total_dims=plan.total_dims
    )
    s = np.array([-0.0, 1.25, 3.7, -2.5])
    out = apply_control(s, np.array([9.0, 9.0, 9.0, 9.0]), empty)
    assert out.tobytes() == s.tobytes()


def test_apply_control_masked_example():
    arch = make_arch("two", [3, 3], [1, 1], channels=1)
    table, layout = fields_table(arch), style_layout(arch)
    plan = plan_by_layers(table, layout, "conv0", "conv0")
    out = apply_control(np.array([1.0, 1.0]), np.array([0.5, -1.0]), plan)
    np.testing.assert_array_equal(out, [1.5, 1.0])


def test_apply_control_length_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        apply_control(np.zeros(3), np.zeros(4))
    arch = make_arch("two", [3, 3], [1, 1], channels=1)
    plan = plan_by_layers(fields_table(arch), style_layout(arch), "conv0", "conv0")
    with pytest.raises(ValueError, match="^length mismatch: plan mask 2 vs vectors 3$"):
        apply_control(np.zeros(3), np.zeros(3), plan)


@pytest.mark.parametrize("s_id, delta, named", [
    ([1.0, 2.0], [np.nan, 0.5], "control signal"),  # dim 0: enabled by the plan
    ([1.0, 2.0], [0.5, np.nan], "control signal"),  # dim 1: masked out by the plan
    ([1.0, np.inf], [0.5, 0.5], "style vector"),
])
def test_apply_control_rejects_non_finite_values(s_id, delta, named):
    arch = make_arch("two", [3, 3], [1, 1], channels=1)
    plan = plan_by_layers(fields_table(arch), style_layout(arch), "conv0", "conv0")
    for p in (None, plan):
        with pytest.raises(ValueError, match=f"^{named} values must be finite$"):
            apply_control(s_id, delta, p)


def test_mask_idempotent():
    arch = stylegan2_preset(8)
    table, layout = fields_table(arch), style_layout(arch)
    plan = plan_by_layers(table, layout, "conv1", "conv2")
    rng = np.random.default_rng(8)
    delta = rng.normal(size=layout.total_dims)
    once = apply_control(np.zeros(layout.total_dims), delta, plan)
    twice = apply_control(np.zeros(layout.total_dims), once, plan)
    np.testing.assert_array_equal(once, twice)


def test_plan_by_gf_published_configurations(preset256):
    _, table, layout = preset256
    plan = plan_by_gf(table, layout, 43, 506)
    assert plan.enabled_layers == tuple(f"conv{i}" for i in range(8))
    assert plan.gf_range == (43, 507)

    plan = plan_by_gf(table, layout, 7, 59)
    assert plan.enabled_layers == tuple(f"conv{i}" for i in range(6, 12))
    assert plan.gf_range == (7, 59)

    plan = plan_by_gf(table, layout, 59, 187)
    assert plan.enabled_layers == tuple(f"conv{i}" for i in range(3, 7))
    assert plan.gf_range == (59, 187)


def test_plan_by_gf_empty_selection(preset256):
    _, table, layout = preset256
    with pytest.raises(ValueError, match="no layer in GF range"):
        plan_by_gf(table, layout, 600, 700)


def test_plan_by_gf_bad_bounds(preset256):
    _, table, layout = preset256
    with pytest.raises(ValueError, match="exceeds"):
        plan_by_gf(table, layout, 100, 50)


def test_plan_by_gf_contiguous_on_random_archs():
    rng = np.random.default_rng(17)
    for _ in range(40):
        arch = random_arch(rng)
        table, layout = fields_table(arch), style_layout(arch)
        ids = [r.layer_id for r in table.records]
        lo = int(rng.integers(1, 40))
        hi = lo + int(rng.integers(0, 600))
        try:
            plan = plan_by_gf(table, layout, lo, hi)
        except ValueError:
            continue
        positions = [ids.index(l) for l in plan.enabled_layers]
        assert positions == list(range(positions[0], positions[-1] + 1))


def test_plan_by_layers_ranges(preset256):
    _, table, layout = preset256
    assert plan_by_layers(table, layout, "conv0", "conv2").gf_range == (251, 507)
    assert plan_by_layers(table, layout, "conv0", "conv4").gf_range == (123, 507)
    assert plan_by_layers(table, layout, "conv12", "conv12").gf_range == (3, 3)


def test_plan_by_layers_errors(preset256):
    _, table, layout = preset256
    with pytest.raises(Exception, match="conv99"):
        plan_by_layers(table, layout, "conv0", "conv99")
    with pytest.raises(ValueError, match=r"layer range 'conv5\.\.conv2' is reversed"):
        plan_by_layers(table, layout, "conv5", "conv2")


def test_planners_refuse_a_table_and_a_layout_of_different_layers(preset256):
    _, table, _ = preset256
    layout64 = style_layout(stylegan2_preset(64))
    message = "field table of 'stylegan2-256' and style layout of 'stylegan2-64' list different layers"
    for build in (lambda: plan_by_layers(table, layout64, "conv0", "conv2"),
                  lambda: plan_by_layers(table, layout64, "conv0", "conv10"),
                  lambda: plan_by_gf(table, layout64, 7, 59)):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message


def test_plan_by_gf_enables_the_run_between_the_passing_layers():
    # A hand-built table whose fields rise again along the stack: conv0 and
    # conv2 pass the band test, conv1 does not, and the plan spans all three.
    arch = stylegan2_preset(8)
    table, layout = fields_table(arch), style_layout(arch)
    records = tuple(FieldRecord(rec.layer_id, rec.style_label, rec.input_resolution, gf,
                                rec.channels_in) for rec, gf in zip(table.records, (10, 3, 10)))
    plan = plan_by_gf(FieldTable(arch.name, records), layout, 5, 20)
    assert plan.enabled_layers == ("conv0", "conv1", "conv2")
    covered = [r for r in layout.ranges if plan.mask[r.start : r.stop].all()]
    assert plan.enabled_layers == tuple(r.layer_id for r in covered)
    assert plan.enabled_dims == sum(r.channel_count for r in covered) == layout.total_dims
    assert plan.gf_range == (10, 10)


def test_layer_lookups_share_one_message(preset256):
    arch, table, layout = preset256
    lookups = [arch.layer_index, table.record, layout.dims_of_layer,
               lambda layer_id: plan_by_layers(table, layout, "conv0", layer_id),
               lambda layer_id: _layer_range(arch, f"conv0..{layer_id}")]
    for lookup in lookups:
        with pytest.raises(ArchValidationError) as info:
            lookup("conv99")
        assert str(info.value) == "unknown layer id 'conv99' in architecture 'stylegan2-256'"


def test_range_resolvers_share_one_message(preset256):
    arch, table, layout = preset256
    for resolve in (lambda: _layer_range(arch, "conv5..conv2"),
                    lambda: plan_by_layers(table, layout, "conv5", "conv2")):
        with pytest.raises(ArchValidationError) as info:
            resolve()
        assert str(info.value) == "layer range 'conv5..conv2' is reversed"


def test_plan_mask_matches_enabled_ranges(preset256):
    arch, table, layout = preset256
    plan = plan_by_gf(table, layout, 7, 59)
    expected = np.zeros(4928, dtype=bool)
    for layer_id in plan.enabled_layers:
        dims = layout.dims_of_layer(layer_id)
        expected[dims.start : dims.stop] = True
    np.testing.assert_array_equal(plan.mask, expected)
    assert plan.enabled_dims == int(expected.sum())
    # gf_range is (field of last enabled, field of first enabled)
    first = arch.layer_index(plan.enabled_layers[0])
    last = arch.layer_index(plan.enabled_layers[-1])
    assert plan.gf_range == (generative_field(arch, last), generative_field(arch, first))


STACKS = st.integers(1, 6).flatmap(lambda depth: st.tuples(
    st.lists(st.sampled_from([1, 3, 5, 7]), min_size=depth, max_size=depth),
    st.lists(st.sampled_from([1, 2]), min_size=depth, max_size=depth),
    st.lists(st.integers(1, 9), min_size=depth + 1, max_size=depth + 1),
))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(STACKS, st.tuples(st.integers(0, 5), st.integers(0, 5)),
       st.tuples(st.integers(1, 400), st.integers(1, 400)))
def test_plan_span_matches_the_mask_property(stack, layers, fields):
    kernels, ups, channels = stack
    arch = ArchSpec("rand", 4, tuple(LayerSpec(f"conv{i}", k, u, channels[i], channels[i + 1])
                                     for i, (k, u) in enumerate(zip(kernels, ups))))
    table, layout = fields_table(arch), style_layout(arch)
    first, last = sorted(min(i, arch.depth - 1) for i in layers)
    lo, hi = sorted(fields)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "rand.arch")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_arch(arch))
        for argv, build in [
            (["--layers", f"conv{first}..conv{last}"],
             lambda: plan_by_layers(table, layout, f"conv{first}", f"conv{last}")),
            (["--min-gf", str(lo), "--max-gf", str(hi)], lambda: plan_by_gf(table, layout, lo, hi)),
        ]:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(["plan", "--arch", path, *argv, "--format", "json"])
            try:
                plan = build()
            except ValueError:  # no layer in the field range
                assert code == 1
                continue
            expected = np.zeros(layout.total_dims, dtype=bool)  # the mask as it was once built
            for layer_id in plan.enabled_layers:
                dims = layout.dims_of_layer(layer_id)
                expected[dims.start : dims.stop] = True
            assert plan.mask.dtype == bool
            np.testing.assert_array_equal(plan.mask, expected)
            assert plan.enabled_dims == np.count_nonzero(plan.mask)
            doc = json.loads(out.getvalue())
            assert (code, doc["mask_rle"]) == (0, [list(run) for run in mask_rle(plan.mask)])
            assert doc["enabled_dims"] == plan.enabled_dims


def test_face_scale_examples():
    one = np.zeros((17, 2))
    one[0] = (50, 100)
    one[16] = (150, 100)
    assert face_scale([one]) == 100.0

    two = np.zeros((17, 2))
    two[0] = (0, 0)
    two[16] = (120, 160)  # 3-4-5 scaled: distance 200
    assert face_scale([one, two]) == 150.0


def test_face_scale_ignores_z():
    lm = np.zeros((68, 3))
    lm[0] = (0, 0, 55.0)
    lm[16] = (30, 40, -99.0)
    assert face_scale([lm]) == 50.0


def test_face_scale_errors():
    with pytest.raises(ValueError, match="at least one"):
        face_scale([])
    with pytest.raises(ValueError, match="17"):
        face_scale([np.zeros((10, 2))])


def test_mask_rle_round_trip():
    assert mask_rle(np.zeros(0, dtype=bool)) == []
    rng = np.random.default_rng(12)
    for _ in range(20):
        mask = rng.random(size=int(rng.integers(1, 200))) < 0.3
        runs = mask_rle(mask)
        expanded = np.concatenate([np.full(run, bool(v)) for v, run in runs])
        np.testing.assert_array_equal(expanded, mask)
        # adjacent runs alternate
        values = [v for v, _ in runs]
        assert all(a != b for a, b in zip(values, values[1:]))
