import contextlib
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genfields.archgraph import LayerSpec, input_resolution, stylegan2_preset
from genfields.fields import generative_field
from genfields.oracle import (
    Semantics,
    boolean_footprint,
    numeric_footprint,
    verification_csv,
    verify_arch,
)
from genfields.sparsity import histogram_counts, mean_histogram, topk_set
from genfields.stylespace import style_layout

from helpers import make_arch, random_arch

TOY = make_arch("toy", [3, 3], [2, 1])


def safe_sim_base(arch):
    """Large enough that a centered impulse cannot reach a border."""
    return 2 * generative_field(arch, 0) + 8


def test_single_layer_footprint():
    arch = make_arch("one", [3], [1])
    res = boolean_footprint(arch, 0, sim_base=16)
    assert (res.footprint, res.analytic, res.clipped) == (3, 3, False)
    assert res.match_class == "exact"
    num = numeric_footprint(arch, 0, sim_base=16, seed=3)
    assert num.footprint == 3


def test_toy_zero_insert_gap():
    # hand propagation: impulse -> 3 positions after the transposed layer
    # ([2p, 2p+2]) -> 5 after the stride-1 conv; the formula gives 7.
    res = boolean_footprint(TOY, 0, Semantics.ZERO_INSERT, sim_base=16)
    assert res.footprint == 5
    assert res.analytic == 7
    assert not res.clipped
    assert numeric_footprint(TOY, 0, Semantics.ZERO_INSERT, sim_base=16).footprint == 5


def test_toy_nearest_semantics():
    # hand propagation: p maps to [2p, 2p+1], the conv pads one each side -> 6.
    res = boolean_footprint(TOY, 0, Semantics.NEAREST, sim_base=16)
    assert res.footprint == 6
    assert numeric_footprint(TOY, 0, Semantics.NEAREST, sim_base=16).footprint == 6


def test_preset256_golden_footprint():
    # Golden value recorded from the boolean propagation at sim_base=16
    # (output length 1024): 381 for the conv0 input, comfortably below 507.
    arch = stylegan2_preset(256)
    res = boolean_footprint(arch, 0, sim_base=16)
    assert res.footprint == 381
    assert res.analytic == 507
    assert not res.clipped
    assert res.footprint <= res.analytic


def test_stride1_stack_exact():
    arch = make_arch("s1", [3, 3, 3, 3], [1, 1, 1, 1])
    results = verify_arch(arch, sim_base=32)
    assert [r.footprint for r in results] == [9, 7, 5, 3]
    assert [r.analytic for r in results] == [9, 7, 5, 3]
    assert all(r.match_class == "exact" for r in results)


def test_soundness_bound_random_archs():
    rng = np.random.default_rng(2024)
    for i in range(60):
        arch = random_arch(rng, name=f"rand{i}")
        for res in verify_arch(arch, Semantics.ZERO_INSERT, sim_base=safe_sim_base(arch)):
            assert not res.clipped
            assert res.footprint <= res.analytic, (arch, res)


def test_numeric_equals_boolean_both_semantics():
    rng = np.random.default_rng(555)
    for i in range(30):
        arch = random_arch(rng, max_depth=4, name=f"agree{i}")
        sim = safe_sim_base(arch)
        seed = int(rng.integers(0, 2**31))
        for sem in Semantics:
            for L in range(arch.depth):
                b = boolean_footprint(arch, L, sem, sim)
                n = numeric_footprint(arch, L, sem, sim, seed=seed)
                assert n.footprint == b.footprint, (arch, sem, L)


def test_determinism_and_weight_independence():
    res1 = numeric_footprint(TOY, 0, sim_base=16, seed=42)
    res2 = numeric_footprint(TOY, 0, sim_base=16, seed=42)
    assert res1 == res2
    # different weights, same adjacency: footprint unchanged
    res3 = numeric_footprint(TOY, 0, sim_base=16, seed=43)
    assert res3.footprint == res1.footprint


def test_clipping_flagged_on_small_simulation():
    arch = make_arch("wide", [7, 7, 7], [1, 1, 1])
    res = boolean_footprint(arch, 0, sim_base=3)
    assert res.clipped
    assert res.footprint == 3  # whole simulated map
    assert res.footprint < res.analytic  # 19


def test_sim_base_too_small():
    with pytest.raises(ValueError, match="sim_base"):
        boolean_footprint(TOY, 0, sim_base=2)


def test_zero_magnitude_rejected():
    with pytest.raises(ValueError, match="magnitude"):
        numeric_footprint(TOY, 0, sim_base=16, magnitude=0.0)


@pytest.mark.parametrize("name, value", [
    ("magnitude", value) for value in (math.nan, math.inf, -math.inf)
])
def test_non_finite_magnitude_or_threshold_named(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
        numeric_footprint(TOY, 0, sim_base=16, **{name: value})


def test_threshold_keyword_is_gone():
    # A position is affected where its response is nonzero; there is nothing to tune.
    with pytest.raises(TypeError, match="threshold"):
        numeric_footprint(TOY, 0, sim_base=16, threshold=0.0)


@pytest.mark.parametrize("magnitude", [1e308, -1e308])
def test_overflowing_impulse_gives_boolean_footprint(monkeypatch, magnitude):
    outputs = []
    stage = oracle._stage
    monkeypatch.setattr(oracle, "_stage", lambda *args: outputs.append(stage(*args)) or outputs[-1])
    arch = stylegan2_preset(64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sem in Semantics:
            for dims in (1, 2):
                for layer in range(arch.depth):
                    num = numeric_footprint(arch, layer, sem, 8, dims=dims, magnitude=magnitude)
                    assert num == boolean_footprint(arch, layer, sem, 8, dims), (sem, dims, layer)
    # the response did overflow, to an infinity of the impulse's sign and never to NaN
    outputs = [np.asarray(out) for out in outputs]
    assert any((np.copysign(1.0, magnitude) * out == math.inf).any() for out in outputs)
    assert not any(np.isnan(out).any() for out in outputs)


@pytest.mark.parametrize("semantics, seed", [
    (Semantics.ZERO_INSERT, 3), (Semantics.ZERO_INSERT, 52), (Semantics.ZERO_INSERT, 475),
    (Semantics.NEAREST, 37), (Semantics.NEAREST, 353), (Semantics.NEAREST, 642),
])
def test_deep_stack_edges_reach_the_numeric_footprint(semantics, seed):
    # A baseline-and-perturbed pass lost these edge positions: their difference
    # fell below the rounding of the baseline values around them.
    arch = stylegan2_preset(1024)
    for layer in range(3):
        expected = boolean_footprint(arch, layer, semantics, 1024)
        assert numeric_footprint(arch, layer, semantics, 1024, seed=seed) == expected, layer


def test_underflowing_impulse_refused_by_layer():
    # 5e-324 times any weight rounds to 0, which would cut the footprint short.
    arch = stylegan2_preset(1024)
    with pytest.raises(ValueError, match=r"^layer conv0: impulse magnitude 5e-324 may underflow to 0$"):
        numeric_footprint(arch, 0, sim_base=1024, magnitude=5e-324)
    with pytest.raises(ValueError, match=r"^layer conv11: impulse magnitude -1e-300 may underflow"):
        numeric_footprint(arch, 0, sim_base=1024, magnitude=-1e-300)
    expected = boolean_footprint(arch, 0, sim_base=1024)
    assert numeric_footprint(arch, 0, sim_base=1024, magnitude=-1e-280) == expected


def test_seed_is_any_non_negative_integer():
    expected = numeric_footprint(TOY, 0, sim_base=16, seed=7)
    for seed in (np.int64(7), np.uint8(7), 2**64 + 7, 2**200):
        assert numeric_footprint(TOY, 0, sim_base=16, seed=seed) == expected
    for seed, message in ((-1, "seed must be non-negative, got -1"),
                          (None, "seed must be a non-negative integer, got None")):
        with pytest.raises(ValueError, match=message):
            numeric_footprint(TOY, 0, sim_base=16, seed=seed)
    with pytest.raises(TypeError):
        numeric_footprint(TOY, 0, sim_base=16, seed=7.0)


# A call taking one count or index argument, and a valid int for it.
INTEGER_ARGUMENTS = {
    "verify_arch-sim_base": (lambda v: verify_arch(stylegan2_preset(8), sim_base=v), 16),
    "boolean_footprint-layer": (lambda v: boolean_footprint(TOY, v, sim_base=16), 1),
    "boolean_footprint-dims": (lambda v: boolean_footprint(TOY, 0, sim_base=16, dims=v), 2),
    "numeric_footprint-layer": (lambda v: numeric_footprint(TOY, v, sim_base=16), 1),
    "numeric_footprint-sim_base": (lambda v: numeric_footprint(TOY, 0, sim_base=v), 16),
    "generative_field-layer": (lambda v: generative_field(TOY, v), 1),
    "input_resolution-layer": (lambda v: input_resolution(TOY, v), 1),
    "layer_of_dim-d": (lambda v: style_layout(stylegan2_preset(256)).layer_of_dim(v), 4096),
    "histogram_counts-bins": (lambda v: histogram_counts(np.array([0.1, 0.7, 1.0]), bins=v), 4),
    "mean_histogram-bins": (lambda v: mean_histogram([np.array([0.1, 0.7]), np.array([1.0, 0.5])], bins=v), 4),
    "topk_set-k": (lambda v: topk_set(np.array([0.3, -0.9, 0.1]), k=v), 2),
}


@pytest.mark.parametrize("name", sorted(INTEGER_ARGUMENTS))
def test_count_and_index_arguments_take_integers_only(name):
    # A numpy int is taken as its plain int, down to the result's repr; a float is refused.
    call, value = INTEGER_ARGUMENTS[name]
    assert repr(call(np.int64(value))) == repr(call(value))
    with pytest.raises(TypeError) as info:
        call(value + 0.5)
    assert info.type is TypeError  # not numpy's UFuncTypeError


@pytest.mark.parametrize("oracle", [boolean_footprint, numeric_footprint])
@pytest.mark.parametrize("dims", [0, 3])
def test_dims_must_be_1_or_2(oracle, dims):
    with pytest.raises(ValueError, match=f"^dims must be 1 or 2, got {dims}$"):
        oracle(TOY, 0, sim_base=16, dims=dims)


def test_layer_out_of_range():
    with pytest.raises(Exception, match="out of range"):
        boolean_footprint(TOY, 2, sim_base=16)


def test_2d_matches_1d_for_square_kernels():
    for sem in Semantics:
        r1 = boolean_footprint(TOY, 0, sem, sim_base=12, dims=1)
        r2 = boolean_footprint(TOY, 0, sem, sim_base=12, dims=2)
        assert r2.footprint == r1.footprint
        n2 = numeric_footprint(TOY, 0, sem, sim_base=12, dims=2, seed=5)
        assert n2.footprint == r1.footprint


def test_2d_stride1_exact():
    arch = make_arch("s1", [5, 3], [1, 1])
    res = boolean_footprint(arch, 0, sim_base=16, dims=2)
    assert res.footprint == res.analytic == 7
    assert numeric_footprint(arch, 0, sim_base=16, dims=2, seed=1).footprint == 7


def test_nearest_kernel1_upsample_exceeds_analytic():
    # Nearest-neighbour duplication spreads influence even with a 1x1 kernel,
    # so this semantics can legitimately exceed the analytic bound; the
    # verifier still classifies it OVER-BUG as the report contract demands.
    arch = make_arch("k1", [1], [2])
    res = boolean_footprint(arch, 0, Semantics.NEAREST, sim_base=8)
    assert res.footprint == 2
    assert res.analytic == 1
    assert res.match_class == "OVER-BUG"
    # zero-insert keeps the bound
    z = boolean_footprint(arch, 0, Semantics.ZERO_INSERT, sim_base=8)
    assert z.footprint == 1 and z.match_class == "exact"


def test_verify_arch_layer_subset():
    arch = stylegan2_preset(8)
    results = verify_arch(arch, sim_base=16, layers=(1, 2))
    assert [r.layer_index for r in results] == [1, 2]


def test_verification_csv_format():
    arch = make_arch("s1", [3, 3], [1, 1])
    text = verification_csv(arch, verify_arch(arch, sim_base=16))
    lines = text.strip().splitlines()
    assert lines[0] == "layer_id,analytic,footprint,semantics,clipped,match_class"
    assert lines[1] == "conv0,5,5,zero-insert-transposed,false,exact"
    assert lines[2] == "conv1,3,3,zero-insert-transposed,false,exact"


def test_footprint_at_every_layer_of_preset8():
    arch = stylegan2_preset(8)
    for res in verify_arch(arch, sim_base=32):
        assert res.footprint >= 1
        assert res.footprint <= res.analytic


# --------------------------------------------------------------------------
# Reference: the full-map executor the windowed one replaced.  reference_numeric
# runs its stages on the impulse alone, with weights drawn as the oracle draws
# them, over the whole map.  Each output adds its taps in the executor's order,
# row-major, one tap at a time, so the two agree bitwise.

from genfields import oracle  # noqa: E402
from genfields.oracle import (  # noqa: E402
    MAX_ORACLE_CELLS,
    WEIGHT_HIGH,
    WEIGHT_LOW,
    FootprintResult,
)


def _correlate(zp: np.ndarray, w: np.ndarray) -> np.ndarray:
    """out[q] = sum_i w[i] * zp[q + i] on every axis, the taps added one at a time, row-major."""
    n = zp.shape[0] - w.shape[0] + 1
    out = np.zeros((n,) * zp.ndim)
    for tap in np.ndindex(w.shape):
        out += w[tap] * zp[tuple(slice(i, i + n) for i in tap)]
    return out


def _conv_same(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    k = w.shape[0]
    pad = (k - 1) // 2
    return _correlate(np.pad(x, (pad, k - 1 - pad)), w)


def _zero_insert_conv(x: np.ndarray, w: np.ndarray, u: int) -> np.ndarray:
    k = w.shape[0]
    z = np.zeros(tuple(u * n for n in x.shape), dtype=x.dtype)
    z[(slice(None, None, u),) * x.ndim] = x
    # out[q] = sum_j w[j] * z[q - j]
    return _correlate(np.pad(z, (k - 1, 0)), np.flip(w))


def _nearest_conv(x: np.ndarray, w: np.ndarray, u: int) -> np.ndarray:
    for axis in range(x.ndim):
        x = np.repeat(x, u, axis=axis)
    return _conv_same(x, w)


def _numeric_step(x: np.ndarray, w: np.ndarray, u: int, semantics: Semantics) -> np.ndarray:
    if u == 1:
        return _conv_same(x, w)
    if semantics is Semantics.ZERO_INSERT:
        return _zero_insert_conv(x, w, u)
    return _nearest_conv(x, w, u)


def _span(mask: np.ndarray) -> int:
    """Side length of the bounding box of the True region (max over axes)."""
    hit = np.argwhere(mask)
    return int((hit.max(axis=0) - hit.min(axis=0)).max()) + 1 if hit.size else 0


def _draw(rng, count):
    """The next ``count`` weights of ``rng``, uniform in [WEIGHT_LOW, WEIGHT_HIGH)."""
    return [WEIGHT_LOW + (WEIGHT_HIGH - WEIGHT_LOW) * rng.random() for _ in range(count)]


def reference_numeric(arch, layer, semantics, sim_base, seed, dims, magnitude):
    """Full-map impulse response per stage, and the footprint result."""
    n = oracle.map_sides(arch, sim_base)[layer]
    shape = (n,) * dims
    x = np.zeros(shape)
    x[tuple(n // 2 for _ in range(dims))] = magnitude

    stages = []
    clipped = False
    rng = random.Random(seed)
    for spec in arch.layers[layer:]:
        kshape = (spec.kernel,) * dims
        w = np.array(_draw(rng, spec.kernel**dims)).reshape(kshape)
        x = _numeric_step(x, w, spec.upsample, semantics)
        stages.append(x)
        affected = x != 0
        clipped = clipped or _touches_border(affected)

    result = FootprintResult(
        layer_index=layer,
        semantics=semantics,
        dims=dims,
        footprint=_span(affected),
        analytic=generative_field(arch, layer),
        clipped=clipped,
    )
    return stages, result


def _cone_corpus(count, seed):
    """Seeded (arch, layer, semantics, sim_base, seed, dims, magnitude) cases.

    Kernels 1-7, upsample factors 1-4, sim_base 3-40, magnitudes 1, 1e-6 and
    -3; every fourth case is 2-D, kept under 160 positions per axis so the
    full-map reference stays fast.
    """
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        dims = 2 if len(cases) % 4 == 3 else 1
        depth = int(rng.integers(1, 4 if dims == 2 else 6))
        kernels = rng.integers(1, 8, size=depth)
        ups = rng.integers(1, 5, size=depth)
        sim_base = int(rng.integers(3, 41))
        if dims == 2 and sim_base * int(np.prod(ups)) > 160:
            continue
        arch = make_arch(f"cone{len(cases)}", kernels, ups)
        cases.append((
            arch,
            int(rng.integers(0, depth)),
            Semantics.ZERO_INSERT if len(cases) % 2 else Semantics.NEAREST,
            sim_base,
            int(rng.integers(0, 2**31)),
            dims,
            float(rng.choice([1.0, 1e-6, -3.0])),
        ))
    return cases


def test_windowed_executor_bitwise_equals_full_map(monkeypatch):
    calls = []
    stage = oracle._stage

    def recording_stage(x, x_lo, w, u, semantics, window):
        out = stage(x, x_lo, w, u, semantics, window)
        calls.append((window, out))
        return out

    monkeypatch.setattr(oracle, "_stage", recording_stage)
    seen = {"clipped": 0, "dims": set(), "semantics": set()}
    for arch, layer, sem, sim_base, seed, dims, magnitude in _cone_corpus(1200, 8128):
        calls.clear()
        stages, expected = reference_numeric(arch, layer, sem, sim_base, seed, dims, magnitude)
        assert numeric_footprint(
            arch, layer, sem, sim_base, seed=seed, dims=dims, magnitude=magnitude
        ) == expected, (arch, layer, sem, sim_base, dims)
        assert len(calls) == len(stages)
        for (window, out), full in zip(calls, stages):
            inside = (slice(window[0], window[1]),) * dims
            assert np.array_equal(np.asarray(out), full[inside]), (arch, layer, sem, sim_base, dims)
            outside = np.ones(full.shape, dtype=bool)
            outside[inside] = False
            assert not np.any(full[outside]), (arch, layer, sem, sim_base, dims)
        seen["clipped"] += expected.clipped
        seen["dims"].add(dims)
        seen["semantics"].add(sem)
    assert seen["dims"] == {1, 2} and seen["semantics"] == set(Semantics)
    assert seen["clipped"] >= 20


def test_cone_width_does_not_grow_with_sim_base():
    arch = stylegan2_preset(1024)
    for sem in Semantics:
        for layer in range(arch.depth):
            widths = []
            for sim_base in (64, 1024):
                lengths = oracle.map_sides(arch, sim_base)[layer:]
                windows = oracle._cone(arch, layer, sem, lengths)
                assert all(b - a < length for (a, b), length in zip(windows, lengths))
                widths.append([b - a for a, b in windows])
            assert widths[0] == widths[1], (sem, layer)


def test_oracle_size_guard_arithmetic():
    # 2 x 4096: the final map has 16 * 4096 * 4096 cells, far above the limit.
    arch = make_arch("wide", [3, 3], [4096, 4096])
    with pytest.raises(ValueError, match="conv1"):
        oracle._check_args(arch, 0, 16, 1)
    # the limit applies to the largest map, in cells, for the chosen dims
    side = MAX_ORACLE_CELLS // 64
    ok = make_arch("edge", [3, 3], [8, 8])
    oracle._check_args(ok, 0, side, 1)
    with pytest.raises(ValueError, match="conv0"):
        oracle._check_args(ok, 0, side + 1, 2)
    with pytest.raises(ValueError, match="conv1"):
        oracle._check_args(ok, 1, side + 1, 1)
    # stylegan2-1024 in 1-D at sim_base 1024 stays well inside the limit
    oracle._check_args(stylegan2_preset(1024), 0, 1024, 1)


def test_size_guard_applies_to_both_oracles(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_ORACLE_CELLS", 100)
    arch = make_arch("small", [3], [2])
    for fn in (boolean_footprint, numeric_footprint):
        with pytest.raises(ValueError, match="conv0"):
            fn(arch, 0, sim_base=51)
        assert fn(arch, 0, sim_base=50).footprint >= 1


def test_kernel_guard_applies_to_both_oracles(monkeypatch):
    # A 3-cell map passes the map limit; a kernel's positions x taps array may not.
    monkeypatch.setattr(oracle, "MAX_ORACLE_CELLS", 100)
    for fn in (boolean_footprint, numeric_footprint):
        with pytest.raises(ValueError, match=r"^layer conv0: kernel 101 needs \d+ position x tap"):
            fn(make_arch("wide", [101], [1]), 0, sim_base=3)
        with pytest.raises(ValueError, match="conv1: kernel 60 needs"):
            fn(make_arch("late", [3, 60], [1, 1]), 0, sim_base=3)
        assert fn(make_arch("narrow", [15], [1]), 0, sim_base=3).footprint == 3
        # the map limit is checked first, and keeps its message
        with pytest.raises(ValueError, match="^layer conv0: its output map at sim_base 51 has 102"):
            fn(make_arch("both", [101], [2]), 0, sim_base=51)


@pytest.mark.parametrize("oracle_fn", [boolean_footprint, numeric_footprint])
@pytest.mark.parametrize("nines", [4295, 4301])
def test_sim_base_over_the_oracle_limit_refused_before_any_map(oracle_fn, nines):
    # Refused before any map: at 4,295 nines conv0's side on the big arch, and at
    # 4,301 sim_base itself, has over 4300 digits, which no message could print.
    big = make_arch("big", [3, 3], [2**62, 1])
    for arch in (big, stylegan2_preset(8)):
        with pytest.raises(ValueError) as info:
            oracle_fn(arch, 0, sim_base=10**nines - 1)
        assert str(info.value) == f"sim_base is above the oracle limit of {MAX_ORACLE_CELLS} cells"


# --------------------------------------------------------------------------
# Reference: the full-map boolean masks the position route replaced, kept
# verbatim.  reference_numeric uses _touches_border too.

def _bool_shift_or(mask: np.ndarray, offset: int, axis: int, out: np.ndarray) -> None:
    """out[q] |= mask[q - offset] along one axis, in place."""
    n = mask.shape[axis]
    src = [slice(None)] * mask.ndim
    dst = [slice(None)] * mask.ndim
    if offset >= 0:
        src[axis] = slice(0, n - offset)
        dst[axis] = slice(offset, n)
    else:
        src[axis] = slice(-offset, n)
        dst[axis] = slice(0, n + offset)
    out[tuple(dst)] |= mask[tuple(src)]


def _bool_same_conv(mask: np.ndarray, k: int) -> np.ndarray:
    """Stride-1 SAME window: input p affects outputs p-(k-1-pad) .. p+pad per axis."""
    pad = (k - 1) // 2
    out = mask
    for axis in range(mask.ndim):
        spread = np.zeros_like(out)
        for off in range(-(k - 1 - pad), pad + 1):
            _bool_shift_or(out, off, axis, spread)
        out = spread
    return out


def _bool_zero_insert(mask: np.ndarray, k: int, u: int) -> np.ndarray:
    """Zero-insert transposed window: input p affects outputs u*p .. u*p+k-1 per axis."""
    inserted = np.zeros(tuple(u * n for n in mask.shape), dtype=bool)
    inserted[tuple(slice(None, None, u) for _ in mask.shape)] = mask
    out = inserted
    for axis in range(out.ndim):
        spread = np.zeros_like(out)
        for off in range(k):
            _bool_shift_or(out, off, axis, spread)
        out = spread
    return out


def _bool_nearest(mask: np.ndarray, k: int, u: int) -> np.ndarray:
    """Nearest upsample then SAME window: p maps to u*p .. u*p+u-1 first."""
    out = mask
    for axis in range(mask.ndim):
        out = np.repeat(out, u, axis=axis)
    return _bool_same_conv(out, k)


def _bool_step(mask: np.ndarray, k: int, u: int, semantics: Semantics) -> np.ndarray:
    if u == 1:
        return _bool_same_conv(mask, k)
    if semantics is Semantics.ZERO_INSERT:
        return _bool_zero_insert(mask, k, u)
    return _bool_nearest(mask, k, u)


def _touches_border(mask: np.ndarray) -> bool:
    for axis in range(mask.ndim):
        first = mask.take(0, axis=axis)
        last = mask.take(-1, axis=axis)
        if bool(np.any(first)) or bool(np.any(last)):
            return True
    return False


def reference_boolean(arch, layer, semantics, sim_base, dims):
    """Full-map boolean masks per stage, and the footprint result."""
    semantics = Semantics(semantics)
    oracle._check_args(arch, layer, sim_base, dims)
    n = oracle.map_sides(arch, sim_base)[layer]
    shape = (n,) * dims
    mask = np.zeros(shape, dtype=bool)
    mask[tuple(n // 2 for _ in range(dims))] = True
    clipped = False
    for spec in arch.layers[layer:]:
        mask = _bool_step(mask, spec.kernel, spec.upsample, semantics)
        clipped = clipped or _touches_border(mask)
    return FootprintResult(
        layer_index=layer,
        semantics=semantics,
        dims=dims,
        footprint=_span(mask),
        analytic=generative_field(arch, layer),
        clipped=clipped,
    )


def test_positions_equal_full_map_masks():
    seen, clipped = set(), 0
    for i, (arch, layer, _, sim_base, _, dims, _) in enumerate(_cone_corpus(3200, 4099)):
        # the cone corpus makes every 2-D case zero-insert; alternate in blocks of 4
        sem = list(Semantics)[i // 4 % 2]
        expected = reference_boolean(arch, layer, sem, sim_base, dims)
        result = boolean_footprint(arch, layer, sem, sim_base, dims)
        assert result == expected, (arch, layer, sem, sim_base, dims)
        assert type(result.clipped) is bool
        seen.add((dims, sem))
        clipped += expected.clipped
    assert seen == {(d, s) for d in (1, 2) for s in Semantics}
    assert clipped >= 20


def test_boolean_cost_does_not_grow_with_sim_base():
    arch = stylegan2_preset(1024)
    for sem in Semantics:
        small = boolean_footprint(arch, 0, sem, sim_base=1024)
        tracemalloc.start()
        try:
            large = boolean_footprint(arch, 0, sem, sim_base=200000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, (sem, peak)
        assert large.footprint == small.footprint and not large.clipped, sem


def test_boolean_cost_does_not_grow_with_kernel():
    # One interior position under a 10^6-tap kernel on a 3-cell map: the output is 3 cells.
    arch = make_arch("wide", [10**6], [1])
    tracemalloc.start()
    try:
        result = boolean_footprint(arch, 0, sim_base=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.footprint, result.clipped) == (3, True)
    assert peak < 2**20, peak


def _reference_spread(pos, spec, semantics, length):
    """The sort-and-dedupe body of oracle._spread that the run merge replaced, kept verbatim."""
    k, u = spec.kernel, spec.upsample
    if u > 1 and semantics is Semantics.ZERO_INSERT:
        lo, hi = 0, k
    else:
        lo, hi = -(k // 2), u + (k - 1) // 2
    out = np.sort(u * pos[:, None] + np.arange(lo, hi), axis=None)
    first = np.diff(out, prepend=out[0] - 1) > 0
    return out[first & (out >= 0) & (out < length)]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(side=st.integers(1, 40), k=st.integers(1, 12), u=st.integers(1, 4),
       semantics=st.sampled_from(list(Semantics)), data=st.data())
def test_spread_equals_sort_and_dedupe(side, k, u, semantics, data):
    pos = np.array(sorted(data.draw(st.sets(st.integers(0, side - 1), min_size=1))))
    spec = LayerSpec("conv0", k, u, 1, 1)
    expected = _reference_spread(pos, spec, semantics, u * side)
    assert oracle._spread(_runs(pos), spec, semantics, u * side) == _runs(expected)


def _runs(pos):
    """Sorted distinct positions as their maximal half-open runs [a, b)."""
    runs = []
    for p in map(int, pos):
        if runs and runs[-1][1] == p:
            runs[-1] = (runs[-1][0], p + 1)
        else:
            runs.append((p, p + 1))
    return runs


_GAPPED = st.integers(2, 4).flatmap(lambda u: st.tuples(st.integers(1, u - 1), st.just(u)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(layers=st.lists(st.one_of(_GAPPED, st.tuples(st.integers(1, 3), st.just(1))),
                       min_size=1, max_size=4),
       side=st.integers(1, 12), data=st.data())
def test_spread_keeps_the_gaps_of_zero_insert_stacks(layers, side, data):
    # k < u: the windows of adjacent inputs never meet, so every position keeps
    # its own run until a stride-1 layer merges some of them.
    pos = np.array(sorted(data.draw(st.sets(st.integers(0, side - 1), min_size=1))))
    runs, length = _runs(pos), side
    for k, u in layers:
        spec, length = LayerSpec("conv0", k, u, 1, 1), length * u
        pos = _reference_spread(pos, spec, Semantics.ZERO_INSERT, length)
        runs = oracle._spread(runs, spec, Semantics.ZERO_INSERT, length)
        assert runs == _runs(pos), (layers, side)


# --------------------------------------------------------------------------
# Properties over random stacks, and of the seeded weights.

@settings(derandomize=True, max_examples=60, deadline=None)
@given(layers=st.lists(st.tuples(st.integers(1, 7), st.integers(1, 4)), min_size=1, max_size=5),
       sim_base=st.integers(3, 40), seed=st.integers(0, 2**64 - 1))
def test_numeric_equals_boolean_and_zero_insert_within_analytic(layers, sim_base, seed):
    arch = make_arch("prop", *zip(*layers))
    for sem in Semantics:
        for layer in range(arch.depth):
            expected = boolean_footprint(arch, layer, sem, sim_base)
            assert numeric_footprint(arch, layer, sem, sim_base, seed=seed) == expected
            if sem is Semantics.ZERO_INSERT:
                assert expected.footprint <= expected.analytic


@contextlib.contextmanager
def _weight_spy():
    """Record the kernel ``w`` of every ``_stage`` call, in call order."""
    kernels, stage = [], oracle._stage

    def spy(x, x_lo, w, u, semantics, window):
        kernels.append(w)
        return stage(x, x_lo, w, u, semantics, window)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_stage", spy)
        yield kernels


@settings(derandomize=True, max_examples=100, deadline=None)
@given(layers=st.lists(st.tuples(st.integers(1, 5), st.integers(1, 3)), min_size=1, max_size=3),
       sim_base=st.integers(3, 24), seed=st.integers(0, 2**64 - 1), data=st.data())
def test_2d_numeric_is_the_square_of_1d(layers, sim_base, seed, data):
    arch = make_arch("square", *zip(*layers))
    layer = data.draw(st.integers(0, arch.depth - 1))
    with _weight_spy() as kernels:
        for sem in Semantics:
            one = numeric_footprint(arch, layer, sem, sim_base, seed=seed)
            two = numeric_footprint(arch, layer, sem, sim_base, seed=seed, dims=2)
            assert (two.footprint, two.clipped) == (one.footprint, one.clipped), sem
    # Each call draws every stage's kernel whole, row-major, in stage order,
    # from one random.Random(seed).
    for dims in (1, 2, 1, 2):
        rng = random.Random(seed)
        for spec in arch.layers[layer:]:
            w = kernels.pop(0)
            flat = [v for row in w for v in row] if dims == 2 else w
            assert flat == _draw(rng, spec.kernel**dims)
    assert not kernels


def test_weights_reach_neither_end_of_the_range():
    # random()'s extreme outputs map to WEIGHT_LOW and to just below WEIGHT_HIGH.
    for draw, expected in ((0.0, WEIGHT_LOW), (1 - 2**-53, math.nextafter(WEIGHT_HIGH, 0))):
        for dims in (1, 2):
            with _weight_spy() as kernels, pytest.MonkeyPatch.context() as mp:
                mp.setattr(random.Random, "random", lambda self, draw=draw: draw)
                numeric_footprint(TOY, 0, sim_base=16, dims=dims)
            weights = [v for w in kernels for v in (w if dims == 1 else sum(w, []))]
            assert len(weights) == 2 * 3**dims
            assert all(v == expected for v in weights)
            assert all(WEIGHT_LOW <= v < WEIGHT_HIGH for v in weights)
