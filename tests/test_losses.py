import math
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genfields import __version__, losses
from genfields.cli import main
from genfields.losses import (
    EulerAngles,
    SSIM_C1,
    SSIM_C2,
    _gaussian_window,
    _gfilter_valid,
    attr_loss,
    as_landmarks,
    eval_metrics,
    identity_loss,
    landmark_loss,
    min_side_for_scales,
    ms_ssim,
    pose_loss,
    reconstruction_loss,
    total_loss,
)

from helpers import write_netpbm


def landmarks(seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 255.0, size=(68, 3))


# --------------------------------------------------------------- identity --

def test_identity_loss_zero_on_identical():
    emb = np.array([0.3, -1.2, 4.0])
    assert identity_loss(emb, emb.copy()) == 0.0


def test_identity_loss_example():
    assert identity_loss([1.0, 2.0], [0.0, 4.0]) == 3.0


def test_identity_loss_single_dim():
    assert identity_loss([-1.0], [1.0]) == 2.0


def test_identity_loss_symmetric_and_mismatch():
    a, b = np.array([1.0, 5.0]), np.array([2.0, -3.0])
    assert identity_loss(a, b) == identity_loss(b, a)
    with pytest.raises(ValueError, match="mismatch"):
        identity_loss([1.0], [1.0, 2.0])


# --------------------------------------------------------------- landmarks --

def test_landmark_loss_zero_on_identical():
    lm = landmarks()
    assert landmark_loss(lm, lm.copy()) == 0.0


def test_landmark_loss_three_four_five():
    a = landmarks()
    b = a.copy()
    b[20] += (3.0, 4.0, 0.0)  # inner landmark (1-based 21)
    assert landmark_loss(a, b) == pytest.approx(5.0)


def test_landmark_loss_jawline_excluded_by_default():
    a = landmarks()
    b = a.copy()
    b[4] += (9.0, 9.0, 9.0)  # landmark 5, jawline
    assert landmark_loss(a, b) == 0.0
    assert landmark_loss(a, b, inner_only=False) > 0.0


def test_landmark_loss_symmetric():
    a, b = landmarks(1), landmarks(2)
    assert landmark_loss(a, b) == pytest.approx(landmark_loss(b, a))


def test_landmark_validation():
    with pytest.raises(ValueError, match="68"):
        landmark_loss(np.zeros((67, 3)), np.zeros((67, 3)))
    padded = as_landmarks(np.zeros((68, 2)))
    assert padded.shape == (68, 3)


# -------------------------------------------------------------------- pose --

def test_pose_loss_zero_on_equal():
    a = EulerAngles(0.2, -0.1, 0.4)
    assert pose_loss(a, EulerAngles(0.2, -0.1, 0.4)) == 0.0


def test_pose_loss_three_four_five():
    a = EulerAngles(0.0, 0.0, 0.0)
    b = EulerAngles(0.3, 0.0, 0.4)
    assert pose_loss(a, b) == pytest.approx(0.5)


def test_pose_loss_formula():
    a = EulerAngles(0.0, 0.0, 0.0)
    b = EulerAngles(0.1, 0.1, 0.1)
    assert pose_loss(a, b) == pytest.approx(math.sqrt(0.03))


def test_euler_angle_range_enforced():
    with pytest.raises(ValueError, match="yaw"):
        EulerAngles(math.pi / 2, 0.0, 0.0)
    with pytest.raises(ValueError, match="pitch"):
        EulerAngles(0.0, -math.pi / 2, 0.0)
    EulerAngles(1.5, -1.5, 0.0)  # inside the open interval


# -------------------------------------------------------------------- attr --

def test_attr_loss_sum():
    assert attr_loss(0.0, 0.0) == 0.0
    assert attr_loss(1.5, 0.5) == 2.0
    with pytest.raises(ValueError):
        attr_loss(-1.0, 0.0)


def test_attr_loss_composes():
    a, b = landmarks(3), landmarks(4)
    pa, pb = EulerAngles(0.1, 0.0, 0.0), EulerAngles(-0.2, 0.1, 0.3)
    assert attr_loss(landmark_loss(a, b), pose_loss(pa, pb)) == pytest.approx(
        landmark_loss(a, b) + pose_loss(pa, pb)
    )


# ----------------------------------------------------------------- ms-ssim --

def test_ms_ssim_self_similarity():
    rng = np.random.default_rng(8)
    img = rng.uniform(size=(176, 176))
    assert abs(ms_ssim(img, img.copy()) - 1.0) < 1e-9


def test_ms_ssim_self_similarity_rgb():
    rng = np.random.default_rng(9)
    img = rng.uniform(size=(200, 176, 3))
    assert abs(ms_ssim(img, img.copy()) - 1.0) < 1e-9


def test_ms_ssim_inverted_image_below_one():
    rng = np.random.default_rng(10)
    img = 0.25 + 0.5 * rng.uniform(size=(176, 176))
    assert ms_ssim(img, 1.0 - img) < 1.0


def test_ms_ssim_constant_pair():
    c = np.full((176, 176), 0.5)
    assert ms_ssim(c, c.copy()) == pytest.approx(1.0, abs=1e-12)


def test_ms_ssim_constant_zero_vs_one_analytic():
    # All variance terms vanish; cs = 1 at every scale and the coarse-scale
    # luminance is C1 / (1 + C1), so the result is that value to the power of
    # the last scale weight.
    z = np.zeros((176, 176))
    o = np.ones((176, 176))
    lum = SSIM_C1 / (1.0 + SSIM_C1)
    assert ms_ssim(z, o) == pytest.approx(lum**0.1333, rel=1e-12)


def test_ms_ssim_symmetry():
    rng = np.random.default_rng(11)
    a = rng.uniform(size=(176, 176))
    b = rng.uniform(size=(176, 176))
    assert ms_ssim(a, b) == pytest.approx(ms_ssim(b, a), rel=1e-12)


def test_ms_ssim_shift_stability():
    rng = np.random.default_rng(12)
    a = 0.05 + 0.85 * rng.uniform(size=(176, 176))
    b = np.clip(a + 0.02 * rng.normal(size=a.shape), 0.0, 0.9)
    shift = 0.05
    assert abs(ms_ssim(a + shift, b + shift) - ms_ssim(a, b)) < 1e-3


def test_ms_ssim_size_checks():
    small = np.zeros((100, 100))
    with pytest.raises(ValueError, match="fewer scales"):
        ms_ssim(small, small)
    assert ms_ssim(small, small, scales=3) == pytest.approx(1.0)
    assert min_side_for_scales(5) == 176
    with pytest.raises(ValueError, match="scales"):
        ms_ssim(small, small, scales=6)


def test_ms_ssim_shape_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        ms_ssim(np.zeros((176, 176)), np.zeros((176, 180)))


def test_ms_ssim_range_validation():
    bad = np.full((176, 176), 1.5)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ms_ssim(bad, bad)


def noisy_pair(shape, seed):
    rng = np.random.default_rng(seed)
    a = rng.random(shape)
    return a, np.clip(a + rng.normal(0.0, 0.1, shape), 0.0, 1.0)


# Reports print repr(float), so these literals pin every bit.  The first three
# were computed with the scipy.ndimage filter the numpy one replaced, the last
# with the whole-plane SSIM maps the blocked ones replaced.  300x177 leaves 290
# valid rows at the first scale: above one 64-row filter block and not a
# multiple of it.  600x560 leaves 590x550 valid cells, above THREAD_MIN_CELLS,
# so its first scale is filled by one thread per usable CPU.  181x203 was
# computed with reshape-mean pooling and a luminance map at every scale, and
# pools odd sides at every level.
@pytest.mark.parametrize(
    "shape, scales, seed, expected",
    [
        ((11, 11), 1, 1, "0.9465669449774949"),
        ((75, 90), 2, 2, "0.9452426213883465"),
        ((300, 177, 3), 5, 3, "0.9561194883011236"),
        ((600, 560, 3), 5, 6, "0.9539178712148618"),
        ((181, 203), 5, 7, "0.9542456799546218"),
    ],
)
def test_ms_ssim_golden_bits(shape, scales, seed, expected):
    a, b = noisy_pair(shape, seed)
    assert repr(ms_ssim(a, b, scales)) == expected


def test_ms_ssim_golden_bits_with_signed_zeros():
    # Computed with reshape-mean pooling, which turns a quad of -0.0 into
    # +0.0 where the strided sums keep -0.0: the 40x40 corner of -0.0 in both
    # images pools to such quads at every scale, and C1/C2 absorb the sign.
    a, b = noisy_pair((190, 211, 3), 9)
    a[a < 0.05] = -0.0
    a[a > 0.95] = 1.0
    a[:40, :40] = b[:40, :40] = -0.0
    assert repr(ms_ssim(a, b)) == "0.9563344457175368"


def _downsample2_by_mean(plane):
    """The reshape-mean pooling that ``losses._downsample2`` must equal."""
    h, w = plane.shape
    trimmed = plane[: 2 * (h // 2), : 2 * (w // 2)]
    return trimmed.reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(22, 300), st.integers(22, 300), st.sampled_from([None, 0, 1, 2]),
       st.integers(0, 2**32 - 1))
def test_downsample2_matches_reshape_mean(h, w, channel, seed):
    rng = np.random.default_rng(seed)
    image = rng.random((h, w) if channel is None else (h, w, 3))
    where = rng.random(image.shape)
    image[where < 0.1] = -0.0
    image[(where >= 0.1) & (where < 0.2)] = 0.0
    image[where > 0.9] = 1.0
    plane = image if channel is None else image[:, :, channel]
    assert np.array_equal(losses._downsample2(plane), _downsample2_by_mean(plane))


def test_losses_report_golden_bytes(capsys, tmp_path):
    a, b = noisy_pair((40, 48, 3), 4)
    write_netpbm(tmp_path / "a.ppm", a)
    write_netpbm(tmp_path / "b.ppm", b)
    code = main([
        "losses", "--attr-image", str(tmp_path / "a.ppm"), "--out-image", str(tmp_path / "b.ppm"),
        "--same-inputs", "--scales", "2",
    ])
    assert code == 0
    assert capsys.readouterr().out == (
        f"# genfields {__version__}\n"
        "# subcommand: losses\n"
        "# parameters: alpha=0.84 lambdas=1.0,0.01,0.02 format=table\n"
        "reconstruction_loss = 0.06076009242287054\n"
        "total_loss = 0.0012152018484574108\n"
    )


@pytest.mark.parametrize("shape", [(11, 11), (74, 30), (75, 90), (138, 21), (300, 177, 3)])
def test_gfilter_valid_matches_ndimage_bitwise(shape):
    ndimage = pytest.importorskip("scipy.ndimage")
    window = _gaussian_window()
    half = window.size // 2
    img, _ = noisy_pair(shape, 5)
    stack = img.reshape(img.shape[0], img.shape[1], -1)
    filtered = _gfilter_valid(stack, window)  # every channel in each pass
    for c in range(stack.shape[2]):
        plane = stack[:, :, c]
        ref = ndimage.correlate1d(plane, window, axis=0, mode="nearest")
        ref = ndimage.correlate1d(ref, window, axis=1, mode="nearest")
        np.testing.assert_array_equal(_gfilter_valid(plane, window), ref[half:-half, half:-half])
        np.testing.assert_array_equal(filtered[:, :, c], ref[half:-half, half:-half])


def _ssim_plane_whole(a, b, window):
    """The whole-plane SSIM and cs means of each channel of an (h, w, c) stack.

    The blocked, stacked ``losses._ssim_plane`` must equal these bitwise.
    """
    ssim_means, cs_means = [], []
    for k in range(a.shape[2]):
        pa, pb = a[:, :, k], b[:, :, k]
        mu_a = _gfilter_valid(pa, window)
        mu_b = _gfilter_valid(pb, window)
        var_a = _gfilter_valid(pa * pa, window) - mu_a * mu_a
        var_b = _gfilter_valid(pb * pb, window) - mu_b * mu_b
        cov = _gfilter_valid(pa * pb, window) - mu_a * mu_b
        cs_map = (2.0 * cov + SSIM_C2) / (var_a + var_b + SSIM_C2)
        lum_map = (2.0 * mu_a * mu_b + SSIM_C1) / (mu_a * mu_a + mu_b * mu_b + SSIM_C1)
        ssim_map = lum_map * cs_map
        # _gfilter_valid returns a transposed view: the means are of the row-major maps.
        ssim_means.append(float(np.ascontiguousarray(ssim_map).mean()))
        cs_means.append(float(np.ascontiguousarray(cs_map).mean()))
    return ssim_means, cs_means


def test_usable_cpus_without_an_affinity_call(monkeypatch):
    # as on macOS and Windows: every CPU counts, and an unknown count is 1
    monkeypatch.delattr(losses.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(losses.os, "cpu_count", lambda: 6)
    assert losses._usable_cpus() == 6
    monkeypatch.setattr(losses.os, "cpu_count", lambda: None)
    assert losses._usable_cpus() == 1


def _force_threads(monkeypatch, workers, min_cells):
    monkeypatch.setattr(losses, "_usable_cpus", lambda: workers)
    monkeypatch.setattr(losses, "THREAD_MIN_CELLS", min_cells)


def _stack_pair(monkeypatch, rows, channels, seed):
    """A pair of (rows, 37, channels) stacks, with blocks of 64 rows whatever the channel count."""
    monkeypatch.setattr(losses, "FILTER_BLOCK_ROWS", 64 * channels)
    return noisy_pair((rows, 37, channels), seed)


# 63, 64 and 65 valid rows are one below, at and one above a block; 129 is one above two.
@pytest.mark.parametrize("valid_rows", [1, 63, 64, 65, 129, 290])
@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("at_floor", [True, False], ids=["at-floor", "below-floor"])
def test_ssim_plane_blocks_match_whole_plane_bitwise(monkeypatch, valid_rows, workers, at_floor):
    window = _gaussian_window()
    threads = set()

    def spy(plane, w):
        threads.add(threading.current_thread())
        return _gfilter_valid(plane, w)

    monkeypatch.setattr(losses, "_gfilter_valid", spy)
    for channels in (1, 3):
        a, b = _stack_pair(monkeypatch, valid_rows + 10, channels, valid_rows)
        ssim_means, cs_means = _ssim_plane_whole(a, b, window)
        cells = channels * valid_rows * 27  # the whole stack of maps counts
        _force_threads(monkeypatch, workers, cells if at_floor else cells + 1)
        blocks = -(-valid_rows // 64)
        for lum, expected in ((True, ssim_means), (False, cs_means)):
            threads.clear()
            assert losses._ssim_plane(a, b, window, lum) == expected
            assert len(threads) == (min(workers, blocks) if at_floor else 1)


@pytest.mark.parametrize("channels", [1, 3])
def test_ssim_plane_takes_one_channel_rows_per_block(monkeypatch, channels):
    # At the default, a block holds 64 rows of one plane or 21 of an RGB stack:
    # 64 valid rows make one block or four, each on its own worker.
    _force_threads(monkeypatch, 4, 0)
    threads = set()

    def spy(plane, w):
        threads.add(threading.current_thread())
        return _gfilter_valid(plane, w)

    monkeypatch.setattr(losses, "_gfilter_valid", spy)
    a, b = noisy_pair((74, 37, channels), 10)
    assert losses._ssim_plane(a, b, _gaussian_window()) == _ssim_plane_whole(a, b, _gaussian_window())[0]
    assert len(threads) == (1 if channels == 1 else 4)


def test_ssim_plane_worker_exception_reaches_caller(monkeypatch):
    _force_threads(monkeypatch, 3, 0)
    caller = threading.current_thread()

    def failing(plane, w):
        if threading.current_thread() is not caller:
            raise RuntimeError("worker failed")
        return _gfilter_valid(plane, w)

    monkeypatch.setattr(losses, "_gfilter_valid", failing)
    before = threading.active_count()
    for channels in (1, 3):
        a, b = _stack_pair(monkeypatch, 300, channels, 8)
        with pytest.raises(RuntimeError, match="worker failed"):
            losses._ssim_plane(a, b, _gaussian_window())
        assert threading.active_count() == before


def test_ms_ssim_errstate_reaches_worker_threads(monkeypatch):
    # 590 valid rows make 10 blocks, in runs of 3, 3 and 4. Only the last run
    # reads the 1e-200 rows, whose squares underflow, so this raises only if
    # the caller's np.errstate reaches the worker threads.
    _force_threads(monkeypatch, 3, 0)
    img = np.full((600, 600), 0.5)
    img[400:, 1::2] = 1e-200
    with np.errstate(under="raise"), pytest.raises(FloatingPointError):
        ms_ssim(img, img, scales=1)


# ----------------------------------------------------------- reconstruction --

def test_reconstruction_gate_returns_zero():
    rng = np.random.default_rng(13)
    a = rng.uniform(size=(176, 176))
    b = rng.uniform(size=(176, 176))
    assert reconstruction_loss(a, b, same_inputs=False) == 0.0


def test_reconstruction_zero_on_identical():
    rng = np.random.default_rng(14)
    a = rng.uniform(size=(176, 176))
    assert reconstruction_loss(a, a.copy(), same_inputs=True) == pytest.approx(0.0, abs=1e-9)


def test_reconstruction_constant_pair_analytic():
    z = np.zeros((176, 176))
    o = np.ones((176, 176))
    alpha = 0.84
    expected = alpha * (1.0 - ms_ssim(z, o)) + (1.0 - alpha) * 1.0
    assert reconstruction_loss(z, o, alpha=alpha, same_inputs=True) == pytest.approx(expected)


def test_reconstruction_alpha_validation():
    a = np.zeros((176, 176))
    with pytest.raises(ValueError, match="alpha"):
        reconstruction_loss(a, a, alpha=1.5, same_inputs=True)
    with pytest.raises(ValueError, match="mismatch"):
        reconstruction_loss(np.zeros((176, 176)), np.zeros((180, 176)), same_inputs=True)


@pytest.mark.parametrize("same_inputs", [True, False])
def test_reconstruction_checks_each_image_once(monkeypatch, same_inputs):
    calls, check = [], losses.as_image

    def spy(values):
        calls.append(values)
        return check(values)

    monkeypatch.setattr(losses, "as_image", spy)
    a, b = np.zeros((22, 22, 3)), np.ones((22, 22, 3))
    reconstruction_loss(a, b, same_inputs=same_inputs, scales=2)
    assert [id(values) for values in calls] == [id(a), id(b)]


@pytest.mark.parametrize("shape", [(22, 22), (22, 30)], ids=["square", "non-square"])
@pytest.mark.parametrize("alpha", [0.0, 0.84, 1.0])
def test_reconstruction_single_channel_against_plane(shape, alpha):
    # (h, w, 1) is the (h, w) plane: the L1 term pairs pixels, it does not broadcast
    rng = np.random.default_rng(5)
    a, b = rng.random(shape), rng.random(shape)
    expected = alpha * (1.0 - ms_ssim(a, b, 2)) + (1.0 - alpha) * float(np.abs(a - b).mean())
    for x, y in ((a[:, :, None], b), (a, b[:, :, None]), (a[:, :, None], b[:, :, None])):
        assert reconstruction_loss(x, y, alpha=alpha, same_inputs=True, scales=2) == expected


# ------------------------------------------------------------------- total --

def test_total_loss_zero():
    assert total_loss(0.0, 0.0, 0.0) == 0.0


def test_total_loss_default_weights_exact():
    assert total_loss(1.0, 1.0, 1.0) == 1.03


def test_total_loss_identity_component_only():
    assert total_loss(2.0, 0.0, 0.0) == 2.0


def test_total_loss_linearity():
    base = total_loss(1.0, 2.0, 3.0)
    assert total_loss(2.0, 2.0, 3.0) - base == pytest.approx(1.0)
    assert total_loss(1.0, 3.0, 3.0) - base == pytest.approx(0.01)
    assert total_loss(1.0, 2.0, 4.0) - base == pytest.approx(0.02)


def test_total_loss_rejects_negative():
    with pytest.raises(ValueError):
        total_loss(-1.0, 0.0, 0.0)


# ------------------------------------------------------------ eval metrics --

def test_eval_metrics_identical_inputs():
    emb = np.array([1.0, 2.0, 3.0])
    lm = landmarks(20)
    ang = EulerAngles(0.1, 0.2, -0.3)
    m = eval_metrics(emb, emb.copy(), lm, lm.copy(), ang, EulerAngles(0.1, 0.2, -0.3), 256)
    assert m.identity == pytest.approx(1.0)
    assert m.expression == 0.0
    assert m.pose == 0.0


def test_eval_metrics_orthogonal_embeddings():
    m = eval_metrics(
        np.array([1.0, 0.0]),
        np.array([0.0, 1.0]),
        landmarks(21),
        landmarks(21),
        EulerAngles(0.0, 0.0, 0.0),
        EulerAngles(0.0, 0.0, 0.0),
        256,
    )
    assert m.identity == pytest.approx(0.0)


def test_eval_metrics_pose_mean_square():
    d = 0.25
    m = eval_metrics(
        np.array([1.0]),
        np.array([1.0]),
        landmarks(22),
        landmarks(22),
        EulerAngles(0.0, 0.0, 0.0),
        EulerAngles(d, d, d),
        256,
    )
    assert m.pose == pytest.approx(d * d)


def test_eval_metrics_expression_normalized_by_resolution():
    a = landmarks(23)
    b = a.copy()
    b[30] += (16.0, 0.0, 0.0)
    m = eval_metrics(
        np.array([1.0]), np.array([1.0]), a, b,
        EulerAngles(0.0, 0.0, 0.0), EulerAngles(0.0, 0.0, 0.0), 256,
    )
    assert m.expression == pytest.approx(16.0 / 256.0)


@pytest.mark.parametrize("resolution", [0, -256, math.nan, math.inf, -math.inf])
def test_eval_metrics_refuses_a_non_positive_resolution(resolution):
    with pytest.raises(ValueError, match=f"^resolution must be positive and finite, got {resolution}$"):
        eval_metrics(
            np.array([1.0]), np.array([1.0]), landmarks(), landmarks(),
            EulerAngles(0.0, 0.0, 0.0), EulerAngles(0.0, 0.0, 0.0), resolution,
        )


def test_eval_metrics_zero_norm_embedding():
    with pytest.raises(ValueError, match="zero-norm"):
        eval_metrics(
            np.array([0.0]), np.array([1.0]), landmarks(), landmarks(),
            EulerAngles(0.0, 0.0, 0.0), EulerAngles(0.0, 0.0, 0.0), 256,
        )


# ------------------------------------------------------------- non-finite --

from genfields.losses import as_embedding, as_image  # noqa: E402


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_validators_reject_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        as_image(np.full((4, 4), bad))
    image = np.full((4, 4, 3), 0.5)
    image[1, 2, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        as_image(image)
    with pytest.raises(ValueError, match="finite"):
        as_embedding([0.5, bad, 1.0])


@pytest.mark.parametrize("shape, message", [
    ((4,), r"image must be \(h, w\) or \(h, w, 3\), got shape \(4,\)$"),
    ((4, 4, 2), r"image must be \(h, w\) or \(h, w, 3\), got shape \(4, 4, 2\)$"),
    ((0, 4), r"image dimensions must be positive, got shape \(0, 4\)$"),
    ((4, 0, 3), r"image dimensions must be positive, got shape \(4, 0, 3\)$"),
])
def test_as_image_rejects_bad_shapes(shape, message):
    with pytest.raises(ValueError, match=message):
        as_image(np.full(shape, 0.5))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_loss_combiners_reject_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        attr_loss(bad, 0.0)
    with pytest.raises(ValueError, match="finite"):
        attr_loss(0.0, bad)
    for components in ((bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)):
        with pytest.raises(ValueError, match="finite"):
            total_loss(*components)
    for lambdas in ((bad, 1.0, 1.0), (1.0, 1.0, -bad)):
        with pytest.raises(ValueError, match="finite"):
            total_loss(1.0, 1.0, 1.0, *lambdas)


def test_loss_combiners_reject_overflow():
    with pytest.raises(ValueError, match="overflows"):
        attr_loss(1e308, 1e308)
    with pytest.raises(ValueError, match="overflows"):
        total_loss(1.0, 1.0, 1.0, 1e308, 1e308, 1e308)


# ------------------------------------------------------ the argument rule --


from genfields.regularizer import (  # noqa: E402
    estimate_stats,
    log_likelihood,
    log_likelihood_grad,
    regularized_objective,
)
from genfields.fileio import vectors_csv  # noqa: E402
from genfields.sparsity import histogram_counts, mean_histogram, normalize_abs, topk_set  # noqa: E402
from genfields.stylespace import apply_control, face_scale  # noqa: E402

_STYLES = np.array([[0.0, 1.0, 2.0], [1.0, 3.0, 2.5]])
_STATS = estimate_stats(_STYLES)
_VEC = np.array([0.5, -1.0, 2.0])
_LM = landmarks(1)
_POSE = EulerAngles(0.1, 0.2, 0.3)


def _metrics(f_id=_VEC, f_out=_VEC, lm_attr=_LM, lm_out=_LM):
    return eval_metrics(f_id, f_out, lm_attr, lm_out, _POSE, _POSE, 256)


# Every public function taking an array, once per array argument: a call with
# that argument x and valid others, and a valid x.
ARRAY_ARGUMENTS = {
    "normalize_abs": (normalize_abs, _VEC),
    "histogram_counts": (histogram_counts, np.array([0.1, 0.5, 1.0])),
    "mean_histogram": (lambda x: mean_histogram([_VEC, x]), _VEC),
    "topk_set": (lambda x: topk_set(x, 2), _VEC),
    "apply_control s_id": (lambda x: apply_control(x, _VEC), _VEC),
    "apply_control delta": (lambda x: apply_control(_VEC, x), _VEC),
    "identity_loss f_id": (lambda x: identity_loss(x, _VEC), _VEC),
    "identity_loss f_out": (lambda x: identity_loss(_VEC, x), _VEC),
    "landmark_loss a": (lambda x: landmark_loss(x, _LM), _LM),
    "landmark_loss b": (lambda x: landmark_loss(_LM, x), _LM),
    "eval_metrics f_id": (lambda x: _metrics(f_id=x), _VEC),
    "eval_metrics f_out": (lambda x: _metrics(f_out=x), _VEC),
    "eval_metrics lm_attr": (lambda x: _metrics(lm_attr=x), _LM),
    "eval_metrics lm_out": (lambda x: _metrics(lm_out=x), _LM),
    "face_scale": (lambda x: face_scale([_LM, x]), _LM),
    "estimate_stats": (estimate_stats, _STYLES),
    "log_likelihood": (lambda x: log_likelihood(x, _STATS), _VEC),
    "log_likelihood_grad": (lambda x: log_likelihood_grad(x, _STATS), _VEC),
    "regularized_objective": (lambda x: regularized_objective(1.0, x, _STATS, 0.5), _VEC),
}


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.sampled_from(sorted(ARRAY_ARGUMENTS)), st.integers(min_value=0),
       st.sampled_from([math.nan, math.inf, -math.inf]))
def test_array_arguments_reject_non_finite_values(name, where, bad):
    call, valid = ARRAY_ARGUMENTS[name]
    call(valid)
    x = valid.copy()
    x.flat[where % x.size] = bad
    with pytest.raises(ValueError, match=r"^[\w ]+ values must be finite$"):
        call(x)


@pytest.mark.parametrize("name", sorted(ARRAY_ARGUMENTS))
@pytest.mark.parametrize("misshape", [
    lambda x: x[:0], lambda x: x[0], lambda x: x[np.newaxis],
], ids=["empty", "one-axis-too-few", "one-axis-too-many"])
def test_array_arguments_reject_empty_or_wrong_ndim(name, misshape):
    call, valid = ARRAY_ARGUMENTS[name]
    with pytest.raises(ValueError, match=r"must be a non-empty [12]-D (vector|matrix), got shape \("):
        call(misshape(valid))


# Ragged, string and complex input fail numpy's float conversion; an int past
# float's range is a number, but not a finite float.
NOT_FLOATS = {
    "ragged": ([[1.0], [2.0, 3.0]], "must be {kind} of numbers"),
    "string": (["a", "b"], "must be {kind} of numbers"),
    "complex": ([1 + 2j, 3], "must be {kind} of numbers"),
    "big-int": ([10**400, 1.0], "values must be finite"),
}


@pytest.mark.parametrize("name", sorted(ARRAY_ARGUMENTS))
@pytest.mark.parametrize("case", sorted(NOT_FLOATS))
def test_array_arguments_name_input_that_is_not_floats(name, case):
    call, _ = ARRAY_ARGUMENTS[name]
    bad, message = NOT_FLOATS[case]
    kind = r"a non-empty [12]-D (vector|matrix)"
    with pytest.raises(ValueError, match=r"^[\w ]+ " + message.format(kind=kind) + "$"):
        call(bad)


@pytest.mark.parametrize("case", sorted(NOT_FLOATS))
@pytest.mark.parametrize("which", [0, 1])
def test_ms_ssim_names_an_image_that_is_not_floats(case, which):
    bad, message = NOT_FLOATS[case]
    images = [np.ones((24, 24)), np.ones((24, 24))]
    images[which] = bad
    kind = r"an \(h, w\) or \(h, w, 3\) array"
    with pytest.raises(ValueError, match="^image " + message.format(kind=kind) + "$"):
        ms_ssim(*images)


# numpy complex input casts to float with only a ComplexWarning, dropping the
# imaginary part.  Each case is a valid argument's complex counterpart; in 1-D the
# list holds numpy complex scalars.
COMPLEX_INPUTS = {
    "complex128": lambda x: x + 5j,
    "complex64": lambda x: x.astype(np.complex64),
    "list": lambda x: list(x + 1j),
}
COMPLEX_CALLS = {
    **ARRAY_ARGUMENTS,
    "ms_ssim a": (lambda x: ms_ssim(x, np.ones((24, 24))), np.ones((24, 24))),
    "ms_ssim b": (lambda x: ms_ssim(np.ones((24, 24)), x), np.ones((24, 24))),
    "vectors_csv": (vectors_csv, _STYLES),
}


@pytest.mark.parametrize("name", sorted(COMPLEX_CALLS))
@pytest.mark.parametrize("case", sorted(COMPLEX_INPUTS))
def test_array_arguments_refuse_numpy_complex(name, case):
    # With the warnings filter off, so that the refusal, not the warning, stops the call.
    call, valid = COMPLEX_CALLS[name]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=r"^[\w ]+ must be .+ of numbers$"):
            call(COMPLEX_INPUTS[case](valid))
    assert not caught


def test_float_array_argument_is_not_copied():
    # The dtype check reads the array numpy already has; a float64 one passes as itself.
    assert as_embedding(_VEC) is _VEC
    image = np.ones((24, 24))
    assert as_image(image) is image




def _far_apart(scale=1.0):
    """Two landmark sets whose one differing point is 2e308 * scale apart in x."""
    a, b = np.zeros((68, 2)), np.zeros((68, 2))
    a[20], b[20] = (1e308 * scale, 0.0), (-1e308 * scale, 0.0)
    return a, b


def _temples(left_x, right_x):
    """A 17-point set with its temple landmarks (points 1 and 17) at these x."""
    points = np.zeros((17, 2))
    points[0, 0], points[16, 0] = left_x, right_x
    return points


@pytest.mark.parametrize("call, term", [
    (lambda: identity_loss([1e308, 0.0], [-1e308, 0.0]), "identity loss"),
    (lambda: landmark_loss(*_far_apart()), "landmark loss"),
    (lambda: landmark_loss(*_far_apart(1e-150)), "landmark loss"),  # only the norm overflows
    (lambda: _metrics(_VEC, _VEC, *_far_apart()), "landmark loss"),
    (lambda: face_scale([_temples(-1e308, 1e308)]), "face scale"),
], ids=["identity", "landmark-difference", "landmark-norm", "eval-metrics", "face-scale"])
def test_far_apart_inputs_name_the_overflowing_term(call, term):
    # Under the suite's filterwarnings = error, a leaked numpy overflow warning fails too.
    with pytest.raises(ValueError, match=f"^{term} overflows float64$"):
        call()


_ENTRY = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.lists(st.tuples(_ENTRY, _ENTRY), min_size=1, max_size=8),
       st.integers(-900, 900), st.integers(-900, 900))
def test_eval_metrics_identity_holds_its_bits_at_any_power_of_two_scale(pairs, k, j):
    # Contiguous, as the scaled copies are: BLAS may sum a strided dot in another order.
    a, b = np.array(pairs).T.copy()
    if not (a.any() and b.any()):
        with pytest.raises(ValueError, match="zero-norm embedding"):
            _metrics(a, b)
        return
    plain = float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
    assert repr(_metrics(a, b).identity) == repr(plain)
    assert repr(_metrics(np.ldexp(a, k), np.ldexp(b, j)).identity) == repr(plain)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.lists(st.floats(0.0, np.finfo(float).max), min_size=1, max_size=6))
def test_face_scale_is_the_mean_temple_width_whenever_that_is_finite(widths):
    got = face_scale([_temples(0.0, w) for w in widths])
    with np.errstate(over="ignore"):
        plain = np.mean(widths)
    if math.isfinite(plain):
        assert repr(got) == repr(float(plain))
    exact = float(sum(map(Fraction, widths)) / len(widths))
    assert got == pytest.approx(exact, rel=2e-15)
