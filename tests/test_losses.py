import math

import numpy as np
import pytest

from genfields import __version__
from genfields.cli import main
from genfields.fileio import write_ppm
from genfields.losses import (
    EulerAngles,
    SSIM_C1,
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


# Reports print repr(float), so these literals pin every bit.  They were
# computed with the scipy.ndimage filter the numpy one replaced.  300x177
# leaves 290 valid rows at the first scale: above one 64-row filter block
# and not a multiple of it.
@pytest.mark.parametrize(
    "shape, scales, seed, expected",
    [
        ((11, 11), 1, 1, "0.9465669449774949"),
        ((75, 90), 2, 2, "0.9452426213883465"),
        ((300, 177, 3), 5, 3, "0.9561194883011236"),
    ],
)
def test_ms_ssim_golden_bits(shape, scales, seed, expected):
    a, b = noisy_pair(shape, seed)
    assert repr(ms_ssim(a, b, scales)) == expected


def test_losses_report_golden_bytes(capsys, tmp_path):
    a, b = noisy_pair((40, 48, 3), 4)
    write_ppm(str(tmp_path / "a.ppm"), a)
    write_ppm(str(tmp_path / "b.ppm"), b)
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
    planes = [img] if img.ndim == 2 else [img[:, :, c] for c in range(img.shape[2])]
    for plane in planes:
        ref = ndimage.correlate1d(plane, window, axis=0, mode="nearest")
        ref = ndimage.correlate1d(ref, window, axis=1, mode="nearest")
        np.testing.assert_array_equal(_gfilter_valid(plane, window), ref[half:-half, half:-half])


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

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from genfields.regularizer import (  # noqa: E402
    estimate_stats,
    log_likelihood,
    log_likelihood_grad,
    regularized_objective,
)
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
