"""Numeric editing losses and evaluation metrics over precomputed inputs.

Everything here operates on tensors supplied by the caller -- identity
embeddings, 68-point facial landmark sets, head-pose Euler angles, and images
in [0, 1].  No networks live in this package; these are the pure kernels a
training or evaluation loop plugs its detector outputs into.

Losses:

* :func:`identity_loss` -- unnormalized L1 distance between embeddings.
* :func:`landmark_loss` -- L2 norm of stacked landmark coordinate
  differences, by default restricted to the 51 inner-face points (1-based
  indices 18..68); the 17 jawline points track face shape, not expression.
* :func:`pose_loss` -- L2 norm of (yaw, pitch, roll) differences, radians.
* :func:`reconstruction_loss` -- alpha * (1 - MS-SSIM) + (1 - alpha) * mean
  pixel L1 when both inputs are the same source image, else exactly 0.  The
  structural term enters as 1 - similarity so that minimizing the loss
  maximizes similarity; the raw similarity is exposed as :func:`ms_ssim`.
* :func:`total_loss` -- weighted sum with defaults (1, 0.01, 0.02).

The MS-SSIM here is the standard 5-scale variant: 11x11 Gaussian window with
sigma 1.5, stabilizers C1 = 0.01^2 and C2 = 0.03^2 for unit dynamic range,
scale weights (0.0448, 0.2856, 0.3001, 0.2363, 0.1333), dyadic downsampling
by 2x2 mean pooling.  RGB images are scored per channel and averaged.  The
Gaussian is applied over the valid region only -- output pixels whose whole
window lies inside the image -- so no border padding is involved.
"""

from __future__ import annotations

import contextvars
import math
import operator
import os
import threading
from typing import NamedTuple

from ._np import np
from ._record import record

__all__ = [
    "EulerAngles",
    "EvalMetrics",
    "as_embedding",
    "as_landmarks",
    "as_image",
    "identity_loss",
    "landmark_loss",
    "pose_loss",
    "attr_loss",
    "ms_ssim",
    "reconstruction_loss",
    "total_loss",
    "eval_metrics",
]

LANDMARK_COUNT = 68
INNER_LANDMARK_START = 17  # 0-based; 1-based landmark 18, first non-jawline point

MS_SSIM_WEIGHTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)
SSIM_WINDOW_SIZE = 11
SSIM_WINDOW_SIGMA = 1.5
SSIM_C1 = 0.01**2
SSIM_C2 = 0.03**2
# Rows of one channel per filter block; a stack of c channels takes 1/c as many, so its
# temporaries stay one plane's size.  A fixed cell budget made narrow images' blocks
# taller, costing a 256x256 RGB call in a fresh process ~3,700 more page faults.
FILTER_BLOCK_ROWS = 64
# Map stacks of fewer cells, all channels counted, are filled on the calling thread
# alone: on 2 CPUs, splitting every level slowed 256x256 RGB calls from 0.038 s to
# 0.053 s, the GIL hand-offs costing more than the small levels' filtering.
THREAD_MIN_CELLS = 2**18

DEFAULT_ALPHA = 0.84
DEFAULT_LAMBDAS = (1.0, 0.01, 0.02)


@record
class EulerAngles:
    """Head pose as yaw/pitch/roll, radians, each strictly inside (-pi/2, pi/2)."""

    yaw: float
    pitch: float
    roll: float

    def __post_init__(self):
        limit = math.pi / 2
        for name in ("yaw", "pitch", "roll"):
            value = getattr(self, name)
            if not -limit < value < limit:
                raise ValueError(f"{name} must lie in (-pi/2, pi/2), got {value}")

    def as_array(self) -> np.ndarray:
        return np.array([self.yaw, self.pitch, self.roll])


class EvalMetrics(NamedTuple):
    identity: float
    expression: float
    pose: float


_ARRAY_KINDS = {1: "a non-empty 1-D vector", 2: "a non-empty 2-D matrix"}


def _float_array(values, what: str, kind: str) -> np.ndarray:
    """``values`` as floats, converted once; a ValueError naming ``what`` if they are not real numbers."""
    try:
        arr = np.asarray(values)
        if arr.dtype.kind == "c":  # casting would drop the imaginary part
            raise TypeError
        return arr.astype(float, copy=False)
    except OverflowError:  # an int past float's range
        raise ValueError(f"{what} values must be finite") from None
    except (TypeError, ValueError):  # ragged, complex, or a string or other object
        raise ValueError(f"{what} must be {kind} of numbers") from None


def _finite_array(values, what: str, ndim: int = 1) -> np.ndarray:
    """``values`` as a non-empty float array of ``ndim`` axes, all finite; errors begin with ``what``."""
    kind = _ARRAY_KINDS[ndim]
    arr = _float_array(values, what, kind)
    if arr.ndim != ndim or arr.size == 0:
        raise ValueError(f"{what} must be {kind}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} values must be finite")
    return arr


def _same_shape(check, a, b, what: str) -> tuple[np.ndarray, np.ndarray]:
    """``check(a)`` and ``check(b)``, which must have the same shape."""
    x, y = check(a), check(b)
    if x.shape != y.shape:
        raise ValueError(f"{what} shape mismatch: {x.shape} vs {y.shape}")
    return x, y


def _components(*values: float) -> str:
    """``values`` as errors quote them, once each is checked to be finite and >= 0."""
    shown = ", ".join(map(str, values))
    if not all(0.0 <= v < math.inf for v in values):
        raise ValueError(f"loss components must be finite and >= 0, got {shown}")
    return shown


def _finite_result(value, what: str):
    """``value``, a float or an array; ValueError naming ``what`` if any of it overflowed."""
    if not np.isfinite(value).all():
        raise ValueError(f"{what} overflows float64")
    return value


def as_embedding(values) -> np.ndarray:
    return _finite_array(values, "embedding")


def as_landmarks(points) -> np.ndarray:
    """Validate a 68-point landmark set; 2-D sets gain a zero z column."""
    arr = _finite_array(points, "landmark set", ndim=2)
    if arr.shape[0] != LANDMARK_COUNT or arr.shape[1] not in (2, 3):
        raise ValueError(
            f"landmark set must have exactly {LANDMARK_COUNT} points with 2 or 3 "
            f"coordinates, got shape {arr.shape}"
        )
    if arr.shape[1] == 2:
        arr = np.column_stack([arr, np.zeros(LANDMARK_COUNT)])
    return arr


def as_image(values) -> np.ndarray:
    """Validate an image: (h, w) or (h, w, 3), values in [0, 1]."""
    arr = _float_array(values, "image", "an (h, w) or (h, w, 3) array")
    if arr.ndim == 3 and arr.shape[2] == 1:
        arr = arr[:, :, 0]
    if arr.ndim not in (2, 3) or (arr.ndim == 3 and arr.shape[2] != 3):
        raise ValueError(f"image must be (h, w) or (h, w, 3), got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"image dimensions must be positive, got shape {arr.shape}")
    # min/max propagate NaN, which fails both comparisons
    if not (arr.min() >= 0.0 and arr.max() <= 1.0):
        raise ValueError("image values must be finite and lie in [0, 1]")
    return arr


def identity_loss(f_id, f_out) -> float:
    """Sum of absolute embedding differences (plain L1 norm, no normalization)."""
    a, b = _same_shape(as_embedding, f_id, f_out, "embedding")
    with np.errstate(over="ignore"):
        return float(_finite_result(np.abs(a - b).sum(), "identity loss"))


def landmark_loss(a, b, inner_only: bool = True) -> float:
    """L2 norm of the stacked coordinate differences between two landmark sets.

    With ``inner_only`` (the default) only the 51 inner-face landmarks
    (1-based 18..68) contribute; jawline differences are ignored.
    """
    pa = as_landmarks(a)
    pb = as_landmarks(b)
    if inner_only:
        pa = pa[INNER_LANDMARK_START:]
        pb = pb[INNER_LANDMARK_START:]
    with np.errstate(over="ignore"):
        return float(_finite_result(np.linalg.norm(pa - pb), "landmark loss"))


def pose_loss(a: EulerAngles, b: EulerAngles) -> float:
    """L2 norm of the (yaw, pitch, roll) difference, radians."""
    return float(np.linalg.norm(a.as_array() - b.as_array()))


def attr_loss(lnd: float, pose: float) -> float:
    """Attribute loss: landmark term plus pose term."""
    shown = _components(lnd, pose)
    if lnd + pose == math.inf:
        raise ValueError(f"attribute loss overflows for components {shown}")
    return lnd + pose


def _gaussian_window() -> np.ndarray:
    offsets = np.arange(SSIM_WINDOW_SIZE) - (SSIM_WINDOW_SIZE - 1) / 2.0
    w = np.exp(-(offsets**2) / (2.0 * SSIM_WINDOW_SIGMA**2))
    return w / w.sum()


def _correlate_valid(x: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Correlate down axis 0 with a symmetric odd window, valid positions only.

    Taps are summed centre first, then each mirrored pair from the outermost
    inwards: the order ``ndimage.correlate1d`` uses for symmetric windows, so
    the result is bitwise equal to that filter followed by a crop.
    """
    half = window.size // 2
    n = x.shape[0] - 2 * half
    out = x[half : half + n] * window[half]
    pair = np.empty_like(out)
    for j in range(half, 0, -1):
        np.add(x[half - j : half - j + n], x[half + j : half + j + n], out=pair)
        pair *= window[half - j]
        out += pair
    return out


def _gfilter_valid(plane: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Separable Gaussian filtering of an (h, w) plane or (h, w, c) stack, valid positions only."""
    cols = _correlate_valid(plane, window)
    # The row pass runs down a contiguous copy with the width first: on
    # strided views each ufunc call costs nearly twice as much.
    rows = np.ascontiguousarray(np.moveaxis(cols, 0, -1))
    return np.moveaxis(_correlate_valid(rows, window), -1, 0)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _in_threads(fill, items: list, workers: int) -> None:
    """``fill`` on ``workers`` contiguous runs of ``items``, the first run on this thread.

    Each worker runs in a copy of the caller's context, which carries
    ``np.errstate`` (numpy >= 2 keeps it in a context variable).  Every worker
    is joined before the first exception raised by any run is re-raised here.
    """
    runs = [items[len(items) * i // workers : len(items) * (i + 1) // workers] for i in range(workers)]
    errors = []

    def work(run):
        try:
            fill(run)
        except BaseException as exc:  # re-raised in the caller below
            errors.append(exc)

    threads = [
        threading.Thread(target=contextvars.copy_context().run, args=(work, run)) for run in runs[1:]
    ]
    for thread in threads:
        thread.start()
    work(runs[0])
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _ssim_plane(a: np.ndarray, b: np.ndarray, window: np.ndarray, lum: bool = True) -> list[float]:
    """Mean SSIM of each channel of an (h, w, c) stack, or without ``lum`` its mean contrast-structure term.

    The maps averaged, one C-contiguous map per channel, are the only whole-image arrays:
    every filtered moment, and with ``lum`` the contrast-structure term too, is taken for all
    channels at once, ``FILTER_BLOCK_ROWS // c`` output rows at a time, and written into the
    maps' rows with the whole-plane expressions, so each mean is bitwise the same.  Stacks of
    at least ``THREAD_MIN_CELLS`` map cells are filled by one thread per usable CPU; numpy
    releases the GIL inside each ufunc.
    """
    edge = 2 * (window.size // 2)
    h, w, c = a.shape
    maps = np.empty((c, h - edge, w - edge))
    step = max(1, FILTER_BLOCK_ROWS // c)

    def fill(blocks):
        for r0 in blocks:
            r1 = min(r0 + step, h - edge)
            pa, pb = a[r0 : r1 + edge], b[r0 : r1 + edge]
            mu_a = _gfilter_valid(pa, window)
            mu_b = _gfilter_valid(pb, window)
            var_a = _gfilter_valid(pa * pa, window) - mu_a * mu_a
            var_b = _gfilter_valid(pb * pb, window) - mu_b * mu_b
            cov = _gfilter_valid(pa * pb, window) - mu_a * mu_b
            out = np.moveaxis(maps[:, r0:r1], 0, -1)
            cs = np.divide(2.0 * cov + SSIM_C2, var_a + var_b + SSIM_C2, out=None if lum else out)
            if lum:
                lum_map = (2.0 * mu_a * mu_b + SSIM_C1) / (mu_a * mu_a + mu_b * mu_b + SSIM_C1)
                np.multiply(lum_map, cs, out=out)

    blocks = list(range(0, h - edge, step))
    workers = min(_usable_cpus(), len(blocks)) if maps.size >= THREAD_MIN_CELLS else 1
    _in_threads(fill, blocks, workers)
    return [float(m.mean()) for m in maps]


def _downsample2(plane: np.ndarray) -> np.ndarray:
    """2x2 mean pooling, an odd last row or column dropped.

    Each quad sums as (top pair) + (bottom pair), then divides by 4, on any
    numpy: the grouping of ``reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))``,
    which the tests hold it to bitwise.
    """
    h, w = 2 * (plane.shape[0] // 2), 2 * (plane.shape[1] // 2)
    out = (plane[0:h:2, 0:w:2] + plane[0:h:2, 1:w:2]) + (plane[1:h:2, 0:w:2] + plane[1:h:2, 1:w:2])
    out /= 4
    return out


def _ms_ssim_plane(a: np.ndarray, b: np.ndarray, scales: int) -> list[float]:
    """MS-SSIM of each channel of an (h, w, c) stack."""
    window = _gaussian_window()
    weights = np.array(MS_SSIM_WEIGHTS[:scales])
    if scales < len(MS_SSIM_WEIGHTS):
        # Truncated pyramids renormalize; the full set is used as published.
        weights = weights / weights.sum()
    if scales == 1:
        # Single scale is plain SSIM, which may legitimately be negative.
        return _ssim_plane(a, b, window)
    values = [1.0] * a.shape[2]
    for level in range(scales):
        # Luminance enters at the coarsest scale only (Wang et al., 2003).
        last = level == scales - 1
        # Fractional powers need non-negative bases; anti-correlated inputs
        # can drive cs below zero, which clamps the product to 0.
        means = _ssim_plane(a, b, window, lum=last)
        values = [v * max(m, 0.0) ** weights[level] for v, m in zip(values, means)]
        if not last:
            a, b = _downsample2(a), _downsample2(b)
    return values


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")


def min_side_for_scales(scales: int) -> int:
    """Smallest image side the multi-scale pyramid supports for a scale count (an int, 1..5)."""
    scales = operator.index(scales)
    if not 1 <= scales <= len(MS_SSIM_WEIGHTS):
        raise ValueError(f"scales must be in [1, {len(MS_SSIM_WEIGHTS)}], got {scales}")
    return SSIM_WINDOW_SIZE * 2 ** (scales - 1)


def ms_ssim(a, b, scales: int = 5) -> float:
    """Multi-scale structural similarity in [-1, 1]; 1 is a perfect match.

    Requires min(height, width) >= 11 * 2^(scales-1), i.e. 176 pixels for the
    default 5 scales; pass a smaller ``scales`` (1..5) for smaller images.
    """
    ia, ib = _same_shape(as_image, a, b, "image")
    need = min_side_for_scales(scales)
    if min(ia.shape[0], ia.shape[1]) < need:
        raise ValueError(
            f"image sides must be at least {need} pixels for {scales} scales; "
            f"got {ia.shape[0]}x{ia.shape[1]} -- use fewer scales"
        )
    # Grayscale is one channel; RGB scores are averaged over the channels.
    return float(np.mean(_ms_ssim_plane(np.atleast_3d(ia), np.atleast_3d(ib), scales)))


def reconstruction_loss(
    i_attr, i_out, alpha: float = DEFAULT_ALPHA, same_inputs: bool = False, scales: int = 5
) -> float:
    """Pixel-consistency loss, gated to the reconstruction regime.

    When ``same_inputs`` is set (the attribute image is the identity image),
    returns alpha * (1 - MS-SSIM) + (1 - alpha) * mean per-pixel L1; the L1
    term is a mean so alpha mixes quantities on comparable scales.  Otherwise
    the loss is exactly 0 regardless of content, with ``scales`` checked all the same.
    """
    _check_alpha(alpha)
    if not same_inputs:
        _same_shape(as_image, i_attr, i_out, "image")
        min_side_for_scales(scales)
        return 0.0
    structural = 1.0 - ms_ssim(i_attr, i_out, scales)  # checks both images
    # ms_ssim matched them as (h, w, 1) squeezed to (h, w), so sizes agree, not always shapes
    a = np.asarray(i_attr, dtype=float)
    diff = a - np.asarray(i_out, dtype=float).reshape(a.shape)
    pixel_l1 = float(np.abs(diff, out=diff).mean())
    return alpha * structural + (1.0 - alpha) * pixel_l1


def total_loss(
    l_id: float,
    l_attr: float,
    l_rec: float,
    lambda_id: float = DEFAULT_LAMBDAS[0],
    lambda_attr: float = DEFAULT_LAMBDAS[1],
    lambda_rec: float = DEFAULT_LAMBDAS[2],
) -> float:
    """Weighted sum of the loss components; defaults are (1, 0.01, 0.02)."""
    shown = _components(l_id, l_attr, l_rec)
    if not all(math.isfinite(v) for v in (lambda_id, lambda_attr, lambda_rec)):
        raise ValueError(
            f"loss weights must be finite, got {lambda_id}, {lambda_attr}, {lambda_rec}"
        )
    total = lambda_id * l_id + lambda_attr * l_attr + lambda_rec * l_rec
    if not math.isfinite(total):
        raise ValueError(f"total loss overflows for components {shown}")
    return total


def _unit_peak(v: np.ndarray) -> np.ndarray:
    """``v`` times the power of two that brings its largest magnitude into [0.5, 1).

    The scaling is exact unless entries fall below the normal range, so a
    cosine similarity keeps its bits, and its norms and dot product can no
    longer overflow or vanish.
    """
    peak = np.abs(v).max()
    if peak == 0.0:
        raise ValueError("cosine similarity is undefined for a zero-norm embedding")
    return np.ldexp(v, -math.frexp(peak)[1])


def eval_metrics(
    f_id,
    f_out,
    lm_attr,
    lm_out,
    ang_attr: EulerAngles,
    ang_out: EulerAngles,
    resolution: int,
) -> EvalMetrics:
    """Evaluation triple: identity similarity, expression error, pose error.

    Identity is the cosine similarity between embeddings (1 is identical,
    0 orthogonal).  Expression is the landmark loss divided by the image
    resolution, making it comparable across resolutions.  Pose is the mean
    squared deviation of the three Euler angles.
    """
    a, b = _same_shape(as_embedding, f_id, f_out, "embedding")
    if not 0 < resolution < math.inf:
        raise ValueError(f"resolution must be positive and finite, got {resolution}")
    a, b = _unit_peak(a), _unit_peak(b)
    identity = float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
    expression = landmark_loss(lm_attr, lm_out) / resolution
    pose = float(np.mean((ang_attr.as_array() - ang_out.as_array()) ** 2))
    return EvalMetrics(identity=identity, expression=expression, pose=pose)
