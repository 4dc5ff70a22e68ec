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

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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
# Output rows filtered per block; keeps the filter's temporaries in cache.
FILTER_BLOCK_ROWS = 64

DEFAULT_ALPHA = 0.84
DEFAULT_LAMBDAS = (1.0, 0.01, 0.02)


@dataclass(frozen=True)
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


def as_embedding(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"embedding must be a non-empty 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("embedding values must be finite")
    return arr


def as_landmarks(points) -> np.ndarray:
    """Validate a 68-point landmark set; 2-D sets gain a zero z column."""
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != LANDMARK_COUNT or arr.shape[1] not in (2, 3):
        raise ValueError(
            f"landmark set must have exactly {LANDMARK_COUNT} points with 2 or 3 "
            f"coordinates, got shape {arr.shape}"
        )
    if arr.shape[1] == 2:
        arr = np.column_stack([arr, np.zeros(LANDMARK_COUNT)])
    return arr


def as_image(values) -> np.ndarray:
    """Validate an image: (h, w) or (h, w, 3), values in [0, 1]."""
    arr = np.asarray(values, dtype=float)
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
    a = as_embedding(f_id)
    b = as_embedding(f_out)
    if a.shape != b.shape:
        raise ValueError(f"embedding length mismatch: {a.size} vs {b.size}")
    return float(np.abs(a - b).sum())


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
    return float(np.linalg.norm(pa - pb))


def pose_loss(a: EulerAngles, b: EulerAngles) -> float:
    """L2 norm of the (yaw, pitch, roll) difference, radians."""
    return float(np.linalg.norm(a.as_array() - b.as_array()))


def attr_loss(lnd: float, pose: float) -> float:
    """Attribute loss: landmark term plus pose term."""
    if not all(0.0 <= v < math.inf for v in (lnd, pose)):
        raise ValueError(f"loss components must be finite and >= 0, got {lnd}, {pose}")
    if lnd + pose == math.inf:
        raise ValueError(f"attribute loss overflows for components {lnd}, {pose}")
    return lnd + pose


def _gaussian_window(size: int = SSIM_WINDOW_SIZE, sigma: float = SSIM_WINDOW_SIGMA) -> np.ndarray:
    offsets = np.arange(size) - (size - 1) / 2.0
    w = np.exp(-(offsets**2) / (2.0 * sigma**2))
    return w / w.sum()


def _correlate_valid(x: np.ndarray, window: np.ndarray, out: np.ndarray) -> None:
    """Correlate down axis 0 with a symmetric odd window, valid positions only.

    Taps are summed centre first, then each mirrored pair from the outermost
    inwards: the order ``ndimage.correlate1d`` uses for symmetric windows, so
    the result is bitwise equal to that filter followed by a crop.
    """
    half = window.size // 2
    n = out.shape[0]
    np.multiply(x[half : half + n], window[half], out=out)
    pair = np.empty_like(out)
    for j in range(half, 0, -1):
        np.add(x[half - j : half - j + n], x[half + j : half + j + n], out=pair)
        pair *= window[half - j]
        out += pair


def _gfilter_valid(plane: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Separable Gaussian filtering over the fully valid output positions."""
    edge = 2 * (window.size // 2)
    h, w = plane.shape
    out = np.empty((h - edge, w - edge))
    for r0 in range(0, out.shape[0], FILTER_BLOCK_ROWS):
        r1 = min(r0 + FILTER_BLOCK_ROWS, out.shape[0])
        cols = np.empty((r1 - r0, w))
        _correlate_valid(plane[r0 : r1 + edge], window, cols)
        # Transposed views filter along the rows without copying.
        _correlate_valid(cols.T, window, out[r0:r1].T)
    return out


def _ssim_plane(a: np.ndarray, b: np.ndarray, window: np.ndarray) -> tuple[float, float]:
    """Mean SSIM and mean contrast-structure term of one grayscale plane."""
    mu_a = _gfilter_valid(a, window)
    mu_b = _gfilter_valid(b, window)
    var_a = _gfilter_valid(a * a, window) - mu_a * mu_a
    var_b = _gfilter_valid(b * b, window) - mu_b * mu_b
    cov = _gfilter_valid(a * b, window) - mu_a * mu_b
    cs_map = (2.0 * cov + SSIM_C2) / (var_a + var_b + SSIM_C2)
    lum_map = (2.0 * mu_a * mu_b + SSIM_C1) / (mu_a * mu_a + mu_b * mu_b + SSIM_C1)
    ssim_map = lum_map * cs_map
    return float(ssim_map.mean()), float(cs_map.mean())


def _downsample2(plane: np.ndarray) -> np.ndarray:
    h, w = plane.shape
    trimmed = plane[: 2 * (h // 2), : 2 * (w // 2)]
    return trimmed.reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))


def _ms_ssim_plane(a: np.ndarray, b: np.ndarray, scales: int) -> float:
    window = _gaussian_window()
    weights = np.array(MS_SSIM_WEIGHTS[:scales])
    if scales < len(MS_SSIM_WEIGHTS):
        # Truncated pyramids renormalize; the full set is used as published.
        weights = weights / weights.sum()
    if scales == 1:
        # Single scale is plain SSIM, which may legitimately be negative.
        return _ssim_plane(a, b, window)[0]
    value = 1.0
    for level in range(scales):
        ssim_mean, cs_mean = _ssim_plane(a, b, window)
        # Fractional powers need non-negative bases; anti-correlated inputs
        # can drive cs below zero, which clamps the product to 0.
        term = ssim_mean if level == scales - 1 else cs_mean
        value *= max(term, 0.0) ** weights[level]
        if level < scales - 1:
            a = _downsample2(a)
            b = _downsample2(b)
    return float(value)


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")


def min_side_for_scales(scales: int) -> int:
    """Smallest image side the multi-scale pyramid supports for a scale count (1..5)."""
    if not 1 <= scales <= len(MS_SSIM_WEIGHTS):
        raise ValueError(f"scales must be in [1, {len(MS_SSIM_WEIGHTS)}], got {scales}")
    return SSIM_WINDOW_SIZE * 2 ** (scales - 1)


def ms_ssim(a, b, scales: int = 5) -> float:
    """Multi-scale structural similarity in [-1, 1]; 1 is a perfect match.

    Requires min(height, width) >= 11 * 2^(scales-1), i.e. 176 pixels for the
    default 5 scales; pass a smaller ``scales`` (1..5) for smaller images.
    """
    ia = as_image(a)
    ib = as_image(b)
    if ia.shape != ib.shape:
        raise ValueError(f"image shape mismatch: {ia.shape} vs {ib.shape}")
    need = min_side_for_scales(scales)
    if min(ia.shape[0], ia.shape[1]) < need:
        raise ValueError(
            f"image sides must be at least {need} pixels for {scales} scales; "
            f"got {ia.shape[0]}x{ia.shape[1]} -- use fewer scales"
        )
    if ia.ndim == 2:
        return _ms_ssim_plane(ia, ib, scales)
    channels = [_ms_ssim_plane(ia[:, :, c], ib[:, :, c], scales) for c in range(ia.shape[2])]
    return float(np.mean(channels))


def reconstruction_loss(
    i_attr, i_out, alpha: float = DEFAULT_ALPHA, same_inputs: bool = False, scales: int = 5
) -> float:
    """Pixel-consistency loss, gated to the reconstruction regime.

    When ``same_inputs`` is set (the attribute image is the identity image),
    returns alpha * (1 - MS-SSIM) + (1 - alpha) * mean per-pixel L1; the L1
    term is a mean so alpha mixes quantities on comparable scales.  Otherwise
    the loss is exactly 0 regardless of content.
    """
    ia = as_image(i_attr)
    ib = as_image(i_out)
    if ia.shape != ib.shape:
        raise ValueError(f"image shape mismatch: {ia.shape} vs {ib.shape}")
    _check_alpha(alpha)
    if not same_inputs:
        return 0.0
    structural = 1.0 - ms_ssim(ia, ib, scales)
    pixel_l1 = float(np.abs(ia - ib).mean())
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
    if not all(0.0 <= v < math.inf for v in (l_id, l_attr, l_rec)):
        raise ValueError(f"loss components must be finite and >= 0, got {l_id}, {l_attr}, {l_rec}")
    if not all(math.isfinite(v) for v in (lambda_id, lambda_attr, lambda_rec)):
        raise ValueError(
            f"loss weights must be finite, got {lambda_id}, {lambda_attr}, {lambda_rec}"
        )
    total = lambda_id * l_id + lambda_attr * l_attr + lambda_rec * l_rec
    if not math.isfinite(total):
        raise ValueError(f"total loss overflows for components {l_id}, {l_attr}, {l_rec}")
    return total


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
    a = as_embedding(f_id)
    b = as_embedding(f_out)
    if a.shape != b.shape:
        raise ValueError(f"embedding length mismatch: {a.size} vs {b.size}")
    if resolution <= 0:
        raise ValueError(f"resolution must be positive, got {resolution}")
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("cosine similarity is undefined for a zero-norm embedding")
    identity = float(np.dot(a, b) / (norm_a * norm_b))
    expression = landmark_loss(lm_attr, lm_out) / resolution
    pose = float(np.mean((ang_attr.as_array() - ang_out.as_array()) ** 2))
    return EvalMetrics(identity=identity, expression=expression, pose=pose)
