"""Per-channel Gaussian statistics over style vectors and the log-likelihood term.

Style-space samples for a dataset are summarized by independent per-channel
Gaussians (diagonal model only).  The log-likelihood of a style vector under
those statistics,

    L(S) = - sum_i (s_i - mu_i)^2 / (2 sigma_i^2),

is used as a regularization term: maximizing it keeps an edited style vector
close to the data manifold.  The per-channel sigma_i sits inside the sum; a
single shared scale would contradict per-channel statistics.  L(S) <= 0
always, with equality exactly at the mean.

The analytic gradient is provided for optimizer use.  ``loglik --fd-check``
checks it per channel by a central difference taken in s_i - mu_i and stepped
by max(sigma_i, |s_i - mu_i|), a step that neither rounds away nor cancels far
from the mean.  The log-likelihood and its gradient raise ValueError where they
overflow float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._np import np
from .fileio import _load_csv, _numeric_csv, csv_text
from .losses import _finite_array

__all__ = [
    "ChannelStats",
    "estimate_stats",
    "log_likelihood",
    "log_likelihood_grad",
    "regularized_objective",
    "stats_csv",
    "parse_stats_csv",
    "save_stats_csv",
    "load_stats_csv",
]

DEFAULT_EPSILON_FLOOR = 1e-8


@dataclass(frozen=True, eq=False)
class ChannelStats:
    """Per-channel mean and standard deviation, with a positive sigma floor.

    ``sample_count`` is 0 for statistics loaded from a file, which does not
    record it.
    """

    mu: np.ndarray
    sigma: np.ndarray
    sample_count: int
    epsilon_floor: float

    def __post_init__(self):
        if self.mu.shape != self.sigma.shape or self.mu.ndim != 1:
            raise ValueError(
                f"mu and sigma must be 1-D vectors of equal length, got "
                f"{self.mu.shape} and {self.sigma.shape}"
            )
        if not 0.0 < self.epsilon_floor < math.inf:
            raise ValueError(f"epsilon_floor must be positive and finite, got {self.epsilon_floor}")
        if not (np.isfinite(self.mu).all() and np.isfinite(self.sigma).all()):
            raise ValueError("every mu and sigma must be finite")
        if not np.all(self.sigma >= self.epsilon_floor):
            raise ValueError("every sigma must be at least the epsilon floor")

    @property
    def dims(self) -> int:
        return self.mu.size


def estimate_stats(styles, epsilon_floor: float = DEFAULT_EPSILON_FLOOR) -> ChannelStats:
    """Per-channel mean and population standard deviation of a style dataset.

    Standard deviations below ``epsilon_floor`` (e.g. constant channels) are
    raised to the floor so downstream divisions stay finite.  A channel whose
    mean or standard deviation overflows float64 raises ValueError naming it.
    """
    arr = _finite_array(styles, "style dataset", ndim=2)
    if arr.shape[0] < 2:
        raise ValueError(f"need at least 2 style vectors to estimate statistics, got {arr.shape[0]}")
    with np.errstate(over="ignore", invalid="ignore"):
        mu = arr.mean(axis=0)
        sigma = np.maximum(arr.std(axis=0), epsilon_floor)
    overflow = np.flatnonzero(~(np.isfinite(mu) & np.isfinite(sigma)))
    if overflow.size:
        raise ValueError(f"dim {overflow[0]}: its mean or standard deviation overflows float64")
    return ChannelStats(mu=mu, sigma=sigma, sample_count=arr.shape[0], epsilon_floor=epsilon_floor)


def _check_vector(s, stats: ChannelStats) -> np.ndarray:
    arr = _finite_array(s, "style vector")
    if arr.size != stats.dims:
        raise ValueError(f"style vector has shape {arr.shape}, expected ({stats.dims},)")
    return arr


def _finite(result, what: str):
    if not np.isfinite(result).all():
        raise ValueError(f"{what} overflows: the style vector is too far from the mean")
    return result


def log_likelihood(s, stats: ChannelStats) -> float:
    """Diagonal-Gaussian log-likelihood of a style vector (additive constants dropped)."""
    arr = _check_vector(s, stats)
    with np.errstate(over="ignore"):
        z = (arr - stats.mu) / stats.sigma
        # 0.0 - x, not -x: the value at the mean is 0.0, never -0.0.
        return _finite(float(0.0 - 0.5 * np.dot(z, z)), "log-likelihood")


def log_likelihood_grad(s, stats: ChannelStats) -> np.ndarray:
    """Gradient of :func:`log_likelihood`: -(s_i - mu_i) / sigma_i^2."""
    arr = _check_vector(s, stats)
    with np.errstate(over="ignore"):
        # mu - s, not -(s - mu): 0.0 at the mean, never -0.0.
        return _finite((stats.mu - arr) / stats.sigma**2, "log-likelihood gradient")


def regularized_objective(base_loss: float, s, stats: ChannelStats, weight: float) -> float:
    """Add the style regularization term -L(S), scaled by ``weight``, to a loss.

    No default weight is provided; the trade-off against the base loss is a
    caller decision.
    """
    if not 0.0 <= weight < math.inf:
        raise ValueError(f"weight must be finite and >= 0, got {weight}")
    if not math.isfinite(base_loss):
        raise ValueError(f"base loss must be finite, got {base_loss}")
    total = base_loss + weight * (-log_likelihood(s, stats))
    if not math.isfinite(total):
        raise ValueError(f"regularized objective overflows for base loss {base_loss}, weight {weight}")
    return total


def stats_csv(stats: ChannelStats) -> str:
    """Render statistics as CSV with columns dim,mu,sigma at full precision."""
    return csv_text([("dim", "mu", "sigma"), *zip(range(stats.dims), stats.mu.tolist(),
                                                  stats.sigma.tolist())])


def _stats_header(cells: list[str] | None) -> bool:
    if cells != ["dim", "mu", "sigma"]:
        raise ValueError("statistics CSV must start with header dim,mu,sigma")
    return True


def parse_stats_csv(text: str, epsilon_floor: float = DEFAULT_EPSILON_FLOOR) -> ChannelStats:
    """Parse a dim,mu,sigma CSV of finite numbers.  Rows must be dense and ordered 0..D-1.

    Blank rows and lines starting with ``#`` (report header blocks) are
    ignored.  A negative sigma is an error; a sigma below ``epsilon_floor``,
    zero included, is raised to it, as :func:`estimate_stats` does.
    """
    dims, mu, sigma = _numeric_csv(text, "statistics CSV", _stats_header, 3).T
    bad = np.flatnonzero((dims != np.arange(dims.size)) | (sigma < 0.0))
    if bad.size:
        i = bad[0]
        problem = (f"sigma {sigma[i]} is negative" if dims[i] == i else
                   f"expected dim {i}, got {np.format_float_positional(dims[i], trim='-')}")
        raise ValueError(f"statistics CSV row {i + 1}: {problem}")
    return ChannelStats(mu, np.maximum(sigma, epsilon_floor), 0, epsilon_floor)


def save_stats_csv(stats: ChannelStats, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(stats_csv(stats))


def load_stats_csv(path: str, epsilon_floor: float = DEFAULT_EPSILON_FLOOR) -> ChannelStats:
    return _load_csv(path, "statistics CSV", parse_stats_csv, epsilon_floor)
