"""Statistics over control signals: histograms, top-k sets, and reuse rates.

Control-signal magnitudes vary in range and scale between editing tests, so
each signal is first reduced to normalized absolute values in [0, 1]
(:func:`normalize_abs`).  From there the module builds mean histograms with
error bars across tests, the per-test sets of the k largest-magnitude
dimensions, and reuse rates measuring how often each dimension appears in
those sets across a batch of tests.
"""

from __future__ import annotations

import operator

from ._np import np
from ._record import record
from .losses import _finite_array

__all__ = [
    "SparsityReport",
    "TopKSet",
    "ReuseTable",
    "normalize_abs",
    "histogram_counts",
    "mean_histogram",
    "topk_set",
    "reuse_rates",
]

DEFAULT_BINS = 20
HIGH_FUNCTIONAL_THRESHOLD = 0.6
DEFAULT_TOP_K = 50
# Largest tests x bins histogram matrix _counts builds (512 MB of float64 in
# mean_histogram); larger requests are refused before it is allocated.
MAX_HISTOGRAM_CELLS = 2**26


@record(eq=False)
class SparsityReport:
    """Mean histogram over tests, with per-bin population standard deviations.

    ``high_functional_count`` is the mean number of normalized entries
    strictly above ``HIGH_FUNCTIONAL_THRESHOLD`` (0.6) per test; entries
    exactly at the threshold do not count.
    """

    bins_mean: np.ndarray
    bins_std: np.ndarray
    high_functional_count: float
    tests: int


@record
class TopKSet:
    """Dimensions holding the k largest absolute control values of one test."""

    k: int
    dims: frozenset[int]


@record(eq=False)
class ReuseTable:
    """Union of top-k dimensions across tests, with per-dimension reuse rates.

    ``membership[t, j]`` is 1 when test t's top-k set contains
    ``union_dims[j]``; ``rates`` maps each union dimension to the fraction of
    tests containing it, always in (0, 1].
    """

    union_dims: tuple[int, ...]
    rates: dict[int, float]
    membership: np.ndarray


def _as_signal(delta) -> np.ndarray:
    return _finite_array(delta, "control signal")


def _normalize(signals: np.ndarray) -> np.ndarray:
    """Absolute values of each signal (last axis) scaled by its peak, in place."""
    magnitudes = np.abs(signals, out=signals)
    peak = magnitudes.max(axis=-1, keepdims=True)
    magnitudes /= np.where(peak == 0.0, 1.0, peak)
    return magnitudes


def _check_bins(bins) -> int:
    bins = operator.index(bins)
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    if bins > MAX_HISTOGRAM_CELLS:  # not even one test fits; the value may be too long to print
        raise ValueError(f"bins is above the limit of {MAX_HISTOGRAM_CELLS} histogram cells")
    return bins


def _check_k(k) -> int:
    k = operator.index(k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return k


def _counts(values: np.ndarray, bins: int) -> np.ndarray:
    """Bin counts of each row of a (tests, dims) matrix, by one offset bincount."""
    bins = _check_bins(bins)
    n = len(values)
    if n * bins > MAX_HISTOGRAM_CELLS:
        raise ValueError(
            f"bins={bins} over {n} tests needs {n * bins} histogram "
            f"cells, above the limit of {MAX_HISTOGRAM_CELLS}"
        )
    if values.min() < 0.0 or values.max() > 1.0:
        raise ValueError("histogram input must lie in [0, 1]; normalize first")
    cells = (values * bins).astype(int)
    np.minimum(cells, bins - 1, out=cells)
    cells += bins * np.arange(n)[:, np.newaxis]
    return np.bincount(cells.ravel(), minlength=n * bins).reshape(n, bins)


def normalize_abs(delta) -> np.ndarray:
    """Absolute values scaled by the maximum magnitude, into [0, 1].

    An all-zero signal has no scale and normalizes to all zeros.
    """
    return _normalize(_as_signal(delta).copy())


def histogram_counts(values, bins: int = DEFAULT_BINS) -> np.ndarray:
    """Integer counts of normalized values over equal-width bins of [0, 1].

    Bin membership is floor(v * bins) with the top boundary clamped into the
    last bin, so a value exactly on an interior boundary goes up (0.6 with 20
    bins lands in bin 12).  Counts always sum to the vector dimension.
    More than ``MAX_HISTOGRAM_CELLS`` bins raise ValueError.
    """
    return _counts(_as_signal(values)[np.newaxis], bins)[0]


def mean_histogram(tests, bins: int = DEFAULT_BINS) -> SparsityReport:
    """Normalize each test's signal, histogram it, and average across tests.

    Standard deviations are population (not sample) values; they are
    descriptive error bars, not inferential statistics.
    More than ``MAX_HISTOGRAM_CELLS`` tests x bins cells raise ValueError.
    """
    signals = [_as_signal(t) for t in tests]
    if not signals:
        raise ValueError("mean_histogram requires at least one test")
    n, dim = len(signals), signals[0].size
    for i, s in enumerate(signals):
        if s.size != dim:
            raise ValueError(f"test {i} has dimension {s.size}, expected {dim}")
    norm = _normalize(np.array(signals))
    counts = _counts(norm, bins).astype(float)
    if not (counts.sum(axis=1) == dim).all():
        raise AssertionError("histogram counts must sum to the vector dimension")
    high = np.count_nonzero(norm > HIGH_FUNCTIONAL_THRESHOLD, axis=1)
    return SparsityReport(
        bins_mean=counts.mean(axis=0),
        bins_std=counts.std(axis=0),
        high_functional_count=float(np.mean(high)),
        tests=n,
    )


def topk_set(delta, k: int = DEFAULT_TOP_K) -> TopKSet:
    """Dimensions of the k largest absolute values, ties broken toward smaller index.

    Rank 1 is the highest absolute value; requesting more dimensions than the
    signal has returns the full index set.
    """
    arr = _as_signal(delta)
    k = _check_k(k)
    magnitudes = np.abs(arr)
    if k >= magnitudes.size:
        return TopKSet(k=k, dims=frozenset(range(magnitudes.size)))
    # Every dim above the k-th largest magnitude, then the first dims equal to it:
    # the set a stable descending sort would put first.
    kth = np.partition(magnitudes, magnitudes.size - k)[magnitudes.size - k]
    above = np.flatnonzero(magnitudes > kth)
    ties = np.flatnonzero(magnitudes == kth)[: k - above.size]
    return TopKSet(k=k, dims=frozenset(above.tolist() + ties.tolist()))


def reuse_rates(sets) -> ReuseTable:
    """Union the top-k sets of a batch of tests and rate each dimension.

    The reuse rate of a dimension is the fraction of tests whose set contains
    it; dimensions outside every set never enter the union, so all rates lie
    in [1/N, 1].
    """
    sets = list(sets)
    if not sets:
        raise ValueError("reuse_rates requires at least one top-k set")
    n = len(sets)
    union = sorted(set().union(*(s.dims for s in sets)))
    column = {d: j for j, d in enumerate(union)}
    membership = np.zeros((n, len(union)), dtype=int)
    tests = np.repeat(np.arange(n), [len(s.dims) for s in sets])
    membership[tests, [column[d] for s in sets for d in s.dims]] = 1
    rates = {d: float(c) / n for d, c in zip(union, membership.sum(axis=0))}
    return ReuseTable(union_dims=tuple(union), rates=rates, membership=membership)
