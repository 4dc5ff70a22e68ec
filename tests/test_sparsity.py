import numpy as np
import pytest

from genfields.sparsity import (
    histogram_counts,
    mean_histogram,
    normalize_abs,
    reuse_rates,
    topk_set,
)


def test_normalize_abs_example():
    np.testing.assert_allclose(normalize_abs([0.1, -0.2, 0.4]), [0.25, 0.5, 1.0])


def test_normalize_abs_degenerate_zero():
    np.testing.assert_array_equal(normalize_abs([0.0, 0.0, 0.0]), [0.0, 0.0, 0.0])


def test_normalize_abs_single_element():
    np.testing.assert_array_equal(normalize_abs([-5.0]), [1.0])


def test_normalize_abs_scale_invariance_1000_trials():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        dim = int(rng.integers(1, 40))
        v = rng.normal(size=dim)
        c = float(rng.uniform(0.01, 100.0)) * (-1.0 if rng.random() < 0.5 else 1.0)
        np.testing.assert_allclose(normalize_abs(c * v), normalize_abs(v), rtol=1e-12)


def test_histogram_bin_edges():
    counts = histogram_counts([0.0, 0.049, 1.0])
    assert counts[0] == 2
    assert counts[19] == 1
    assert counts.sum() == 3


def test_histogram_all_zeros():
    counts = histogram_counts(np.zeros(4928))
    assert counts[0] == 4928
    assert counts.sum() == 4928


def test_histogram_boundary_goes_up():
    counts = histogram_counts([0.6])
    assert counts[12] == 1


def test_histogram_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        histogram_counts([0.5, 1.2])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        histogram_counts([-0.1])


def test_histogram_counts_sum_to_dimension():
    rng = np.random.default_rng(3)
    for _ in range(200):
        dim = int(rng.integers(1, 300))
        v = rng.uniform(size=dim)
        assert histogram_counts(v).sum() == dim


def test_mean_histogram_identical_tests_zero_std():
    v = np.array([0.3, -0.5, 0.9])
    report = mean_histogram([v, v, v])
    np.testing.assert_array_equal(report.bins_std, np.zeros(20))
    assert report.tests == 3


def test_mean_histogram_population_std():
    # two tests whose bin-0 counts are 10 and 20: mean 15, population std 5
    a = np.concatenate([np.full(10, 0.01), np.full(20, 0.99)])
    b = np.concatenate([np.full(20, 0.01), np.full(10, 0.99)])
    report = mean_histogram([a, b])
    assert report.bins_mean[0] == 15.0
    assert report.bins_std[0] == 5.0


def test_mean_histogram_high_functional_count():
    report = mean_histogram([np.array([0.7, 0.2])])
    assert report.high_functional_count == 1.0


def test_mean_histogram_boundary_not_high():
    # normalized values: 1.0 and exactly 0.6; strict threshold keeps 0.6 out
    report = mean_histogram([np.array([1.0, 0.6])])
    assert report.high_functional_count == 1.0


def test_high_threshold_keyword_is_gone():
    # high_functional_count always counts entries above HIGH_FUNCTIONAL_THRESHOLD.
    with pytest.raises(TypeError, match="high_threshold"):
        mean_histogram([np.array([0.7, 0.2])], high_threshold=0.6)


def test_mean_histogram_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        mean_histogram([np.zeros(3), np.zeros(4)])


def test_mean_histogram_empty():
    with pytest.raises(ValueError, match="at least one"):
        mean_histogram([])


def test_topk_example():
    assert topk_set([3.0, -1.0, 2.0], k=2).dims == {0, 2}


def test_topk_tie_break_smaller_index():
    assert topk_set([1.0, 1.0, 1.0], k=2).dims == {0, 1}


def test_topk_k_exceeding_dimension():
    assert topk_set([1.0, 2.0], k=50).dims == {0, 1}


def test_topk_invariances():
    rng = np.random.default_rng(31)
    for _ in range(100):
        v = rng.normal(size=30)
        base = topk_set(v, 7).dims
        assert topk_set(2.5 * v, 7).dims == base
        assert topk_set(-v, 7).dims == base


def test_topk_rejects_bad_k():
    with pytest.raises(ValueError, match="k must be"):
        topk_set([1.0], k=0)


def test_reuse_rates_hand_example():
    t1 = topk_set([0.0, 5.0, 4.0, 0.0], k=2)  # {1, 2}
    t2 = topk_set([0.0, 0.0, 5.0, 4.0], k=2)  # {2, 3}
    assert t1.dims == {1, 2} and t2.dims == {2, 3}
    table = reuse_rates([t1, t2])
    assert table.union_dims == (1, 2, 3)
    assert table.rates == {1: 0.5, 2: 1.0, 3: 0.5}


def test_reuse_rates_identical_sets():
    t = topk_set([3.0, 2.0, 1.0], k=2)
    table = reuse_rates([t, t, t])
    assert all(rate == 1.0 for rate in table.rates.values())


def test_reuse_rates_bounds_and_union_size():
    rng = np.random.default_rng(63)
    k = 50
    sets = [topk_set(rng.normal(size=512), k) for _ in range(10)]
    table = reuse_rates(sets)
    n = len(sets)
    assert k <= len(table.union_dims) <= n * k
    for rate in table.rates.values():
        assert 1.0 / n <= rate <= 1.0
    # membership matrix is consistent with the rates
    np.testing.assert_allclose(table.membership.mean(axis=0), [table.rates[d] for d in table.union_dims])
    assert list(table.union_dims) == sorted(table.union_dims)


def test_reuse_rates_empty():
    with pytest.raises(ValueError, match="at least one"):
        reuse_rates([])


def test_mean_histogram_refuses_oversize_before_allocating(monkeypatch):
    from genfields import sparsity

    monkeypatch.setattr(sparsity, "MAX_HISTOGRAM_CELLS", 100)
    tests = [np.arange(1.0, 5.0)] * 5
    assert mean_histogram(tests, bins=20).bins_mean.shape == (20,)  # 5 x 20 = 100 cells
    with pytest.raises(ValueError, match="bins=21 over 5 tests needs 105 histogram cells"):
        mean_histogram(tests, bins=21)


def test_histogram_counts_refuses_oversize_before_counting(monkeypatch):
    from genfields import sparsity

    monkeypatch.setattr(sparsity, "MAX_HISTOGRAM_CELLS", 100)
    assert histogram_counts([0.5, 1.0], bins=100).sum() == 2

    def bincount(*args, **kwargs):
        raise AssertionError("bincount ran")

    monkeypatch.setattr(np, "bincount", bincount)
    with pytest.raises(ValueError, match="^bins is above the limit of 100 histogram cells$"):
        histogram_counts([0.5, 1.0], bins=101)


@pytest.mark.parametrize("fn", [histogram_counts, lambda v, bins: mean_histogram([v, v], bins=bins)],
                         ids=["histogram_counts", "mean_histogram"])
def test_bins_too_long_to_print_refused_by_the_limit(fn):
    # 4,300 digits parse; the cells of two tests would pass int-to-str's limit of 4,300 digits
    with pytest.raises(ValueError, match="^bins is above the limit of 67108864 histogram cells$"):
        fn(np.array([0.5, 1.0]), bins=int("9" * 4300))


@pytest.mark.parametrize("fn", [
    normalize_abs,
    histogram_counts,
    topk_set,
    lambda v: mean_histogram([np.ones(2), v]),
], ids=["normalize_abs", "histogram_counts", "topk_set", "mean_histogram"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_signal_rejected(fn, bad):
    with pytest.raises(ValueError, match="must be finite"):
        fn(np.array([0.5, bad]))


# --------------------------------------------------------------------------
# Reference: the per-test loops the whole-matrix mean_histogram and the
# indexed reuse_rates replaced, kept verbatim.

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from genfields.sparsity import (  # noqa: E402
    DEFAULT_BINS,
    HIGH_FUNCTIONAL_THRESHOLD,
    MAX_HISTOGRAM_CELLS,
    ReuseTable,
    SparsityReport,
    _as_signal,
)


def reference_mean_histogram(
    tests,
    bins: int = DEFAULT_BINS,
    high_threshold: float = HIGH_FUNCTIONAL_THRESHOLD,
) -> SparsityReport:
    signals = [_as_signal(t) for t in tests]
    if not signals:
        raise ValueError("mean_histogram requires at least one test")
    dim = signals[0].size
    for i, s in enumerate(signals):
        if s.size != dim:
            raise ValueError(f"test {i} has dimension {s.size}, expected {dim}")
    if len(signals) * bins > MAX_HISTOGRAM_CELLS:
        raise ValueError(
            f"bins={bins} over {len(signals)} tests needs {len(signals) * bins} histogram "
            f"cells, above the limit of {MAX_HISTOGRAM_CELLS}"
        )
    histograms = []
    high_counts = []
    for s in signals:
        v = normalize_abs(s)
        h = histogram_counts(v, bins)
        if int(h.sum()) != dim:
            raise AssertionError("histogram counts must sum to the vector dimension")
        histograms.append(h)
        high_counts.append(int(np.count_nonzero(v > high_threshold)))
    stacked = np.array(histograms, dtype=float)
    return SparsityReport(
        bins_mean=stacked.mean(axis=0),
        bins_std=stacked.std(axis=0),
        high_functional_count=float(np.mean(high_counts)),
        tests=len(signals),
    )


def reference_reuse_rates(sets) -> ReuseTable:
    sets = list(sets)
    if not sets:
        raise ValueError("reuse_rates requires at least one top-k set")
    n = len(sets)
    union = sorted(set().union(*(s.dims for s in sets)))
    membership = np.zeros((n, len(union)), dtype=int)
    for t, s in enumerate(sets):
        for j, d in enumerate(union):
            if d in s.dims:
                membership[t, j] = 1
    counts = membership.sum(axis=0)
    rates = {d: float(c) / n for d, c in zip(union, counts)}
    return ReuseTable(union_dims=tuple(union), rates=rates, membership=membership)


def field_reprs(obj) -> dict:
    """repr of every record field; arrays by dtype, shape and full-precision values."""
    out = {}
    for name, value in vars(obj).items():
        if isinstance(value, np.ndarray):
            value = (value.dtype, value.shape, value.tolist())
        out[name] = repr(value)
    return out


def assert_matches_reference(matrix, k, bins):
    sets = [topk_set(row, k) for row in matrix]
    for tests in (matrix, list(matrix)):
        got = field_reprs(mean_histogram(tests, bins=bins))
        assert got == field_reprs(reference_mean_histogram(matrix, bins=bins))
    assert field_reprs(reuse_rates(sets)) == field_reprs(reference_reuse_rates(sets))


def test_matrix_paths_equal_reference_loops_1000_cases():
    rng = np.random.default_rng(2024)
    for case in range(1000):
        n, dim = int(rng.integers(1, 12)), int(rng.integers(1, 40))
        if case % 2:  # few magnitudes: ties at the k-th value, 0.6 on the threshold
            matrix = rng.choice([0.0, -0.25, 0.5, 0.6, -0.6, 1.0, -1.0, 3.0], size=(n, dim))
        else:
            matrix = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=(n, dim))
        matrix[rng.random(n) < 0.2] = 0.0  # all-zero tests
        k = int(rng.integers(1, dim + 4))  # k >= dim included
        assert_matches_reference(matrix, k, int(rng.integers(1, 25)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.integers(1, 8).flatmap(lambda n: st.integers(1, 24).flatmap(lambda dim: st.tuples(
        st.lists(st.lists(st.sampled_from([0.0, -0.6, 0.6, 1.0, -1.0, 3.0, 1e-300]),
                          min_size=dim, max_size=dim), min_size=n, max_size=n),
        st.integers(1, dim + 3),
    ))),
    st.integers(1, 30),
)
def test_matrix_paths_equal_reference_loops_property(matrix_and_k, bins):
    rows, k = matrix_and_k
    assert_matches_reference(np.array(rows), k, bins)
    # every top-k set holds min(k, dim) dims, so their union lies between one set and all
    n, dim = len(rows), len(rows[0])
    union = reuse_rates([topk_set(row, k) for row in rows]).union_dims
    assert min(k, dim) <= len(union) <= min(n * k, dim)


def reference_topk_dims(delta, k) -> frozenset[int]:
    """The first k dims of a stable sort by descending magnitude."""
    return frozenset(np.argsort(-np.abs(np.asarray(delta, dtype=float)), kind="stable")[:k].tolist())


def test_topk_equals_stable_sort_1000_cases():
    rng = np.random.default_rng(77)
    for case in range(1000):
        dim = int(rng.integers(1, 40))
        if case % 2:  # few magnitudes, both signs and zeros: ties at the k-th value
            delta = rng.choice([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0], size=dim)
        else:
            delta = rng.normal(size=dim)
        k = int(rng.integers(1, dim + 4))  # k >= dim included
        assert topk_set(delta, k).dims == reference_topk_dims(delta, k)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 0.6, -0.6, 1.0, -1.0, 1e-300, 5e-324]), min_size=1,
                max_size=30), st.integers(1, 33))
def test_topk_equals_stable_sort_property(delta, k):
    assert topk_set(delta, k).dims == reference_topk_dims(delta, k)
