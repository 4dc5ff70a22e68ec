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
