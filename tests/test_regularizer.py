import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genfields.regularizer import (
    ChannelStats,
    estimate_stats,
    load_stats_csv,
    log_likelihood,
    log_likelihood_grad,
    parse_stats_csv,
    regularized_objective,
    save_stats_csv,
    stats_csv,
)

FD_STEP = 1e-5


def fd_gradient(s, stats):
    """Independent central-difference oracle for the gradient."""
    s = np.asarray(s, dtype=float)
    grad = np.empty_like(s)
    for i in range(s.size):
        hi = s.copy()
        hi[i] += FD_STEP
        lo = s.copy()
        lo[i] -= FD_STEP
        grad[i] = (log_likelihood(hi, stats) - log_likelihood(lo, stats)) / (2 * FD_STEP)
    return grad


def test_two_point_stats():
    stats = estimate_stats([[0.0, 0.0], [2.0, 2.0]])
    np.testing.assert_array_equal(stats.mu, [1.0, 1.0])
    np.testing.assert_array_equal(stats.sigma, [1.0, 1.0])
    assert stats.sample_count == 2


def test_constant_channel_floored():
    stats = estimate_stats([[5.0, 1.0], [5.0, 3.0], [5.0, 2.0]])
    assert stats.sigma[0] == stats.epsilon_floor == 1e-8
    assert stats.sigma[1] > 1e-3


def test_stats_against_plain_python_sums():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(37, 4))
    stats = estimate_stats(data)
    for j in range(4):
        col = [float(v) for v in data[:, j]]
        mean = math.fsum(col) / len(col)
        var = math.fsum((x - mean) ** 2 for x in col) / len(col)
        assert abs(stats.mu[j] - mean) < 1e-12
        assert abs(stats.sigma[j] - math.sqrt(var)) < 1e-12


def test_large_sample_concentration():
    rng = np.random.default_rng(1234)
    data = rng.standard_normal(size=(1000, 6))
    stats = estimate_stats(data)
    assert np.all(np.abs(stats.mu) < 0.1)
    assert np.all(np.abs(stats.sigma - 1.0) < 0.1)
    # golden spot values frozen at this seed
    assert stats.mu[0] == pytest.approx(0.018502282736867423, rel=1e-12)
    assert stats.sigma[0] == pytest.approx(1.0062467177408165, rel=1e-12)
    assert stats.mu[5] == pytest.approx(-0.010703980374901476, rel=1e-12)
    assert stats.sigma[5] == pytest.approx(1.008909297848158, rel=1e-12)


def test_too_few_samples():
    with pytest.raises(ValueError, match="at least 2"):
        estimate_stats([[1.0, 2.0]])


def test_ragged_input_rejected():
    with pytest.raises(ValueError):
        estimate_stats([[1.0, 2.0], [1.0]])


def test_loglik_zero_at_mean():
    stats = estimate_stats([[0.0, 4.0], [2.0, 6.0]])
    assert log_likelihood(stats.mu, stats) == 0.0


def test_loglik_one_sigma_from_mean():
    rng = np.random.default_rng(2)
    data = rng.normal(size=(50, 8))
    stats = estimate_stats(data)
    value = log_likelihood(stats.mu + stats.sigma, stats)
    assert value == pytest.approx(-8 / 2, rel=1e-12)


def test_loglik_hand_example():
    stats = ChannelStats(
        mu=np.array([0.0]), sigma=np.array([2.0]), sample_count=2, epsilon_floor=1e-8
    )
    assert log_likelihood(np.array([4.0]), stats) == pytest.approx(-2.0)


def test_loglik_always_nonpositive():
    rng = np.random.default_rng(77)
    data = rng.normal(size=(20, 5))
    stats = estimate_stats(data)
    for _ in range(200):
        assert log_likelihood(rng.normal(scale=3.0, size=5), stats) <= 0.0


def test_loglik_length_mismatch():
    stats = estimate_stats([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="shape"):
        log_likelihood(np.zeros(3), stats)
    with pytest.raises(ValueError, match="shape"):
        log_likelihood_grad(np.zeros(3), stats)


@pytest.mark.parametrize("fn, mu1, sample", [
    (log_likelihood, 0.0, [1e200, 0.5]),  # (1e200 / 1e-8)^2 overflows
    (log_likelihood, -1e308, [0.0, 1e308]),  # 1e308 - (-1e308) overflows
    (log_likelihood_grad, 0.0, [1e300, 0.5]),  # 1e300 / 1e-16 overflows
    (log_likelihood_grad, -1e308, [0.0, 1e308]),
])
def test_overflow_raises(fn, mu1, sample):
    stats = parse_stats_csv(f"dim,mu,sigma\n0,0.0,1e-8\n1,{mu1!r},1.0\n")
    with pytest.raises(ValueError, match="overflows"):
        fn(np.array(sample), stats)


def test_grad_zero_at_mean():
    stats = estimate_stats([[1.0, -1.0], [3.0, 5.0]])
    np.testing.assert_array_equal(log_likelihood_grad(stats.mu, stats), [0.0, 0.0])


def test_grad_hand_example():
    stats = ChannelStats(
        mu=np.array([0.0]), sigma=np.array([1.0]), sample_count=2, epsilon_floor=1e-8
    )
    np.testing.assert_allclose(log_likelihood_grad(np.array([3.0]), stats), [-3.0])


def test_grad_matches_finite_differences_100_instances():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 12))
        data = rng.normal(loc=rng.normal(), scale=rng.uniform(0.5, 2.0), size=(8, dim))
        stats = estimate_stats(data)
        s = stats.mu + stats.sigma * rng.normal(size=dim)
        analytic = log_likelihood_grad(s, stats)
        fd = fd_gradient(s, stats)
        err = float(np.max(np.abs(fd - analytic) / (1.0 + np.abs(analytic))))
        worst = max(worst, err)
    assert worst < 1e-6


def test_translation_covariance():
    rng = np.random.default_rng(9)
    data = rng.normal(size=(30, 6))
    stats = estimate_stats(data)
    s = rng.normal(size=6)
    shift = rng.normal(size=6)
    shifted = ChannelStats(
        mu=stats.mu + shift,
        sigma=stats.sigma,
        sample_count=stats.sample_count,
        epsilon_floor=stats.epsilon_floor,
    )
    assert log_likelihood(s + shift, shifted) == pytest.approx(log_likelihood(s, stats), abs=1e-9)


def test_concavity_along_directions():
    rng = np.random.default_rng(21)
    data = rng.normal(size=(40, 5))
    stats = estimate_stats(data)
    for _ in range(20):
        v = rng.normal(size=5)
        ts = np.linspace(0.0, 3.0, 13)
        values = [log_likelihood(stats.mu + t * v, stats) for t in ts]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        mirrored = [log_likelihood(stats.mu - t * v, stats) for t in ts]
        assert all(a >= b - 1e-12 for a, b in zip(mirrored, mirrored[1:]))


def test_regularized_objective():
    stats = estimate_stats([[0.0], [2.0]])
    assert regularized_objective(1.5, stats.mu, stats, weight=0.0) == 1.5
    assert regularized_objective(1.5, stats.mu, stats, weight=7.0) == 1.5
    # L = -2.0 at s=4 with mu=0 sigma=1 -> objective 1 + 1 * 2
    s4 = ChannelStats(np.array([0.0]), np.array([2.0]), 2, 1e-8)
    assert regularized_objective(1.0, np.array([4.0]), s4, weight=1.0) == pytest.approx(3.0)
    with pytest.raises(ValueError, match="weight"):
        regularized_objective(1.0, stats.mu, stats, weight=-0.5)


@pytest.mark.parametrize("base_loss, weight, message", [
    (math.nan, 1.0, "base loss must be finite"),
    (math.inf, 1.0, "base loss must be finite"),
    (1.0, math.nan, "weight must be finite"),
    (1.0, math.inf, "weight must be finite"),
    (1e308, 1e308, "regularized objective overflows"),
])
def test_regularized_objective_never_returns_non_finite(base_loss, weight, message):
    stats = ChannelStats(np.array([0.0]), np.array([1.0]), 2, 1e-8)
    with pytest.raises(ValueError, match=message):
        regularized_objective(base_loss, np.array([4.0]), stats, weight=weight)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("styles, dim", [
    ([[1e308, 1.0], [-1e308, 2.0]], 0),  # the squared deviation overflows
    ([[1.0, 1e308], [2.0, 1e308]], 1),  # the sum for the mean overflows
])
def test_estimate_stats_names_the_overflowing_dim(styles, dim):
    with pytest.raises(ValueError, match=f"^dim {dim}: its mean or standard deviation overflows"):
        estimate_stats(np.array(styles))


def test_stats_csv_round_trip_lossless(tmp_path):
    rng = np.random.default_rng(55)
    data = rng.normal(size=(9, 7)) * 1e3
    stats = estimate_stats(data)
    path = tmp_path / "stats.csv"
    save_stats_csv(stats, str(path))
    loaded = load_stats_csv(str(path))
    np.testing.assert_array_equal(loaded.mu, stats.mu)
    np.testing.assert_array_equal(loaded.sigma, stats.sigma)
    assert loaded.sample_count == 0  # not recorded in the file


def test_stats_csv_format():
    stats = estimate_stats([[0.0, 0.0], [2.0, 2.0]])
    lines = stats_csv(stats).strip().splitlines()
    assert lines[0] == "dim,mu,sigma"
    assert lines[1] == "0,1.0,1.0"
    assert lines[2] == "1,1.0,1.0"


def test_parse_stats_csv_errors():
    with pytest.raises(ValueError, match="header"):
        parse_stats_csv("mu,sigma\n0,1\n")
    with pytest.raises(ValueError, match="expected dim 0"):
        parse_stats_csv("dim,mu,sigma\n5,1.0,1.0\n")
    with pytest.raises(ValueError, match="3 columns"):
        parse_stats_csv("dim,mu,sigma\n0,1.0\n")
    with pytest.raises(ValueError, match="no data rows"):
        parse_stats_csv("dim,mu,sigma\n")


def test_parse_stats_csv_skips_comments():
    stats = parse_stats_csv("# provenance header\ndim,mu,sigma\n0,0.5,2.0\n")
    assert stats.mu[0] == 0.5
    assert stats.sigma[0] == 2.0


def test_parse_stats_csv_skips_blank_rows():
    # the same rows parse_vectors_csv skips: empty, whitespace-only, all cells empty
    stats = parse_stats_csv("dim,mu,sigma\n0,0.5,2.0\n  \n,,\n\n1,1.5,3.0\n")
    assert stats.mu.tolist() == [0.5, 1.5]
    assert stats.sigma.tolist() == [2.0, 3.0]


def test_stats_dim_column_is_checked_as_a_number():
    # dims are compared on the parsed float matrix: 1.0 and 1e0 are dim 1
    assert parse_stats_csv("dim,mu,sigma\n0.0,0.5,2.0\n1e0,1.5,3.0\n").mu.tolist() == [0.5, 1.5]
    with pytest.raises(ValueError, match="row 2: expected dim 1, got 1.5$"):
        parse_stats_csv("dim,mu,sigma\n0,0.5,2.0\n1.5,1.5,3.0\n")


def _sigmas(floor):
    return st.one_of(
        st.just(floor),  # floored
        st.floats(floor, floor * 4),  # tiny
        st.floats(1e300, 1.7976931348623157e308),  # huge
        st.floats(floor, 1e6),
    )


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.sampled_from([1e-8, 1e-300]).flatmap(lambda floor: st.tuples(
    st.just(floor),
    st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False), _sigmas(floor)),
             min_size=1, max_size=8),
)))
def test_stats_csv_round_trip_bitwise_property(floor_and_channels):
    floor, channels = floor_and_channels
    mu, sigma = (np.array(column) for column in zip(*channels))
    loaded = parse_stats_csv(stats_csv(ChannelStats(mu, sigma, 0, floor)), floor)
    assert loaded.mu.tobytes() == mu.tobytes()
    assert loaded.sigma.tobytes() == sigma.tobytes()


def test_loaded_sigma_refloored():
    stats = parse_stats_csv("dim,mu,sigma\n0,0.0,0.0\n", epsilon_floor=1e-8)
    assert stats.sigma[0] == 1e-8


def test_negative_sigma_rejected_naming_row():
    with pytest.raises(ValueError, match="row 2: sigma -5.0 is negative"):
        parse_stats_csv("dim,mu,sigma\n0,0.0,1.0\n1,0.0,-5\n")
    # a tiny positive sigma is still floored, not rejected
    assert parse_stats_csv("dim,mu,sigma\n0,0.0,1e-12\n").sigma[0] == 1e-8


@pytest.mark.parametrize(
    "mu, sigma, floor, message",
    [
        (math.nan, 1.0, 1e-8, "finite"),
        (0.0, math.nan, 1e-8, "finite"),
        (0.0, math.inf, 1e-8, "finite"),
        (0.0, 1.0, math.nan, "epsilon_floor"),
        (0.0, 1.0, math.inf, "epsilon_floor"),
    ],
)
def test_channel_stats_rejects_non_finite(mu, sigma, floor, message):
    with pytest.raises(ValueError, match=message):
        ChannelStats(np.array([mu]), np.array([sigma]), 0, floor)
