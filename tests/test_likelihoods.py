import warnings

import numpy as np
import pytest
from scipy.stats import ks_2samp, truncnorm

from spfactor.errors import DimensionMismatch, NonPositiveOmega, NonPositiveVariance
from spfactor.likelihoods import (
    LikelihoodSpec,
    linear_predictor,
    log_likelihood,
    pg_mean,
    pg_sample,
    pg_sample_array,
    pg_transform,
    pg_variance,
    truncated_normal,
)


def test_linear_predictor_examples():
    n = 6
    X = np.ones((n, 1))
    zero = linear_predictor(np.zeros(1), np.zeros((n, 2)), np.zeros(2), X)
    assert np.allclose(zero, 0.0)

    const = linear_predictor(np.zeros(0), np.ones((n, 1)), np.array([3.0]),
                             np.zeros((n, 0)))
    assert np.allclose(const, 3.0)

    covonly = linear_predictor(np.array([2.0]), np.zeros((n, 1)), np.zeros(1), X)
    assert np.allclose(covonly, 2.0)


def test_linear_predictor_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        linear_predictor(np.zeros(2), np.zeros((4, 1)), np.zeros(1), np.zeros((4, 1)))


def test_log_likelihood_gaussian():
    spec = LikelihoodSpec("gaussian")
    val = log_likelihood(spec, np.array([1.3]), np.array([1.3]), 1.0)
    assert val == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-10)
    assert val == pytest.approx(-0.91894, abs=1e-5)
    with pytest.raises(NonPositiveVariance):
        log_likelihood(spec, np.array([1.0]), np.array([1.0]), 0.0)


def test_log_likelihood_binomial():
    spec = LikelihoodSpec("binomial")
    up = log_likelihood(spec, np.array([1.0]), np.array([0.0]), np.array([1.0]))
    down = log_likelihood(spec, np.array([0.0]), np.array([0.0]), np.array([1.0]))
    assert up == pytest.approx(np.log(0.5), abs=1e-10)
    assert down == pytest.approx(np.log(0.5), abs=1e-10)
    # binomial coefficient included: n=2, y=1, theta=0 -> log(2 * 0.25)
    mid = log_likelihood(spec, np.array([1.0]), np.array([0.0]), np.array([2.0]))
    assert mid == pytest.approx(np.log(0.5), abs=1e-10)


def test_pg_transform():
    chi, ystar = pg_transform(1.0, 1.0, 0.5)
    assert (chi, ystar) == (0.5, 1.0)
    chi, ystar = pg_transform(0.0, 1.0, 0.25)
    assert (chi, ystar) == (-0.5, -2.0)
    chi, ystar = pg_transform(3.0, 6.0, 1.0)
    assert (chi, ystar) == (0.0, 0.0)
    with pytest.raises(NonPositiveOmega):
        pg_transform(1.0, 1.0, 0.0)


def test_pg_sample_moments(rng):
    n = 20000
    for b, c in [(1, 0.0), (1, 2.0), (3, 0.0)]:
        x = pg_sample_array(np.full(n, b), np.full(n, c), rng)
        mean = float(pg_mean(b, c))
        assert x.mean() == pytest.approx(mean, rel=0.02)
        assert x.var() == pytest.approx(float(pg_variance(b, c)), rel=0.05)
    assert pg_sample(2, 1.0, rng) > 0


def test_pg_sample_negative_c_symmetry(rng):
    x = pg_sample_array(np.ones(20000), np.full(20000, -2.0), rng)
    assert x.mean() == pytest.approx(np.tanh(1.0) / 4.0, rel=0.02)


def test_pg_large_c_draws_without_warning(rng):
    # the exponential-branch weight overflows exp() once |c| reaches about 97;
    # its limit 0 is right, so the draws must come with no warning
    n = 20000
    mixed = np.tile([200.0, -200.0, 96.0, -97.0, 1.5, 0.0, 500.0, -300.0], n // 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runs = [(c, pg_sample_array(np.ones(n), np.full(n, c), rng))
                for c in (200.0, -200.0)]
        x = pg_sample_array(np.ones(mixed.size), mixed, rng)
    runs += [(c, x[mixed == c]) for c in np.unique(mixed)]
    for c, draws in runs:
        se = np.sqrt(float(pg_variance(1, c)) / draws.size)
        assert abs(draws.mean() - float(pg_mean(1, c))) < 5 * se


def test_pg_zero_trials(rng):
    x = pg_sample_array(np.zeros(5), np.ones(5), rng)
    assert np.array_equal(x, np.zeros(5))
    assert pg_sample(0, 1.3, rng) == 0.0


@pytest.mark.parametrize("b", [2.4, -1, -1.0, np.nan])
def test_pg_rejects_negative_or_fractional_shape(rng, b):
    with pytest.raises(ValueError):
        pg_sample(b, 1.0, rng)
    with pytest.raises(ValueError):
        pg_sample_array(np.array([1.0, b]), np.ones(2), rng)


def _pg_series_reference(b, c, n, rng, terms=200):
    """PG(b, c) from its infinite-convolution definition, cut after `terms`
    Gamma(b, 1) terms; the tail is replaced by its mean."""
    k = np.arange(1, terms + 1)
    weights = 1.0 / (2.0 * np.pi ** 2 * ((k - 0.5) ** 2 + c ** 2 / (4.0 * np.pi ** 2)))
    head = rng.gamma(b, size=(n, terms)) @ weights
    return head + (float(pg_mean(b, c)) - b * weights.sum())


def test_pg_matches_series_reference_by_ks():
    # |c| > 3.125 reaches the z >= 1/0.64 proposal branch of the inverse Gaussian.
    rng = np.random.default_rng(515)
    n = 20000
    for b, c in [(1, 0.0), (1, 1.0), (1, 4.0), (1, 8.0), (3, 2.5), (40, 0.5), (40, -3.5)]:
        x = pg_sample_array(np.full(n, b), np.full(n, c), rng)
        ref = _pg_series_reference(b, c, n, rng)
        # a correct sampler fails one cell with probability 1e-5, the grid < 1e-4
        assert ks_2samp(x, ref).pvalue > 1e-5, (b, c)


def test_pg_gaussian_kernel_identity(rng):
    # p(y|theta) = 2^-n exp(chi theta) E_omega[exp(-omega theta^2 / 2)],
    # omega ~ PG(n, 0); check a likelihood ratio against its MC estimate
    n_draws = 100000
    omega = pg_sample_array(np.ones(n_draws), np.zeros(n_draws), rng)
    y, n = 1.0, 1.0
    chi = y - n / 2.0
    t1, t2 = 0.7, -0.4
    lhs = np.exp((t1 * y - n * np.logaddexp(0, t1))
                 - (t2 * y - n * np.logaddexp(0, t2)))
    rhs = (np.exp(chi * t1) * np.mean(np.exp(-omega * t1 ** 2 / 2.0))
           / (np.exp(chi * t2) * np.mean(np.exp(-omega * t2 ** 2 / 2.0))))
    assert lhs == pytest.approx(rhs, rel=0.02)


def test_truncated_normal_matches_reference(rng):
    n = 150000
    for mean, positive in [(0.7, False), (-1.2, True), (6.0, False)]:
        means = np.full(n, mean)
        z = truncated_normal(means, np.full(n, positive, dtype=bool), rng)
        if positive:
            assert z.min() > 0
            ref = truncnorm.mean(-mean, np.inf, loc=mean, scale=1.0)
        else:
            assert z.max() < 0
            ref = truncnorm.mean(-np.inf, -mean, loc=mean, scale=1.0)
        assert z.mean() == pytest.approx(ref, abs=4 * z.std() / np.sqrt(n))
