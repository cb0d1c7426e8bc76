import numpy as np
import pytest

from spfactor.prediction import (
    PPDRequest,
    conditional_factor_moments,
    ppd_sample,
)

from conftest import make_draws


def test_ar1_screening_identity(rng):
    # unit-spaced AR(1): conditioning on the past collapses to psi * eta_T
    for _ in range(30):
        T = int(rng.integers(3, 12))
        psi = float(rng.uniform(0.05, 0.95))
        k = int(rng.integers(1, 4))
        eta = rng.normal(size=(T, k))
        times = np.arange(T, dtype=float)
        mean, cov = conditional_factor_moments(eta, np.eye(k), psi, "ar1",
                                               times, np.array([float(T)]))
        assert np.max(np.abs(mean[0] - psi * eta[-1])) < 1e-10
        # conditional variance matches the scalar AR(1) value (1 - psi^2)
        assert cov[0, 0] == pytest.approx(1.0 - psi ** 2, abs=1e-10)


def test_identity_temporal_correlation_gives_prior(rng):
    eta = rng.normal(size=(4, 2))
    ups = np.array([[2.0, 0.3], [0.3, 1.0]])
    mean, cov = conditional_factor_moments(eta, ups, 0.0, "ar1",
                                           np.arange(4.0), np.array([4.0]))
    assert np.allclose(mean, 0.0)
    assert np.allclose(cov, ups, atol=1e-12)


def test_new_time_must_follow_last():
    with pytest.raises(ValueError):
        conditional_factor_moments(np.zeros((3, 1)), np.eye(1), 0.5, "ar1",
                                   np.arange(3.0), np.array([2.0]))
    draws = make_draws(lam=np.zeros((2, 4, 1)), times=np.arange(3.0))
    with pytest.raises(ValueError):
        PPDRequest(new_times=np.array([1.5]), draws=draws)


def test_gaussian_ppd_marginal_moments():
    S, N = 400, 6
    sigma2 = np.full((S, N), 1.7)
    draws = make_draws(lam=np.zeros((S, N, 1)), sigma2=sigma2,
                       times=np.arange(3.0), psi=np.full(S, 0.4))
    req = PPDRequest(new_times=np.array([3.0, 4.0]), draws=draws)
    values, probs = ppd_sample(req, seed=5)
    assert probs is None
    assert values.shape == (S, 2, N)
    x = values.reshape(-1)
    assert x.mean() == pytest.approx(0.0, abs=3 * np.sqrt(1.7 / x.size))
    assert x.var() == pytest.approx(1.7, rel=0.1)


def test_binomial_ppd_mean_half():
    S, N = 500, 4
    draws = make_draws(lam=np.zeros((S, N, 1)), family="binomial",
                       times=np.arange(3.0), psi=np.full(S, 0.4))
    req = PPDRequest(new_times=np.array([3.0]), draws=draws)
    values, probs = ppd_sample(req, seed=6)
    assert np.allclose(probs, 0.5)
    mean = values.mean()
    assert mean == pytest.approx(0.5, abs=3 * 0.5 / np.sqrt(values.size))


def test_ppd_deterministic():
    draws = make_draws(lam=np.random.default_rng(1).normal(size=(50, 5, 2)),
                       times=np.arange(4.0))
    req = PPDRequest(new_times=np.array([4.0, 5.0]), draws=draws)
    v1, _ = ppd_sample(req, seed=9)
    v2, _ = ppd_sample(req, seed=9)
    assert np.array_equal(v1, v2)
    v3, _ = ppd_sample(req, seed=10)
    assert not np.array_equal(v1, v3)


def test_ppd_invariant_to_draw_order():
    rng = np.random.default_rng(2)
    lam = rng.normal(size=(60, 5, 2))
    eta = rng.normal(size=(60, 4, 2))
    draws = make_draws(lam=lam, eta=eta, times=np.arange(4.0))
    req = PPDRequest(new_times=np.array([4.0]), draws=draws)
    v1, _ = ppd_sample(req, seed=3)
    perm = rng.permutation(60)
    permuted = make_draws(lam=lam[perm], eta=eta[perm], times=np.arange(4.0))
    permuted.iteration = draws.iteration[perm]  # draws keep their rng keys
    req2 = PPDRequest(new_times=np.array([4.0]), draws=permuted)
    v2, _ = ppd_sample(req2, seed=3)
    # the multiset of draw-level values per cell is exactly preserved
    assert np.array_equal(np.sort(v1, axis=0), np.sort(v2, axis=0))


def test_ppd_law_of_total_variance(rng):
    S, N, k = 600, 5, 2
    lam = rng.normal(size=(S, N, k))
    eta = rng.normal(size=(S, 4, k))
    sigma2 = np.full((S, N), 0.8)
    draws = make_draws(lam=lam, eta=eta, sigma2=sigma2, times=np.arange(4.0),
                       psi=np.full(S, 0.5))
    req = PPDRequest(new_times=np.array([4.0]), draws=draws)
    values, _ = ppd_sample(req, seed=11)
    cell_var = values[:, 0, :].var(axis=0)
    se = 0.8 * np.sqrt(2.0 / S)
    assert np.all(cell_var > 0.8 - 3 * se)


def test_gaussian_ppd_centres_on_new_covariates():
    # lam = 0 leaves theta = X beta, so each cell's values centre on it
    S, N, p, Q = 400, 5, 2, 2
    rng = np.random.default_rng(12)
    beta = np.tile([1.5, -2.0], (S, 1))
    draws = make_draws(lam=np.zeros((S, N, 1)), beta=beta, p=p,
                       sigma2=np.full((S, N), 0.5), times=np.arange(3.0))
    X = rng.normal(size=(Q, N, p))
    req = PPDRequest(new_times=np.array([3.0, 4.0]), draws=draws, new_covariates=X)
    values, _ = ppd_sample(req, seed=4)
    se = np.sqrt(0.5 / S)
    assert np.all(np.abs(values.mean(axis=0) - X @ beta[0]) < 4 * se)
    # without covariates the same draws centre on zero
    plain, _ = ppd_sample(PPDRequest(new_times=np.array([3.0, 4.0]), draws=draws), seed=4)
    assert np.all(np.abs(plain.mean(axis=0)) < 4 * se)
