import numpy as np
import pytest
import scipy.linalg as sla

from spfactor import prediction
from spfactor.kernels import TemporalKernelSpec, temporal_correlation
from spfactor.likelihoods import draw_observations, linear_predictor
from spfactor.prediction import (
    PPDRequest,
    _draw_rng,
    conditional_factor_moments,
    ppd_sample,
)
from spfactor.storage import merge_draws

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


def test_request_rejects_empty_and_non_finite_times():
    draws = make_draws(lam=np.zeros((2, 4, 1)), times=np.arange(3.0))
    for bad in ([], [np.nan], [3.0, np.inf]):
        with pytest.raises(ValueError):
            PPDRequest(new_times=np.array(bad), draws=draws)


@pytest.mark.parametrize("trials", [-3.0, 2.5, np.nan, np.inf])
def test_request_rejects_bad_binomial_trials(trials):
    draws = make_draws(lam=np.zeros((2, 4, 1)), family="binomial", times=np.arange(3.0))
    with pytest.raises(ValueError, match="nonnegative integers"):
        PPDRequest(new_times=np.array([3.0, 4.0]), draws=draws,
                   new_trials=np.full((2, 4), trials))
    req = PPDRequest(new_times=np.array([3.0]), draws=draws, new_trials=np.full((1, 4), 7.0))
    assert np.array_equal(req.new_trials, np.full((1, 4), 7.0))


# -- the batched pass against the per-draw loop it replaced -------------------


def _per_draw_oracle(request, seed):
    """ppd_sample as one loop over draws, each with its own kernel build,
    scipy Cholesky solve and observation draw.  Returns (values, probs,
    each draw's generator state at the end)."""
    draws = request.draws
    S, Q, N = draws.n_draws, request.new_times.size, draws.n_cells
    values = np.empty((S, Q, N))
    probs = np.empty((S, Q, N)) if draws.family == "binomial" else None
    T = draws.times.size
    states = []
    for s in range(S):
        rng = _draw_rng(seed, draws.iteration[s], draws.chain[s])
        allt = np.concatenate([draws.times, request.new_times])
        H = temporal_correlation(TemporalKernelSpec(draws.temporal_kernel,
                                                    float(draws.psi[s])), allt)[0]
        cho = sla.cho_factor(H[:T, :T], lower=True)
        H_plus = sla.cho_solve(cho, H[T:, :T].T).T
        mean = H_plus @ draws.eta[s]
        H_star = H[T:, T:] - H_plus @ H[T:, :T].T
        H_star = 0.5 * (H_star + H_star.T)
        cho_t = np.linalg.cholesky(H_star + 1e-12 * np.eye(Q))
        cho_u = np.linalg.cholesky(draws.upsilon[s])
        eta_new = mean + cho_t @ rng.standard_normal((Q, draws.k)) @ cho_u.T
        theta = linear_predictor(request.new_covariates, draws.beta[s], eta_new,
                                 draws.lam[s])
        nuisance = draws.sigma2[s][None, :] if probs is None else request.new_trials
        values[s], pi = draw_observations(draws.family, theta, nuisance, rng)
        if probs is not None:
            probs[s] = pi
        states.append(rng.bit_generator.state)
    return values, probs, states


def _random_draws(seed, *, S=24, N=6, k=2, T=5, p=0, family="gaussian",
                  kernel="exponential", times=None, psi=None, chain=0):
    """Draws with random parameters; psi repeats across draws, as a
    Metropolis chain's does."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(S, k, k))
    if psi is None:
        levels = rng.uniform(0.2, 3.0, size=S // 3) if kernel == "exponential" \
            else rng.uniform(-0.9, 0.9, size=S // 3)
        psi = rng.choice(levels, size=S)
    draws = make_draws(
        lam=rng.normal(size=(S, N, k)), eta=rng.normal(size=(S, T, k)),
        sigma2=rng.uniform(0.2, 2.0, size=(S, N)), beta=rng.normal(size=(S, p)), p=p,
        upsilon=a @ a.transpose(0, 2, 1) + np.eye(k), psi=psi, family=family,
        temporal_kernel=kernel,
        times=np.linspace(0.0, 1.0, T) if times is None else times)
    draws.chain = np.full(S, chain)
    return draws


def _merged_chains(seed):
    return merge_draws([_random_draws(seed), _random_draws(seed + 1, chain=1)])


def _oracle_cases():
    N = 6
    rng = np.random.default_rng(40)
    yield "gaussian", PPDRequest(new_times=np.array([1.2, 1.5, 2.5]),
                                 draws=_random_draws(1)), 0
    yield "binomial", PPDRequest(new_times=np.array([1.1, 1.3]),
                                 draws=_random_draws(2, family="binomial")), 1
    yield "binomial-new-trials", PPDRequest(
        new_times=np.array([1.1, 1.3]), draws=_random_draws(3, family="binomial"),
        new_trials=rng.integers(0, 30, size=(2, N)).astype(float)), 2
    yield "ar1-integer-times", PPDRequest(
        new_times=np.array([5.0, 6.0, 8.0]),
        draws=_random_draws(4, kernel="ar1", times=np.arange(5.0))), 3
    yield "one-covariate", PPDRequest(
        new_times=np.array([1.25, 1.75]), draws=_random_draws(5, p=1),
        new_covariates=rng.normal(size=(2, N, 1))), 4
    yield "two-chains", PPDRequest(new_times=np.array([1.4]),
                                   draws=_merged_chains(6)), 5


@pytest.mark.parametrize("name, request_, seed",
                         list(_oracle_cases()), ids=[c[0] for c in _oracle_cases()])
def test_batched_pass_matches_per_draw_loop(monkeypatch, name, request_, seed):
    made = []

    def recording_rng(*args):
        made.append(_draw_rng(*args))
        return made[-1]

    monkeypatch.setattr(prediction, "_draw_rng", recording_rng)
    values, probs = ppd_sample(request_, seed=seed)
    ref_values, ref_probs, ref_states = _per_draw_oracle(request_, seed)
    assert values.tobytes() == ref_values.tobytes()
    if ref_probs is None:
        assert probs is None
    else:
        assert probs.tobytes() == ref_probs.tobytes()
    assert [rng.bit_generator.state for rng in made] == ref_states


def test_batched_pass_matches_per_draw_loop_on_jitter_retry(monkeypatch, caplog):
    # no exponential or AR(1) kernel fails its Cholesky, so one psi's
    # kernel is made to fail it until the retry adds the diagonal jitter
    draws = _random_draws(7)
    request_ = PPDRequest(new_times=np.array([1.2, 1.6]), draws=draws)
    marked = float(draws.psi[3])
    gap = draws.times[1] - draws.times[0]
    real = np.linalg.cholesky

    def cholesky(a):
        a = np.asarray(a)
        if a.shape[-1] == draws.times.size + 2 and np.any(
                (a[..., 0, 0] == 1.0) & (a[..., 0, 1] == np.exp(-marked * gap))):
            raise np.linalg.LinAlgError("forced")
        return real(a)

    plain, _ = ppd_sample(request_, seed=8)
    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    with caplog.at_level("WARNING", logger="spfactor.kernels"):
        values, _ = ppd_sample(request_, seed=8)
    assert "required a 1e-10 diagonal jitter" in caplog.text
    ref_values, _, _ = _per_draw_oracle(request_, seed=8)
    assert values.tobytes() == ref_values.tobytes()
    jittered = draws.psi == marked
    assert not np.array_equal(values[jittered], plain[jittered])
    assert np.array_equal(values[~jittered], plain[~jittered])
