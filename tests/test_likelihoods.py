import warnings

import numpy as np
import pytest
from scipy.special import log_ndtr, ndtri_exp
from scipy.stats import binom, ks_2samp, norm, truncnorm

from spfactor.data import ObservationSet
from spfactor.errors import NonPositiveVariance
from spfactor.likelihoods import (
    LikelihoodSpec,
    draw_observations,
    linear_predictor,
    log_density,
    pg_mean,
    pg_sample,
    pg_sample_array,
    pg_variance,
    truncated_normal,
)
from spfactor.likelihoods import _TRUNC, _texpon_weight
from spfactor.sampler import GibbsSampler, ModelSpec

from conftest import king_grid


def test_linear_predictor_examples():
    T, n = 2, 6
    X = np.ones((T, n, 1))
    zero = linear_predictor(X, np.zeros(1), np.zeros((T, 2)), np.zeros((n, 2)))
    assert np.array_equal(zero, np.zeros((T, n)))

    const = linear_predictor(np.zeros((T, n, 0)), np.zeros(0), np.full((T, 1), 3.0),
                             np.ones((n, 1)))
    assert np.allclose(const, 3.0)

    covonly = linear_predictor(X, np.array([2.0]), np.zeros((T, 1)), np.zeros((n, 1)))
    assert np.allclose(covonly, 2.0)


@pytest.mark.parametrize("p", [0, 2])
def test_linear_predictor_matches_per_visit_loop(rng, p):
    T, N, k = 4, 7, 3
    X, beta = rng.normal(size=(T, N, p)), rng.normal(size=p)
    eta, lam = rng.normal(size=(T, k)), rng.normal(size=(N, k))
    loop = np.array([X[t] @ beta + lam @ eta[t] for t in range(T)])
    theta = linear_predictor(X, beta, eta, lam)
    assert theta.shape == (T, N)
    assert np.allclose(theta, loop, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("p", [0, 1, 2])
def test_linear_predictor_over_draws_is_each_draws(rng, p):
    S, T, N, k = 5, 3, 7, 2
    X, beta = rng.normal(size=(T, N, p)), rng.normal(size=(S, p))
    eta, lam = rng.normal(size=(S, T, k)), rng.normal(size=(S, N, k))
    theta = linear_predictor(X, beta, eta, lam)
    assert theta.shape == (S, T, N)
    for s in range(S):
        one = linear_predictor(X, beta[s], eta[s], lam[s])
        assert theta[s].tobytes() == one.tobytes()
        assert one.tobytes() == (X @ beta[s] + eta[s] @ lam[s].T).tobytes()


def test_linear_predictor_dimension_mismatch():
    # shape errors are numpy's own
    with pytest.raises(ValueError):
        linear_predictor(np.zeros((1, 4, 1)), np.zeros(2), np.zeros((1, 1)),
                         np.zeros((4, 1)))
    with pytest.raises(ValueError):
        linear_predictor(np.zeros((1, 4, 0)), np.zeros(0), np.zeros((1, 2)),
                         np.zeros((4, 1)))


def test_log_likelihood_gaussian():
    val = log_density("gaussian", np.array([1.3]), np.array([1.3]), 1.0)
    assert val[0] == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-10)
    assert val[0] == pytest.approx(-0.91894, abs=1e-5)
    with pytest.raises(NonPositiveVariance):
        log_density("gaussian", np.array([1.0]), np.array([1.0]), 0.0)
    with pytest.raises(NonPositiveVariance):
        log_density("gaussian", np.ones((2, 3)), np.ones((2, 3)),
                    np.array([1.0, -2.0, 3.0])[None, :])


def test_log_likelihood_binomial():
    up = log_density("binomial", np.array([1.0]), np.array([0.0]), np.array([1.0]))
    down = log_density("binomial", np.array([0.0]), np.array([0.0]), np.array([1.0]))
    assert up[0] == pytest.approx(np.log(0.5), abs=1e-10)
    assert down[0] == pytest.approx(np.log(0.5), abs=1e-10)
    # binomial coefficient included: n=2, y=1, theta=0 -> log(2 * 0.25)
    mid = log_density("binomial", np.array([1.0]), np.array([0.0]), np.array([2.0]))
    assert mid[0] == pytest.approx(np.log(0.5), abs=1e-10)


def test_log_density_matches_scipy(rng):
    T, N = 5, 4
    theta = rng.normal(size=(T, N))
    sigma2 = rng.uniform(0.2, 3.0, size=N)
    y = rng.normal(size=(T, N))
    got = log_density("gaussian", y, theta, sigma2[None, :])
    assert got.shape == (T, N)
    assert np.allclose(got, norm.logpdf(y, loc=theta, scale=np.sqrt(sigma2)),
                       rtol=1e-12, atol=1e-12)

    trials = rng.integers(0, 9, size=(T, N)).astype(float)
    counts = np.floor(rng.uniform(size=(T, N)) * (trials + 1))
    got = log_density("binomial", counts, theta, trials)
    ref = binom.logpmf(counts, trials, 1.0 / (1.0 + np.exp(-theta)))
    assert np.allclose(got, ref, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("family", ["gaussian", "binomial"])
def test_draw_observations_reads_generator_as_inline_formulas(family):
    T, N = 3, 5
    theta = np.random.default_rng(0).normal(size=(T, N))
    sigma2 = np.linspace(0.5, 2.0, N)
    trials = np.arange(T * N, dtype=float).reshape(T, N) % 4
    ours, ref = np.random.default_rng(8), np.random.default_rng(8)
    if family == "gaussian":
        values, probs = draw_observations(family, theta, sigma2[None, :], ours)
        expect = theta + ref.standard_normal(theta.shape) * np.sqrt(sigma2)[None, :]
        assert probs is None
    else:
        values, probs = draw_observations(family, theta, trials, ours)
        pi = 1.0 / (1.0 + np.exp(-theta))
        expect = ref.binomial(trials.astype(int), pi).astype(float)
        assert np.array_equal(probs, pi)
    assert np.array_equal(values, expect)
    assert ours.bit_generator.state == ref.bit_generator.state


def test_pg_transform():
    # the binomial working response chi / omega and its precision omega;
    # a zero-trial cell has omega = 0 and contributes nothing
    y = np.array([[1.0, 0.0, 3.0, 0.0]])
    trials = np.array([[1.0, 1.0, 6.0, 0.0]])
    data = ObservationSet(y=np.vstack([y, y])[:, None, :], times=np.array([0.0, 1.0]),
                          spatial=king_grid(2, 2),
                          trials=np.vstack([trials, trials])[:, None, :])
    sampler = GibbsSampler(ModelSpec(k=1, likelihood=LikelihoodSpec("binomial"), L=2),
                           data)
    state = sampler.init_state(np.random.default_rng(0))
    sampler.omega = np.tile([0.5, 0.25, 1.0, 0.0], (2, 1))
    ystar, prec = sampler.working(state)
    assert np.array_equal(ystar, np.tile([1.0, -2.0, 0.0, 0.0], (2, 1)))
    assert np.array_equal(prec, sampler.omega)


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


def test_pg_variance_large_c_finite_without_warning():
    # the variance tends to b / (2 |c|^3); sinh(c) and cosh(c/2)^2 overflow
    # from |c| ~ 700, so the formula must not evaluate them directly
    for b in (1.0, 3.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pg_variance(b, np.array([700.0, -700.0, 1e4, -1e4]))
        assert np.all(np.isfinite(got))
        c = np.array([700.0, 700.0, 1e4, 1e4])
        assert np.allclose(got, b / (2.0 * c ** 3), rtol=1e-2, atol=0.0)


def test_pg_variance_matches_sinh_cosh_form():
    c = np.concatenate([np.geomspace(0.05, 20.0, 200), -np.geomspace(0.05, 20.0, 200)])
    direct = 2.0 * (np.sinh(c) - c) / (4.0 * c ** 3 * np.cosh(c / 2.0) ** 2)
    assert np.allclose(pg_variance(2.0, c), direct, rtol=1e-12, atol=0.0)
    assert pg_variance(2.0, 0.0) == 2.0 / 24.0


# V[PG(1, c)] from 50-digit arithmetic of (sinh(c) - c) / (4 c^3 cosh^2(c/2))
_PG_VARIANCE_REFERENCE = [
    (0.0, 0.041666666666666666667),
    (1e-8, 0.041666666666666665833),
    (-1e-8, 0.041666666666666665833),
    (1e-4, 0.04166666658333333346),
    (1e-3, 0.041666658333334598214),
    (0.01, 0.041665833345981972004),
    (0.049, 0.041646665622756173035),
    (0.05, 0.041645841236170515419),
    (0.051, 0.041645000220835120222),
    (0.1, 0.041583459650789317032),
    (1.0, 0.034446645388523026714),
    (5.0, 0.003680534925774114959),
]


@pytest.mark.parametrize("c, expect", _PG_VARIANCE_REFERENCE)
def test_pg_variance_small_c_matches_high_precision(c, expect):
    # the closed form cancels catastrophically as c -> 0 (relative error 1
    # at c = 1e-8); a Taylor series takes over near zero
    for b in (1.0, 3.0):
        assert float(pg_variance(b, c)) == pytest.approx(b * expect, rel=1e-12, abs=0.0)


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


# The boolean-mask Polya-Gamma sampler the index-array rounds replaced, kept
# as the oracle: the rewrite must give the same draws from the same stream.


def _reference_rtinvgauss(z, rng):
    t = _TRUNC
    out = np.empty_like(z)
    big = z < 1.0 / t
    half_z2 = 0.5 * z ** 2
    idx = np.flatnonzero(big)
    while idx.size:
        e1 = rng.standard_exponential(idx.size)
        e2 = rng.standard_exponential(idx.size)
        ok = e1 ** 2 <= 2.0 * e2 / t
        cand = t / (1.0 + t * e1) ** 2
        alpha = np.exp(-half_z2[idx] * cand)
        accept = ok & (rng.uniform(size=idx.size) <= alpha)
        out[idx[accept]] = cand[accept]
        idx = idx[~accept]
    inv_z = np.divide(1.0, z, out=np.zeros_like(z), where=~big)
    idx = np.flatnonzero(~big)
    while idx.size:
        mu = inv_z[idx]
        ysq = rng.standard_normal(idx.size) ** 2
        cand = mu + 0.5 * mu * mu * ysq - 0.5 * mu * np.sqrt(4.0 * mu * ysq + (mu * ysq) ** 2)
        flip = rng.uniform(size=idx.size) > mu / (mu + cand)
        cand[flip] = mu[flip] ** 2 / cand[flip]
        accept = cand <= t
        out[idx[accept]] = cand[accept]
        idx = idx[~accept]
    return out


def _reference_series_accepts(x, u):
    g = np.where(x <= _TRUNC, 2.0 / x, 0.5 * np.pi ** 2 * x)
    accepted = np.zeros(x.size, dtype=bool)
    live = np.arange(x.size)
    s = np.ones(x.size)
    n = 0
    while live.size:
        n += 1
        r = (2 * n + 1) * np.exp(-(n * (n + 1)) * g)
        if n % 2:
            s = s - r
            done = u <= s
            accepted[live[done]] = True
        else:
            s = s + r
            done = u > s
        keep = ~done
        live, g, u, s = live[keep], g[keep], u[keep], s[keep]
    return accepted


def _reference_pg_sample_array(b, c, rng):
    c = np.asarray(c, dtype=float)
    trials = np.broadcast_to(np.asarray(b), c.shape).ravel().astype(np.int64)
    z = np.abs(c.ravel()) / 2.0
    fz = np.pi ** 2 / 8.0 + z ** 2 / 2.0
    pexp = _texpon_weight(z, fz)
    cell = np.repeat(np.arange(trials.size), trials)
    unit = np.empty(cell.size)
    todo = np.arange(cell.size)
    while todo.size:
        ct = cell[todo]
        take_exp = rng.uniform(size=todo.size) < pexp[ct]
        x = np.empty(todo.size)
        x[take_exp] = _TRUNC + rng.standard_exponential(take_exp.sum()) / fz[ct[take_exp]]
        x[~take_exp] = _reference_rtinvgauss(z[ct[~take_exp]], rng)
        accepted = _reference_series_accepts(x, rng.uniform(size=todo.size))
        unit[todo[accepted]] = x[accepted] / 4.0
        todo = todo[~accepted]
    return np.bincount(cell, weights=unit, minlength=trials.size).reshape(c.shape)


_ORACLE = np.random.default_rng(2024)
_ORACLE_CASES = {
    "binom40-sized": (40, _ORACLE.normal(0.0, 1.5, 520)),
    "large-c-both-signs": (1, np.concatenate([_ORACLE.uniform(-500.0, 500.0, 400),
                                              [500.0, -500.0, 97.0, -96.0]])),
    "c-zero": (3, np.zeros(60)),
    "zero-and-mixed-trials": (_ORACLE.integers(0, 6, 300), _ORACLE.normal(0.0, 2.0, 300)),
    "inverse-gaussian-z-branch": (2, _ORACLE.choice([-1.0, 1.0], 300)
                                  * _ORACLE.uniform(3.2, 40.0, 300)),
    "single-cell": (1, np.array([0.8])),
}


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pg_sample_array_matches_masked_reference(case, seed):
    # same draws, bit for bit, and the generator left in the same state
    b, c = _ORACLE_CASES[case]
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expect = _reference_pg_sample_array(b, c, ref_rng)
    got = pg_sample_array(b, c, rng)
    assert got.shape == expect.shape
    assert got.tobytes() == expect.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


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


def test_truncated_normal_is_bit_identical_to_two_masked_passes():
    gen = np.random.default_rng(21)
    mean = np.concatenate([gen.normal(0.0, 3.0, 400), [-40.0, -30.5, 0.0, 30.5, 40.0]])
    positive = gen.uniform(size=mean.size) < 0.5
    positive[-5:] = [True, False, True, True, False]
    got = truncated_normal(mean, positive, np.random.default_rng(8))
    log_u = np.log(np.random.default_rng(8).uniform(size=mean.shape))
    expect = np.empty_like(mean)
    neg = ~positive
    expect[neg] = mean[neg] + ndtri_exp(log_u[neg] + log_ndtr(-mean[neg]))
    expect[positive] = mean[positive] - ndtri_exp(log_u[positive] + log_ndtr(mean[positive]))
    assert got.tobytes() == expect.tobytes()


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
