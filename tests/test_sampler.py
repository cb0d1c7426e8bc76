import collections
import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.special import digamma
from scipy.stats import invwishart, kstest

from spfactor.clustering import build_w
from spfactor.data import ObservationSet
from spfactor.kernels import (
    SpatialKernelSpec,
    TemporalKernelSpec,
    spatial_correlation,
    temporal_correlation,
)
from spfactor.errors import ValidationError
from spfactor.likelihoods import LikelihoodSpec
from spfactor import sampler as sampler_module
from spfactor import simulation
from spfactor.psbp import loadings_from_atoms, stick_weights_matrix
from spfactor.storage import write_container
from spfactor.sampler import (
    ChainState,
    GibbsSampler,
    ModelSpec,
    assert_stick_consistency,
    invwishart_rvs,
    load_checkpoint,
    run_chain,
    run_chains,
    save_checkpoint,
)

from conftest import batch_se, binomial_dataset, gaussian_dataset, king_grid, point_line


def tiny_spec(**kwargs):
    base = dict(k=1, L=2, loadings_prior="psbp-spatial", spatial_kernel="car",
                temporal_kernel="exponential", rho=0.9,
                sigma2_a=3.0, sigma2_b=2.0, a1=2.0, a2=3.0,
                kappa_df=4.0, kappa_scale=1.0, upsilon_df=4.0, upsilon_scale=1.0)
    base.update(kwargs)
    return ModelSpec(**base)


def masked_dataset(T=3, m=3, seed=0):
    """All-cells-missing Gaussian data: every conditional reduces to its prior."""
    sp = king_grid(1, m)
    y = np.zeros((T, 1, m))
    mask = np.ones((T, 1, m), dtype=bool)
    return ObservationSet(y=y, times=np.linspace(0.0, 1.0, T), spatial=sp,
                          missing_mask=mask)


# -- initialization -------------------------------------------------------------


def test_init_deterministic():
    data = gaussian_dataset()
    spec = ModelSpec(k=2)
    s1 = GibbsSampler(spec, data).init_state(np.random.default_rng(5))
    s2 = GibbsSampler(spec, data).init_state(np.random.default_rng(5))
    assert np.array_equal(s1.eta, s2.eta)
    assert np.array_equal(s1.lam, s2.lam)
    assert s1.rho == s2.rho and s1.psi == s2.psi


def test_init_mode_gating():
    data = gaussian_dataset()
    spec = ModelSpec(k=2, loadings_prior="gaussian-iid", shrinkage="independent-gamma")
    state = GibbsSampler(spec, data).init_state(np.random.default_rng(0))
    assert state.stick is None
    assert state.lam.shape == (data.n_cells, 2)


def test_init_degenerate_mixture():
    data = gaussian_dataset()
    spec = ModelSpec(k=1, L=1)
    state = GibbsSampler(spec, data).init_state(np.random.default_rng(0))
    assert np.all(state.stick.xi == 1)
    assert state.stick.alpha[0].shape == (0, data.n_cells)
    assert np.allclose(stick_weights_matrix(state.stick.alpha[0], closing=True), 1.0)


# -- factor update ---------------------------------------------------------------


def test_factors_prior_recovery_when_loadings_zero(rng):
    data = gaussian_dataset(T=4)
    spec = tiny_spec(k=2, L=2, psi=3.0)
    sampler = GibbsSampler(spec, data)
    state = sampler.init_state(rng)
    state.lam[:] = 0.0
    state.upsilon = np.diag([1.0, 2.0])
    chol_H, _, _ = sampler.temporal_ops(state.psi)
    H = chol_H @ chol_H.T
    draws = np.empty((4000, data.T, 2))
    for s in range(draws.shape[0]):
        sampler.update_factors(state, rng)
        draws[s] = state.eta
    # target covariance of vec(eta) is H (x) Upsilon
    assert abs(draws.mean()) < 3 * draws.std() / np.sqrt(draws.size)
    for j, scale in enumerate([1.0, 2.0]):
        v = draws[:, :, j].var(axis=0)
        se = scale * np.sqrt(2.0 / draws.shape[0])
        assert np.all(np.abs(v - scale) < 4 * se)
    emp = np.mean(draws[:, 0, 0] * draws[:, 1, 0])
    assert emp == pytest.approx(H[0, 1], abs=4 * np.sqrt(2.0 / draws.shape[0]))


def test_factors_scalar_conjugate_case(rng):
    # one informative visit (second masked), H = I via ar1 psi=0:
    # posterior of eta_1 is N(sum(y)/(m+1), 1/(m+1))
    m, T = 5, 2
    sp = king_grid(1, m)
    y = np.zeros((T, 1, m))
    y[0, 0] = rng.normal(size=m)
    mask = np.zeros((T, 1, m), dtype=bool)
    mask[1] = True
    data = ObservationSet(y=y, times=np.array([0.0, 1.0]), spatial=sp,
                          missing_mask=mask)
    spec = tiny_spec(temporal_kernel="ar1", psi=0.0)
    sampler = GibbsSampler(spec, data)
    state = sampler.init_state(rng)
    state.lam[:] = 1.0
    state.sigma2[:] = 1.0
    state.upsilon = np.eye(1)
    state.beta = np.zeros(0)
    target_mean = y[0, 0].sum() / (m + 1)
    target_var = 1.0 / (m + 1)
    S = 20000
    draws = np.empty(S)
    second = np.empty(S)
    for s in range(S):
        sampler.update_factors(state, rng)
        draws[s] = state.eta[0, 0]
        second[s] = state.eta[1, 0]
    assert draws.mean() == pytest.approx(target_mean, abs=3 * np.sqrt(target_var / S))
    assert draws.var() == pytest.approx(target_var, rel=0.1)
    # masked visit with H = I: factor there stays at its N(0, 1) prior
    assert second.mean() == pytest.approx(0.0, abs=3 / np.sqrt(S))
    assert second.var() == pytest.approx(1.0, rel=0.1)


# -- regression update -------------------------------------------------------------


def test_regression_noop_without_covariates(rng):
    data = gaussian_dataset()
    spec = tiny_spec()
    sampler = GibbsSampler(spec, data)
    state = sampler.init_state(rng)
    before = state.beta.copy()
    sampler.update_regression(state, rng)
    assert np.array_equal(state.beta, before)


def test_regression_grand_mean(rng):
    data = gaussian_dataset(T=5, p=1)
    data.covariates[:] = 1.0
    spec = tiny_spec()
    sampler = GibbsSampler(spec, data)
    state = sampler.init_state(rng)
    state.lam[:] = 0.0
    state.eta[:] = 0.0
    state.sigma2[:] = 1.0
    n = data.T * data.n_cells
    target = data.y.sum() / (1.0 / 1000.0 + n)
    S = 10000
    draws = np.empty(S)
    for s in range(S):
        sampler.update_regression(state, rng)
        draws[s] = state.beta[0]
    se = np.sqrt(1.0 / n / S)
    assert draws.mean() == pytest.approx(target, abs=3 * se)
    assert abs(target - data.y.mean() * n / (n + 1e-3)) < 1e-12


def test_regression_orthogonal_columns_decorrelate(rng):
    data = gaussian_dataset(T=4, p=2)
    n_cells = data.n_cells
    signs = np.resize([1.0, -1.0], n_cells)
    data.covariates[:, :, :, 0] = 1.0
    data.covariates[:, :, :, 1] = signs.reshape(1, 1, n_cells)
    spec = tiny_spec()
    sampler = GibbsSampler(spec, data)
    state = sampler.init_state(rng)
    state.lam[:] = 0.0
    state.eta[:] = 0.0
    state.sigma2[:] = 1.0
    S = 10000
    draws = np.empty((S, 2))
    for s in range(S):
        sampler.update_regression(state, rng)
        draws[s] = state.beta
    r = np.corrcoef(draws.T)[0, 1]
    assert abs(r) < 4.0 / np.sqrt(S)


# -- variance components -----------------------------------------------------------


def test_sigma2_zero_residual_ig(rng):
    # zero residuals, T=10, a=1, b=1 -> conditional IG(6, 1)
    m = 3
    sp = king_grid(1, m)
    data = ObservationSet(y=np.zeros((10, 1, m)), times=np.linspace(0, 1, 10),
                          spatial=sp)
    spec = tiny_spec(sigma2_a=1.0, sigma2_b=1.0)
    sampler = GibbsSampler(spec, data)
    state = sampler.init_state(rng)
    state.lam[:] = 0.0
    state.eta[:] = 0.0
    S = 20000
    draws = np.empty((S, m))
    for s in range(S):
        sampler._update_sigma2(state, rng)
        draws[s] = state.sigma2
    mean, var = 1.0 / 5.0, 1.0 / (25.0 * 4.0)
    assert draws.mean() == pytest.approx(mean, abs=3 * np.sqrt(var / draws.size))
    assert draws.var() == pytest.approx(var, rel=0.1)


def test_iw_prior_defaults_and_scalar_scale():
    df, scale = sampler_module._iw_prior(None, None, 3)
    assert df == 4 and np.array_equal(scale, np.eye(3))
    df, scale = sampler_module._iw_prior(2.5, 0.5, 2)
    assert df == 2.5 and np.array_equal(scale, 0.5 * np.eye(2))
    given = np.array([[2.0, 0.5], [0.5, 1.0]])
    assert np.array_equal(sampler_module._iw_prior(3.0, given, 2)[1], given)


@pytest.mark.parametrize("d", [1, 2, 6])
def test_invwishart_rvs_matches_scipy(d):
    meta = np.random.default_rng(600 + d)
    for case in range(40):
        df = d - 1 + [0.5, 1.0, 2.5, 7.0, 31.25][case % 5]
        G = meta.standard_normal((d, d + 2))
        scale = G @ G.T * meta.uniform(0.01, 100.0)
        ours, ref = np.random.default_rng(case), np.random.default_rng(case)
        draw = invwishart_rvs(df, scale, ours)
        expect = np.atleast_2d(invwishart.rvs(df, scale, random_state=ref))
        assert draw.tobytes() == expect.tobytes()
        assert ours.random() == ref.random()
    with pytest.raises(ValueError):
        invwishart_rvs(d - 1, np.eye(d), meta)
    not_pd = -np.eye(d)
    with pytest.raises(np.linalg.LinAlgError):
        invwishart_rvs(d + 1.0, not_pd, meta)


@pytest.mark.parametrize("n, rhs", [(52, ()), (52, (7,)), (1, ()), (1, (3,))])
def test_gaussian_draw_is_bit_identical_to_scipy_solves(n, rhs):
    gen = np.random.default_rng(n + len(rhs))
    G = gen.standard_normal((n, n + 3))
    P = G @ G.T + np.eye(n)
    # column right-hand sides as the stick update passes them: a transposed view
    b = gen.standard_normal((*rhs, n)).T
    cho = sla.cho_factor(P, lower=True)
    ref = np.random.default_rng(4)
    expect = sla.cho_solve(cho, b) + sla.solve_triangular(
        cho[0].T, ref.standard_normal(b.shape), lower=False)
    ours = np.random.default_rng(4)
    got = sampler_module._gaussian_draw(sampler_module._cho_lower(P), b, ours)
    assert got.shape == expect.shape
    assert got.tobytes() == expect.tobytes()
    assert ours.random() == ref.random()


def test_gaussian_draw_rejects_bad_input():
    P = np.array([[2.0, 0.5], [0.5, 1.0]])
    bad = P.copy()
    bad[1, 0] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        sampler_module._cho_lower(bad)
    with pytest.raises(ValueError, match="infs or NaNs"):
        sampler_module._gaussian_draw(sampler_module._cho_lower(P), np.array([1.0, np.inf]),
                                      np.random.default_rng(0))
    with pytest.raises(np.linalg.LinAlgError):
        sampler_module._cho_lower(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_kappa_reduces_to_inverse_gamma_for_single_type(rng):
    data = masked_dataset(m=3)
    spec = tiny_spec(kappa_df=5.0, kappa_scale=2.0)
    sampler = GibbsSampler(spec, data)
    state = sampler.init_state(rng)
    # hold the stick fields fixed: kappa | alpha ~ IW(df + n m, Theta + S)
    V = np.vstack([a for a in state.stick.alpha if a.shape[0]])
    F_prec, _, _ = sampler.spatial_ops(state.rho)
    quad = sum(float(v @ F_prec @ v) for v in V)
    df = 5.0 + V.shape[0] * 3
    scale = 2.0 + quad
    S = 20000
    draws = np.empty(S)
    for s in range(S):
        sampler._update_kappa(state, rng)
        draws[s] = state.kappa[0, 0]
    expect_mean = scale / (df - 2.0)  # IW(df, s) in 1-D = IG(df/2, s/2)
    assert draws.mean() == pytest.approx(expect_mean, rel=0.05)


def test_delta_conditional_rate_reverts_when_atoms_zero(rng):
    data = masked_dataset()
    spec = tiny_spec(k=2, L=3)
    sampler = GibbsSampler(spec, data)
    state = sampler.init_state(rng)
    for j in range(2):
        state.stick.theta[j][:] = 0.0
    n_atoms = np.array([t.size for t in state.stick.theta], float)
    S = 20000
    draws = np.empty((S, 2))
    for s in range(S):
        state.mgp.delta[:] = [1.0, 1.0]
        sampler._update_delta(state, rng)
        draws[s] = state.mgp.delta
    # zero atoms leave the prior rate of 1; shapes gain half the atom count
    expect1 = spec.a1 + 0.5 * n_atoms.sum()
    expect2 = spec.a2 + 0.5 * n_atoms[1]
    assert draws[:, 0].mean() == pytest.approx(expect1, rel=0.05)
    assert draws[:, 1].mean() == pytest.approx(expect2, rel=0.05)


# -- correlation parameters ----------------------------------------------------------


def test_rho_fixed_is_noop(rng):
    data = gaussian_dataset()
    spec = tiny_spec(rho=0.99, rho_prior="fixed")
    sampler = GibbsSampler(spec, data)
    state = sampler.init_state(rng)
    for _ in range(5):
        sampler.update_correlation_parameters(state, rng)
    assert state.rho == 0.99


def test_proposal_adaptation_moves_scale(rng):
    data = gaussian_dataset()
    spec = tiny_spec(k=1)
    sampler = GibbsSampler(spec, data)
    state = sampler.init_state(rng)
    sampler.scale["psi"] = 100.0  # force near-zero acceptance
    for _ in range(60):
        sampler.update_correlation_parameters(state, rng)
    sampler.adapt_proposals()
    assert sampler.scale["psi"] < 100.0


def test_each_kernel_is_built_at_most_once_per_sweep(monkeypatch):
    builds = {"spatial_correlation": 0, "temporal_correlation": 0}

    def counted(name):
        build = getattr(sampler_module, name)

        def wrapper(*args, **kwargs):
            builds[name] += 1
            return build(*args, **kwargs)
        return wrapper

    for name in builds:
        monkeypatch.setattr(sampler_module, name, counted(name))
    spec = tiny_spec(k=2, loadings_prior="gaussian-car", rho_prior="uniform")
    sampler = GibbsSampler(spec, gaussian_dataset())
    draws = sampler.run(60, burn_in=30, seed=4)
    assert 0 < draws.acceptance["rho"] < 1 and 0 < draws.acceptance["psi"] < 1
    # one proposal per sweep for each of rho and psi, plus the initial state
    assert 60 < builds["spatial_correlation"] <= 61
    assert 60 < builds["temporal_correlation"] <= 61


_EVERY_MODEL = {"loadings", "eta", "kappa", "upsilon", "delta"}


@pytest.mark.parametrize("model, family, p, change, conditional", [
    ("M1", "gaussian", 0, {}, {"sigma2", "psi"}),
    ("M2", "gaussian", 0, {}, {"sigma2", "psi"}),
    ("M3", "gaussian", 0, {}, {"sigma2", "psi"}),
    ("M4", "gaussian", 0, {}, {"sigma2", "psi"}),
    ("M5", "gaussian", 0, {}, {"sigma2", "psi"}),
    ("M1", "binomial", 1, {}, {"omega", "beta", "psi"}),
    ("M4", "gaussian", 0, {"rho_prior": "uniform"}, {"sigma2", "rho", "psi"}),
    ("M2", "gaussian", 0, {"rho_prior": "uniform"}, {"sigma2", "psi"}),
    ("M1", "gaussian", 0, {"psi": 0.5}, {"sigma2"}),
    ("M1", "gaussian", 2, {}, {"sigma2", "beta", "psi"}),
], ids=["M1", "M2", "M3", "M4", "M5", "M1-binomial", "M4-free-rho",
        "M2-free-rho-unused", "M1-fixed-psi", "M1-covariates"])
def test_sweep_runs_the_conditionals_of_its_model(monkeypatch, model, family, p, change,
                                                  conditional):
    """One sweep runs every conditional once, except omega (binomial data
    only), sigma2 (Gaussian data only), beta's solve (covariates only), the
    rho proposal (free rho with spatial loadings only) and the psi proposal
    (psi unset only)."""
    spec = dataclasses.replace(simulation.model_spec_for(model, k=2, family=family),
                               **change)
    data = binomial_dataset(p=p) if family == "binomial" else gaussian_dataset(p=p)
    sampler = GibbsSampler(spec, data)
    rng = np.random.default_rng(3)
    state = sampler.init_state(rng)
    calls = collections.Counter()

    def counted(fn, key):
        def wrapper(*args):
            calls[key(args)] += 1
            return fn(*args)
        return wrapper

    for name, attr in (("omega", "update_polya_gamma"), ("loadings", "update_loadings_block"),
                       ("eta", "update_factors"), ("sigma2", "_update_sigma2"),
                       ("kappa", "_update_kappa"), ("upsilon", "_update_upsilon"),
                       ("delta", "_update_delta")):
        setattr(sampler, attr, counted(getattr(sampler, attr), lambda args, name=name: name))
    sampler._metropolis = counted(sampler._metropolis, lambda args: args[0])  # rho or psi
    regression = sampler.update_regression

    def beta_update(state, rng):  # counts the Gaussian draws of beta's update
        with monkeypatch.context() as patch:
            patch.setattr(sampler_module, "_gaussian_draw",
                          counted(sampler_module._gaussian_draw, lambda args: "beta"))
            regression(state, rng)

    sampler.update_regression = beta_update
    sampler.sweep(state, rng)
    assert calls == dict.fromkeys(_EVERY_MODEL | conditional, 1)


@pytest.mark.parametrize("loadings_prior", ["gaussian-car", "psbp-spatial"])
def test_quadratic_forms_match_kronecker_precision_with_two_types(rng, loadings_prior):
    T, m = 4, 6
    data = ObservationSet(y=rng.normal(size=(T, 2, m)), times=np.linspace(0.0, 1.0, T),
                          spatial=king_grid(2, 3))
    spec = tiny_spec(k=2, L=4, loadings_prior=loadings_prior, rho=0.7,
                     shrinkage="independent-gamma", kappa_scale=np.eye(2))
    sampler = GibbsSampler(spec, data)
    state = sampler.init_state(rng)
    state.kappa = np.array([[1.0, 0.3], [0.3, 0.5]])
    F = spatial_correlation(SpatialKernelSpec("car", 0.7), data.spatial)[0]
    K_prec = np.kron(np.linalg.inv(state.kappa), np.linalg.inv(F))  # location-fastest vec
    if spec.uses_sticks:
        rows = np.vstack(state.stick.alpha)
        scales = np.ones(rows.shape[0])
    else:
        rows, scales = state.lam.T, state.mgp.precisions()
    ssq = np.einsum("rn,nm,rm->r", rows, K_prec, rows)
    expect = -0.5 * rows.shape[0] * 2 * np.linalg.slogdet(F)[1] - 0.5 * scales @ ssq
    assert sampler._rho_logtarget(state, 0.7) == pytest.approx(expect, rel=1e-10)
    if not spec.uses_sticks:
        class GammaArgs:
            def gamma(self, shape, scale):
                self.rate = 1.0 / scale
                return np.ones_like(shape)

        rec = GammaArgs()
        sampler._update_delta(state, rec)
        assert np.allclose(rec.rate, spec.a2 + 0.5 * ssq, rtol=1e-10)


@pytest.mark.parametrize("kernel, structure, rho", [
    ("car", king_grid(2, 3), 0.8), ("exponential-gp", point_line(6), 0.7)])
def test_kernel_ops_factor_precision_and_logdet(kernel, structure, rho):
    T = 5
    data = ObservationSet(y=np.zeros((T, 1, 6)), times=np.linspace(0.0, 1.0, T),
                          spatial=structure)
    sampler = GibbsSampler(tiny_spec(spatial_kernel=kernel), data)
    F = spatial_correlation(SpatialKernelSpec(kernel, rho), structure)[0]
    prec, factor, logdet = sampler.spatial_ops(rho)
    assert np.allclose(factor @ factor.T, F)
    assert np.allclose(prec @ F, np.eye(F.shape[0]))
    assert logdet == pytest.approx(np.linalg.slogdet(F)[1], rel=1e-10)
    H = temporal_correlation(TemporalKernelSpec("exponential", 2.0), data.times)[0]
    chol_H, H_inv, logdet_H = sampler.temporal_ops(2.0)
    assert np.allclose(chol_H @ chol_H.T, H)
    assert np.allclose(H_inv @ H, np.eye(T))
    assert logdet_H == pytest.approx(np.linalg.slogdet(H)[1], rel=1e-10)


# -- sweeps, runs, and bookkeeping ------------------------------------------------------


def test_sweep_deterministic():
    data = gaussian_dataset()
    spec = ModelSpec(k=2)
    s1 = GibbsSampler(spec, data).init_state(np.random.default_rng(3))
    s2 = s1.copy()
    GibbsSampler(spec, data).sweep(s1, np.random.default_rng(11))
    GibbsSampler(spec, data).sweep(s2, np.random.default_rng(11))
    assert np.array_equal(s1.eta, s2.eta)
    assert np.array_equal(s1.lam, s2.lam)
    assert all(np.array_equal(a, b) for a, b in zip(s1.stick.alpha, s2.stick.alpha))


def test_sweep_preserves_invariants(rng):
    data = gaussian_dataset(T=5)
    for spec in (ModelSpec(k=2), ModelSpec(k=2, L=3)):
        sampler = GibbsSampler(spec, data)
        state = sampler.init_state(rng)
        for _ in range(30):
            sampler.sweep(state, rng)
            assert_stick_consistency(spec, state)


def test_run_chain_bookkeeping():
    data = gaussian_dataset()
    spec = ModelSpec(k=1, L=2)
    draws = run_chain(spec, data, n_iter=10, burn_in=0, thin=1, seed=4)
    assert draws.n_draws == 10
    assert np.array_equal(draws.iteration, np.arange(1, 11))
    draws2 = run_chain(spec, data, n_iter=10, burn_in=4, thin=2, seed=4)
    assert draws2.n_draws == 3
    assert np.array_equal(draws2.iteration, [6, 8, 10])
    assert draws2.loglik.shape == (data.T * data.n_cells, 3)


def test_parallel_chains_match_serial(monkeypatch):
    # the workers start in a spawn context with BLAS pinned to one thread;
    # the caller's environment is left as it was
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    before = dict(os.environ)
    data = binomial_dataset()
    spec = ModelSpec(k=1, likelihood=LikelihoodSpec("binomial"))
    serial = run_chains(spec, data, 12, 2, 1, seed=6, chains=2, threads=1)
    parallel = run_chains(spec, data, 12, 2, 1, seed=6, chains=2, threads=2)
    assert dict(os.environ) == before
    assert np.array_equal(parallel.chain, np.repeat([0, 1], 10))
    for field in dataclasses.fields(serial):
        a, b = getattr(serial, field.name), getattr(parallel, field.name)
        if isinstance(a, list):
            assert len(a) == len(b), field.name
            assert all(np.array_equal(x, y) for x, y in zip(a, b)), field.name
        elif isinstance(a, np.ndarray):
            assert np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


_UNGUARDED_SCRIPT = """
import numpy as np
from spfactor.data import ObservationSet, SpatialStructure
from spfactor.sampler import ModelSpec, run_chains

spatial = SpatialStructure(kind="areal", adjacency=np.array([[0.0, 1.0], [1.0, 0.0]]))
data = ObservationSet(y=np.zeros((3, 1, 2)), times=np.arange(3.0), spatial=spatial)
run_chains(ModelSpec(k=1), data, 4, 2, 1, seed=1, chains=2, threads=2)
"""


def test_parallel_chains_without_main_guard_name_the_guard(tmp_path):
    # each spawned worker re-runs the unguarded script, whose own pool
    # cannot start while the worker boots; two workers start and die
    script = tmp_path / "unguarded.py"
    script.write_text(_UNGUARDED_SCRIPT)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=os.path.abspath(src)))
    assert proc.returncode != 0
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("RuntimeError: a chain worker process died")
    assert 'if __name__ == "__main__":' in last


def test_ar1_on_fractional_gaps_is_a_usage_error():
    # psi ** gap is undefined for psi < 0 and a fractional gap, so a sampled
    # or negative psi is refused up front instead of failing at some draw
    data = gaussian_dataset()  # times 0.2 apart
    for psi in (None, -0.3):
        with pytest.raises(ValidationError, match="temporal_kernel"):
            GibbsSampler(tiny_spec(temporal_kernel="ar1", psi=psi), data)
    GibbsSampler(tiny_spec(temporal_kernel="ar1", psi=0.3), data)
    whole = dataclasses.replace(data, times=np.arange(data.T, dtype=float))
    draws = GibbsSampler(tiny_spec(temporal_kernel="ar1"), whole).run(6, seed=2)
    assert np.all(np.abs(draws.psi) < 1.0)


def test_memmapped_loglik_leaves_no_temp_file(tmp_path, monkeypatch):
    data = gaussian_dataset()
    spec = ModelSpec(k=1)
    in_memory = GibbsSampler(spec, data).run(12, burn_in=2, seed=5)
    monkeypatch.setattr(sampler_module, "_LOGLIK_MEMMAP_CELLS", 0)
    mapped = GibbsSampler(spec, data).run(12, burn_in=2, seed=5, loglik_dir=tmp_path)
    assert isinstance(mapped.loglik, np.memmap)
    assert list(tmp_path.iterdir()) == []
    assert np.array_equal(mapped.loglik, in_memory.loglik)
    assert np.array_equal(mapped.lam, in_memory.lam)


def test_micro_model_sigma2_conjugate_posterior(rng):
    # k=1, L=1, p=0, m=1, O=1, T=4, fixed eta and loadings: the sigma2 chain
    # draws iid from the analytic IG posterior
    sp = point_line(1)
    y = np.array([0.3, -0.5, 1.1, 0.2]).reshape(4, 1, 1)
    data = ObservationSet(y=y, times=np.linspace(0, 1, 4), spatial=sp)
    spec = ModelSpec(k=1, L=1, spatial_kernel="exponential-gp", rho=1.0,
                     sigma2_a=2.0, sigma2_b=1.0)
    sampler = GibbsSampler(spec, data)
    state = sampler.init_state(rng)
    x = np.empty(4000)
    draw_rng = np.random.default_rng(77)
    for s in range(x.size):
        sampler._update_sigma2(state, draw_rng)
        x[s] = state.sigma2[0]
    resid = y[:, 0, 0] - state.lam[0, 0] * state.eta[:, 0]
    a_post = 2.0 + 2.0
    b_post = 1.0 + 0.5 * float(resid @ resid)
    mean = b_post / (a_post - 1.0)
    var = b_post ** 2 / ((a_post - 1.0) ** 2 * (a_post - 2.0))
    assert x.mean() == pytest.approx(mean, abs=3 * np.sqrt(var / x.size))
    assert x.var() == pytest.approx(var, rel=0.15)


def test_finite_and_slice_modes_agree_on_micro_model():
    data = gaussian_dataset(T=6, rows=2, cols=2, seed=9)
    common = dict(k=1, sigma2_a=3.0, sigma2_b=2.0, kappa_df=4.0, kappa_scale=1.0,
                  upsilon_df=4.0, upsilon_scale=1.0)
    finite = ModelSpec(L=8, **common)
    sliced = ModelSpec(L=None, **common)
    d1 = run_chain(finite, data, 4000, burn_in=500, thin=1, seed=21)
    d2 = run_chain(sliced, data, 4000, burn_in=500, thin=1, seed=22)
    m1 = d1.lam.mean(axis=(1, 2))
    m2 = d2.lam.mean(axis=(1, 2))
    se = np.sqrt(batch_se(m1) ** 2 + batch_se(m2) ** 2)
    assert abs(m1.mean() - m2.mean()) < 3 * se


def test_checkpoint_roundtrip_and_resume(tmp_path):
    data = gaussian_dataset()
    spec = ModelSpec(k=2, psi=2.0)  # fixed psi: no proposal-scale state to carry
    sampler = GibbsSampler(spec, data)
    rng = np.random.default_rng(8)
    state = sampler.init_state(rng)
    for _ in range(5):
        sampler.sweep(state, rng)
    path = tmp_path / "chk.bin"
    save_checkpoint(path, state, rng=rng, sweep_index=5)
    loaded, meta = load_checkpoint(path)
    assert meta["sweep_index"] == 5
    assert np.array_equal(loaded.eta, state.eta)
    assert np.array_equal(loaded.lam, state.lam)
    assert all(np.array_equal(a, b) for a, b in
               zip(loaded.stick.alpha, state.stick.alpha))
    # resuming with the saved rng state continues the exact trajectory
    rng_fresh = np.random.default_rng()
    rng_fresh.bit_generator.state = meta["rng_state"]
    cont = loaded
    sampler2 = GibbsSampler(spec, data)
    for _ in range(3):
        sampler2.sweep(cont, rng_fresh)
    straight = state
    for _ in range(3):
        sampler.sweep(straight, rng)
    assert np.allclose(cont.eta, straight.eta)
    assert np.allclose(cont.lam, straight.lam)


def _assert_same_state(a: ChainState, b: ChainState) -> None:
    for name in ("beta", "eta", "lam", "kappa", "upsilon", "sigma2"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None and y is None) or np.array_equal(x, y), name
    assert (a.rho, a.psi) == (b.rho, b.psi)
    assert np.array_equal(a.mgp.delta, b.mgp.delta)
    assert a.mgp.multiplicative == b.mgp.multiplicative
    assert (a.stick is None) == (b.stick is None)
    if a.stick is not None:
        assert np.array_equal(a.stick.xi, b.stick.xi)
        for x, y in zip(a.stick.alpha + a.stick.theta, b.stick.alpha + b.stick.theta):
            assert np.array_equal(x, y)


def test_binomial_sweep_draws_omega_before_reading_it():
    # whatever the sampler held as omega before a sweep cannot change it
    data = binomial_dataset(T=4, m=4)
    spec = ModelSpec(k=2, likelihood=LikelihoodSpec("binomial"))
    ends = []
    for start in (None, np.full((data.T, data.n_cells), np.nan)):
        sampler = GibbsSampler(spec, data)
        rng = np.random.default_rng(12)
        state = sampler.init_state(rng)
        sampler.omega = start
        sampler.sweep(state, rng)
        ends.append((state, rng.bit_generator.state))
    _assert_same_state(ends[0][0], ends[1][0])
    assert ends[0][1] == ends[1][1]


@pytest.mark.parametrize("family, L", [("gaussian", None), ("binomial", None),
                                       ("binomial", 3)])
def test_checkpoint_resume_continues_exactly(tmp_path, family, L):
    data = gaussian_dataset() if family == "gaussian" else binomial_dataset(T=4, m=4)
    spec = ModelSpec(k=2, L=L, likelihood=LikelihoodSpec(family))
    sampler = GibbsSampler(spec, data)
    rng = np.random.default_rng(8)
    state = sampler.init_state(rng)
    for _ in range(4):
        sampler.sweep(state, rng)
    path = tmp_path / "chk.bin"
    save_checkpoint(path, state, rng=rng, sweep_index=4)
    loaded, meta = load_checkpoint(path)
    _assert_same_state(loaded, state)
    rng_resumed = np.random.default_rng()
    rng_resumed.bit_generator.state = meta["rng_state"]
    resumed = GibbsSampler(spec, data)
    for _ in range(3):
        sampler.sweep(state, rng)
        resumed.sweep(loaded, rng_resumed)
    _assert_same_state(loaded, state)
    assert rng_resumed.bit_generator.state == rng.bit_generator.state


def test_load_checkpoint_reads_the_older_layout(tmp_path):
    # Checkpoints that also stored the truncations L, slice_mode, the
    # Polya-Gamma draws, the MGP shapes, k and has_* flags still load; the
    # extra keys are ignored and the fit resumes as from the new layout.
    data = binomial_dataset(T=4, m=4)
    spec = ModelSpec(k=2, likelihood=LikelihoodSpec("binomial"))
    sampler = GibbsSampler(spec, data)
    rng = np.random.default_rng(5)
    state = sampler.init_state(rng)
    sampler.sweep(state, rng)
    stick = state.stick
    meta = {"kind": "checkpoint", "sweep_index": 1, "rho": state.rho, "psi": state.psi,
            "mgp_a1": spec.a1, "mgp_a2": spec.a2, "mgp_multiplicative": True,
            "has_stick": True, "slice_mode": True, "has_sigma2": False,
            "has_omega": True, "rng_state": rng.bit_generator.state, "k": spec.k}
    arrays = {"beta": state.beta, "eta": state.eta, "lam": state.lam,
              "kappa": state.kappa, "upsilon": state.upsilon, "delta": state.mgp.delta,
              "omega": sampler.omega, "xi": stick.xi, "L": stick.L}
    for j in range(spec.k):
        arrays[f"alpha_{j}"] = stick.alpha[j]
        arrays[f"theta_{j}"] = stick.theta[j]
    write_container(tmp_path / "old.bin", meta, arrays)
    save_checkpoint(tmp_path / "new.bin", state, rng=rng, sweep_index=1)
    old, old_meta = load_checkpoint(tmp_path / "old.bin")
    new, new_meta = load_checkpoint(tmp_path / "new.bin")
    _assert_same_state(old, state)
    _assert_same_state(new, state)
    assert old_meta["rng_state"] == new_meta["rng_state"]
    ends = []
    for loaded, meta_read in ((old, old_meta), (new, new_meta)):
        rng_resumed = np.random.default_rng()
        rng_resumed.bit_generator.state = meta_read["rng_state"]
        GibbsSampler(spec, data).sweep(loaded, rng_resumed)
        ends.append(rng_resumed.bit_generator.state)
    _assert_same_state(old, new)
    assert ends[0] == ends[1]


def _count_stick_calls(monkeypatch, sampler):
    """Count the sampler's Gaussian solves and truncated-normal passes, and
    record the row count of each prior stick draw."""
    calls, prior_rows = collections.Counter(), []
    for name in ("_gaussian_draw", "truncated_normal"):
        def wrapper(*args, fn=getattr(sampler_module, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(sampler_module, name, wrapper)
    draw_prior = sampler._draw_alpha_prior

    def counted_prior(cho_k, rho, rng, count=1):
        prior_rows.append(count)
        return draw_prior(cho_k, rho, rng, count)
    sampler._draw_alpha_prior = counted_prior
    return calls, prior_rows


def test_slice_sweep_draws_sticks_for_every_column_at_once(monkeypatch):
    """An M1 sweep solves once for all stick fields and once for eta, draws
    every latent probit in one truncated-normal pass, and regrows every
    short column's tail in one prior draw per round."""
    spec = ModelSpec(k=6)
    sampler = GibbsSampler(spec, gaussian_dataset())
    rng = np.random.default_rng(5)
    state = sampler.init_state(rng)
    for _ in range(3):
        sampler.sweep(state, rng)
    stick = state.stick
    for j in range(spec.k):  # one stick of weight 0.0013: every column is short
        stick.alpha[j] = np.full((1, sampler.N), -3.0)
        stick.theta[j] = stick.theta[j][:1]
    stick.xi[:] = 1
    calls, prior_rows = _count_stick_calls(monkeypatch, sampler)
    sampler.sweep(state, rng)
    assert calls == {"_gaussian_draw": 2, "truncated_normal": 1}
    assert prior_rows[0] == spec.k  # the first round doubles all six columns
    assert 2 <= len(prior_rows) <= math.log2(sampler_module._MAX_STICKS)
    assert_stick_consistency(spec, state)


@pytest.mark.parametrize("L, solves, passes", [(3, 2, 1), (1, 1, 0)])
def test_finite_sweep_draws_sticks_for_every_column_at_once(monkeypatch, L, solves,
                                                            passes):
    # L = 1 has no sticks at all: only eta's solve is left
    spec = ModelSpec(k=3, L=L)
    sampler = GibbsSampler(spec, gaussian_dataset())
    rng = np.random.default_rng(6)
    state = sampler.init_state(rng)
    calls, prior_rows = _count_stick_calls(monkeypatch, sampler)
    for _ in range(3):
        calls.clear()
        sampler.sweep(state, rng)
        # Counter equality treats a missing key as a count of 0
        assert calls == collections.Counter(_gaussian_draw=solves, truncated_normal=passes)
        assert prior_rows == []
        assert_stick_consistency(spec, state)
        assert np.array_equal(state.lam, loadings_from_atoms(state.stick))


def test_stick_columns_read_the_loadings_drawn_before_them():
    """Each column's indicators and atoms see the columns before it at their
    new loadings: checked against the per-column data terms of
    `_column_stats`.  With sigma2 = 1e-6 the data decide every indicator and
    pin each atom to within a few 1e-4 of its posterior mean."""
    spec = ModelSpec(k=3, L=2)
    sampler = GibbsSampler(spec, gaussian_dataset(T=6, rows=2, cols=4))
    rng = np.random.default_rng(12)
    state = sampler.init_state(rng)
    state.sigma2[:] = 1e-6
    for j in range(spec.k):
        state.stick.alpha[j][:] = 0.0
        state.stick.theta[j] = np.array([-1.0, 1.0]) * (j + 1)
    state.stick.xi[:] = rng.integers(1, 3, size=state.stick.xi.shape)
    state.lam = loadings_from_atoms(state.stick)
    before = state.copy()
    sampler._update_sticks(state, rng)

    yw, prec = sampler.working(before)
    tau = before.mgp.precisions()
    for j in range(spec.k):
        A, B = sampler._column_stats(before, yw, prec, j)
        theta = before.stick.theta[j]
        xi = np.argmax(theta[:, None] * A - 0.5 * theta[:, None] ** 2 * B, axis=0) + 1
        assert np.array_equal(state.stick.xi[j], xi)
        post_prec = tau[j] + np.bincount(xi - 1, weights=B, minlength=2)
        post_mean = np.bincount(xi - 1, weights=A, minlength=2) / post_prec
        assert np.all(np.abs(state.stick.theta[j] - post_mean) < 5 / np.sqrt(post_prec))
        before.lam[:, j] = state.lam[:, j]


def test_slice_tails_cover_every_slice_variable():
    """After the regrowth, no cell's unallocated mass exceeds its slice
    variable, except in a column that reached _MAX_STICKS."""
    spec = ModelSpec(k=3)
    sampler = GibbsSampler(spec, gaussian_dataset())
    rng = np.random.default_rng(8)
    state = sampler.init_state(rng)
    n_max = sampler_module._MAX_STICKS
    capped = []
    for sweep in range(12):
        if sweep == 10:
            # column 0's one stick has weight 1e-100 and kappa makes every
            # prior stick about 1/2: 256 sticks leave about 2^-256 > u
            state.kappa = np.array([[1e-6]])
            state.stick.alpha[0] = np.full((1, sampler.N), -21.3)
            state.stick.theta[0] = state.stick.theta[0][:1]
            state.stick.xi[0] = 1
        u = sampler._grow_slice_tails(state, rng)
        for j, (alpha, theta) in enumerate(zip(state.stick.alpha, state.stick.theta)):
            assert alpha.shape == (theta.size, sampler.N) and alpha.shape[0] <= n_max
            left = stick_weights_matrix(alpha, closing=True)[-1]
            if alpha.shape[0] == n_max:
                capped.append((sweep, j))
            else:
                assert np.all(left <= u[j])
        # drop the unused tail, as the sweep does, and move the chain on
        state.stick.alpha = [a[:xi.max()] for a, xi in zip(state.stick.alpha, state.stick.xi)]
        state.stick.theta = [t[:xi.max()] for t, xi in zip(state.stick.theta, state.stick.xi)]
        sampler.sweep(state, rng)
    assert (10, 0) in capped


@pytest.mark.parametrize("L", [None, 3])
def test_stick_truncation_is_the_atom_count(rng, L):
    spec = ModelSpec(k=2, L=L)
    sampler = GibbsSampler(spec, gaussian_dataset(T=5))
    state = sampler.init_state(rng)
    for _ in range(10):
        sampler.sweep(state, rng)
        stick = state.stick
        assert np.array_equal(stick.L, [t.size for t in stick.theta])
        assert np.array_equal(stick.L, stick.xi.max(axis=1) if L is None else [L, L])


def test_chain_with_missing_cells(rng):
    data = gaussian_dataset(T=5)
    data.missing_mask[2, 0, 1] = True
    data.missing_mask[4, 0, 3] = True
    data.y[2, 0, 1] = np.nan
    data.y[4, 0, 3] = np.nan
    spec = ModelSpec(k=1, L=2)
    draws = run_chain(spec, data, 30, burn_in=10, thin=1, seed=6)
    n_obs = data.T * data.n_cells - 2
    assert draws.loglik.shape == (n_obs, 20)
    assert np.all(np.isfinite(draws.loglik))


def test_pooled_sigma2(rng):
    data = gaussian_dataset(T=5)
    spec = ModelSpec(k=1, L=2, pool_sigma2=True, sigma2_a=2.0, sigma2_b=1.0)
    draws = run_chain(spec, data, 20, burn_in=5, thin=1, seed=3)
    # pooled mode keeps one shared variance per draw
    assert np.all(draws.sigma2 == draws.sigma2[:, :1])


def test_alternate_model_menu_modes(rng):
    data = gaussian_dataset(T=5)
    for lp, sh in (("psbp-independent", "mgp"),
                   ("gaussian-car", "independent-gamma")):
        spec = ModelSpec(k=2, loadings_prior=lp, shrinkage=sh)
        draws = run_chain(spec, data, 25, burn_in=5, thin=1, seed=8)
        assert draws.n_draws == 20
        assert np.all(np.isfinite(draws.lam))
        if lp.startswith("psbp"):
            assert all(np.allclose(w.sum(axis=1), draws.n_draws, atol=1e-9)
                       for w in draws.weight_sum)
        else:
            assert draws.weight_sum == []


def test_weight_sum_is_exact_sum_of_kept_weights():
    # n_iter < 50 runs no proposal adaptation, so sweeping by hand with the
    # same seed retraces run()
    data = gaussian_dataset(T=5)
    spec = ModelSpec(k=2)
    n_iter, burn_in, thin, seed = 30, 10, 2, 4
    draws = GibbsSampler(spec, data).run(n_iter, burn_in, thin, seed)
    sampler = GibbsSampler(spec, data)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    state = sampler.init_state(rng)
    kept = [[] for _ in range(spec.k)]
    for it in range(1, n_iter + 1):
        sampler.sweep(state, rng)
        if it > burn_in and (it - burn_in) % thin == 0:
            for j in range(spec.k):
                kept[j].append(stick_weights_matrix(state.stick.alpha[j],
                                                    closing=True).T)
    assert len({w.shape[1] for ws in kept for w in ws}) > 1  # truncation varies
    means = []
    for j, ws in enumerate(kept):
        padded = np.zeros((len(ws), sampler.N, max(w.shape[1] for w in ws)))
        for s, w in enumerate(ws):
            padded[s, :, :w.shape[1]] = w
        assert np.array_equal(padded.sum(axis=0), draws.weight_sum[j])
        means.append(padded.mean(axis=0))
    assert np.array_equal(build_w(draws, spec.k), np.concatenate(means, axis=1))


def test_binomial_chain_runs_and_updates_omega(rng):
    m = 4
    sp = king_grid(2, 2)
    T = 5
    yb = (np.random.default_rng(3).uniform(size=(T, 1, m)) < 0.5).astype(float)
    data = ObservationSet(y=yb, times=np.linspace(0, 1, T), spatial=sp,
                          trials=np.ones((T, 1, m)))
    spec = ModelSpec(k=1, L=2, likelihood=LikelihoodSpec("binomial"))
    draws = run_chain(spec, data, 50, burn_in=10, thin=1, seed=2)
    assert draws.n_draws == 40
    assert np.all(np.isfinite(draws.loglik))
    assert np.all(draws.loglik <= 0)  # log pmf of counts


def test_omega_matches_pg_moments(rng):
    # theta = 0 and n = 1 cells: omega are PG(1, 0) draws with mean 1/4
    m, T = 4, 500
    sp = king_grid(2, 2)
    data = ObservationSet(y=np.zeros((T, 1, m)), times=np.linspace(0, 1, T),
                          spatial=sp, trials=np.ones((T, 1, m)))
    spec = ModelSpec(k=1, L=2, likelihood=LikelihoodSpec("binomial"))
    sampler = GibbsSampler(spec, data)
    state = sampler.init_state(rng)
    state.lam[:] = 0.0
    state.eta[:] = 0.0
    state.beta = np.zeros(0)
    sampler.update_polya_gamma(state, rng)
    x = sampler.omega.ravel()
    assert x.mean() == pytest.approx(0.25, abs=3 * x.std() / np.sqrt(x.size))


# -- prior recovery (no-data sweeps) --------------------------------------------------


@pytest.mark.slow
def test_prior_recovery_no_data():
    data = masked_dataset(T=3, m=3)
    lo, hi = 0.5, 3.0
    spec = tiny_spec(k=1, L=2, rho_prior="uniform", psi_bounds=(lo, hi))
    sampler = GibbsSampler(spec, data)
    rng = np.random.default_rng(31)
    state = sampler.init_state(rng)
    n_sweeps, thin = 16000, 4
    kept = n_sweeps // thin
    beta_like = np.empty(kept)  # no covariates: track eta instead
    sig = np.empty(kept)
    delt = np.empty(kept)
    psi = np.empty(kept)
    rho = np.empty(kept)
    xi1 = np.empty(kept)
    eta2 = np.empty(kept)
    for i in range(n_sweeps):
        sampler.sweep(state, rng)
        if i < 2000 and i % 50 == 0:
            sampler.adapt_proposals()
        if i % thin == 0:
            s = i // thin
            sig[s] = state.sigma2.mean()
            delt[s] = state.mgp.delta[0]
            psi[s] = state.psi
            rho[s] = state.rho
            xi1[s] = (state.stick.xi[0] == 1).mean()
            eta2[s] = (state.eta ** 2).mean()
    drop = 2000 // thin
    sig, delt, psi, rho, xi1, eta2 = (x[drop:] for x in
                                      (sig, delt, psi, rho, xi1, eta2))
    # sigma2 ~ IG(3, 2): mean 1
    assert abs(sig.mean() - 1.0) < 3 * batch_se(sig)
    # delta_1 ~ Ga(2, 1): mean 2
    assert abs(delt.mean() - 2.0) < 3 * batch_se(delt)
    # P(xi = 1) = E[Phi(alpha)] = 1/2 by symmetry
    assert abs(xi1.mean() - 0.5) < 3 * batch_se(xi1)
    # E[eta^2] = E[Upsilon] = 1/(df - k - 1) = 0.5
    assert abs(eta2.mean() - 0.5) < 3 * batch_se(eta2)
    # psi and rho recover their uniform priors (KS on strongly thinned draws)
    assert kstest(psi[::10], "uniform", args=(lo, hi - lo)).pvalue > 0.01
    assert kstest(rho[::10], "uniform", args=(0.0, 1.0)).pvalue > 0.01


@pytest.mark.slow
def test_successive_conditional_joint_distribution():
    # alternate data regeneration and parameter sweeps; marginals must stay
    # at the prior (Geweke-style joint correctness check)
    m, T = 3, 3
    sp = point_line(m)
    rng = np.random.default_rng(99)
    y = np.zeros((T, 1, m))
    covs = rng.normal(size=(T, 1, m, 1))
    data = ObservationSet(y=y, times=np.linspace(0, 1, T), spatial=sp,
                          covariates=covs)
    spec = ModelSpec(k=1, L=2, spatial_kernel="exponential-gp", rho=0.8,
                     sigma2_a=3.0, sigma2_b=2.0, a1=2.0, a2=3.0,
                     kappa_df=4.0, kappa_scale=1.0,
                     upsilon_df=4.0, upsilon_scale=1.0,
                     psi_bounds=(0.5, 3.0), beta_prior_var=4.0)
    sampler = GibbsSampler(spec, data)
    state = sampler.init_state(rng)
    cycles = 8000
    beta = np.empty(cycles)
    sig = np.empty(cycles)
    delt = np.empty(cycles)
    psi = np.empty(cycles)
    kap = np.empty(cycles)
    for c in range(cycles):
        sampler.regenerate_data(state, rng)
        sampler.sweep(state, rng)
        beta[c] = state.beta[0]
        sig[c] = state.sigma2.mean()
        delt[c] = state.mgp.delta[0]
        psi[c] = state.psi
        kap[c] = state.kappa[0, 0]
    drop = cycles // 10
    beta, sig, delt, psi, kap = (x[drop:] for x in (beta, sig, delt, psi, kap))
    assert abs(beta.mean() - 0.0) < 3 * batch_se(beta)
    assert abs(sig.mean() - 1.0) < 3 * batch_se(sig)       # IG(3,2) mean 1
    assert abs(delt.mean() - 2.0) < 3 * batch_se(delt)     # Ga(2,1) mean 2
    assert abs(psi.mean() - 1.75) < 3 * batch_se(psi)      # U(0.5, 3) mean
    # IW(4,1) is IG(2, 1/2), whose variance is infinite: check E[log kappa]
    log_kap = np.log(kap)
    assert abs(log_kap.mean() - (np.log(0.5) - digamma(2.0))) < 3 * batch_se(log_kap)


@pytest.mark.slow
@pytest.mark.parametrize("family", ["gaussian", "binomial"])
def test_successive_conditional_slice_mode(family):
    # the same Geweke check for the default sampler: slice-sampled sticks
    # (L = None) with label swaps possible at k = 2, on data the sweep reads,
    # so the data terms of xi, theta, the latent probits, eta and omega all act
    m, T = 3, 3
    rng = np.random.default_rng(2101 if family == "gaussian" else 2102)
    trials = rng.integers(1, 6, size=(T, 1, m)).astype(float) \
        if family == "binomial" else None
    data = ObservationSet(y=np.zeros((T, 1, m)), times=np.linspace(0, 1, T),
                          spatial=king_grid(1, m), trials=trials)
    spec = tiny_spec(k=2, L=None, likelihood=LikelihoodSpec(family),
                     psi_bounds=(0.5, 3.0))
    sampler = GibbsSampler(spec, data)
    state = sampler.init_state(rng)
    cycles = 8000
    stats = collections.defaultdict(lambda: np.empty(cycles))
    for c in range(cycles):
        sampler.regenerate_data(state, rng)
        sampler.sweep(state, rng)
        stats["log_kappa"][c] = np.log(state.kappa[0, 0])
        stats["xi1"][c] = (state.stick.xi[0] == 1).mean()
        stats["theta2_tau"][c] = state.stick.theta[0][0] ** 2 * state.mgp.precisions()[0]
        stats["psi"][c] = state.psi
        if family == "gaussian":
            stats["sigma2"][c] = state.sigma2.mean()
    expect = {
        "log_kappa": np.log(0.5) - digamma(2.0),  # IW(4, 1) is IG(2, 1/2)
        "xi1": 0.5,                               # E[Phi(alpha)] = 1/2
        "theta2_tau": 1.0,                        # theta ~ N(0, 1/tau)
        "psi": 1.75,                              # U(0.5, 3) mean
        "sigma2": 1.0,                            # IG(3, 2) mean
    }
    drop = cycles // 10
    for name, x in stats.items():
        x = x[drop:]
        assert abs(x.mean() - expect[name]) < 3 * batch_se(x), name
