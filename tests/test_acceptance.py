"""Acceptance gate: the package's end-to-end numerical contract.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion with its elapsed time.  The two experiment-trend criteria (5, 6)
dominate the runtime; the full module finishes in well under ten minutes on
a laptop-class machine.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import digamma
from scipy.stats import kstest

from spfactor.clustering import cocluster_probability, select_kstar
from spfactor.data import ObservationSet
from spfactor.diagnostics import crps, geweke_z, waic
from spfactor.likelihoods import LikelihoodSpec, pg_mean, pg_sample_array
from spfactor.prediction import conditional_factor_moments
from spfactor.psbp import (
    beta_moment_1,
    beta_moment_2,
    psbp_process_covariance,
    psbp_process_variance,
    stick_weights,
    stick_weights_matrix,
)
from spfactor.sampler import (
    GibbsSampler,
    ModelSpec,
    assert_stick_consistency,
)
from spfactor.simulation import Sim1Config, Sim2Config, run_experiment

from conftest import batch_se, gaussian_dataset, king_grid, make_draws, point_line

pytestmark = pytest.mark.acceptance


def _report(n, started, detail):
    print(f"\n[criterion {n:2d}] PASS ({time.time() - started:6.1f}s)  {detail}")


# -- 1. stick-weight normalization and slice consistency ------------------------


def test_criterion_1_stick_normalization_and_slice_consistency():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(10000):
        L = int(rng.integers(1, 11))
        alpha = rng.normal(0.0, 2.0, size=L - 1)
        w = stick_weights(alpha)
        assert w.size == L
        worst = max(worst, abs(w.sum() - 1.0))
    assert worst <= 1e-12

    data = gaussian_dataset(T=5, rows=2, cols=3, seed=3)
    spec = ModelSpec(k=2)  # slice mode
    sampler = GibbsSampler(spec, data)
    state = sampler.init_state(rng)
    for _ in range(500):
        sampler.sweep(state, rng)
        assert_stick_consistency(spec, state)
    _report(1, t0, f"max |sum w - 1| = {worst:.2e}; 500 slice sweeps consistent")


# -- 2. Polya-Gamma sampler moments ---------------------------------------------


def test_criterion_2_pg_moments():
    t0 = time.time()
    rng = np.random.default_rng(202)
    n = 100000
    worst = 0.0
    # c = 4 and (40, 3.5) reach both inverse-Gaussian proposal branches.
    cells = [(b, c) for b in (1, 3) for c in (0.0, 1.0, 2.0)] + [(1, 4.0), (3, 4.0), (40, 3.5)]
    for b, c in cells:
        x = pg_sample_array(np.full(n, b), np.full(n, c), rng)
        target = float(pg_mean(b, c))
        rel = abs(x.mean() - target) / target
        worst = max(worst, rel)
        assert rel < 0.01, (b, c, rel)
    _report(2, t0, f"worst relative mean error over (b,c) grid = {worst:.4f}")


# -- 3. PSBP moment oracle --------------------------------------------------------


def test_criterion_3_psbp_moment_oracle():
    t0 = time.time()
    rng = np.random.default_rng(303)
    L, reps = 5, 100000
    g0 = 0.5
    worst = 0.0
    for mu in (0.0, 0.5):
        for s2 in (0.5, 1.0):
            # same-cell variance
            alpha = rng.normal(mu, np.sqrt(s2), size=(reps, L - 1))
            w = stick_weights_matrix(alpha.T, closing=True)
            in_B = rng.uniform(size=(L, reps)) < g0
            G = (w * in_B).sum(axis=0)
            b1 = beta_moment_1(mu, s2)
            b2 = beta_moment_2([mu, mu], np.full((2, 2), s2))
            expect_var = psbp_process_variance(g0, b1, b2, L)
            rel_v = abs(G.var() - expect_var) / expect_var
            # cross-cell covariance with stick correlation 0.5 * s2
            cov = np.array([[s2, 0.5 * s2], [0.5 * s2, s2]])
            chol = np.linalg.cholesky(cov)
            a2 = rng.standard_normal(size=(reps, L - 1, 2)) @ chol.T + mu
            w1 = stick_weights_matrix(a2[:, :, 0].T, closing=True)
            w2 = stick_weights_matrix(a2[:, :, 1].T, closing=True)
            in_B2 = rng.uniform(size=(L, reps)) < g0
            G1 = (w1 * in_B2).sum(axis=0)
            G2 = (w2 * in_B2).sum(axis=0)
            b2c = beta_moment_2([mu, mu], cov)
            expect_cov = psbp_process_covariance(g0, (b1, b1), b2c, L)
            rel_c = abs(np.cov(G1, G2)[0, 1] - expect_cov) / expect_cov
            worst = max(worst, rel_v, rel_c)
            assert rel_v < 0.05, (mu, s2, rel_v)
            assert rel_c < 0.05, (mu, s2, rel_c)
    # cross-column independence of the shrinkage construction
    a_j = rng.normal(size=(reps, L - 1))
    a_jp = rng.normal(size=(reps, L - 1))
    wj = stick_weights_matrix(a_j.T, closing=True)
    wjp = stick_weights_matrix(a_jp.T, closing=True)
    in_Bj = rng.uniform(size=(L, reps)) < g0
    in_Bjp = rng.uniform(size=(L, reps)) < g0
    r = np.corrcoef((wj * in_Bj).sum(axis=0), (wjp * in_Bjp).sum(axis=0))[0, 1]
    assert abs(r) < 0.02
    _report(3, t0, f"worst moment relative error = {worst:.4f}; |cross-col r| = {abs(r):.4f}")


# -- 4. conjugate-update oracles ----------------------------------------------------


def test_criterion_4_conjugate_and_prior_recovery():
    t0 = time.time()
    rng = np.random.default_rng(404)

    # (a) micro-model sigma2 against the analytic inverse-gamma posterior
    y = np.array([0.4, -0.9, 1.2, 0.1]).reshape(4, 1, 1)
    data = ObservationSet(y=y, times=np.linspace(0, 1, 4), spatial=point_line(1))
    spec = ModelSpec(k=1, L=1, spatial_kernel="exponential-gp", rho=1.0,
                     sigma2_a=4.0, sigma2_b=2.0)
    sampler = GibbsSampler(spec, data)
    state = sampler.init_state(rng)
    # sigma2's conditional alone, every other unknown held at its initial draw
    x = np.empty(10000)
    draw_rng = np.random.default_rng(404)
    for s in range(x.size):
        sampler._update_sigma2(state, draw_rng)
        x[s] = state.sigma2[0]
    resid = y[:, 0, 0] - state.lam[0, 0] * state.eta[:, 0]
    a_post = 4.0 + 2.0
    b_post = 2.0 + 0.5 * float(resid @ resid)
    an_mean = b_post / (a_post - 1.0)
    an_var = b_post ** 2 / ((a_post - 1.0) ** 2 * (a_post - 2.0))
    S = x.size
    se_mean = np.sqrt(an_var / S)
    assert abs(x.mean() - an_mean) < 3 * se_mean
    mu4 = np.mean((x - x.mean()) ** 4)
    se_var = np.sqrt(max(mu4 - x.var() ** 2, 0.0) / S)
    assert abs(x.var() - an_var) < 3 * se_var

    # (b) no-data sweeps: every update's stationary law equals its prior
    m, T = 3, 3
    sp = king_grid(1, m)
    mask = np.ones((T, 1, m), dtype=bool)
    covs = np.random.default_rng(1).normal(size=(T, 1, m, 1))
    data = ObservationSet(y=np.zeros((T, 1, m)), times=np.linspace(0, 1, T),
                          spatial=sp, covariates=covs, missing_mask=mask)
    lo, hi = 0.5, 3.0
    for L in (2, None):  # finite truncation, then the slice sampler
        spec = ModelSpec(k=1, L=L, rho_prior="uniform", psi_bounds=(lo, hi),
                         sigma2_a=3.0, sigma2_b=2.0, a1=2.0, a2=3.0,
                         kappa_df=4.0, kappa_scale=1.0,
                         upsilon_df=4.0, upsilon_scale=1.0, beta_prior_var=9.0)
        sampler = GibbsSampler(spec, data)
        state = sampler.init_state(rng)
        n_sweeps = 16000
        rec = {name: np.empty(n_sweeps) for name in
               ("beta", "sig", "delt", "psi", "rho", "xi1", "eta2", "ups", "kap",
                "theta2")}
        for i in range(n_sweeps):
            sampler.sweep(state, rng)
            if i < 2000 and i % 50 == 0:
                sampler.adapt_proposals()
            rec["beta"][i] = state.beta[0]
            rec["sig"][i] = state.sigma2.mean()
            rec["delt"][i] = state.mgp.delta[0]
            rec["psi"][i] = state.psi
            rec["rho"][i] = state.rho
            rec["xi1"][i] = (state.stick.xi[0] == 1).mean()
            rec["eta2"][i] = (state.eta ** 2).mean() / state.upsilon[0, 0]
            rec["ups"][i] = math.log(state.upsilon[0, 0])
            rec["kap"][i] = math.log(state.kappa[0, 0])
            tau1 = state.mgp.precisions()[0]
            rec["theta2"][i] = (state.stick.theta[0] ** 2).mean() * tau1
        rec = {k: v[4000:] for k, v in rec.items()}
        # Upsilon and kappa are IW(4, 1) = IG(2, 0.5), whose variance is
        # infinite, so their means are checked on the log scale, and eta^2
        # relative to Upsilon (H has a unit diagonal)
        log_ig = math.log(0.5) - float(digamma(2.0))
        checks = [
            ("beta", 0.0),    # N(0, 9)
            ("sig", 1.0),     # IG(3, 2)
            ("delt", 2.0),    # Ga(2, 1)
            ("xi1", 0.5),     # E[Phi(alpha)] by symmetry
            ("eta2", 1.0),    # E[eta^2 | Upsilon] = Upsilon
            ("ups", log_ig),  # E[log X] = log(0.5) - digamma(2)
            ("kap", log_ig),
            ("theta2", 1.0),  # theta ~ N(0, 1/tau)
        ]
        for name, target in checks:
            err = abs(rec[name].mean() - target)
            assert err < 3 * batch_se(rec[name]), (L, name, rec[name].mean(), target)
        assert kstest(rec["psi"][::20], "uniform", args=(lo, hi - lo)).pvalue > 0.01
        assert kstest(rec["rho"][::20], "uniform", args=(0.0, 1.0)).pvalue > 0.01

    # binomial pathway: zero-trial cells leave omega degenerate at zero and
    # the regression at its prior
    yb = np.zeros((T, 1, m))
    datab = ObservationSet(y=yb, times=np.linspace(0, 1, T), spatial=sp,
                           trials=np.zeros((T, 1, m)), covariates=covs)
    specb = ModelSpec(k=1, L=2, likelihood=LikelihoodSpec("binomial"),
                      a1=2.0, a2=3.0, kappa_df=4.0, kappa_scale=1.0,
                      upsilon_df=4.0, upsilon_scale=1.0, beta_prior_var=9.0,
                      psi_bounds=(lo, hi))
    samplerb = GibbsSampler(specb, datab)
    stateb = samplerb.init_state(rng)
    betab = np.empty(4000)
    for i in range(4000):
        samplerb.sweep(stateb, rng)
        betab[i] = stateb.beta[0]
        assert np.all(samplerb.omega == 0.0)
    assert abs(betab.mean()) < 3 * batch_se(betab)
    _report(4, t0, "micro IG posterior + full prior recovery (gaussian & binomial)")


# -- 5. first experiment trend at desk scale ------------------------------------------


@pytest.mark.slow
def test_criterion_5_model_comparison_trend():
    t0 = time.time()
    cfg = Sim1Config(k_true=3, spatial=True)
    rows = run_experiment("sim1", ["M1", "M2", "M5"], replicates=10, seed=20240811,
                          n_iter=2000, burn_in=1000, k_fit=6, sim1_cfg=cfg)
    waic_m = {m: np.mean([r["waic"] for r in rows if r["model"] == m])
              for m in ("M1", "M5")}
    crps_m = {m: np.mean([r["crps"] for r in rows if r["model"] == m])
              for m in ("M1", "M2")}
    assert waic_m["M1"] < waic_m["M5"], waic_m
    assert crps_m["M1"] < crps_m["M2"], crps_m
    _report(5, t0, f"WAIC M1 {waic_m['M1']:.0f} < M5 {waic_m['M5']:.0f}; "
                   f"CRPS M1 {crps_m['M1']:.3f} < M2 {crps_m['M2']:.3f}")


# -- 6. clustering experiment trend at desk scale --------------------------------------


@pytest.mark.slow
def test_criterion_6_clustering_trend():
    t0 = time.time()
    cfg = Sim2Config(delta_beta0=6.0, delta_beta1=0.0, delta_sigma2=0.0,
                     spatial=True)
    rows = run_experiment("sim2", ["M1"], replicates=10, seed=20240812,
                          n_iter=2000, burn_in=1000, k_fit=6, sim2_cfg=cfg)
    ss = np.array([r["ss_psbp"] for r in rows])
    ratio = np.array([r["ss_ratio"] for r in rows])
    med_ss = float(np.median(ss))
    med_ratio = float(np.median(ratio))
    assert med_ss >= 0.6, ss
    assert med_ratio > 1.0, ratio
    _report(6, t0, f"median SS_PSBP = {med_ss:.2f} (>= 0.6); "
                   f"median SS_Ratio = {med_ratio:.2f} (> 1)")


# -- 7. prediction identity --------------------------------------------------------------


def test_criterion_7_ar1_screening_identity():
    t0 = time.time()
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(100):
        T = int(rng.integers(3, 15))
        psi = float(rng.uniform(0.02, 0.98))
        k = int(rng.integers(1, 5))
        eta = rng.normal(size=(T, k))
        mean, _ = conditional_factor_moments(eta, np.eye(k), psi, "ar1",
                                             np.arange(T, dtype=float),
                                             np.array([float(T)]))
        worst = max(worst, float(np.max(np.abs(mean[0] - psi * eta[-1]))))
    assert worst < 1e-10
    _report(7, t0, f"max |H+ formula - psi*eta_T| = {worst:.2e} over 100 cases")


# -- 8. diagnostics oracles ---------------------------------------------------------------


def test_criterion_8_diagnostics_oracles():
    t0 = time.time()
    rng = np.random.default_rng(808)

    def brute_waic(ll):
        n_cells, S = ll.shape
        lppd = sum(math.log(sum(math.exp(v) for v in row) / S) for row in ll)
        p = sum(sum((v - sum(row) / S) ** 2 for v in row) / (S - 1) for row in ll)
        return -2.0 * (lppd - p)

    def brute_crps(samples, y):
        n = len(samples)
        t1 = sum(abs(x - y) for x in samples) / n
        t2 = sum(abs(a - b) for a in samples for b in samples) / (n * n)
        return t1 - 0.5 * t2

    for _ in range(10):
        ll = rng.normal(size=(5, 4))
        assert abs(waic(ll) - brute_waic(ll)) < 1e-10
        x = rng.normal(size=9)
        y = rng.normal()
        assert abs(crps(x, y) - brute_crps(x, y)) < 1e-10

    samples = rng.normal(0.3, 1.0, size=100000)
    expect = (np.sqrt(2.0) - 1.0) / np.sqrt(np.pi)
    gauss_err = abs(crps(samples, 0.3) - expect)
    assert gauss_err < 0.01

    hits = 0
    for _ in range(1000):
        hits += abs(geweke_z(rng.normal(size=10000))) < 3.0
    assert hits >= 990
    _report(8, t0, f"brute-force match; Gaussian CRPS err {gauss_err:.4f}; "
                   f"Geweke |z|<3 in {hits}/1000 chains")


# -- 9. clustering label-switching robustness ------------------------------------------------


def test_criterion_9_label_switching_and_kstar():
    t0 = time.time()
    rng = np.random.default_rng(909)
    S, N, L = 200, 20, 5
    xi = rng.integers(1, L + 1, size=(S, 1, N))
    base = cocluster_probability(make_draws(xi=xi), 1)
    permuted = xi.copy()
    for s in range(S):
        perm = rng.permutation(L) + 1
        permuted[s, 0] = perm[xi[s, 0] - 1]
    relabeled = cocluster_probability(make_draws(xi=permuted), 1)
    assert np.array_equal(base, relabeled)  # bit-identical

    def g(minv, maxv, n=6):
        mat = np.full((n, n), 0.5)
        mat[0, 1] = mat[1, 0] = minv
        mat[0, 2] = mat[2, 0] = maxv
        np.fill_diagonal(mat, 1.0)
        return mat

    assert select_kstar([g(0.1, 0.9), g(0.15, 0.95), g(0.5, 0.9)]) == 2
    assert select_kstar([g(0.3, 0.9)]) == 0
    assert select_kstar([g(0.19, 0.81)] * 4) == 4
    assert select_kstar([g(0.2, 0.9)]) == 0   # threshold is strict
    assert select_kstar([g(0.1, 0.8)]) == 0
    _report(9, t0, "co-clustering bit-identical under relabeling; k* thresholds exact")


# -- 10. end-to-end determinism ------------------------------------------------------------


@pytest.mark.slow
def test_criterion_10_end_to_end_determinism(tmp_path):
    t0 = time.time()
    from spfactor.cli import main

    simcfg = tmp_path / "sim.cfg"
    simcfg.write_text("design = sim1\nk_true = 2\nsim_T = 6\nseed = 42\n")
    outputs = {}
    for tag in ("a", "b"):
        base = tmp_path / tag
        assert main(["simulate", "--config", str(simcfg),
                     "--output", str(base / "sim")]) == 0
        fitcfg = tmp_path / f"fit_{tag}.cfg"
        fitcfg.write_text(
            f"data = {base}/sim/data.csv\nspatial = {base}/sim/spatial.csv\n"
            f"times = {base}/sim/times.csv\nk = 3\nn_iter = 200\nburn_in = 100\n"
            "seed = 4242\n")
        assert main(["fit", "--config", str(fitcfg),
                     "--output", str(base / "fit")]) == 0
        prcfg = tmp_path / f"pr_{tag}.cfg"
        prcfg.write_text(f"draws = {base}/fit/draws.bin\nhorizon = 3\nseed = 4242\n")
        assert main(["predict", "--config", str(prcfg),
                     "--output", str(base / "pred")]) == 0
        clcfg = tmp_path / f"cl_{tag}.cfg"
        clcfg.write_text(f"draws = {base}/fit/draws.bin\nseed = 4242\n"
                         "gap_refs = 10\nkmeans_restarts = 10\ntrend = lower\n")
        assert main(["cluster", "--config", str(clcfg),
                     "--output", str(base / "clust")]) == 0
        outputs[tag] = base
    compared = []
    for rel in ("sim/data.csv", "sim/times.csv", "sim/spatial.csv", "sim/truth.csv",
                "fit/draws.csv", "fit/draws.bin", "fit/fit_report.txt",
                "fit/fit_report.json", "pred/ppd.csv", "clust/clusters.csv",
                "clust/cluster_report.json"):
        b1 = (outputs["a"] / rel).read_bytes()
        b2 = (outputs["b"] / rel).read_bytes()
        assert b1 == b2, f"outputs differ: {rel}"
        compared.append(rel)
    _report(10, t0, f"{len(compared)} artifacts byte-identical across reruns")
