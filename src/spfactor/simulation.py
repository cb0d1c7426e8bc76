"""Data generators and experiment runners for the two simulation designs.

The first design generates from the full stick-breaking factor model on a
52-cell visual-field lattice and compares the model menu (M1-M5) on fit
(WAIC) and on forecasting a held-out 13th visit (CRPS).  The second plants
two clusters of linear temporal trends and scores how well clustering the
loading-probability matrix recovers them relative to clustering raw data.

The lattice ships as a static resource: an 8x9 grid trimmed to the usual
54-point field shape with the two blind-spot cells removed (52 cells,
king-move adjacency).  The marked 8-cell inferior-nasal region is the
2x4 block in rows 5-6, columns 5-8 (1-based).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import ObservationSet, SpatialStructure
from .diagnostics import crps, waic
from .clustering import gap_statistic, kmeans, summarize_clusters
from .kernels import SpatialKernelSpec, spatial_correlation
from .likelihoods import LikelihoodSpec, draw_observations
from .prediction import PPDRequest, ppd_sample
from .psbp import stick_weights_matrix
from .sampler import ModelSpec, invwishart_rvs, run_chain

_ROW_SPANS = [(2, 5), (1, 6), (0, 7), (0, 8), (0, 8), (0, 7), (1, 6), (2, 5)]
_BLIND_SPOT = {(3, 8), (4, 8)}


def visual_field_cells() -> list[tuple[int, int]]:
    """(row, col) grid coordinates of the 52 lattice cells."""
    cells = []
    for r, (lo, hi) in enumerate(_ROW_SPANS):
        for c in range(lo, hi + 1):
            if (r, c) not in _BLIND_SPOT:
                cells.append((r, c))
    return cells


def visual_field_structure() -> SpatialStructure:
    """King-move adjacency over the 52-cell lattice."""
    cells = visual_field_cells()
    m = len(cells)
    W = np.zeros((m, m))
    for a, (r1, c1) in enumerate(cells):
        for b, (r2, c2) in enumerate(cells):
            if a != b and max(abs(r1 - r2), abs(c1 - c2)) <= 1:
                W[a, b] = 1.0
    return SpatialStructure(kind="areal", adjacency=W)


def inferior_nasal_cells() -> np.ndarray:
    """0-based indices of the marked 8-cell contiguous region (rows 4-5,
    cols 4-7 of the grid)."""
    cells = visual_field_cells()
    want = {(r, c) for r in (4, 5) for c in range(4, 8)}
    idx = [i for i, rc in enumerate(cells) if rc in want]
    assert len(idx) == 8
    return np.array(idx)


@dataclass
class Sim1Config:
    """Factor-model generator settings mirroring the first experiment."""

    k_true: int = 3
    spatial: bool = True
    T: int = 10
    n_future: int = 3
    rho: float = 0.99
    psi: float = 0.3          # AR(1)-type decay psi^|x_t - x_t'|
    kappa: float = 1.0
    sigma2: float = 0.005     # near-noiseless surfaces given the factors
    L_true: int = 10

    def __post_init__(self):
        if self.k_true < 1:
            raise ValueError("k_true must be positive")


@dataclass
class Sim1Truth:
    fit_data: ObservationSet
    holdout_y: np.ndarray       # (n_future, m)
    holdout_times: np.ndarray
    alpha: np.ndarray
    lam: np.ndarray
    eta: np.ndarray


def generate_sim1(cfg: Sim1Config, rng: np.random.Generator) -> Sim1Truth:
    """One dataset from the full model: fresh stick fields, atoms with unit
    precision, AR(1)-correlated factors, Gaussian noise."""
    structure = visual_field_structure()
    m = structure.m
    T_all = cfg.T + cfg.n_future
    step = 1.0 / (cfg.T - 1)
    times_all = np.arange(T_all) * step

    if cfg.spatial:
        chol_F = spatial_correlation(SpatialKernelSpec("car", cfg.rho), structure)[1]
    else:
        chol_F = np.eye(m)
    sd_alpha = np.sqrt(cfg.kappa)
    alpha = np.empty((cfg.k_true, cfg.L_true - 1, m))
    lam = np.empty((m, cfg.k_true))
    for j in range(cfg.k_true):
        for l in range(cfg.L_true - 1):
            alpha[j, l] = sd_alpha * (chol_F @ rng.standard_normal(m))
        w = stick_weights_matrix(alpha[j], closing=True)  # (L_true, m)
        theta = rng.standard_normal(cfg.L_true)           # tau_j = 1
        cum = np.cumsum(w, axis=0)
        u = rng.uniform(size=m)
        xi = (u[None, :] > cum).sum(axis=0)
        lam[:, j] = theta[xi]

    upsilon = invwishart_rvs(cfg.k_true + 1, np.eye(cfg.k_true), rng)
    gaps = np.abs(times_all[:, None] - times_all[None, :])
    H = np.power(cfg.psi, gaps)
    eta = np.linalg.cholesky(H) @ rng.standard_normal((T_all, cfg.k_true)) \
        @ np.linalg.cholesky(upsilon).T

    y_all, _ = draw_observations("gaussian", eta @ lam.T, cfg.sigma2, rng)

    fit_data = ObservationSet(y=y_all[:cfg.T].reshape(cfg.T, 1, m),
                              times=times_all[:cfg.T],
                              spatial=structure)
    return Sim1Truth(fit_data=fit_data, holdout_y=y_all[cfg.T:],
                     holdout_times=times_all[cfg.T:], alpha=alpha, lam=lam,
                     eta=eta)


@dataclass
class Sim2Config:
    """Two-cluster trend generator: pointwise linear regressions with a
    spatially correlated intercept/slope field."""

    beta0: float = -8.0
    beta1: float = -4.0
    sigma2: float = 3.0
    delta_beta0: float = 6.0
    delta_beta1: float = 0.0
    delta_sigma2: float = 0.0
    spatial: bool = True
    rho: float = 0.99
    T: int = 10
    kappa: np.ndarray = field(default_factory=lambda: np.array([[4.0, -0.5],
                                                                [-0.5, 2.0]]))


@dataclass
class Sim2Truth:
    fit_data: ObservationSet
    labels: np.ndarray          # 1-based; cluster 1 is the shifted region
    intercepts: np.ndarray
    slopes: np.ndarray


def generate_sim2(cfg: Sim2Config, rng: np.random.Generator) -> Sim2Truth:
    structure = visual_field_structure()
    m = structure.m
    region = inferior_nasal_cells()
    labels = np.full(m, 2, dtype=int)
    labels[region] = 1

    if cfg.spatial and cfg.rho > 0:
        chol_F = spatial_correlation(SpatialKernelSpec("car", cfg.rho), structure)[1]
    else:
        chol_F = np.eye(m)
    chol_k = np.linalg.cholesky(cfg.kappa)
    field_mat = chol_F @ rng.standard_normal((m, 2)) @ chol_k.T  # kappa (x) F
    b0 = cfg.beta0 + field_mat[:, 0]
    b1 = cfg.beta1 + field_mat[:, 1]
    b0[region] += cfg.delta_beta0
    b1[region] += cfg.delta_beta1

    sig2 = np.full(m, cfg.sigma2)
    sig2[region] += cfg.delta_sigma2
    times = np.linspace(0.0, 1.0, cfg.T)
    mean = b0[None, :] + times[:, None] * b1[None, :]
    y, _ = draw_observations("gaussian", mean, sig2[None, :], rng)
    data = ObservationSet(y=y.reshape(cfg.T, 1, m), times=times, spatial=structure)
    return Sim2Truth(fit_data=data, labels=labels, intercepts=b0, slopes=b1)


# -- model menu and experiment runner ------------------------------------------

_MODEL_MENU = {
    "M1": dict(loadings_prior="psbp-spatial", shrinkage="mgp"),
    "M2": dict(loadings_prior="psbp-independent", shrinkage="mgp"),
    "M3": dict(loadings_prior="psbp-spatial", shrinkage="independent-gamma"),
    "M4": dict(loadings_prior="gaussian-car", shrinkage="independent-gamma"),
    "M5": dict(loadings_prior="gaussian-iid", shrinkage="independent-gamma"),
}


def model_spec_for(model: str, k: int = 6, family: str = "gaussian") -> ModelSpec:
    """Fitting configuration shared by the experiments: slice mode, CAR with
    rho fixed at 0.99, exponential temporal kernel with range-based uniform
    prior, scalar kappa prior IG(0.001, 0.001), a1 = 1, a2 = 20."""
    menu = _MODEL_MENU[model]
    return ModelSpec(k=k, likelihood=LikelihoodSpec(family), L=None,
                     spatial_kernel="car", temporal_kernel="exponential",
                     rho=0.99, rho_prior="fixed",
                     a1=1.0, a2=20.0,
                     sigma2_a=0.001, sigma2_b=0.001,
                     kappa_df=0.002, kappa_scale=0.002,
                     **menu)


def cell_level_loglik(draws) -> np.ndarray:
    """Aggregate the stored pointwise log-likelihood rows to one row per
    cell: the joint log density of each cell's whole series.

    The cell is the exchangeable unit of this model (a new draw from the
    process is a new surface trajectory), so the experiment scores fit at
    that level; flexible per-cell parameters then pay for coherent
    whole-series wiggle rather than hiding it pointwise.
    """
    ll = np.asarray(draws.loglik)
    cells = draws.obs_index[:, 1]
    out = np.zeros((draws.n_cells, ll.shape[1]))
    np.add.at(out, cells, ll)
    return out


def _standardized(data: ObservationSet) -> tuple[ObservationSet, float]:
    """Unit-variance copy for fitting.

    The generator's factor scale is heavy-tailed (the latent covariance is
    drawn from a barely-proper inverse-Wishart), so raw surfaces range over
    an order of magnitude across replicates; fitting on a standardized copy
    matches every model's O(1) priors symmetrically.  WAIC shifts by the
    same additive constant for every model on the same replicate, and
    predictive draws map back by the scale factor.
    """
    s = float(data.y[~data.missing_mask].std())
    scaled = ObservationSet(y=data.y / s, times=data.times, spatial=data.spatial,
                            trials=data.trials, covariates=data.covariates,
                            missing_mask=data.missing_mask)
    return scaled, s


def _fit_metrics_sim1(truth: Sim1Truth, model: str, k: int, n_iter: int,
                      burn_in: int, thin: int, seed: int) -> dict:
    spec = model_spec_for(model, k=k)
    data_fit, scale = _standardized(truth.fit_data)
    draws = run_chain(spec, data_fit, n_iter, burn_in, thin, seed)
    w_cell = waic(cell_level_loglik(draws))
    w_point = waic(draws.loglik)
    request = PPDRequest(new_times=truth.holdout_times, draws=draws)
    values, _ = ppd_sample(request, seed=seed + 1)
    last = truth.holdout_times.size - 1
    scores = [crps(scale * values[:, last, c], truth.holdout_y[last, c])
              for c in range(truth.fit_data.n_cells)]
    return {"waic": w_cell, "crps": float(np.mean(scores)),
            "waic_pointwise": w_point}


def _fit_metrics_sim2(truth: Sim2Truth, model: str, k: int, n_iter: int,
                      burn_in: int, thin: int, seed: int,
                      gap_B: int = 50, K_max: int = 6) -> dict:
    # sim2's scale is pinned by its config (no heavy-tailed factor draw), so
    # the fit runs on the raw surfaces
    spec = model_spec_for(model, k=k)
    draws = run_chain(spec, truth.fit_data, n_iter, burn_in, thin, seed)
    summary = summarize_clusters(draws, K_max=K_max, B=gap_B, seed=seed + 2)
    raw = truth.fit_data.stacked_y().T  # (cells, T)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 23]))
    K_raw = gap_statistic(raw, K_max, B=gap_B, seed=rng)
    if K_raw == 1:
        ss_raw = 0.0
    else:
        _, ss_raw = kmeans(raw, K_raw, rng)
    ratio = np.inf if ss_raw == 0 else summary.ss_psbp / ss_raw
    return {"ss_psbp": summary.ss_psbp, "ss_raw": ss_raw, "ss_ratio": ratio,
            "kstar": summary.kstar, "gap_k": summary.gap_k}


def check_experiment(design: str, models) -> None:
    """Reject an unknown design or model, or a model the design cannot score."""
    if design not in ("sim1", "sim2"):
        raise ValueError("design must be 'sim1' or 'sim2'")
    for mdl in models:
        if mdl not in _MODEL_MENU:
            raise ValueError(f"unknown model {mdl!r}")
        if design == "sim2" and mdl in ("M4", "M5"):
            raise ValueError("only M1-M3 have clustering capability")


def run_experiment(design: str, models, replicates: int, seed: int,
                   n_iter: int = 2000, burn_in: int = 1000, thin: int = 1,
                   k_fit: int = 6, sim1_cfg: Sim1Config | None = None,
                   sim2_cfg: Sim2Config | None = None,
                   progress=None) -> list[dict]:
    """Fit the requested models to `replicates` generated datasets and return
    one result row per (replicate, model)."""
    models = list(models)
    check_experiment(design, models)
    rows = []
    seeds = np.random.SeedSequence(seed).spawn(replicates)
    for rep, ss in enumerate(seeds, start=1):
        rng = np.random.default_rng(ss)
        rep_seed = int(ss.generate_state(1)[0] % (2 ** 31))
        if design == "sim1":
            truth = generate_sim1(sim1_cfg or Sim1Config(), rng)
        else:
            truth = generate_sim2(sim2_cfg or Sim2Config(), rng)
        for mdl in models:
            if design == "sim1":
                metrics = _fit_metrics_sim1(truth, mdl, k_fit, n_iter, burn_in,
                                            thin, rep_seed)
            else:
                metrics = _fit_metrics_sim2(truth, mdl, k_fit, n_iter, burn_in,
                                            thin, rep_seed)
            row = {"design": design, "replicate": rep, "model": mdl}
            row.update(metrics)
            rows.append(row)
            if progress is not None:
                progress(row)
    return rows


def experiment_table(rows: list[dict]) -> str:
    """Mean metrics per model as a small fixed-width text table."""
    models = sorted({r["model"] for r in rows})
    metrics = [k for k in rows[0] if k not in ("design", "replicate", "model")]
    lines = []
    header = "model " + " ".join(f"{m:>10}" for m in metrics)
    lines.append(header)
    for mdl in models:
        vals = []
        for met in metrics:
            x = np.array([r[met] for r in rows if r["model"] == mdl], dtype=float)
            finite = x[np.isfinite(x)]
            vals.append(float(np.mean(finite)) if finite.size else np.inf)
        lines.append(f"{mdl:5} " + " ".join(f"{v:10.4f}" for v in vals))
    return "\n".join(lines) + "\n"
