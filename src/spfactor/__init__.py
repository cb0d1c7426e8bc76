"""Bayesian non-parametric spatial factor analysis for longitudinal surfaces."""

__version__ = "0.1.0"

from .data import ObservationSet, SpatialStructure, validate
from .kernels import (
    SpatialKernelSpec,
    TemporalKernelSpec,
    psi_bounds,
    spatial_correlation,
    temporal_correlation,
)
from .likelihoods import (
    LikelihoodSpec,
    draw_observations,
    linear_predictor,
    log_density,
    pg_sample,
)
from .psbp import (
    MgpState,
    StickState,
    beta_moment_1,
    beta_moment_2,
    marginal_y_covariance,
    psbp_process_variance,
    stick_weights,
)
from .sampler import (
    ChainState,
    GibbsSampler,
    ModelSpec,
    load_checkpoint,
    run_chain,
    run_chains,
    save_checkpoint,
)
from .diagnostics import crps, geweke_z, waic
from .clustering import (
    ClusterSummary,
    build_w,
    cluster_trend_pvalues,
    cocluster_probability,
    gap_statistic,
    kmeans,
    select_kstar,
    ss_quantities,
    summarize_clusters,
)
from .prediction import PPDRequest, conditional_factor_moments, ppd_sample
from .simulation import (
    Sim1Config,
    Sim2Config,
    generate_sim1,
    generate_sim2,
    run_experiment,
)
from .storage import PosteriorDraws, load_draws, merge_draws, save_draws

__all__ = [name for name in dir() if not name.startswith("_")]
