"""The benchmark's workloads: which model each one fits and which stages run.

Every workload uses the sim1 design (the 52-cell visual-field lattice,
T = 10 fitted visits and 3 held-out visits, k_true = 3) and fits k = 6
factors with one chain on one thread.  README.md in this directory says why
each workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass

# Sweeps per fit.  Half are burn-in, so every fit keeps 100 draws.
N_ITER = 200
BURN_IN = 100
HORIZON = 3
# Reference sets of the gap statistic in `cluster` (the CLI default is 50).
# Its cost is linear in this, and at 50 a run would measure too few
# datasets to average out their spread (README.md).
GAP_REFS = 10
BINOMIAL_TRIALS = 40
# Least median, over a run's pipelines, of the correlation between the
# posterior-mean linear predictor and the simulated one at the fitted visits.
# README.md gives the values seen when it was set.
RECOVERY_MIN = 0.9


@dataclass(frozen=True)
class Workload:
    name: str
    family: str                 # family of the generated observations
    model: tuple[str, ...]      # fit config lines beyond the shared ones
    stages: tuple[str, ...]     # CLI subcommands run after simulate, in order


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="sim1-m1-gauss", family="gaussian", model=(),
            stages=("fit", "predict", "cluster", "diagnose")),
        Workload(
            name="sim1-m1-binom40", family="binomial",
            model=("family = binomial",),
            stages=("fit", "predict", "cluster", "diagnose")),
        Workload(
            name="sim1-m4-freerho", family="gaussian",
            model=("loadings_prior = gaussian-car",
                   "shrinkage = independent-gamma",
                   "rho_prior = uniform"),
            stages=("fit", "predict", "diagnose")),
    )
}

END_TO_END_UNITS = {"setup_s": "s", "fit_s": "s", "post_fit_s": "s", "pipeline_s": "s",
                    "artifact_mb": "MB", "peak_rss_mb": "MB"}

# name -> unit; the order is the order they are printed in
LAYER_UNITS = {
    "sampler.sweep_ms": "ms", "sampler.loadings_ms": "ms", "sampler.omega_ms": "ms",
    "sampler.eta_ms": "ms", "sampler.variance_ms": "ms", "sampler.corr_ms": "ms",
    "sampler.loglik_ms": "ms", "sampler.run_self_s": "s", "sampler.sweeps": "count",
    "sampler.lstar_mean": "count", "sampler.rho_accept": "ratio",
    "sampler.psi_accept": "ratio", "sampler.ess_per_kept.loglik_total": "ratio",
    "psbp.stick_weights_calls": "count", "psbp.stick_weights_ms": "ms",
    "likelihoods.pg_ms": "ms", "likelihoods.pg_unit_draws": "count",
    "likelihoods.truncnorm_ms": "ms",
    "kernels.spatial_builds": "count", "kernels.spatial_ms": "ms",
    "kernels.spatial_cache_hit_ratio": "ratio", "kernels.temporal_builds": "count",
    "kernels.temporal_ms": "ms",
    "storage.save_draws_s": "s", "storage.draws_bin_mb": "MB",
    "storage.write_draws_csv_s": "s", "storage.draws_csv_mb": "MB",
    "storage.load_draws_s": "s",
    "prediction.ppd_s": "s", "prediction.ppd_draws_per_s": "1/s",
    "clustering.summarize_s": "s", "clustering.gap_s": "s",
    "clustering.cocluster_s": "s",
    "diagnostics.waic_s": "s", "diagnostics.geweke_s": "s",
    "data.read_observations_s": "s", "simulation.generate_s": "s",
    "cli.fit_self_s": "s", "cli.predict_s": "s", "cli.predict_self_s": "s",
    "cli.cluster_s": "s", "cli.cluster_self_s": "s", "cli.diagnose_s": "s",
    "trace.overhead_s": "s",
}
