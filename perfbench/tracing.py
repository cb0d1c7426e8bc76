"""Spans around calls into spfactor, recorded from outside the package.

The traced run replaces module attributes and GibbsSampler methods with
wrappers that record one span per call: name, start, end, parent span and
run id.  Spans stay in memory until the run ends.  A layer's self time is
its spans' duration minus the part covered by their child spans.

Functions that a module imports by name are patched where they are looked
up, e.g. ``spfactor.sampler:stick_weights_matrix`` rather than
``spfactor.psbp:stick_weights_matrix``.  A target that no longer exists
stops the run: a refactor must not silently zero a layer metric.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from workloads import LAYER_UNITS


class TraceError(RuntimeError):
    """A patch target is gone or a workload no longer reaches it."""


def _pg_trials(counts, args, kwargs, result):
    counts["likelihoods.pg_unit_draws"] += float(np.rint(args[0]).sum())


def _active_sticks(counts, args, kwargs, result):
    stick = args[1].stick
    if stick is not None:
        counts["sticks.sum"] += float(np.sum(stick.L))
        counts["sticks.columns"] += len(stick.L)


def _ppd_draws(counts, args, kwargs, result):
    counts["prediction.draws"] += args[0].draws.n_draws


# (target "module:attribute.path", span name, hook run after each call,
#  workloads on which the target must be called at least once per pipeline)
_ALL = ("sim1-m1-gauss", "sim1-m1-binom40", "sim1-m4-freerho")
_M1 = ("sim1-m1-gauss", "sim1-m1-binom40")
PATCHES = (
    ("spfactor.cli:generate_sim1", "simulation.generate", None, ()),
    ("spfactor.cli:read_observations_csv", "data.read_observations", None, _ALL),
    ("spfactor.cli:run_chains", "sampler.run_chains", None, _ALL),
    ("spfactor.sampler:GibbsSampler.sweep", "sampler.sweep", None, _ALL),
    ("spfactor.sampler:GibbsSampler.update_polya_gamma", "sampler.omega", None,
     ("sim1-m1-binom40",)),
    ("spfactor.sampler:GibbsSampler.update_loadings_block", "sampler.loadings",
     _active_sticks, _ALL),
    ("spfactor.sampler:GibbsSampler.update_factors", "sampler.eta", None, _ALL),
    ("spfactor.sampler:GibbsSampler.update_variance_components", "sampler.variance",
     None, _ALL),
    ("spfactor.sampler:GibbsSampler.update_correlation_parameters", "sampler.corr",
     None, _ALL),
    ("spfactor.sampler:GibbsSampler.log_likelihood_cells", "sampler.loglik", None, _ALL),
    ("spfactor.sampler:GibbsSampler.spatial_ops", "kernels.spatial_ops", None, _ALL),
    ("spfactor.sampler:GibbsSampler.temporal_ops", "kernels.temporal_ops", None, _ALL),
    ("spfactor.sampler:spatial_correlation", "kernels.spatial_build", None, _ALL),
    ("spfactor.sampler:temporal_correlation", "kernels.temporal_build", None, _ALL),
    ("spfactor.sampler:stick_weights_matrix", "psbp.stick_weights", None, _M1),
    ("spfactor.sampler:pg_sample_array", "likelihoods.pg", _pg_trials,
     ("sim1-m1-binom40",)),
    ("spfactor.sampler:truncated_normal", "likelihoods.truncnorm", None, _M1),
    ("spfactor.cli:save_draws", "storage.save_draws", None, _ALL),
    ("spfactor.cli:write_draws_csv", "storage.write_draws_csv", None, _ALL),
    ("spfactor.cli:load_draws", "storage.load_draws", None, _ALL),
    ("spfactor.cli:ppd_sample", "prediction.ppd", _ppd_draws, _ALL),
    ("spfactor.cli:summarize_clusters", "clustering.summarize", None, _M1),
    ("spfactor.clustering:gap_statistic", "clustering.gap", None, _M1),
    ("spfactor.clustering:cocluster_probability", "clustering.cocluster", None, _M1),
    ("spfactor.cli:waic_parts", "diagnostics.waic", None, _ALL),
    ("spfactor.cli:geweke_z", "diagnostics.geweke", None, _ALL),
)


def _resolve(target):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            raise TraceError(f"patched name no longer exists: {target}")
    if not hasattr(owner, attr):
        raise TraceError(f"patched name no longer exists: {target}")
    return owner, attr


class Tracer:
    """Records spans while installed; `run_id` tags the spans of one pipeline."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index, run id]
        self.counts = defaultdict(lambda: defaultdict(float))  # run id -> counters
        self.run_id = None
        self._stack = []
        self._undo = []
        for target, _, _, _ in PATCHES:  # fail before any work is measured
            _resolve(target)

    def _open(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if hook is not None:
                hook(self.counts[self.run_id], args, kwargs, result)
            return result
        return traced

    def install(self, run_id):
        self.run_id = run_id
        for target, name, hook, _ in PATCHES:
            owner, attr = _resolve(target)
            original = getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, hook))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self.run_id = None

    def check_reached(self, run_id, workload):
        """Every target this workload must reach was called in run `run_id`."""
        seen = {rec[0] for rec in self.spans if rec[4] == run_id}
        missing = [target for target, name, _, on in PATCHES
                   if workload in on and name not in seen]
        if missing:
            raise TraceError("no calls reached " + ", ".join(missing))

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def span_totals(spans, run_id):
    """Per span name: (calls, total seconds, self seconds) within one run."""
    picked = [(i, rec) for i, rec in enumerate(spans) if rec[4] == run_id]
    covered = defaultdict(float)
    for _, (name, start, end, parent, _) in picked:
        covered[parent] += end - start
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for i, (name, start, end, _, _) in picked:
        row = out[name]
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - covered[i]
    return out


def ess_per_draw(x):
    """Effective sample size of one chain over its length (Geyer's initial
    positive sequence on FFT autocorrelations)."""
    x = np.asarray(x, dtype=float)
    n = x.size
    xc = x - x.mean()
    if n < 4 or not np.any(xc):
        return 1.0
    f = np.fft.rfft(xc, 2 * n)
    acov = np.fft.irfft(f * np.conj(f))[:n] / n
    rho = acov / acov[0]
    tau = -1.0
    for t in range(0, n - 1, 2):
        pair = rho[t] + rho[t + 1]
        if pair <= 0:
            break
        tau += 2.0 * pair
    return float(1.0 / max(tau, 1.0 / n))


def layer_metrics(tracer, run_id, facts):
    """Per-layer metrics of one traced pipeline.

    `*_ms` are milliseconds per sweep, the storage and data `*_s` are seconds
    per fit, the other `*_s` are seconds per pipeline.  Counts are per fit
    except `psbp.stick_weights_calls` and `likelihoods.pg_unit_draws`, which
    are per sweep.  `facts` carries what the benchmark read from the run's
    artifacts: file sizes, acceptance rates and the loglik ESS.
    """
    tot = span_totals(tracer.spans, run_id)
    counts = tracer.counts[run_id]
    sweeps = tot["sampler.sweep"][0]  # check_reached made sure it is not 0

    def per_sweep_ms(name):
        return 1e3 * tot[name][1] / sweeps

    spatial_calls = tot["kernels.spatial_ops"][0]
    ppd_time = tot["prediction.ppd"][1]
    sticks = counts["sticks.columns"]
    return {
        "sampler.sweep_ms": per_sweep_ms("sampler.sweep"),
        "sampler.loadings_ms": per_sweep_ms("sampler.loadings"),
        "sampler.omega_ms": per_sweep_ms("sampler.omega"),
        "sampler.eta_ms": per_sweep_ms("sampler.eta"),
        "sampler.variance_ms": per_sweep_ms("sampler.variance"),
        "sampler.corr_ms": per_sweep_ms("sampler.corr"),
        "sampler.loglik_ms": per_sweep_ms("sampler.loglik"),
        "sampler.run_self_s": tot["sampler.run_chains"][2],
        "sampler.sweeps": sweeps,
        "sampler.lstar_mean": counts["sticks.sum"] / sticks if sticks else 0.0,
        "sampler.rho_accept": facts["rho_accept"],
        "sampler.psi_accept": facts["psi_accept"],
        "sampler.ess_per_kept.loglik_total": facts["ess_per_kept"],
        "psbp.stick_weights_calls": tot["psbp.stick_weights"][0] / sweeps,
        "psbp.stick_weights_ms": per_sweep_ms("psbp.stick_weights"),
        "likelihoods.pg_ms": per_sweep_ms("likelihoods.pg"),
        "likelihoods.pg_unit_draws": counts["likelihoods.pg_unit_draws"] / sweeps,
        "likelihoods.truncnorm_ms": per_sweep_ms("likelihoods.truncnorm"),
        "kernels.spatial_builds": tot["kernels.spatial_build"][0],
        "kernels.spatial_ms": per_sweep_ms("kernels.spatial_ops"),
        "kernels.spatial_cache_hit_ratio":
            1.0 - tot["kernels.spatial_build"][0] / spatial_calls if spatial_calls else 0.0,
        "kernels.temporal_builds": tot["kernels.temporal_build"][0],
        "kernels.temporal_ms": per_sweep_ms("kernels.temporal_ops"),
        "storage.save_draws_s": tot["storage.save_draws"][1],
        "storage.draws_bin_mb": facts["draws_bin_mb"],
        "storage.write_draws_csv_s": tot["storage.write_draws_csv"][1],
        "storage.draws_csv_mb": facts["draws_csv_mb"],
        "storage.load_draws_s": tot["storage.load_draws"][1],
        "prediction.ppd_s": ppd_time,
        "prediction.ppd_draws_per_s":
            counts["prediction.draws"] / ppd_time if ppd_time else 0.0,
        "clustering.summarize_s": tot["clustering.summarize"][1],
        "clustering.gap_s": tot["clustering.gap"][1],
        "clustering.cocluster_s": tot["clustering.cocluster"][1],
        "diagnostics.waic_s": tot["diagnostics.waic"][1],
        "diagnostics.geweke_s": tot["diagnostics.geweke"][1],
        "data.read_observations_s": tot["data.read_observations"][1],
        "cli.fit_self_s": tot["cli.fit"][2],
        "cli.predict_s": tot["cli.predict"][1],
        "cli.predict_self_s": tot["cli.predict"][2],
        "cli.cluster_s": tot["cli.cluster"][1],
        "cli.cluster_self_s": tot["cli.cluster"][2],
        "cli.diagnose_s": tot["cli.diagnose"][1],
    }


def combine_rows(rows):
    """One value per metric from the traced pipelines of a run.

    Times (units s, ms, 1/s) are medians over the pipelines.  Counts, sizes
    and ratios come from the first traced pipeline, which fits dataset 0, so
    they repeat exactly for a given seed however many pipelines the time
    budget allowed.
    """
    return {key: statistics.median(row[key] for row in rows)
            if LAYER_UNITS[key] in ("s", "ms", "1/s") else rows[0][key]
            for key in rows[0]}
