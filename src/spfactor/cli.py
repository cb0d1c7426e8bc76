"""Batch front-end: flat key=value configs, subcommands, deterministic outputs.

Every artifact is written atomically (temp file then rename) and derives
entirely from (config, seed), so rerunning a subcommand reproduces outputs
byte for byte.  A manifest records the config hash, seed, and library
versions alongside each output set.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .data import (
    ObservationSet,
    format_float,
    read_observations_csv,
    read_spatial_csv,
    read_times_csv,
    write_observations_csv,
    write_spatial_csv,
    write_times_csv,
)
from .diagnostics import geweke_z, waic_parts, write_report
from .errors import (
    DegenerateDraws,
    MissingRequired,
    SpfactorError,
    UnknownKey,
    ValidationError,
    ZeroVariance,
)
from .likelihoods import LikelihoodSpec
from .prediction import PPDRequest, ppd_sample
from .clustering import summarize_clusters
from .sampler import ModelSpec, run_chains, save_checkpoint
from .simulation import (
    Sim1Config,
    Sim2Config,
    check_experiment,
    experiment_table,
    generate_sim1,
    generate_sim2,
    run_experiment,
)
from .storage import load_draws, save_draws, write_draws_csv

ENV_PREFIX = "SPFACTOR_"

# key -> (type, default); None default means unset
_SCHEMA: dict[str, tuple] = {
    # chain settings
    "seed": (int, None),
    "output": (str, None),
    "chains": (int, 1),
    "threads": (int, 1),
    "n_iter": (int, 2000),
    "burn_in": (int, 1000),
    "thin": (int, 1),
    # data paths
    "data": (str, None),
    "spatial": (str, None),
    "times": (str, None),
    "draws": (str, None),
    # model
    "family": (str, "gaussian"),
    "k": (int, 6),
    "truncation": (str, "slice"),
    "spatial_kernel": (str, "car"),
    "temporal_kernel": (str, "exponential"),
    "loadings_prior": (str, "psbp-spatial"),
    "shrinkage": (str, "mgp"),
    "rho": (float, 0.99),
    "rho_prior": (str, "fixed"),
    "rho_lo": (float, 0.0),
    "rho_hi": (float, 1.0),
    "psi_fixed": (float, None),
    "psi_lo": (float, None),
    "psi_hi": (float, None),
    "psi_shape1": (float, 1.0),
    "psi_shape2": (float, 1.0),
    "a1": (float, 1.0),
    "a2": (float, 20.0),
    "sigma2_a": (float, 0.001),
    "sigma2_b": (float, 0.001),
    "kappa_df": (float, None),
    "kappa_scale": (float, None),
    "upsilon_df": (float, None),
    "upsilon_scale": (float, None),
    "beta_prior_var": (float, 1000.0),
    "pool_sigma2": (bool, False),
    "checkpoint": (str, None),
    "resume_from": (str, None),
    # predict
    "new_times": (str, None),
    "horizon": (int, 3),
    "future_trials": (float, None),  # binomial; default: last observed totals
    # cluster
    "kmax": (int, 8),
    "gap_refs": (int, 50),
    "kmeans_restarts": (int, 25),
    "trend": (str, "none"),       # none | lower | upper
    # simulate / experiment
    "design": (str, "sim1"),
    "models": (str, "M1"),
    "replicates": (int, 10),
    "k_true": (int, 3),
    "spatial_dep": (bool, True),
    "sim_T": (int, 10),
    "n_future": (int, 3),
    "sigma2_true": (float, 0.005),
    "L_true": (int, 10),
    "beta0": (float, -8.0),
    "beta1": (float, -4.0),
    "sigma2": (float, 3.0),
    "delta_beta0": (float, 6.0),
    "delta_beta1": (float, 0.0),
    "delta_sigma2": (float, 0.0),
}


@dataclass
class RunConfig:
    values: dict

    def __getitem__(self, key):
        return self.values[key]

    def get(self, key, default=None):
        val = self.values.get(key)
        return default if val is None else val

    def require(self, *keys):
        for key in keys:
            if self.values.get(key) is None:
                raise MissingRequired(f"config key {key!r} is required")

    def canonical_text(self) -> str:
        parts = []
        for key in sorted(self.values):
            val = self.values[key]
            if val is None:
                continue
            parts.append(f"{key}={val!r}")
        return "\n".join(parts)


def _coerce(key: str, raw: str):
    typ, _ = _SCHEMA[key]
    raw = raw.strip()
    try:
        if typ is bool:
            low = raw.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        return typ(raw)
    except ValueError:
        raise TypeError(f"config key {key!r} expects {typ.__name__}, got {raw!r}")


def parse_config(text: str) -> RunConfig:
    """Parse `key = value` lines; unknown keys are rejected."""
    values = {key: default for key, (_, default) in _SCHEMA.items()}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise TypeError(f"line {lineno}: expected key = value, got {stripped!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in _SCHEMA:
            raise UnknownKey(f"unknown config key {key!r} (line {lineno})")
        values[key] = _coerce(key, raw)
    for key in _SCHEMA:
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            values[key] = _coerce(key, env)
    return RunConfig(values)


def load_config(path) -> RunConfig:
    if not os.path.exists(path):
        raise MissingRequired(f"config file not found: {path}")
    with open(path) as fh:
        return parse_config(fh.read())


# -- atomic output helpers -----------------------------------------------------


def _atomic_write(path, writer) -> None:
    """Run `writer(tmp)` on a fresh path beside `path`, then rename it into
    place.  The writer creates the file itself, so every artifact gets the
    mode that a plain open() gives."""
    d, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(d, f".tmp-{os.getpid()}-{name}")
    try:
        writer(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _write_manifest(outdir, cfg: RunConfig, subcommand: str) -> None:
    import scipy

    manifest = {
        "subcommand": subcommand,
        "seed": cfg.get("seed"),
        "config_sha256": hashlib.sha256(cfg.canonical_text().encode()).hexdigest(),
        "versions": {"spfactor": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }

    def write(tmp):
        with open(tmp, "w") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=1)
            fh.write("\n")

    _atomic_write(os.path.join(outdir, "manifest.json"), write)


def _load_dataset(cfg: RunConfig) -> ObservationSet:
    cfg.require("data", "spatial", "times")
    for key in ("data", "spatial", "times"):
        if not os.path.exists(cfg[key]):
            raise MissingRequired(f"{key} file not found: {cfg[key]}")
    times = read_times_csv(cfg["times"])
    spatial = read_spatial_csv(cfg["spatial"])
    return read_observations_csv(cfg["data"], times, spatial, family=cfg["family"])


def _model_spec(cfg: RunConfig, data: ObservationSet) -> ModelSpec:
    trunc = cfg["truncation"]
    if trunc == "slice":
        L = None
    else:
        try:
            L = int(trunc)
        except ValueError:
            raise TypeError("truncation must be 'slice' or an integer")
    psi_bounds = None
    if cfg.values["psi_lo"] is not None and cfg.values["psi_hi"] is not None:
        psi_bounds = (cfg["psi_lo"], cfg["psi_hi"])
    return ModelSpec(
        k=cfg["k"], likelihood=LikelihoodSpec(cfg["family"]), L=L,
        spatial_kernel=cfg["spatial_kernel"], temporal_kernel=cfg["temporal_kernel"],
        loadings_prior=cfg["loadings_prior"], shrinkage=cfg["shrinkage"],
        rho=cfg["rho"], rho_prior=cfg["rho_prior"],
        rho_bounds=(cfg["rho_lo"], cfg["rho_hi"]),
        psi=cfg.values["psi_fixed"], psi_bounds=psi_bounds,
        psi_beta_shapes=(cfg["psi_shape1"], cfg["psi_shape2"]),
        a1=cfg["a1"], a2=cfg["a2"],
        sigma2_a=cfg["sigma2_a"], sigma2_b=cfg["sigma2_b"],
        kappa_df=cfg.values["kappa_df"], kappa_scale=cfg.values["kappa_scale"],
        upsilon_df=cfg.values["upsilon_df"], upsilon_scale=cfg.values["upsilon_scale"],
        beta_prior_var=cfg["beta_prior_var"], pool_sigma2=cfg["pool_sigma2"],
    )


def _check_chain_lengths(cfg: RunConfig) -> None:
    if not (cfg["n_iter"] > cfg["burn_in"] >= 0 and cfg["thin"] >= 1):
        raise ValidationError("need n_iter > burn_in >= 0 and thin >= 1")
    if cfg["chains"] < 1 or cfg["threads"] < 1:
        raise ValidationError("chains and threads must be at least 1")


# -- subcommands -----------------------------------------------------------------


def _write_report_pair(outdir, stem, entries) -> None:
    def write(tmp):
        write_report(tmp, tmp + ".j", entries)
        os.replace(tmp + ".j", os.path.join(outdir, stem + ".json"))

    _atomic_write(os.path.join(outdir, stem + ".txt"), write)


def _cmd_fit(cfg: RunConfig, outdir: str) -> None:
    _check_chain_lengths(cfg)
    data = _load_dataset(cfg)
    try:
        spec = _model_spec(cfg, data)
    except ValueError as exc:  # ModelSpec rejecting a config value
        raise ValidationError(str(exc)) from exc
    init = None
    if cfg.values["resume_from"]:
        from .sampler import load_checkpoint

        init, _ = load_checkpoint(cfg["resume_from"])
    draws, final_state = run_chains(spec, data, cfg["n_iter"], cfg["burn_in"],
                                    cfg["thin"], cfg["seed"], chains=cfg["chains"],
                                    threads=cfg["threads"], init=init,
                                    return_final=True)
    entries = dict(waic_parts(draws.loglik))
    _atomic_write(os.path.join(outdir, "draws.bin"), lambda p: save_draws(p, draws))
    _atomic_write(os.path.join(outdir, "draws.csv"), lambda p: write_draws_csv(p, draws))
    for name, rate in draws.acceptance.items():
        entries[f"acceptance.{name}"] = rate
    _write_report_pair(outdir, "fit_report", entries)
    if cfg.values["checkpoint"]:
        _atomic_write(cfg["checkpoint"],
                      lambda p: save_checkpoint(p, final_state,
                                                sweep_index=cfg["n_iter"]))
    _write_manifest(outdir, cfg, "fit")


def _cmd_predict(cfg: RunConfig, outdir: str) -> None:
    cfg.require("draws")
    if not os.path.exists(cfg["draws"]):
        raise MissingRequired(f"draws file not found: {cfg['draws']}")
    draws = load_draws(cfg["draws"])
    if cfg.values["new_times"]:
        new_times = np.array([float(v) for v in str(cfg["new_times"]).split(",")])
    else:
        step = (draws.times[-1] - draws.times[0]) / max(1, draws.times.size - 1)
        new_times = draws.times[-1] + step * np.arange(1, cfg["horizon"] + 1)
    trials = None
    if draws.family == "binomial" and cfg.values["future_trials"] is not None:
        trials = np.full((new_times.size, draws.n_cells), cfg["future_trials"])
    request = PPDRequest(new_times=new_times, draws=draws, new_trials=trials)
    values, probs = ppd_sample(request, seed=cfg["seed"])

    def write(tmp):
        with open(tmp, "w", newline="") as fh:
            out = csv.writer(fh)
            header = ["draw", "time_value", "type_id", "location_id", "value"]
            if probs is not None:
                header.append("prob")
            out.writerow(header)
            # rows run draw, then time, then cell; csv writes floats as format_float
            q, c = np.indices(values.shape[1:]).reshape(2, -1)
            keys = [new_times[q], c // draws.m + 1, c % draws.m + 1]
            for s in range(values.shape[0]):
                cols = [np.full(q.size, s + 1), *keys, values[s].ravel()]
                if probs is not None:
                    cols.append(probs[s].ravel())
                out.writerows(zip(*(col.tolist() for col in cols)))

    _atomic_write(os.path.join(outdir, "ppd.csv"), write)
    _write_manifest(outdir, cfg, "predict")


def _cmd_cluster(cfg: RunConfig, outdir: str) -> None:
    cfg.require("draws")
    if not os.path.exists(cfg["draws"]):
        raise MissingRequired(f"draws file not found: {cfg['draws']}")
    draws = load_draws(cfg["draws"])
    if not draws.has_sticks:
        raise ValidationError("clustering requires a PSBP fit (models M1-M3)")
    ppd_values = ppd_times = None
    side = cfg["trend"]
    if side not in ("none", "lower", "upper"):
        raise TypeError("trend must be none, lower, or upper")
    if side != "none":
        step = (draws.times[-1] - draws.times[0]) / max(1, draws.times.size - 1)
        ppd_times = draws.times[-1] + step * np.arange(1, max(3, cfg["horizon"]) + 1)
        trials = None
        if draws.family == "binomial" and cfg.values["future_trials"] is not None:
            trials = np.full((ppd_times.size, draws.n_cells), cfg["future_trials"])
        request = PPDRequest(new_times=ppd_times, draws=draws, new_trials=trials)
        ppd_values, _ = ppd_sample(request, seed=cfg["seed"])
    summary = summarize_clusters(draws, K_max=cfg["kmax"], B=cfg["gap_refs"],
                                 seed=cfg["seed"], restarts=cfg["kmeans_restarts"],
                                 ppd_values=ppd_values, ppd_times=ppd_times,
                                 side=side if side != "none" else "lower")

    def write_csv(tmp):
        with open(tmp, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["type_id", "location_id", "label", "cluster_pvalue"])
            m = draws.m
            for c in range(draws.n_cells):
                lab = int(summary.labels[c])
                pv = ""
                if summary.trend_pvalues is not None:
                    pv = format_float(summary.trend_pvalues[lab - 1])
                out.writerow([c // m + 1, c % m + 1, lab, pv])

    _atomic_write(os.path.join(outdir, "clusters.csv"), write_csv)
    report = {
        "kstar": summary.kstar, "gap_k": summary.gap_k,
        "ss_psbp": summary.ss_psbp, "bss": summary.bss, "tss": summary.tss,
    }

    def write_json(tmp):
        with open(tmp, "w") as fh:
            json.dump(report, fh, sort_keys=True, indent=1)
            fh.write("\n")

    _atomic_write(os.path.join(outdir, "cluster_report.json"), write_json)
    _write_manifest(outdir, cfg, "cluster")


def _cmd_diagnose(cfg: RunConfig, outdir: str) -> None:
    cfg.require("draws")
    if not os.path.exists(cfg["draws"]):
        raise MissingRequired(f"draws file not found: {cfg['draws']}")
    draws = load_draws(cfg["draws"])
    entries = dict(waic_parts(draws.loglik))
    ll_total = np.asarray(draws.loglik).sum(axis=0)
    scalars = {
        "loglik_total": ll_total,
        "psi": draws.psi,
        "rho": draws.rho,
        "delta1": draws.delta[:, 0],
    }
    if draws.family == "gaussian":
        scalars["sigma2_mean"] = draws.sigma2.mean(axis=1)
    for name, chain in scalars.items():
        try:
            entries[f"geweke_z.{name}"] = geweke_z(chain)
        except (ZeroVariance, DegenerateDraws):
            continue  # fixed parameters and short chains have no score
    for name, rate in draws.acceptance.items():
        entries[f"acceptance.{name}"] = rate
    _write_report_pair(outdir, "diagnostics", entries)
    _write_manifest(outdir, cfg, "diagnose")


def _cmd_simulate(cfg: RunConfig, outdir: str) -> None:
    rng = np.random.default_rng(np.random.SeedSequence(cfg["seed"]))
    if cfg["design"] == "sim1":
        truth = generate_sim1(Sim1Config(
            k_true=cfg["k_true"], spatial=cfg["spatial_dep"], T=cfg["sim_T"],
            n_future=cfg["n_future"], sigma2=cfg["sigma2_true"],
            L_true=cfg["L_true"]), rng)
        data = truth.fit_data

        def write_truth(tmp):
            with open(tmp, "w", newline="") as fh:
                out = csv.writer(fh)
                out.writerow(["time_value", "location_id", "holdout_y"])
                for q, tv in enumerate(truth.holdout_times):
                    for i in range(truth.holdout_y.shape[1]):
                        out.writerow([format_float(tv), i + 1,
                                      format_float(truth.holdout_y[q, i])])

    elif cfg["design"] == "sim2":
        truth = generate_sim2(Sim2Config(
            beta0=cfg["beta0"], beta1=cfg["beta1"], sigma2=cfg["sigma2"],
            delta_beta0=cfg["delta_beta0"], delta_beta1=cfg["delta_beta1"],
            delta_sigma2=cfg["delta_sigma2"], spatial=cfg["spatial_dep"],
            T=cfg["sim_T"]), rng)
        data = truth.fit_data

        def write_truth(tmp):
            with open(tmp, "w", newline="") as fh:
                out = csv.writer(fh)
                out.writerow(["location_id", "true_label", "intercept", "slope"])
                for i in range(truth.labels.size):
                    out.writerow([i + 1, int(truth.labels[i]),
                                  format_float(truth.intercepts[i]),
                                  format_float(truth.slopes[i])])

    else:
        raise TypeError("design must be sim1 or sim2")
    _atomic_write(os.path.join(outdir, "data.csv"),
                  lambda p: write_observations_csv(p, data))
    _atomic_write(os.path.join(outdir, "times.csv"),
                  lambda p: write_times_csv(p, data.times))
    _atomic_write(os.path.join(outdir, "spatial.csv"),
                  lambda p: write_spatial_csv(p, data.spatial))
    _atomic_write(os.path.join(outdir, "truth.csv"), write_truth)
    _write_manifest(outdir, cfg, "simulate")


def _cmd_experiment(cfg: RunConfig, outdir: str) -> None:
    _check_chain_lengths(cfg)
    models = [m.strip() for m in cfg["models"].split(",") if m.strip()]
    try:
        check_experiment(cfg["design"], models)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    sim1_cfg = Sim1Config(k_true=cfg["k_true"], spatial=cfg["spatial_dep"],
                          T=cfg["sim_T"], n_future=cfg["n_future"],
                          sigma2=cfg["sigma2_true"], L_true=cfg["L_true"])
    sim2_cfg = Sim2Config(beta0=cfg["beta0"], beta1=cfg["beta1"],
                          sigma2=cfg["sigma2"], delta_beta0=cfg["delta_beta0"],
                          delta_beta1=cfg["delta_beta1"],
                          delta_sigma2=cfg["delta_sigma2"],
                          spatial=cfg["spatial_dep"], T=cfg["sim_T"])
    rows = run_experiment(cfg["design"], models, cfg["replicates"], cfg["seed"],
                          n_iter=cfg["n_iter"], burn_in=cfg["burn_in"],
                          thin=cfg["thin"], k_fit=cfg["k"],
                          sim1_cfg=sim1_cfg, sim2_cfg=sim2_cfg)

    def write_csv(tmp):
        metrics = [k for k in rows[0] if k not in ("design", "replicate", "model")]
        with open(tmp, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["design", "replicate", "model"] + metrics)
            for r in rows:
                out.writerow([r["design"], r["replicate"], r["model"]]
                             + [format_float(r[m]) if isinstance(r[m], float)
                                else r[m] for m in metrics])

    _atomic_write(os.path.join(outdir, "results.csv"), write_csv)
    _atomic_write(os.path.join(outdir, "results.txt"),
                  lambda p: open(p, "w").write(experiment_table(rows)))
    _write_manifest(outdir, cfg, "experiment")


_SUBCOMMANDS = {
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "cluster": _cmd_cluster,
    "diagnose": _cmd_diagnose,
    "simulate": _cmd_simulate,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spfactor",
        description="Bayesian non-parametric spatial factor analysis")
    parser.add_argument("subcommand", choices=sorted(_SUBCOMMANDS))
    parser.add_argument("--config", required=True, help="key = value config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--chains", type=int, default=None)
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--output", default=None, help="output directory")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        cfg = load_config(args.config)
        for flag in ("seed", "chains", "threads", "output"):
            val = getattr(args, flag)
            if val is not None:
                cfg.values[flag] = val
        if cfg.values.get("seed") is None:
            raise MissingRequired("a seed is required (config key or --seed)")
        cfg.require("output")
        outdir = cfg["output"]
        os.makedirs(outdir, exist_ok=True)
        if not os.access(outdir, os.W_OK):
            raise MissingRequired(f"output directory not writable: {outdir}")
        _SUBCOMMANDS[args.subcommand](cfg, outdir)
        return 0
    except (ValidationError, TypeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except SpfactorError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - last-resort runtime guard
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
