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


def parse_config(text: str) -> dict:
    """Parse `key = value` lines into a dict over every schema key (None
    where unset); unknown keys are rejected."""
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
    return values


def load_config(path) -> dict:
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


def _write_json(path, obj) -> None:
    def write(tmp):
        with open(tmp, "w") as fh:
            json.dump(obj, fh, sort_keys=True, indent=1)
            fh.write("\n")

    _atomic_write(path, write)


def _write_csv(path, header, rows) -> None:
    """Write `header` then the iterable `rows`; csv formats floats by repr."""
    def write(tmp):
        with open(tmp, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(header)
            out.writerows(rows)

    _atomic_write(path, write)


def _canonical_text(cfg: dict) -> str:
    """The set keys as sorted `key=repr(value)` lines: the manifest's hash input."""
    return "\n".join(f"{key}={cfg[key]!r}" for key in sorted(cfg)
                     if cfg[key] is not None)


def _write_manifest(outdir, cfg: dict, subcommand: str) -> None:
    import scipy

    _write_json(os.path.join(outdir, "manifest.json"), {
        "subcommand": subcommand,
        "seed": cfg["seed"],
        "config_sha256": hashlib.sha256(_canonical_text(cfg).encode()).hexdigest(),
        "versions": {"spfactor": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
    })


def _require(cfg: dict, *keys, files=()) -> None:
    """Every key in `keys` and `files` is set, and each of `files` names an
    existing file."""
    for key in (*keys, *files):
        if cfg[key] is None:
            raise MissingRequired(f"config key {key!r} is required")
    for key in files:
        if not os.path.exists(cfg[key]):
            raise MissingRequired(f"{key} file not found: {cfg[key]}")


def _load_dataset(cfg: dict) -> ObservationSet:
    _require(cfg, files=("data", "spatial", "times"))
    times = read_times_csv(cfg["times"])
    spatial = read_spatial_csv(cfg["spatial"])
    return read_observations_csv(cfg["data"], times, spatial, family=cfg["family"])


def _load_fit(cfg: dict):
    """The posterior draws named by the `draws` key."""
    _require(cfg, files=("draws",))
    return load_draws(cfg["draws"])


def _model_spec(cfg: dict) -> ModelSpec:
    trunc = cfg["truncation"]
    if trunc == "slice":
        L = None
    else:
        try:
            L = int(trunc)
        except ValueError:
            raise TypeError("truncation must be 'slice' or an integer")
    psi_bounds = None
    if cfg["psi_lo"] is not None or cfg["psi_hi"] is not None:
        _require(cfg, "psi_lo", "psi_hi")  # a half range is a usage error
        psi_bounds = (cfg["psi_lo"], cfg["psi_hi"])
    return ModelSpec(
        k=cfg["k"], likelihood=LikelihoodSpec(cfg["family"]), L=L,
        spatial_kernel=cfg["spatial_kernel"], temporal_kernel=cfg["temporal_kernel"],
        loadings_prior=cfg["loadings_prior"], shrinkage=cfg["shrinkage"],
        rho=cfg["rho"], rho_prior=cfg["rho_prior"],
        rho_bounds=(cfg["rho_lo"], cfg["rho_hi"]),
        psi=cfg["psi_fixed"], psi_bounds=psi_bounds,
        psi_beta_shapes=(cfg["psi_shape1"], cfg["psi_shape2"]),
        a1=cfg["a1"], a2=cfg["a2"],
        sigma2_a=cfg["sigma2_a"], sigma2_b=cfg["sigma2_b"],
        kappa_df=cfg["kappa_df"], kappa_scale=cfg["kappa_scale"],
        upsilon_df=cfg["upsilon_df"], upsilon_scale=cfg["upsilon_scale"],
        beta_prior_var=cfg["beta_prior_var"], pool_sigma2=cfg["pool_sigma2"],
    )


def _check_chain_lengths(cfg: dict) -> None:
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


def _cmd_fit(cfg: dict, outdir: str) -> None:
    _check_chain_lengths(cfg)
    data = _load_dataset(cfg)
    try:
        spec = _model_spec(cfg)
    except ValueError as exc:  # ModelSpec rejecting a config value
        raise ValidationError(str(exc)) from exc
    init = None
    if cfg["resume_from"]:
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
    if cfg["checkpoint"]:
        _atomic_write(cfg["checkpoint"],
                      lambda p: save_checkpoint(p, final_state,
                                                sweep_index=cfg["n_iter"]))
    _write_manifest(outdir, cfg, "fit")


def _forecast_times(draws, horizon: int) -> np.ndarray:
    """`horizon` future visits after the last one, at the mean observed spacing."""
    step = (draws.times[-1] - draws.times[0]) / max(1, draws.times.size - 1)
    return draws.times[-1] + step * np.arange(1, horizon + 1)


def _forecast(cfg: dict, draws, new_times: np.ndarray):
    """Posterior-predictive (values, probs) at `new_times`.  Binomial forecasts
    use `future_trials` per cell when set, else the last observed totals.  A
    grid or total that the request rejects is a usage error."""
    trials = None
    if draws.family == "binomial" and cfg["future_trials"] is not None:
        trials = np.full((new_times.size, draws.n_cells), cfg["future_trials"])
    try:
        request = PPDRequest(new_times=new_times, draws=draws, new_trials=trials)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    return ppd_sample(request, seed=cfg["seed"])


def _new_times(cfg: dict) -> np.ndarray | None:
    """The `new_times` list, or None to forecast `horizon` visits."""
    if cfg["new_times"]:
        try:
            return np.array([float(v) for v in cfg["new_times"].split(",")])
        except ValueError:
            raise ValidationError(
                f"new_times must be comma-separated numbers, got {cfg['new_times']!r}")
    return None


def _horizon(cfg: dict) -> int:
    """The number of visits to forecast; below 1 is a usage error."""
    if cfg["horizon"] < 1:
        raise ValidationError("horizon must be at least 1")
    return cfg["horizon"]


def _write_ppd_csv(path, new_times: np.ndarray, m: int, values: np.ndarray,
                   probs: np.ndarray | None) -> None:
    """ppd.csv: rows run draw, then time, then cell.  Each draw's rows are
    joined from a key string built once per (time, cell) and the repr of
    each value, which are the bytes csv.writer writes."""
    header = ["draw", "time_value", "type_id", "location_id", "value"]
    if probs is not None:
        header.append("prob")
    keys = [f",{t!r},{c // m + 1},{c % m + 1}," for t in new_times.tolist()
            for c in range(values.shape[2])]

    def write(tmp):
        with open(tmp, "w", newline="") as fh:
            csv.writer(fh).writerow(header)
            for s in range(values.shape[0]):
                draw, vals = s + 1, values[s].ravel().tolist()
                if probs is None:
                    rows = [f"{draw}{key}{v!r}\r\n" for key, v in zip(keys, vals)]
                else:
                    rows = [f"{draw}{key}{v!r},{p!r}\r\n"
                            for key, v, p in zip(keys, vals, probs[s].ravel().tolist())]
                fh.write("".join(rows))

    _atomic_write(path, write)


def _cmd_predict(cfg: dict, outdir: str) -> None:
    new_times = _new_times(cfg)
    draws = _load_fit(cfg)
    if new_times is None:
        new_times = _forecast_times(draws, _horizon(cfg))
    values, probs = _forecast(cfg, draws, new_times)
    _write_ppd_csv(os.path.join(outdir, "ppd.csv"), new_times, draws.m, values, probs)
    _write_manifest(outdir, cfg, "predict")


def _cmd_cluster(cfg: dict, outdir: str) -> None:
    draws = _load_fit(cfg)
    if not draws.has_sticks:
        raise ValidationError("clustering requires a PSBP fit (models M1-M3)")
    side = cfg["trend"]
    if side not in ("none", "lower", "upper"):
        raise TypeError("trend must be none, lower, or upper")
    ppd_values = ppd_times = None
    if side != "none":
        ppd_times = _forecast_times(draws, max(3, _horizon(cfg)))
        ppd_values, _ = _forecast(cfg, draws, ppd_times)
    summary = summarize_clusters(draws, K_max=cfg["kmax"], B=cfg["gap_refs"],
                                 seed=cfg["seed"], restarts=cfg["kmeans_restarts"],
                                 ppd_values=ppd_values, ppd_times=ppd_times,
                                 side=side if side != "none" else "lower")
    pvalues, m = summary.trend_pvalues, draws.m
    _write_csv(os.path.join(outdir, "clusters.csv"),
               ["type_id", "location_id", "label", "cluster_pvalue"],
               ([c // m + 1, c % m + 1, int(lab),
                 "" if pvalues is None else format_float(pvalues[lab - 1])]
                for c, lab in enumerate(summary.labels)))
    _write_json(os.path.join(outdir, "cluster_report.json"), {
        "kstar": summary.kstar, "gap_k": summary.gap_k,
        "ss_psbp": summary.ss_psbp, "bss": summary.bss, "tss": summary.tss,
    })
    _write_manifest(outdir, cfg, "cluster")


def _cmd_diagnose(cfg: dict, outdir: str) -> None:
    draws = _load_fit(cfg)
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
    # each chain is scored on its own, so no score compares one chain's
    # start with another's end
    chains = np.unique(draws.chain)
    for name, values in scalars.items():
        for c in chains:
            key = f"geweke_z.{name}" if chains.size == 1 else f"geweke_z.{name}.chain{c}"
            try:
                entries[key] = geweke_z(values[draws.chain == c])
            except (ZeroVariance, DegenerateDraws):
                continue  # fixed parameters and short chains have no score
    for name, rate in draws.acceptance.items():
        entries[f"acceptance.{name}"] = rate
    _write_report_pair(outdir, "diagnostics", entries)
    _write_manifest(outdir, cfg, "diagnose")


def _sim_config(cfg: dict) -> Sim1Config | Sim2Config:
    """Generator settings of the config's design; a value the generator
    rejects is a usage error."""
    try:
        if cfg["design"] == "sim1":
            return Sim1Config(k_true=cfg["k_true"], spatial=cfg["spatial_dep"],
                              T=cfg["sim_T"], n_future=cfg["n_future"],
                              sigma2=cfg["sigma2_true"], L_true=cfg["L_true"])
        if cfg["design"] == "sim2":
            return Sim2Config(beta0=cfg["beta0"], beta1=cfg["beta1"],
                              sigma2=cfg["sigma2"], delta_beta0=cfg["delta_beta0"],
                              delta_beta1=cfg["delta_beta1"],
                              delta_sigma2=cfg["delta_sigma2"],
                              spatial=cfg["spatial_dep"], T=cfg["sim_T"])
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    raise TypeError("design must be sim1 or sim2")


def _cmd_simulate(cfg: dict, outdir: str) -> None:
    sim_cfg = _sim_config(cfg)
    rng = np.random.default_rng(np.random.SeedSequence(cfg["seed"]))
    if cfg["design"] == "sim1":
        truth = generate_sim1(sim_cfg, rng)
        header = ["time_value", "location_id", "holdout_y"]
        rows = ([format_float(tv), i + 1, format_float(y)]
                for tv, ys in zip(truth.holdout_times, truth.holdout_y)
                for i, y in enumerate(ys))
    else:
        truth = generate_sim2(sim_cfg, rng)
        header = ["location_id", "true_label", "intercept", "slope"]
        rows = ([i + 1, int(lab), format_float(a), format_float(b)]
                for i, (lab, a, b) in enumerate(zip(truth.labels, truth.intercepts,
                                                    truth.slopes)))
    data = truth.fit_data
    _atomic_write(os.path.join(outdir, "data.csv"),
                  lambda p: write_observations_csv(p, data))
    _atomic_write(os.path.join(outdir, "times.csv"),
                  lambda p: write_times_csv(p, data.times))
    _atomic_write(os.path.join(outdir, "spatial.csv"),
                  lambda p: write_spatial_csv(p, data.spatial))
    _write_csv(os.path.join(outdir, "truth.csv"), header, rows)
    _write_manifest(outdir, cfg, "simulate")


def _cmd_experiment(cfg: dict, outdir: str) -> None:
    _check_chain_lengths(cfg)
    models = [m.strip() for m in cfg["models"].split(",") if m.strip()]
    try:
        check_experiment(cfg["design"], models)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    design, sim_cfg = cfg["design"], _sim_config(cfg)
    rows = run_experiment(design, models, cfg["replicates"], cfg["seed"],
                          n_iter=cfg["n_iter"], burn_in=cfg["burn_in"],
                          thin=cfg["thin"], k_fit=cfg["k"],
                          sim1_cfg=sim_cfg if design == "sim1" else None,
                          sim2_cfg=sim_cfg if design == "sim2" else None)
    ids = ["design", "replicate", "model"]
    metrics = [key for key in rows[0] if key not in ids]
    _write_csv(os.path.join(outdir, "results.csv"), ids + metrics,
               ([r[key] for key in ids]
                + [format_float(r[m]) if isinstance(r[m], float) else r[m]
                   for m in metrics] for r in rows))

    def write_table(tmp):
        with open(tmp, "w") as fh:
            fh.write(experiment_table(rows))

    _atomic_write(os.path.join(outdir, "results.txt"), write_table)
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
                cfg[flag] = val
        if cfg["seed"] is None:
            raise MissingRequired("a seed is required (config key or --seed)")
        _require(cfg, "output")
        outdir = cfg["output"]
        os.makedirs(outdir, exist_ok=True)
        if not os.access(outdir, os.W_OK):
            raise MissingRequired(f"output directory not writable: {outdir}")
        _SUBCOMMANDS[args.subcommand](cfg, outdir)
        return 0
    except (ValidationError, TypeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numerical and runtime failures
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
