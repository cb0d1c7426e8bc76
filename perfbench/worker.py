"""One workload process: generate inputs, run the CLI pipeline, check outputs.

run.py starts this file once per measured run and, for the set-up time,
several more times with --setup-only.  Every pipeline calls
``spfactor.cli.main`` with an argv list, as the console script does.  The
result goes to <workdir>/worker.json.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

import numpy as np
import scipy

import spfactor
from spfactor import cli
from spfactor.data import ObservationSet, write_observations_csv
from spfactor.simulation import Sim1Config, generate_sim1
from spfactor.storage import load_draws

from tracing import TraceError, Tracer, combine_rows, ess_per_draw, layer_metrics, \
    span_totals
from workloads import BINOMIAL_TRIALS, BURN_IN, GAP_REFS, HORIZON, LAYER_UNITS, \
    N_ITER, RECOVERY_MIN, WORKLOADS

KEPT = N_ITER - BURN_IN
# Simulated datasets per run.  The pipelines cycle over them, so a run
# averages over several draws of the inputs (README.md).
DATASETS = 8
# Measured pipelines every untraced run makes, whatever --seconds allows;
# artifact_mb averages exactly these, so it repeats for a given seed.
MIN_PLAIN = 4


def _write(path, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _cli(argv):
    """Run one CLI stage; returns (exit code, seconds)."""
    start = time.perf_counter()
    rc = cli.main(argv)
    return rc, time.perf_counter() - start


def dataset_seeds(seed, index):
    """Simulation and fit seeds of dataset `index` of the run with `seed`."""
    data_seed, fit_seed = np.random.SeedSequence([seed, index]).generate_state(2)
    return int(data_seed), int(fit_seed)


def make_inputs(wl, seed, index, root, out):
    """Simulate dataset `index` with `spfactor simulate` and write its stage
    configs in the directory data<index> under `root`; the stages write to
    `out`.  Returns that directory and the true linear predictor at the
    fitted visits, shape (T, cells)."""
    data_seed, fit_seed = dataset_seeds(seed, index)
    home = os.path.join(root, f"data{index}")
    sim = os.path.join(home, "sim")
    os.makedirs(home)
    _write(os.path.join(home, "sim.cfg"),
           ["design = sim1", "k_true = 3", f"n_future = {HORIZON}",
            f"seed = {data_seed}"])
    rc, _ = _cli(["simulate", "--config", os.path.join(home, "sim.cfg"),
                  "--output", sim])
    if rc != 0:
        raise RuntimeError(f"spfactor simulate exited {rc}")
    # The same draw as `spfactor simulate` made, for the truth it does not write.
    truth = generate_sim1(Sim1Config(k_true=3, n_future=HORIZON),
                          np.random.default_rng(np.random.SeedSequence(data_seed)))
    T = truth.fit_data.T
    if wl.family == "binomial":
        theta = _write_binomial_counts(sim, truth, data_seed)
    else:
        theta = truth.eta[:T] @ truth.lam.T
    _write(os.path.join(home, "fit.cfg"), [
        f"data = {sim}/data.csv", f"spatial = {sim}/spatial.csv",
        f"times = {sim}/times.csv", "k = 6", f"n_iter = {N_ITER}",
        f"burn_in = {BURN_IN}", "chains = 1", "threads = 1", f"seed = {fit_seed}",
        *wl.model])
    _write(os.path.join(home, "post.cfg"), [
        f"draws = {out}/fit/draws.bin", f"horizon = {HORIZON}",
        "trend = lower", f"gap_refs = {GAP_REFS}", f"seed = {fit_seed}"])
    return home, theta


def _write_binomial_counts(sim, truth, data_seed):
    """Replace sim/data.csv with binomial counts: the simulated sim1 surfaces
    scaled to unit SD, logit link, BINOMIAL_TRIALS per cell.  Returns the
    scaled surfaces, which are the counts' true linear predictor."""
    data = truth.fit_data
    theta = data.y[:, 0, :] / float(data.y.std())
    rng = np.random.default_rng(np.random.SeedSequence([data_seed, BINOMIAL_TRIALS]))
    counts = rng.binomial(BINOMIAL_TRIALS, 1.0 / (1.0 + np.exp(-theta)))
    write_observations_csv(os.path.join(sim, "data.csv"), ObservationSet(
        y=counts[:, None, :], times=data.times, spatial=data.spatial,
        trials=np.full(data.y.shape, float(BINOMIAL_TRIALS))))
    return theta


def run_pipeline(wl, home, out, stages, tracer=None):
    """Run `stages` on the dataset in `home`; returns seconds and exit codes."""
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    seconds, codes = {}, {}
    for stage in stages:
        cfg = os.path.join(home, "fit.cfg" if stage == "fit" else "post.cfg")
        argv = [stage, "--config", cfg, "--output", os.path.join(out, stage)]
        if tracer is None:
            codes[stage], seconds[stage] = _cli(argv)
        else:
            with tracer.span(f"cli.{stage}"):
                codes[stage], seconds[stage] = _cli(argv)
    return seconds, codes


def _size_mb(path):
    return os.path.getsize(path) / 1e6 if os.path.exists(path) else 0.0


def _digest(out):
    with open(os.path.join(out, "fit", "draws.bin"), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _finite_json(path):
    with open(path) as fh:
        report = json.load(fh)
    values = [v for v in report.values() if not isinstance(v, str)]
    return bool(values) and all(math.isfinite(v) for v in values), report


def check_outputs(wl, out, truth_theta, first_digest):
    """Output checks of one pipeline: name -> passed, plus measured facts."""
    n_cells = truth_theta.shape[1]
    checks, facts = {}, {}

    def check(name, fn):
        try:
            checks[name] = bool(fn())
        except Exception as exc:  # a check that cannot run has failed
            checks[name] = False
            facts.setdefault("check_errors", {})[name] = repr(exc)

    def fit_report():
        ok, report = _finite_json(os.path.join(out, "fit", "fit_report.json"))
        facts["rho_accept"] = report.get("acceptance.rho", 0.0)
        facts["psi_accept"] = report.get("acceptance.psi", 0.0)
        return ok and math.isfinite(report["waic"])

    def deterministic():
        facts["draws_sha256"] = _digest(out)
        return first_digest is None or facts["draws_sha256"] == first_digest

    def draws():
        draws = load_draws(os.path.join(out, "fit", "draws.bin"))
        loglik = np.asarray(draws.loglik)
        theta = np.einsum("stk,snk->tn", draws.eta, draws.lam) / draws.n_draws
        facts["ess_per_kept"] = ess_per_draw(loglik.sum(axis=0))
        facts["recovery_corr"] = float(np.corrcoef(theta.ravel(),
                                                   truth_theta.ravel())[0, 1])
        return draws.n_draws == KEPT and np.isfinite(loglik).all() \
            and np.isfinite(theta).all()

    def ppd():
        table = np.loadtxt(os.path.join(out, "predict", "ppd.csv"), delimiter=",",
                           skiprows=1, ndmin=2)
        return table.shape[0] == KEPT * HORIZON * n_cells and np.isfinite(table).all()

    def clusters():
        with open(os.path.join(out, "cluster", "clusters.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        labels = [int(r["label"]) for r in rows]
        pvalues = [float(r["cluster_pvalue"]) for r in rows]
        ok, _ = _finite_json(os.path.join(out, "cluster", "cluster_report.json"))
        return (ok and len(rows) == n_cells and min(labels) >= 1
                and all(0.0 <= p <= 1.0 for p in pvalues))

    def diagnostics():
        ok, report = _finite_json(os.path.join(out, "diagnose", "diagnostics.json"))
        return ok and math.isfinite(report["waic"])

    check("fit.report", fit_report)
    check("fit.deterministic", deterministic)
    check("fit.draws", draws)
    check("predict.ppd", ppd)
    if "cluster" in wl.stages:
        check("cluster.clusters", clusters)
    check("diagnose.report", diagnostics)
    facts["artifact_mb"] = sum(_size_mb(os.path.join(d, f))
                               for d, _, files in os.walk(out) for f in files)
    facts["draws_bin_mb"] = _size_mb(os.path.join(out, "fit", "draws.bin"))
    facts["draws_csv_mb"] = _size_mb(os.path.join(out, "fit", "draws.csv"))
    return checks, facts


def _versions():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "spfactor": spfactor.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _schedule(index, traced_run):
    """(dataset, role) of pipeline `index`; role is warm-up, plain or traced.

    Pipeline 0 warms the process up: the first pipeline of a process runs
    slower (README.md), so no metric reads it.  It fits dataset 0, as does
    pipeline 1, so the byte-identical draws.bin check costs no extra fit.
    After that an untraced run takes one new dataset per pipeline, and a
    traced run measures each dataset twice in a row, untraced then traced.
    """
    if index == 0:
        return 0, "warm-up"
    if traced_run:
        return ((index - 1) // 2) % DATASETS, ("plain", "traced")[(index - 1) % 2]
    return (index - 1) % DATASETS, "plain"


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--t-spawn", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    root = args.workdir

    out = os.path.join(root, "out")
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install("setup")
    try:
        datasets = [make_inputs(wl, args.seed, i, root, out) for i in range(DATASETS)]
    finally:
        if tracer:
            tracer.uninstall()
    setup_s = time.monotonic() - args.t_spawn
    if args.setup_only:
        with open(os.path.join(root, "worker.json"), "w") as fh:
            json.dump({"setup_s": setup_s}, fh)
        return 0

    reps, layer_rows, digests = [], [], {}
    start = time.monotonic()
    while True:
        run_id = len(reps)
        index, role = _schedule(run_id, bool(tracer))
        traced = role == "traced"
        home, truth_theta = datasets[index]
        if traced:
            tracer.install(run_id)
        try:
            seconds, codes = run_pipeline(wl, home, out, wl.stages,
                                          tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        checks, facts = check_outputs(wl, out, truth_theta, digests.get(index))
        digests.setdefault(index, facts.get("draws_sha256"))
        fit_s = seconds["fit"]
        post_fit_s = sum(v for k, v in seconds.items() if k != "fit")
        rep = {"dataset": index, "role": role, "stage_s": seconds,
               "exit_codes": codes, "checks": checks, "fit_s": fit_s,
               "post_fit_s": post_fit_s, "pipeline_s": fit_s + post_fit_s, **facts}
        reps.append(rep)
        if traced and all(checks.values()) and not any(codes.values()):
            tracer.check_reached(run_id, wl.name)
            layer_rows.append(layer_metrics(tracer, run_id, facts))
        # Stop when the next pipeline (a traced run: the next pair) would end
        # after the time budget.
        elapsed = time.monotonic() - start
        step = 2 if tracer else 1
        least = 3 if tracer else 1 + MIN_PLAIN
        if (len(reps) >= least and (len(reps) - 1) % step == 0
                and elapsed + step * elapsed / len(reps) > args.seconds):
            break

    # One statistical check per run, on the median over its pipelines so
    # that a single slowly mixing chain does not fail it (README.md).
    recovery = [r.get("recovery_corr", float("nan")) for r in reps]
    run_checks = {"fit.recovery": statistics.median(recovery) >= RECOVERY_MIN}
    outcomes = [c == 0 for r in reps for c in r["exit_codes"].values()]
    outcomes += [ok for r in reps for ok in r["checks"].values()]
    outcomes += list(run_checks.values())
    result = {"attempted": len(outcomes), "failed": outcomes.count(False),
              "versions": _versions(),
              "setup_s": setup_s, "reps": reps, "run_checks": run_checks,
              "peak_rss_mb":
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6}
    if tracer:
        if not layer_rows:
            raise TraceError("no traced pipeline passed its checks")
        layer = combine_rows(layer_rows)
        generate = span_totals(tracer.spans, "setup")["simulation.generate"]
        if generate[0] == 0:
            raise TraceError("no calls reached spfactor.cli:generate_sim1")
        layer["simulation.generate_s"] = generate[1] / DATASETS
        layer["trace.overhead_s"] = statistics.median(
            b["pipeline_s"] - a["pipeline_s"] for a, b in zip(reps[1::2], reps[2::2]))
        result["layer"] = {k: layer[k] for k in LAYER_UNITS}
        tracer.write(os.path.join(root, "spans.jsonl"))
    else:
        plain = [r for r in reps if r["role"] == "plain"]
        result["end_to_end"] = {
            key: statistics.median(r[key] for r in plain)
            for key in ("fit_s", "post_fit_s", "pipeline_s")}
        # Bytes carry no timing noise, only the datasets' spread.
        result["end_to_end"]["artifact_mb"] = statistics.mean(
            r["artifact_mb"] for r in plain[:MIN_PLAIN])
    with open(os.path.join(root, "worker.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
