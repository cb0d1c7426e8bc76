import csv
import dataclasses
import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from spfactor import cli
from spfactor.cli import _write_ppd_csv, main, parse_config
from spfactor.diagnostics import geweke_z
from spfactor.errors import MissingRequired, UnknownKey
from spfactor.storage import save_draws

from conftest import make_draws


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "spfactor.cli"] + args,
                          capture_output=True, text=True)


def test_parse_defaults():
    cfg = parse_config("seed = 1\n")
    assert cfg["truncation"] == "slice"
    assert cfg["rho"] == 0.99 and cfg["rho_prior"] == "fixed"
    assert cfg["a1"] == 1.0 and cfg["a2"] == 20.0
    assert cfg["family"] == "gaussian"


def test_parse_unknown_key():
    with pytest.raises(UnknownKey):
        parse_config("foo = 1\n")


def test_parse_type_error():
    with pytest.raises(TypeError):
        parse_config("n_iter = soon\n")
    with pytest.raises(TypeError):
        parse_config("pool_sigma2 = maybe\n")


def test_parse_comments_and_blanks():
    cfg = parse_config("# a comment\n\nk = 4\n")
    assert cfg["k"] == 4


def test_env_override(monkeypatch):
    monkeypatch.setenv("SPFACTOR_K", "9")
    cfg = parse_config("k = 4\n")
    assert cfg["k"] == 9


def test_missing_config_file_exit_code(tmp_path):
    rc = main(["fit", "--config", str(tmp_path / "nope.cfg"),
               "--output", str(tmp_path)])
    assert rc == 2


def test_missing_data_file_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("data = /nonexistent.csv\nspatial = /n.csv\ntimes = /n.csv\n"
                   "seed = 1\n")
    rc = main(["fit", "--config", str(cfg), "--output", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "MissingRequired" in captured.err


@pytest.mark.parametrize("subcommand", ["predict", "cluster", "diagnose"])
def test_missing_draws_file_is_usage_error(tmp_path, capsys, subcommand):
    missing = tmp_path / "nope.bin"
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"draws = {missing}\nseed = 1\n")
    rc = main([subcommand, "--config", str(cfg), "--output", str(tmp_path / "out")])
    assert rc == 2
    assert (f"error: MissingRequired: draws file not found: {missing}"
            in capsys.readouterr().err)


def test_seed_required(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("k = 2\n")
    rc = main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "o")])
    assert rc == 2
    assert "MissingRequired" in capsys.readouterr().err


def _bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.slow
def test_pipeline_and_determinism(tmp_path):
    simcfg = tmp_path / "sim.cfg"
    simcfg.write_text("design = sim1\nk_true = 1\nsim_T = 5\nseed = 11\n")
    for tag in ("a", "b"):
        out = tmp_path / f"sim_{tag}"
        assert main(["simulate", "--config", str(simcfg), "--output", str(out)]) == 0
    assert _bytes(tmp_path / "sim_a" / "data.csv") == _bytes(tmp_path / "sim_b" / "data.csv")

    fitcfg = tmp_path / "fit.cfg"
    fitcfg.write_text(
        f"data = {tmp_path}/sim_a/data.csv\n"
        f"spatial = {tmp_path}/sim_a/spatial.csv\n"
        f"times = {tmp_path}/sim_a/times.csv\n"
        "k = 2\nn_iter = 60\nburn_in = 20\nseed = 7\n")
    for tag in ("a", "b"):
        out = tmp_path / f"fit_{tag}"
        assert main(["fit", "--config", str(fitcfg), "--output", str(out)]) == 0
    assert _bytes(tmp_path / "fit_a" / "draws.csv") == _bytes(tmp_path / "fit_b" / "draws.csv")
    assert _bytes(tmp_path / "fit_a" / "draws.bin") == _bytes(tmp_path / "fit_b" / "draws.bin")

    prcfg = tmp_path / "p.cfg"
    prcfg.write_text(f"draws = {tmp_path}/fit_a/draws.bin\nhorizon = 3\nseed = 7\n")
    for tag in ("a", "b"):
        out = tmp_path / f"pred_{tag}"
        assert main(["predict", "--config", str(prcfg), "--output", str(out)]) == 0
    assert _bytes(tmp_path / "pred_a" / "ppd.csv") == _bytes(tmp_path / "pred_b" / "ppd.csv")

    clcfg = tmp_path / "cl.cfg"
    clcfg.write_text(f"draws = {tmp_path}/fit_a/draws.bin\nseed = 7\n"
                     "gap_refs = 5\nkmeans_restarts = 5\ntrend = lower\n")
    for tag in ("a", "b"):
        out = tmp_path / f"cl_{tag}"
        assert main(["cluster", "--config", str(clcfg), "--output", str(out)]) == 0
    assert _bytes(tmp_path / "cl_a" / "clusters.csv") == _bytes(tmp_path / "cl_b" / "clusters.csv")

    dgcfg = tmp_path / "d.cfg"
    dgcfg.write_text(f"draws = {tmp_path}/fit_a/draws.bin\nseed = 7\n")
    out = tmp_path / "diag"
    assert main(["diagnose", "--config", str(dgcfg), "--output", str(out)]) == 0
    report = json.loads((out / "diagnostics.json").read_text())
    assert "waic" in report
    assert "geweke_z.rho" not in report  # rho is fixed at 0.99 by default

    manifest = json.loads((tmp_path / "fit_a" / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert "config_sha256" in manifest and "versions" in manifest


def test_binomial_requires_trials_column(tmp_path, capsys):
    (tmp_path / "obs.csv").write_text("time_index,type_id,location_id,y\n"
                                      "1,1,1,1\n1,1,2,0\n2,1,1,0\n2,1,2,1\n")
    (tmp_path / "times.csv").write_text("time_index,time_value\n1,0.0\n2,1.0\n")
    (tmp_path / "sp.csv").write_text("i,j\n1,2\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"data = {tmp_path}/obs.csv\nspatial = {tmp_path}/sp.csv\n"
                   f"times = {tmp_path}/times.csv\nfamily = binomial\nseed = 2\n")
    rc = main(["fit", "--config", str(cfg), "--output", str(tmp_path / "o")])
    assert rc == 2
    assert "MissingRequired" in capsys.readouterr().err


def test_experiment_subcommand(tmp_path):
    cfg = tmp_path / "e.cfg"
    cfg.write_text("design = sim1\nmodels = M1,M5\nreplicates = 1\nk = 2\n"
                   "k_true = 1\nsim_T = 5\nn_iter = 40\nburn_in = 10\nseed = 3\n")
    out = tmp_path / "exp"
    assert main(["experiment", "--config", str(cfg), "--output", str(out)]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0].startswith("design,replicate,model,waic,crps")
    assert len(lines) == 3
    table = (out / "results.txt").read_text()
    assert "M1" in table and "M5" in table


def test_experiment_unknown_model_exit_2(tmp_path, capsys):
    cfg = tmp_path / "e.cfg"
    cfg.write_text("design = sim1\nmodels = M1,M9\nreplicates = 1\nseed = 3\n")
    out = tmp_path / "exp"
    assert main(["experiment", "--config", str(cfg), "--output", str(out)]) == 2
    assert "error: ValidationError: unknown model 'M9'" in capsys.readouterr().err
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize("subcommand", ["simulate", "experiment"])
def test_bad_simulation_setting_exit_2(tmp_path, capsys, subcommand):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("design = sim1\nk_true = 0\nmodels = M1\nreplicates = 1\nseed = 3\n")
    out = tmp_path / "o"
    assert main([subcommand, "--config", str(cfg), "--output", str(out)]) == 2
    assert "error: ValidationError: k_true must be positive" in capsys.readouterr().err
    assert not (out / "data.csv").exists() and not (out / "results.csv").exists()


def test_experiment_builds_only_its_design_config(tmp_path):
    # sim2 never reads k_true, so a value only sim1 rejects must not stop it
    cfg = tmp_path / "e.cfg"
    cfg.write_text("design = sim2\nk_true = 0\nmodels = M1\nreplicates = 1\nk = 2\n"
                   "sim_T = 5\nn_iter = 40\nburn_in = 10\nseed = 3\n")
    out = tmp_path / "exp"
    assert main(["experiment", "--config", str(cfg), "--output", str(out)]) == 0
    assert len((out / "results.csv").read_text().splitlines()) == 2


def test_env_override_applies_to_cli(tmp_path, monkeypatch):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("design = sim1\nk_true = 1\nsim_T = 4\nseed = 5\n")
    monkeypatch.setenv("SPFACTOR_SIM_T", "6")
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 0
    times = (out / "times.csv").read_text().splitlines()
    assert len(times) == 7  # header + 6 visits


def test_checkpoint_roundtrip_via_cli(tmp_path):
    simcfg = tmp_path / "sim.cfg"
    simcfg.write_text("design = sim1\nk_true = 1\nsim_T = 4\nseed = 3\n")
    assert main(["simulate", "--config", str(simcfg),
                 "--output", str(tmp_path / "sim")]) == 0
    fitcfg = tmp_path / "fit.cfg"
    fitcfg.write_text(
        f"data = {tmp_path}/sim/data.csv\nspatial = {tmp_path}/sim/spatial.csv\n"
        f"times = {tmp_path}/sim/times.csv\nk = 1\nn_iter = 20\nburn_in = 5\n"
        f"seed = 9\ncheckpoint = {tmp_path}/state.bin\n")
    assert main(["fit", "--config", str(fitcfg), "--output", str(tmp_path / "f")]) == 0
    from spfactor.sampler import load_checkpoint

    state, meta = load_checkpoint(tmp_path / "state.bin")
    assert meta["sweep_index"] == 20
    assert state.eta.shape[1] == 1
    # resuming from the checkpoint is accepted as an init
    fit2 = tmp_path / "fit2.cfg"
    fit2.write_text(
        f"data = {tmp_path}/sim/data.csv\nspatial = {tmp_path}/sim/spatial.csv\n"
        f"times = {tmp_path}/sim/times.csv\nk = 1\nn_iter = 10\nburn_in = 0\n"
        f"seed = 10\nresume_from = {tmp_path}/state.bin\n")
    assert main(["fit", "--config", str(fit2), "--output", str(tmp_path / "f2")]) == 0


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("sim")
    cfg = root / "sim.cfg"
    cfg.write_text("design = sim1\nk_true = 1\nsim_T = 4\nseed = 3\n")
    assert main(["simulate", "--config", str(cfg), "--output", str(root / "data")]) == 0
    return root / "data"


def _fit(tmp_path, sim_dir, extra):
    cfg = tmp_path / "fit.cfg"
    cfg.write_text(f"data = {sim_dir}/data.csv\nspatial = {sim_dir}/spatial.csv\n"
                   f"times = {sim_dir}/times.csv\nk = 1\nseed = 9\n" + extra)
    return main(["fit", "--config", str(cfg), "--output", str(tmp_path / "fit")])


@pytest.mark.parametrize("extra, error", [
    ("loadings_prior = nope\n", "ValidationError"),
    ("n_iter = 20\nburn_in = 20\n", "ValidationError"),
    ("n_iter = 20\nburn_in = 19\n", "DegenerateDraws"),  # one kept draw: no WAIC
    ("chains = 0\n", "ValidationError"),
    ("spatial_kernel = bogus\n", "ValidationError"),
    ("temporal_kernel = bogus\n", "ValidationError"),
    ("loadings_prior = psbp-independent\nspatial_kernel = bogus\n", "ValidationError"),
    ("rho_prior = Uniform\n", "ValidationError"),
    ("psi_lo = 0.5\n", "MissingRequired"),
    ("psi_hi = 3.0\n", "MissingRequired"),
    ("temporal_kernel = ar1\n", "ValidationError"),  # sim1 times are 1/3 apart
    ("temporal_kernel = ar1\npsi_fixed = -0.5\n", "ValidationError"),
], ids=["unknown-prior", "no-kept-draws", "one-kept-draw", "no-chains",
        "unknown-spatial-kernel", "unknown-temporal-kernel",
        "unknown-kernel-without-spatial-loadings", "unknown-rho-prior",
        "psi-lo-alone", "psi-hi-alone", "ar1-sampled-psi-fractional-gaps",
        "ar1-negative-psi-fractional-gaps"])
def test_fit_usage_errors_exit_2(tmp_path, sim_dir, capsys, extra, error):
    assert _fit(tmp_path, sim_dir, extra) == 2
    assert f"error: {error}:" in capsys.readouterr().err
    assert not (tmp_path / "fit" / "draws.bin").exists()


@pytest.fixture(scope="module")
def fitted_draws(tmp_path_factory):
    """Gaussian and binomial draws.bin files; the visits end at time 1.0."""
    root = tmp_path_factory.mktemp("draws")
    rng = np.random.default_rng(4)
    for family in ("gaussian", "binomial"):
        save_draws(root / f"{family}.bin",
                   make_draws(lam=rng.normal(size=(5, 4, 1)), family=family,
                              eta=rng.normal(size=(5, 3, 1)), rho=np.full(5, 0.99)))
    return root


@pytest.mark.parametrize("family, extra, message", [
    ("gaussian", "horizon = 0\n", "horizon must be at least 1"),
    ("gaussian", "horizon = -2\n", "horizon must be at least 1"),
    ("gaussian", "new_times = a,b\n", "new_times must be comma-separated numbers"),
    ("gaussian", "new_times = 0.5,0.6\n", "strictly after the last visit"),
    ("gaussian", "new_times = 1.5,1.4\n", "strictly increasing"),
    ("binomial", "future_trials = -3\n", "nonnegative integers"),
    ("binomial", "future_trials = 2.5\n", "nonnegative integers"),
], ids=["horizon-zero", "horizon-negative", "new-times-not-numbers",
        "new-times-before-last-visit", "new-times-decreasing",
        "future-trials-negative", "future-trials-fractional"])
def test_predict_usage_errors_exit_2(tmp_path, fitted_draws, capsys, family, extra,
                                     message):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(f"draws = {fitted_draws}/{family}.bin\nseed = 1\n" + extra)
    assert main(["predict", "--config", str(cfg), "--output", str(tmp_path / "p")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ValidationError: ") and message in err
    assert not (tmp_path / "p" / "ppd.csv").exists()


@pytest.mark.parametrize("trend, horizon", [("lower", 0), ("upper", -2)])
def test_cluster_trend_usage_errors_exit_2(tmp_path, fitted_draws, capsys, trend,
                                           horizon):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"draws = {fitted_draws}/gaussian.bin\nseed = 1\n"
                   f"trend = {trend}\nhorizon = {horizon}\n")
    assert main(["cluster", "--config", str(cfg), "--output", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ValidationError: ") and "horizon must be at least 1" in err
    assert not (tmp_path / "c" / "clusters.csv").exists()


@pytest.mark.parametrize("trend, horizon, visits", [
    ("lower", 1, [3]), ("upper", 2, [3]), ("lower", 4, [4]), ("none", -2, [])])
def test_cluster_forecasts_at_least_3_visits(tmp_path, fitted_draws, monkeypatch,
                                             trend, horizon, visits):
    forecast, forecasts = cli._forecast, []

    def recorded(cfg, draws, new_times):
        forecasts.append(new_times.size)
        return forecast(cfg, draws, new_times)

    monkeypatch.setattr(cli, "_forecast", recorded)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"draws = {fitted_draws}/gaussian.bin\nseed = 1\ngap_refs = 2\n"
                   f"trend = {trend}\nhorizon = {horizon}\n")
    assert main(["cluster", "--config", str(cfg), "--output", str(tmp_path / "c")]) == 0
    assert forecasts == visits


def _csv_writer_ppd(path, new_times, m, values, probs):
    """ppd.csv as csv.writer writes it: one list of Python numbers per row."""
    header = ["draw", "time_value", "type_id", "location_id", "value"]
    rows = []
    for s in range(values.shape[0]):
        for q, t in enumerate(new_times.tolist()):
            for c in range(values.shape[2]):
                row = [s + 1, t, c // m + 1, c % m + 1, values[s, q, c].item()]
                if probs is not None:
                    row.append(probs[s, q, c].item())
                rows.append(row)
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(header + (["prob"] if probs is not None else []))
        out.writerows(rows)


@pytest.mark.parametrize("with_probs", [False, True], ids=["gaussian", "binomial"])
def test_ppd_csv_rows_are_what_csv_writer_writes(tmp_path, with_probs):
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, 1e-300, -1e300,
               0.1, 1.0 / 3.0, 12345678901234567.0]
    rng = np.random.default_rng(3)
    S, Q, m, O = 3, 2, 4, 2
    values = rng.normal(size=(S, Q, m * O))
    values.flat[:len(special)] = special
    probs = rng.uniform(size=values.shape) if with_probs else None
    if with_probs:
        probs.flat[-len(special):] = special
    new_times = np.array([1.1 + 1.0 / 3.0, 2.0000000000000004])
    _write_ppd_csv(tmp_path / "ours.csv", new_times, m, values, probs)
    _csv_writer_ppd(tmp_path / "ref.csv", new_times, m, values, probs)
    assert _bytes(tmp_path / "ours.csv") == _bytes(tmp_path / "ref.csv")


def test_diagnose_scores_geweke_per_chain(tmp_path):
    # two stationary chains at different levels: pooled, the first 10% is
    # chain 0 and the last 50% chain 1, so only per-chain scores are fair
    rng = np.random.default_rng(8)
    n = 400
    psi = np.concatenate([rng.normal(0.0, 1.0, n), rng.normal(5.0, 1.0, n)])
    draws = dataclasses.replace(
        make_draws(lam=np.zeros((2 * n, 4, 1)), psi=psi, rho=np.full(2 * n, 0.99),
                   loglik=rng.normal(size=(4, 2 * n))),
        chain=np.repeat([0, 1], n))
    save_draws(tmp_path / "draws.bin", draws)
    cfg = tmp_path / "d.cfg"
    cfg.write_text(f"draws = {tmp_path}/draws.bin\nseed = 1\n")
    assert main(["diagnose", "--config", str(cfg), "--output", str(tmp_path / "d")]) == 0
    report = json.loads((tmp_path / "d" / "diagnostics.json").read_text())
    assert abs(geweke_z(psi)) > 5.0
    assert "geweke_z.psi" not in report
    assert report["geweke_z.psi.chain0"] == geweke_z(psi[:n])
    assert report["geweke_z.psi.chain1"] == geweke_z(psi[n:])
    assert abs(report["geweke_z.psi.chain0"]) < 4.0
    assert abs(report["geweke_z.psi.chain1"]) < 4.0
    assert not any(key.startswith("geweke_z.rho") for key in report)  # fixed rho


def test_half_psi_range_names_the_missing_key(tmp_path, sim_dir, capsys):
    assert _fit(tmp_path, sim_dir, "psi_lo = 0.5\n") == 2
    assert "config key 'psi_hi' is required" in capsys.readouterr().err


def test_fit_artifacts_share_plain_open_mode(tmp_path, sim_dir):
    assert _fit(tmp_path, sim_dir, "n_iter = 20\nburn_in = 5\n") == 0
    ref = tmp_path / "ref"
    ref.write_text("")
    modes = {f.name: stat.S_IMODE(f.stat().st_mode) for f in (tmp_path / "fit").iterdir()}
    assert set(modes) == {"draws.bin", "draws.csv", "fit_report.txt",
                          "fit_report.json", "manifest.json"}
    assert set(modes.values()) == {stat.S_IMODE(ref.stat().st_mode)}


def test_import_leaves_slow_scipy_modules_unloaded():
    # scipy.stats and scipy.integrate add about a second to every CLI process
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import sys, spfactor, spfactor.cli; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=os.path.abspath(src)), check=True)
    assert out.stdout.strip() == "[]"
