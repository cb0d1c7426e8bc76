"""The benchmark's tracer still finds every method and field it patches or reads.

perfbench/tracing.py wraps sampler methods and CLI imports by name and reads
`stick.L` from the state, and it fails a workload whose run never reaches a
patched method; a rename in the package, or a sweep that skips a traced
update, would otherwise show only in a traced benchmark run.  These tests
read perfbench/ and change nothing there.
"""

import importlib
import os

import pytest

from spfactor.cli import _model_spec, main, parse_config
from spfactor.sampler import GibbsSampler, ModelSpec, run_chain
from spfactor.storage import save_draws

from conftest import binomial_dataset, gaussian_dataset

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def test_tracer_resolves_its_targets_and_counts_stick_columns(monkeypatch):
    monkeypatch.syspath_prepend(os.path.abspath(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()  # resolves every patch target or raises TraceError
    spec = ModelSpec(k=2)
    tracer.install(0)
    try:
        GibbsSampler(spec, gaussian_dataset()).run(4, seed=3)
    finally:
        tracer.uninstall()
    assert tracer.counts[0]["sticks.columns"] == spec.k * 4
    assert tracer.counts[0]["sticks.sum"] >= spec.k * 4


@pytest.mark.parametrize("workload", ["sim1-m1-gauss", "sim1-m1-binom40",
                                      "sim1-m4-freerho"])
def test_a_fit_reaches_every_sampler_target_of_its_workload(monkeypatch, workload):
    # a sweep that skips a traced update would fail the benchmark's check_reached
    monkeypatch.syspath_prepend(os.path.abspath(PERFBENCH))
    tracing = importlib.import_module("tracing")
    wl = importlib.import_module("workloads").WORKLOADS[workload]
    spec = _model_spec(parse_config("\n".join(["k = 2", *wl.model])))
    data = binomial_dataset() if wl.family == "binomial" else gaussian_dataset()
    tracer = tracing.Tracer()
    tracer.install(0)
    try:
        GibbsSampler(spec, data).run(6, burn_in=3, seed=1)
    finally:
        tracer.uninstall()
    seen = {rec[0] for rec in tracer.spans}
    missing = [target for target, name, _, on in tracing.PATCHES
               if target.startswith("spfactor.sampler:") and workload in on
               and name not in seen]
    assert missing == []


def test_tracer_records_the_predictive_pass_of_predict(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(os.path.abspath(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    draws = run_chain(ModelSpec(k=1), gaussian_dataset(), 12, burn_in=4, seed=2)
    save_draws(tmp_path / "draws.bin", draws)
    cfg = tmp_path / "p.cfg"
    cfg.write_text(f"draws = {tmp_path}/draws.bin\nhorizon = 2\nseed = 5\n")
    tracer.install(0)
    try:
        assert main(["predict", "--config", str(cfg), "--output", str(tmp_path / "p")]) == 0
    finally:
        tracer.uninstall()
    assert tracing.span_totals(tracer.spans, 0)["prediction.ppd"][0] == 1
    assert tracer.counts[0]["prediction.draws"] == draws.n_draws == 8
