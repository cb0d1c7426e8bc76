"""The benchmark's tracer still finds every method and field it patches or reads.

perfbench/tracing.py wraps sampler methods by name and reads `stick.L`
from the state; a rename in the package would otherwise show only in a
traced benchmark run.  This test reads perfbench/ and changes nothing there.
"""

import importlib
import os

from spfactor.sampler import GibbsSampler, ModelSpec

from conftest import gaussian_dataset

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
