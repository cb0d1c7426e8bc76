import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spfactor.diagnostics import crps, geweke_z, waic, waic_parts
from spfactor.errors import DegenerateDraws, ZeroVariance


def brute_waic(ll):
    """Independent reimplementation with explicit loops."""
    n_cells, S = ll.shape
    lppd = 0.0
    p_waic = 0.0
    for c in range(n_cells):
        lppd += math.log(sum(math.exp(v) for v in ll[c]) / S)
        mean = sum(ll[c]) / S
        p_waic += sum((v - mean) ** 2 for v in ll[c]) / (S - 1)
    return -2.0 * (lppd - p_waic)


def brute_crps(samples, y):
    s = list(samples)
    n = len(s)
    t1 = sum(abs(x - y) for x in s) / n
    t2 = sum(abs(a - b) for a in s for b in s) / (n * n)
    return t1 - 0.5 * t2


def test_waic_examples():
    # likelihoods (e, e): lppd = 1, p_waic = 0 -> WAIC = -2
    ll = np.array([[1.0, 1.0]])
    assert waic(ll) == pytest.approx(-2.0, abs=1e-12)
    # likelihoods (1, 1): log-lik zeros
    assert waic(np.zeros((1, 2))) == pytest.approx(0.0, abs=1e-12)
    # duplicated cells double the value
    ll = np.array([[0.3, -0.2, 0.1]])
    assert waic(np.vstack([ll, ll])) == pytest.approx(2 * waic(ll), abs=1e-12)


def test_waic_order_invariance():
    rng = np.random.default_rng(0)
    ll = rng.normal(size=(7, 9))
    perm = rng.permutation(9)
    assert waic(ll[:, perm]) == pytest.approx(waic(ll), abs=1e-12)


def test_waic_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(5):
        ll = rng.normal(size=(5, 4))
        assert waic(ll) == pytest.approx(brute_waic(ll), abs=1e-10)


def test_waic_degenerate():
    with pytest.raises(DegenerateDraws):
        waic(np.zeros((3, 1)))


def test_waic_parts_sign_convention():
    parts = waic_parts(np.random.default_rng(2).normal(size=(4, 6)))
    assert parts["waic"] == pytest.approx(
        -2 * (parts["lppd"] - parts["p_waic"]), abs=1e-12)


def test_crps_examples():
    assert crps(np.array([0.0, 2.0]), 1.0) == pytest.approx(0.5, abs=1e-12)
    assert crps(np.array([3.0]), 1.0) == pytest.approx(2.0, abs=1e-12)
    assert crps(np.array([1.0, 1.0]), 0.0) == pytest.approx(1.0, abs=1e-12)


def test_crps_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.normal(size=11)
        y = rng.normal()
        assert crps(x, y) == pytest.approx(brute_crps(x, y), abs=1e-10)


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=30), st.floats(-50, 50))
@settings(max_examples=150, deadline=None)
def test_crps_nonnegative(samples, y):
    val = crps(np.array(samples), y)
    assert val >= -1e-12
    if all(x == y for x in samples):
        assert val == pytest.approx(0.0, abs=1e-12)


def test_crps_gaussian_identity():
    # ensemble from N(y, 1): expected CRPS = (sqrt(2)-1)/sqrt(pi)
    rng = np.random.default_rng(4)
    y = 0.7
    samples = rng.normal(y, 1.0, size=100000)
    expect = (np.sqrt(2.0) - 1.0) / np.sqrt(np.pi)
    assert crps(samples, y) == pytest.approx(expect, abs=0.01)


def test_geweke_constant_chain():
    with pytest.raises(ZeroVariance):
        geweke_z(np.ones(100))
    # 0.99 and 0.1 are not exact in binary: centring leaves rounding residues
    for value in (0.99, 0.1):
        with pytest.raises(ZeroVariance):
            geweke_z(np.full(1000, value))


def test_geweke_null_calibration():
    rng = np.random.default_rng(5)
    hits = 0
    n_rep = 300
    for _ in range(n_rep):
        z = geweke_z(rng.normal(size=10000))
        hits += abs(z) < 3.0
    assert hits / n_rep >= 0.97


def test_geweke_detects_mean_shift():
    rng = np.random.default_rng(6)
    chain = np.concatenate([rng.normal(0, 1, 5000), rng.normal(10, 1, 5000)])
    assert abs(geweke_z(chain)) > 5.0


def test_geweke_short_chain():
    with pytest.raises(DegenerateDraws):
        geweke_z(np.arange(10.0))
