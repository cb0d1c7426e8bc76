import csv
import dataclasses

import numpy as np
import pytest

from spfactor import storage
from spfactor.data import ObservationSet
from spfactor.likelihoods import LikelihoodSpec
from spfactor.sampler import GibbsSampler, ModelSpec, run_chain
from spfactor.storage import (
    PosteriorDraws,
    load_draws,
    merge_draws,
    save_draws,
    write_draws_csv,
)

from conftest import gaussian_dataset, king_grid


def _small_draws(seed=1, L=3):
    data = gaussian_dataset(T=4)
    spec = ModelSpec(k=2, L=L)
    return run_chain(spec, data, 12, burn_in=2, thin=2, seed=seed)


def test_container_round_trip(tmp_path):
    draws = _small_draws()
    path = tmp_path / "d.bin"
    save_draws(path, draws)
    back = load_draws(path)
    assert np.array_equal(back.eta, draws.eta)
    assert np.array_equal(back.lam, draws.lam)
    assert np.array_equal(back.xi, draws.xi)
    assert len(back.weight_sum) == draws.k
    assert all(np.array_equal(a, b) for a, b in zip(back.weight_sum, draws.weight_sum))
    assert np.array_equal(np.asarray(back.loglik), np.asarray(draws.loglik))
    assert back.family == draws.family
    assert np.array_equal(back.times, draws.times)


def test_container_bytes_deterministic(tmp_path):
    draws = _small_draws()
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_draws(p1, draws)
    save_draws(p2, draws)
    assert p1.read_bytes() == p2.read_bytes()


def test_container_rejects_version_1(tmp_path, monkeypatch):
    path = tmp_path / "d.bin"
    monkeypatch.setattr(storage, "_FORMAT_VERSION", 1)
    save_draws(path, _small_draws())
    monkeypatch.undo()
    with pytest.raises(ValueError, match="unsupported container version 1"):
        load_draws(path)


def test_merge_concatenates_and_pads():
    d1 = _small_draws(seed=1, L=None)
    d2 = _small_draws(seed=2, L=None)
    merged = merge_draws([d1, d2])
    assert merged.n_draws == d1.n_draws + d2.n_draws
    assert merged.eta.shape[0] == merged.n_draws
    for j, w in enumerate(merged.weight_sum):
        w1, w2 = d1.weight_sum[j], d2.weight_sum[j]
        assert w.shape == (d1.n_cells, max(w1.shape[1], w2.shape[1]))
        expected = np.zeros(w.shape)
        expected[:, :w1.shape[1]] += w1
        expected[:, :w2.shape[1]] += w2
        assert np.array_equal(w, expected)
        assert np.allclose(w.sum(axis=1), merged.n_draws, atol=1e-9)
    assert np.asarray(merged.loglik).shape[1] == merged.n_draws


def test_draws_csv_has_named_scalars(tmp_path):
    draws = _small_draws()
    path = tmp_path / "draws.csv"
    write_draws_csv(path, draws)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    assert len(body) == draws.n_draws
    assert "eta[1,1]" in header
    assert "lam[1,1]" in header
    assert "rho" in header and "psi" in header
    assert "xi[1,1]" in header
    assert not any(name.startswith("w[") for name in header)
    eta_idx = header.index("eta[1,1]")
    assert float(body[0][eta_idx]) == draws.eta[0, 0, 0]


def _binomial_dataset(T=3, m=3, p=1, seed=0):
    rng = np.random.default_rng(seed)
    trials = np.full((T, 1, m), 5.0)
    return ObservationSet(y=rng.binomial(5, 0.4, size=(T, 1, m)).astype(float),
                          times=np.linspace(0.0, 1.0, T), spatial=king_grid(1, m),
                          covariates=rng.normal(size=(T, 1, m, p)), trials=trials)


def _m4_dataset(T=3, m=2, O=2, seed=0):
    rng = np.random.default_rng(seed)
    return ObservationSet(y=rng.normal(size=(T, O, m)), times=np.linspace(0.0, 1.0, T),
                          spatial=king_grid(1, m))


_M4 = dict(loadings_prior="gaussian-car", shrinkage="independent-gamma",
           rho_prior="uniform")
_FITS = {
    "gaussian-psbp": (lambda: gaussian_dataset(T=4), dict(k=2)),
    "binomial": (_binomial_dataset, dict(k=2, likelihood=LikelihoodSpec("binomial"))),
    "m4": (_m4_dataset, dict(k=2, **_M4)),
}


def _chain_parts(fit):
    make_data, kwargs = _FITS[fit]
    data, spec = make_data(), ModelSpec(**kwargs)
    return [GibbsSampler(spec, data).run(14, burn_in=4, thin=2, seed=10 + c, chain_id=c)
            for c in range(2)]


def _assert_same(a, b, name):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name
    elif isinstance(a, list):
        assert len(a) == len(b), name
        for x, y in zip(a, b):
            _assert_same(x, y, name)
    else:
        assert a == b, name


@pytest.mark.parametrize("fit", sorted(_FITS))
def test_every_field_survives_merge_save_load(tmp_path, fit):
    parts = _chain_parts(fit)
    merged = merge_draws(parts)
    one, two = parts
    stacked = ("iteration", "chain", "beta", "eta", "lam", "sigma2", "kappa",
               "upsilon", "delta", "rho", "psi", "xi")
    for f in dataclasses.fields(PosteriorDraws):
        got = getattr(merged, f.name)
        if f.name in stacked:
            want = np.concatenate([getattr(one, f.name), getattr(two, f.name)])
        elif f.name == "loglik":
            want = np.hstack([np.asarray(one.loglik), np.asarray(two.loglik)])
        elif f.name == "weight_sum":
            want = []
            for w1, w2 in zip(one.weight_sum, two.weight_sum):
                w = np.zeros((one.n_cells, max(w1.shape[1], w2.shape[1])))
                w[:, :w1.shape[1]] += w1
                w[:, :w2.shape[1]] += w2
                want.append(w)
        elif f.name == "acceptance":
            want = {key: float(np.mean([one.acceptance[key], two.acceptance[key]]))
                    for key in one.acceptance}
        else:
            want = getattr(one, f.name)
        _assert_same(got, want, f.name)
    assert merged.chain.tolist() == [0] * one.n_draws + [1] * two.n_draws
    assert (merged.last_trials is None) == (fit != "binomial")
    assert (len(merged.weight_sum) == merged.k) == (fit != "m4")
    if fit == "m4":
        assert set(merged.acceptance) == {"rho", "psi"}

    path = tmp_path / "draws.bin"
    save_draws(path, merged)
    back = load_draws(path)
    for f in dataclasses.fields(PosteriorDraws):
        _assert_same(getattr(back, f.name), getattr(merged, f.name), f.name)
    save_draws(tmp_path / "again.bin", back)
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


def _csv_rows(tmp_path, draws):
    path = tmp_path / "draws.csv"
    write_draws_csv(path, draws)
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_draws_csv_header_binomial(tmp_path):
    draws = run_chain(ModelSpec(k=2, likelihood=LikelihoodSpec("binomial")),
                      _binomial_dataset(T=3, m=3, p=1), 6, burn_in=2, seed=4)
    rows = _csv_rows(tmp_path, draws)
    assert rows[0] == [
        "chain", "iteration", "beta[1]",
        "eta[1,1]", "eta[1,2]", "eta[2,1]", "eta[2,2]", "eta[3,1]", "eta[3,2]",
        "lam[1,1]", "lam[1,2]", "lam[2,1]", "lam[2,2]", "lam[3,1]", "lam[3,2]",
        "kappa[1,1]",
        "upsilon[1,1]", "upsilon[1,2]", "upsilon[2,1]", "upsilon[2,2]",
        "delta[1]", "delta[2]", "rho", "psi",
        "xi[1,1]", "xi[1,2]", "xi[1,3]", "xi[2,1]", "xi[2,2]", "xi[2,3]",
    ]
    assert len(rows) == 1 + draws.n_draws
    first = rows[1]
    assert first[:2] == ["0", "3"]
    assert first[-6:] == [str(v) for v in draws.xi[0].ravel()]
    assert first[2] == repr(float(draws.beta[0, 0]))
    assert first[rows[0].index("lam[3,1]")] == repr(float(draws.lam[0, 2, 0]))


def test_draws_csv_header_m4(tmp_path):
    draws = run_chain(ModelSpec(k=2, **_M4), _m4_dataset(T=3, m=2, O=2), 6,
                      burn_in=2, seed=4)
    rows = _csv_rows(tmp_path, draws)
    assert rows[0] == [
        "chain", "iteration",
        "eta[1,1]", "eta[1,2]", "eta[2,1]", "eta[2,2]", "eta[3,1]", "eta[3,2]",
        "lam[1,1]", "lam[1,2]", "lam[2,1]", "lam[2,2]",
        "lam[3,1]", "lam[3,2]", "lam[4,1]", "lam[4,2]",
        "sigma2[1]", "sigma2[2]", "sigma2[3]", "sigma2[4]",
        "kappa[1,1]", "kappa[1,2]", "kappa[2,1]", "kappa[2,2]",
        "upsilon[1,1]", "upsilon[1,2]", "upsilon[2,1]", "upsilon[2,2]",
        "delta[1]", "delta[2]", "rho", "psi",
    ]
    last = rows[-1]
    assert last[:2] == ["0", "6"]
    assert last[rows[0].index("kappa[1,2]")] == repr(float(draws.kappa[-1, 0, 1]))
    assert last[-1] == repr(float(draws.psi[-1]))
