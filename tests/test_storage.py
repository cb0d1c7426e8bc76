import csv

import numpy as np
import pytest

from spfactor import storage
from spfactor.sampler import ModelSpec, run_chain
from spfactor.storage import load_draws, merge_draws, save_draws, write_draws_csv

from conftest import gaussian_dataset


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
