"""Posterior-draw storage, checkpointing, and deterministic serialization.

The binary container is a deliberately boring format: a magic header, a
JSON metadata block with sorted keys, then raw little-endian array bytes in
a fixed order.  Unlike zip-based formats it contains no timestamps, so the
same draws always serialize to the same bytes.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

_MAGIC = b"SPFACTOR\x00"
_FORMAT_VERSION = 2


@dataclass
class PosteriorDraws:
    """Retained post-burn-in states in column-addressable arrays.

    Stick weights are kept only as their sum over draws, the one form that
    clustering reads: ``weight_sum[j]`` is (n_cells, Lmax_j), each draw's
    closing-rule weights added in at its own truncation and zero beyond it,
    so every cell row sums to ``n_draws``.
    """

    family: str
    loadings_prior: str
    temporal_kernel: str
    times: np.ndarray
    m: int
    O: int
    k: int
    p: int
    iteration: np.ndarray          # (S,) 1-based sweep index
    chain: np.ndarray              # (S,) chain id
    beta: np.ndarray               # (S, p)
    eta: np.ndarray                # (S, T, k)
    lam: np.ndarray                # (S, n_cells, k)
    sigma2: np.ndarray             # (S, n_cells); zeros for binomial
    kappa: np.ndarray              # (S, O, O)
    upsilon: np.ndarray            # (S, k, k)
    delta: np.ndarray              # (S, k)
    rho: np.ndarray                # (S,)
    psi: np.ndarray                # (S,)
    xi: np.ndarray                 # (S, k, n_cells) int; zeros for non-PSBP
    weight_sum: list[np.ndarray]   # k arrays (n_cells, Lmax_j); empty for non-PSBP
    loglik: np.ndarray             # (n_obs_cells, S)
    obs_index: np.ndarray          # (n_obs_cells, 2) 0-based (t, cell)
    acceptance: dict = field(default_factory=dict)
    last_trials: np.ndarray | None = None  # (n_cells,) binomial: n at the last visit

    @property
    def n_draws(self) -> int:
        return self.rho.shape[0]

    @property
    def n_cells(self) -> int:
        return self.m * self.O

    @property
    def has_sticks(self) -> bool:
        return self.loadings_prior.startswith("psbp")


def merge_draws(parts: list[PosteriorDraws]) -> PosteriorDraws:
    """Concatenate chains and add their stick-weight sums; associative,
    ordered by the given list."""
    head = parts[0]
    if len(parts) == 1:
        return head

    def add_padded(sums):
        out = np.zeros((head.n_cells, max(w.shape[1] for w in sums)))
        for w in sums:
            out[:, :w.shape[1]] += w
        return out

    acc = {}
    for p in parts:
        for key, val in p.acceptance.items():
            acc.setdefault(key, []).append(val)
    acc = {k: float(np.mean(v)) for k, v in acc.items()}
    return PosteriorDraws(
        family=head.family, loadings_prior=head.loadings_prior,
        temporal_kernel=head.temporal_kernel, times=head.times,
        m=head.m, O=head.O, k=head.k, p=head.p,
        iteration=np.concatenate([p.iteration for p in parts]),
        chain=np.concatenate([p.chain for p in parts]),
        beta=np.concatenate([p.beta for p in parts]),
        eta=np.concatenate([p.eta for p in parts]),
        lam=np.concatenate([p.lam for p in parts]),
        sigma2=np.concatenate([p.sigma2 for p in parts]),
        kappa=np.concatenate([p.kappa for p in parts]),
        upsilon=np.concatenate([p.upsilon for p in parts]),
        delta=np.concatenate([p.delta for p in parts]),
        rho=np.concatenate([p.rho for p in parts]),
        psi=np.concatenate([p.psi for p in parts]),
        xi=np.concatenate([p.xi for p in parts]),
        weight_sum=[add_padded(sums) for sums in zip(*(p.weight_sum for p in parts))],
        loglik=np.concatenate([np.asarray(p.loglik) for p in parts], axis=1),
        obs_index=head.obs_index,
        acceptance=acc,
        last_trials=head.last_trials,
    )


# -- deterministic binary container ------------------------------------------


def _write_blob(fh, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    manifest = []
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        manifest.append({"name": name, "dtype": str(arr.dtype), "shape": list(arr.shape)})
    meta = dict(meta)
    meta["format_version"] = _FORMAT_VERSION
    meta["arrays"] = manifest
    head = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    fh.write(_MAGIC)
    fh.write(len(head).to_bytes(8, "little"))
    fh.write(head)
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        if arr.dtype.byteorder == ">":
            arr = arr.astype(arr.dtype.newbyteorder("<"))
        fh.write(arr.tobytes())


def _read_blob(fh) -> tuple[dict, dict[str, np.ndarray]]:
    magic = fh.read(len(_MAGIC))
    if magic != _MAGIC:
        raise ValueError("not an spfactor container")
    n = int.from_bytes(fh.read(8), "little")
    meta = json.loads(fh.read(n).decode())
    if meta.get("format_version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported container version {meta.get('format_version')}")
    arrays = {}
    for entry in meta["arrays"]:
        dtype = np.dtype(entry["dtype"])
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        buf = fh.read(count * dtype.itemsize)
        arrays[entry["name"]] = np.frombuffer(buf, dtype=dtype).reshape(shape).copy()
    meta.pop("arrays")
    meta.pop("format_version")
    return meta, arrays


def save_draws(path, draws: PosteriorDraws) -> None:
    meta = {
        "kind": "posterior_draws",
        "family": draws.family,
        "loadings_prior": draws.loadings_prior,
        "temporal_kernel": draws.temporal_kernel,
        "m": draws.m, "O": draws.O, "k": draws.k, "p": draws.p,
        "acceptance": {key: float(v) for key, v in draws.acceptance.items()},
    }
    arrays = {
        "times": draws.times, "iteration": draws.iteration, "chain": draws.chain,
        "beta": draws.beta, "eta": draws.eta, "lam": draws.lam,
        "sigma2": draws.sigma2, "kappa": draws.kappa, "upsilon": draws.upsilon,
        "delta": draws.delta, "rho": draws.rho, "psi": draws.psi,
        "xi": draws.xi, "loglik": np.asarray(draws.loglik),
        "obs_index": draws.obs_index,
        "last_trials": (draws.last_trials if draws.last_trials is not None
                        else np.zeros(0)),
    }
    for j, w in enumerate(draws.weight_sum):
        arrays[f"weight_sum_{j}"] = w
    with open(path, "wb") as fh:
        _write_blob(fh, meta, arrays)


def load_draws(path) -> PosteriorDraws:
    with open(path, "rb") as fh:
        meta, arrays = _read_blob(fh)
    if meta.get("kind") != "posterior_draws":
        raise ValueError("container does not hold posterior draws")
    weight_sum = [arrays[f"weight_sum_{j}"] for j in range(meta["k"])
                  if f"weight_sum_{j}" in arrays]
    last_trials = arrays.get("last_trials")
    if last_trials is not None and last_trials.size == 0:
        last_trials = None
    return PosteriorDraws(
        family=meta["family"], loadings_prior=meta["loadings_prior"],
        temporal_kernel=meta["temporal_kernel"], times=arrays["times"],
        m=meta["m"], O=meta["O"], k=meta["k"], p=meta["p"],
        iteration=arrays["iteration"], chain=arrays["chain"], beta=arrays["beta"],
        eta=arrays["eta"], lam=arrays["lam"], sigma2=arrays["sigma2"],
        kappa=arrays["kappa"], upsilon=arrays["upsilon"], delta=arrays["delta"],
        rho=arrays["rho"], psi=arrays["psi"], xi=arrays["xi"],
        weight_sum=weight_sum, loglik=arrays["loglik"], obs_index=arrays["obs_index"],
        acceptance=dict(meta["acceptance"]), last_trials=last_trials,
    )


def save_state_blob(path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as fh:
        _write_blob(fh, meta, arrays)


def load_state_blob(path) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        return _read_blob(fh)


# -- CSV export ----------------------------------------------------------------


def write_draws_csv(path, draws: PosteriorDraws) -> None:
    """One row per retained draw, one named column per scalar parameter.

    PSBP fits add each draw's allocations ``xi[j,cell]``.  Stick weights
    have no per-draw columns: only their sum over draws is kept, in
    ``draws.bin``.
    """
    S = draws.n_draws
    T = draws.times.size
    N = draws.n_cells
    header = ["chain", "iteration"]
    header += [f"beta[{i + 1}]" for i in range(draws.p)]
    header += [f"eta[{t + 1},{j + 1}]" for t in range(T) for j in range(draws.k)]
    header += [f"lam[{c + 1},{j + 1}]" for c in range(N) for j in range(draws.k)]
    if draws.family == "gaussian":
        header += [f"sigma2[{c + 1}]" for c in range(N)]
    header += [f"kappa[{a + 1},{b + 1}]" for a in range(draws.O) for b in range(draws.O)]
    header += [f"upsilon[{a + 1},{b + 1}]" for a in range(draws.k) for b in range(draws.k)]
    header += [f"delta[{h + 1}]" for h in range(draws.k)]
    header += ["rho", "psi"]
    if draws.has_sticks:
        header += [f"xi[{j + 1},{c + 1}]" for j in range(draws.k) for c in range(N)]
    floats = [draws.beta, draws.eta, draws.lam]
    if draws.family == "gaussian":
        floats.append(draws.sigma2)
    floats += [draws.kappa, draws.upsilon, draws.delta, draws.rho, draws.psi]
    # csv writes a Python float as its repr, which is data.format_float
    values = np.hstack([_by_draw(a, S).astype(float) for a in floats])
    ids = np.column_stack([draws.chain, draws.iteration]).astype(int).tolist()
    xi = _by_draw(draws.xi, S).tolist() if draws.has_sticks else [[]] * S
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(header)
        out.writerows(a + v.tolist() + x for a, v, x in zip(ids, values, xi))


def _by_draw(a: np.ndarray, S: int) -> np.ndarray:
    """`a` with one row per draw, the remaining axes flattened C-order."""
    return a.reshape(S, int(np.prod(a.shape[1:])))
