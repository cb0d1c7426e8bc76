"""Posterior-draw storage, checkpointing, and deterministic serialization.

The binary container is a deliberately boring format: a magic header, a
JSON metadata block with sorted keys, then raw little-endian array bytes in
a fixed order.  Unlike zip-based formats it contains no timestamps, so the
same draws always serialize to the same bytes.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

_MAGIC = b"SPFACTOR\x00"
_FORMAT_VERSION = 2

# The scalar header of PosteriorDraws, kept in the container's metadata block.
HEADER_FIELDS = ("family", "loadings_prior", "temporal_kernel", "m", "O", "k", "p")
# The arrays with one entry per retained draw (leading axis S), in the order
# the container stores them: after `times`, before `loglik`.
DRAW_FIELDS = ("iteration", "chain", "beta", "eta", "lam", "sigma2", "kappa",
               "upsilon", "delta", "rho", "psi", "xi")


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
    return dataclasses.replace(
        head,
        **{name: np.concatenate([getattr(p, name) for p in parts])
           for name in DRAW_FIELDS},
        weight_sum=[add_padded(sums) for sums in zip(*(p.weight_sum for p in parts))],
        loglik=np.concatenate([np.asarray(p.loglik) for p in parts], axis=1),
        acceptance={k: float(np.mean(v)) for k, v in acc.items()},
    )


# -- deterministic binary container ------------------------------------------


def write_container(path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write `meta` and `arrays`, in the given order, to the file `path`."""
    arrays = {name: np.ascontiguousarray(arr) for name, arr in arrays.items()}
    arrays = {name: arr.astype(arr.dtype.newbyteorder("<"), copy=False)
              for name, arr in arrays.items()}
    meta = dict(meta, format_version=_FORMAT_VERSION, arrays=[
        {"name": name, "dtype": str(arr.dtype), "shape": list(arr.shape)}
        for name, arr in arrays.items()])
    head = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(len(head).to_bytes(8, "little"))
        fh.write(head)
        for arr in arrays.values():
            fh.write(arr.tobytes())


def read_container(path) -> tuple[dict, dict[str, np.ndarray]]:
    """The (meta, arrays) pair that `write_container` wrote to `path`."""
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise ValueError("not an spfactor container")
        n = int.from_bytes(fh.read(8), "little")
        meta = json.loads(fh.read(n).decode())
        if meta.get("format_version") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported container version {meta.get('format_version')}")
        arrays = {}
        for entry in meta.pop("arrays"):
            dtype, shape = np.dtype(entry["dtype"]), tuple(entry["shape"])
            buf = fh.read(math.prod(shape) * dtype.itemsize)
            arrays[entry["name"]] = np.frombuffer(buf, dtype=dtype).reshape(shape).copy()
    meta.pop("format_version")
    return meta, arrays


def save_draws(path, draws: PosteriorDraws) -> None:
    meta = {name: getattr(draws, name) for name in HEADER_FIELDS}
    meta["kind"] = "posterior_draws"
    meta["acceptance"] = {key: float(v) for key, v in draws.acceptance.items()}
    arrays = {"times": draws.times}
    arrays.update((name, getattr(draws, name)) for name in DRAW_FIELDS)
    arrays["loglik"] = np.asarray(draws.loglik)
    arrays["obs_index"] = draws.obs_index
    arrays["last_trials"] = (draws.last_trials if draws.last_trials is not None
                             else np.zeros(0))
    for j, w in enumerate(draws.weight_sum):
        arrays[f"weight_sum_{j}"] = w
    write_container(path, meta, arrays)


def load_draws(path) -> PosteriorDraws:
    meta, arrays = read_container(path)
    if meta.pop("kind", None) != "posterior_draws":
        raise ValueError("container does not hold posterior draws")
    weight_sum = [arrays.pop(f"weight_sum_{j}") for j in range(meta["k"])
                  if f"weight_sum_{j}" in arrays]
    last_trials = arrays.pop("last_trials")
    return PosteriorDraws(**meta, **arrays, weight_sum=weight_sum,
                          last_trials=last_trials if last_trials.size else None)


# -- CSV export ----------------------------------------------------------------


def write_draws_csv(path, draws: PosteriorDraws) -> None:
    """One row per retained draw, one named column per scalar parameter.

    The `chain, iteration` ids come first, then the remaining per-draw
    arrays in container order; an array entry is named ``name[i,j,...]``,
    1-based and in C order, a scalar ``name``.  Integer arrays (the ids and
    `xi`) are written as integers.  `sigma2` is written only for Gaussian
    fits and the allocations `xi` only for PSBP fits.  Stick weights
    have no per-draw columns: only their sum over draws is kept, in
    ``draws.bin``.
    """
    ids = ["chain", "iteration"]
    names = ids + [n for n in DRAW_FIELDS if n not in ids
                   and (n != "sigma2" or draws.family == "gaussian")
                   and (n != "xi" or draws.has_sticks)]
    arrays = [getattr(draws, name) for name in names]
    S = draws.n_draws
    widths = [math.prod(a.shape[1:]) for a in arrays]
    blocks = [a.reshape(S, n) for a, n in zip(arrays, widths) if n]  # p = 0: no beta
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow([col for name, a in zip(names, arrays)
                      for col in _column_names(name, a.shape[1:])])
        # row by row, so only one row of Python numbers is alive at a time;
        # each number as csv.writer writes it: its repr, never quoted (for a
        # float that is data.format_float)
        for s in range(S):
            fh.write(",".join([",".join(map(repr, b[s].tolist())) for b in blocks]) + "\r\n")


def _column_names(name: str, shape: tuple) -> list[str]:
    """``name[i,j,...]`` per entry of an array of `shape`, 1-based and in C
    order; a bare ``name`` for a scalar."""
    if not shape:
        return [name]
    return [f"{name}[{','.join(str(i + 1) for i in idx)}]" for idx in np.ndindex(shape)]
