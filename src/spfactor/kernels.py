"""Spatial and temporal correlation matrices and the temporal-range bounds.

Spatial: a proper CAR on areal data, F(rho)^-1 = D_w - rho*W, or an
exponential Gaussian-process kernel on point data, F(rho) = exp(-rho*D).
Temporal: AR(1)-type H[t,t'] = psi^|x_t - x_t'| or exponential
H[t,t'] = exp(-psi*|x_t - x_t'|).  The exponential kernel uses a decaying
exponent so that entries stay in (0, 1]; a growing exponent cannot be a
correlation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dpotrf

from .data import SpatialStructure
from .errors import (
    DuplicateTimes,
    KindMismatch,
    NonPositiveDefinite,
    SingularPrecision,
)

log = logging.getLogger(__name__)

_JITTER = 1e-10


@dataclass(frozen=True)
class SpatialKernelSpec:
    kind: str  # "car" | "exponential-gp"
    rho: float

    def __post_init__(self):
        if self.kind == "car":
            if not 0 <= self.rho < 1:
                raise ValueError("car kernel requires 0 <= rho < 1")
        elif self.kind == "exponential-gp":
            if not self.rho > 0:
                raise ValueError("exponential-gp kernel requires rho > 0")
        else:
            raise ValueError(f"unknown spatial kernel {self.kind!r}")


@dataclass(frozen=True)
class TemporalKernelSpec:
    kind: str  # "ar1" | "exponential"
    psi: float

    def __post_init__(self):
        if self.kind == "ar1":
            if not abs(self.psi) < 1:
                raise ValueError("ar1 kernel requires |psi| < 1")
        elif self.kind == "exponential":
            if not self.psi > 0:
                raise ValueError("exponential kernel requires psi > 0")
        else:
            raise ValueError(f"unknown temporal kernel {self.kind!r}")


def _check_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def _cho_lower(P: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of P (upper triangle zeroed), as
    `scipy.linalg.cholesky(P, lower=True)` computes it."""
    _check_finite(P)
    c, info = dpotrf(P, lower=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    return c


def _check_spd(mat: np.ndarray, err: type[Exception],
               what: str) -> tuple[np.ndarray, np.ndarray]:
    """Return (mat, its lower Cholesky factor), with a one-shot diagonal jitter
    retry on factorization failure (then both are the jittered matrix's)."""
    try:
        return mat, np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        pass
    jittered = mat + _JITTER * np.eye(mat.shape[0])
    try:
        factor = np.linalg.cholesky(jittered)
    except np.linalg.LinAlgError:
        raise err(f"{what} is not positive-definite")
    log.warning("%s required a %g diagonal jitter to factorize", what, _JITTER)
    return jittered, factor


def spatial_correlation(spec: SpatialKernelSpec,
                        structure: SpatialStructure) -> tuple[np.ndarray, np.ndarray]:
    """Build the m x m spatial correlation matrix F(rho); returns (F, its lower
    Cholesky factor)."""
    if spec.kind == "car":
        if structure.kind != "areal":
            raise KindMismatch("car kernel needs areal structure")
        W = structure.adjacency
        Dw = np.diag(structure.neighbour_counts)
        _, factor = _check_spd(Dw - spec.rho * W, SingularPrecision,
                               "CAR precision D_w - rho*W")
        F = sla.cho_solve((factor, True), np.eye(W.shape[0]))
        return _check_spd(0.5 * (F + F.T), SingularPrecision, "CAR correlation")
    if structure.kind != "point":
        raise KindMismatch("exponential-gp kernel needs point structure")
    F = np.exp(-spec.rho * structure.distances)
    return _check_spd(F, NonPositiveDefinite, "exponential spatial correlation")


def _temporal_matrices(kind: str, psi, times: np.ndarray) -> np.ndarray:
    """H(psi_s) for every entry of `psi` as one (S, T, T) stack, after
    checking that the times are strictly increasing and that no
    off-diagonal entry is 1."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError("times must be a vector")
    if times.size > 1 and np.any(np.diff(times) <= 0):
        raise DuplicateTimes("times must be strictly increasing")
    gaps = np.abs(times[:, None] - times[None, :])
    psi = np.asarray(psi, dtype=float)[:, None, None]
    if kind == "ar1":
        with np.errstate(invalid="raise"):
            try:
                H = np.power(psi, gaps)
            except FloatingPointError:
                raise NonPositiveDefinite(
                    "ar1 kernel with negative psi is undefined for non-integer gaps")
    else:
        H = np.exp(-psi * gaps)
    diagonal = H.reshape(len(H), times.size ** 2)[:, ::times.size + 1]
    diagonal[:] = 0.0
    if times.size > 1 and np.abs(H).max() >= 1.0:
        raise NonPositiveDefinite(
            "degenerate temporal correlation: unit off-diagonal entries")
    diagonal[:] = 1.0
    return H


def temporal_correlation(spec: TemporalKernelSpec,
                         times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Build the T x T temporal correlation matrix H(psi); returns (H, its lower
    Cholesky factor)."""
    H = _temporal_matrices(spec.kind, [spec.psi], times)[0]
    return _check_spd(H, NonPositiveDefinite, "temporal correlation H(psi)")


def temporal_correlation_stack(kind: str, psi: np.ndarray,
                               times: np.ndarray) -> np.ndarray:
    """H(psi_s) for every entry of `psi` as one (S, T, T) stack, each matrix
    the one `temporal_correlation` returns.  One batched Cholesky checks
    that all are positive-definite; only if it fails does each matrix take
    `_check_spd`'s jitter retry."""
    for value in psi:
        TemporalKernelSpec(kind, float(value))
    H = _temporal_matrices(kind, psi, times)
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        for s in range(H.shape[0]):
            H[s] = _check_spd(H[s], NonPositiveDefinite, "temporal correlation H(psi)")[0]
    return H


def psi_bounds(times: np.ndarray) -> tuple[float, float]:
    """Uniform-prior bounds for the exponential temporal kernel.

    Lower bound keeps correlation 0.95 across the maximum gap; upper bound
    drops it to 0.01 across the minimum gap, so the prior spans the temporal
    range of the data.
    """
    times = np.asarray(times, dtype=float)
    if times.size < 2:
        raise DuplicateTimes("need at least two times")
    gaps = np.diff(np.sort(times))
    if np.any(gaps == 0):
        raise DuplicateTimes("repeated time values give a zero minimum gap")
    max_gap = float(times.max() - times.min())
    min_gap = float(gaps.min())
    a = -np.log(0.95) / max_gap
    b = -np.log(0.01) / min_gap
    return a, b
