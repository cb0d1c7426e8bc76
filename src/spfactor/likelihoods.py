"""Gaussian and binomial observation models and Polya-Gamma augmentation.

The binomial likelihood exp{theta*y - n*log(1+e^theta)} becomes a Gaussian
kernel in the linear predictor after augmenting with omega ~ PG(n, theta):
exp{-0.5*omega*(y* - theta)^2} with y* = (y - n/2)/omega.  PG(1, c) draws use
the exact alternating-series accept/reject sampler, with the constants that
depend on c computed once per cell and the series test taken in ratio form;
integer shapes sum independent unit-shape draws in one bincount pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, log_ndtr, ndtri_exp

from .errors import (
    DimensionMismatch,
    NonPositiveOmega,
    NonPositiveVariance,
)


@dataclass(frozen=True)
class LikelihoodSpec:
    family: str = "gaussian"  # "gaussian" (identity link) | "binomial" (logit link)

    def __post_init__(self):
        if self.family not in ("gaussian", "binomial"):
            raise ValueError(f"unknown likelihood family {self.family!r}")

    @property
    def link(self) -> str:
        return "identity" if self.family == "gaussian" else "logit"


def linear_predictor(beta: np.ndarray, loadings: np.ndarray, eta_t: np.ndarray,
                     X_t: np.ndarray) -> np.ndarray:
    """theta_t = X_t beta + Lambda eta_t over the stacked cells."""
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    loadings = np.asarray(loadings, dtype=float)
    eta_t = np.atleast_1d(np.asarray(eta_t, dtype=float))
    X_t = np.asarray(X_t, dtype=float)
    n_cells = loadings.shape[0]
    if X_t.shape != (n_cells, beta.size):
        raise DimensionMismatch(f"X_t must be ({n_cells}, {beta.size}), got {X_t.shape}")
    if loadings.shape[1] != eta_t.size:
        raise DimensionMismatch("loadings columns must match eta length")
    out = loadings @ eta_t
    if beta.size:
        out = out + X_t @ beta
    return out


def log_likelihood(spec: LikelihoodSpec, y, theta_t, nuisance) -> float:
    """Sum of observation log densities at the linear predictor theta_t.

    Gaussian: nuisance is the variance sigma2 (scalar or per-cell).
    Binomial: nuisance is the trials n; the binomial coefficient is included
    so the values are proper log predictive densities.
    """
    y = np.asarray(y, dtype=float)
    theta_t = np.asarray(theta_t, dtype=float)
    if spec.family == "gaussian":
        sigma2 = np.broadcast_to(np.asarray(nuisance, dtype=float), y.shape)
        if np.any(sigma2 <= 0):
            raise NonPositiveVariance("gaussian variance must be positive")
        return float(np.sum(-0.5 * np.log(2.0 * np.pi * sigma2)
                            - 0.5 * (y - theta_t) ** 2 / sigma2))
    n = np.broadcast_to(np.asarray(nuisance, dtype=float), y.shape)
    return float(np.sum(binomial_log_pmf(y, n, theta_t)))


def binomial_log_pmf(y, n, theta) -> np.ndarray:
    """Elementwise log Binomial(n, expit(theta)) pmf at y."""
    y = np.asarray(y, dtype=float)
    n = np.asarray(n, dtype=float)
    theta = np.asarray(theta, dtype=float)
    coef = gammaln(n + 1) - gammaln(y + 1) - gammaln(n - y + 1)
    return coef + theta * y - n * np.logaddexp(0.0, theta)


def pg_transform(y, n, omega) -> tuple[np.ndarray, np.ndarray]:
    """chi = y - n/2 and working response ystar = chi / omega."""
    y = np.asarray(y, dtype=float)
    n = np.asarray(n, dtype=float)
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0):
        raise NonPositiveOmega("omega must be positive")
    chi = y - n / 2.0
    return chi, chi / omega


# -- Polya-Gamma sampling ---------------------------------------------------
#
# PG(1, c) = J*(1, z) / 4 with z = |c|/2, where J* is the tilted Jacobi
# variable, drawn by Devroye's exact accept/reject (Polson, Scott & Windle
# 2013).  A proposal x comes from a truncated exponential on (0.64, inf) or a
# truncated inverse Gaussian on (0, 0.64).  z, the exponential rate fz and the
# branch weight depend on the cell only, so they are computed once per cell
# and indexed per unit draw.  The alternating-series test is divided by its
# first coefficient: a_n(x) / a_0(x) = (2n+1) exp(-g n(n+1)), with g = 2/x for
# x <= 0.64 and g = pi^2 x / 2 above, and x is accepted iff
# U <= 1 - r_1 + r_2 - ..., decided at the first odd partial sum U falls
# below or the first even one it exceeds.  PG(b, c) for integer b sums b
# independent unit draws.

_TRUNC = 0.64


def _texpon_weight(z: np.ndarray, fz: np.ndarray) -> np.ndarray:
    """P(proposal comes from the truncated-exponential branch)."""
    t = _TRUNC
    b = np.sqrt(1.0 / t) * (t * z - 1.0)
    a = -np.sqrt(1.0 / t) * (t * z + 1.0)
    x0 = np.log(fz) + fz * t
    xb = x0 - z + log_ndtr(b)
    xa = x0 + z + log_ndtr(a)
    # exp(xb) overflows to inf once |c| reaches about 97; the weight is then 0,
    # the right limit, so only the warning is silenced
    with np.errstate(over="ignore"):
        qdivp = 4.0 / np.pi * (np.exp(xb) + np.exp(xa))
    return 1.0 / (1.0 + qdivp)


def _rtinvgauss(z: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Inverse-Gaussian(mu=1/z, lambda=1) truncated to (0, TRUNC) for z >= 0."""
    t = _TRUNC
    out = np.empty_like(z)
    big = z < 1.0 / t  # mu > t: sample via the chi-square tail trick
    half_z2 = 0.5 * z ** 2
    idx = np.flatnonzero(big)
    while idx.size:
        e1 = rng.standard_exponential(idx.size)
        e2 = rng.standard_exponential(idx.size)
        ok = e1 ** 2 <= 2.0 * e2 / t
        cand = t / (1.0 + t * e1) ** 2
        alpha = np.exp(-half_z2[idx] * cand)
        accept = ok & (rng.uniform(size=idx.size) <= alpha)
        out[idx[accept]] = cand[accept]
        idx = idx[~accept]
    inv_z = np.divide(1.0, z, out=np.zeros_like(z), where=~big)  # z may be 0 where big
    idx = np.flatnonzero(~big)
    while idx.size:
        mu = inv_z[idx]
        ysq = rng.standard_normal(idx.size) ** 2
        cand = mu + 0.5 * mu * mu * ysq - 0.5 * mu * np.sqrt(4.0 * mu * ysq + (mu * ysq) ** 2)
        flip = rng.uniform(size=idx.size) > mu / (mu + cand)
        cand[flip] = mu[flip] ** 2 / cand[flip]
        accept = cand <= t
        out[idx[accept]] = cand[accept]
        idx = idx[~accept]
    return out


def _series_accepts(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Devroye's alternating-series test of proposals x against uniforms u."""
    g = np.where(x <= _TRUNC, 2.0 / x, 0.5 * np.pi ** 2 * x)
    accepted = np.zeros(x.size, dtype=bool)
    live = np.arange(x.size)
    s = np.ones(x.size)
    n = 0
    while live.size:
        n += 1
        r = (2 * n + 1) * np.exp(-(n * (n + 1)) * g)
        if n % 2:
            s = s - r
            done = u <= s
            accepted[live[done]] = True
        else:
            s = s + r
            done = u > s
        keep = ~done
        live, g, u, s = live[keep], g[keep], u[keep], s[keep]
    return accepted


def pg_sample(b: int, c: float, rng: np.random.Generator) -> float:
    """One exact PG(b, c) draw for integer b >= 0; b = 0 gives an exact 0."""
    return float(pg_sample_array(b, c, rng))


def pg_sample_array(b, c, rng: np.random.Generator) -> np.ndarray:
    """Elementwise exact PG(b_i, c_i) draws for integers b_i >= 0.

    b broadcasts to the shape of c; b_i = 0 gives an exact 0.  Raises
    ValueError for a negative or non-integer b_i.
    """
    c = np.asarray(c, dtype=float)
    b = np.broadcast_to(np.asarray(b), c.shape).ravel()
    with np.errstate(invalid="ignore"):
        trials = b.astype(np.int64)
    if np.any(trials != b) or np.any(trials < 0):
        raise ValueError("b must be nonnegative integers")
    z = np.abs(c.ravel()) / 2.0
    fz = np.pi ** 2 / 8.0 + z ** 2 / 2.0
    pexp = _texpon_weight(z, fz)
    cell = np.repeat(np.arange(trials.size), trials)
    unit = np.empty(cell.size)
    todo = np.arange(cell.size)
    while todo.size:
        ct = cell[todo]
        take_exp = rng.uniform(size=todo.size) < pexp[ct]
        x = np.empty(todo.size)
        x[take_exp] = _TRUNC + rng.standard_exponential(take_exp.sum()) / fz[ct[take_exp]]
        x[~take_exp] = _rtinvgauss(z[ct[~take_exp]], rng)
        accepted = _series_accepts(x, rng.uniform(size=todo.size))
        unit[todo[accepted]] = x[accepted] / 4.0
        todo = todo[~accepted]
    return np.bincount(cell, weights=unit, minlength=trials.size).reshape(c.shape)


def pg_mean(b, c):
    """E[PG(b, c)] = b/(2c) * tanh(c/2), with the c -> 0 limit b/4."""
    c = np.asarray(c, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        val = b / (2.0 * c) * np.tanh(c / 2.0)
    return np.where(c == 0, b / 4.0, val)


def pg_variance(b, c):
    """V[PG(b, c)] = b*(sinh(c) - c) / (4 c^3 cosh^2(c/2)), limit b/24 at c = 0."""
    c = np.asarray(c, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        val = b * (np.sinh(c) - c) / (4.0 * c ** 3 * np.cosh(c / 2.0) ** 2)
    return np.where(c == 0, b / 24.0, val)


# -- truncated-normal helper used by the stick augmentation -------------------


def truncated_normal(mean: np.ndarray, positive: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
    """Unit-variance normals around `mean` truncated to a sign orthant.

    positive=True truncates to (0, inf), False to (-inf, 0).  Inverse-CDF in
    log space keeps the far tails exact.
    """
    mean = np.asarray(mean, dtype=float)
    log_u = np.log(rng.uniform(size=mean.shape))
    out = np.empty_like(mean)
    neg = ~positive
    # z < 0: z = mean + ndtri(U * Phi(-mean)) computed in log space
    out[neg] = mean[neg] + ndtri_exp(log_u[neg] + log_ndtr(-mean[neg]))
    # z > 0 by symmetry of the negative-branch construction
    out[positive] = mean[positive] - ndtri_exp(log_u[positive] + log_ndtr(mean[positive]))
    return out
