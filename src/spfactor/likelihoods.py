"""Gaussian and binomial observation models and Polya-Gamma augmentation.

The binomial likelihood exp{theta*y - n*log(1+e^theta)} becomes a Gaussian
kernel in the linear predictor after augmenting with omega ~ PG(n, theta):
exp{-0.5*omega*(y* - theta)^2} with y* = (y - n/2)/omega.  PG(1, c) draws use
the exact alternating-series accept/reject sampler, with the constants that
depend on c computed once per cell and the series test taken in ratio form;
integer shapes sum independent unit-shape draws in one bincount pass.  The
accept/reject rounds run on index arrays: each random mask is turned into
positions once, every proposal is written out and later rounds overwrite the
rejected ones, which costs far less than boolean-mask indexing at these sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, log_ndtr, ndtri_exp

from .errors import NonPositiveVariance


@dataclass(frozen=True)
class LikelihoodSpec:
    family: str = "gaussian"  # "gaussian" (identity link) | "binomial" (logit link)

    def __post_init__(self):
        if self.family not in ("gaussian", "binomial"):
            raise ValueError(f"unknown likelihood family {self.family!r}")


# -- the observation model ------------------------------------------------------
#
# `nuisance` is the Gaussian variance sigma2, which broadcasts against theta
# (pass a per-cell vector as sigma2[None, :]), or the binomial trials n.


def linear_predictor(X: np.ndarray, beta: np.ndarray, eta: np.ndarray,
                     lam: np.ndarray) -> np.ndarray:
    """theta = X beta + eta Lambda^T for all visits at once.

    X is (T, N, p), beta (p,), eta (T, k) and lam (N, k); the result is
    (T, N).  With p = 0 the first term is zero.  beta (S, p), eta (S, T, k)
    and lam (S, N, k) give every draw's (S, T, N) at once, each equal to its
    own one-draw result.
    """
    return (X @ beta[..., None, :, None])[..., 0] + eta @ lam.mT


def log_density(family: str, y, theta, nuisance) -> np.ndarray:
    """Elementwise observation log density at the linear predictor theta.

    The binomial coefficient is included, so the values are proper log
    predictive densities.
    """
    if family == "gaussian":
        if np.any(nuisance <= 0):
            raise NonPositiveVariance("gaussian variance must be positive")
        return -0.5 * np.log(2.0 * np.pi * nuisance) - 0.5 * (y - theta) ** 2 / nuisance
    coef = gammaln(nuisance + 1) - gammaln(y + 1) - gammaln(nuisance - y + 1)
    return coef + theta * y - nuisance * np.logaddexp(0.0, theta)


def draw_observations(family: str, theta: np.ndarray, nuisance,
                      rng: np.random.Generator):
    """One observation per entry of theta: (values, probs), where probs are
    the binomial success probabilities and None for Gaussian data."""
    if family == "gaussian":
        return theta + rng.standard_normal(theta.shape) * np.sqrt(nuisance), None
    probs = 1.0 / (1.0 + np.exp(-theta))
    return rng.binomial(nuisance.astype(int), probs).astype(float), probs


# -- Polya-Gamma sampling ---------------------------------------------------
#
# PG(1, c) = J*(1, z) / 4 with z = |c|/2, where J* is the tilted Jacobi
# variable, drawn by Devroye's exact accept/reject (Polson, Scott & Windle
# 2013).  A proposal x comes from a truncated exponential on (0.64, inf) or a
# truncated inverse Gaussian on (0, 0.64).  z, the exponential rate fz and the
# branch weight depend on the cell only, so they are computed once per cell
# and indexed per unit draw.  The alternating-series test is divided by its
# first coefficient: a_n(x) / a_0(x) = (2n+1) exp(-g n(n+1)), with g = 2/x for
# x <= 0.64 and g = pi^2 x / 2 above (g is computed per proposal branch), and x
# is accepted iff U <= 1 - r_1 + r_2 - ..., decided at the first odd partial
# sum U falls below or the first even one it exceeds.  PG(b, c) for integer b
# sums b independent unit draws.

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
    """Inverse-Gaussian(mu=1/z, lambda=1) truncated to (0, TRUNC) for z >= 0.

    Each round writes every candidate to `out`; the rejected ones are
    overwritten by a later round.
    """
    t = _TRUNC
    out = np.empty_like(z)
    big = z < 1.0 / t  # mu > t: sample via the chi-square tail trick
    idx = big.nonzero()[0]
    neg_half_z2 = -(0.5 * z[idx] ** 2)
    while idx.size:
        e1 = rng.standard_exponential(idx.size)
        e2 = rng.standard_exponential(idx.size)
        ok = e1 ** 2 <= 2.0 * e2 / t
        cand = t / (1.0 + t * e1) ** 2
        alpha = np.exp(neg_half_z2 * cand)
        out[idx] = cand
        keep = (~(ok & (rng.uniform(size=idx.size) <= alpha))).nonzero()[0]
        idx, neg_half_z2 = idx[keep], neg_half_z2[keep]
    idx = (~big).nonzero()[0]
    mu = 1.0 / z[idx]
    while idx.size:
        ysq = rng.standard_normal(idx.size) ** 2
        cand = mu + 0.5 * mu * mu * ysq - 0.5 * mu * np.sqrt(4.0 * mu * ysq + (mu * ysq) ** 2)
        flip = (rng.uniform(size=idx.size) > mu / (mu + cand)).nonzero()[0]
        cand[flip] = mu[flip] ** 2 / cand[flip]
        out[idx] = cand
        keep = (~(cand <= t)).nonzero()[0]
        idx, mu = idx[keep], mu[keep]
    return out


def _series_rejects(g: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Ascending positions of the proposals that Devroye's alternating-series
    test rejects, given each proposal's exponent g and uniform u."""
    live = np.arange(g.size)  # the undecided proposals
    s = 1.0  # partial sums of a_n / a_0
    rejected = [live[:0]]
    n = 0
    while live.size:
        n += 1
        r = (2 * n + 1) * np.exp(-(n * (n + 1)) * g)
        if n % 2:
            s = s - r
            keep = (~(u <= s)).nonzero()[0]
        else:
            s = s + r
            done = u > s
            rejected.append(live[done])
            keep = (~done).nonzero()[0]
        live, g, u, s = live[keep], g[keep], u[keep], s[keep]
    return np.sort(np.concatenate(rejected))


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
    todo, ct = np.arange(cell.size), cell
    while todo.size:
        take_exp = rng.uniform(size=todo.size) < pexp[ct]
        ie, ii = take_exp.nonzero()[0], (~take_exp).nonzero()[0]
        xe = _TRUNC + rng.standard_exponential(ie.size) / fz[ct[ie]]
        xi = _rtinvgauss(z[ct[ii]], rng)
        # every inverse-Gaussian proposal is <= TRUNC; an exponential one
        # rounds to TRUNC when its draw is tiny against 1/fz
        g = np.empty(todo.size)
        g[ie] = np.where(xe <= _TRUNC, 2.0 / xe, 0.5 * np.pi ** 2 * xe)
        g[ii] = 2.0 / xi
        # write every proposal; later rounds overwrite the rejected ones
        unit[todo[ie]] = xe / 4.0
        unit[todo[ii]] = xi / 4.0
        todo = todo[_series_rejects(g, rng.uniform(size=todo.size))]
        ct = cell[todo]
    return np.bincount(cell, weights=unit, minlength=trials.size).reshape(c.shape)


def pg_mean(b, c):
    """E[PG(b, c)] = b/(2c) * tanh(c/2), with the c -> 0 limit b/4."""
    c = np.asarray(c, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        val = b / (2.0 * c) * np.tanh(c / 2.0)
    return np.where(c == 0, b / 4.0, val)


def pg_variance(b, c):
    """V[PG(b, c)] = b*(sinh(c) - c) / (4 c^3 cosh^2(c/2)), limit b/24 at c = 0.

    Evaluated as b*(2 tanh(c/2) - c sech^2(c/2)) / (4 c^3) with
    sech^2(c/2) = 4 e^-|c| / (1 + e^-|c|)^2, so nothing overflows at large |c|
    (where the variance tends to b / (2 |c|^3)).  That difference cancels as
    c -> 0, so below |c| = 0.1 the Taylor series in c^2 is used instead.
    """
    c = np.asarray(c, dtype=float)
    e = np.exp(-np.abs(c))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        c2 = c * c
        val = b * (2.0 * np.tanh(c / 2.0) - 4.0 * c * e / (1.0 + e) ** 2) / (4.0 * c ** 3)
        series = b * (1.0 / 24.0 + c2 * (-1.0 / 120.0 + c2 * (17.0 / 13440.0 + c2 * (
            -31.0 / 181440.0 + c2 * (691.0 / 31933440.0)))))
    return np.where(np.abs(c) < 0.1, series, val)


# -- truncated-normal helper used by the stick augmentation -------------------


def truncated_normal(mean: np.ndarray, positive: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
    """Unit-variance normals around `mean` truncated to a sign orthant.

    positive=True truncates to (0, inf), False to (-inf, 0).  Inverse-CDF in
    log space keeps the far tails exact.
    """
    mean = np.asarray(mean, dtype=float)
    log_u = np.log(rng.uniform(size=mean.shape))
    # z < 0: z = mean + ndtri(U * Phi(-mean)) computed in log space;
    # z > 0 by the mirror image of that construction
    sign = np.where(positive, -1.0, 1.0)
    return mean + sign * ndtri_exp(log_u + log_ndtr(-sign * mean))
