"""Posterior predictive sampling at future time points by composition.

For each retained draw the latent factors at the new times are Gaussian given
the in-sample factors (conditional of the joint H(psi) (x) Upsilon prior),
after which the observation model emits new data.  Draw-level rng substreams
are keyed to each draw's original sweep index, so reordering the retained
draws permutes the output without changing any marginal summary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrs

from .errors import DimensionMismatch, NonPositiveDefinite
from .kernels import _cho_lower, temporal_correlation_stack
from .likelihoods import draw_observations, linear_predictor
from .storage import PosteriorDraws


@dataclass
class PPDRequest:
    """What to predict: strictly-increasing times after the last visit, the
    covariate rows for those visits, the binomial totals, and the draws to
    compose over.  Binomial totals default to the last observed visit's."""

    new_times: np.ndarray
    draws: PosteriorDraws
    new_covariates: np.ndarray | None = None  # (Q, n_cells, p)
    new_trials: np.ndarray | None = None      # (Q, n_cells), binomial only

    def __post_init__(self):
        self.new_times = np.atleast_1d(np.asarray(self.new_times, dtype=float))
        if self.new_times.size == 0:
            raise ValueError("need at least one new time")
        if not np.isfinite(self.new_times).all():
            raise ValueError("new times must be finite")
        t_last = float(self.draws.times[-1])
        if np.any(self.new_times <= t_last):
            raise ValueError("new times must be strictly after the last visit")
        if self.new_times.size > 1 and np.any(np.diff(self.new_times) <= 0):
            raise ValueError("new times must be strictly increasing")
        N = self.draws.n_cells
        Q = self.new_times.size
        p = self.draws.p
        if self.new_covariates is None:
            self.new_covariates = np.zeros((Q, N, p))
        else:
            self.new_covariates = np.asarray(self.new_covariates, dtype=float)
            if self.new_covariates.shape != (Q, N, p):
                raise DimensionMismatch(
                    f"new_covariates must be ({Q}, {N}, {p})")
        if self.draws.family != "binomial":
            return
        if self.new_trials is None:
            last = self.draws.last_trials
            self.new_trials = np.tile(np.ones(N) if last is None else last, (Q, 1))
            return
        trials = np.asarray(self.new_trials, dtype=float)
        if trials.shape != (Q, N):
            raise DimensionMismatch(f"new_trials must be ({Q}, {N})")
        with np.errstate(invalid="ignore"):
            whole = trials.astype(np.int64)
        if np.any(whole != trials) or np.any(whole < 0):
            raise ValueError("new_trials must be nonnegative integers")
        self.new_trials = trials


def _conditional_moments(eta: np.ndarray, psi: np.ndarray, kernel_kind: str,
                         times: np.ndarray, new_times: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Per draw s: the mean (S, Q, k) of the new factors given eta[s] and the
    temporal conditional H*(psi[s]) (S, Q, Q), where H+ = H[new,old]
    H[old,old]^-1 and H* = H[new,new] - H+ H[old,new].

    H[old,old] is factored and solved by LAPACK's potrf and potrs, the calls
    of `scipy.linalg.cho_factor` and `cho_solve`.
    """
    times = np.asarray(times, dtype=float)
    new_times = np.atleast_1d(np.asarray(new_times, dtype=float))
    if np.any(new_times <= times[-1]):
        raise ValueError("new times must be strictly after the last visit")
    H = temporal_correlation_stack(kernel_kind, psi, np.concatenate([times, new_times]))
    T = times.size
    H_plus = np.empty((H.shape[0], new_times.size, T))
    for s in range(H.shape[0]):
        try:
            cho = _cho_lower(H[s, :T, :T])
        except np.linalg.LinAlgError:
            raise NonPositiveDefinite("in-sample temporal correlation is singular")
        H_plus[s] = dpotrs(cho, H[s, T:, :T].T, lower=1)[0].T
    H_star = H[:, T:, T:] - H_plus @ H[:, T:, :T].transpose(0, 2, 1)
    return H_plus @ eta, 0.5 * (H_star + H_star.transpose(0, 2, 1))


def conditional_factor_moments(eta: np.ndarray, upsilon: np.ndarray, psi: float,
                               kernel_kind: str, times: np.ndarray,
                               new_times: np.ndarray
                               ) -> tuple[np.ndarray, np.ndarray]:
    """Conditional Gaussian moments of the factors at the new times.

    Returns the mean as a (Q, k) matrix (rows are new visits) and the full
    (Qk, Qk) covariance H* (x) Upsilon of its row-major flattening (the
    one-draw case of `_conditional_moments`).
    """
    mean, H_star = _conditional_moments(np.asarray(eta, dtype=float)[None],
                                        np.array([psi], dtype=float), kernel_kind,
                                        times, new_times)
    return mean[0], np.kron(H_star[0], np.asarray(upsilon, dtype=float))


def _draw_rng(seed: int, iteration: int, chain: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), int(chain), int(iteration)]))


def ppd_sample(request: PPDRequest, seed: int = 0):
    """Composition-sample the posterior predictive at the requested times.

    Returns (values, probs): values is (S, Q, n_cells); probs carries the
    success probabilities for the binomial family and is None for Gaussian.
    Every draw's moments come from one batched pass; draw s then reads its
    own generator for the (Q, k) factor normals, then the observation noise.
    """
    draws = request.draws
    Q = request.new_times.size
    mean, H_star = _conditional_moments(draws.eta, draws.psi, draws.temporal_kernel,
                                        draws.times, request.new_times)
    cho_t = np.linalg.cholesky(H_star + 1e-12 * np.eye(Q))
    cho_u = np.linalg.cholesky(draws.upsilon)
    rngs = [_draw_rng(seed, it, ch) for it, ch in zip(draws.iteration, draws.chain)]
    z = np.empty((draws.n_draws, Q, draws.k))
    for s, rng in enumerate(rngs):
        rng.standard_normal(out=z[s])
    eta_new = mean + cho_t @ z @ cho_u.transpose(0, 2, 1)
    theta = linear_predictor(request.new_covariates, draws.beta, eta_new, draws.lam)
    values = np.empty_like(theta)
    probs = None if draws.family == "gaussian" else np.empty_like(theta)
    for s, rng in enumerate(rngs):
        nuisance = draws.sigma2[s][None, :] if probs is None else request.new_trials
        values[s], pi = draw_observations(draws.family, theta[s], nuisance, rng)
        if probs is not None:
            probs[s] = pi
    return values, probs
