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
import scipy.linalg as sla

from .errors import DimensionMismatch, NonPositiveDefinite
from .kernels import TemporalKernelSpec, temporal_correlation
from .likelihoods import draw_observations, linear_predictor
from .storage import PosteriorDraws


@dataclass
class PPDRequest:
    """What to predict: strictly-increasing times after the last visit, the
    covariate rows for those visits, and the draws to compose over."""

    new_times: np.ndarray
    draws: PosteriorDraws
    new_covariates: np.ndarray | None = None  # (Q, n_cells, p)
    new_trials: np.ndarray | None = None      # (Q, n_cells), binomial only

    def __post_init__(self):
        self.new_times = np.atleast_1d(np.asarray(self.new_times, dtype=float))
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


def _conditional_temporal_parts(eta: np.ndarray, psi: float, kernel_kind: str,
                                times: np.ndarray, new_times: np.ndarray
                                ) -> tuple[np.ndarray, np.ndarray]:
    """Mean (Q, k) of the new factors and the temporal conditional H* (Q, Q)."""
    times = np.asarray(times, dtype=float)
    new_times = np.atleast_1d(np.asarray(new_times, dtype=float))
    if np.any(new_times <= times[-1]):
        raise ValueError("new times must be strictly after the last visit")
    allt = np.concatenate([times, new_times])
    H = temporal_correlation(TemporalKernelSpec(kernel_kind, psi), allt)[0]
    T = times.size
    H_oo = H[:T, :T]
    H_no = H[T:, :T]
    H_nn = H[T:, T:]
    try:
        cho = sla.cho_factor(H_oo, lower=True)
    except np.linalg.LinAlgError:
        raise NonPositiveDefinite("in-sample temporal correlation is singular")
    H_plus = sla.cho_solve(cho, H_no.T).T          # (Q, T) = H[new,old] H[old,old]^-1
    mean = H_plus @ eta                            # (Q, k)
    H_star = H_nn - H_plus @ H_no.T                # (Q, Q)
    return mean, 0.5 * (H_star + H_star.T)


def conditional_factor_moments(eta: np.ndarray, upsilon: np.ndarray, psi: float,
                               kernel_kind: str, times: np.ndarray,
                               new_times: np.ndarray
                               ) -> tuple[np.ndarray, np.ndarray]:
    """Conditional Gaussian moments of the factors at the new times.

    Returns the mean as a (Q, k) matrix (rows are new visits) and the full
    (Qk, Qk) covariance H* (x) Upsilon of its row-major flattening, where
    H+ = H[new,old] H[old,old]^-1 and H* = H[new,new] - H+ H[old,new].
    """
    mean, H_star = _conditional_temporal_parts(eta, psi, kernel_kind, times,
                                               new_times)
    return mean, np.kron(H_star, np.asarray(upsilon, dtype=float))


def _draw_rng(seed: int, iteration: int, chain: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), int(chain), int(iteration)]))


def ppd_sample(request: PPDRequest, seed: int = 0):
    """Composition-sample the posterior predictive at the requested times.

    Returns (values, probs): values is (S, Q, n_cells); probs carries the
    success probabilities for the binomial family and is None for Gaussian.
    """
    draws = request.draws
    S = draws.n_draws
    Q = request.new_times.size
    N = draws.n_cells
    values = np.empty((S, Q, N))
    probs = np.empty((S, Q, N)) if draws.family == "binomial" else None
    if draws.family == "binomial":
        if request.new_trials is None:
            # default future totals to the last observed visit's
            base = draws.last_trials if draws.last_trials is not None else np.ones(N)
            trials = np.tile(base, (Q, 1))
        else:
            trials = np.asarray(request.new_trials, dtype=float)
            if trials.shape != (Q, N):
                raise DimensionMismatch(f"new_trials must be ({Q}, {N})")
    for s in range(S):
        rng = _draw_rng(seed, draws.iteration[s], draws.chain[s])
        mean, H_star = _conditional_temporal_parts(
            draws.eta[s], float(draws.psi[s]),
            draws.temporal_kernel, draws.times, request.new_times)
        jitter = 1e-12 * np.eye(Q)
        cho_t = np.linalg.cholesky(H_star + jitter)
        cho_u = np.linalg.cholesky(draws.upsilon[s])
        eta_new = mean + cho_t @ rng.standard_normal((Q, draws.k)) @ cho_u.T
        theta = linear_predictor(request.new_covariates, draws.beta[s], eta_new,
                                 draws.lam[s])
        nuisance = draws.sigma2[s][None, :] if probs is None else trials
        values[s], pi = draw_observations(draws.family, theta, nuisance, rng)
        if probs is not None:
            probs[s] = pi
    return values, probs
