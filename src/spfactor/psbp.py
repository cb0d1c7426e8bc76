"""Probit stick-breaking machinery for the factor-loading columns.

Each loading column j carries a discrete mixture over atoms theta_{jl} whose
weights are built from probit transforms of Gaussian stick variables
alpha_{jl}(s): w_l(s) = Phi(alpha_l(s)) * prod_{r<l} (1 - Phi(alpha_r(s))).
A multiplicative gamma process shrinks the atom scales across columns so
later factors collapse toward zero.  The closed-form first and second stick
moments here serve as oracles for the process variance and the marginal
moments of the observed data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import DegenerateDenominator, IndicatorOutOfRange


@dataclass
class MgpState:
    """Column-shrinkage gammas: tau_j = prod_{h<=j} delta_h (multiplicative mode)."""

    delta: np.ndarray  # (k,) positive
    multiplicative: bool = True

    def __post_init__(self):
        self.delta = np.asarray(self.delta, dtype=float)
        if np.any(self.delta <= 0):
            raise ValueError("delta entries must be positive")

    def precisions(self) -> np.ndarray:
        """Column precisions tau_1..tau_k; cumulative products in multiplicative mode."""
        if self.multiplicative:
            return np.cumprod(self.delta)
        return self.delta.copy()


@dataclass
class StickState:
    """Per-column stick-breaking state over all mO cells.

    Column j has L[j] = theta[j].size components.  In finite mode they are
    backed by L[j]-1 stick variables and the leftover-mass closing rule.  In
    slice mode all L[j] components are real sticks and L[j] = max(xi[j]); the
    sticks past it stay at their prior and are regrown inside each sweep.

    alpha[j]: (n_sticks_j, n_cells); theta[j]: (L_j,);
    xi: (k, n_cells) int, 1-based component indicators.  The slice variables
    and latent probits are drawn afresh inside each column update.
    """

    alpha: list[np.ndarray]
    theta: list[np.ndarray]
    xi: np.ndarray

    @property
    def L(self) -> np.ndarray:
        """Components per column: the atom counts."""
        return np.array([t.size for t in self.theta])

    @property
    def k(self) -> int:
        return self.xi.shape[0]

    @property
    def n_cells(self) -> int:
        return self.xi.shape[1]


def stick_weights(alpha_col: np.ndarray) -> np.ndarray:
    """Weights from one stick vector: length L from L-1 sticks, summing to one.

    w_l = Phi(alpha_l) * prod_{r<l} (1 - Phi(alpha_r)) for l < L; the final
    weight takes the remaining mass, so the telescoped sum is exactly one.
    """
    alpha_col = np.asarray(alpha_col, dtype=float)
    v = ndtr(alpha_col)
    w = np.empty(alpha_col.size + 1)
    remaining = 1.0
    for l, vl in enumerate(v):
        w[l] = vl * remaining
        remaining -= w[l]
    w[-1] = remaining
    return w


def stick_weights_matrix(alpha: np.ndarray, closing: bool = True) -> np.ndarray:
    """Vectorized stick weights over cells: alpha (n_sticks, n_cells).

    With `closing` the result has n_sticks+1 rows and columns sum to one;
    without it each stick row is the raw probit stick-breaking weight
    (slice mode, where the tail stays open).
    """
    alpha = np.atleast_2d(np.asarray(alpha, dtype=float))
    n = alpha.shape[0]
    w = np.empty((n + closing, alpha.shape[1]))
    ndtr(alpha, out=w[:n])
    # mass left after each stick: prod_{r<=l} (1 - Phi(alpha_r))
    left = np.cumprod(1.0 - w[:n], axis=0)
    if closing:
        w[n] = left[-1] if n else 1.0
    w[1:n] *= left[:-1]
    return w


def loadings_from_atoms(state: StickState) -> np.ndarray:
    """Loading matrix (n_cells, k): lambda_j(s) = theta_{j, xi_j(s)}."""
    lam = np.empty((state.n_cells, state.k))
    for j in range(state.k):
        xi = state.xi[j]
        if np.any(xi < 1) or np.any(xi > state.theta[j].size):
            raise IndicatorOutOfRange(
                f"column {j + 1} has indicators outside 1..{state.theta[j].size}")
        lam[:, j] = state.theta[j][xi - 1]
    return lam


# -- stick moments and process/marginal moment formulas ------------------------


def beta_moment_1(mu: float, sigma2: float) -> float:
    """E[Phi(alpha)] for alpha ~ N(mu, sigma2): Phi(mu / sqrt(1 + sigma2))."""
    if sigma2 < 0:
        raise ValueError("sigma2 must be nonnegative")
    return float(ndtr(mu / np.sqrt(1.0 + sigma2)))


def beta_moment_2(mu, cov) -> float:
    """E[Phi(alpha) Phi(alpha')] as the orthant probability P(T1>0, T2>0),
    (T1, T2) ~ N(mu, cov + I); same-cell second moments use cov = [[s2,s2],[s2,s2]].

    Deterministic adaptive quadrature, accurate to well below 1e-8.
    """
    # imported here: the sampler never calls this oracle, and the two
    # modules would add about a second to every process's import
    from scipy.integrate import quad
    from scipy.stats import norm

    mu = np.asarray(mu, dtype=float).reshape(2)
    C = np.asarray(cov, dtype=float).reshape(2, 2) + np.eye(2)
    s1 = np.sqrt(C[0, 0])
    cond_var = C[1, 1] - C[0, 1] ** 2 / C[0, 0]
    cond_sd = np.sqrt(cond_var)
    slope = C[0, 1] / C[0, 0]

    def integrand(t):
        # t is the standardized T1; T2 | T1 is Gaussian
        cond_mean = mu[1] + slope * s1 * t
        return norm.pdf(t) * ndtr(cond_mean / cond_sd)

    lo = -mu[0] / s1
    val, _ = quad(integrand, lo, np.inf, epsabs=1e-12, epsrel=1e-12, limit=200)
    return float(val)


def _stick_bracket(b1: float, b1p: float, beta2: float, L) -> float:
    """beta2 * (1 - (1 - b1 - b1' + beta2)^L) / (b1 + b1' - beta2): the
    shared-atom moment of two cells' weights summed over L components, with
    b1, b1' the cells' stick means and beta2 their cross moment; L = inf
    gives the limit."""
    pair = b1 + b1p
    denom = pair - beta2
    if denom <= 0:
        raise DegenerateDenominator("requires beta1 + beta1' > beta2 cross moment")
    geo = 1.0 if np.isinf(L) else 1.0 - (1.0 - pair + beta2) ** L
    return beta2 * geo / denom


def psbp_process_variance(G0B: float, beta1: float, beta2: float, L) -> float:
    """Variance of G(B) around its base-measure mean for an L-component column.

    G0B*(1-G0B) * beta2 * (1 - (1 - 2*beta1 + beta2)^L) / (2*beta1 - beta2);
    pass L = inf for the limiting value.
    """
    return G0B * (1.0 - G0B) * _stick_bracket(beta1, beta1, beta2, L)


def psbp_process_covariance(G0B: float, beta1_pair, beta2_cross: float, L) -> float:
    """Covariance of G(B) across two cells sharing atoms but with correlated sticks."""
    return G0B * (1.0 - G0B) * _stick_bracket(*beta1_pair, beta2_cross, L)


def marginal_y_covariance(beta1_pair, beta2_cross: float, L, tau: np.ndarray,
                          eta2_expect: np.ndarray, sigma2_expect: float,
                          same_cell: bool) -> float:
    """Marginal moment of the observed process at one visit.

    Variance (same_cell): E[sigma2] + bracket * sum_j tau_j^-1 E[eta_tj^2]
    with the same-cell bracket; covariance drops the noise term and uses the
    cross-cell bracket.
    """
    tau = np.asarray(tau, dtype=float)
    eta2 = np.asarray(eta2_expect, dtype=float)
    if tau.size == 0:
        return float(sigma2_expect) if same_cell else 0.0
    if np.any(tau <= 0):
        raise ValueError("tau entries must be positive")
    scale = float(np.sum(eta2 / tau))
    if same_cell:
        b1 = beta1_pair[0] if np.ndim(beta1_pair) else float(beta1_pair)
        return float(sigma2_expect) + _stick_bracket(b1, b1, beta2_cross, L) * scale
    return _stick_bracket(*beta1_pair, beta2_cross, L) * scale
