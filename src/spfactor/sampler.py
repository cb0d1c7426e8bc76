"""Gibbs sampler over all model unknowns.

One sweep scans the full conditionals in a fixed order: omega -> loading
columns (xi, alpha, theta per column) -> eta -> beta -> sigma2 -> kappa ->
Upsilon -> delta -> rho -> psi.  Five of them depend on the model: omega is
drawn for binomial data only, sigma2 for Gaussian data only, beta only when
there are covariates, rho only when it is free (rho_prior = uniform) and the
loadings are spatial, and psi only when it is not fixed.

Both likelihood families reduce to a Gaussian working response with a
per-cell diagonal precision (1/sigma2 for Gaussian data, the Polya-Gamma draw
for binomial), so every conditional except rho/psi is conjugate; those two
use adaptive random-walk Metropolis on a transformed scale, tuned during
burn-in only.

The Gaussian conditionals factorise and solve through LAPACK's potrf, potrs
and trtrs directly: at this model's sizes scipy.linalg's validation and
dispatch layers cost more than the arithmetic.
"""

from __future__ import annotations

import copy
import math
import tempfile
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtrmm, dtrsm
from scipy.linalg.lapack import dpotrs, dtrtrs
from scipy.special import ndtr

from .data import ObservationSet, validate
from .errors import NonPositiveScale, ValidationError
from .kernels import (
    SpatialKernelSpec,
    TemporalKernelSpec,
    _check_finite,
    _cho_lower,
    psi_bounds,
    spatial_correlation,
    temporal_correlation,
)
from .likelihoods import (
    LikelihoodSpec,
    draw_observations,
    linear_predictor,
    log_density,
    pg_sample_array,
    truncated_normal,
)
from .psbp import MgpState, StickState, loadings_from_atoms, stick_weights_matrix
from .storage import DRAW_FIELDS, PosteriorDraws

_CHOICES = {  # the values each ModelSpec menu setting accepts
    "loadings_prior": ("psbp-spatial", "psbp-independent", "gaussian-car", "gaussian-iid"),
    "shrinkage": ("mgp", "independent-gamma"),
    "spatial_kernel": ("car", "exponential-gp"),
    "temporal_kernel": ("exponential", "ar1"),
    "rho_prior": ("fixed", "uniform"),
}
_MAX_STICKS = 256
_LOGLIK_MEMMAP_CELLS = 10_000_000  # larger loglik matrices go to an unlinked temp file


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices: the same products, without its shape handling."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(a.shape[0] * b.shape[0], -1)


def _gaussian_draw(c: np.ndarray, b: np.ndarray, rng) -> np.ndarray:
    """One draw from N(P^-1 b, P^-1), with `c` the lower Cholesky factor of
    P; `b` may hold several right-hand sides as columns.  Runs the LAPACK
    calls of `cho_solve((c, True), b)` and `solve_triangular(c.T, z)`."""
    _check_finite(b)
    mean, _ = dpotrs(c, b, lower=1)
    noise, _ = dtrtrs(c, rng.standard_normal(b.shape), lower=1, trans=1)
    return mean + noise


def invwishart_rvs(df: float, scale: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One inverse-Wishart(df, scale) draw by the Bartlett decomposition
    (Smith & Hocking 1972, AS 53).

    Reads the rng and runs the same BLAS calls as scipy 1.17's
    `invwishart.rvs`, so the draw (C-ordered, as scipy returns it) is
    bit-identical to scipy's for the same generator state, without importing
    scipy.stats.
    """
    d = scale.shape[0]
    if df <= d - 1:
        raise ValueError("Degrees of freedom must be greater than the "
                         "dimension of scale matrix minus 1.")
    C = _cho_lower(scale)
    A = np.zeros((d, d))
    A[np.tril_indices(d, -1)] = rng.normal(size=d * (d - 1) // 2)
    A[np.diag_indices(d)] = rng.chisquare((df - d + 1) + np.arange(d)) ** 0.5
    if d == 1:
        return np.array([[(C[0, 0] / A[0, 0]) ** 2]])
    CA = dtrsm(1.0, A, C, side=1, lower=True)
    return np.ascontiguousarray(dtrmm(1.0, CA, CA, side=1, lower=True, trans_a=True))


def _iw_prior(df, scale, d: int) -> tuple[float, np.ndarray]:
    """Inverse-Wishart prior of a d x d matrix: df defaults to d + 1 and the
    scale to I_d, and a scalar scale s means s I_d."""
    scale = np.asarray(1.0 if scale is None else scale, dtype=float)
    return (d + 1 if df is None else df), (scale * np.eye(d) if scale.ndim == 0 else scale)


@dataclass(frozen=True)
class ModelSpec:
    """Everything that defines the model besides the data: truncation,
    kernels, prior menu, and hyperparameters.

    L=None selects the slice-sampled infinite mixture; an integer fixes a
    finite truncation.  rho is held at `rho` when rho_prior == "fixed".
    """

    k: int
    likelihood: LikelihoodSpec = LikelihoodSpec("gaussian")
    L: int | None = None
    spatial_kernel: str = "car"            # car | exponential-gp
    temporal_kernel: str = "exponential"   # exponential | ar1
    loadings_prior: str = "psbp-spatial"
    shrinkage: str = "mgp"
    rho: float = 0.99
    rho_prior: str = "fixed"               # fixed | uniform
    rho_bounds: tuple[float, float] = (0.0, 1.0)
    psi: float | None = None               # fixed value; None -> sampled
    psi_bounds: tuple[float, float] | None = None  # exponential kernel; None -> from data
    psi_beta_shapes: tuple[float, float] = (1.0, 1.0)  # ar1 transformed-beta prior
    a1: float = 1.0
    a2: float = 20.0
    sigma2_a: float = 0.001
    sigma2_b: float = 0.001
    kappa_df: float | None = None          # default O + 1
    kappa_scale: float | np.ndarray | None = None  # default I_O
    upsilon_df: float | None = None        # default k + 1
    upsilon_scale: float | np.ndarray | None = None  # default I_k
    beta_prior_var: float = 1000.0
    pool_sigma2: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.L is not None and self.L < 1:
            raise ValueError("finite truncation L must be at least 1")
        for name, known in _CHOICES.items():
            value = getattr(self, name)
            if value not in known:
                raise ValueError(f"unknown {name.replace('_', ' ')} {value!r}")
        for name, val in (("a1", self.a1), ("a2", self.a2),
                          ("sigma2_a", self.sigma2_a), ("sigma2_b", self.sigma2_b),
                          ("beta_prior_var", self.beta_prior_var)):
            if val <= 0:
                raise ValueError(f"{name} must be positive")
        if self.loadings_prior.startswith("gaussian") and self.shrinkage == "mgp":
            object.__setattr__(self, "shrinkage", "independent-gamma")

    @property
    def slice_mode(self) -> bool:
        return self.L is None

    @property
    def uses_sticks(self) -> bool:
        return self.loadings_prior.startswith("psbp")

    @property
    def spatial_loadings(self) -> bool:
        return self.loadings_prior in ("psbp-spatial", "gaussian-car")


@dataclass
class ChainState:
    """One full parameter state."""

    beta: np.ndarray                 # (p,)
    eta: np.ndarray                  # (T, k)
    lam: np.ndarray                  # (n_cells, k)
    stick: StickState | None
    mgp: MgpState
    kappa: np.ndarray                # (O, O)
    rho: float
    psi: float
    upsilon: np.ndarray              # (k, k)
    sigma2: np.ndarray | None        # (n_cells,) gaussian only

    def copy(self) -> "ChainState":
        return copy.deepcopy(self)


class GibbsSampler:
    """Owns the data-side caches and performs sweeps on a ChainState."""

    def __init__(self, spec: ModelSpec, data: ObservationSet):
        validate(data, family=spec.likelihood.family)
        self.spec = spec
        self.data = data
        self.T = data.T
        self.N = data.n_cells
        self.m = data.m
        self.O = data.O
        self.p = data.p
        self.times = data.times.copy()
        self.y = np.where(data.stacked_mask(), 0.0, data.stacked_y())
        self.obs = ~data.stacked_mask()
        self.trials = data.stacked_trials()
        self.X = data.stacked_covariates()

        self.kappa_df, self.kappa_scale = _iw_prior(spec.kappa_df, spec.kappa_scale, self.O)
        self.upsilon_df, self.upsilon_scale = _iw_prior(
            spec.upsilon_df, spec.upsilon_scale, spec.k)

        if spec.temporal_kernel == "exponential":
            self.psi_range = spec.psi_bounds or psi_bounds(self.times)
        else:
            self.psi_range = (-1.0, 1.0)
            gaps = np.abs(self.times[:, None] - self.times[None, :])
            if (spec.psi is None or spec.psi < 0) and np.any(gaps % 1.0 != 0):
                # psi ** gap is undefined for psi < 0 and a fractional gap
                raise ValidationError(
                    "temporal_kernel = ar1 needs integer time gaps unless psi is "
                    "fixed at 0 or above; use temporal_kernel = exponential")

        # one kernel per correlation parameter: (value, *spatial_ops / temporal_ops)
        self._cache: dict[str, tuple | None] = {"rho": None, "psi": None}
        self.scale = {"rho": 1.0, "psi": 1.0}  # random-walk scales, tuned in burn-in
        self._accept = {"rho": [0, 0], "psi": [0, 0]}
        # binomial Polya-Gamma draws (T, N): every sweep draws them before reading
        self.omega: np.ndarray | None = None

    # -- kernel caches ------------------------------------------------------

    def spatial_ops(self, rho: float):
        """Precision of F(rho), its Cholesky factor S (S S^T = F), and log|F|."""
        cached = self._cache["rho"]
        if cached is not None and cached[0] == rho:
            return cached[1:]
        if self.spec.spatial_loadings:
            skind = self.spec.spatial_kernel
            struct = self.data.spatial
            _, factor = spatial_correlation(SpatialKernelSpec(skind, rho), struct)
            if skind == "car":
                prec = np.diag(struct.neighbour_counts) - rho * struct.adjacency
            else:
                prec, _ = dpotrs(factor, np.eye(self.m), lower=1)
            logdet_F = 2.0 * float(np.sum(np.log(np.diag(factor))))
        else:
            prec = factor = np.eye(self.m)
            logdet_F = 0.0
        self._cache["rho"] = (rho, prec, factor, logdet_F)
        return prec, factor, logdet_F

    def temporal_ops(self, psi: float):
        """Cholesky factor of H(psi), its inverse, and log|H|."""
        cached = self._cache["psi"]
        if cached is not None and cached[0] == psi:
            return cached[1:]
        _, chol_H = temporal_correlation(
            TemporalKernelSpec(self.spec.temporal_kernel, psi), self.times)
        H_inv, _ = dpotrs(chol_H, np.eye(self.T), lower=1)
        logdet_H = 2.0 * float(np.sum(np.log(np.diag(chol_H))))
        self._cache["psi"] = (psi, chol_H, H_inv, logdet_H)
        return chol_H, H_inv, logdet_H

    # -- working response -----------------------------------------------------

    def working(self, state: ChainState) -> tuple[np.ndarray, np.ndarray]:
        """Gaussian working response and its diagonal precision, both (T, N)."""
        if self.spec.likelihood.family == "gaussian":
            prec = self.obs / state.sigma2[None, :]
            return self.y, prec
        omega = self.omega
        chi = self.y - self.trials / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            ystar = np.where(omega > 0, chi / np.where(omega > 0, omega, 1.0), 0.0)
        return ystar, np.where(omega > 0, omega, 0.0)

    # -- initialization ------------------------------------------------------

    @staticmethod
    def _guard_spd(mat: np.ndarray, df: float, scale: np.ndarray) -> np.ndarray:
        """Rein in initialization draws from near-improper IW priors.

        A draw from IG(0.001, 0.001) is astronomically large or small with
        high probability; starting the probit stick fields at such a scale
        saturates Phi(alpha) and the chain cannot random-walk back within any
        realistic budget.  Eigenvalues are clamped into a moderate band at
        initialization only; the first sweep's conjugate update (whose
        degrees of freedom are healthy) takes over from there.
        """
        if not np.all(np.isfinite(mat)):
            return scale / (df + scale.shape[0] + 1.0) + 1e-3 * np.eye(scale.shape[0])
        vals, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
        clipped = np.clip(vals, 1e-2, 1e2)
        if np.array_equal(vals, clipped):
            return mat
        return (vecs * clipped) @ vecs.T

    def init_state(self, rng: np.random.Generator) -> ChainState:
        spec = self.spec
        k = spec.k
        if spec.shrinkage == "mgp":
            delta = np.empty(k)
            delta[0] = rng.gamma(spec.a1, 1.0)
            if k > 1:
                delta[1:] = rng.gamma(spec.a2, 1.0, size=k - 1)
        else:
            delta = rng.gamma(spec.a1, 1.0 / spec.a2, size=k)
        mgp = MgpState(np.clip(delta, 1e-6, 1e6), multiplicative=spec.shrinkage == "mgp")
        tau = mgp.precisions()

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            kappa = invwishart_rvs(self.kappa_df, self.kappa_scale, rng)
        kappa = self._guard_spd(kappa, self.kappa_df, self.kappa_scale)
        if spec.rho_prior == "fixed" or not spec.spatial_loadings:
            rho = spec.rho
        else:
            rho = float(rng.uniform(*spec.rho_bounds))
        if spec.psi is not None:
            psi = spec.psi
        elif spec.temporal_kernel == "exponential":
            psi = float(rng.uniform(*self.psi_range))
        else:
            g, b = spec.psi_beta_shapes
            psi = float(2.0 * rng.beta(g, b) - 1.0)

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            upsilon = invwishart_rvs(self.upsilon_df, self.upsilon_scale, rng)
        upsilon = self._guard_spd(upsilon, self.upsilon_df, self.upsilon_scale)
        cho_H, _, _ = self.temporal_ops(psi)
        cho_U = np.linalg.cholesky(upsilon)
        eta = cho_H @ rng.standard_normal((self.T, k)) @ cho_U.T

        beta = rng.normal(0.0, math.sqrt(spec.beta_prior_var), size=self.p)

        sigma2 = None
        if spec.likelihood.family == "gaussian":
            # clip the draw: near-improper IG priors otherwise start the chain
            # at absurd scales (see _guard_spd)
            if spec.pool_sigma2:
                g = rng.gamma(spec.sigma2_a, 1.0 / spec.sigma2_b)
                sigma2 = np.full(self.N, 1.0 / np.clip(g, 1e-2, 1e2))
            else:
                g = rng.gamma(spec.sigma2_a, 1.0 / spec.sigma2_b, size=self.N)
                sigma2 = 1.0 / np.clip(g, 1e-2, 1e2)

        stick = None
        if spec.uses_sticks:
            stick = self._init_sticks(kappa, rho, tau, rng)
            lam = loadings_from_atoms(stick)
        else:
            # C order, or BLAS rounds eta @ lam.T differently
            lam = np.ascontiguousarray((self._draw_alpha_prior(
                np.linalg.cholesky(kappa), rho, rng, k) / np.sqrt(tau)[:, None]).T)

        return ChainState(beta=beta, eta=eta, lam=lam, stick=stick, mgp=mgp,
                          kappa=kappa, rho=rho, psi=psi, upsilon=upsilon,
                          sigma2=sigma2)

    def _draw_alpha_prior(self, cho_k, rho, rng, count=1) -> np.ndarray:
        """`count` stick fields from N(0, kappa (x) F(rho)), rows (count, N);
        `cho_k` is the lower Cholesky factor of kappa."""
        _, factor, _ = self.spatial_ops(rho)
        B = factor @ rng.standard_normal((count, self.m, self.O)) @ cho_k.T
        return B.transpose(0, 2, 1).reshape(count, self.N)  # location-fastest rows

    def _init_sticks(self, kappa, rho, tau, rng) -> StickState:
        spec = self.spec
        max_sticks = _MAX_STICKS if spec.slice_mode else spec.L - 1
        cho_k = np.linalg.cholesky(kappa)
        alpha, thetas = [], []
        xi = np.empty((spec.k, self.N), dtype=int)
        for j in range(spec.k):
            rows = []
            undecided = np.arange(self.N)
            while undecided.size and len(rows) < max_sticks:
                a = self._draw_alpha_prior(cho_k, rho, rng)[0]
                rows.append(a)
                hit = rng.uniform(size=undecided.size) < ndtr(a[undecided])
                xi[j, undecided[hit]] = len(rows)
                undecided = undecided[~hit]
            if not spec.slice_mode:
                xi[j, undecided] = spec.L
                rows.extend(self._draw_alpha_prior(cho_k, rho, rng, max_sticks - len(rows)))
            elif undecided.size:  # force leftovers onto one extra stick
                rows.append(self._draw_alpha_prior(cho_k, rho, rng)[0])
                xi[j, undecided] = len(rows)
            alpha.append(np.reshape(rows, (len(rows), self.N)))
            n_atoms = len(rows) if spec.slice_mode else spec.L
            thetas.append(rng.normal(0.0, 1.0 / math.sqrt(tau[j]), size=n_atoms))
        return StickState(alpha=alpha, theta=thetas, xi=xi)

    @staticmethod
    def _sample_z(alpha_mat: np.ndarray, xi_j: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
        """Latent probit draws consistent with the indicators.

        Sticks below the selected component are negative, the selected one is
        positive (when it is a real stick), and later sticks are free draws.
        """
        n_sticks, n_cells = alpha_mat.shape
        if n_sticks == 0:
            return np.empty((0, n_cells))
        lidx = np.arange(1, n_sticks + 1)[:, None]
        below = lidx < xi_j[None, :]
        at = lidx == xi_j[None, :]
        z = alpha_mat + rng.standard_normal(alpha_mat.shape)
        constrained = below | at
        if constrained.any():
            z[constrained] = truncated_normal(alpha_mat[constrained], at[constrained], rng)
        return z

    # -- individual updates ---------------------------------------------------

    def update_polya_gamma(self, state: ChainState, rng) -> None:
        theta = linear_predictor(self.X, state.beta, state.eta, state.lam)
        self.omega = pg_sample_array(self.trials, theta, rng)

    def update_factors(self, state: ChainState, rng) -> None:
        k = self.spec.k
        yw, prec = self.working(state)
        _, H_inv, _ = self.temporal_ops(state.psi)
        U_inv = np.linalg.inv(state.upsilon)
        P = _kron(H_inv, U_inv)
        b = np.empty(self.T * k)
        r = yw - self.X @ state.beta
        for t in range(self.T):
            wl = prec[t][:, None] * state.lam
            P[t * k:(t + 1) * k, t * k:(t + 1) * k] += state.lam.T @ wl
            b[t * k:(t + 1) * k] = wl.T @ r[t]
        draw = _gaussian_draw(_cho_lower(P), b, rng)
        state.eta = draw.reshape(self.T, k)

    def update_regression(self, state: ChainState, rng) -> None:
        if self.p == 0:
            return
        yw, prec = self.working(state)
        r = yw - state.eta @ state.lam.T
        A = np.eye(self.p) / self.spec.beta_prior_var
        b = np.zeros(self.p)
        for t in range(self.T):
            Xw = prec[t][:, None] * self.X[t]
            A += self.X[t].T @ Xw
            b += Xw.T @ r[t]
        state.beta = _gaussian_draw(_cho_lower(A), b, rng)

    def _column_stats(self, state, yw, prec, j):
        """Per-cell linear and quadratic likelihood terms for loading column j."""
        theta = linear_predictor(self.X, state.beta, state.eta, state.lam)
        r = yw - theta + state.eta[:, j, None] * state.lam[:, j]
        A = ((prec * r) * state.eta[:, j][:, None]).sum(axis=0)
        B = (prec * (state.eta[:, j] ** 2)[:, None]).sum(axis=0)
        return A, B

    def update_loadings_block(self, state: ChainState, rng) -> None:
        if self.spec.uses_sticks:
            self._update_sticks(state, rng)
        else:
            self._update_gaussian_loadings(state, rng)

    def _field_precision(self, state) -> np.ndarray:
        """kappa^-1 (x) F^-1: the prior precision of a stick field, and of a
        Gaussian loading column up to its tau_j."""
        F_prec, _, _ = self.spatial_ops(state.rho)
        return _kron(np.linalg.inv(state.kappa), F_prec)

    def _update_sticks(self, state: ChainState, rng) -> None:
        spec = self.spec
        stick = state.stick
        tau = state.mgp.precisions()
        yw, prec = self.working(state)
        # the unit-variance latent probits add I to every field's prior precision
        cho_P = _cho_lower(self._field_precision(state) + np.eye(self.N))
        cho_k = np.linalg.cholesky(state.kappa)
        cells = np.arange(self.N)
        for j in range(spec.k):
            A, B = self._column_stats(state, yw, prec, j)
            alpha_j, theta_j = stick.alpha[j], stick.theta[j]
            if spec.slice_mode:
                w = stick_weights_matrix(alpha_j, closing=False)
                u = rng.uniform(0.0, w[stick.xi[j] - 1, cells])
                # double the stick streams with prior draws until no cell has
                # unassigned mass above min(u); later sticks cannot be chosen
                open_mass = 1.0 - u.min()
                while w.sum(axis=0).min() <= open_mass and alpha_j.shape[0] < _MAX_STICKS:
                    extra = min(alpha_j.shape[0], _MAX_STICKS - alpha_j.shape[0])
                    alpha_j = np.vstack([alpha_j, self._draw_alpha_prior(
                        cho_k, state.rho, rng, extra)])
                    theta_j = np.append(theta_j, rng.normal(
                        0.0, 1.0 / math.sqrt(tau[j]), size=extra))
                    w = stick_weights_matrix(alpha_j, closing=False)
                logw = np.where(w > u, 0.0, -np.inf)  # uniform over the slice
            else:
                with np.errstate(divide="ignore"):
                    logw = np.log(stick_weights_matrix(alpha_j, closing=True))

            # component indicators from likelihood-weighted mixture
            loglik = theta_j[:, None] * A - 0.5 * ((theta_j ** 2)[:, None] * B)
            gumbel = -np.log(-np.log(rng.uniform(size=loglik.shape)))
            xi_j = np.argmax(loglik + logw + gumbel, axis=0) + 1
            # slice mode drops the sticks past the last occupied one: they stay
            # at their prior, so kappa, rho and delta condition on sticks
            # 1..max(xi) only, and the next sweep regrows the tail from the prior
            n_comp = int(xi_j.max()) if spec.slice_mode else spec.L
            alpha_j = alpha_j[:n_comp]

            z_j = self._sample_z(alpha_j, xi_j, rng)
            if z_j.shape[0]:
                alpha_j = _gaussian_draw(cho_P, z_j.T, rng).T

            counts_B = np.bincount(xi_j - 1, weights=B, minlength=n_comp)
            sums_A = np.bincount(xi_j - 1, weights=A, minlength=n_comp)
            post_prec = tau[j] + counts_B
            post_mean = sums_A / post_prec
            theta_j = post_mean + rng.standard_normal(n_comp) / np.sqrt(post_prec)

            stick.alpha[j] = alpha_j
            stick.theta[j] = theta_j
            stick.xi[j] = xi_j
            state.lam[:, j] = theta_j[xi_j - 1]

    def _update_gaussian_loadings(self, state: ChainState, rng) -> None:
        tau = state.mgp.precisions()
        yw, prec = self.working(state)
        K_prec = self._field_precision(state)
        for j in range(self.spec.k):
            A, B = self._column_stats(state, yw, prec, j)
            P = tau[j] * K_prec + np.diag(B)
            state.lam[:, j] = _gaussian_draw(_cho_lower(P), A, rng)

    def update_variance_components(self, state: ChainState, rng) -> None:
        if self.spec.likelihood.family == "gaussian":
            self._update_sigma2(state, rng)
        self._update_kappa(state, rng)
        self._update_upsilon(state, rng)
        self._update_delta(state, rng)

    def _update_sigma2(self, state: ChainState, rng) -> None:
        spec = self.spec
        resid = self.y - linear_predictor(self.X, state.beta, state.eta, state.lam)
        ssq = ((resid ** 2) * self.obs).sum(axis=0)
        cnt = self.obs.sum(axis=0)
        if spec.pool_sigma2:
            shape = spec.sigma2_a + cnt.sum() / 2.0
            rate = spec.sigma2_b + ssq.sum() / 2.0
            state.sigma2 = np.full(self.N, 1.0 / rng.gamma(shape, 1.0 / rate))
        else:
            shape = spec.sigma2_a + cnt / 2.0
            rate = spec.sigma2_b + ssq / 2.0
            state.sigma2 = 1.0 / rng.gamma(shape, 1.0 / rate)
        if np.any(state.sigma2 <= 0):
            raise NonPositiveScale("sigma2 draw collapsed to zero")

    def _spatial_quads(self, state, F_prec) -> tuple[np.ndarray, np.ndarray]:
        """B F^-1 B^T, shape (n, O, O), for every stick field (or loading
        column) as an (O, m) matrix B, with each row's prior scale."""
        if self.spec.uses_sticks:
            V = np.vstack(state.stick.alpha)
            scales = np.ones(V.shape[0])
        else:
            V, scales = state.lam.T, state.mgp.precisions()
        B = V.reshape(-1, self.O, self.m)  # location-fastest stacking
        return B @ F_prec @ B.transpose(0, 2, 1), scales

    def _update_kappa(self, state: ChainState, rng) -> None:
        F_prec, _, _ = self.spatial_ops(state.rho)
        Q, scales = self._spatial_quads(state, F_prec)
        S = self.kappa_scale + np.tensordot(scales, Q, axes=1)
        df = self.kappa_df + Q.shape[0] * self.m
        state.kappa = invwishart_rvs(df, S, rng)

    def _update_upsilon(self, state: ChainState, rng) -> None:
        _, H_inv, _ = self.temporal_ops(state.psi)
        S = self.upsilon_scale + state.eta.T @ H_inv @ state.eta
        df = self.upsilon_df + self.T
        state.upsilon = invwishart_rvs(df, S, rng)

    def _update_delta(self, state: ChainState, rng) -> None:
        spec = self.spec
        if spec.uses_sticks:
            ssq = np.array([float(t @ t) for t in state.stick.theta])
            n_atoms = np.array([t.size for t in state.stick.theta], dtype=float)
        else:
            F_prec, _, _ = self.spatial_ops(state.rho)
            Q, _ = self._spatial_quads(state, F_prec)
            ssq = np.sum(Q * np.linalg.inv(state.kappa), axis=(1, 2))
            n_atoms = np.full(spec.k, float(self.N))
        delta = state.mgp.delta
        if state.mgp.multiplicative:
            for h in range(spec.k):
                tau = np.cumprod(delta)
                shape = (spec.a1 if h == 0 else spec.a2) + 0.5 * n_atoms[h:].sum()
                tau_wo = tau[h:] / delta[h]
                rate = 1.0 + 0.5 * float(tau_wo @ ssq[h:])
                delta[h] = rng.gamma(shape, 1.0 / rate)
        else:
            shape = spec.a1 + 0.5 * n_atoms
            rate = spec.a2 + 0.5 * ssq
            state.mgp.delta = rng.gamma(shape, 1.0 / rate)

    # -- correlation parameters (random-walk Metropolis) -------------------------

    def _rho_logtarget(self, state, rho) -> float:
        F_prec, _, logdet_F = self.spatial_ops(rho)
        Q, scales = self._spatial_quads(state, F_prec)
        quad = float(scales @ np.sum(Q * np.linalg.inv(state.kappa), axis=(1, 2)))
        return -0.5 * Q.shape[0] * self.O * logdet_F - 0.5 * quad

    def _psi_logtarget(self, state, psi) -> float:
        _, H_inv, logdet_H = self.temporal_ops(psi)
        U_inv = np.linalg.inv(state.upsilon)
        quad = float(np.sum((state.eta.T @ H_inv @ state.eta) * U_inv))
        lp = -0.5 * self.spec.k * logdet_H - 0.5 * quad
        if self.spec.temporal_kernel == "ar1":
            g, b = self.spec.psi_beta_shapes
            lp += (g - 1.0) * math.log1p(psi) + (b - 1.0) * math.log1p(-psi)
        return lp

    @staticmethod
    def _logit_step(value, lo, hi, scale, rng):
        """Random-walk step on logit((value-lo)/(hi-lo)); returns proposal and
        the log proposal-Jacobian correction."""

        def softplus(v):
            return max(v, 0.0) + math.log1p(math.exp(-abs(v)))

        x = math.log(value - lo) - math.log(hi - value)
        x_new = min(max(x + scale * rng.standard_normal(), -700.0), 700.0)
        v_new = lo + (hi - lo) / (1.0 + math.exp(-x_new))
        v_new = min(max(v_new, np.nextafter(lo, hi)), np.nextafter(hi, lo))
        # d v / d x = (hi-lo) sigmoid(x)(1 - sigmoid(x))
        log_jac = (softplus(x) + softplus(-x)) - (softplus(x_new) + softplus(-x_new))
        return v_new, log_jac

    def _metropolis(self, name, state, value, bounds, logtarget, rng) -> float:
        """One random-walk step for `name`; returns the new value.

        The current value's kernel is already cached, so only the proposal
        builds one.  An accepted proposal keeps its kernel in the cache; a
        rejected one puts the current value's kernel back.
        """
        prop, log_jac = self._logit_step(value, *bounds, self.scale[name], rng)
        current = logtarget(state, value)
        saved = self._cache[name]
        logr = logtarget(state, prop) - current + log_jac
        self._accept[name][1] += 1
        if math.log(rng.uniform()) < logr:
            self._accept[name][0] += 1
            return prop
        self._cache[name] = saved
        return value

    def update_correlation_parameters(self, state: ChainState, rng) -> None:
        spec = self.spec
        if spec.spatial_loadings and spec.rho_prior == "uniform":
            state.rho = self._metropolis("rho", state, state.rho, spec.rho_bounds,
                                         self._rho_logtarget, rng)
        if spec.psi is None:
            state.psi = self._metropolis("psi", state, state.psi, self.psi_range,
                                         self._psi_logtarget, rng)

    def adapt_proposals(self) -> None:
        """Retune the random-walk scales toward the 20-60% acceptance window."""
        for name, (acc, tot) in self._accept.items():
            if tot >= 25:
                factor = math.exp(acc / tot - 0.4)
                self.scale[name] = float(np.clip(self.scale[name] * factor, 0.01, 10.0))
                self._accept[name] = [0, 0]

    # -- sweep and chain --------------------------------------------------------

    def sweep(self, state: ChainState, rng: np.random.Generator) -> None:
        if self.spec.likelihood.family == "binomial":
            self.update_polya_gamma(state, rng)
        self.update_loadings_block(state, rng)
        self.update_factors(state, rng)
        self.update_regression(state, rng)
        self.update_variance_components(state, rng)
        self.update_correlation_parameters(state, rng)

    def log_likelihood_cells(self, state: ChainState) -> np.ndarray:
        """Per observed cell log density at the current state, in obs_index order."""
        theta = linear_predictor(self.X, state.beta, state.eta, state.lam)
        nuisance = self.trials if state.sigma2 is None else state.sigma2[None, :]
        return log_density(self.spec.likelihood.family, self.y, theta, nuisance)[self.obs]

    def regenerate_data(self, state: ChainState, rng: np.random.Generator) -> None:
        """Replace the observed data with a draw from the likelihood at `state`
        (successive-conditional testing)."""
        theta = linear_predictor(self.X, state.beta, state.eta, state.lam)
        nuisance = self.trials if state.sigma2 is None else state.sigma2[None, :]
        y, _ = draw_observations(self.spec.likelihood.family, theta, nuisance, rng)
        self.y = np.where(self.obs, y, 0.0)

    def run(self, n_iter: int, burn_in: int = 0, thin: int = 1, seed: int = 0,
            init: ChainState | None = None, chain_id: int = 0,
            loglik_dir=None) -> PosteriorDraws:
        if not (n_iter > burn_in >= 0 and thin >= 1):
            raise ValueError("need n_iter > burn_in >= 0 and thin >= 1")
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        state = init.copy() if init is not None else self.init_state(rng)
        spec = self.spec
        n_keep = (n_iter - burn_in) // thin
        obs_index = np.column_stack(np.nonzero(self.obs))
        n_obs = obs_index.shape[0]
        if n_obs * n_keep > _LOGLIK_MEMMAP_CELLS:
            with tempfile.TemporaryFile(dir=loglik_dir) as tmp:
                loglik = np.memmap(tmp, dtype=float, mode="w+", shape=(n_obs, n_keep))
        else:
            loglik = np.empty((n_obs, n_keep))

        keep = _DrawBuffer(self, n_keep, chain_id)
        kept = 0
        for it in range(1, n_iter + 1):
            self.sweep(state, rng)
            if it <= burn_in and it % 50 == 0:
                self.adapt_proposals()
            if it > burn_in and (it - burn_in) % thin == 0:
                loglik[:, kept] = self.log_likelihood_cells(state)
                keep.add(state, it, kept)
                kept += 1
        acc = {}
        for name, (a, t) in self._accept.items():
            if t:
                acc[name] = a / t
        self.last_state = state
        return keep.finish(loglik, obs_index, acc)


class _DrawBuffer:
    """Accumulates retained states into PosteriorDraws arrays, and each
    column's stick weights into a running sum over draws."""

    def __init__(self, sampler: GibbsSampler, n_keep: int, chain_id: int):
        self.sampler = sampler
        spec = sampler.spec
        k, N, O = spec.k, sampler.N, sampler.O
        shapes = {"iteration": (), "chain": (), "beta": (sampler.p,),
                  "eta": (sampler.T, k), "lam": (N, k), "sigma2": (N,),
                  "kappa": (O, O), "upsilon": (k, k), "delta": (k,),
                  "rho": (), "psi": (), "xi": (k, N)}
        self.arrays = {
            name: np.zeros((n_keep, *shapes[name]),
                           dtype=int if name in ("iteration", "chain", "xi") else float)
            for name in DRAW_FIELDS}
        self.arrays["chain"][:] = chain_id
        self.weight_sum = [np.zeros((N, 0)) for _ in range(k)] \
            if spec.uses_sticks else []

    def add(self, state: ChainState, it: int, s: int) -> None:
        values = {"iteration": it, "beta": state.beta, "eta": state.eta,
                  "lam": state.lam, "kappa": state.kappa, "upsilon": state.upsilon,
                  "delta": state.mgp.delta, "rho": state.rho, "psi": state.psi}
        if state.sigma2 is not None:
            values["sigma2"] = state.sigma2
        if state.stick is not None:
            values["xi"] = state.stick.xi
            for j, alpha in enumerate(state.stick.alpha):
                w = stick_weights_matrix(alpha, closing=True).T
                grow = w.shape[1] - self.weight_sum[j].shape[1]
                if grow > 0:
                    self.weight_sum[j] = np.pad(self.weight_sum[j], ((0, 0), (0, grow)))
                self.weight_sum[j][:, :w.shape[1]] += w
        for name, value in values.items():
            self.arrays[name][s] = value

    def finish(self, loglik, obs_index, acceptance) -> PosteriorDraws:
        sampler = self.sampler
        spec = sampler.spec
        return PosteriorDraws(
            family=spec.likelihood.family, loadings_prior=spec.loadings_prior,
            temporal_kernel=spec.temporal_kernel, times=sampler.times,
            m=sampler.m, O=sampler.O, k=spec.k, p=sampler.p, **self.arrays,
            weight_sum=self.weight_sum,
            loglik=loglik, obs_index=obs_index, acceptance=acceptance,
            last_trials=None if sampler.trials is None else sampler.trials[-1].copy())


# -- module-level API ----------------------------------------------------------


def run_chain(spec: ModelSpec, data: ObservationSet, n_iter: int,
              burn_in: int = 0, thin: int = 1, seed: int = 0,
              init: ChainState | None = None) -> PosteriorDraws:
    """Run one chain and return the retained draws.

    Retains every `thin`-th post-burn-in state and the per-cell log-likelihood
    matrix needed for WAIC.
    """
    return GibbsSampler(spec, data).run(n_iter, burn_in, thin, seed, init=init)


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_chains(spec: ModelSpec, data: ObservationSet, n_iter: int,
               burn_in: int, thin: int, seed: int, chains: int = 1,
               threads: int = 1, init: ChainState | None = None,
               return_final: bool = False):
    """Run several chains with independent substreams and merge the draws.

    With threads > 1 the chains run in a spawn-context process pool whose
    workers run BLAS on one thread each; the draws equal a serial run's.  As
    with any spawn pool, a calling script needs the `if __name__ ==
    "__main__":` guard; without it the workers die and this raises
    RuntimeError.  With return_final, also hand back chain 0's final state
    (checkpointing).
    """
    from .storage import merge_draws

    seeds = [int(s.generate_state(1)[0]) for s in
             np.random.SeedSequence(seed).spawn(chains)]
    if threads > 1 and chains > 1:
        import multiprocessing
        import os
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        # a forked worker inherits a BLAS thread pool that is already running,
        # so the chains fight over the cores; spawned workers read these
        # variables when their BLAS loads and run it on one thread each
        saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
        os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
        try:
            with ProcessPoolExecutor(max_workers=min(threads, chains),
                                     mp_context=multiprocessing.get_context("spawn")) as pool:
                futures = [pool.submit(_run_one, spec, data, n_iter, burn_in, thin,
                                       s, c, init) for c, s in enumerate(seeds)]
                results = [f.result() for f in futures]
        except BrokenProcessPool as exc:
            # the usual cause: each spawned worker re-runs the calling
            # script, which starts the pool again while the worker boots
            raise RuntimeError(
                "a chain worker process died; with threads > 1 the script that "
                "calls run_chains must do so under `if __name__ == \"__main__\":`, "
                "because each spawned worker re-imports it") from exc
        finally:
            for name, value in saved.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value
    else:
        results = [_run_one(spec, data, n_iter, burn_in, thin, s, c, init)
                   for c, s in enumerate(seeds)]
    merged = merge_draws([draws for draws, _ in results])
    if return_final:
        return merged, results[0][1]
    return merged


def _run_one(spec, data, n_iter, burn_in, thin, seed, chain_id, init=None):
    sampler = GibbsSampler(spec, data)
    draws = sampler.run(n_iter, burn_in, thin, seed, init=init,
                        chain_id=chain_id)
    return draws, sampler.last_state


# -- checkpointing ---------------------------------------------------------------


def save_checkpoint(path, state: ChainState, rng: np.random.Generator | None = None,
                    sweep_index: int = 0) -> None:
    """Binary-stable ChainState serialization with a format-version header;
    each unknown is stored once (Polya-Gamma draws are redrawn every sweep)."""
    from .storage import write_container

    meta = {
        "kind": "checkpoint",
        "sweep_index": sweep_index,
        "rho": state.rho, "psi": state.psi,
        "mgp_multiplicative": state.mgp.multiplicative,
        "rng_state": None if rng is None else rng.bit_generator.state,
    }
    arrays = {"beta": state.beta, "eta": state.eta, "lam": state.lam,
              "kappa": state.kappa, "upsilon": state.upsilon,
              "delta": state.mgp.delta}
    if state.sigma2 is not None:
        arrays["sigma2"] = state.sigma2
    if state.stick is not None:
        arrays["xi"] = state.stick.xi
        for j in range(state.stick.k):
            arrays[f"alpha_{j}"] = state.stick.alpha[j]
            arrays[f"theta_{j}"] = state.stick.theta[j]
    write_container(path, meta, arrays)


def load_checkpoint(path) -> tuple[ChainState, dict]:
    """The state and metadata `save_checkpoint` wrote.  Keys it no longer
    writes (stick counts, Polya-Gamma draws, ...) are ignored."""
    from .storage import read_container

    meta, arrays = read_container(path)
    if meta.get("kind") != "checkpoint":
        raise ValueError("container does not hold a checkpoint")
    stick = None
    if "xi" in arrays:
        k = arrays["xi"].shape[0]
        stick = StickState(alpha=[arrays[f"alpha_{j}"] for j in range(k)],
                           theta=[arrays[f"theta_{j}"] for j in range(k)],
                           xi=arrays["xi"])
    state = ChainState(
        beta=arrays["beta"], eta=arrays["eta"], lam=arrays["lam"], stick=stick,
        mgp=MgpState(arrays["delta"], meta["mgp_multiplicative"]),
        kappa=arrays["kappa"], rho=meta["rho"], psi=meta["psi"],
        upsilon=arrays["upsilon"], sigma2=arrays.get("sigma2"))
    return state, meta


def assert_stick_consistency(spec: ModelSpec, state: ChainState) -> None:
    """Debug invariant: each column has spec.L components (finite mode) or
    max(xi) of them (slice mode), the stick arrays match, xi lies in 1..L,
    and the weights sum to one (finite mode) or at most one (slice mode)."""
    stick = state.stick
    if stick is None:
        return
    for j, L in enumerate(stick.L):
        assert L == (stick.xi[j].max() if spec.slice_mode else spec.L)
        n_sticks = L if spec.slice_mode else L - 1
        assert stick.alpha[j].shape == (n_sticks, stick.n_cells)
        assert np.all(stick.xi[j] >= 1) and np.all(stick.xi[j] <= L)
        total = stick_weights_matrix(stick.alpha[j],
                                     closing=not spec.slice_mode).sum(axis=0)
        if spec.slice_mode:
            assert np.all(total <= 1.0 + 1e-12)
        else:
            assert np.max(np.abs(total - 1.0)) <= 1e-12
