import numpy as np
import pytest

from spfactor.data import ObservationSet, SpatialStructure
from spfactor.storage import PosteriorDraws


def king_grid(rows: int, cols: int) -> SpatialStructure:
    """Dense king-move adjacency over a rows x cols lattice."""
    coords = [(r, c) for r in range(rows) for c in range(cols)]
    m = len(coords)
    W = np.zeros((m, m))
    for a, (r1, c1) in enumerate(coords):
        for b, (r2, c2) in enumerate(coords):
            if a != b and max(abs(r1 - r2), abs(c1 - c2)) <= 1:
                W[a, b] = 1.0
    return SpatialStructure(kind="areal", adjacency=W)


def point_line(m: int, spacing: float = 1.0) -> SpatialStructure:
    pts = np.arange(m)[:, None] * spacing
    D = np.abs(pts - pts.T)
    return SpatialStructure(kind="point", distances=D)


def gaussian_dataset(seed=0, T=6, rows=2, cols=3, p=0, scale=1.0) -> ObservationSet:
    rng = np.random.default_rng(seed)
    sp = king_grid(rows, cols)
    m = sp.m
    y = scale * rng.normal(size=(T, 1, m))
    covs = rng.normal(size=(T, 1, m, p)) if p else None
    return ObservationSet(y=y, times=np.linspace(0.0, 1.0, T), spatial=sp,
                          covariates=covs)


def binomial_dataset(T=3, m=3, p=1, seed=0) -> ObservationSet:
    rng = np.random.default_rng(seed)
    trials = np.full((T, 1, m), 5.0)
    return ObservationSet(y=rng.binomial(5, 0.4, size=(T, 1, m)).astype(float),
                          times=np.linspace(0.0, 1.0, T), spatial=king_grid(1, m),
                          covariates=rng.normal(size=(T, 1, m, p)), trials=trials)


def batch_se(x: np.ndarray, n_batches: int = 20) -> float:
    """Standard error of the mean of a correlated chain via batch means."""
    x = np.asarray(x, dtype=float).ravel()
    nb = min(n_batches, max(2, x.size // 10))
    usable = (x.size // nb) * nb
    means = x[:usable].reshape(nb, -1).mean(axis=1)
    return float(means.std(ddof=1) / np.sqrt(nb))


def make_draws(*, xi=None, weights=None, lam=None, eta=None, sigma2=None,
               beta=None, kappa=None, upsilon=None, delta=None, rho=None,
               psi=None, times=None, family="gaussian",
               loadings_prior="psbp-spatial", temporal_kernel="ar1",
               m=None, O=1, p=0, loglik=None) -> PosteriorDraws:
    """Fabricate a PosteriorDraws object for unit tests.

    `weights` takes per-draw stick weights, k arrays (S, n_cells, L_j); they
    are stored as their sum over draws, as the sampler stores them.
    """
    if xi is not None:
        xi = np.asarray(xi, dtype=int)
        S, k, N = xi.shape
    elif lam is not None:
        lam = np.asarray(lam, dtype=float)
        S, N, k = lam.shape
    else:
        raise ValueError("need xi or lam")
    m = m or N // O
    T = 3 if times is None else len(times)
    times = np.linspace(0.0, 1.0, T) if times is None else np.asarray(times, float)
    if eta is not None:
        eta = np.asarray(eta, dtype=float)
        T = eta.shape[1]
    else:
        eta = np.zeros((S, T, k))
    lam = np.zeros((S, N, k)) if lam is None else np.asarray(lam, float)
    xi = np.zeros((S, k, N), dtype=int) if xi is None else xi
    weight_sum = [] if weights is None else \
        [np.asarray(w, float).sum(axis=0) for w in weights]
    return PosteriorDraws(
        family=family, loadings_prior=loadings_prior,
        temporal_kernel=temporal_kernel, times=times, m=m, O=O, k=k, p=p,
        iteration=np.arange(1, S + 1), chain=np.zeros(S, dtype=int),
        beta=np.zeros((S, p)) if beta is None else np.asarray(beta, float),
        eta=eta, lam=lam,
        sigma2=np.ones((S, N)) if sigma2 is None else np.asarray(sigma2, float),
        kappa=np.ones((S, O, O)) if kappa is None else np.asarray(kappa, float),
        upsilon=np.tile(np.eye(k), (S, 1, 1)) if upsilon is None
        else np.asarray(upsilon, float),
        delta=np.ones((S, k)) if delta is None else np.asarray(delta, float),
        rho=np.zeros(S) if rho is None else np.asarray(rho, float),
        psi=np.full(S, 0.5) if psi is None else np.asarray(psi, float),
        xi=xi, weight_sum=weight_sum,
        loglik=np.zeros((0, S)) if loglik is None else np.asarray(loglik, float),
        obs_index=np.zeros((0, 2), dtype=int))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
