"""Temporal-trend clustering from the stick-breaking posterior.

Pipeline: per-factor co-clustering probabilities (invariant to component
relabeling, since only indicator equality enters) -> informative-factor
count k* -> stacked posterior-mean loading-probability matrix w -> k-means
with the gap statistic for the cluster count -> between/total
sum-of-squares summaries and per-cluster trend p-values from pointwise
regressions of the posterior-mean predictive series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import stdtr

from .errors import DegenerateData, ZeroResidualVariance
from .storage import PosteriorDraws


@dataclass
class ClusterSummary:
    g: list[np.ndarray]
    kstar: int
    w: np.ndarray
    gap_k: int
    labels: np.ndarray          # 1-based
    ss_psbp: float
    bss: float
    tss: float
    trend_pvalues: np.ndarray | None = None
    factor_order: np.ndarray | None = None  # informativeness order, 1-based


def cocluster_probability(draws: PosteriorDraws, j: int) -> np.ndarray:
    """P(xi_j(s) == xi_j(s')) across retained draws; 1-based factor index j."""
    xi = draws.xi[:, j - 1, :]  # (S, N)
    S, N = xi.shape
    out = np.zeros((N, N))
    for s in range(S):
        out += xi[s][:, None] == xi[s][None, :]
    return out / S


def _off_diagonal(g: np.ndarray) -> np.ndarray:
    return g[~np.eye(g.shape[0], dtype=bool)]


def _informative(off: np.ndarray, lo: float, hi: float) -> bool:
    """Off-diagonal co-clustering probabilities span the informative range:
    min below `lo` and max above `hi`."""
    return bool(off.size) and off.min() < lo and off.max() > hi


def select_kstar(g_all: list[np.ndarray], lo: float = 0.2, hi: float = 0.8) -> int:
    """Largest prefix of factors whose co-clustering is informative."""
    kstar = 0
    while kstar < len(g_all) and _informative(_off_diagonal(g_all[kstar]), lo, hi):
        kstar += 1
    return kstar


def build_w(draws: PosteriorDraws, kstar: int, order=None) -> np.ndarray:
    """Posterior-mean stick weights of the first kstar factors, concatenated
    per cell: (n_cells, sum_j Lmax_j).  Each block is the column's stored
    weight sum divided by the number of draws.

    `order` (0-based factor indices) rearranges the columns first; the
    default keeps the model's own column order.
    """
    if kstar < 1:
        return np.zeros((draws.n_cells, 0))
    order = range(kstar) if order is None else list(order)[:kstar]
    blocks = [draws.weight_sum[j] / draws.n_draws for j in order]  # (N, Lmax_j)
    return np.concatenate(blocks, axis=1)


def informativeness_order(g_all: list[np.ndarray], lo: float = 0.2,
                          hi: float = 0.8) -> list[int]:
    """Factors reordered for clustering: ones whose co-clustering spans the
    informative range first, then by descending off-diagonal spread.

    Non-informative factors carry no clustering signal wherever they sit in
    the column order, so the pipeline filters them by sorting before the
    prefix rule.
    """
    keyed = []
    for j, g in enumerate(g_all):
        off = _off_diagonal(g)
        spread = float(off.max() - off.min()) if off.size else 0.0
        keyed.append((not _informative(off, lo, hi), -spread, j))
    return [j for _, _, j in sorted(keyed)]


def _kmeans_once(x: np.ndarray, K: int, rng: np.random.Generator,
                 max_iter: int, tol: float) -> tuple[np.ndarray, float]:
    n = x.shape[0]
    # k-means++ seeding
    centers = np.empty((K, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for c in range(1, K):
        total = d2.sum()
        if total <= 0:
            centers[c:] = x[rng.integers(n, size=K - c)]
            break
        probs = d2 / total
        centers[c] = x[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, ((x - centers[c]) ** 2).sum(axis=1))
    labels = np.zeros(n, dtype=int)
    for _ in range(max_iter):
        dist = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = dist.argmin(axis=1)
        new_centers = centers.copy()
        for c in range(K):
            members = labels == c
            if members.any():
                new_centers[c] = x[members].mean(axis=0)
            else:  # revive an empty cluster at the farthest point
                new_centers[c] = x[dist.min(axis=1).argmax()]
        shift = ((new_centers - centers) ** 2).sum(axis=1).max()
        centers = new_centers
        if shift <= tol:
            break
    dist = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = dist.argmin(axis=1)
    wss = float(dist[np.arange(n), labels].sum())
    return labels, wss


def kmeans(w: np.ndarray, K: int, seed, restarts: int = 25,
           max_iter: int = 300, tol: float = 1e-6) -> tuple[np.ndarray, float]:
    """Best-of-`restarts` k-means++ fit; returns 1-based labels and BSS/TSS."""
    x = np.asarray(w, dtype=float)
    n = x.shape[0]
    if not 1 <= K <= n:
        raise ValueError(f"K must be in 1..{n}")
    if K > 1 and np.allclose(x, x[0]):
        raise DegenerateData("all rows identical; cannot split into K > 1 clusters")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    labels = _best_of(x, K, rng, restarts, max_iter, tol)[0] + 1
    return labels, ss_quantities(x, labels)[2]


def _best_of(x: np.ndarray, K: int, rng: np.random.Generator, restarts: int,
             max_iter: int = 300, tol: float = 1e-6) -> tuple[np.ndarray, float]:
    """0-based labels and WSS of the best of `restarts` k-means++ fits; a later
    fit replaces the best only if its WSS is lower by more than 1e-15."""
    best_labels, best_wss = None, np.inf
    for _ in range(restarts):
        labels, wss = _kmeans_once(x, K, rng, max_iter, tol)
        if wss < best_wss - 1e-15:
            best_labels, best_wss = labels, wss
    return best_labels, best_wss


def ss_quantities(w: np.ndarray, labels: np.ndarray) -> tuple[float, float, float]:
    """Between and total sums of squares of the rows under the labeling."""
    x = np.asarray(w, dtype=float)
    labels = np.asarray(labels)
    grand = x.mean(axis=0)
    tss = float(((x - grand) ** 2).sum())
    fitted = np.empty_like(x)
    for lab in np.unique(labels):
        members = labels == lab
        fitted[members] = x[members].mean(axis=0)
    bss = float(((fitted - grand) ** 2).sum())
    ratio = 0.0 if tss == 0 else bss / tss
    return bss, tss, ratio


def _wss_for(x: np.ndarray, K: int, rng, restarts: int) -> float:
    if K == 1:
        return float(((x - x.mean(axis=0)) ** 2).sum())
    return _best_of(x, K, rng, restarts)[1]


def gap_statistic(w: np.ndarray, K_max: int, B: int = 50, seed=0,
                  restarts: int = 10) -> int:
    """Cluster count by the gap rule: smallest K with
    Gap(K) >= Gap(K+1) - s_{K+1}, references uniform over the bounding box."""
    x = np.asarray(w, dtype=float)
    n = x.shape[0]
    K_max = min(K_max, n)
    if K_max <= 1:
        return 1
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    span = hi - lo
    ref_logw = np.empty((B, K_max))
    refs = [lo + span * rng.uniform(size=x.shape) for _ in range(B)]
    eps = 1e-300
    for b, ref in enumerate(refs):
        for K in range(1, K_max + 1):
            ref_logw[b, K - 1] = np.log(_wss_for(ref, K, rng, restarts) + eps)
    logw = np.array([np.log(_wss_for(x, K, rng, restarts) + eps)
                     for K in range(1, K_max + 1)])
    gap = ref_logw.mean(axis=0) - logw
    sd = ref_logw.std(axis=0)
    s = sd * np.sqrt(1.0 + 1.0 / B)
    for K in range(1, K_max):
        if gap[K - 1] >= gap[K] - s[K]:
            return K
    return K_max


def cluster_trend_pvalues(ppd_values: np.ndarray, times: np.ndarray,
                          labels: np.ndarray, side: str = "lower") -> np.ndarray:
    """Per-cluster mean of one-sided OLS slope p-values of the posterior-mean
    predictive series against time.

    `ppd_values` is (S, Q, n_cells) from ppd_sample (or an already-averaged
    (Q, n_cells) matrix); lower tests slope < 0, upper tests slope > 0.
    """
    if side not in ("lower", "upper"):
        raise ValueError("side must be 'lower' or 'upper'")
    vals = np.asarray(ppd_values, dtype=float)
    if vals.ndim == 3:
        vals = vals.mean(axis=0)
    Q, N = vals.shape
    times = np.asarray(times, dtype=float)
    if Q < 3 or times.size != Q:
        raise ValueError("need at least three predictive time points")
    tc = times - times.mean()
    sxx = float(tc @ tc)
    slopes = (tc @ vals) / sxx
    fitted = vals.mean(axis=0)[None, :] + tc[:, None] * slopes[None, :]
    sse = ((vals - fitted) ** 2).sum(axis=0)
    df = Q - 2
    if np.any(sse <= 0):
        raise ZeroResidualVariance("exact-fit series leaves no residual variance")
    se = np.sqrt(sse / df / sxx)
    tstat = slopes / se
    pv = stdtr(df, tstat) if side == "lower" else stdtr(df, -tstat)
    labels = np.asarray(labels)
    uniq = np.unique(labels)
    return np.array([pv[labels == lab].mean() for lab in uniq])


def summarize_clusters(draws: PosteriorDraws, K_max: int = 8, B: int = 50,
                       seed: int = 0, restarts: int = 25,
                       ppd_values: np.ndarray | None = None,
                       ppd_times: np.ndarray | None = None,
                       side: str = "lower") -> ClusterSummary:
    """Full clustering pipeline on a posterior-draw set.

    Factors are first reordered by informativeness (non-informative ones
    carry no clustering signal regardless of column position), then the
    prefix criterion picks k*, and the stacked loading-probability matrix of
    those factors is clustered.
    """
    g_all = [cocluster_probability(draws, j) for j in range(1, draws.k + 1)]
    order = informativeness_order(g_all)
    kstar = select_kstar([g_all[j] for j in order])
    w = build_w(draws, kstar, order=order)
    gap_k, labels = 1, np.ones(draws.n_cells, dtype=int)
    if kstar and not np.allclose(w, w[0]):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 17]))
        gap_k = gap_statistic(w, K_max, B=B, seed=rng)
        labels = _best_of(w, gap_k, rng, restarts)[0] + 1
    bss, tss, ratio = ss_quantities(w if w.size else np.zeros((draws.n_cells, 1)),
                                    labels)
    pvalues = None
    if ppd_values is not None:
        pvalues = cluster_trend_pvalues(ppd_values, ppd_times, labels, side=side)
    return ClusterSummary(g=g_all, kstar=kstar, w=w, gap_k=gap_k, labels=labels,
                          ss_psbp=ratio, bss=bss, tss=tss, trend_pvalues=pvalues,
                          factor_order=np.asarray(order[:kstar]) + 1)
