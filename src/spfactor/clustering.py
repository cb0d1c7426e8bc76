"""Temporal-trend clustering from the stick-breaking posterior.

Pipeline: per-factor co-clustering probabilities (invariant to component
relabeling, since only indicator equality enters) -> informative-factor
count k* -> stacked posterior-mean loading-probability matrix w -> k-means
with the gap statistic for the cluster count -> between/total
sum-of-squares summaries and per-cluster trend p-values from pointwise
regressions of the posterior-mean predictive series.

k-means (Lloyd with k-means++ seeding, best of several restarts) runs in
`_best_of`, which `kmeans`, `gap_statistic` and `summarize_clusters` share.
The restarts of one (x, K) are seeded one after another, the only rng reads,
then Lloyd runs for all of them at once on (restarts, K, d) centres; each
run stops at its own converged iteration, so the labels and WSS are those
of the fits run one by one.  The gap statistic's reference sets are fitted
one after another, which keeps memory independent of their number.
"""

from __future__ import annotations

import copy
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


class _RowDistances(dict):
    """Squared distances sum((x - x[i])^2) from row i to every row of x, keyed
    by i and computed the first time seeding draws row i.  One instance
    serves every seeding of one x, whatever K."""

    def __init__(self, x: np.ndarray):
        super().__init__()
        self.x = x

    def __missing__(self, i: int) -> np.ndarray:
        self[i] = d2 = ((self.x - self.x[i]) ** 2).sum(axis=1)
        return d2


def _seed_centres(dist: _RowDistances, K: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ centres (Arthur & Vassilvitskii 2007) of the rows of
    dist.x: (K, d)."""
    n = dist.x.shape[0]
    idx = [int(rng.integers(n))]
    d2 = dist[idx[0]]
    for c in range(1, K):
        total = d2.sum()
        if total <= 0:
            idx.extend(rng.integers(n, size=K - c))
            break
        # rng.choice(n, p=d2 / total) without its per-call checks: the same
        # inverse-CDF draw, one rng.random() read, the same index
        cdf = (d2 / total).cumsum()
        cdf /= cdf[-1]
        idx.append(int(cdf.searchsorted(rng.random(), side="right")))
        d2 = np.minimum(d2, dist[idx[-1]])
    return dist.x[idx]


def _label_means(x: np.ndarray, labels: np.ndarray,
                 K: int) -> tuple[np.ndarray, np.ndarray]:
    """Means of the rows of x (n, d) under each run's 0-based labels (R, n),
    and the member counts: (R, K, d) and (R, K); an empty label's mean is 0.

    One bincount over the bins (run*K + label)*d + column, fed in row order,
    adds each label's rows in the order x[labels == c].mean(axis=0) adds
    them, so every mean carries the same bits.  (With a single column numpy
    sums the contiguous column pairwise instead, so a label of 8 or more
    rows can differ from it in the last bit.)
    """
    R, n = labels.shape
    d = x.shape[1]
    groups = np.arange(R)[:, None] * K + labels
    bins = np.arange(R * K * d).reshape(R * K, d).take(groups, axis=0)
    sums = np.bincount(bins.ravel(), weights=np.broadcast_to(x, (R, n, d)).ravel(),
                       minlength=R * K * d).reshape(R, K, d)
    counts = np.bincount(groups.ravel(), minlength=R * K).reshape(R, K)
    return sums / np.maximum(counts, 1)[..., None], counts


def _sq_dist(x: np.ndarray, centres: np.ndarray) -> np.ndarray:
    """Squared distances sum((x - c)^2) of rows x (m, d) to centres (K, d),
    or row i to its own centres[i] (m, K, d): (m, K)."""
    return ((x[:, None, :] - centres) ** 2).sum(axis=2)


def _nearest(x: np.ndarray, xx_max: float, centres: np.ndarray) -> np.ndarray:
    """0-based nearest-centre label of every row for each run: (R, n).

    Rows are ranked on |c|^2 - 2 x.c (the squared distance less the row's
    own |x|^2), with one BLAS product.  Where a row's nearest two centres lie
    within that formula's rounding bound of each other, the row is decided
    on the direct sum((x - c)^2) instead, so every label, ties included, is
    the direct distances' argmin.  `xx_max` is the largest row |x|^2.
    """
    R, K, d = centres.shape
    cc = (centres ** 2).sum(axis=2)
    dist = cc[..., None] - 2.0 * (centres.reshape(R * K, d) @ x.T).reshape(R, K, -1)
    labels = dist.argmin(axis=1)                               # dist: (R, K, n)
    bound = 4.0 * (d + 4) * np.finfo(float).eps * (xx_max + cc.max())
    close = (dist <= dist.min(axis=1)[:, None, :] + bound).sum(axis=1) > 1
    if close.any():
        runs, rows = np.nonzero(close)
        labels[runs, rows] = _sq_dist(x[rows], centres[runs]).argmin(axis=1)
    return labels


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
             max_iter: int = 300, tol: float = 1e-6,
             dist: _RowDistances | None = None) -> tuple[np.ndarray, float]:
    """0-based labels and WSS of the best of `restarts` k-means++ fits; a later
    fit replaces the best only if its WSS is lower by more than 1e-15.

    The restarts are seeded one after another (the only rng reads), then
    Lloyd runs for all of them at once on (R, K, d) centres.  A run leaves
    the batch at its own iteration with shift <= tol, and an empty cluster
    is revived at that run's farthest point, so each run's centres and
    labels are those of a fit on its own.  `dist` carries x's seeding
    distances over from earlier calls on the same x.
    """
    dist = _RowDistances(x) if dist is None else dist
    centres = np.stack([_seed_centres(dist, K, rng) for _ in range(restarts)])
    xx_max = float((x ** 2).sum(axis=1).max())
    means_of = np.full((restarts, x.shape[0]), -1)  # labels the centres average
    active = np.arange(restarts)
    for _ in range(max_iter):
        labels = _nearest(x, xx_max, centres[active])
        # a run whose labels repeat already sits at their means: shift 0
        moved = (labels != means_of[active]).any(axis=1)
        active, labels = active[moved], labels[moved]
        if not active.size:
            break
        old = centres[active]
        means_of[active] = labels
        new, counts = _label_means(x, labels, K)
        for a in np.flatnonzero((counts == 0).any(axis=1)):
            far = _sq_dist(x, old[a]).min(axis=1).argmax()
            new[a, counts[a] == 0] = x[far]
            means_of[active[a]] = -1
        centres[active] = new
        active = active[((new - old) ** 2).sum(axis=2).max(axis=1) > tol]
        if not active.size:
            break
    labels = _nearest(x, xx_max, centres)
    sq = centres[np.arange(restarts)[:, None], labels]           # (R, n, d)
    sq -= x      # (c - x)^2 is (x - c)^2 to the bit; in place keeps one copy
    sq *= sq
    wss = sq.sum(axis=2).sum(axis=1)
    best = 0
    for r in range(1, restarts):
        if wss[r] < wss[best] - 1e-15:
            best = r
    return labels[best], float(wss[best])


def ss_quantities(w: np.ndarray, labels: np.ndarray) -> tuple[float, float, float]:
    """Between and total sums of squares of the rows under the labeling."""
    x = np.asarray(w, dtype=float)
    uniq, inverse = np.unique(labels, return_inverse=True)
    grand = x.mean(axis=0)
    tss = float(((x - grand) ** 2).sum())
    means = _label_means(x, inverse.reshape(1, -1), uniq.size)[0][0]
    bss = float(((means[inverse] - grand) ** 2).sum())
    ratio = 0.0 if tss == 0 else bss / tss
    return bss, tss, ratio


def _wss_for(x: np.ndarray, K: int, rng, restarts: int, dist: _RowDistances) -> float:
    if K == 1:
        return float(((x - x.mean(axis=0)) ** 2).sum())
    return _best_of(x, K, rng, restarts, dist=dist)[1]


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
    # rng draws all B references before any seeding; a copy of it redraws
    # each one as it is fitted, so only one reference is held at a time
    refs_rng = copy.deepcopy(rng)
    for _ in range(B):
        rng.uniform(size=x.shape)
    eps = 1e-300
    for b in range(B):
        ref = lo + span * refs_rng.uniform(size=x.shape)
        dist = _RowDistances(ref)
        for K in range(1, K_max + 1):
            ref_logw[b, K - 1] = np.log(_wss_for(ref, K, rng, restarts, dist) + eps)
    dist = _RowDistances(x)
    logw = np.array([np.log(_wss_for(x, K, rng, restarts, dist) + eps)
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
