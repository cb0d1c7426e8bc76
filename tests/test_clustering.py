import numpy as np
import pytest
from scipy.stats import t as student_t

from spfactor.clustering import (
    build_w,
    cluster_trend_pvalues,
    cocluster_probability,
    gap_statistic,
    informativeness_order,
    kmeans,
    select_kstar,
    ss_quantities,
    summarize_clusters,
)
from spfactor.errors import DegenerateData, ZeroResidualVariance

from conftest import make_draws


def test_cocluster_counting():
    # two cells share a component in 3 of 4 draws
    xi = np.array([[[1, 1]], [[2, 2]], [[1, 1]], [[1, 2]]])
    draws = make_draws(xi=xi)
    g = cocluster_probability(draws, 1)
    assert g[0, 1] == pytest.approx(0.75)
    assert np.allclose(np.diag(g), 1.0)
    assert np.allclose(g, g.T)


def test_cocluster_single_component():
    xi = np.ones((5, 1, 4), dtype=int)
    g = cocluster_probability(make_draws(xi=xi), 1)
    assert np.allclose(g, 1.0)


def test_cocluster_label_switching_invariance(rng):
    S, N, L = 40, 6, 4
    xi = rng.integers(1, L + 1, size=(S, 1, N))
    base = cocluster_probability(make_draws(xi=xi), 1)
    permuted = xi.copy()
    for s in range(S):
        perm = rng.permutation(L) + 1
        permuted[s, 0] = perm[xi[s, 0] - 1]
    relabeled = cocluster_probability(make_draws(xi=permuted), 1)
    assert np.array_equal(base, relabeled)


def _g(minv, maxv, n=4):
    g = np.full((n, n), (minv + maxv) / 2.0)
    g[0, 1] = g[1, 0] = minv
    g[0, 2] = g[2, 0] = maxv
    np.fill_diagonal(g, 1.0)
    return g


def test_select_kstar_thresholds():
    gs = [_g(0.1, 0.9), _g(0.15, 0.95), _g(0.5, 0.9)]
    assert select_kstar(gs) == 2
    assert select_kstar([_g(0.3, 0.9)]) == 0
    assert select_kstar([_g(0.1, 0.9)] * 5) == 5
    # max must clear 0.8 on the off-diagonal despite the unit diagonal
    assert select_kstar([_g(0.1, 0.7)]) == 0


def test_informativeness_order_puts_passing_factors_first():
    gs = [_g(0.5, 0.6), _g(0.1, 0.9), _g(0.15, 0.85)]
    order = informativeness_order(gs)
    assert order[2] == 0                      # non-informative goes last
    assert set(order[:2]) == {1, 2}
    assert order[0] == 1                      # widest spread first
    assert select_kstar([gs[j] for j in order]) == 2


def test_build_w_respects_order():
    S, N = 4, 3
    w1 = np.tile([0.7, 0.3], (S, N, 1))
    w2 = np.tile([0.2, 0.5, 0.3], (S, N, 1))
    draws = make_draws(xi=np.ones((S, 2, N), dtype=int), weights=[w1, w2])
    w = build_w(draws, 1, order=[1, 0])
    assert w.shape == (N, 3)
    assert np.allclose(w, [0.2, 0.5, 0.3])


def test_build_w_concatenation():
    S, N = 10, 3
    w1 = np.tile([0.7, 0.3], (S, N, 1))
    w2 = np.tile([0.2, 0.5, 0.3], (S, N, 1))
    xi = np.ones((S, 2, N), dtype=int)
    draws = make_draws(xi=xi, weights=[w1, w2])
    w = build_w(draws, 1)
    assert w.shape == (N, 2)
    assert np.allclose(w, [0.7, 0.3])
    w = build_w(draws, 2)
    assert w.shape == (N, 5)
    assert np.allclose(w.sum(axis=1), 2.0, atol=1e-8)


def test_kmeans_two_well_separated_groups():
    x = np.array([[0.0], [0.1], [10.0], [10.1]])
    labels, ratio = kmeans(x, 2, seed=0)
    assert labels[0] == labels[1] and labels[2] == labels[3]
    assert labels[0] != labels[2]
    # direct arithmetic: TSS = 100.01, BSS = 100.0
    assert ratio == pytest.approx(100.0 / 100.01, abs=1e-10)
    assert ratio == pytest.approx(0.9999, abs=1e-4)


def test_kmeans_extremes():
    x = np.array([[0.0], [1.0], [2.0], [5.0]])
    _, r1 = kmeans(x, 1, seed=0)
    assert r1 == 0.0
    _, r4 = kmeans(x, 4, seed=0)
    assert r4 == pytest.approx(1.0)


def test_kmeans_degenerate_rows():
    with pytest.raises(DegenerateData):
        kmeans(np.ones((4, 2)), 2, seed=0)


def test_kmeans_deterministic_and_monotone():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(20, 3))
    l1, r1 = kmeans(x, 3, seed=123)
    l2, r2 = kmeans(x, 3, seed=123)
    assert np.array_equal(l1, l2) and r1 == r2
    ratios = [kmeans(x, K, seed=5)[1] for K in range(1, 8)]
    assert all(b >= a - 1e-9 for a, b in zip(ratios, ratios[1:]))


def test_ss_quantities():
    x = np.array([[0.0], [0.1], [10.0], [10.1]])
    bss, tss, ratio = ss_quantities(x, np.ones(4, dtype=int))
    assert bss == 0.0 and ratio == 0.0 and tss > 0
    bss, tss, ratio = ss_quantities(x, np.arange(1, 5))
    assert ratio == pytest.approx(1.0)
    bss, tss, ratio = ss_quantities(x, np.array([1, 1, 2, 2]))
    assert ratio == pytest.approx(100.0 / 100.01, abs=1e-10)


def test_gap_statistic_blob_counts(rng):
    hits1 = 0
    hits2 = 0
    n_rep = 10
    for rep in range(n_rep):
        blob = rng.normal(size=(40, 2))
        hits1 += gap_statistic(blob, 5, B=20, seed=rep, restarts=5) == 1
        two = np.vstack([rng.normal(size=(20, 2)), rng.normal(20.0, 1.0, (20, 2))])
        hits2 += gap_statistic(two, 5, B=20, seed=rep, restarts=5) == 2
    assert hits1 >= 9
    assert hits2 >= 9
    assert gap_statistic(rng.normal(size=(10, 2)), 1, B=5, seed=0) == 1


def test_trend_pvalues_flat_series(rng):
    times = np.linspace(0.0, 1.0, 8)
    vals = 0.05 * rng.normal(size=(8, 6))
    pv = cluster_trend_pvalues(vals, times, np.ones(6, dtype=int), side="lower")
    assert pv.shape == (1,)
    assert 0.1 < pv[0] < 0.9


def test_trend_pvalues_decreasing_series(rng):
    times = np.linspace(0.0, 1.0, 10)
    vals = -5.0 * times[:, None] + 0.01 * rng.normal(size=(10, 4))
    pv_low = cluster_trend_pvalues(vals, times, np.ones(4, dtype=int), side="lower")
    pv_up = cluster_trend_pvalues(vals, times, np.ones(4, dtype=int), side="upper")
    assert pv_low[0] < 0.001
    assert pv_up[0] > 0.999


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_trend_pvalues_match_student_t(rng, side):
    Q, N = 5, 12
    times = np.linspace(0.0, 1.0, Q)
    vals = rng.normal(size=(Q, N)) + rng.normal(size=N) * times[:, None]
    labels = np.arange(N) % 3
    # the OLS t statistic in the same operation order as the package
    tc = times - times.mean()
    sxx = float(tc @ tc)
    slopes = (tc @ vals) / sxx
    fitted = vals.mean(axis=0)[None, :] + tc[:, None] * slopes[None, :]
    sse = ((vals - fitted) ** 2).sum(axis=0)
    tstat = slopes / np.sqrt(sse / (Q - 2) / sxx)
    pv = (student_t.cdf if side == "lower" else student_t.sf)(tstat, Q - 2)
    expect = np.array([pv[labels == lab].mean() for lab in range(3)])
    got = cluster_trend_pvalues(vals, times, labels, side=side)
    assert got.tobytes() == expect.tobytes()


def test_trend_pvalues_exact_fit_raises():
    times = np.linspace(0.0, 1.0, 5)
    vals = 2.0 * times[:, None] * np.ones((5, 3))
    with pytest.raises(ZeroResidualVariance):
        cluster_trend_pvalues(vals, times, np.ones(3, dtype=int))


def test_trend_pvalues_averages_over_draws(rng):
    times = np.linspace(0.0, 1.0, 6)
    draws3d = rng.normal(size=(20, 6, 4)) + (-3.0 * times)[None, :, None]
    pv = cluster_trend_pvalues(draws3d, times, np.array([1, 1, 2, 2]),
                               side="lower")
    assert pv.shape == (2,)


def test_summarize_clusters_pipeline(rng):
    # two planted groups in the stick weights of one informative factor
    S, N = 30, 40
    w_hot = np.tile([0.9, 0.1], (S, N // 2, 1))
    w_cold = np.tile([0.1, 0.9], (S, N // 2, 1))
    w1 = np.concatenate([w_hot, w_cold], axis=1)
    jitter = 0.03 * rng.standard_normal(size=w1.shape[:2])
    w1[:, :, 0] += jitter
    w1[:, :, 1] -= jitter
    xi = np.concatenate([np.ones((S, 1, N // 2)), np.full((S, 1, N // 2), 2)],
                        axis=2).astype(int)
    draws = make_draws(xi=xi, weights=[w1])
    summary = summarize_clusters(draws, K_max=4, B=10, seed=1)
    assert summary.kstar == 1
    assert summary.gap_k == 2
    first = summary.labels[:N // 2]
    second = summary.labels[N // 2:]
    assert len(set(first)) == 1 and len(set(second)) == 1
    assert first[0] != second[0]
    assert summary.ss_psbp > 0.9


def test_summarize_clusters_without_informative_factor():
    # factor 1 puts every cell in one component; factor 2 pairs every two
    # cells in exactly half the draws; neither spans the informative range
    pattern = np.array([[1, 1, 1, 1], [1, 2, 1, 2], [1, 1, 2, 2], [1, 2, 2, 1]]).T
    xi = np.stack([np.ones((4, 4), dtype=int), pattern], axis=1)  # (S, k, N)
    draws = make_draws(xi=xi)
    assert np.allclose(cocluster_probability(draws, 2)[~np.eye(4, dtype=bool)], 0.5)
    summary = summarize_clusters(draws, K_max=3, B=5, seed=2)
    assert summary.kstar == 0 and summary.gap_k == 1
    assert summary.w.shape == (4, 0) and summary.factor_order.size == 0
    assert np.array_equal(summary.labels, np.ones(4, dtype=int))
    assert summary.ss_psbp == 0.0 and summary.bss == 0.0 and summary.tss == 0.0
    assert summary.trend_pvalues is None
