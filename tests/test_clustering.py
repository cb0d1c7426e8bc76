import tracemalloc

import numpy as np
import pytest
from scipy.stats import t as student_t

from spfactor.clustering import (
    _best_of,
    _RowDistances,
    _wss_for,
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


def _reference_best_of(x, K, rng, restarts, hits, max_iter=300, tol=1e-6):
    """One k-means++ fit after another, each with its own Lloyd loop and a
    Python loop over clusters: the per-restart form the batched `_best_of`
    must reproduce bit for bit.  `hits` counts the seeding fallback and the
    empty-cluster revivals."""
    n = x.shape[0]
    best_labels, best_wss = None, np.inf
    for _ in range(restarts):
        centers = np.empty((K, x.shape[1]))
        centers[0] = x[rng.integers(n)]
        d2 = ((x - centers[0]) ** 2).sum(axis=1)
        for c in range(1, K):
            total = d2.sum()
            if total <= 0:
                hits["fallback"] += 1
                centers[c:] = x[rng.integers(n, size=K - c)]
                break
            centers[c] = x[rng.choice(n, p=d2 / total)]
            d2 = np.minimum(d2, ((x - centers[c]) ** 2).sum(axis=1))
        for _ in range(max_iter):
            dist = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            labels = dist.argmin(axis=1)
            new_centers = centers.copy()
            for c in range(K):
                members = labels == c
                if members.any():
                    new_centers[c] = x[members].mean(axis=0)
                else:
                    hits["revival"] += 1
                    new_centers[c] = x[dist.min(axis=1).argmax()]
            shift = ((new_centers - centers) ** 2).sum(axis=1).max()
            centers = new_centers
            if shift <= tol:
                break
        dist = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = dist.argmin(axis=1)
        wss = float(dist[np.arange(n), labels].sum())
        if wss < best_wss - 1e-15:
            best_labels, best_wss = labels, wss
    return best_labels, best_wss


def test_batched_best_of_matches_per_restart_loop_bit_for_bit():
    # At least two columns: numpy sums a single contiguous column pairwise
    # rather than row by row, so one-column means may differ in the last bit.
    hits = {"fallback": 0, "revival": 0}
    for case in range(120):
        r = np.random.default_rng(case)
        n, d = int(r.integers(6, 40)), int(r.integers(2, 7))
        x = r.uniform(size=(n, d))
        if case % 3 == 0:   # duplicated rows: seeding runs out of distance mass
            x = x[r.integers(0, int(r.integers(2, 5)), size=n)]
        Ks = [int(r.integers(n - 3, n + 1) if case % 2 else r.integers(1, min(n, 8) + 1)),
              int(r.integers(1, n + 1))]
        restarts = int(r.integers(1, 12))
        ref_rng, rng = np.random.default_rng([case, 1]), np.random.default_rng([case, 1])
        dist = _RowDistances(x)  # shared across K, as gap_statistic shares it
        for K in Ks:
            # duplicated rows with K near n revive clusters until the iteration
            # cap; a low cap keeps those cases quick and still exercises it
            want = _reference_best_of(x, K, ref_rng, restarts, hits, max_iter=40)
            got = _best_of(x, K, rng, restarts, max_iter=40, dist=dist)
            assert np.array_equal(got[0], want[0]), (case, K)
            assert got[1] == want[1], (case, K)
            assert rng.bit_generator.state == ref_rng.bit_generator.state, (case, K)
            grand = x.mean(axis=0)
            fitted = np.empty_like(x)
            for lab in np.unique(want[0]):
                fitted[want[0] == lab] = x[want[0] == lab].mean(axis=0)
            bss = float(((fitted - grand) ** 2).sum())
            assert ss_quantities(x, got[0] + 1)[0] == bss, (case, K)
    assert hits["fallback"] > 0 and hits["revival"] > 0, hits


def test_inverse_cdf_draw_matches_rng_choice():
    # the k-means++ draw in clustering._seed_centres
    for case in range(300):
        r = np.random.default_rng(case)
        d2 = r.exponential(size=int(r.integers(2, 60))) * (r.uniform(size=1) < 0.9)
        d2[r.integers(d2.size)] += 1.0       # some mass even when the rest is 0
        p = d2 / d2.sum()
        a, b = np.random.default_rng([case, 2]), np.random.default_rng([case, 2])
        want = a.choice(d2.size, p=p)
        cdf = (d2 / d2.sum()).cumsum()
        cdf /= cdf[-1]
        assert cdf.searchsorted(b.random(), side="right") == want
        assert a.bit_generator.state == b.bit_generator.state


def test_gap_statistic_memory_stays_flat_in_reference_count():
    # Batching over the reference sets as well as the restarts would peak at
    # tens of MB here, and holding all 50 reference sets at once at 1.7 MB;
    # fitting one reference at a time stays near the inputs.
    w = np.random.default_rng(0).dirichlet(np.ones(53), size=52)
    gap_statistic(w, 8, B=2, seed=1)
    tracemalloc.start()
    try:
        gap_statistic(w, 8, B=50, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak


def _gap_drawing_every_reference_first(x, K_max, B, rng, restarts):
    """The gap statistic drawing and keeping all B reference sets before
    fitting any: the rng order that gap_statistic keeps."""
    lo, span = x.min(axis=0), x.max(axis=0) - x.min(axis=0)
    refs = [lo + span * rng.uniform(size=x.shape) for _ in range(B)]
    ref_logw = np.array([[np.log(_wss_for(ref, K, rng, restarts, _RowDistances(ref))
                                 + 1e-300) for K in range(1, K_max + 1)] for ref in refs])
    dist = _RowDistances(x)
    logw = np.array([np.log(_wss_for(x, K, rng, restarts, dist) + 1e-300)
                     for K in range(1, K_max + 1)])
    gap = ref_logw.mean(axis=0) - logw
    s = ref_logw.std(axis=0) * np.sqrt(1.0 + 1.0 / B)
    for K in range(1, K_max):
        if gap[K - 1] >= gap[K] - s[K]:
            return K
    return K_max


def test_gap_statistic_redraws_references_in_the_same_order():
    inputs = np.random.default_rng(4)
    for case in range(12):
        n, d = inputs.integers(6, 30), inputs.integers(1, 5)
        x = inputs.normal(size=(n, d)) + 4.0 * inputs.integers(0, 3, size=(n, 1))
        ours, ref = np.random.default_rng(case), np.random.default_rng(case)
        got = gap_statistic(x, 5, B=7, seed=ours, restarts=3)
        assert got == _gap_drawing_every_reference_first(x, 5, 7, ref, 3), case
        assert ours.bit_generator.state == ref.bit_generator.state, case


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
