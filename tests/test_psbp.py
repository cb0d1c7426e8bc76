import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import norm

from spfactor.errors import DegenerateDenominator, IndicatorOutOfRange
from spfactor.psbp import (
    MgpState,
    StickState,
    beta_moment_1,
    beta_moment_2,
    loadings_from_atoms,
    marginal_y_covariance,
    psbp_process_covariance,
    psbp_process_variance,
    stick_weights,
    stick_weights_matrix,
)


def test_stick_weights_examples():
    assert np.allclose(stick_weights([0.0, 0.0]), [0.5, 0.25, 0.25])

    w = stick_weights([8.0, 0.0])
    assert w[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(w.sum() - 1.0) <= 1e-12

    a = [norm.ppf(0.3), norm.ppf(0.2)]
    assert np.allclose(stick_weights(a), [0.3, 0.14, 0.56], atol=1e-12)


@given(st.lists(st.floats(-10, 10), min_size=0, max_size=12))
@settings(max_examples=200, deadline=None)
def test_stick_weights_normalized(alpha):
    w = stick_weights(np.array(alpha))
    assert w.size == len(alpha) + 1
    assert np.all(w >= 0)
    assert abs(w.sum() - 1.0) <= 1e-12


def test_stick_weights_matrix_agrees_with_vector():
    rng = np.random.default_rng(0)
    alpha = rng.normal(size=(4, 7))
    W = stick_weights_matrix(alpha, closing=True)
    for c in range(7):
        assert np.allclose(W[:, c], stick_weights(alpha[:, c]))


@pytest.mark.parametrize("n_sticks", [0, 1, 5])
@pytest.mark.parametrize("closing", [True, False])
def test_stick_weights_matrix_is_bit_identical_to_stacked_cumprod(n_sticks, closing):
    alpha = np.random.default_rng(n_sticks).normal(0.0, 3.0, size=(n_sticks, 9))
    v = ndtr(alpha)
    remaining = np.cumprod(np.vstack([np.ones((1, 9)), 1.0 - v]), axis=0)
    expect = np.vstack([v * remaining[:-1], remaining[-1:]]) if closing \
        else v * remaining[:-1]
    got = stick_weights_matrix(alpha, closing=closing)
    assert got.shape == expect.shape
    assert got.tobytes() == expect.tobytes()


def test_mgp_precisions():
    assert np.allclose(MgpState(np.array([2.0, 3.0, 4.0])).precisions(), [2, 6, 24])
    assert np.allclose(MgpState(np.ones(3)).precisions(), [1, 1, 1])
    assert np.allclose(MgpState(np.array([5.0])).precisions(), [5])
    flat = MgpState(np.array([2.0, 3.0]), multiplicative=False)
    assert np.allclose(flat.precisions(), [2, 3])


def _stick_state(alpha, theta, xi):
    return StickState(alpha=[np.asarray(a, float) for a in alpha],
                      theta=[np.asarray(t, float) for t in theta],
                      xi=np.asarray(xi, int))


def test_loadings_from_atoms():
    n = 5
    state = _stick_state(
        alpha=[np.zeros((1, n)), np.zeros((1, n))],
        theta=[[3.0, 3.0], [7.0, 7.0]],
        xi=np.ones((2, n), dtype=int))
    lam = loadings_from_atoms(state)
    assert np.allclose(lam[:, 0], 3.0)
    assert np.allclose(lam[:, 1], 7.0)

    xi = np.array([[1, 2, 1, 2, 1]])
    state = _stick_state([np.zeros((1, 5))], [[1.0, -1.0]], xi)
    assert np.allclose(loadings_from_atoms(state)[:, 0], [1, -1, 1, -1, 1])

    state = _stick_state([np.zeros((1, 5))], [[0.0, 0.0]], xi)
    assert np.allclose(loadings_from_atoms(state), 0.0)


def test_loadings_indicator_out_of_range():
    state = _stick_state([np.zeros((1, 3))], [[1.0, 2.0]],
                         np.array([[1, 3, 1]]))
    with pytest.raises(IndicatorOutOfRange):
        loadings_from_atoms(state)


def test_beta_moment_1():
    assert beta_moment_1(0.0, 0.7) == pytest.approx(0.5)
    assert beta_moment_1(50.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert beta_moment_1(1.0, 0.0) == pytest.approx(norm.cdf(1.0), abs=1e-6)
    assert beta_moment_1(1.0, 0.0) == pytest.approx(0.84134, abs=1e-5)


def test_beta_moment_2_orthant_closed_form():
    # zero-mean orthant probability: 1/4 + asin(r) / (2 pi)
    cov = np.array([[1.0, 1.0], [1.0, 1.0]])  # +I -> corr 0.5
    assert beta_moment_2([0.0, 0.0], cov) == pytest.approx(1.0 / 3.0, abs=1e-8)
    for s2, c in [(0.5, 0.25), (1.0, 0.6), (2.0, -0.8)]:
        cov = np.array([[s2, c], [c, s2]])
        r = c / (1.0 + s2)
        expect = 0.25 + np.arcsin(r) / (2.0 * np.pi)
        assert beta_moment_2([0.0, 0.0], cov) == pytest.approx(expect, abs=1e-8)


def test_beta_moment_2_independence():
    assert beta_moment_2([0.0, 0.0], np.zeros((2, 2))) == pytest.approx(0.25, abs=1e-10)


def test_beta_moment_2_diagonal_factorizes():
    cov = np.diag([0.5, 2.0])
    mu = [0.3, -0.7]
    expect = beta_moment_1(0.3, 0.5) * beta_moment_1(-0.7, 2.0)
    assert beta_moment_2(mu, cov) == pytest.approx(expect, abs=1e-8)


def test_psbp_process_variance():
    val = psbp_process_variance(0.5, 0.5, 1.0 / 3.0, 2)
    assert val == pytest.approx(1.0 / 9.0, abs=1e-5)
    lim = psbp_process_variance(0.5, 0.5, 1.0 / 3.0, np.inf)
    assert lim == pytest.approx(0.125, abs=1e-12)
    assert psbp_process_variance(0.0, 0.5, 1.0 / 3.0, 2) == 0.0
    assert psbp_process_variance(1.0, 0.5, 1.0 / 3.0, 2) == 0.0


def test_psbp_process_variance_degenerate():
    with pytest.raises(DegenerateDenominator):
        psbp_process_variance(0.5, 0.25, 0.5, 3)


def test_marginal_y_covariance():
    # no factors: pure noise
    assert marginal_y_covariance((0.5, 0.5), 0.3, 5, np.array([]), np.array([]),
                                 2.5, same_cell=True) == 2.5
    assert marginal_y_covariance((0.5, 0.5), 0.3, 5, np.array([]), np.array([]),
                                 2.5, same_cell=False) == 0.0
    # full shrinkage: tau -> inf
    v = marginal_y_covariance(0.5, 1.0 / 3.0, 2, np.array([1e300]), np.array([1.0]),
                              1.0, same_cell=True)
    assert v == pytest.approx(1.0, abs=1e-12)
    # bracket equals the process-variance scaling
    v = marginal_y_covariance(0.5, 1.0 / 3.0, 2, np.array([1.0]), np.array([1.0]),
                              1.0, same_cell=True)
    assert v == pytest.approx(1.0 + 4.0 / 9.0, abs=1e-5)


def test_psbp_moment_monte_carlo_small():
    # small-scale version of the acceptance oracle: closed form vs simulation
    rng = np.random.default_rng(7)
    L, reps = 5, 40000
    mu, s2 = 0.5, 1.0
    alpha = rng.normal(mu, np.sqrt(s2), size=(reps, L - 1))
    w = stick_weights_matrix(alpha.T, closing=True)  # (L, reps)
    atoms_in_B = rng.uniform(size=(L, reps)) < 0.5   # G0(B) = 0.5
    G = (w * atoms_in_B).sum(axis=0)
    b1 = beta_moment_1(mu, s2)
    b2 = beta_moment_2([mu, mu], np.full((2, 2), s2))
    expect = psbp_process_variance(0.5, b1, b2, L)
    assert abs(G.var() - expect) / expect < 0.05


def test_cross_cell_covariance_monte_carlo():
    rng = np.random.default_rng(11)
    L, reps = 5, 60000
    mu = 0.0
    cov = np.array([[1.0, 0.6], [0.6, 1.0]])
    chol = np.linalg.cholesky(cov)
    a = rng.standard_normal(size=(reps, L - 1, 2)) @ chol.T + mu
    w1 = stick_weights_matrix(a[:, :, 0].T, closing=True)
    w2 = stick_weights_matrix(a[:, :, 1].T, closing=True)
    atoms_in_B = rng.uniform(size=(L, reps)) < 0.5
    G1 = (w1 * atoms_in_B).sum(axis=0)
    G2 = (w2 * atoms_in_B).sum(axis=0)
    b1 = beta_moment_1(mu, 1.0)
    b2c = beta_moment_2([mu, mu], cov)
    expect = psbp_process_covariance(0.5, (b1, b1), b2c, L)
    emp = np.cov(G1, G2)[0, 1]
    assert abs(emp - expect) / expect < 0.05
