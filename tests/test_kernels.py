import numpy as np
import pytest

from spfactor.data import SpatialStructure
from spfactor.errors import DuplicateTimes, KindMismatch, NonPositiveDefinite
from spfactor.kernels import (
    SpatialKernelSpec,
    TemporalKernelSpec,
    psi_bounds,
    spatial_correlation,
    temporal_correlation,
    temporal_correlation_stack,
)

from conftest import point_line

PAIR = SpatialStructure(kind="areal", adjacency=np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_car_two_by_two():
    F = spatial_correlation(SpatialKernelSpec("car", 0.99), PAIR)[0]
    assert np.allclose(F, [[50.2513, 49.7487], [49.7487, 50.2513]], atol=1e-3)


def test_car_rho_zero_is_inverse_degree():
    F = spatial_correlation(SpatialKernelSpec("car", 0.0), PAIR)[0]
    assert np.allclose(F, np.eye(2))


def test_exponential_gp():
    F = spatial_correlation(SpatialKernelSpec("exponential-gp", 1.0), point_line(2))[0]
    assert np.allclose(F, [[1.0, np.exp(-1.0)], [np.exp(-1.0), 1.0]], atol=1e-5)


def test_kind_mismatch():
    with pytest.raises(KindMismatch):
        spatial_correlation(SpatialKernelSpec("car", 0.5), point_line(2))
    with pytest.raises(KindMismatch):
        spatial_correlation(SpatialKernelSpec("exponential-gp", 1.0), PAIR)


def test_car_rho_bounds():
    with pytest.raises(ValueError):
        SpatialKernelSpec("car", 1.0)
    with pytest.raises(ValueError):
        SpatialKernelSpec("exponential-gp", 0.0)


def test_car_inverse_identity():
    rng = np.random.default_rng(1)
    W = (rng.uniform(size=(6, 6)) < 0.5).astype(float)
    W = np.triu(W, 1)
    W = W + W.T
    W[W.sum(axis=1) == 0, 0] = 1.0
    W[0, W.sum(axis=1) == 0] = 1.0
    np.fill_diagonal(W, 0.0)
    struct = SpatialStructure(kind="areal", adjacency=W)
    rho = 0.97
    F = spatial_correlation(SpatialKernelSpec("car", rho), struct)[0]
    prec = np.diag(W.sum(axis=1)) - rho * W
    assert np.max(np.abs(F @ prec - np.eye(6))) < 1e-10


def test_returned_matrices_are_spd():
    # each builder returns the matrix and its lower Cholesky factor
    for F, factor in (spatial_correlation(SpatialKernelSpec("car", 0.99), PAIR),
                      spatial_correlation(SpatialKernelSpec("exponential-gp", 0.3),
                                          point_line(5)),
                      temporal_correlation(TemporalKernelSpec("ar1", 0.3),
                                           np.linspace(0, 1, 6)),
                      temporal_correlation(TemporalKernelSpec("exponential", 2.0),
                                           np.linspace(0, 1, 6))):
        assert np.array_equal(factor, np.linalg.cholesky(F))


def test_ar1_powers():
    H = temporal_correlation(TemporalKernelSpec("ar1", 0.3), np.array([0.0, 1.0, 2.0]))[0]
    assert np.allclose(H, [[1.0, 0.3, 0.09], [0.3, 1.0, 0.3], [0.09, 0.3, 1.0]])


def test_ar1_zero_is_identity():
    H = temporal_correlation(TemporalKernelSpec("ar1", 0.0), np.array([0.0, 1.0, 2.0]))[0]
    assert np.allclose(H, np.eye(3))


def test_exponential_zero_rate_flagged():
    with pytest.raises(ValueError):
        TemporalKernelSpec("exponential", 0.0)
    # a degenerate all-ones matrix must be reported, not returned
    class Loose:
        kind = "exponential"
        psi = 1e-18
    with pytest.raises(NonPositiveDefinite):
        temporal_correlation(Loose, np.linspace(0.0, 1.0, 4))


@pytest.mark.parametrize("kind, psi, times", [
    ("exponential", [0.4, 2.5], np.array([0.0, 0.3, 1.0, 1.7])),
    ("ar1", [0.6, -0.3, 0.0], np.arange(5.0)),
])
def test_temporal_correlation_is_the_kernel_formula(kind, psi, times):
    # the fit's H(psi), bit for bit, whatever builds it
    gaps = np.abs(times[:, None] - times[None, :])
    for value in psi:
        want = np.power(value, gaps) if kind == "ar1" else np.exp(-value * gaps)
        np.fill_diagonal(want, 1.0)
        got = temporal_correlation(TemporalKernelSpec(kind, value), times)[0]
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind, psi, times", [
    ("exponential", [0.4, 2.5, 0.4, 1e-9], np.array([0.0, 0.3, 1.0, 1.7])),
    ("ar1", [0.6, -0.3, 0.0, 0.999], np.arange(5.0)),
])
def test_temporal_stack_equals_single_builds(kind, psi, times):
    H = temporal_correlation_stack(kind, np.array(psi), times)
    for s, value in enumerate(psi):
        one = temporal_correlation(TemporalKernelSpec(kind, value), times)[0]
        assert H[s].tobytes() == one.tobytes()


@pytest.mark.parametrize("kind, psi, times, error", [
    ("ar1", 1.2, np.arange(3.0), ValueError),
    ("exponential", -1.0, np.arange(3.0), ValueError),
    ("exponential", 0.5, np.array([0.0, 2.0, 1.0]), DuplicateTimes),
    ("exponential", 0.5, np.array([0.0, 1.0, 1.0]), DuplicateTimes),
    ("exponential", 1e-18, np.linspace(0.0, 1.0, 4), NonPositiveDefinite),
    ("ar1", -0.5, np.array([0.0, 0.5, 1.0]), NonPositiveDefinite),
], ids=["ar1-psi-out-of-range", "exponential-negative-psi", "unordered-times",
        "repeated-time", "unit-off-diagonal", "ar1-negative-psi-fractional-gap"])
def test_temporal_stack_makes_the_single_build_checks(kind, psi, times, error):
    with pytest.raises(error):
        temporal_correlation(TemporalKernelSpec(kind, psi), times)
    with pytest.raises(error):
        temporal_correlation_stack(kind, np.array([0.5 if kind == "ar1" else 1.0, psi]),
                                   times)


def test_ar1_screening_tridiagonal():
    times = np.arange(8, dtype=float)
    H = temporal_correlation(TemporalKernelSpec("ar1", 0.6), times)[0]
    Hinv = np.linalg.inv(H)
    off = np.triu(np.abs(Hinv), 2)
    assert off.max() < 1e-10


def test_psi_bounds_uniform_times():
    a, b = psi_bounds(np.linspace(0.0, 1.0, 10))
    # independent solve of exp(-psi d) = target
    assert a == pytest.approx(-np.log(0.95) / 1.0, abs=1e-3)
    assert b == pytest.approx(-np.log(0.01) / (1.0 / 9.0), abs=1e-3)
    assert a == pytest.approx(0.05129, abs=1e-3)
    assert b == pytest.approx(41.447, abs=1e-3)
    assert a < b


def test_psi_bounds_two_times():
    a, b = psi_bounds(np.array([0.0, 1.0]))
    assert a == pytest.approx(0.05129, abs=1e-3)
    assert b == pytest.approx(4.6052, abs=1e-3)


def test_psi_bounds_duplicate_times():
    with pytest.raises(DuplicateTimes):
        psi_bounds(np.array([0.0, 1.0, 1.0]))
