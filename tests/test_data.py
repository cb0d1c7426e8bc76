import numpy as np
import pytest

from spfactor.data import (
    ObservationSet,
    SpatialStructure,
    read_observations_csv,
    read_spatial_csv,
    read_times_csv,
    validate,
    write_observations_csv,
    write_spatial_csv,
    write_times_csv,
)
from spfactor.errors import (
    CountExceedsTrials,
    IsolatedLocation,
    MissingTrials,
    NonIncreasingTimes,
)

from conftest import king_grid


def make_set(T=2, O=1, m=4, **kwargs):
    rng = np.random.default_rng(0)
    sp = king_grid(2, 2) if m == 4 else king_grid(1, m)
    y = rng.normal(size=(T, O, m))
    if O > 1:
        sp = king_grid(2, 2)
        y = rng.normal(size=(T, O, sp.m))
    return ObservationSet(y=y, times=np.arange(T, dtype=float), spatial=sp, **kwargs)


def test_validate_ok():
    validate(make_set())


def test_validate_binomial_bounds():
    data = make_set()
    data.trials = np.ones_like(data.y)
    data.y = np.zeros_like(data.y)
    data.y[0, 0, 1] = 2.0
    with pytest.raises(CountExceedsTrials):
        validate(data)


def test_validate_isolated_location():
    W = np.zeros((3, 3))
    W[0, 1] = W[1, 0] = 1.0
    with pytest.raises(IsolatedLocation):
        SpatialStructure(kind="areal", adjacency=W)


def test_validate_times():
    data = make_set()
    data.times = np.array([1.0, 1.0])
    with pytest.raises(NonIncreasingTimes):
        validate(data)


def test_validate_missing_trials_for_binomial():
    with pytest.raises(MissingTrials):
        validate(make_set(), family="binomial")


def test_stack_examples():
    sp = king_grid(1, 2)
    y = np.zeros((1, 2, 2))
    y[0] = [[1.0, 2.0], [3.0, 4.0]]
    data = ObservationSet(y=np.repeat(y, 2, axis=0), times=np.array([0.0, 1.0]),
                          spatial=sp)
    assert np.array_equal(data.stacked_y()[0], [1.0, 2.0, 3.0, 4.0])

    one_type = make_set(m=4)
    assert np.array_equal(one_type.stacked_y()[0], one_type.y[0, 0])

    # m=1, O=3: a single point location, three observation types
    from conftest import point_line
    y3 = np.array([[[5.0], [6.0], [7.0]], [[0.0], [0.0], [0.0]]])
    data3 = ObservationSet(y=y3, times=np.array([0.0, 1.0]), spatial=point_line(1))
    assert np.array_equal(data3.stacked_y()[0], [5.0, 6.0, 7.0])


def test_kronecker_block_convention():
    # with (o outer, i inner) stacking, kappa (x) F has O x O blocks of m x m
    rng = np.random.default_rng(3)
    m, O = 2, 2
    kappa = np.array([[2.0, 0.5], [0.5, 1.0]])
    A = rng.normal(size=(m, m))
    F = A @ A.T + m * np.eye(m)
    direct = np.empty((m * O, m * O))
    for o1 in range(O):
        for o2 in range(O):
            direct[o1 * m:(o1 + 1) * m, o2 * m:(o2 + 1) * m] = kappa[o1, o2] * F
    assert np.allclose(direct, np.kron(kappa, F))


def test_csv_round_trip(tmp_path):
    data = make_set(T=3, O=2)
    data.covariates = np.random.default_rng(1).normal(size=(3, 2, 4, 2))
    data.missing_mask[1, 0, 2] = True
    data.y[1, 0, 2] = np.nan
    write_observations_csv(tmp_path / "obs.csv", data)
    write_times_csv(tmp_path / "times.csv", data.times)
    write_spatial_csv(tmp_path / "sp.csv", data.spatial)
    times = read_times_csv(tmp_path / "times.csv")
    sp = read_spatial_csv(tmp_path / "sp.csv")
    back = read_observations_csv(tmp_path / "obs.csv", times, sp)
    assert np.array_equal(back.missing_mask, data.missing_mask)
    obs = ~data.missing_mask
    assert np.allclose(back.y[obs], data.y[obs])
    assert np.allclose(back.covariates[obs], data.covariates[obs])
    assert np.array_equal(sp.adjacency, data.spatial.adjacency)


def test_point_spatial_csv(tmp_path):
    path = tmp_path / "coords.csv"
    path.write_text("location_id,coord1,coord2\n1,0,0\n2,3,4\n")
    sp = read_spatial_csv(path)
    assert sp.kind == "point"
    assert np.allclose(sp.distances, [[0.0, 5.0], [5.0, 0.0]])
