"""Observed-data containers, the canonical stacking order, and validation.

The data tensor ``y`` is indexed ``(t, o, i)`` for visit t, observation type
o, and location i.  Vectors over cells use the stacking where the location
index runs fastest within type blocks, so a stacked vector at visit t is
``(y[t,0,0], ..., y[t,0,m-1], y[t,1,0], ..., y[t,O-1,m-1])``.  All covariance
structures of the form ``kappa (x) F`` follow the same convention: O x O
blocks, each m x m.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CountExceedsTrials,
    DimensionMismatch,
    IncompleteBinomialCells,
    IndexOutOfRange,
    IsolatedLocation,
    KindMismatch,
    MissingRequired,
    MissingTrials,
    NonIncreasingTimes,
)


@dataclass(frozen=True)
class SpatialStructure:
    """Spatial layout of the m locations: areal adjacency or point distances."""

    kind: str  # "areal" | "point"
    adjacency: np.ndarray | None = None  # (m, m) symmetric 0/1, areal only
    distances: np.ndarray | None = None  # (m, m) symmetric >= 0, point only

    def __post_init__(self):
        if self.kind not in ("areal", "point"):
            raise ValueError(f"unknown spatial kind {self.kind!r}")
        if self.kind == "areal":
            W = np.asarray(self.adjacency, dtype=float)
            if W.ndim != 2 or W.shape[0] != W.shape[1]:
                raise DimensionMismatch("adjacency must be square")
            if not np.array_equal(W, W.T):
                raise DimensionMismatch("adjacency must be symmetric")
            if np.any(np.diag(W) != 0):
                raise DimensionMismatch("adjacency diagonal must be zero")
            object.__setattr__(self, "adjacency", W)
            if np.any(W.sum(axis=1) <= 0):
                bad = np.flatnonzero(W.sum(axis=1) <= 0)
                raise IsolatedLocation(
                    f"locations {bad + 1} have no neighbours; CAR requires none isolated"
                )
        else:
            D = np.asarray(self.distances, dtype=float)
            if D.ndim != 2 or D.shape[0] != D.shape[1]:
                raise DimensionMismatch("distance matrix must be square")
            if not np.allclose(D, D.T):
                raise DimensionMismatch("distance matrix must be symmetric")
            if np.any(np.diag(D) != 0) or np.any(D < 0):
                raise DimensionMismatch("distances must be nonnegative with zero diagonal")
            object.__setattr__(self, "distances", D)

    @property
    def m(self) -> int:
        mat = self.adjacency if self.kind == "areal" else self.distances
        return mat.shape[0]

    @property
    def neighbour_counts(self) -> np.ndarray:
        """Diagonal of D_w: number of neighbours per location (areal)."""
        if self.kind != "areal":
            raise KindMismatch("neighbour counts only defined for areal structure")
        return self.adjacency.sum(axis=1)


@dataclass
class ObservationSet:
    """Stacked longitudinal spatial data with optional trials and covariates.

    Attributes
    ----------
    y : ndarray, shape (T, O, m)
        Observed values; NaN allowed only at masked cells.
    trials : ndarray or None, shape (T, O, m)
        Binomial totals n_t(s); required for the binomial family.
    covariates : ndarray or None, shape (T, O, m, p)
        Per-cell covariate rows x_t(s); None means p = 0.
    times : ndarray, shape (T,)
        Strictly increasing follow-up times.
    spatial : SpatialStructure
    missing_mask : ndarray of bool, shape (T, O, m)
        True marks a missing cell (dropped from Gaussian likelihood terms).
    """

    y: np.ndarray
    times: np.ndarray
    spatial: SpatialStructure
    trials: np.ndarray | None = None
    covariates: np.ndarray | None = None
    missing_mask: np.ndarray = field(default=None)

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.times = np.asarray(self.times, dtype=float)
        if self.y.ndim != 3:
            raise DimensionMismatch("y must have shape (T, O, m)")
        if self.missing_mask is None:
            self.missing_mask = np.zeros(self.y.shape, dtype=bool)
        else:
            self.missing_mask = np.asarray(self.missing_mask, dtype=bool)
        if self.trials is not None:
            self.trials = np.asarray(self.trials, dtype=float)
        if self.covariates is not None:
            self.covariates = np.asarray(self.covariates, dtype=float)
            if self.covariates.ndim != 4 or self.covariates.shape[:3] != self.y.shape:
                raise DimensionMismatch("covariates must have shape (T, O, m, p)")

    # -- dimensions --------------------------------------------------------

    @property
    def T(self) -> int:
        return self.y.shape[0]

    @property
    def O(self) -> int:
        return self.y.shape[1]

    @property
    def m(self) -> int:
        return self.y.shape[2]

    @property
    def n_cells(self) -> int:
        return self.O * self.m

    @property
    def p(self) -> int:
        return 0 if self.covariates is None else self.covariates.shape[3]

    # -- stacking ------------------------------------------------------------

    def stack(self, t: int) -> np.ndarray:
        """Stacked observation vector at 1-based visit t, length m*O."""
        if not 1 <= t <= self.T:
            raise IndexOutOfRange(f"visit index {t} outside 1..{self.T}")
        return self.y[t - 1].reshape(self.n_cells).copy()

    def unstack(self, v: np.ndarray) -> np.ndarray:
        """Inverse of stack: length-mO vector back to an (O, m) grid."""
        v = np.asarray(v)
        if v.shape != (self.n_cells,):
            raise DimensionMismatch(f"expected length {self.n_cells}, got {v.shape}")
        return v.reshape(self.O, self.m)

    def stacked_y(self) -> np.ndarray:
        """All visits stacked: shape (T, mO)."""
        return self.y.reshape(self.T, self.n_cells)

    def stacked_trials(self) -> np.ndarray | None:
        if self.trials is None:
            return None
        return self.trials.reshape(self.T, self.n_cells)

    def stacked_mask(self) -> np.ndarray:
        return self.missing_mask.reshape(self.T, self.n_cells)

    def stacked_covariates(self) -> np.ndarray:
        """All design matrices: shape (T, mO, p)."""
        if self.covariates is None:
            return np.zeros((self.T, self.n_cells, 0))
        return self.covariates.reshape(self.T, self.n_cells, self.p)


def validate(data: ObservationSet, family: str | None = None) -> None:
    """Check all ObservationSet invariants; raise a ValidationError subclass.

    `family` tightens the checks: "binomial" requires trials, complete cells,
    and counts within bounds.
    """
    if data.times.shape != (data.T,):
        raise DimensionMismatch("times length must equal T")
    if data.T < 2:
        raise NonIncreasingTimes("need at least two visits")
    if np.any(np.diff(data.times) <= 0):
        raise NonIncreasingTimes("follow-up times must be strictly increasing")
    if data.spatial.m != data.m:
        raise DimensionMismatch("spatial structure size does not match m")
    if data.missing_mask.shape != data.y.shape:
        raise DimensionMismatch("missing_mask shape must match y")
    obs = ~data.missing_mask
    if not np.all(np.isfinite(data.y[obs])):
        raise MissingRequired("non-finite y at an unmasked cell")
    if family == "binomial":
        if data.trials is None:
            raise MissingTrials("binomial family requires a trials tensor")
        if data.missing_mask.any():
            raise IncompleteBinomialCells("binomial cells must be complete")
    if data.trials is not None:
        if data.trials.shape != data.y.shape:
            raise DimensionMismatch("trials shape must match y")
        if np.any(data.trials[obs] < 0) or np.any(data.trials[obs] != np.round(data.trials[obs])):
            raise CountExceedsTrials("trials must be nonnegative integers")
        if np.any(data.y[obs] < 0) or np.any(data.y[obs] > data.trials[obs]):
            raise CountExceedsTrials("need 0 <= y <= trials elementwise")


# -- file interfaces ---------------------------------------------------------
#
# Observation CSV: time_index,type_id,location_id,y[,trials][,x1..xp]
# Times CSV:       time_index,time_value
# Spatial file:    edge list "i,j" or coordinates "location_id,coord1,coord2"


def read_times_csv(path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows or "time_index" not in rows[0] or "time_value" not in rows[0]:
        raise MissingRequired(f"times file {path} needs columns time_index,time_value")
    pairs = sorted((int(r["time_index"]), float(r["time_value"])) for r in rows)
    idx = [t for t, _ in pairs]
    if idx != list(range(1, len(idx) + 1)):
        raise MissingRequired("time_index must cover 1..T exactly once")
    return np.array([v for _, v in pairs])


def read_spatial_csv(path) -> SpatialStructure:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        body = [row for row in reader if row]
    if header[:2] == ["i", "j"]:
        edges = [(int(r[0]), int(r[1])) for r in body]
        m = max(max(i, j) for i, j in edges)
        W = np.zeros((m, m))
        for i, j in edges:
            W[i - 1, j - 1] = 1.0
            W[j - 1, i - 1] = 1.0
        return SpatialStructure(kind="areal", adjacency=W)
    if header[0] == "location_id":
        coords = {int(r[0]): [float(v) for v in r[1:]] for r in body}
        m = max(coords)
        if sorted(coords) != list(range(1, m + 1)):
            raise MissingRequired("location_id must cover 1..m")
        pts = np.array([coords[i] for i in range(1, m + 1)])
        diff = pts[:, None, :] - pts[None, :, :]
        D = np.sqrt((diff ** 2).sum(axis=2))
        return SpatialStructure(kind="point", distances=D)
    raise MissingRequired(f"spatial file {path} must have header i,j or location_id,...")


def read_observations_csv(path, times: np.ndarray, spatial: SpatialStructure,
                          family: str = "gaussian") -> ObservationSet:
    """Load the long-format observation CSV into an ObservationSet.

    Cells absent from the file are marked missing (Gaussian family only).
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        cols = reader.fieldnames or []
        rows = list(reader)
    for c in ("time_index", "type_id", "location_id", "y"):
        if c not in cols:
            raise MissingRequired(f"observation file missing column {c!r}")
    has_trials = "trials" in cols
    if family == "binomial" and not has_trials:
        raise MissingRequired("binomial family requires a trials column")
    xcols = sorted((c for c in cols if c.startswith("x") and c[1:].isdigit()),
                   key=lambda c: int(c[1:]))
    p = len(xcols)

    T = len(times)
    m = spatial.m
    O = max(int(r["type_id"]) for r in rows)
    y = np.full((T, O, m), np.nan)
    mask = np.ones((T, O, m), dtype=bool)
    trials = np.zeros((T, O, m)) if has_trials else None
    covs = np.zeros((T, O, m, p)) if p else None
    for r in rows:
        t, o, i = int(r["time_index"]) - 1, int(r["type_id"]) - 1, int(r["location_id"]) - 1
        if not (0 <= t < T and 0 <= i < m):
            raise IndexOutOfRange(f"row outside grid: t={t + 1}, i={i + 1}")
        y[t, o, i] = float(r["y"])
        mask[t, o, i] = False
        if has_trials:
            trials[t, o, i] = float(r["trials"])
        for q, c in enumerate(xcols):
            covs[t, o, i, q] = float(r[c])
    data = ObservationSet(y=y, times=times, spatial=spatial, trials=trials,
                          covariates=covs, missing_mask=mask)
    validate(data, family=family)
    return data


def format_float(x) -> str:
    """Shortest round-trip decimal form; reproducible across runs."""
    return repr(float(x))


def write_observations_csv(path, data: ObservationSet) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        header = ["time_index", "type_id", "location_id", "y"]
        if data.trials is not None:
            header.append("trials")
        header += [f"x{q + 1}" for q in range(data.p)]
        w.writerow(header)
        for t in range(data.T):
            for o in range(data.O):
                for i in range(data.m):
                    if data.missing_mask[t, o, i]:
                        continue
                    row = [t + 1, o + 1, i + 1, format_float(data.y[t, o, i])]
                    if data.trials is not None:
                        row.append(format_float(data.trials[t, o, i]))
                    row += [format_float(v) for v in (
                        data.covariates[t, o, i] if data.covariates is not None else [])]
                    w.writerow(row)


def write_times_csv(path, times: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time_index", "time_value"])
        for t, v in enumerate(times, start=1):
            w.writerow([t, format_float(v)])


def write_spatial_csv(path, spatial: SpatialStructure) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if spatial.kind == "areal":
            w.writerow(["i", "j"])
            W = spatial.adjacency
            for i in range(W.shape[0]):
                for j in range(i + 1, W.shape[0]):
                    if W[i, j]:
                        w.writerow([i + 1, j + 1])
        else:
            raise KindMismatch("only areal spatial structures are written by the CLI")
