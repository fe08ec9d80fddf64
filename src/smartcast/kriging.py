"""Ordinary kriging with a Gaussian variogram, on numpy arrays.

Samples are an (n, 2) coordinate array and an (n,) value array. The
module fits a Gaussian variogram to them by closed-form leave-one-out over
a fixed grid of ranges and nugget/sill ratios, assembles the bordered
ordinary-kriging system with nugget escalation, scores it by leave-one-out,
and kriges query points, a grid's cell centres among them, with `krige`.
Per-depth grids stack into a moisture volume with file exports. Every
kriging solve is one `np.linalg.solve` on the model's bordered matrix. The
fit does not use `empirical_variogram`; `bench/tracing.py` times it.

The Gaussian model uses the practical-range convention
gamma(h) = nugget + sill * (1 - exp(-3 h^2 / a^2)) with gamma(0) = 0.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    DataError,
    FactorizationError,
    FlatFieldError,
    InsufficientDataError,
    ShapeError,
    UndefinedScoreError,
)
from .vegindex import DEFAULT_NODATA, BandGrid, write_bandgrid, write_pgm

_JITTER_START = 1e-10
_JITTER_STOP = 1e-6
VARIOGRAM_BINS = 15
# fit_variogram's candidates: ranges from 1/8 to ~1.83 times half the largest
# sample distance, a sixth of a decade apart, and nugget/sill ratios.
RANGE_FACTORS = 10 ** (np.arange(8) / 6) / 8
NUGGET_RATIOS = (1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3)


@dataclass(frozen=True)
class Variogram:
    """Gaussian variogram parameters (practical-range convention)."""

    nugget: float
    sill: float
    range_a: float

    def __post_init__(self):
        if self.nugget < 0 or self.sill <= 0 or self.range_a <= 0:
            raise DataError(
                f"need nugget >= 0, sill > 0, range > 0; got ({self.nugget}, {self.sill}, {self.range_a})"
            )


@dataclass(frozen=True)
class GridGeometry:
    """Uniform cell grid; row 0 is the southmost row, origin the SW corner."""

    nx: int
    ny: int
    cell_size: float
    x0: float = 0.0
    y0: float = 0.0

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1 or self.cell_size <= 0:
            raise DataError("grid must have positive dimensions and cell size")

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        xs = self.x0 + (np.arange(self.nx) + 0.5) * self.cell_size
        ys = self.y0 + (np.arange(self.ny) + 0.5) * self.cell_size
        return xs, ys


@dataclass(frozen=True)
class KrigingModel:
    """Assembled ordinary-kriging system over a fixed sample set."""

    points: np.ndarray          # (n, 2)
    values: np.ndarray          # (n,)
    variogram: Variogram        # as solved: the requested nugget plus `jitter`
    system: np.ndarray          # (n+1, n+1) bordered matrix, probe-solved by build_model
    jitter: float               # nugget added to make the system solvable


@dataclass(frozen=True)
class DepthLayer:
    """Interpolated grid (values + kriging variance) at one depth."""

    depth_cm: int
    geometry: GridGeometry
    values: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        shape = (self.geometry.ny, self.geometry.nx)
        if self.values.shape != shape or self.variance.shape != shape:
            raise ShapeError(f"layer arrays must be {shape}")


@dataclass(frozen=True)
class MoistureVolume:
    """Depth-sorted stack of interpolated layers sharing one geometry."""

    layers: tuple[DepthLayer, ...]

    def __post_init__(self):
        if not self.layers:
            raise DataError("volume needs at least one layer")
        depths = [l.depth_cm for l in self.layers]
        if any(b <= a for a, b in zip(depths, depths[1:])):
            raise DataError("layers must be sorted by strictly increasing depth")
        if len({l.geometry for l in self.layers}) != 1:
            raise DataError("all layers must share one grid geometry")


# -- variogram -----------------------------------------------------------------

def gaussian_variogram(h: np.ndarray | float, v: Variogram) -> np.ndarray | float:
    """Semivariance at lag h: 0 at h=0, else nugget + sill*(1 - exp(-3h^2/a^2))."""
    h_arr = np.asarray(h, dtype=np.float64)
    if np.any(h_arr < 0):
        raise DataError("lag distance must be nonnegative")
    gamma = np.where(h_arr > 0.0, v.nugget + v.sill * (1.0 - np.exp(-3.0 * h_arr**2 / v.range_a**2)), 0.0)
    return float(gamma) if np.isscalar(h) else gamma


def _samples(points, values) -> tuple[np.ndarray, np.ndarray]:
    """Finite float64 sample coordinates (n, 2) and values (n,), no two at one location."""
    points = np.asarray(points, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or points.shape != (values.size, 2):
        raise ShapeError(f"need points (n, 2) and values (n,); got {points.shape} and {values.shape}")
    if not (np.isfinite(points).all() and np.isfinite(values).all()):
        raise DataError("sample coordinates and values must be finite")
    same = (points[:, None, 0] == points[None, :, 0]) & (points[:, None, 1] == points[None, :, 1])
    pairs = np.argwhere(np.triu(same, k=1))  # row-major: the first pair a nested i < j loop meets
    if pairs.size:
        i, j = pairs[0]
        raise DataError(f"samples {i} and {j} share coordinates ({points[i, 0]}, {points[i, 1]})")
    return points, values


def empirical_variogram(points: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Binned empirical semivariances: (1/2N_b) * sum of squared value diffs.

    Pairs at lag up to half the largest pairwise distance are assigned to
    VARIOGRAM_BINS uniform bins. Returns the nonempty bins' mean lags,
    semivariances and pair counts. Raises DataError when no pair falls
    inside that lag.
    """
    points, values = _samples(points, values)
    if values.size < 2:
        raise InsufficientDataError("empirical variogram needs at least 2 samples")
    iu, ju = np.triu_indices(values.size, k=1)
    lags = _distances(points, points)[iu, ju]
    sqdiff = (values[iu] - values[ju]) ** 2
    max_lag = float(lags.max()) / 2.0
    keep = (lags > 0) & (lags <= max_lag)
    if not keep.any():
        raise DataError(f"no sample pair within half the largest pairwise distance ({max_lag})")
    lags, sqdiff = lags[keep], sqdiff[keep]
    edges = np.linspace(0.0, max_lag, VARIOGRAM_BINS + 1)
    which = np.minimum(np.digitize(lags, edges) - 1, VARIOGRAM_BINS - 1)
    bins = [sel for sel in (which == b for b in range(VARIOGRAM_BINS)) if sel.any()]
    counts = np.array([int(sel.sum()) for sel in bins])
    semivariances = np.array([sqdiff[sel].sum() for sel in bins]) / (2.0 * counts)
    return np.array([lags[sel].mean() for sel in bins]), semivariances, counts


def _loo_grid(points: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate ranges (R,), and each (range, ratio) candidate's LOO
    score and calibrated sill, (R, K) each. At unit sill the covariance
    is C = R + r I, R the Gaussian correlation: one eigh of R per range
    makes each ratio r a diagonal shift, so the Dubrule residuals
    Qz / diag(Q), Q = C^-1 - C^-1 11' C^-1 / 1'C^-1 1, and the LOO
    variances sill / diag(Q) cost O(n^2) per candidate."""
    h2 = _distances(points, points) ** 2
    ranges = RANGE_FACTORS * np.sqrt(h2.max()) / 2.0
    ss_tot = ((values - values.mean()) ** 2).sum()
    scores = np.empty((ranges.size, len(NUGGET_RATIOS)))
    sills = np.empty_like(scores)
    for k, a in enumerate(ranges):
        lam, vec = np.linalg.eigh(np.exp(-3.0 * h2 / a**2))
        d = 1.0 / (lam[:, None] + NUGGET_RATIOS)  # (n, K): eigenvalues of C^-1
        vz, v1 = values @ vec, vec.sum(axis=0)
        cz, c1 = vec @ (d * vz[:, None]), vec @ (d * v1[:, None])
        s11 = v1**2 @ d
        qz = cz - c1 * ((v1 * vz) @ d / s11)
        resid = qz / (vec**2 @ d - c1**2 / s11)
        scores[k] = 1.0 - (resid**2).sum(axis=0) / ss_tot
        sills[k] = (qz * resid).mean(axis=0)  # mean(e^2 / var) = 1
    return ranges, scores, sills


def fit_variogram(points: np.ndarray, values: np.ndarray) -> Variogram:
    """The Gaussian variogram whose range and nugget/sill ratio score the
    highest leave-one-out R^2 among RANGE_FACTORS x NUGGET_RATIOS (Cressie
    1993, section 2.6.4; the first wins a tie, ranges outermost). Kriging
    weights do not depend on the sill; it is set so the LOO standardized
    errors have mean square 1. Needs 3 samples not all equal in value."""
    points, values = _samples(points, values)
    if values.size < 3:
        raise InsufficientDataError(f"variogram fit needs >= 3 samples, have {values.size}")
    if np.ptp(values) == 0.0:
        raise FlatFieldError("sample values are constant; the field is flat")
    ranges, scores, sills = _loo_grid(points, values)
    k, j = np.unravel_index(np.argmax(scores), scores.shape)
    sill = float(sills[k, j])
    return Variogram(nugget=NUGGET_RATIOS[j] * sill, sill=sill, range_a=float(ranges[k]))


# -- kriging system --------------------------------------------------------------

def _distances(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(m, k) Euclidean distances between the rows of p (m, 2) and q (k, 2)."""
    dx = p[:, None, 0] - q[None, :, 0]
    dy = p[:, None, 1] - q[None, :, 1]
    return np.sqrt(dx * dx + dy * dy)


def _assemble(points: np.ndarray, v: Variogram) -> np.ndarray:
    n = points.shape[0]
    a = np.zeros((n + 1, n + 1))
    a[:n, :n] = gaussian_variogram(_distances(points, points), v)
    a[:n, n] = 1.0
    a[n, :n] = 1.0
    return a


def build_model(points: np.ndarray, values: np.ndarray, variogram: Variogram) -> KrigingModel:
    """Assemble the bordered ordinary-kriging system over samples at
    `points` (n, 2) with `values` (n,), and probe-solve it.

    Coordinates and values must be finite; exact duplicate coordinates
    are rejected. If the probe solve hits a zero pivot or fails its
    residual check, the variogram's nugget is raised by a jitter
    escalating from 1e-10*sill to 1e-6*sill by factors of 10 before
    giving up; in variogram form a nugget adds to the off-diagonal
    entries, never the diagonal. The model carries the raised variogram.
    """
    points, values = _samples(points, values)
    n = values.size
    if n == 0:
        raise InsufficientDataError("kriging needs at least one sample")

    jitters = [0.0] + [
        variogram.sill * _JITTER_START * 10**k
        for k in range(int(np.log10(_JITTER_STOP / _JITTER_START)) + 1)
    ]
    for jitter in jitters:
        v = replace(variogram, nugget=variogram.nugget + jitter)
        a = _assemble(points, v)
        b = a @ np.ones(n + 1)
        try:
            solved = np.linalg.solve(a, b)  # LinAlgError on an exactly zero pivot
        except np.linalg.LinAlgError:
            continue
        resid = np.abs(a @ solved - b).max()
        scale = max(1.0, np.abs(a).max())
        if np.isfinite(resid) and resid <= 1e-9 * scale:
            return KrigingModel(points=points, values=values, variogram=v, system=a, jitter=jitter)
    raise FactorizationError(f"kriging system singular even with jitter {jitters[-1]:.3e}")


def krige(model: KrigingModel, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kriged values (k,), variances (k,) and weights (n, k) at query
    points (k, 2).

    One solve of the bordered system against all k right-hand sides
    (gamma_1..gamma_n, 1), so results do not depend on the order or
    grouping of the queries. Each weight column sums to 1; the variance
    is sum(w_i * gamma_i) + mu, nonnegative up to round-off.
    """
    rhs = np.ones((model.values.size + 1, points.shape[0]))
    rhs[:-1] = gaussian_variogram(_distances(model.points, points), model.variogram)
    sol = np.linalg.solve(model.system, rhs)
    w = sol[:-1]
    return w.T @ model.values, np.sum(w * rhs[:-1], axis=0) + sol[-1], w


def interpolate_grid(model: KrigingModel, geometry: GridGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Kriged value and variance at every cell center of a grid, (ny, nx) each."""
    gx, gy = np.meshgrid(*geometry.cell_centers())
    values, variances, _ = krige(model, np.column_stack([gx.ravel(), gy.ravel()]))
    return values.reshape(geometry.ny, geometry.nx), variances.reshape(geometry.ny, geometry.nx)


def loo_score(model: KrigingModel) -> float:
    """Leave-one-out coefficient of determination in (-inf, 1].

    Each sample is predicted from the remaining ones under the model's
    variogram; the score is 1 - SS_res/SS_tot. Raises
    UndefinedScoreError when the sample values have zero variance.

    All n residuals come from one solve of the model's bordered system
    A: with z = (values, 0), e_i = (A^-1 z)_i / (A^-1)_ii (Dubrule
    1983), which equals refitting without sample i under the same
    jitter.
    """
    n = model.values.size
    if n < 3:
        raise InsufficientDataError("leave-one-out scoring needs at least 3 samples")
    ss_tot = float(((model.values - model.values.mean()) ** 2).sum())
    if ss_tot == 0.0:
        raise UndefinedScoreError("sample values are constant; the score is undefined")
    sol = np.linalg.solve(model.system, np.column_stack([np.append(model.values, 0.0), np.eye(n + 1)]))
    residuals = sol[:n, 0] / np.diag(sol[:n, 1 : n + 1])
    ss_res = float((residuals**2).sum())
    return 1.0 - ss_res / ss_tot


def stack_depths(layers: list[DepthLayer]) -> MoistureVolume:
    """Sort per-depth layers into a volume; geometry must be uniform."""
    if not layers:
        raise InsufficientDataError("no layers to stack")
    depths = [l.depth_cm for l in layers]
    if len(set(depths)) != len(depths):
        raise DataError(f"duplicate depths in {sorted(depths)}")
    ordered = tuple(sorted(layers, key=lambda l: l.depth_cm))
    return MoistureVolume(layers=ordered)


# -- exports ----------------------------------------------------------------------

def export_grid_csv(volume: MoistureVolume, path: str | Path) -> None:
    """Write `x,y,depth_cm,value,variance` rows for every non-NaN cell,
    depth by depth, row-major within a depth."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "depth_cm", "value", "variance"])
        for layer in volume.layers:
            x, y = np.meshgrid(*layer.geometry.cell_centers())
            kept = ~np.isnan(layer.values)
            x, y, values, variance = (a[kept].tolist() for a in (x, y, layer.values, layer.variance))
            writer.writerows(zip(x, y, itertools.repeat(layer.depth_cm), values, variance))


def export_volume(volume: MoistureVolume, out_dir: str | Path) -> Path:
    """Write one 2-band BandGrid (+ PGM heatmap) per depth and a manifest.

    Returns the manifest path; NaN cells become the nodata sentinel.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = out_dir / "manifest.csv"
    with manifest.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["depth_cm", "path"])
        for layer in volume.layers:
            name = f"depth_{layer.depth_cm:03d}.bgrid"
            values = np.where(np.isnan(layer.values), DEFAULT_NODATA, layer.values)
            variance = np.where(np.isnan(layer.variance), DEFAULT_NODATA, layer.variance)
            grid = BandGrid(
                width=layer.geometry.nx,
                height=layer.geometry.ny,
                nodata=DEFAULT_NODATA,
                band_names=("moisture", "variance"),
                data=np.stack([values, variance]).astype(np.float32),
            )
            write_bandgrid(grid, out_dir / name)
            write_pgm(values, out_dir / f"depth_{layer.depth_cm:03d}.pgm", nodata=DEFAULT_NODATA)
            writer.writerow([layer.depth_cm, name])
    return manifest
