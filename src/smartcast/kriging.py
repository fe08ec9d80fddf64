"""Ordinary kriging with a Gaussian variogram, on numpy arrays.

Samples are a `SampleLayout` of (n, 2) coordinates, checked once, and
an (n,) value array. The module works in covariance form, C = sill *
(R + r I), with R the samples' Gaussian correlation and r = nugget/sill.
One `np.linalg.eigh` of R per range gives every kriging quantity as GEMMs
and elementwise work with the diagonal 1/(lambda + r): the variogram fit
scores a grid of ranges and ratios by closed-form leave-one-out,
`build_model` keeps the eigenpairs of one variogram, and `krige` and
`loo_score` use them. The layout holds what depends on the sample
locations alone, so depths sampled at one set of locations share each
range's eigh. A covariance whose condition number exceeds COND_BOUND is
refused. The per-depth grids form a moisture volume with file exports.
The fit does not use `empirical_variogram`; `bench/tracing.py` times it.

The Gaussian model uses the practical-range convention
gamma(h) = nugget + sill * (1 - exp(-3 h^2 / a^2)) with gamma(0) = 0, so
C(h) = sill * exp(-3 h^2 / a^2) for h > 0 and C(0) = nugget + sill.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field
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

VARIOGRAM_BINS = 15
# fit_variogram's candidates: ranges from 1/8 to ~1.83 times half the largest
# sample distance, a sixth of a decade apart, and nugget/sill ratios.
RANGE_FACTORS = 10 ** (np.arange(8) / 6) / 8
NUGGET_RATIOS = (1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3)
# build_model refuses a covariance R + r I with a larger condition number.
COND_BOUND = 1e10


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


class SampleLayout:
    """Sample locations (n, 2), finite and no two alike, and what kriging
    computes from them alone: the squared sample distances and, each on
    first use and then kept, the correlation eigenpairs at each range asked
    for and the sample-to-cell distances of each grid. Depths sampled at the
    same locations share one layout, so a range's eigh runs once for all of
    them; each kept range holds n^2 + n floats."""

    def __init__(self, points):
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 2:
            raise ShapeError(f"need points (n, 2); got {points.shape}")
        if not np.isfinite(points).all():
            raise DataError("sample coordinates and values must be finite")
        same = (points[:, None, 0] == points[None, :, 0]) & (points[:, None, 1] == points[None, :, 1])
        pairs = np.argwhere(np.triu(same, k=1))  # row-major: the first pair a nested i < j loop meets
        if pairs.size:
            i, j = pairs[0]
            raise DataError(f"samples {i} and {j} share coordinates ({points[i, 0]}, {points[i, 1]})")
        self.points = points
        self.h2 = _distances(points, points) ** 2
        self._eigh: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        self._cells: dict[GridGeometry, np.ndarray] = {}

    def correlation_eigh(self, range_a: float) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and eigenvectors of the Gaussian
        correlation exp(-3 h^2 / a^2) of the samples at range a."""
        if range_a not in self._eigh:
            self._eigh[range_a] = np.linalg.eigh(np.exp(-3.0 * self.h2 / range_a**2))
        return self._eigh[range_a]

    def cell_distances(self, geometry: GridGeometry) -> np.ndarray:
        """(n, ny * nx) distances from each sample to each cell centre, row-major."""
        if geometry not in self._cells:
            gx, gy = np.meshgrid(*geometry.cell_centers())
            self._cells[geometry] = _distances(self.points, np.column_stack([gx.ravel(), gy.ravel()]))
        return self._cells[geometry]


@dataclass(frozen=True)
class KrigingModel:
    """Ordinary-kriging model over a fixed sample set: the sample layout,
    and the eigenpairs of its Gaussian correlation matrix R under `variogram`."""

    layout: SampleLayout = field(repr=False, compare=False)
    values: np.ndarray          # (n,)
    variogram: Variogram
    eigenvalues: np.ndarray     # (n,) of R, ascending
    eigenvectors: np.ndarray    # (n, n), one per column
    # Always 0.0: an ill-conditioned covariance is refused, never nudged.
    # Kept because the benchmark's tracer counts models with jitter > 0.
    jitter: float = 0.0


@dataclass(frozen=True)
class MoistureVolume:
    """Kriged values and variances at each depth on one grid."""

    depths: tuple[int, ...]     # increasing
    geometry: GridGeometry
    values: np.ndarray          # (D, ny, nx)
    variance: np.ndarray        # (D, ny, nx)


# -- variogram -----------------------------------------------------------------

def _values(layout: SampleLayout, values) -> np.ndarray:
    """Finite float64 sample values (n,), one per point of `layout`."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (len(layout.points),):
        raise ShapeError(f"need points (n, 2) and values (n,); got {layout.points.shape} and {values.shape}")
    if not np.isfinite(values).all():
        raise DataError("sample coordinates and values must be finite")
    return values


def empirical_variogram(layout: SampleLayout, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Binned empirical semivariances: (1/2N_b) * sum of squared value diffs.

    Pairs at lag up to half the largest pairwise distance are assigned to
    VARIOGRAM_BINS uniform bins. Returns the nonempty bins' mean lags,
    semivariances and pair counts. Raises DataError when no pair falls
    inside that lag.
    """
    values = _values(layout, values)
    if values.size < 2:
        raise InsufficientDataError("empirical variogram needs at least 2 samples")
    iu, ju = np.triu_indices(values.size, k=1)
    lags = _distances(layout.points, layout.points)[iu, ju]
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


def _dubrule(
    lam: np.ndarray, vec: np.ndarray, values: np.ndarray, ratios: tuple[float, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Leave-one-out R^2 and calibrated sill (K,) at each nugget/sill ratio
    (K,), from the eigenpairs of R. At unit sill C = R + r I, so the
    Dubrule (1983) residuals are Qz / diag(Q), Q = C^-1 - C^-1 11' C^-1 /
    1'C^-1 1, and the LOO variances sill / diag(Q): O(n^2) per ratio."""
    d = 1.0 / (lam[:, None] + ratios)  # (n, K): eigenvalues of C^-1
    vz, v1 = values @ vec, vec.sum(axis=0)
    cz, c1 = vec @ (d * vz[:, None]), vec @ (d * v1[:, None])
    s11 = v1**2 @ d
    qz = cz - c1 * ((v1 * vz) @ d / s11)
    resid = qz / (vec**2 @ d - c1**2 / s11)
    ss_tot = ((values - values.mean()) ** 2).sum()
    return 1.0 - (resid**2).sum(axis=0) / ss_tot, (qz * resid).mean(axis=0)  # sill: mean(e^2 / var) = 1


def _loo_grid(layout: SampleLayout, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate ranges (R,), and each (range, ratio) candidate's LOO
    score and calibrated sill, (R, K) each: one eigh of R per range
    makes every ratio a diagonal shift."""
    ranges = RANGE_FACTORS * np.sqrt(layout.h2.max()) / 2.0
    scores = np.empty((ranges.size, len(NUGGET_RATIOS)))
    sills = np.empty_like(scores)
    for k, a in enumerate(ranges):
        scores[k], sills[k] = _dubrule(*layout.correlation_eigh(a), values, NUGGET_RATIOS)
    return ranges, scores, sills


def fit_variogram(layout: SampleLayout, values: np.ndarray) -> Variogram:
    """The Gaussian variogram whose range and nugget/sill ratio score the
    highest leave-one-out R^2 among RANGE_FACTORS x NUGGET_RATIOS (Cressie
    1993, section 2.6.4; the first wins a tie, ranges outermost). Kriging
    weights do not depend on the sill; it is set so the LOO standardized
    errors have mean square 1. Needs 3 samples not all equal in value;
    the layout keeps each range's eigenpairs for `build_model`."""
    values = _values(layout, values)
    if values.size < 3:
        raise InsufficientDataError(f"variogram fit needs >= 3 samples, have {values.size}")
    if np.ptp(values) == 0.0:
        raise FlatFieldError("sample values are constant; the field is flat")
    ranges, scores, sills = _loo_grid(layout, values)
    k, j = np.unravel_index(np.argmax(scores), scores.shape)
    sill = float(sills[k, j])
    return Variogram(nugget=NUGGET_RATIOS[j] * sill, sill=sill, range_a=float(ranges[k]))


# -- kriging -------------------------------------------------------------------------

def _distances(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(m, k) Euclidean distances between the rows of p (m, 2) and q (k, 2)."""
    dx = p[:, None, 0] - q[None, :, 0]
    dy = p[:, None, 1] - q[None, :, 1]
    return np.sqrt(dx * dx + dy * dy)


def build_model(layout: SampleLayout, values: np.ndarray, variogram: Variogram) -> KrigingModel:
    """The kriging model of samples at the layout's points with `values`
    (n,) under `variogram`: one eigendecomposition of their correlation R,
    taken from `layout` when it holds that range already.

    Values must be finite, one per point. Raises FactorizationError when
    cond(R + r I) = (lambda_max + r) / (lambda_min + r) exceeds COND_BOUND,
    counted as infinite when lambda_min + r <= 0; only a tiny nugget on
    nearly coincident samples gets there.
    """
    values = _values(layout, values)
    if values.size == 0:
        raise InsufficientDataError("kriging needs at least one sample")
    lam, vec = layout.correlation_eigh(variogram.range_a)
    r = variogram.nugget / variogram.sill
    cond = (lam[-1] + r) / (lam[0] + r) if lam[0] + r > 0.0 else np.inf
    if cond > COND_BOUND:
        raise FactorizationError(
            f"kriging covariance too ill-conditioned: cond(R + rI) = {cond:.3g} > {COND_BOUND:.0e} "
            f"at nugget/sill ratio r = {r:.3g}"
        )
    return KrigingModel(layout, values, variogram, eigenvalues=lam, eigenvectors=vec)


def krige(model: KrigingModel, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kriged values (k,), variances (k,) and weights (n, k) at query
    points (k, 2).

    With c the queries' unit-sill covariances to the samples (1 + r at a
    sample) and A = (R + r I)^-1, the weights are A (c + 1 t), t = (1 -
    1'A c) / 1'A 1, so each column sums to 1, and the variance is sill *
    (1 + r - c'A c + t^2 1'A 1), nonnegative up to round-off. Every term is
    V'c weighted by 1/(lambda + r), so results do not depend on the order
    or grouping of the queries.
    """
    return _krige(model, _distances(model.layout.points, points))


def _krige(model: KrigingModel, h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`krige` at the queries whose distances to the samples are h (n, k)."""
    v = model.variogram
    r = v.nugget / v.sill
    vec = model.eigenvectors
    d = 1.0 / (model.eigenvalues + r)
    vc = vec.T @ np.where(h > 0.0, np.exp(-3.0 * h**2 / v.range_a**2), 1.0 + r)
    v1 = vec.sum(axis=0)
    s11 = v1**2 @ d
    t = (1.0 - (d * v1) @ vc) / s11
    weights = vec @ (d[:, None] * (vc + v1[:, None] * t))
    variances = v.sill * ((1.0 + r) - d @ vc**2 + t**2 * s11)
    return weights.T @ model.values, variances, weights


def interpolate_grid(model: KrigingModel, geometry: GridGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Kriged value and variance at every cell center of a grid, (ny, nx)
    each; the model's layout keeps the cells' distances to the samples."""
    values, variances, _ = _krige(model, model.layout.cell_distances(geometry))
    return values.reshape(geometry.ny, geometry.nx), variances.reshape(geometry.ny, geometry.nx)


def loo_score(model: KrigingModel) -> float:
    """Leave-one-out coefficient of determination in (-inf, 1].

    Each sample is predicted from the remaining ones under the model's
    variogram; the score is 1 - SS_res/SS_tot, by the closed form the
    variogram fit scores its candidates with, so a fitted model scores
    what its fit did. Raises UndefinedScoreError when the sample values
    are constant.
    """
    if model.values.size < 3:
        raise InsufficientDataError("leave-one-out scoring needs at least 3 samples")
    if np.ptp(model.values) == 0.0:
        raise UndefinedScoreError("sample values are constant; the score is undefined")
    r = model.variogram.nugget / model.variogram.sill
    scores, _ = _dubrule(model.eigenvalues, model.eigenvectors, model.values, (r,))
    return float(scores[0])


# -- exports ----------------------------------------------------------------------

def export_grid_csv(volume: MoistureVolume, path: str | Path) -> None:
    """Write `x,y,depth_cm,value,variance` rows for every non-NaN cell,
    depth by depth, row-major within a depth."""
    x, y = np.meshgrid(*volume.geometry.cell_centers())
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "depth_cm", "value", "variance"])
        for depth, values, variance in zip(volume.depths, volume.values, volume.variance):
            kept = ~np.isnan(values)
            xs, ys, kept_values, kept_variance = (a[kept].tolist() for a in (x, y, values, variance))
            writer.writerows(zip(xs, ys, itertools.repeat(depth), kept_values, kept_variance))


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
        for depth, values, variance in zip(volume.depths, volume.values, volume.variance):
            name = f"depth_{depth:03d}.bgrid"
            values = np.where(np.isnan(values), DEFAULT_NODATA, values)
            variance = np.where(np.isnan(variance), DEFAULT_NODATA, variance)
            grid = BandGrid(
                width=volume.geometry.nx,
                height=volume.geometry.ny,
                nodata=DEFAULT_NODATA,
                band_names=("moisture", "variance"),
                data=np.stack([values, variance]).astype(np.float32),
            )
            write_bandgrid(grid, out_dir / name)
            write_pgm(values, out_dir / f"depth_{depth:03d}.pgm")
            writer.writerow([depth, name])
    return manifest
