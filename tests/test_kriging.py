"""Variogram math, ordinary-kriging solves, grid interpolation, exports."""

import csv
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve
from scipy.spatial.distance import cdist

from smartcast import kriging
from smartcast.errors import (
    DataError,
    FactorizationError,
    FlatFieldError,
    InsufficientDataError,
    ShapeError,
    UndefinedScoreError,
)
from smartcast.kriging import (
    GridGeometry,
    MoistureVolume,
    SampleLayout,
    Variogram,
    build_model,
    empirical_variogram,
    export_grid_csv,
    export_volume,
    fit_variogram,
    interpolate_grid,
    krige,
    loo_score,
)
from smartcast.synth import SynthSpec, moisture_formula
from smartcast.vegindex import DEFAULT_NODATA, read_bandgrid


def gaussian_variogram(h, v):
    """Semivariance at lag h: 0 at h=0, else nugget + sill*(1 - exp(-3h^2/a^2))."""
    h_arr = np.asarray(h, dtype=np.float64)
    if np.any(h_arr < 0):
        raise DataError("lag distance must be nonnegative")
    gamma = np.where(h_arr > 0.0, v.nugget + v.sill * (1.0 - np.exp(-3.0 * h_arr**2 / v.range_a**2)), 0.0)
    return float(gamma) if np.isscalar(h) else gamma


def bordered(points, v):
    """The (n+1)x(n+1) ordinary-kriging matrix in variogram form, from cdist."""
    n = len(points)
    a = np.ones((n + 1, n + 1))
    a[:n, :n] = gaussian_variogram(cdist(points, points), v)
    a[n, n] = 0.0
    return a


def oracle_predict(points, values, v, jitter, x, y):
    """Dense bordered-system solve, written independently of the module.

    Builds the (n+1)x(n+1) ordinary-kriging matrix with scalar loops and
    solves it with np.linalg.solve.
    """
    n = len(values)
    a = np.zeros((n + 1, n + 1))
    for i in range(n):
        for j in range(n):
            h = math.hypot(points[i, 0] - points[j, 0], points[i, 1] - points[j, 1])
            if h > 0.0:
                a[i, j] = v.nugget + v.sill * (1.0 - math.exp(-3.0 * h * h / v.range_a**2))
        a[i, i] += jitter
        a[i, n] = 1.0
        a[n, i] = 1.0
    rhs = np.zeros(n + 1)
    for i in range(n):
        h = math.hypot(points[i, 0] - x, points[i, 1] - y)
        if h > 0.0:
            rhs[i] = v.nugget + v.sill * (1.0 - math.exp(-3.0 * h * h / v.range_a**2))
    rhs[n] = 1.0
    sol = np.linalg.solve(a, rhs)
    w, mu = sol[:n], sol[n]
    value = float(w @ values)
    variance = float(w @ rhs[:n] + mu)
    return value, variance, w


# -- variogram model ---------------------------------------------------------------


def test_gaussian_variogram_shape():
    v = Variogram(nugget=0.4, sill=2.0, range_a=10.0)
    assert gaussian_variogram(0.0, v) == 0.0
    # pinned: at the practical range the curve reaches nugget + sill*(1 - e^-3)
    at_range = gaussian_variogram(10.0, v)
    assert abs(at_range - (0.4 + 2.0 * (1.0 - math.exp(-3.0)))) < 1e-15
    h = np.linspace(0.01, 100.0, 500)
    gamma = gaussian_variogram(h, v)
    assert np.all(np.diff(gamma) >= 0.0)
    assert gamma[0] > 0.4  # nugget jump right of the origin
    assert abs(gamma[-1] - 2.4) < 1e-3  # asymptote nugget + sill
    with pytest.raises(DataError):
        gaussian_variogram(-1.0, v)
    assert isinstance(gaussian_variogram(5.0, v), float)


def test_variogram_parameter_validation():
    with pytest.raises(DataError):
        Variogram(nugget=-0.1, sill=1.0, range_a=1.0)
    with pytest.raises(DataError):
        Variogram(nugget=0.0, sill=0.0, range_a=1.0)
    with pytest.raises(DataError):
        Variogram(nugget=0.0, sill=1.0, range_a=0.0)


def test_build_model_rejects_non_finite_samples():
    v = Variogram(nugget=0.0, sill=1.0, range_a=10.0)
    points = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    values = np.array([1.0, 2.0, 3.0])
    with pytest.raises(DataError, match="finite"):
        build_model(SampleLayout(np.array([[0.0, float("nan")]])), np.array([1.0]), v)
    with pytest.raises(DataError, match="finite"):
        build_model(SampleLayout(points), np.array([1.0, float("nan"), 3.0]), v)
    with pytest.raises(DataError, match="finite"):
        build_model(SampleLayout(np.array([[0.0, 0.0], [float("inf"), 0.0], [2.0, 0.0]])), values, v)
    with pytest.raises(ShapeError):
        build_model(SampleLayout(points), values[:2], v)


# Three samples on a line: the lag-1 pairs (0, 1) and (1, 2) and the lag-2 pair (0, 2).
LINE_POINTS = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
LINE_VALUES = np.array([0.0, 2.0, 1.0])


def test_empirical_variogram_hand_check():
    # max lag = largest distance / 2 = 1.0 keeps only the two lag-1 pairs
    lags, semivariances, counts = empirical_variogram(SampleLayout(LINE_POINTS), LINE_VALUES)
    assert len(lags) == 1
    assert lags[0] == 1.0
    assert semivariances[0] == (4.0 + 1.0) / (2.0 * 2)
    assert counts[0] == 2

    # a fourth sample at x = 5 raises the max lag to 2.5; its own pairs lie beyond it
    lags, semivariances, counts = empirical_variogram(
        SampleLayout(np.vstack([LINE_POINTS, [[5.0, 0.0]]])), np.append(LINE_VALUES, 7.0)
    )
    assert list(zip(lags.tolist(), semivariances.tolist(), counts.tolist())) == [
        (1.0, 1.25, 2),
        (2.0, 0.5, 1),
    ]


def test_empirical_variogram_omits_empty_bins_and_validates():
    lags, _, counts = empirical_variogram(SampleLayout(np.vstack([LINE_POINTS, [[5.0, 0.0]]])), np.append(LINE_VALUES, 7.0))
    assert len(lags) == 2  # only two distinct lags exist within the max lag
    assert all(c >= 1 for c in counts)
    with pytest.raises(InsufficientDataError):
        empirical_variogram(SampleLayout(LINE_POINTS[:1]), LINE_VALUES[:1])
    with pytest.raises(DataError):
        empirical_variogram(SampleLayout(LINE_POINTS[[0, 2]]), LINE_VALUES[[0, 2]])  # one pair at 2.0, max lag 1.0
    with pytest.raises(DataError):
        empirical_variogram(SampleLayout(np.zeros((3, 2))), LINE_VALUES)  # all pairs at lag 0
    with pytest.raises(DataError, match="finite"):
        empirical_variogram(SampleLayout(LINE_POINTS), np.array([0.0, float("nan"), 1.0]))


def test_empirical_variogram_white_noise_level():
    rng = np.random.default_rng(0)
    points = rng.uniform(0.0, 100.0, (80, 2))
    values = np.array([rng.standard_normal() for _ in points])
    _, semivariances, _ = empirical_variogram(SampleLayout(points), values)
    # iid unit-variance noise has semivariance ~= 1 at every lag
    assert all(0.4 < g < 2.0 for g in semivariances)


def test_fit_rejects_flat_or_thin_input():
    with pytest.raises(FlatFieldError):
        fit_variogram(SampleLayout(LINE_POINTS), np.full(3, 4.0))
    with pytest.raises(InsufficientDataError):
        fit_variogram(SampleLayout(LINE_POINTS[:2]), LINE_VALUES[:2])
    with pytest.raises(DataError, match="share coordinates"):
        fit_variogram(SampleLayout(np.zeros((3, 2))), LINE_VALUES)


def test_fitted_map_tracks_a_noisy_field():
    # Noisy samples of the scenario's clean field at the 200 positions
    # bench/workloads.py gives field_remap's sensors at seed 5: the fitted
    # map must follow the field, not amplify the noise.
    rng = np.random.default_rng(np.random.SeedSequence((5, 7001)))
    spec = SynthSpec(sensor_fractions=tuple(map(tuple, rng.random((200, 2)))), grid_nx=64, grid_ny=64, n_images=0)
    points = np.array(list(spec.sensor_locations().values()))
    geometry = GridGeometry(nx=spec.grid_nx, ny=spec.grid_ny, cell_size=spec.cell_size)
    xs, ys = geometry.cell_centers()
    day = spec.n_days + 13  # field_remap maps forecast day 14 past the last record
    rng = np.random.default_rng(19)
    for depth in spec.depths_cm:
        clean = np.array([moisture_formula(spec, x, y, depth, day) for x, y in points])
        values = clean + rng.normal(0.0, 0.3, clean.size)
        layout = SampleLayout(points)
        model = build_model(layout, values, fit_variogram(layout, values))
        grid, _ = interpolate_grid(model, geometry)
        truth = np.array([[moisture_formula(spec, x, y, depth, day) for x in xs] for y in ys])
        rmse = float(np.sqrt(((grid - truth) ** 2).mean()))
        assert rmse < 1.0, (depth, rmse)
        assert values.min() - 5.0 <= grid.min() and grid.max() <= values.max() + 5.0, (depth, grid.min(), grid.max())


def test_fit_is_the_brute_force_loo_optimum():
    rng = np.random.default_rng(4)
    points = rng.uniform(0.0, 100.0, (14, 2))
    values = 3.0 * np.sin(points[:, 0] / 20.0) + np.cos(points[:, 1] / 30.0) + rng.normal(0.0, 0.3, 14)
    ranges = kriging.RANGE_FACTORS * cdist(points, points).max() / 2.0
    brute = np.array(
        [[loo_score(build_model(SampleLayout(points), values, Variogram(r, 1.0, a))) for r in kriging.NUGGET_RATIOS] for a in ranges]
    )
    k, j = np.unravel_index(np.argmax(brute), brute.shape)
    fit = fit_variogram(SampleLayout(points), values)
    assert fit.range_a == pytest.approx(ranges[k], rel=1e-12)
    assert fit.nugget / fit.sill == pytest.approx(kriging.NUGGET_RATIOS[j], rel=1e-12)
    model = build_model(SampleLayout(points), values, fit)
    assert model.jitter == 0.0
    _, scores, _ = kriging._loo_grid(kriging.SampleLayout(points), values)
    assert abs(scores.max() - loo_score(model)) <= 1e-9
    # the sill gives the LOO standardized errors mean square 1; in
    # variogram form the LOO variance is -1 / (A^-1)_ii
    inv = np.linalg.inv(bordered(points, fit))[:-1, :-1]
    residuals = inv @ values / np.diag(inv)
    assert np.mean(residuals**2 * -np.diag(inv)) == pytest.approx(1.0, rel=1e-9)


# -- kriging solves ------------------------------------------------------------------


def random_case(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 11))
    points = rng.uniform(0.0, 100.0, (n, 2))
    values = rng.uniform(0.0, 10.0, n)
    v = Variogram(
        nugget=float(rng.uniform(0.0, 0.5)),
        sill=float(rng.uniform(0.5, 5.0)),
        range_a=float(rng.uniform(5.0, 80.0)),
    )
    return rng, points, values, v


def test_predictions_match_dense_solve_oracle():
    for seed in range(40):
        rng, points, values, v = random_case(seed)
        model = build_model(SampleLayout(points), values, v)
        queries = rng.uniform(-20.0, 120.0, (5, 2))
        kriged, variances, weights = krige(model, queries)
        for (x, y), value, variance, w in zip(queries, kriged, variances, weights.T):
            ov, ovar, _ = oracle_predict(points, values, model.variogram, 0.0, float(x), float(y))
            assert abs(value - ov) <= 1e-8
            assert abs(variance - ovar) <= 1e-8
            assert abs(w.sum() - 1.0) <= 1e-10
            assert variance >= -1e-9


def test_zero_nugget_is_exact_at_samples():
    for seed in (3, 17):
        _, points, values, _ = random_case(seed)
        v = Variogram(nugget=0.0, sill=2.0, range_a=40.0)
        kriged, variances, _ = krige(build_model(SampleLayout(points), values, v), points)
        assert np.abs(kriged - values).max() <= 1e-8
        assert np.abs(variances).max() <= 1e-8


def test_symmetric_pair_weights():
    v = Variogram(nugget=0.0, sill=1.0, range_a=20.0)
    model = build_model(SampleLayout(np.array([[0.0, 0.0], [10.0, 0.0]])), np.array([4.0, 8.0]), v)
    value, _, w = krige(model, np.array([[5.0, 0.0]]))
    assert np.allclose(w[:, 0], [0.5, 0.5], atol=1e-12)
    assert abs(value[0] - 6.0) <= 1e-12


def test_sample_order_is_irrelevant():
    rng, points, values, v = random_case(23)
    a = build_model(SampleLayout(points), values, v)
    b = build_model(SampleLayout(points[::-1]), values[::-1], v)
    queries = rng.uniform(0.0, 100.0, (4, 2))
    assert np.abs(krige(a, queries)[0] - krige(b, queries)[0]).max() <= 1e-10


def test_translation_invariance():
    rng, points, values, v = random_case(5)
    shift = np.array([1234.5, -987.25])
    a = build_model(SampleLayout(points), values, v)
    b = build_model(SampleLayout(points + shift), values, v)
    queries = rng.uniform(0.0, 100.0, (4, 2))
    for va, vb in zip(krige(a, queries)[0], krige(b, queries + shift)[0]):
        assert abs(va - vb) <= 1e-7 * max(1.0, abs(va))


def test_duplicate_coordinates_rejected_by_name():
    v = Variogram(nugget=0.1, sill=1.0, range_a=10.0)
    points = np.array([[1.0, 2.0], [5.0, 5.0], [1.0, 2.0]])
    with pytest.raises(DataError, match=r"samples 0 and 2 share coordinates \(1\.0, 2\.0\)"):
        build_model(SampleLayout(points), np.array([0.0, 1.0, 3.0]), v)
    # samples 1, 5 and 6 share one location and 2, 3 another: the error
    # names the first pair a nested i < j loop meets, (1, 5)
    points = np.array([(0.0, 0.0), (2.0, 3.0), (7.0, 7.0), (7.0, 7.0), (9.0, 1.0), (2.0, 3.0), (2.0, 3.0)])
    with pytest.raises(DataError, match=r"^samples 1 and 5 share coordinates \(2\.0, 3\.0\)$"):
        build_model(SampleLayout(points), np.arange(7.0), v)


def refused(points, values, v, ratio="0"):
    """The condition number build_model refuses these samples with; its
    message names the condition number, the bound and the ratio."""
    with pytest.raises(FactorizationError) as info:
        build_model(SampleLayout(points), values, v)
    message = str(info.value)
    assert "> 1e+10" in message and f"r = {ratio}" in message, message
    return float(message.split("cond(R + rI) = ")[1].split()[0])


def test_near_duplicates_are_refused():
    # 1e-9 apart with no nugget: cond(R) ~1e16, past the 1e10 bound, so
    # any solve would be accurate only to round-off * condition
    v = Variogram(nugget=0.0, sill=1.0, range_a=10.0)
    assert refused(np.array([[0.0, 0.0], [1e-9, 0.0], [5.0, 0.0]]), np.array([1.0, 2.0, 3.0]), v) > 1e10


def test_exactly_singular_system_is_refused():
    # two samples 1e-9 apart, the third equidistant from both: their
    # correlation rows are bit-identical, so R is exactly singular and its
    # smallest eigenvalue is zero up to round-off
    v = Variogram(nugget=0.0, sill=1.0, range_a=10.0)
    h = 1e-9
    points, values = np.array([[0.0, 0.0], [0.0, h], [5.0, h / 2]]), np.array([1.0, 2.0, 3.0])
    assert refused(points, values, v) > 1e10


def test_refusal_keeps_the_configured_nugget():
    # The exactly singular case with a nugget of 1e-10 * sill: cond(R + rI)
    # ~ lambda_max / r is still past the bound, so it is refused too, and
    # no model is built with a larger nugget than configured. The smallest
    # fitted ratio, 1e-3, is well conditioned and kriges as the dense solve.
    h = 1e-9
    points, values = np.array([[0.0, 0.0], [0.0, h], [5.0, h / 2]]), np.array([1.0, 2.0, 3.0])
    assert refused(points, values, Variogram(nugget=0.0, sill=1.0, range_a=10.0)) > 1e10
    cond = refused(points, values, Variogram(nugget=1e-10, sill=1.0, range_a=10.0), ratio="1e-10")
    assert 1e10 < cond < 3e10
    model = build_model(SampleLayout(points), values, Variogram(nugget=1e-3, sill=1.0, range_a=10.0))
    assert model.variogram == Variogram(nugget=1e-3, sill=1.0, range_a=10.0)
    assert model.jitter == 0.0
    queries = np.array([(2.5, 0.0), (1.0, 3.0), (-4.0, 7.5)])
    for (x, y), w in zip(queries, krige(model, queries)[2].T):
        _, _, want = oracle_predict(points, values, model.variogram, 0.0, x, y)
        np.testing.assert_allclose(w, want, rtol=0.0, atol=1e-6)


def test_empty_sample_list_rejected():
    with pytest.raises(InsufficientDataError):
        build_model(SampleLayout(np.empty((0, 2))), np.empty(0), Variogram(nugget=0.0, sill=1.0, range_a=1.0))


# -- grid interpolation ----------------------------------------------------------------


def test_grid_matches_per_point_predictions():
    _, points, values, v = random_case(9)
    model = build_model(SampleLayout(points), values, v)
    geom = GridGeometry(nx=5, ny=4, cell_size=7.3, x0=2.0, y0=-3.0)
    grid, variances = interpolate_grid(model, geom)
    xs, ys = geom.cell_centers()
    assert xs.tolist() == [2.0 + (i + 0.5) * 7.3 for i in range(5)]
    for i, y in enumerate(ys):
        for j, x in enumerate(xs):
            pv, pvar, _ = krige(model, np.array([[x, y]]))
            assert abs(grid[i, j] - pv[0]) <= 1e-9
            assert abs(variances[i, j] - pvar[0]) <= 1e-9


def test_grid_is_krige_at_cell_centers_bitwise():
    _, points, values, v = random_case(9)
    model = build_model(SampleLayout(points), values, v)
    geom = GridGeometry(nx=5, ny=4, cell_size=7.3, x0=2.0, y0=-3.0)
    xs, ys = geom.cell_centers()
    centers = np.array([(x, y) for y in ys for x in xs])  # row-major, row 0 southmost
    kriged, variances, _ = krige(model, centers)
    grid, grid_variances = interpolate_grid(model, geom)
    assert np.array_equal(grid, kriged.reshape(geom.ny, geom.nx))
    assert np.array_equal(grid_variances, variances.reshape(geom.ny, geom.nx))


def test_grid_geometry_validation():
    with pytest.raises(DataError):
        GridGeometry(nx=0, ny=2, cell_size=1.0)
    with pytest.raises(DataError):
        GridGeometry(nx=2, ny=2, cell_size=0.0)


# -- leave-one-out ----------------------------------------------------------------------


def test_loo_high_on_smooth_field():
    # fit-then-score, the same flow the pipeline uses
    rng = np.random.default_rng(31)
    pts = rng.uniform(0.0, 100.0, (15, 2))
    values = 0.03 * pts[:, 0] + 0.02 * pts[:, 1]
    fit = fit_variogram(SampleLayout(pts), values)
    assert loo_score(build_model(SampleLayout(pts), values, fit)) > 0.9


def refit_loo_score(points, values, variogram):
    """Leave-one-out by brute force: refit without each sample, predict it."""
    preds = np.empty(len(values))
    for i in range(len(values)):
        model = build_model(SampleLayout(np.delete(points, i, axis=0)), np.delete(values, i), variogram)
        preds[i] = krige(model, points[i : i + 1])[0][0]
    return 1.0 - float(((values - preds) ** 2).sum()) / float(((values - values.mean()) ** 2).sum())


def test_loo_matches_refit_oracle():
    # nugget > 0 keeps every system well conditioned, so neither path jitters
    for seed in range(120):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 40))
        pts = rng.uniform(0.0, 100.0, (n, 2))
        values = rng.normal(0.0, 3.0, n)
        sill = float(rng.uniform(0.5, 5.0))
        v = Variogram(nugget=float(rng.uniform(0.1, 1.0)) * sill, sill=sill, range_a=float(rng.uniform(10.0, 60.0)))
        model = build_model(SampleLayout(pts), values, v)
        assert model.jitter == 0.0
        want = refit_loo_score(pts, values, v)
        got = loo_score(model)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (seed, got, want)


def test_loo_guard_rails():
    v = Variogram(nugget=0.0, sill=1.0, range_a=10.0)
    with pytest.raises(InsufficientDataError):
        loo_score(build_model(SampleLayout(np.array([[0.0, 0.0], [1.0, 0.0]])), np.array([1.0, 2.0]), v))
    line = np.column_stack([np.arange(4.0), np.zeros(4)])
    with pytest.raises(UndefinedScoreError):
        loo_score(build_model(SampleLayout(line), np.full(4, 5.0), v))


# -- scipy oracles ------------------------------------------------------------------------


def test_distances_match_cdist_bitwise():
    rng = np.random.default_rng(41)
    geom = GridGeometry(nx=64, ny=64, cell_size=10.0)
    gx, gy = np.meshgrid(*geom.cell_centers())
    cells = np.column_stack([gx.ravel(), gy.ravel()])
    cases = [
        (rng.uniform(0.0, 640.0, (m, 2)), rng.uniform(-50.0, 700.0, (k, 2)))
        for m, k in [(1, 1), (7, 13), (50, 50)]
    ]
    cases += [(pts, pts) for pts in [rng.uniform(0.0, 640.0, (200, 2)), rng.normal(1e5, 3.0, (40, 2))]]
    cases += [(rng.uniform(0.0, 640.0, (200, 2)), cells)]  # the field_remap shape, 200 x 4096
    for p, q in cases:
        got = kriging._distances(p, q)
        assert got.shape == (p.shape[0], q.shape[0])
        assert np.array_equal(got, cdist(p, q))


def lu_oracle(model, v, queries):
    """Kriged values, variances and solutions from scipy's LU, assembled with cdist."""
    n = model.values.size
    a = np.ones((n + 1, n + 1))
    a[:n, :n] = gaussian_variogram(cdist(model.layout.points, model.layout.points), v)
    a[n, n] = 0.0
    rhs = np.ones((n + 1, queries.shape[0]))
    rhs[:n] = gaussian_variogram(cdist(model.layout.points, queries), v)
    sol = lu_solve(lu_factor(a), rhs)
    return sol[:n].T @ model.values, np.sum(sol[:n] * rhs[:n], axis=0) + sol[n], sol


def test_solves_match_lu_oracle():
    # nugget > 0 and no jitter: the systems are well conditioned
    geom = GridGeometry(nx=9, ny=7, cell_size=12.0, x0=-5.0)
    gx, gy = np.meshgrid(*geom.cell_centers())
    cells = np.column_stack([gx.ravel(), gy.ravel()])
    for seed in range(25):
        rng = np.random.default_rng(500 + seed)
        n = int(rng.integers(3, 60))
        pts = rng.uniform(0.0, 100.0, (n, 2))
        values = rng.uniform(10.0, 50.0, n)
        sill = float(rng.uniform(0.5, 5.0))
        v = Variogram(nugget=float(rng.uniform(0.05, 1.0)) * sill, sill=sill, range_a=float(rng.uniform(10.0, 60.0)))
        model = build_model(SampleLayout(pts), values, v)
        assert model.jitter == 0.0
        want_values, want_var, _ = lu_oracle(model, v, cells)
        grid, variances = interpolate_grid(model, geom)
        np.testing.assert_allclose(grid.ravel(), want_values, rtol=1e-12, atol=0.0)
        assert np.abs(variances.ravel() - want_var).max() <= 1e-12 * np.abs(want_var).max()
        queries = rng.uniform(-20.0, 120.0, (4, 2))
        _, _, want_sol = lu_oracle(model, v, queries)
        _, query_var, weights = krige(model, queries)
        gammas = gaussian_variogram(cdist(pts, queries), v)
        for k in range(len(queries)):
            w = weights[:, k]
            mu = query_var[k] - w @ gammas[:, k]  # the variance is w . gamma + mu
            assert np.abs(w - want_sol[:n, k]).max() <= 1e-12 * np.abs(want_sol[:n, k]).max()
            assert abs(mu - want_sol[n, k]) <= 1e-12 * max(abs(want_sol[n, k]), np.abs(w).max())


# -- exports ---------------------------------------------------------------------------------


def volume(geom, fills, nan_at=None):
    """A volume with one constant layer per (depth, fill), variance 0.25,
    and NaN value and variance at `nan_at` in the first layer."""
    depths = tuple(fills)
    values = np.stack([np.full((geom.ny, geom.nx), float(fills[d])) for d in depths])
    variance = np.full(values.shape, 0.25)
    if nan_at:
        values[(0, *nan_at)] = variance[(0, *nan_at)] = np.nan
    return MoistureVolume(depths, geom, values, variance)


def test_export_grid_csv_roundtrip(tmp_path: Path):
    geom = GridGeometry(nx=3, ny=2, cell_size=10.0)
    vol = volume(geom, {10: 33.125}, nan_at=(0, 1))
    path = tmp_path / "grid.csv"
    export_grid_csv(vol, path)
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "depth_cm", "value", "variance"]
    assert len(rows) == 1 + 5  # 6 cells minus the NaN one
    assert [r[0] for r in rows[1:3]] == ["5.0", "25.0"]  # NaN cell at x=15 skipped
    assert all(float(r[3]) == 33.125 and r[2] == "10" for r in rows[1:])


def test_export_grid_csv_matches_row_loop(tmp_path: Path):
    # the per-cell csv.writer loop the export replaced, kept as the oracle
    def row_loop(volume, path):
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "y", "depth_cm", "value", "variance"])
            xs, ys = volume.geometry.cell_centers()
            for k, depth in enumerate(volume.depths):
                for i, y in enumerate(ys):
                    for j, x in enumerate(xs):
                        v = volume.values[k, i, j]
                        if np.isnan(v):
                            continue
                        writer.writerow(
                            [repr(float(x)), repr(float(y)), depth, repr(float(v)), repr(float(volume.variance[k, i, j]))]
                        )

    rng = np.random.default_rng(17)
    geom = GridGeometry(nx=7, ny=5, cell_size=2.7, x0=-13.1, y0=1e-3)
    values, variances = [], []
    for depth in (10, 40, 120):
        values.append(rng.normal(30.0, 12.0, size=(5, 7)) * 10.0 ** rng.integers(-6, 6, size=(5, 7)))
        variances.append(rng.random((5, 7)) * 1e-4)
        values[-1][rng.random((5, 7)) < 0.3] = np.nan
        variances[-1][np.isnan(values[-1])] = np.nan
        variances[-1][0, 0] = np.nan  # a NaN variance beside a kept value is written as nan
    values.insert(2, np.full((5, 7), np.nan))  # a depth with no kept cell writes no row
    variances.insert(2, np.full((5, 7), 0.25))
    vol = MoistureVolume((10, 40, 60, 120), geom, np.stack(values), np.stack(variances))
    export_grid_csv(vol, tmp_path / "grid.csv")
    row_loop(vol, tmp_path / "oracle.csv")
    assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    assert b"nan" in (tmp_path / "grid.csv").read_bytes()


def test_export_volume_files(tmp_path: Path):
    geom = GridGeometry(nx=3, ny=2, cell_size=10.0)
    vol = volume(geom, {10: 20.5, 30: 40.25}, nan_at=(1, 2))
    manifest = export_volume(vol, tmp_path / "volume")
    rows = manifest.read_text(encoding="utf-8").strip().splitlines()
    assert rows[0] == "depth_cm,path"
    assert rows[1:] == ["10,depth_010.bgrid", "30,depth_030.bgrid"]
    g10 = read_bandgrid(tmp_path / "volume" / "depth_010.bgrid")
    assert g10.band_names == ("moisture", "variance")
    assert g10.band("moisture")[0, 0] == np.float32(20.5)
    assert g10.band("moisture")[1, 2] == np.float32(DEFAULT_NODATA)
    assert g10.band("variance")[1, 2] == np.float32(DEFAULT_NODATA)
    for depth in (10, 30):
        assert (tmp_path / "volume" / f"depth_{depth:03d}.pgm").exists()
        assert (tmp_path / "volume" / f"depth_{depth:03d}.pgm.txt").exists()
