"""Acceptance gate: one test and one printed verdict line per guarantee.

Run `pytest tests/test_acceptance.py -v -s` to watch the verdict lines
stream; without -s they still appear in captured output. Oracles here
are self-contained scalar re-implementations, independent of the
library's vectorized code paths.
"""

import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import gate_rows, seq2seq_forward

from smartcast import lstm, pipeline, timeseries, vegindex
from smartcast.cli import main
from smartcast.kriging import (
    Variogram,
    build_model,
    fit_variogram,
    krige,
    loo_score,
)
from smartcast.lstm import ModelShape, init_params
from smartcast.pipeline import SoilModelSpec, parse_config
from smartcast.vegindex import (
    DEFAULT_NODATA,
    BandGrid,
    compute_index,
)

MAPPING = {"red": "B04", "nir": "B08", "swir": "B11"}


def criterion(name: str, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def n_params(shape: ModelShape) -> int:
    return sum(t.size for t in init_params(shape, seed=0).tensors.values())


# -- 1: gradient fidelity -------------------------------------------------------------


def test_gradient_fidelity():
    start = time.perf_counter()
    report = pipeline.cmd_gradcheck(seed=0)
    elapsed = time.perf_counter() - start
    soil, index = report["soil"], report["index"]
    full_soil = soil["n_checked"] == n_params(ModelShape(4, 8, 8, 6, horizon=3))
    full_index = index["n_checked"] == n_params(ModelShape(2, 5, 5, 4, horizon=1))
    ok = (
        report["passed"]
        and soil["max_rel_error"] < 1e-4
        and index["max_rel_error"] < 1e-4
        and full_soil
        and full_index
        and elapsed < 30.0
    )
    criterion(
        "gradient-fidelity",
        ok,
        f"soil max rel {soil['max_rel_error']:.2e} over all {soil['n_checked']} coords, "
        f"index {index['max_rel_error']:.2e} over all {index['n_checked']} coords, "
        f"{elapsed:.2f}s (< 30s)",
    )


# -- 2: forward oracle ----------------------------------------------------------------


def _scalar_cell(layer, x, h_prev, c_prev):
    n, d = layer.hidden_dim, layer.input_dim
    h, c = [0.0] * n, [0.0] * n
    for u in range(n):
        z = {}
        for gate in ("i", "f", "o", "g"):
            acc = float(gate_rows(layer, "b", gate)[u])
            w, uu = gate_rows(layer, "w", gate), gate_rows(layer, "u", gate)
            for k in range(d):
                acc += float(w[u, k]) * x[k]
            for k in range(n):
                acc += float(uu[u, k]) * h_prev[k]
            z[gate] = acc
        i = 1.0 / (1.0 + math.exp(-z["i"]))
        f = 1.0 / (1.0 + math.exp(-z["f"]))
        o = 1.0 / (1.0 + math.exp(-z["o"]))
        g = math.tanh(z["g"])
        c[u] = f * c_prev[u] + i * g
        h[u] = o * math.tanh(c[u])
    return h, c


def _scalar_forward(model, x):
    h = [0.0] * model.encoder.hidden_dim
    c = [0.0] * model.encoder.hidden_dim
    for t in range(x.shape[0]):
        h, c = _scalar_cell(model.encoder, [float(v) for v in x[t]], h, c)
    enc = h
    hd = [0.0] * model.decoder.hidden_dim
    cd = [0.0] * model.decoder.hidden_dim
    preds = []
    for _ in range(model.horizon):
        hd, cd = _scalar_cell(model.decoder, enc, hd, cd)
        hidden = [
            float(model.head_hidden.bias[u])
            + sum(float(model.head_hidden.weight[u, k]) * hd[k] for k in range(len(hd)))
            for u in range(model.head_hidden.weight.shape[0])
        ]
        preds.append(
            float(model.head_out.bias[0])
            + sum(float(model.head_out.weight[0, k]) * hidden[k] for k in range(len(hidden)))
        )
    return np.array(preds)


def test_forward_oracle():
    worst = 0.0
    for shape, length in (
        (ModelShape(4, 8, 8, 6, horizon=3), 6),
        (ModelShape(2, 5, 5, 4, horizon=1), 5),
    ):
        for seed in (0, 1):
            model = init_params(shape, seed=seed)
            x = np.random.default_rng(seed + 50).normal(0.0, 1.0, (length, shape.input_dim))
            preds, _ = seq2seq_forward(model, x)
            worst = max(worst, float(np.max(np.abs(preds - _scalar_forward(model, x)))))
    criterion("forward-oracle", worst <= 1e-12, f"max |vectorized - scalar loop| = {worst:.2e} (<= 1e-12)")


# -- 3: soil learning signal ------------------------------------------------------------


def test_soil_beats_persistence(synth_dir: Path):
    config = parse_config(synth_dir / "config.json")
    config = dataclasses.replace(
        config,
        soil_model=SoilModelSpec(input_length=30, encoder_hidden=48, decoder_hidden=48, dense_hidden=24),
        soil_train=dataclasses.replace(config.soil_train, learning_rate=0.002, epochs=100, batch_size=32),
    )
    assert config.seed == 7
    records = timeseries.load_sensor_csv(config.sensor_csv)
    # One call, so the training pool gets all three depths at once.
    t0 = time.perf_counter()
    outcomes = pipeline.run_soil_stage(records, dataclasses.replace(config, depths_cm=(10, 30, 60)))
    results = [result for _, result in outcomes]
    dt = time.perf_counter() - t0
    parts = []
    ok = [r.depth_cm for r in results] == [10, 30, 60] and dt < 300.0
    for r in results:
        gain = 1.0 - r.test_rmse / r.persistence_rmse
        ok = ok and gain >= 0.20
        parts.append(f"depth {r.depth_cm}: RMSE {r.test_rmse:.3f} vs persistence {r.persistence_rmse:.3f} = {gain:+.1%}")
    criterion(
        "soil-learning",
        ok,
        "seed 7, 400 days; " + "; ".join(parts) + f"; all depths in {dt:.0f}s; bar >= +20.0% each and < 300s in all",
    )


# -- 4: index learning signal -----------------------------------------------------------


def test_index_beats_persistence(synth_dir: Path):
    config = parse_config(synth_dir / "config.json")
    stack = vegindex.load_index_stack(config.image_manifest, config.index_kind, config.band_mapping)
    _, result, forecast = pipeline.run_index_stage(stack, config)
    gain = 1.0 - result.test_rmse / result.persistence_rmse
    n_images, height, width = stack.values.shape
    ok = (
        n_images >= 12
        and (width, height) == (32, 32)
        and gain >= 0.15
        and np.isfinite(result.test_mae)
        and forecast.shape == (32, 32)
    )
    criterion(
        "index-learning",
        ok,
        f"{n_images} images {width}x{height}, RMSE {result.test_rmse:.4f} "
        f"vs persistence {result.persistence_rmse:.4f} = {gain:+.1%} (bar >= +15.0%)",
    )


# -- 5: kriging brute-force oracle --------------------------------------------------------


def _dense_oracle(points, values, v, jitter, x, y):
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
    value = float(sol[:n] @ values)
    return value, float(sol[:n] @ rhs[:n] + sol[n])


def test_kriging_oracle():
    max_err = max_wsum = max_exact = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 11))
        points = rng.uniform(0.0, 100.0, (n, 2))
        values = rng.uniform(0.0, 10.0, n)
        v = Variogram(
            nugget=float(rng.uniform(0.0, 0.5)),
            sill=float(rng.uniform(0.5, 5.0)),
            range_a=float(rng.uniform(5.0, 80.0)),
        )
        model = build_model(points, values, v)
        queries = rng.uniform(-20.0, 120.0, (5, 2))
        kriged, variances, weights = krige(model, queries)
        for (x, y), value, variance, w in zip(queries, kriged, variances, weights.T):
            ov, ovar = _dense_oracle(points, values, model.variogram, 0.0, x, y)
            max_err = max(max_err, abs(value - ov), abs(variance - ovar))
            max_wsum = max(max_wsum, abs(float(w.sum()) - 1.0))
        exact = build_model(points, values, Variogram(nugget=0.0, sill=v.sill, range_a=v.range_a))
        kriged, _, weights = krige(exact, points)
        max_exact = max(max_exact, float(np.abs(kriged - values).max()))
        max_wsum = max(max_wsum, float(np.abs(weights.sum(axis=0) - 1.0).max()))
    ok = max_err <= 1e-8 and max_exact <= 1e-8 and max_wsum <= 1e-10
    criterion(
        "kriging-oracle",
        ok,
        f"100 seeds, n <= 10: max |pred - dense solve| {max_err:.2e} (<= 1e-8), "
        f"nugget-0 error at samples {max_exact:.2e} (<= 1e-8), max |sum(w) - 1| {max_wsum:.2e} (<= 1e-10)",
    )


# -- 6: kriging LOO score ------------------------------------------------------------------


def test_kriging_loo_score():
    rng = np.random.default_rng(123)
    pts = rng.uniform(0.0, 100.0, (25, 2))
    values = 0.03 * pts[:, 0] + 0.02 * pts[:, 1]
    variogram = fit_variogram(pts, values)
    score = loo_score(build_model(pts, values, variogram))
    criterion(
        "kriging-loo",
        score >= 0.9,
        f"noiseless smooth field, 25 points on 100x100: LOO score {score:.5f} (>= 0.9)",
    )


# -- 7: index band math --------------------------------------------------------------------


def test_index_math_and_roundtrip():
    rng = np.random.default_rng(99)
    max_err = 0.0
    ok = True
    for _ in range(20):
        h, w = (int(v) for v in rng.integers(3, 17, 2))
        red = rng.uniform(0.0, 1.0, (h, w)).astype(np.float32)
        nir = rng.uniform(0.0, 1.0, (h, w)).astype(np.float32)
        swir = rng.uniform(0.0, 1.0, (h, w)).astype(np.float32)
        red[0, 0] = nir[0, 0] = np.float32(0.0)  # zero denominator for NDVI
        nir[h - 1, w - 1] = np.float32(DEFAULT_NODATA)
        grid = BandGrid(width=w, height=h, nodata=DEFAULT_NODATA,
                        band_names=("B04", "B08", "B11"), data=np.stack([red, nir, swir]))
        for kind, minus in (("NDVI", red), ("NDWI", swir)):
            img = compute_index(grid, kind, MAPPING)
            a, b = nir.astype(np.float64), minus.astype(np.float64)
            valid = img != DEFAULT_NODATA
            expect_invalid = (
                (nir == np.float32(DEFAULT_NODATA))
                | (minus == np.float32(DEFAULT_NODATA))
                | (a + b == 0.0)
            )
            ok = ok and not np.any(valid & expect_invalid) and bool(np.all(expect_invalid ^ valid))
            if valid.any():
                direct = (a[valid] - b[valid]) / (a[valid] + b[valid])
                max_err = max(max_err, float(np.max(np.abs(img[valid] - direct))))
                ok = ok and img[valid].min() >= -1.0 and img[valid].max() <= 1.0
    ok = ok and max_err <= 1e-7
    criterion(
        "index-math",
        ok,
        f"20 random float32 scenes, NDVI+NDWI: max |index - direct| {max_err:.2e} (<= 1e-7), "
        f"outputs in [-1, 1] or nodata",
    )


# -- 8 and 9: full runs ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def bundled_runs(synth_dir: Path, tmp_path_factory: pytest.TempPathFactory):
    config = str(synth_dir / "config.json")
    out1 = tmp_path_factory.mktemp("accept_run1")
    out2 = tmp_path_factory.mktemp("accept_run2")
    t0 = time.perf_counter()
    rc1 = main(["run", "--config", config, "--out", str(out1)])
    elapsed = time.perf_counter() - t0
    rc2 = main(["run", "--config", config, "--out", str(out2)])
    return out1, out2, rc1, rc2, elapsed


def test_run_determinism(bundled_runs):
    out1, out2, rc1, rc2, _ = bundled_runs
    report_same = (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    grids1 = sorted(p.relative_to(out1).as_posix() for p in out1.rglob("*.bgrid"))
    grids2 = sorted(p.relative_to(out2).as_posix() for p in out2.rglob("*.bgrid"))
    grids_same = (
        grids1 == grids2
        and len(grids1) >= 4  # 3 depth layers + index forecast
        and all((out1 / g).read_bytes() == (out2 / g).read_bytes() for g in grids1)
    )
    ok = rc1 == 0 and rc2 == 0 and report_same and grids_same
    criterion(
        "determinism",
        ok,
        f"two runs, same config and seed: report.json byte-identical: {report_same}; "
        f"{len(grids1)} BandGrid files byte-identical: {grids_same}",
    )


def test_end_to_end_smoke(bundled_runs, synth_config):
    out1, _, rc1, _, elapsed = bundled_runs
    report = json.loads((out1 / "report.json").read_text(encoding="utf-8"))
    depths = sorted(int(d) for d in report["soil"]["per_depth"])
    want = sorted(synth_config.depths_cm)
    layer_files = [out1 / "volume" / f"depth_{d:03d}.bgrid" for d in want]
    complete = (
        set(report) == {"seed", "forecast_day", "soil", "index", "artifacts"}
        and report["index"] is not None
        and all((out1 / rel).is_file() for rel in report["artifacts"].values())
        and all(
            np.isfinite(entry["test_rmse"]) and len(entry["forecasts"]) == 4
            for entry in report["soil"]["per_depth"].values()
        )
    )
    ok = (
        rc1 == 0
        and depths == want
        and all(p.is_file() for p in layer_files)
        and complete
        and elapsed < 600.0
    )
    criterion(
        "e2e-smoke",
        ok,
        f"bundled scenario: volume layers {depths} (one per configured depth), "
        f"report complete: {complete}, {elapsed:.0f}s (< 600s)",
    )
