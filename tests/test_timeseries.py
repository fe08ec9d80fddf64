"""Ingestion, gap fill, scaling, windowing, and split behavior."""

import json
from datetime import date, timedelta

import numpy as np
import pytest

from smartcast.errors import (
    CsvFormatError,
    DegenerateScalerError,
    DuplicateKeyError,
    EmptySplitError,
    EmptyWindowError,
    InsufficientDataError,
    MissingKeyError,
    UnfillableGapError,
)
from smartcast.pipeline import _prepare_depth, parse_config
from smartcast.timeseries import (
    CSV_HEADER,
    SensorSeries,
    Scaler,
    SensorRecord,
    build_series,
    chrono_split,
    concat_windows,
    fit_scaler_pooled,
    group_records,
    load_sensor_csv,
    make_windows,
)

HEADER = ",".join(CSV_HEADER)


def write_csv(tmp_path, body: str):
    p = tmp_path / "sensors.csv"
    p.write_text(HEADER + "\n" + body, encoding="utf-8")
    return p


def series_from(features: np.ndarray, sensor_id="s1", depth=10) -> SensorSeries:
    t = features.shape[0]
    dates = tuple(date(2024, 1, 1) + timedelta(days=i) for i in range(t))
    return SensorSeries(sensor_id, depth, dates, features.astype(np.float64), np.zeros(t, dtype=bool))


# -- loader ----------------------------------------------------------------------

def test_load_happy_path(tmp_path):
    p = write_csv(
        tmp_path,
        "2024-01-01,s1,10,35.5,18.2,1.1,0.0\n"
        "2024-01-02,s1,10,34.0,18.0,1.2,4.5\n",
    )
    records = load_sensor_csv(p)
    assert len(records) == 2
    assert records[0].sensor_id == "s1"
    assert records[0].depth_cm == 10
    assert records[0].timestamp == date(2024, 1, 1)
    assert records[1].rainfall == 4.5
    np.testing.assert_allclose(records[0].features(), [35.5, 18.2, 1.1, 0.0])


def test_load_rejects_wrong_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("date,sensor,depth,moisture,soil_temp,salinity,rainfall\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="line 1"):
        load_sensor_csv(p)


def test_load_rejects_bad_rows(tmp_path):
    cases = [
        ("2024-01-01,s1,10,35.5,18.2,1.1\n", "fields"),
        ("01/02/2024,s1,10,35.5,18.2,1.1,0.0\n", "date"),
        ("2024-01-01,,10,35.5,18.2,1.1,0.0\n", "sensor_id"),
        ("2024-01-01,s1,15,35.5,18.2,1.1,0.0\n", "depth"),
        ("2024-01-01,s1,10,abc,18.2,1.1,0.0\n", "moisture"),
        ("2024-01-01,s1,10,120.0,18.2,1.1,0.0\n", "100"),
        ("2024-01-01,s1,10,35.5,18.2,1.1,-2.0\n", "negative"),
        ("2024-01-01,s1,10,inf,18.2,1.1,0.0\n", "finite"),
    ]
    for body, hint in cases:
        p = write_csv(tmp_path, body)
        with pytest.raises(CsvFormatError, match="line 2") as exc:
            load_sensor_csv(p)
        assert hint.lower() in str(exc.value).lower() or hint in str(exc.value)


def test_load_duplicate_key(tmp_path):
    p = write_csv(
        tmp_path,
        "2024-01-01,s1,10,35.5,18.2,1.1,0.0\n"
        "2024-01-01,s1,10,36.0,18.2,1.1,0.0\n",
    )
    with pytest.raises(DuplicateKeyError, match="line 3"):
        load_sensor_csv(p)


def test_load_empty_fields_become_missing(tmp_path):
    p = write_csv(tmp_path, "2024-01-01,s1,10,,18.2,1.1,0.0\n")
    records = load_sensor_csv(p)
    assert np.isnan(records[0].moisture)
    assert records[0].soil_temp == 18.2


# -- build_series and gap fill ------------------------------------------------------

def rows(days_values, sensor="s1", depth=10):
    out = []
    for day, m in days_values:
        m_txt = "" if m is None else repr(m)
        out.append(f"2024-01-{day:02d},{sensor},{depth},{m_txt},18.0,1.0,0.0")
    return "\n".join(out) + "\n"


def test_series_interior_gap_linear(tmp_path):
    p = write_csv(tmp_path, rows([(1, 30.0), (2, None), (3, None), (4, 36.0), (5, 35.0)]))
    series = build_series(load_sensor_csv(p), "s1", 10)
    np.testing.assert_allclose(series.features[:, 0], [30.0, 32.0, 34.0, 36.0, 35.0])
    assert series.filled.tolist() == [False, True, True, False, False]


def test_series_missing_days_are_filled(tmp_path):
    # day 2 absent entirely: daily grid inserts and interpolates it
    p = write_csv(tmp_path, rows([(1, 30.0), (3, 34.0)]))
    series = build_series(load_sensor_csv(p), "s1", 10)
    assert series.length == 3
    assert series.features[1, 0] == 32.0
    assert series.filled[1]


def test_series_gap_too_long(tmp_path):
    p = write_csv(tmp_path, rows([(1, 30.0), (6, 35.0)]))
    with pytest.raises(UnfillableGapError, match="gap of 4"):
        build_series(load_sensor_csv(p), "s1", 10, max_gap=3)
    # the same gap is fine with a larger allowance
    series = build_series(load_sensor_csv(p), "s1", 10, max_gap=4)
    np.testing.assert_allclose(series.features[:, 0], [30.0, 31.0, 32.0, 33.0, 34.0, 35.0])


def test_series_boundary_gap_rejected(tmp_path):
    p = write_csv(tmp_path, rows([(1, None), (2, 31.0), (3, 32.0)]))
    with pytest.raises(UnfillableGapError, match="boundary"):
        build_series(load_sensor_csv(p), "s1", 10)


def test_series_key_errors(tmp_path):
    p = write_csv(tmp_path, rows([(1, 30.0), (2, 31.0)]))
    records = load_sensor_csv(p)
    with pytest.raises(MissingKeyError):
        build_series(records, "nope", 10)
    with pytest.raises(MissingKeyError):
        build_series(records, "s1", 20)
    with pytest.raises(InsufficientDataError):
        build_series(records[:1], "s1", 10)


def assert_same_series(a: SensorSeries, b: SensorSeries):
    assert (a.sensor_id, a.depth_cm, a.dates) == (b.sensor_id, b.depth_cm, b.dates)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.filled, b.filled)


def test_grouped_series_equal_full_scan(tmp_path, synth_dir):
    gappy = write_csv(
        tmp_path,
        rows([(4, 33.0), (1, 30.0), (2, None), (6, 35.0), (7, 36.0)])
        + rows([(1, 20.0), (3, 22.0), (2, 21.0)], depth=20)
        + rows([(5, 50.0), (1, 10.0)], sensor="s2"),
    )
    for path in (synth_dir / "sensors.csv", gappy):
        records = load_sensor_csv(path)
        groups = group_records(records)
        assert sorted(groups) == sorted({(r.sensor_id, r.depth_cm) for r in records})
        for (sid, depth), group in groups.items():
            # file order kept, and the records themselves, not copies
            full = [r for r in records if (r.sensor_id, r.depth_cm) == (sid, depth)]
            assert len(group) == len(full) and all(g is f for g, f in zip(group, full))
            assert_same_series(build_series(group, sid, depth), build_series(records, sid, depth))
        with pytest.raises(MissingKeyError):
            build_series(groups.get(("nope", 10), []), "nope", 10)


def test_group_errors_match_full_scan():
    day = date(2024, 1, 1)
    one = SensorRecord(day, "s1", 10, 30.0, 18.0, 1.0, 0.0)
    again = SensorRecord(day, "s1", 10, 31.0, 18.0, 1.0, 0.0)
    other = SensorRecord(day + timedelta(days=1), "s2", 10, 31.0, 18.0, 1.0, 0.0)
    groups = group_records([one, other, again])
    assert groups == {("s1", 10): [one, again], ("s2", 10): [other]}
    with pytest.raises(DuplicateKeyError):
        build_series(groups[("s1", 10)], "s1", 10)
    with pytest.raises(InsufficientDataError):
        build_series(groups[("s2", 10)], "s2", 10)


# -- scaler ------------------------------------------------------------------------

def test_scaler_stats_match_numpy():
    rng = np.random.default_rng(0)
    features = rng.normal(10.0, 3.0, size=(50, 4))
    scaler = fit_scaler_pooled([features])
    np.testing.assert_allclose(scaler.mean, features.mean(axis=0))
    np.testing.assert_allclose(scaler.std, features.std(axis=0))  # ddof=0
    z = scaler.apply(features)
    np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)
    np.testing.assert_allclose(scaler.invert(z), features, atol=1e-12)


def test_scaler_train_range_only(tmp_path):
    # 40 days, L=5, H=2: 34 windows, the first 25 train, and the training
    # windows cover days 0..30. Days 31..39 reach only test windows.
    (tmp_path / "sensors.csv").write_text(HEADER + "\n", encoding="utf-8")
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "seed": 1,
                "sensor_csv": "sensors.csv",
                "horizon_days": 2,
                "test_fraction": 0.25,
                "soil_model": {"input_length": 5},
            }
        ),
        encoding="utf-8",
    )
    config = parse_config(config_path)
    rng = np.random.default_rng(3)
    base = rng.normal(20.0, 2.0, size=(40, 4))

    def scaler_for(features: np.ndarray) -> Scaler:
        records = [
            SensorRecord(date(2024, 1, 1) + timedelta(days=i), "s1", 10, *map(float, row))
            for i, row in enumerate(features)
        ]
        return _prepare_depth(group_records(records), ["s1"], 10, config).scaler

    reference = scaler_for(base)
    np.testing.assert_allclose(reference.mean, base[:31].mean(axis=0), rtol=1e-12)
    leaked = base.copy()
    leaked[31:] += 1000.0  # values past the training windows must not leak into the fit
    shifted = scaler_for(leaked)
    np.testing.assert_array_equal(shifted.mean, reference.mean)
    np.testing.assert_array_equal(shifted.std, reference.std)
    inside = base.copy()
    inside[30] += 1000.0  # the last day of the training windows does move it
    assert not np.allclose(scaler_for(inside).mean, reference.mean)
    with pytest.raises(DegenerateScalerError):
        fit_scaler_pooled([np.ones((10, 4))])


def test_scaler_pooled_and_feature_helpers():
    a = np.arange(8.0).reshape(4, 2)
    b = np.arange(8.0, 16.0).reshape(4, 2)
    scaler = fit_scaler_pooled([a, b])
    stacked = np.vstack([a, b])
    np.testing.assert_allclose(scaler.mean, stacked.mean(axis=0))
    np.testing.assert_allclose(scaler.std, stacked.std(axis=0))
    x = 3.7
    z = scaler.apply_feature(x, 0)
    assert scaler.invert_feature(z, 0) == pytest.approx(x, abs=1e-12)
    with pytest.raises(InsufficientDataError):
        fit_scaler_pooled([])
    with pytest.raises(DegenerateScalerError):
        fit_scaler_pooled([np.ones((5, 2))])


def test_scaler_rejects_zero_std():
    with pytest.raises(DegenerateScalerError):
        Scaler(mean=np.zeros(2), std=np.array([1.0, 0.0]))


# -- windowing ----------------------------------------------------------------------

def test_make_windows_shapes_and_content():
    t, length, horizon = 12, 4, 2
    features = np.zeros((t, 4))
    features[:, 0] = np.arange(t, dtype=np.float64)
    features[:, 1] = 100 + np.arange(t)
    series = series_from(features)
    ws = make_windows(series, input_length=length, horizon=horizon)
    assert ws.n_samples == t - length - horizon + 1 == 7
    assert ws.inputs.shape == (7, 4, 4)
    assert ws.targets.shape == (7, 2, 1)
    np.testing.assert_array_equal(ws.inputs[0, :, 0], [0, 1, 2, 3])
    np.testing.assert_array_equal(ws.targets[0, :, 0], [4, 5])
    np.testing.assert_array_equal(ws.inputs[6, :, 0], [6, 7, 8, 9])
    np.testing.assert_array_equal(ws.targets[6, :, 0], [10, 11])
    # targets are the moisture column only
    np.testing.assert_array_equal(ws.inputs[0, :, 1], [100, 101, 102, 103])


def test_make_windows_too_short():
    series = series_from(np.random.default_rng(1).normal(size=(5, 4)))
    with pytest.raises(EmptyWindowError):
        make_windows(series, input_length=4, horizon=2)


def test_windows_match_naive_oracle():
    rng = np.random.default_rng(42)
    for _ in range(20):
        t = int(rng.integers(8, 40))
        length = int(rng.integers(1, 6))
        horizon = int(rng.integers(1, 5))
        if t < length + horizon:
            continue
        features = rng.normal(size=(t, 4))
        ws = make_windows(series_from(features), input_length=length, horizon=horizon)
        n = t - length - horizon + 1
        assert ws.n_samples == n
        for i in range(n):
            np.testing.assert_array_equal(ws.inputs[i], features[i : i + length])
            np.testing.assert_array_equal(ws.targets[i, :, 0], features[i + length : i + length + horizon, 0])


def test_chrono_split_pinned_example():
    features = np.zeros((15, 4))
    features[:, 0] = np.arange(15.0)
    ws = make_windows(series_from(features), input_length=4, horizon=2)  # N = 10
    train, test = chrono_split(ws, test_fraction=0.2)
    assert train.n_samples == 8
    assert test.n_samples == 2
    # order preserved, test strictly later
    np.testing.assert_array_equal(train.inputs[0, :, 0], [0, 1, 2, 3])
    np.testing.assert_array_equal(test.inputs[0, :, 0], [8, 9, 10, 11])
    assert test.inputs[0, 0, 0] > train.inputs[-1, 0, 0]
    # deterministic
    train2, test2 = chrono_split(ws, test_fraction=0.2)
    np.testing.assert_array_equal(train.inputs, train2.inputs)
    np.testing.assert_array_equal(test.targets, test2.targets)


def test_chrono_split_empty_sides():
    features = np.zeros((8, 4))
    features[:, 0] = np.arange(8.0)
    ws = make_windows(series_from(features), input_length=4, horizon=2)  # N = 3
    with pytest.raises(EmptySplitError):
        chrono_split(ws, test_fraction=0.9)  # floor(3 * 0.1) = 0 train samples
    with pytest.raises(ValueError):
        chrono_split(ws, test_fraction=1.0)


def test_concat_windows_roundtrip():
    rng = np.random.default_rng(5)
    a = make_windows(series_from(rng.normal(size=(10, 4))), input_length=3, horizon=2)
    b = make_windows(series_from(rng.normal(size=(9, 4))), input_length=3, horizon=2)
    both = concat_windows([a, b])
    assert both.n_samples == a.n_samples + b.n_samples
    np.testing.assert_array_equal(both.inputs[: a.n_samples], a.inputs)
    np.testing.assert_array_equal(both.targets[a.n_samples :], b.targets)
