"""Ingestion, gap fill, scaling, windowing, and split behavior."""

import codecs
import csv
import json
import math
import tracemalloc
from datetime import date, timedelta

import numpy as np
import pytest

from smartcast.errors import (
    ConfigError,
    CsvFormatError,
    DegenerateScalerError,
    DuplicateKeyError,
    EmptySplitError,
    EmptyWindowError,
    InsufficientDataError,
    MissingKeyError,
    UnfillableGapError,
)
from smartcast import timeseries
from smartcast.pipeline import _prepare_depth, parse_config
from smartcast.synth import SynthSpec, generate_sensor_csv
from smartcast.timeseries import (
    CSV_HEADER,
    FEATURE_NAMES,
    VALID_DEPTHS_CM,
    Scaler,
    SensorTable,
    build_series,
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


def soil_config(tmp_path, input_length: int, horizon: int, test_fraction: float):
    """A parsed config with the given soil window and split; its sensor CSV is empty."""
    (tmp_path / "sensors.csv").write_text(HEADER + "\n", encoding="utf-8")
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "seed": 1,
                "sensor_csv": "sensors.csv",
                "horizon_days": horizon,
                "test_fraction": test_fraction,
                "soil_model": {"input_length": input_length},
            }
        ),
        encoding="utf-8",
    )
    return parse_config(config_path)


def depth_table(*series: np.ndarray) -> SensorTable:
    """Sensors s1, s2, ... at 10 cm, sensor k's daily rows from 2024-01-01 taken
    from series[k]. Built directly: the loader would refuse values out of range."""
    first = date(2024, 1, 1).toordinal()
    return SensorTable(
        tuple(f"s{k + 1}" for k in range(len(series))),
        np.concatenate([np.full(len(f), k) for k, f in enumerate(series)]),
        np.full(sum(map(len, series)), 10),
        np.concatenate([first + np.arange(len(f)) for f in series]),
        np.concatenate(series),
    )


def table_rows(table: SensorTable) -> list[tuple]:
    """(sensor_id, depth_cm, date, features) per row in table order; None for a missing value."""
    return [
        (table.sensor_names[code], depth, date.fromordinal(day), tuple(None if math.isnan(v) else v for v in values))
        for code, depth, day, values in zip(
            table.sensor.tolist(), table.depth_cm.tolist(), table.day.tolist(), table.features.tolist()
        )
    ]


# -- loader ----------------------------------------------------------------------

def test_load_happy_path(tmp_path):
    p = write_csv(
        tmp_path,
        "2024-01-01,s1,10,35.5,18.2,1.1,0.0\n"
        "2024-01-02,s1,10,34.0,18.0,1.2,4.5\n",
    )
    table = load_sensor_csv(p)
    assert len(table) == 2
    assert table.sensor_names == ("s1",)
    assert table.sensor.tolist() == [0, 0]
    assert table.depth_cm.tolist() == [10, 10]
    assert table.day.tolist() == [date(2024, 1, 1).toordinal(), date(2024, 1, 2).toordinal()]
    assert table.features[1, 3] == 4.5
    np.testing.assert_allclose(table.features[0], [35.5, 18.2, 1.1, 0.0])


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
    table = load_sensor_csv(p)
    assert np.isnan(table.features[0, 0])
    assert table.features[0, 1] == 18.2
    # a literal nan is a value that is not finite, not a missing one
    p = write_csv(tmp_path, "2024-01-01,s1,10,nan,18.2,1.1,0.0\n")
    with pytest.raises(CsvFormatError, match="line 2: moisture must be finite"):
        load_sensor_csv(p)


def test_earliest_bad_line_wins(tmp_path):
    good = "2024-01-01,s1,10,35.5,18.2,1.1,0.0\n"
    cases = [
        # a later line's error never hides an earlier line's, whatever the checks
        ("2024-01-01,s1,15,35.5,18.2,1.1,0.0\n01/02/2024,s1,10,35.5,18.2,1.1,0.0\n", CsvFormatError,
         "line 2: depth_cm 15 not in {10,20,...,120}"),
        ("2024-01-01,s1,10,120.0,18.2,1.1,0.0\n2024-01-02,s1,10\n", CsvFormatError,
         "line 2: moisture 120.0 outside [0, 100]"),
        ("2024-01-01,s1,10,35.5,18.2,1.1,0.0,9\n2024-01-02,s1,15,35.5,18.2,1.1,0.0\n", CsvFormatError,
         "line 2: expected 7 fields, got 8"),
        # within one line, the checks run in row order
        ("xx,,15,abc,inf,1.1,-1\n", CsvFormatError, "line 2: bad date 'xx' (want YYYY-MM-DD)"),
        ("2024-01-01, ,abc,abc,inf,1.1,-1\n", CsvFormatError, "line 2: sensor_id is empty"),
        ("2024-01-01,s1,10,200,inf,x,-1\n", CsvFormatError, "line 2: soil_temp must be finite"),
        ("2024-01-01,s1,10,200,18.2,1.1,-1\n", CsvFormatError, "line 2: moisture 200.0 outside [0, 100]"),
        # a blank line keeps the numbers of the lines after it
        (good + "\n" + "2024-01-02,s1,10,35.5,18.2,abc,0.0\n", CsvFormatError,
         "line 4: salinity is not a number: 'abc'"),
        # a duplicate is an error of its second line, raised before later errors
        (good + good + "2024-01-03,s1,15,35.5,18.2,1.1,0.0\n", DuplicateKeyError,
         "line 3: duplicate record for s1/10cm/2024-01-01"),
        (good + "2024-01-03,s1,15,35.5,18.2,1.1,0.0\n" + good, CsvFormatError, "line 3: depth_cm 15 not in"),
    ]
    for body, error, message in cases:
        with pytest.raises(error) as exc:
            load_sensor_csv(write_csv(tmp_path, body))
        assert str(exc.value).startswith(message), (body, str(exc.value))


def test_errors_and_rows_do_not_depend_on_chunking(tmp_path, monkeypatch):
    days = [f"2024-01-{d:02d}" for d in range(1, 11)]
    body = [f"{day},s{k % 2},{10 * (1 + k % 3)},{30 + k}.5,18.2,1.1,0.0" for k, day in enumerate(days)]
    clean = write_csv(tmp_path, "\n".join(body[:4]) + "\n\n" + "\n".join(body[4:]) + "\n")
    reference = table_rows(load_sensor_csv(clean))
    monkeypatch.setattr(timeseries, "_CHUNK_ROWS", 3)
    assert table_rows(load_sensor_csv(clean)) == reference
    assert len(reference) == 10
    # line 3's key again on line 9: chunks hold lines 2-4, 5-7, 8-10; a bad
    # row on line 11 comes later than the duplicate
    rows = body[:7] + [body[1]] + body[7:8] + ["2024-02-01,s1,15,35.5,18.2,1.1,0.0"]
    with pytest.raises(DuplicateKeyError, match=r"^line 9: duplicate record for s1/20cm/2024-01-02$"):
        load_sensor_csv(write_csv(tmp_path, "\n".join(rows) + "\n"))
    # the same rows one chunk apiece
    monkeypatch.setattr(timeseries, "_CHUNK_ROWS", 1)
    with pytest.raises(DuplicateKeyError, match=r"^line 9: "):
        load_sensor_csv(write_csv(tmp_path, "\n".join(rows) + "\n"))


def test_load_accepts_byte_order_mark(tmp_path):
    plain = write_csv(tmp_path, "2024-01-01,s1,10,35.5,18.2,1.1,0.0\n2024-01-02,s1,10,,18.0,1.2,4.5\n")
    marked = tmp_path / "marked.csv"
    marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    assert table_rows(load_sensor_csv(marked)) == table_rows(load_sensor_csv(plain))


def test_loader_memory_per_row(tmp_path):
    # 40 sensors x 3 depths x 400 days. The row-object loader this replaced
    # kept 327 B/row and peaked at 433 B/row on this file.
    spec = SynthSpec(sensor_fractions=tuple(((k % 8 + 0.5) / 8, (k // 8 + 0.5) / 5) for k in range(40)), n_images=0)
    path = generate_sensor_csv(spec, tmp_path / "sensors.csv", seed=1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = load_sensor_csv(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == 48_000
    assert (retained - before) / len(table) <= 100
    assert (peak - before) / len(table) < 433


def row_loop_load(path) -> list[tuple]:
    """Reference: the row-at-a-time loader the columnar one replaced, as table_rows."""

    def feature(text, line_no, name):
        if text == "":
            return math.nan
        try:
            value = float(text)
        except ValueError:
            raise CsvFormatError(f"line {line_no}: {name} is not a number: {text!r}") from None
        if not math.isfinite(value):
            raise CsvFormatError(f"line {line_no}: {name} must be finite")
        return value

    rows, seen = [], set()
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_HEADER:
            raise CsvFormatError(f"line 1: header must be {','.join(CSV_HEADER)!r}, got {','.join(header)!r}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CSV_HEADER):
                raise CsvFormatError(f"line {line_no}: expected {len(CSV_HEADER)} fields, got {len(row)}")
            try:
                day = date.fromisoformat(row[0])
            except ValueError:
                raise CsvFormatError(f"line {line_no}: bad date {row[0]!r} (want YYYY-MM-DD)") from None
            sensor_id = row[1].strip()
            if not sensor_id:
                raise CsvFormatError(f"line {line_no}: sensor_id is empty")
            try:
                depth_cm = int(row[2])
            except ValueError:
                raise CsvFormatError(f"line {line_no}: depth_cm is not an integer: {row[2]!r}") from None
            if depth_cm not in VALID_DEPTHS_CM:
                raise CsvFormatError(f"line {line_no}: depth_cm {depth_cm} not in {{10,20,...,120}}")
            values = [feature(text, line_no, name) for text, name in zip(row[3:], FEATURE_NAMES)]
            if not math.isnan(values[0]) and not 0.0 <= values[0] <= 100.0:
                raise CsvFormatError(f"line {line_no}: moisture {values[0]} outside [0, 100]")
            if not math.isnan(values[3]) and values[3] < 0.0:
                raise CsvFormatError(f"line {line_no}: rainfall {values[3]} is negative")
            key = (sensor_id, depth_cm, day)
            if key in seen:
                raise DuplicateKeyError(f"line {line_no}: duplicate record for {sensor_id}/{depth_cm}cm/{day.isoformat()}")
            seen.add(key)
            rows.append((sensor_id, depth_cm, day, tuple(None if math.isnan(v) else v for v in values)))
    return rows


def test_loader_matches_row_loop_oracle(tmp_path, monkeypatch):
    rng = np.random.default_rng(11)
    bad_fields = {
        0: ["01/02/2024", "", "2024-02-30", "20240105"],
        1: ["", "  ", " s1 ", "s2"],
        2: ["15", "abc", "99999999999999999999", " 20 ", "0", "+30"],
        3: ["", "nan", "inf", "abc", "120", "-1", "1e2", "100.0000001"],
        4: ["", "nan", "-inf", "x", "1_0"],
        5: ["", "NaN", "1,5"],
        6: ["", "-1", "-0.0", "inf", "abc"],
    }
    monkeypatch.setattr(timeseries, "_CHUNK_ROWS", 4)
    outcomes = set()
    for case in range(300):
        rows = []
        empties = 0.2 if rng.random() < 0.3 else 0.0  # scattered missing values beside good numbers
        for k in range(int(rng.integers(1, 14))):
            day = date(2024, 1, 1) + timedelta(days=int(rng.integers(0, 6)))
            row = [day.isoformat(), f"s{rng.integers(1, 3)}", str(10 * int(rng.integers(1, 3)))]
            row += [f"{rng.uniform(0, 100):.2f}", "18.2", "1.1", f"{rng.uniform(0, 5):.1f}"]
            row[3:] = ["" if rng.random() < empties else text for text in row[3:]]
            if rng.random() < 0.08:
                col = int(rng.integers(0, 7))
                row[col] = str(rng.choice(bad_fields[col]))
            if rng.random() < 0.03:
                row = row[: int(rng.integers(0, 7))] if rng.random() < 0.5 else row + ["x"]
            rows.append(row)
            if rng.random() < 0.05:
                rows.append([])
        path = tmp_path / f"case{case}.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            writer.writerows(rows)
        try:
            expected = row_loop_load(path)
        except (CsvFormatError, DuplicateKeyError) as e:
            with pytest.raises(type(e)) as got:
                load_sensor_csv(path)
            assert str(got.value) == str(e), path.read_text()
            outcomes.add(str(e).split(":")[1].split()[0])
        else:
            assert table_rows(load_sensor_csv(path)) == expected
            outcomes.add("ok")
    # the cases reach the success path, every key check and a duplicate
    assert {"ok", "bad", "sensor_id", "depth_cm", "duplicate", "expected", "moisture"} <= outcomes


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
    np.testing.assert_allclose(series[:, 0], [30.0, 32.0, 34.0, 36.0, 35.0])


def test_series_missing_days_are_filled(tmp_path):
    # day 2 absent entirely: daily grid inserts and interpolates it
    p = write_csv(tmp_path, rows([(1, 30.0), (3, 34.0)]))
    series = build_series(load_sensor_csv(p), "s1", 10)
    assert series.shape == (3, 4)
    assert series[1, 0] == 32.0


def test_series_gap_too_long(tmp_path):
    p = write_csv(tmp_path, rows([(1, 30.0), (6, 35.0)]))
    with pytest.raises(UnfillableGapError, match=r"s1/10cm: moisture gap of 4 days \(2024-01-02\.\.2024-01-05\) exceeds max_gap=3"):
        build_series(load_sensor_csv(p), "s1", 10, max_gap=3)
    # the same gap is fine with a larger allowance
    series = build_series(load_sensor_csv(p), "s1", 10, max_gap=4)
    np.testing.assert_allclose(series[:, 0], [30.0, 31.0, 32.0, 33.0, 34.0, 35.0])


def test_series_boundary_gap_rejected(tmp_path):
    p = write_csv(tmp_path, rows([(1, None), (2, 31.0), (3, 32.0)]))
    with pytest.raises(UnfillableGapError, match=r"s1/10cm: moisture missing at the series boundary \(2024-01-01\.\.2024-01-01\)"):
        build_series(load_sensor_csv(p), "s1", 10)


def test_series_key_errors(tmp_path):
    p = write_csv(tmp_path, rows([(1, 30.0), (2, 31.0)]))
    table = load_sensor_csv(p)
    with pytest.raises(MissingKeyError):
        build_series(table, "nope", 10)
    with pytest.raises(MissingKeyError):
        build_series(table, "s1", 20)
    with pytest.raises(MissingKeyError):
        build_series(table[:0], "s1", 10)
    with pytest.raises(InsufficientDataError):
        build_series(table[:1], "s1", 10)


def test_grouped_series_equal_full_scan(tmp_path, synth_dir):
    gappy = write_csv(
        tmp_path,
        rows([(4, 33.0), (1, 30.0), (2, None), (6, 35.0), (7, 36.0)])
        + rows([(1, 20.0), (3, 22.0), (2, 21.0)], depth=20)
        + rows([(5, 50.0), (1, 10.0)], sensor="s2"),
    )
    for path in (synth_dir / "sensors.csv", gappy):
        table = load_sensor_csv(path)
        rows_in_file = table_rows(table)
        groups = group_records(table)
        assert sorted(groups) == sorted({row[:2] for row in rows_in_file})
        for (sid, depth), group in groups.items():
            # group rows equal the full scan's rows in file order
            assert table_rows(group) == [row for row in rows_in_file if row[:2] == (sid, depth)]
            np.testing.assert_array_equal(build_series(group, sid, depth), build_series(table, sid, depth))
        with pytest.raises(MissingKeyError):
            build_series(table, "nope", 10)


def test_group_errors_match_full_scan():
    # the loader rejects a repeated key, so this table is built directly
    day = date(2024, 1, 1).toordinal()
    table = SensorTable(
        ("s1", "s2"),
        sensor=np.array([0, 1, 0]),
        depth_cm=np.array([10, 10, 10]),
        day=np.array([day, day + 1, day]),
        features=np.array([[30.0, 18.0, 1.0, 0.0], [31.0, 18.0, 1.0, 0.0], [31.0, 18.0, 1.0, 0.0]]),
    )
    groups = group_records(table)
    assert sorted(groups) == [("s1", 10), ("s2", 10)]
    assert table_rows(groups[("s1", 10)]) == [table_rows(table)[0], table_rows(table)[2]]
    for rows in (groups[("s1", 10)], table):
        with pytest.raises(DuplicateKeyError, match="s1/10cm/2024-01-01"):
            build_series(rows, "s1", 10)
    for rows in (groups[("s2", 10)], table):
        with pytest.raises(InsufficientDataError):
            build_series(rows, "s2", 10)
    assert group_records(table[:0]) == {}


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
    np.testing.assert_allclose(z * scaler.std + scaler.mean, features, atol=1e-12)


def test_scaler_train_range_only(tmp_path):
    # 40 days, L=5, H=2: 34 windows, the first 25 train, and the training
    # windows cover days 0..30. Days 31..39 reach only test windows.
    config = soil_config(tmp_path, input_length=5, horizon=2, test_fraction=0.25)
    rng = np.random.default_rng(3)
    base = rng.normal(20.0, 2.0, size=(40, 4))

    def scaler_for(features: np.ndarray) -> Scaler:
        return _prepare_depth(group_records(depth_table(features)), ["s1"], 10, config).scaler

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


# -- windowing and the per-depth split ------------------------------------------------

def test_make_windows_shapes_and_content():
    t, length, horizon = 12, 4, 2
    features = np.zeros((t, 4))
    features[:, 0] = np.arange(t, dtype=np.float64)
    features[:, 1] = 100 + np.arange(t)
    inputs, targets = make_windows(features, input_length=length, horizon=horizon)
    assert len(inputs) == len(targets) == t - length - horizon + 1 == 7
    assert inputs.shape == (7, 4, 4)
    assert targets.shape == (7, 2, 1)
    np.testing.assert_array_equal(inputs[0, :, 0], [0, 1, 2, 3])
    np.testing.assert_array_equal(targets[0, :, 0], [4, 5])
    np.testing.assert_array_equal(inputs[6, :, 0], [6, 7, 8, 9])
    np.testing.assert_array_equal(targets[6, :, 0], [10, 11])
    # targets are the moisture column only
    np.testing.assert_array_equal(inputs[0, :, 1], [100, 101, 102, 103])


def test_make_windows_too_short():
    features = np.random.default_rng(1).normal(size=(5, 4))
    with pytest.raises(EmptyWindowError):
        make_windows(features, input_length=4, horizon=2)


def test_make_windows_returns_owned_contiguous_arrays():
    # copies, never views of the series: a pickled job carries its windows only
    features = np.random.default_rng(2).normal(size=(20, 4))
    for length, horizon in ((5, 3), (1, 1), (19, 1)):
        for windows in make_windows(features, input_length=length, horizon=horizon):
            assert windows.flags.c_contiguous and windows.flags.owndata
            assert not np.shares_memory(windows, features)


def test_windows_match_naive_oracle():
    rng = np.random.default_rng(42)
    for _ in range(20):
        t = int(rng.integers(8, 40))
        length = int(rng.integers(1, 6))
        horizon = int(rng.integers(1, 5))
        if t < length + horizon:
            continue
        features = rng.normal(size=(t, 4))
        inputs, targets = make_windows(features, input_length=length, horizon=horizon)
        n = t - length - horizon + 1
        assert len(inputs) == len(targets) == n
        for i in range(n):
            np.testing.assert_array_equal(inputs[i], features[i : i + length])
            np.testing.assert_array_equal(targets[i, :, 0], features[i + length : i + length + horizon, 0])


def ramp(t: int) -> np.ndarray:
    """t days whose moisture is the day number; no column is constant."""
    return np.arange(float(t))[:, None] * [1.0, 2.0, 3.0, 5.0] + [0.0, 10.0, 1.0, 0.0]


def test_depth_split_pinned_example(tmp_path):
    # 15 days, L=4, H=2: N = 10 windows. Test fraction 0.2 leaves 8 train
    # windows, the last of them val: 7 fit, 1 val, 2 test, in time order.
    config = soil_config(tmp_path, input_length=4, horizon=2, test_fraction=0.2)
    features = ramp(15)
    data = _prepare_depth(group_records(depth_table(features)), ["s1"], 10, config)
    assert (data.fit.n_samples, data.val.n_samples, data.test.n_samples) == (7, 1, 2)
    # the scaler sees the days of the 8 train windows: 8 + 4 + 2 - 1 = 13
    np.testing.assert_array_equal(data.scaler.mean, features[:13].mean(axis=0))
    z = data.scaler.apply(features)
    # order preserved, val after fit, test strictly later
    np.testing.assert_array_equal(data.fit.inputs[0], z[0:4])
    np.testing.assert_array_equal(data.fit.targets[-1, :, 0], z[10:12, 0])
    np.testing.assert_array_equal(data.val.inputs[0], z[7:11])
    np.testing.assert_array_equal(data.test.inputs[0], z[8:12])
    np.testing.assert_array_equal(data.test.targets[-1, :, 0], z[13:15, 0])
    assert data.test.inputs[0, 0, 0] > data.val.inputs[-1, 0, 0] > data.fit.inputs[-1, 0, 0]
    np.testing.assert_array_equal(data.last_inputs["s1"], z[-4:])
    # deterministic
    again = _prepare_depth(group_records(depth_table(features)), ["s1"], 10, config)
    np.testing.assert_array_equal(data.fit.inputs, again.fit.inputs)
    np.testing.assert_array_equal(data.test.targets, again.test.targets)


def test_depth_split_empty_sides(tmp_path):
    groups = group_records(depth_table(ramp(8)))  # L=4, H=2: N = 3
    with pytest.raises(EmptySplitError, match="empty split"):
        _prepare_depth(groups, ["s1"], 10, soil_config(tmp_path, 4, 2, test_fraction=0.9))  # floor(3 * 0.1) = 0 train
    with pytest.raises(EmptySplitError, match="empty split"):
        _prepare_depth(groups, ["s1"], 10, soil_config(tmp_path, 4, 2, test_fraction=1e-17))  # 1 - f rounds to 1: 0 test
    with pytest.raises(EmptySplitError, match="6 days give 1 windows; need >= 2"):
        _prepare_depth(group_records(depth_table(ramp(6))), ["s1"], 10, soil_config(tmp_path, 4, 2, test_fraction=0.2))
    with pytest.raises(ConfigError):
        soil_config(tmp_path, 4, 2, test_fraction=1.0)
    # 7 days: N = 2, one train window; it fits and no val side exists
    data = _prepare_depth(group_records(depth_table(ramp(7))), ["s1"], 10, soil_config(tmp_path, 4, 2, 0.2))
    assert (data.fit.n_samples, data.val, data.test.n_samples) == (1, None, 1)


def test_depth_split_joins_sensors_in_order(tmp_path):
    # L=3, H=2. s1: 15 days, 11 windows -> 7 fit, 1 val, 3 test;
    # s2: 12 days, 8 windows -> 5 fit, 1 val, 2 test. A sensor listed
    # before s1 but without rows is skipped.
    config = soil_config(tmp_path, input_length=3, horizon=2, test_fraction=0.2)
    s1, s2 = ramp(15), np.random.default_rng(5).normal(30.0, 3.0, size=(12, 4))
    data = _prepare_depth(group_records(depth_table(s1, s2)), ["s0", "s1", "s2"], 10, config)
    w1, w2 = (make_windows(data.scaler.apply(f), input_length=3, horizon=2) for f in (s1, s2))
    for part, cuts in ((data.fit, (0, 7, 0, 5)), (data.val, (7, 8, 5, 6)), (data.test, (8, 11, 6, 8))):
        for got, one, two in zip((part.inputs, part.targets), w1, w2):
            np.testing.assert_array_equal(got, np.concatenate([one[cuts[0] : cuts[1]], two[cuts[2] : cuts[3]]]))
    assert list(data.last_inputs) == ["s1", "s2"]
