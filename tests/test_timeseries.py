"""Ingestion, gap fill, scaling, windowing, and split behavior."""

import codecs
import csv
import json
import math
import re
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
    """(sensor_id, depth_cm, date, features) per row in table order, which is
    key order; None for a missing value."""
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


def test_dates_are_yyyy_mm_dd_only(tmp_path):
    # Python 3.11's date.fromisoformat also reads the basic and week forms; 3.10 does not
    for text in ["20240105", "2023-W01-2", "2024-01-5", "2024-01-05T00"]:
        p = write_csv(tmp_path, f"{text},s1,10,35.5,18.2,1.1,0.0\n")
        with pytest.raises(CsvFormatError, match=rf"^line 2: bad date '{text}' \(want YYYY-MM-DD\)$"):
            load_sensor_csv(p)


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
    """Reference: the row-at-a-time loader the columnar one replaced, as
    table_rows: rows in (sensor, depth, date) order, sensors in order of
    first appearance in the file."""

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
                if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", row[0]):
                    raise ValueError(row[0])
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
    codes = {sensor_id: code for code, sensor_id in enumerate(dict.fromkeys(row[0] for row in rows))}
    return sorted(rows, key=lambda row: (codes[row[0]], row[1], row[2]))  # key order, codes by first appearance


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


def load_or_error(path, loader):
    """What the loader returns, or the type and text of the error it raises."""
    try:
        return loader(path)
    except (CsvFormatError, DuplicateKeyError, csv.Error) as e:
        return type(e), str(e)


def rows_and_ids(path):
    """The loaded rows and the table's sensor ids, whose order gives the sensor codes."""
    table = load_sensor_csv(path)
    return table_rows(table), table.sensor_names


def oracle_rows_and_ids(path):
    """The reference rows, and the sensor ids in order of first appearance
    (which key order keeps)."""
    rows = row_loop_load(path)
    return rows, tuple(dict.fromkeys(row[0] for row in rows))


def test_fast_path_hazards_match_row_loop(tmp_path, monkeypatch):
    # Each case is a chunk's worth of text that numpy's loadtxt would read
    # otherwise than csv.reader (a cut text, a quote, a line end, a skipped
    # line, a number form only one of them takes) after clean lines that
    # the fast path takes. Chunks of 2 and 3 lines put each hazard at a
    # chunk start, in a chunk and across a chunk boundary.
    good = ["2024-01-01,s1,10,35.5,18.2,1.1,0.0", "2024-01-02,s1,10,34.0,18.0,1.2,4.5"]
    later = ["2024-01-03,s2,20,30.0,17.0,1.0,0.0", "2024-01-04,s2,20,31.0,17.5,1.0,2.0"]
    hazards = {
        # after chunks of "s1" the sensor-id field holds 4 characters: "abcde" is one past it
        "sensor id at the width": ["2024-01-03,abcd,10,35.5,18.2,1.1,0.0"],
        "sensor id past the width": ["2024-01-03,abcde,10,35.5,18.2,1.1,0.0", "2024-01-03,abcdefghij,20,1,1,1,1"],
        "sensor id past the first width": [f"2024-01-03,{'x' * 64},10,35.5,18.2,1.1,0.0"],
        "depth past the width": ["2024-01-03,s1,000000000100,35.5,18.2,1.1,0.0"],  # 100 cm, not 10 cut short
        "date at the width": ["2024-01-031,s1,10,35.5,18.2,1.1,0.0"],
        "date past the width": ["2024-01-0312,s1,10,35.5,18.2,1.1,0.0"],
        "quoted field": ['2024-01-03,"s1",10,35.5,18.2,1.1,0.0'],
        "quoted comma": ['2024-01-03,"s,1",10,35.5,18.2,1.1,0.0'],
        "quote across lines": ['2024-01-03,"s', '1",10,35.5,18.2,1.1,0.0', "2024-01-04,s1,15,1,1,1,1"],
        "blank line": ["", "2024-01-03,s1,10,35.5,18.2,1.1,0.0", "2024-01-04,s1,15,1,1,1,1"],
        "whitespace-only line": ["  ", "2024-01-03,s1,10,35.5,18.2,1.1,0.0"],
        "hash in sensor id": ["2024-01-03,s#1,10,35.5,18.2,1.1,0.0", "2024-01-03,#,10,1,1,1,1"],
        "underscore number": ["2024-01-03,s1,10,1_0,18.2,1.1,0.0"],
        "underscore depth": ["2024-01-03,s1,1_0,10,18.2,1.1,0.0"],
        "nan": ["2024-01-03,s1,10,nan,18.2,1.1,0.0"],
        "Infinity": ["2024-01-03,s1,10,35.5,18.2,1.1,Infinity"],
        "padded and signed depths": ["2024-01-03,s1, 20 ,35.5,18.2,1.1,0.0", "2024-01-03,s1,+30,1,1,1,1"],
        "non-ASCII digits": ["2024-01-03,s1,٣٠,35.5,18.2,1.1,0.0", "2024-01-04,s1,10,٣,18.2,1.1,0.0"],
        "odd whitespace": ["2024-01-03,s1\x85,10,35.5\x0c,18.2,1.1,0.0\x0b", "2024-01-04, s1 ,10,1,1,1,1"],
        "empty field": ["2024-01-03,s1,10,,18.2,1.1,0.0"],
        "bad date form": ["20240103,s1,10,35.5,18.2,1.1,0.0"],
        "NUL": ["2024-01-03,s1\0,10,35.5,18.2,1.1,0.0"],  # an id on Python 3.11, a csv.Error before
        "duplicate": ["2024-01-02,s1,10,1,1,1,1"],
    }
    endings = {"LF": "\n", "CRLF": "\r\n", "CR": "\r"}
    outcomes = set()
    for chunk_rows in (2, 3):
        monkeypatch.setattr(timeseries, "_CHUNK_ROWS", chunk_rows)
        for name, lines in hazards.items():
            for ending, eol in endings.items():
                for body in (good + lines + later, lines + good + later):
                    path = tmp_path / "case.csv"
                    path.write_bytes(eol.join([HEADER, *body, ""]).encode("utf-8"))
                    expected = load_or_error(path, oracle_rows_and_ids)
                    assert load_or_error(path, rows_and_ids) == expected, (chunk_rows, name, ending, body)
                    outcomes.add("ok" if isinstance(expected[0], list) else expected[1].split(":")[1].split()[0])
    assert {"ok", "bad", "depth_cm", "moisture", "rainfall", "expected", "duplicate"} <= outcomes


def test_clean_csv_takes_the_fast_path(tmp_path, monkeypatch):
    # The fast path must not go dead: a clean synth CSV, with CRLF or LF
    # line ends, loads without the csv.reader path at any chunk size.
    def no_csv_rows(self, rows, lines):
        raise AssertionError("a clean chunk went to the csv.reader path")

    spec = SynthSpec(sensor_fractions=tuple(((k % 4 + 0.5) / 4, (k // 4 + 0.5) / 3) for k in range(12)), n_days=60, n_images=0)
    crlf = generate_sensor_csv(spec, tmp_path / "crlf.csv", seed=3)
    lf = tmp_path / "lf.csv"
    lf.write_bytes(crlf.read_bytes().replace(b"\r\n", b"\n"))
    long_ids = tmp_path / "long_ids.csv"  # ids of 13 and 14 characters from the first line on
    long_ids.write_bytes(re.sub(rb",s([0-9])", rb",probe-north-\1", crlf.read_bytes()))
    expected = row_loop_load(crlf)
    assert len(expected) == 12 * 3 * 60
    monkeypatch.setattr(timeseries._ChunkConverter, "add", no_csv_rows)
    for chunk_rows in (1, 7, 1024):
        monkeypatch.setattr(timeseries, "_CHUNK_ROWS", chunk_rows)
        for path in (crlf, lf):
            assert table_rows(load_sensor_csv(path)) == expected
        assert load_sensor_csv(long_ids).sensor_names == tuple(f"probe-north-{k + 1}" for k in range(12))


def spy_on_parsers(monkeypatch) -> list[tuple]:
    """Each chunk the loader parses, in order: ("lines", first line, taken)
    for numpy's parser, ("rows", first line) for csv.reader's."""
    calls = []
    add_lines, add = timeseries._ChunkConverter.add_lines, timeseries._ChunkConverter.add

    def spied_add_lines(self, texts, line_no):
        taken = add_lines(self, texts, line_no)
        calls.append(("lines", line_no, taken))
        return taken

    def spied_add(self, rows, lines):
        calls.append(("rows", int(lines[0])))
        return add(self, rows, lines)

    monkeypatch.setattr(timeseries._ChunkConverter, "add_lines", spied_add_lines)
    monkeypatch.setattr(timeseries._ChunkConverter, "add", spied_add)
    return calls


def test_numpy_parser_resumes_after_a_declined_chunk_without_quotes(tmp_path, monkeypatch):
    # a blank line or an empty field sends only its own chunk to csv.reader;
    # numpy's parser takes the chunks after it, and the table is the oracle's
    days = [date(2024, 1, 1) + timedelta(days=k) for k in range(12)]
    body = [f"{day},s{k % 2},10,{30 + k}.5,18.2,1.1,{k % 3}.0" for k, day in enumerate(days)]
    monkeypatch.setattr(timeseries, "_CHUNK_ROWS", 4)
    calls = spy_on_parsers(monkeypatch)
    for name, lines in {
        "blank line": body[:1] + [""] + body[1:],
        "empty field": [body[0].replace(",0.0", ",")] + body[1:],
    }.items():
        calls.clear()
        path = write_csv(tmp_path, "\n".join(lines) + "\n")
        assert rows_and_ids(path) == oracle_rows_and_ids(path), name
        n = len(lines)
        assert calls == [("lines", 2, False), ("rows", 2)] + [("lines", k, True) for k in range(6, n + 2, 4)], name


def test_a_chunk_with_a_quote_sends_the_rest_to_csv_reader(tmp_path, monkeypatch):
    days = [date(2024, 1, 1) + timedelta(days=k) for k in range(12)]
    body = [f"{day},s1,10,{30 + k}.5,18.2,1.1,0.0" for k, day in enumerate(days)]
    body[1] = body[1].replace(",s1,", ',"s1",')
    monkeypatch.setattr(timeseries, "_CHUNK_ROWS", 4)
    calls = spy_on_parsers(monkeypatch)
    path = write_csv(tmp_path, "\n".join(body) + "\n")
    assert rows_and_ids(path) == oracle_rows_and_ids(path)
    assert calls == [("lines", 2, False), ("rows", 2), ("rows", 6), ("rows", 10)]


def test_errors_after_a_declined_chunk_match_row_loop(tmp_path, monkeypatch):
    # a declined first chunk (a blank line), a chunk numpy's parser takes,
    # then a bad row, a repeated key or an oversized id in the third chunk
    good = [f"2024-01-{d:02d},s1,10,3{d % 10}.5,18.2,1.1,0.0" for d in range(1, 8)]
    third = {
        "bad depth": "2024-02-01,s1,15,35.5,18.2,1.1,0.0",
        "duplicate of line 2": good[0],
        "duplicate of line 7": good[4],
        "negative rain": "2024-02-01,s1,10,35.5,18.2,1.1,-1",
        "long id": f"2024-02-01,{'x' * 70},10,35.5,18.2,1.1,0.0",
        "clean": "2024-02-01,s2,20,35.5,18.2,1.1,0.0",
    }
    monkeypatch.setattr(timeseries, "_CHUNK_ROWS", 3)
    for name, line in third.items():
        lines = good[:1] + [""] + good[1:5] + [line] + good[5:]
        path = write_csv(tmp_path, "\n".join(lines) + "\n")
        assert load_or_error(path, rows_and_ids) == load_or_error(path, oracle_rows_and_ids), name


def test_loader_keeps_no_parsed_chunk_alive(tmp_path):
    # numpy's parser returns each chunk as one structured array. Keeping a
    # view of one field of every chunk holds every field of every chunk to
    # the end: the peak was ~268 B/row here, against ~114 B/row for the
    # columns alone (~131 B/row when each chunk's columns were joined at
    # the end).
    day0 = date(2024, 1, 1)
    lines = [
        f"{day0 + timedelta(days=t)},s{k},{depth},{30 + k * 0.37 + t * 0.01},18.25,1.125,{t % 7 * 0.5}"
        for t in range(400) for k in range(1, 41) for depth in (10, 30, 60)
    ]
    path = write_csv(tmp_path, "\n".join(lines) + "\n")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = load_sensor_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 48_000
    assert (peak - before) / len(table) < 200


def table_bytes(table: SensorTable) -> tuple:
    return table.sensor_names, *((column.dtype, column.shape, column.tobytes()) for column in
                                 (table.sensor, table.depth_cm, table.day, table.features))


def test_row_order_gives_one_table(tmp_path, monkeypatch):
    # Rows come back in (sensor, depth, date) order, sensor codes in order of
    # first appearance, whatever the file's row order: 30 permutations of a
    # synth file load to its table bit for bit once its sensors are taken in
    # the permuted file's order. One file has scattered empty fields (chunks
    # declined without a quote), one a quoted field (csv.reader from there on).
    spec = SynthSpec(sensor_fractions=((0.2, 0.3), (0.7, 0.4), (0.5, 0.8)), n_days=20, n_images=0)
    with generate_sensor_csv(spec, tmp_path / "synth.csv", seed=2).open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    empties = [[text if j < 3 or (i * 7 + j) % 31 else "" for j, text in enumerate(row)] for i, row in enumerate(rows)]
    quoted = [row[:1] + [f'"{row[1]}"'] + row[2:] if i == 100 else row for i, row in enumerate(rows)]
    monkeypatch.setattr(timeseries, "_CHUNK_ROWS", 16)
    rng = np.random.default_rng(9)
    for base in (empties, quoted):
        reference = load_sensor_csv(write_csv(tmp_path, "".join(",".join(row) + "\n" for row in base)))
        assert len(reference) == len(rows) == 180 and np.isnan(reference.features).any() == (base is empties)
        for _ in range(30):
            shuffled = [base[i] for i in rng.permutation(len(base))]
            table = load_sensor_csv(write_csv(tmp_path, "".join(",".join(row) + "\n" for row in shuffled)))
            names = tuple(dict.fromkeys(row[1].strip('"') for row in shuffled))
            code = np.array([names.index(name) for name in reference.sensor_names])[reference.sensor]
            order = np.argsort(code, kind="stable")
            columns = (reference.depth_cm, reference.day, reference.features)
            expected = SensorTable(names, code[order], *(column[order] for column in columns))
            assert table_bytes(table) == table_bytes(expected)


def test_table_refuses_rows_out_of_key_order():
    day = date(2024, 1, 1).toordinal()

    def table(sensor, depth, days):
        return SensorTable(("s1", "s2"), np.array(sensor), np.array(depth), np.array(days), np.zeros((len(days), 4)))

    # sensor first, then depth, then day; 15 and 10 cm are two depths
    assert len(table([0, 0, 0, 1], [10, 15, 20, 10], [day + 1, day, day, day])) == 4
    assert len(table([], [], [])) == 0
    for sensor, depth, days in [
        ([0, 0], [10, 10], [day, day]),                 # a repeated key
        ([0, 0, 0], [10, 10, 10], [day, day + 1, day]),  # a key again, not next to its first
        ([0, 0], [10, 10], [day + 1, day]),             # days out of order
        ([0, 0], [15, 10], [day, day + 1]),             # depths out of order
        ([1, 0], [10, 10], [day, day + 1]),             # sensors out of order
    ]:
        with pytest.raises(ValueError, match=r"strictly increasing \(sensor, depth_cm, day\) order"):
            table(sensor, depth, days)


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
    # the rows' order in the file does not matter, nor do other keys' rows between them
    body = rows([(4, 36.0), (1, 30.0)]) + rows([(1, 5.0), (2, 6.0)], sensor="s0") + rows([(5, 35.0), (2, None)])
    p = write_csv(tmp_path, body)
    np.testing.assert_array_equal(build_series(load_sensor_csv(p), "s1", 10), series)


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
    # s1 has rows at 10 and 30 cm, so its 20 cm run is empty between them
    body = rows([(1, 30.0), (2, 31.0)]) + rows([(1, 40.0), (2, 41.0)], depth=30) + rows([(1, 50.0)], sensor="s2")
    p = write_csv(tmp_path, body)
    table = load_sensor_csv(p)
    with pytest.raises(MissingKeyError):
        build_series(table, "nope", 10)
    with pytest.raises(MissingKeyError):
        build_series(table, "s1", 20)
    with pytest.raises(MissingKeyError):
        build_series(load_sensor_csv(write_csv(tmp_path, "")), "s1", 10)
    with pytest.raises(InsufficientDataError):
        build_series(table, "s2", 10)
    assert build_series(table, "s1", 30)[:, 0].tolist() == [40.0, 41.0]


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
        return _prepare_depth(depth_table(features), ["s1"], 10, config).scaler

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
    # windows, the last of them val: 7 fit, 1 val, then H - 1 = 1 window
    # left out and 1 test, in time order.
    config = soil_config(tmp_path, input_length=4, horizon=2, test_fraction=0.2)
    features = ramp(15)
    task = _prepare_depth(depth_table(features), ["s1"], 10, config)
    fit, val, test = task.windows()
    assert (fit.n_samples, val.n_samples, test.n_samples) == (7, 1, 1)
    # the scaler sees the days of the 8 train windows: 8 + 4 + 2 - 1 = 13
    np.testing.assert_array_equal(task.scaler.mean, features[:13].mean(axis=0))
    z = task.scaler.apply(features)
    # order preserved, val after fit, test strictly later
    # the fit windows are float32, the training dtype; val and test stay float64
    assert fit.inputs.dtype == fit.targets.dtype == np.float32
    assert val.inputs.dtype == test.inputs.dtype == test.targets.dtype == np.float64
    np.testing.assert_array_equal(fit.inputs[0], z[0:4].astype(np.float32))
    np.testing.assert_array_equal(fit.targets[-1, :, 0], z[10:12, 0].astype(np.float32))
    np.testing.assert_array_equal(val.inputs[0], z[7:11])
    # test windows, the series shipped and its forecast tail are in original units
    np.testing.assert_array_equal(test.inputs[0], features[9:13])
    np.testing.assert_array_equal(test.targets[-1, :, 0], features[13:15, 0])
    np.testing.assert_array_equal(task.series["s1"], features)
    assert task.scaler.apply(test.inputs)[0, 0, 0] > val.inputs[-1, 0, 0] > fit.inputs[-1, 0, 0]
    # deterministic
    again = _prepare_depth(depth_table(features), ["s1"], 10, config).windows()
    np.testing.assert_array_equal(fit.inputs, again[0].inputs)
    np.testing.assert_array_equal(test.targets, again[2].targets)


def test_depth_split_empty_sides(tmp_path):
    table = depth_table(ramp(8))  # L=4, H=2: N = 3
    with pytest.raises(EmptySplitError, match="empty split"):
        _prepare_depth(table, ["s1"], 10, soil_config(tmp_path, 4, 2, test_fraction=0.9))  # floor(3 * 0.1) = 0 train
    with pytest.raises(EmptySplitError, match="empty split"):
        _prepare_depth(table, ["s1"], 10, soil_config(tmp_path, 4, 2, test_fraction=1e-17))  # 1 - f rounds to 1: 0 test
    with pytest.raises(EmptySplitError, match="6 days give 1 windows; need >= 2"):
        _prepare_depth(depth_table(ramp(6)), ["s1"], 10, soil_config(tmp_path, 4, 2, test_fraction=0.2))
    with pytest.raises(ConfigError):
        soil_config(tmp_path, 4, 2, test_fraction=1.0)
    # 7 days: N = 2, one train window, and the test side starts at window 2
    with pytest.raises(EmptySplitError, match="^sensor s1 depth 10: test_fraction 0.2 leaves an empty split"):
        _prepare_depth(depth_table(ramp(7)), ["s1"], 10, soil_config(tmp_path, 4, 2, test_fraction=0.2))
    # N = 3 at half: one train window; it fits, no val side exists, window 1 is left out
    fit, val, test = _prepare_depth(table, ["s1"], 10, soil_config(tmp_path, 4, 2, test_fraction=0.5)).windows()
    assert (fit.n_samples, val, test.n_samples) == (1, None, 1)


def test_no_test_target_day_was_a_training_target(tmp_path):
    # Sensor k's moisture on day t is 1000 k + t, so each target names its
    # sensor and day. For every sensor, no test target day may be a fit or
    # val target day: the test windows start H - 1 windows after the train ones.
    lengths = (90, 83, 107)
    series = [ramp(t) + [1000.0 * k, 0.0, 0.0, 0.0] for k, t in enumerate(lengths)]
    for input_length, horizon, test_fraction in ((5, 3, 0.25), (4, 7, 0.3), (3, 1, 0.2), (6, 14, 0.3)):
        config = soil_config(tmp_path, input_length, horizon, test_fraction)
        task = _prepare_depth(depth_table(*series), ["s1", "s2", "s3"], 10, config)
        fit, val, test = task.windows()
        train_targets = np.concatenate([w.targets[:, :, 0] for w in (fit, val) if w is not None])
        train_days = np.rint(task.scaler.invert_feature(train_targets.astype(np.float64), 0))
        for k in range(len(series)):
            trained = {day for day in train_days.ravel().tolist() if day // 1000 == k}
            tested = {day for day in test.targets.ravel().tolist() if day // 1000 == k}
            assert tested and trained, (k, horizon)
            assert not trained & tested, (k, input_length, horizon, sorted(trained & tested))


def test_depth_split_joins_sensors_in_order(tmp_path):
    # L=3, H=2. s1: 15 days, 11 windows -> 7 fit, 1 val, 1 left out, 2 test;
    # s2: 12 days, 8 windows -> 5 fit, 1 val, 1 left out, 1 test. A sensor
    # listed before s1 but without rows is skipped.
    config = soil_config(tmp_path, input_length=3, horizon=2, test_fraction=0.2)
    s1, s2 = ramp(15), np.random.default_rng(5).normal(30.0, 3.0, size=(12, 4))
    task = _prepare_depth(depth_table(s1, s2), ["s0", "s1", "s2"], 10, config)
    scaled = [make_windows(task.scaler.apply(f), input_length=3, horizon=2) for f in (s1, s2)]
    raw = [make_windows(f, input_length=3, horizon=2) for f in (s1, s2)]  # test windows are in original units
    fit, val, test = task.windows()
    splits = ((0, 7, 0, 5), (7, 8, 5, 6), (9, 11, 7, 8))
    for part, (w1, w2), cuts in zip((fit, val, test), (scaled, scaled, raw), splits):
        for got, one, two in zip((part.inputs, part.targets), w1, w2):
            joined = np.concatenate([one[cuts[0] : cuts[1]], two[cuts[2] : cuts[3]]])
            np.testing.assert_array_equal(got, joined.astype(np.float32 if part is fit else np.float64))
    assert list(task.series) == ["s1", "s2"]
    np.testing.assert_array_equal(task.series["s2"], s2)
