"""Sensor time-series ingestion and supervised windowing.

Reads per-sensor/per-depth daily records from CSV into one columnar
`SensorTable` (day ordinals, sensor codes, depths, an (N, 4) feature
matrix), parsing, converting and validating the rows in bounded chunks:
through numpy's C parser when a chunk is clean and through csv.reader
when it is not, or from the first chunk that holds a quote to the end.
The table's rows are sorted by (sensor, depth, day), so each key's rows
are one run of its days; `build_series` finds a key's run by binary
search and aligns it to a consecutive daily grid as a (T, 4) feature
array (linear gap fill up to a configurable maximum). Also fits pooled
normalization statistics and cuts a feature array into (input window,
14-day target) array pairs. The chronological train/val/test split of
those windows is the pipeline's.

Feature column order is fixed everywhere: moisture, soil_temp,
salinity, rainfall. Moisture (column 0) is the forecast target.
"""

from __future__ import annotations

import csv
import itertools
import math
import re
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .errors import (
    CsvFormatError,
    DegenerateScalerError,
    DuplicateKeyError,
    EmptyWindowError,
    InsufficientDataError,
    MissingKeyError,
    UnfillableGapError,
)

CSV_HEADER = ["date", "sensor_id", "depth_cm", "moisture", "soil_temp", "salinity", "rainfall"]
FEATURE_NAMES = ("moisture", "soil_temp", "salinity", "rainfall")
VALID_DEPTHS_CM = tuple(range(10, 121, 10))
DEFAULT_HORIZON = 14
DEFAULT_MAX_GAP = 3


@dataclass(frozen=True, eq=False)
class SensorTable:
    """Sensor observations as columns, one entry per data row.

    `sensor` indexes `sensor_names`, the distinct ids in order of first
    appearance in the file; `day` holds `date.toordinal()` values;
    `features` is an (N, 4) float64 matrix in FEATURE_NAMES order, NaN
    where a value is missing. Rows are in strictly increasing (sensor,
    depth_cm, day) order, so no key repeats and each (sensor, depth)
    key's rows are one run in day order; a table out of that order is
    refused.
    """

    sensor_names: tuple[str, ...]
    sensor: np.ndarray     # (N,) int64
    depth_cm: np.ndarray   # (N,) int64
    day: np.ndarray        # (N,) int64
    features: np.ndarray   # (N, 4) float64

    def __post_init__(self):
        step = [np.diff(column) for column in (self.sensor, self.depth_cm, self.day)]
        ordered = (step[0] > 0) | ((step[0] == 0) & ((step[1] > 0) | ((step[1] == 0) & (step[2] > 0))))
        if not ordered.all():
            row = int(ordered.argmin()) + 1
            raise ValueError(f"rows must be in strictly increasing (sensor, depth_cm, day) order; row {row} is not")

    def __len__(self) -> int:
        return len(self.day)


@dataclass(frozen=True)
class Scaler:
    """Per-feature standardization statistics (population std, ddof=0)."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ValueError("mean/std must be 1-D and of equal length")
        if np.any(self.std <= 0):
            raise DegenerateScalerError("scaler std must be positive for every feature")

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Standardize; last axis must match the feature count."""
        return (np.asarray(x, dtype=np.float64) - self.mean) / self.std

    def apply_feature(self, x: np.ndarray | float, index: int) -> np.ndarray | float:
        return (x - self.mean[index]) / self.std[index]

    def invert_feature(self, z: np.ndarray | float, index: int) -> np.ndarray | float:
        return z * self.std[index] + self.mean[index]


@dataclass(frozen=True)
class WindowSet:
    """Supervised samples: inputs (N, L, d) and targets (N, H, 1).

    The target window of sample i starts the day after its input window
    ends; sample order is chronological by window start.
    """

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        if self.inputs.ndim != 3 or self.targets.ndim != 3:
            raise ValueError("inputs/targets must be 3-D arrays")
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError("inputs/targets sample counts differ")
        if self.targets.shape[2] != 1:
            raise ValueError("targets must have a single channel")

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_length(self) -> int:
        return self.inputs.shape[1]

    @property
    def horizon(self) -> int:
        return self.targets.shape[1]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[2]


# -- CSV ingestion -------------------------------------------------------------

# Data lines are read, parsed and converted to columns this many at a time, by
# either parser, so the loader holds one chunk of lines and parsed rows
# (~0.7 KB a row at most) beside the columns built so far, never the file.
# Larger chunks load no faster.
_CHUNK_ROWS = 1024
# Memoised key values that fail a check; valid ordinals, codes and depths are >= 0.
_BAD = -1
_NOT_A_DEPTH = -2


def _parse_day(text: str) -> int:
    # the form first: from Python 3.11 on, fromisoformat also reads 20240105 and 2023-W01-2
    if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", text):
        return _BAD
    try:
        return date.fromisoformat(text).toordinal()
    except ValueError:
        return _BAD


def _parse_depth(text: str) -> int:
    try:
        depth_cm = int(text)
    except ValueError:
        return _BAD
    return depth_cm if depth_cm in VALID_DEPTHS_CM else _NOT_A_DEPTH


def _feature_column(texts: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One feature column's values, with the masks of texts that are not
    numbers and of numbers that are not finite. An empty text is NaN."""
    n = len(texts)
    not_number = np.zeros(n, dtype=bool)
    try:
        values = np.fromiter(map(float, texts), dtype=np.float64, count=n)
    except ValueError:
        try:  # scattered empty texts, read as NaN in one pass
            values = np.fromiter(map(float, [text or "nan" for text in texts]), dtype=np.float64, count=n)
        except ValueError:  # a text that is not a number: mark each one
            values = np.full(n, math.nan)
            for i, text in enumerate(texts):
                if text:
                    try:
                        values[i] = float(text)
                    except ValueError:
                        not_number[i] = True
    non_finite = ~np.isfinite(values) & ~not_number
    for i in np.flatnonzero(non_finite):
        non_finite[i] = texts[i] != ""  # a literal nan or inf, not a missing value
    return values, not_number, non_finite


def _row_key(sensor: np.ndarray, depth: np.ndarray, day: np.ndarray) -> np.ndarray:
    """One int64 per loaded row, in (sensor, depth, day) order: ordinals fit
    22 bits and depths (at most 120) 7, so every depth keeps its own key."""
    return (sensor << 29) | (depth << 22) | day


class _ChunkConverter:
    """Validates chunks of CSV data rows and collects them as table columns.

    `add_lines` takes a chunk of raw lines through numpy's loadtxt, or
    declines it; `add` takes csv.reader rows, and `add_all` a csv.reader's
    every row, a chunk at a time. Date, depth and sensor-id
    texts are parsed once per distinct text. Every check runs on whole
    columns; the error raised is the one the earliest bad line would
    give, checks taken in row order.
    """

    def __init__(self):
        self.days: dict[str, int] = {}      # date text -> ordinal or _BAD
        self.depths: dict[str, int] = {}    # depth text -> cm, _BAD or _NOT_A_DEPTH
        self.sensors: dict[str, int] = {}   # sensor_id text -> code or _BAD
        self.codes: dict[str, int] = {}     # stripped sensor_id -> code
        # line, sensor, depth, day, features; the first `rows` rows are filled. Five blocks resized
        # in place hold every row: per-chunk blocks end up fenced by small freed blocks the allocator
        # keeps, so their memory is not reused. No view of them outlives a method call.
        self.columns = [np.empty(0, dtype=np.int64) for _ in range(4)] + [np.empty((0, len(FEATURE_NAMES)))]
        self.rows = 0
        self.sid_width = 0  # of add_lines' sensor-id field; 0 until a chunk is taken

    def _sensor_code(self, text: str) -> int:
        sensor_id = text.strip()
        return self.codes.setdefault(sensor_id, len(self.codes)) if sensor_id else _BAD

    @staticmethod
    def _lookup(memo: dict[str, int], texts: tuple[str, ...] | list[str], parse) -> np.ndarray:
        for text in dict.fromkeys(texts):  # first-appearance order keeps sensor codes deterministic
            if text not in memo:
                memo[text] = parse(text)
        return np.fromiter(map(memo.__getitem__, texts), dtype=np.int64, count=len(texts))

    @staticmethod
    def _distinct(texts: np.ndarray) -> tuple[list[str], np.ndarray]:
        """A string array's distinct texts in order of first appearance, and each entry's index among them."""
        distinct, first, inverse = np.unique(texts, return_index=True, return_inverse=True)
        order = np.argsort(first)
        return distinct[order].tolist(), np.argsort(order)[inverse]

    def add_lines(self, texts: list[str], line_no: int) -> bool:
        """Append one chunk of raw data lines, the first numbered `line_no`,
        through numpy's C parser. Return False, having appended nothing,
        when the chunk might read otherwise than through csv.reader and
        `add`: quotes, NUL, a blank line, a text that loadtxt refuses or
        may have cut, or any row that fails a check."""
        blob = "".join(texts)
        if '"' in blob or "\0" in blob or min(map(len, texts)) <= 2:  # <= 2: a blank line, which loadtxt skips
            return False
        # Keys are read as texts and parsed as `add` parses them. loadtxt cuts a text to its
        # field's width without a word, so a text that fills it is declined (an 11-character
        # date is no date). The first chunk's sensor-id field holds 63 characters, later ones
        # twice the longest id taken so far: sized by the data, not by a line that may be huge.
        sid_width = self.sid_width or 64
        dtype = [("date", "U11"), ("sid", f"U{sid_width}"), ("depth", "U11"), ("f", "f8", (len(FEATURE_NAMES),))]
        try:
            chunk = np.loadtxt(texts, delimiter=",", dtype=dtype, comments=None, quotechar=None, ndmin=1)
        except ValueError:
            return False
        features = chunk["f"]
        moisture, rainfall = features[:, 0], features[:, 3]
        in_range = (moisture >= 0.0) & (moisture <= 100.0) & (rainfall >= 0.0)
        if len(chunk) != len(texts) or not (np.isfinite(features).all() and in_range.all()):
            return False
        dates, date_at = self._distinct(chunk["date"])
        sids, sid_at = self._distinct(chunk["sid"])
        depths, depth_at = self._distinct(chunk["depth"])
        longest_sid = max(map(len, sids))
        if longest_sid == sid_width or max(map(len, depths)) == 11:
            return False
        day = self._lookup(self.days, dates, _parse_day)[date_at]
        sensor = self._lookup(self.sensors, sids, self._sensor_code)[sid_at]
        depth = self._lookup(self.depths, depths, _parse_depth)[depth_at]
        if min(day.min(), sensor.min(), depth.min()) < 0:  # _BAD or _NOT_A_DEPTH
            return False
        self._append(np.arange(line_no, line_no + len(texts)), sensor, depth, day, features)
        self.sid_width = max(self.sid_width, 2 * longest_sid + 1)
        return True

    def add(self, rows: list[list[str]], lines: np.ndarray) -> None:
        """Append one chunk; raise the error of its earliest bad line."""
        width = len(CSV_HEADER)
        wrong_width = np.flatnonzero(np.fromiter(map(len, rows), dtype=np.intp, count=len(rows)) != width)
        n = int(wrong_width[0]) if wrong_width.size else len(rows)
        columns = list(zip(*rows[:n])) or [()] * width
        day = self._lookup(self.days, columns[0], _parse_day)
        sensor = self._lookup(self.sensors, columns[1], self._sensor_code)
        depth = self._lookup(self.depths, columns[2], _parse_depth)
        features = np.empty((n, len(FEATURE_NAMES)))
        # (bad-row mask, message for row i), in the order one row's checks run
        checks = [
            (day == _BAD, lambda i: f"bad date {rows[i][0]!r} (want YYYY-MM-DD)"),
            (sensor == _BAD, lambda i: "sensor_id is empty"),
            (depth == _BAD, lambda i: f"depth_cm is not an integer: {rows[i][2]!r}"),
            (depth == _NOT_A_DEPTH, lambda i: f"depth_cm {int(rows[i][2])} not in {{10,20,...,120}}"),
        ]
        for col, name in enumerate(FEATURE_NAMES):
            features[:, col], not_number, non_finite = _feature_column(columns[3 + col])
            checks.append((not_number, lambda i, col=col, name=name: f"{name} is not a number: {rows[i][3 + col]!r}"))
            checks.append((non_finite, lambda i, name=name: f"{name} must be finite"))
        moisture, rainfall = features[:, 0], features[:, 3]
        checks.append(((moisture < 0.0) | (moisture > 100.0), lambda i: f"moisture {float(moisture[i])} outside [0, 100]"))
        checks.append((rainfall < 0.0, lambda i: f"rainfall {float(rainfall[i])} is negative"))
        hits = [(int(bad.argmax()), message) for bad, message in checks if bad.any()]
        if wrong_width.size:
            hits.append((n, lambda i: f"expected {width} fields, got {len(rows[i])}"))
        if not hits:
            self._append(lines, sensor, depth, day, features)
            return
        i, message = min(hits, key=lambda hit: hit[0])  # the first check that fails on the earliest bad row
        self._append(lines[:i], sensor[:i], depth[:i], day[:i], features[:i])
        self._check_duplicates()  # a repeated key on an earlier line is reported first
        raise CsvFormatError(f"line {lines[i]}: {message(i)}")

    def add_all(self, reader, line_no: int) -> int:
        """Append every row of a csv.reader, the first on line `line_no`,
        through `add` a chunk at a time; return the line after the last."""
        while rows := list(itertools.islice(reader, _CHUNK_ROWS)):
            lines = np.arange(line_no, line_no + len(rows))
            line_no += len(rows)
            if not all(rows):  # skip blank lines; later lines keep their numbers
                kept = [i for i, row in enumerate(rows) if row]
                rows, lines = [rows[i] for i in kept], lines[kept]
            self.add(rows, lines)
            del rows  # one chunk of parsed rows alive at a time: drop it before reading the next
        return line_no

    def _append(self, *values: np.ndarray) -> None:
        """Copy rows into the columns, doubling their capacity when full."""
        rows = self.rows + len(values[0])
        if rows > len(self.columns[0]):
            for column in self.columns:
                column.resize((max(rows, 2 * len(column)), *column.shape[1:]), refcheck=False)
        for column, value in zip(self.columns, values):
            column[self.rows : rows] = value
        self.rows = rows

    def _check_duplicates(self) -> np.ndarray:
        """The rows' stable order by (sensor, depth, date); raise at the
        earliest line whose key an earlier line holds."""
        line, sensor, depth, day = (column[: self.rows] for column in self.columns[:4])
        key = _row_key(sensor, depth, day)
        order = np.argsort(key, kind="stable")
        ordered = key[order]
        again = order[1:][ordered[1:] == ordered[:-1]]  # with a stable sort: every occurrence but the first
        if again.size:
            i = int(again.min())
            raise DuplicateKeyError(
                f"line {line[i]}: duplicate record for {tuple(self.codes)[sensor[i]]}/{depth[i]}cm/"
                f"{date.fromordinal(int(day[i])).isoformat()}"
            )
        return order

    def table(self) -> SensorTable:
        """The rows as a SensorTable, in key order. Each column is permuted
        one (N,) slice at a time, so one slice's copy is held beside them."""
        order = self._check_duplicates()
        del self.columns[0]  # the line numbers
        for column in self.columns:
            column.resize((self.rows, *column.shape[1:]), refcheck=False)
            for part in np.atleast_2d(column.T):
                part[:] = part[order]
        return SensorTable(tuple(self.codes), *self.columns)


def load_sensor_csv(path: str | Path) -> SensorTable:
    """Parse and validate a sensor CSV file into a SensorTable, its rows in
    (sensor, depth, date) order whatever the file's row order.

    The header must be exactly `date,sensor_id,depth_cm,moisture,
    soil_temp,salinity,rainfall`, optionally after a UTF-8 byte-order
    mark; dates are `YYYY-MM-DD`; empty feature fields mean "missing";
    blank lines are skipped.

    Chunks of lines go through numpy's C parser; csv.reader reads a chunk
    it declines and finds any error. After a declined chunk that holds a
    quote, which may open a field spanning lines, csv.reader reads the rest
    of the file; after any other, numpy's parser takes the next chunk.

    Raises:
        CsvFormatError: malformed header/row (message names the line).
        DuplicateKeyError: repeated (sensor_id, depth_cm, date).
    """
    path = Path(path)
    converter = _ChunkConverter()
    with path.open(newline="", encoding="utf-8-sig") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise CsvFormatError("line 1: empty file, header required") from None
        if header != CSV_HEADER:
            raise CsvFormatError(f"line 1: header must be {','.join(CSV_HEADER)!r}, got {','.join(header)!r}")
        line_no = 2
        while texts := list(itertools.islice(fh, _CHUNK_ROWS)):
            if converter.add_lines(texts, line_no):
                line_no += len(texts)
            elif any('"' in text for text in texts):  # a quoted field may span lines: csv.reader reads the rest
                converter.add_all(csv.reader(itertools.chain(texts, fh)), line_no)
                break
            else:  # one row per line, so the next chunk starts on a line of its own
                line_no = converter.add_all(csv.reader(texts), line_no)
    return converter.table()


# -- daily alignment and gap fill ----------------------------------------------

def _fill_gaps(column: np.ndarray, first_day: int, max_gap: int, key: str, name: str) -> None:
    """Linearly interpolate the column's NaN runs of length <= max_gap in
    place; reject the rest. Day i of the column is ordinal first_day + i."""
    missing = np.concatenate(([False], np.isnan(column), [False]))
    edges = np.flatnonzero(missing[1:] != missing[:-1]).tolist()  # [start, end) of each NaN run, in order
    for start, end in zip(edges[0::2], edges[1::2]):
        run = end - start
        if 0 < start and end < len(column) and run <= max_gap:
            left, right = column[start - 1], column[end]
            column[start:end] = left + (right - left) * np.arange(1, run + 1) / (run + 1)
            continue
        span = f"{date.fromordinal(first_day + start).isoformat()}..{date.fromordinal(first_day + end - 1).isoformat()}"
        if start == 0 or end == len(column):
            raise UnfillableGapError(f"{key}: {name} missing at the series boundary ({span})")
        raise UnfillableGapError(f"{key}: {name} gap of {run} days ({span}) exceeds max_gap={max_gap}")


def build_series(
    table: SensorTable,
    sensor_id: str,
    depth_cm: int,
    max_gap: int = DEFAULT_MAX_GAP,
) -> np.ndarray:
    """The daily (T, 4) feature array of one (sensor, depth) key, from its
    first observed day to its last, in FEATURE_NAMES order with no NaN.

    Missing days and missing per-feature values are linearly
    interpolated when the gap is at most `max_gap` days; observed
    values are never altered. The key's rows are found by binary search
    in the table's key order.

    Raises:
        MissingKeyError: key matches no row.
        InsufficientDataError: fewer than 2 matching rows.
        UnfillableGapError: gap too long or at a series boundary.
    """
    code = table.sensor_names.index(sensor_id) if sensor_id in table.sensor_names else _BAD
    start, stop = np.searchsorted(table.sensor, (code, code + 1))
    start, stop = start + np.searchsorted(table.depth_cm[start:stop], (depth_cm, depth_cm + 1))
    if stop == start:
        raise MissingKeyError(f"no records for sensor {sensor_id!r} at {depth_cm} cm")
    if stop - start < 2:
        raise InsufficientDataError(f"sensor {sensor_id!r} at {depth_cm} cm has a single record; need at least 2")
    days = table.day[start:stop]

    first = int(days[0])
    features = np.full((int(days[-1]) - first + 1, len(FEATURE_NAMES)), np.nan)
    features[days - first] = table.features[start:stop]
    key = f"{sensor_id}/{depth_cm}cm"
    for col, name in enumerate(FEATURE_NAMES):
        _fill_gaps(features[:, col], first, max_gap, key, name)
    return features


# -- normalization ---------------------------------------------------------------

def fit_scaler_pooled(blocks: list[np.ndarray]) -> Scaler:
    """Fit a scaler over several (T_i, d) feature blocks stacked together."""
    if not blocks:
        raise InsufficientDataError("no feature blocks to fit a scaler on")
    stacked = np.concatenate(blocks, axis=0)
    if stacked.shape[0] < 2:
        raise DegenerateScalerError("pooled fit range must cover at least 2 rows")
    mean = stacked.mean(axis=0)
    std = stacked.std(axis=0)
    for col in range(stacked.shape[1]):
        if std[col] <= 0:
            name = FEATURE_NAMES[col] if col < len(FEATURE_NAMES) else f"column {col}"
            raise DegenerateScalerError(f"feature {name!r} is constant over the pooled fit range")
    return Scaler(mean=mean, std=std)


# -- windowing -------------------------------------------------------------------

def make_windows(
    features: np.ndarray, input_length: int, horizon: int = DEFAULT_HORIZON
) -> tuple[np.ndarray, np.ndarray]:
    """Cut a (T, d) feature array into stride-1 (L-day input, H-day moisture target) pairs.

    Returns inputs (N, L, d) and targets (N, H, 1), N = T - L - H + 1, in
    order of window start; targets are the moisture column only. Both
    are C-contiguous copies that own their data, not views of `features`.
    Raises EmptyWindowError when the series is too short.
    """
    if input_length < 1 or horizon < 1:
        raise ValueError("input_length and horizon must be positive")
    t = len(features)
    if t - input_length - horizon + 1 < 1:
        raise EmptyWindowError(
            f"series of {t} days yields no windows for L={input_length}, H={horizon} (need T >= {input_length + horizon})"
        )
    windows = np.lib.stride_tricks.sliding_window_view(features, input_length + horizon, axis=0)  # (N, d, L + H)
    inputs = windows[:, :, :input_length].transpose(0, 2, 1).copy()
    targets = windows[:, 0, input_length:, None].copy()
    return inputs, targets
