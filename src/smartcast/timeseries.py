"""Sensor time-series ingestion and supervised windowing.

Reads per-sensor/per-depth daily records from CSV, aligns them to a
consecutive daily grid (linear gap fill up to a configurable maximum),
normalizes features, and slices the result into (input window, 14-day
target) training pairs with a chronological train/test split.

Feature column order is fixed everywhere: moisture, soil_temp,
salinity, rainfall. Moisture (column 0) is the forecast target.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .errors import (
    CsvFormatError,
    DegenerateScalerError,
    DuplicateKeyError,
    EmptySplitError,
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


@dataclass(frozen=True)
class SensorRecord:
    """One daily observation for a (sensor, depth) pair.

    Missing feature values are represented as NaN; the key fields
    (timestamp, sensor_id, depth_cm) are always present.
    """

    timestamp: date
    sensor_id: str
    depth_cm: int
    moisture: float
    soil_temp: float
    salinity: float
    rainfall: float

    def features(self) -> np.ndarray:
        return np.array([self.moisture, self.soil_temp, self.salinity, self.rainfall], dtype=np.float64)


@dataclass(frozen=True)
class SensorSeries:
    """Daily, gap-filled feature series for one (sensor, depth) pair.

    `features` is a (T, 4) float64 matrix in FEATURE_NAMES order with no
    NaN entries; `filled` flags days where at least one value was
    interpolated rather than observed.
    """

    sensor_id: str
    depth_cm: int
    dates: tuple[date, ...]
    features: np.ndarray
    filled: np.ndarray

    def __post_init__(self):
        t = len(self.dates)
        if self.features.shape != (t, 4):
            raise ValueError(f"features shape {self.features.shape} != ({t}, 4)")
        if self.filled.shape != (t,):
            raise ValueError("filled mask length mismatch")

    @property
    def length(self) -> int:
        return len(self.dates)

    def with_features(self, features: np.ndarray) -> "SensorSeries":
        """Copy of this series with the feature matrix replaced (same dates)."""
        return replace(self, features=np.asarray(features, dtype=np.float64))


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

    def invert(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(z, dtype=np.float64) * self.std + self.mean

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


def concat_windows(parts: list[WindowSet]) -> WindowSet:
    """Concatenate window sets with identical (L, H, d) along the sample axis."""
    if not parts:
        raise InsufficientDataError("no window sets to concatenate")
    shapes = {(p.input_length, p.horizon, p.input_dim) for p in parts}
    if len(shapes) != 1:
        raise ValueError(f"incompatible window shapes: {sorted(shapes)}")
    return WindowSet(
        inputs=np.concatenate([p.inputs for p in parts], axis=0),
        targets=np.concatenate([p.targets for p in parts], axis=0),
    )


# -- CSV ingestion -------------------------------------------------------------

def _parse_feature(text: str, line_no: int, name: str) -> float:
    if text == "":
        return math.nan
    try:
        value = float(text)
    except ValueError:
        raise CsvFormatError(f"line {line_no}: {name} is not a number: {text!r}") from None
    if not math.isfinite(value):
        raise CsvFormatError(f"line {line_no}: {name} must be finite")
    return value


def load_sensor_csv(path: str | Path) -> list[SensorRecord]:
    """Parse and validate a sensor CSV file.

    The header must be exactly `date,sensor_id,depth_cm,moisture,
    soil_temp,salinity,rainfall`; empty feature fields mean "missing".

    Raises:
        CsvFormatError: malformed header/row (message names the line).
        DuplicateKeyError: repeated (sensor_id, depth_cm, date).
    """
    path = Path(path)
    records: list[SensorRecord] = []
    seen: set[tuple[str, int, date]] = set()
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError("line 1: empty file, header required") from None
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
            moisture = _parse_feature(row[3], line_no, "moisture")
            soil_temp = _parse_feature(row[4], line_no, "soil_temp")
            salinity = _parse_feature(row[5], line_no, "salinity")
            rainfall = _parse_feature(row[6], line_no, "rainfall")
            if not math.isnan(moisture) and not 0.0 <= moisture <= 100.0:
                raise CsvFormatError(f"line {line_no}: moisture {moisture} outside [0, 100]")
            if not math.isnan(rainfall) and rainfall < 0.0:
                raise CsvFormatError(f"line {line_no}: rainfall {rainfall} is negative")
            key = (sensor_id, depth_cm, day)
            if key in seen:
                raise DuplicateKeyError(f"line {line_no}: duplicate record for {sensor_id}/{depth_cm}cm/{day.isoformat()}")
            seen.add(key)
            records.append(SensorRecord(day, sensor_id, depth_cm, moisture, soil_temp, salinity, rainfall))
    return records


# -- daily alignment and gap fill ----------------------------------------------

def _fill_column(values: np.ndarray, dates: list[date], max_gap: int, key: str, name: str) -> np.ndarray:
    """Linearly interpolate NaN runs of length <= max_gap; reject the rest."""
    out = values.copy()
    missing = np.isnan(out)
    if not missing.any():
        return out
    t = len(out)
    idx = 0
    while idx < t:
        if not missing[idx]:
            idx += 1
            continue
        start = idx
        while idx < t and missing[idx]:
            idx += 1
        end = idx  # [start, end) is one NaN run
        run = end - start
        if start == 0 or end == t:
            raise UnfillableGapError(
                f"{key}: {name} missing at the series boundary ({dates[start].isoformat()}..{dates[end - 1].isoformat()})"
            )
        if run > max_gap:
            raise UnfillableGapError(
                f"{key}: {name} gap of {run} days ({dates[start].isoformat()}..{dates[end - 1].isoformat()}) exceeds max_gap={max_gap}"
            )
        left, right = out[start - 1], out[end]
        for j in range(run):
            out[start + j] = left + (right - left) * (j + 1) / (run + 1)
    return out


def group_records(records: list[SensorRecord]) -> dict[tuple[str, int], list[SensorRecord]]:
    """Records keyed by (sensor_id, depth_cm) in one pass, file order kept.

    Each group holds the records themselves, not copies; passing a
    group to `build_series` gives the same series as passing them all.
    """
    groups: dict[tuple[str, int], list[SensorRecord]] = {}
    for rec in records:
        groups.setdefault((rec.sensor_id, rec.depth_cm), []).append(rec)
    return groups


def build_series(
    records: list[SensorRecord],
    sensor_id: str,
    depth_cm: int,
    max_gap: int = DEFAULT_MAX_GAP,
) -> SensorSeries:
    """Assemble the daily series for one (sensor, depth) key.

    Missing days and missing per-feature values are linearly
    interpolated when the gap is at most `max_gap` days; observed
    values are never altered. `records` may be the whole file or the
    key's group from `group_records`; the latter keeps many keys linear.

    Raises:
        MissingKeyError: key matches no record.
        InsufficientDataError: fewer than 2 matching records.
        UnfillableGapError: gap too long or at a series boundary.
    """
    matching = [r for r in records if r.sensor_id == sensor_id and r.depth_cm == depth_cm]
    if not matching:
        raise MissingKeyError(f"no records for sensor {sensor_id!r} at {depth_cm} cm")
    if len(matching) < 2:
        raise InsufficientDataError(f"sensor {sensor_id!r} at {depth_cm} cm has a single record; need at least 2")
    matching.sort(key=lambda r: r.timestamp)
    for a, b in zip(matching, matching[1:]):
        if a.timestamp == b.timestamp:
            raise DuplicateKeyError(f"duplicate record for {sensor_id}/{depth_cm}cm/{a.timestamp.isoformat()}")

    first, last = matching[0].timestamp, matching[-1].timestamp
    t = (last - first).days + 1
    dates = [first + timedelta(days=i) for i in range(t)]
    features = np.full((t, 4), np.nan, dtype=np.float64)
    observed_day = np.zeros(t, dtype=bool)
    for rec in matching:
        i = (rec.timestamp - first).days
        features[i] = rec.features()
        observed_day[i] = True

    key = f"{sensor_id}/{depth_cm}cm"
    filled = ~observed_day | np.isnan(features).any(axis=1)
    for col, name in enumerate(FEATURE_NAMES):
        features[:, col] = _fill_column(features[:, col], dates, max_gap, key, name)
    return SensorSeries(sensor_id, depth_cm, tuple(dates), features, filled)


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

def make_windows(series: SensorSeries, input_length: int, horizon: int = DEFAULT_HORIZON) -> WindowSet:
    """Slice a series into stride-1 (L-day input, H-day moisture target) pairs.

    N = T - L - H + 1 samples; targets are the moisture column only.
    Raises EmptyWindowError when the series is too short.
    """
    if input_length < 1 or horizon < 1:
        raise ValueError("input_length and horizon must be positive")
    t = series.length
    n = t - input_length - horizon + 1
    if n < 1:
        raise EmptyWindowError(
            f"series of {t} days yields no windows for L={input_length}, H={horizon} (need T >= {input_length + horizon})"
        )
    inputs = np.empty((n, input_length, 4), dtype=np.float64)
    targets = np.empty((n, horizon, 1), dtype=np.float64)
    for i in range(n):
        inputs[i] = series.features[i : i + input_length]
        targets[i, :, 0] = series.features[i + input_length : i + input_length + horizon, 0]
    return WindowSet(inputs=inputs, targets=targets)


def chrono_split(windows: WindowSet, test_fraction: float) -> tuple[WindowSet, WindowSet]:
    """Chronological split: first floor(N*(1-f)) samples train, rest test.

    Deterministic and order-preserving; every test sample starts later
    than every train sample. Raises EmptySplitError if a side is empty.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n = windows.n_samples
    n_train = math.floor(n * (1.0 - test_fraction))
    n_test = n - n_train
    if n_train < 1 or n_test < 1:
        raise EmptySplitError(f"split of {n} samples at test_fraction={test_fraction} leaves an empty side")
    train = WindowSet(inputs=windows.inputs[:n_train].copy(), targets=windows.targets[:n_train].copy())
    test = WindowSet(inputs=windows.inputs[n_train:].copy(), targets=windows.targets[n_train:].copy())
    return train, test
