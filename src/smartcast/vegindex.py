"""Vegetation-index rasters and per-pixel time-series prediction.

Band math (NDVI = (NIR-Red)/(NIR+Red), NDWI = (NIR-SWIR)/(NIR+SWIR)),
raster file I/O, conversion of image stacks into per-pixel
(value, days-to-target) windows, and batched per-pixel inference with
the seq2seq LSTM.

An image stack is one `IndexStack`, its dates and one (T, H, W) array,
and windows are slices of it. `BandGrid` is the raster file format only.

Nodata propagates: undefined ratios and missing inputs become the
nodata sentinel, never 0 or infinity.
"""

from __future__ import annotations

import bisect
import csv
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    CsvFormatError,
    DataError,
    InsufficientDataError,
    InsufficientHistoryError,
    ShapeError,
)
from .lstm import Seq2SeqModel, predict_batch
from .timeseries import _BAD, WindowSet, _parse_day

BANDGRID_MAGIC = "BGRID 1"
INDEX_KINDS = ("NDVI", "NDWI")
DEFAULT_NODATA = -9999.0
INPUT_WINDOW = 5  # prior images per pixel window


@dataclass(frozen=True)
class BandGrid:
    """One multiband raster: float32 data, band-major then row-major.

    `data` has shape (bands, height, width). Reflectance rasters keep
    values in [0, 1] or equal to `nodata`; derived products (e.g.
    exported moisture layers) may hold any finite values.
    """

    width: int
    height: int
    nodata: float
    band_names: tuple[str, ...]
    data: np.ndarray

    def __post_init__(self):
        if len(self.band_names) > 13:
            raise DataError("at most 13 bands supported")
        if self.data.shape != (len(self.band_names), self.height, self.width):
            raise ShapeError(
                f"data shape {self.data.shape} != ({len(self.band_names)}, {self.height}, {self.width})"
            )
        if self.data.dtype != np.float32:
            raise ShapeError("band data must be float32")

    @property
    def bands(self) -> int:
        return len(self.band_names)

    def band(self, name: str) -> np.ndarray:
        try:
            k = self.band_names.index(name)
        except ValueError:
            raise DataError(f"unknown band {name!r}; have {list(self.band_names)}") from None
        return self.data[k]


@dataclass(frozen=True)
class IndexStack:
    """Index images on strictly increasing dates: `values` is (T, H, W)
    float64, T = len(dates), with `DEFAULT_NODATA` where undefined."""

    dates: tuple[date, ...]
    values: np.ndarray

    def __post_init__(self):
        if not self.dates:
            raise DataError("image stack is empty")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise DataError("stack dates must be strictly increasing")


# -- band math ------------------------------------------------------------------

def compute_index(grid: BandGrid, kind: str, band_mapping: dict[str, str]) -> np.ndarray:
    """Normalized difference ratio of two mapped bands, as an (H, W) float64 array.

    NDVI = (NIR - Red) / (NIR + Red); NDWI = (NIR - SWIR) / (NIR + SWIR).
    Pixels where the denominator is zero or any input equals nodata
    become nodata.
    """
    if kind == "NDVI":
        plus, minus = band_mapping.get("nir"), band_mapping.get("red")
    elif kind == "NDWI":
        plus, minus = band_mapping.get("nir"), band_mapping.get("swir")
    else:
        raise DataError(f"unknown index kind {kind!r}")
    if plus is None or minus is None:
        raise DataError(f"band mapping {band_mapping} does not cover index {kind}")

    a = grid.band(plus)
    b = grid.band(minus)
    invalid = (a == np.float32(grid.nodata)) | (b == np.float32(grid.nodata))
    for name, band in ((plus, a), (minus, b)):
        block = band[~invalid]
        if block.size and (block.min() < 0.0 or block.max() > 1.0):
            raise DataError(f"band {name!r} has reflectance outside [0, 1]")

    a64 = a.astype(np.float64)
    b64 = b.astype(np.float64)
    denom = a64 + b64
    invalid |= denom == 0.0
    values = np.full(a.shape, float(DEFAULT_NODATA), dtype=np.float64)
    ok = ~invalid
    values[ok] = (a64[ok] - b64[ok]) / denom[ok]
    return values


# -- stack flattening -----------------------------------------------------------

def flatten_stack(stack: IndexStack, target_date: date) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel windows from the 5 most recent images before target_date.

    Returns (windows, mask): windows is (P, 5, 2) with columns (index
    value, days-to-target) and P = H*W in row-major pixel order; mask
    flags pixels valid in all 5 images. A masked pixel's values are 0.
    """
    n_prior = bisect.bisect_left(stack.dates, target_date)
    if n_prior < INPUT_WINDOW:
        raise InsufficientHistoryError(
            f"need {INPUT_WINDOW} images before {target_date.isoformat()}, have {n_prior}"
        )
    chosen = slice(n_prior - INPUT_WINDOW, n_prior)
    values = stack.values[chosen].reshape(INPUT_WINDOW, -1)
    mask = np.all(values != DEFAULT_NODATA, axis=0)
    windows = np.zeros((values.shape[1], INPUT_WINDOW, 2))
    windows[mask, :, 0] = values[:, mask].T
    days = np.array(stack.dates[chosen], dtype="datetime64[D]")
    windows[:, :, 1] = (np.datetime64(target_date, "D") - days).astype(np.float64)
    return windows, mask


def predict_pixels(model: Seq2SeqModel, windows: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """One index prediction per unmasked pixel, clamped to [-1, 1].

    `windows` are in index units, as `flatten_stack` makes them, and so
    are the predictions (`predict_batch` applies the model's scaler).
    Masked pixels get `DEFAULT_NODATA`. The model must have input_dim=2
    and horizon=1.
    """
    if model.input_dim != 2 or model.horizon != 1:
        raise ShapeError("pixel model must have input_dim=2 and horizon=1")
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 3 or windows.shape[1:] != (INPUT_WINDOW, 2):
        raise ShapeError(f"windows must be (P, {INPUT_WINDOW}, 2), got {windows.shape}")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (windows.shape[0],):
        raise ShapeError("mask length must equal the pixel count")

    out = np.full(windows.shape[0], DEFAULT_NODATA, dtype=np.float64)
    out[mask] = np.clip(predict_batch(model, windows[mask])[:, 0], -1.0, 1.0)
    return out


def stack_windows_for_training(stack: IndexStack) -> tuple[WindowSet, np.ndarray]:
    """Supervised pixel samples from every consecutive 6-image run.

    Run i uses images i..i+4 as the window and image i+5 as the target;
    a pixel contributes only to runs where it is valid in all 6 images.
    Returns the pooled WindowSet (L=5, d=2, H=1) plus the run index of
    each sample; samples are ordered by run, then pixel.
    """
    n_images = len(stack.dates)
    if n_images <= INPUT_WINDOW:
        raise InsufficientDataError(f"need at least {INPUT_WINDOW + 1} images, have {n_images}")
    values = stack.values.reshape(n_images, -1)
    runs = sliding_window_view(values, INPUT_WINDOW + 1, axis=0)  # (run, pixel, image in run)
    valid = sliding_window_view(values != DEFAULT_NODATA, INPUT_WINDOW + 1, axis=0).all(axis=2)
    if not valid.any():
        raise InsufficientDataError("no pixel is valid across any 6-image run")
    run_ids, pixel = np.divmod(np.flatnonzero(valid), values.shape[1])
    days = sliding_window_view(np.array(stack.dates, dtype="datetime64[D]"), INPUT_WINDOW + 1)
    inputs = np.empty((run_ids.size, INPUT_WINDOW, 2))
    inputs[:, :, 0] = runs[run_ids, pixel, :INPUT_WINDOW]
    inputs[:, :, 1] = (days[:, INPUT_WINDOW:] - days[:, :INPUT_WINDOW]).astype(np.float64)[run_ids]
    return WindowSet(inputs, runs[run_ids, pixel, INPUT_WINDOW:, None]), run_ids


# -- raster file I/O --------------------------------------------------------------

def write_bandgrid(grid: BandGrid, path: str | Path) -> None:
    """Write the bit-exact BGRID format: 4 header lines + raw LE float32."""
    with Path(path).open("wb") as fh:
        fh.write(f"{BANDGRID_MAGIC}\n".encode("ascii"))
        fh.write(f"{grid.width} {grid.height} {grid.bands}\n".encode("ascii"))
        fh.write(f"nodata={grid.nodata!r}\n".encode("ascii"))
        fh.write((",".join(grid.band_names) + "\n").encode("ascii"))
        fh.write(np.ascontiguousarray(grid.data, dtype="<f4").tobytes())


def read_bandgrid(path: str | Path) -> BandGrid:
    """Read a BGRID file written by write_bandgrid."""
    path = Path(path)
    with path.open("rb") as fh:
        def line() -> str:
            raw = fh.readline()
            if not raw.endswith(b"\n"):
                raise DataError(f"{path}: truncated header")
            if not raw.isascii():
                raise DataError(f"{path}: header is not ASCII")
            return raw[:-1].decode("ascii")

        if line() != BANDGRID_MAGIC:
            raise DataError(f"{path}: not a BGRID file")
        dims = line().split()
        if len(dims) != 3 or not all(v.isdigit() and int(v) > 0 for v in dims):
            raise DataError(f"{path}: dimension line must hold three positive integers")
        width, height, bands = (int(v) for v in dims)
        nodata_line = line()
        if not nodata_line.startswith("nodata="):
            raise DataError(f"{path}: malformed nodata line")
        try:
            nodata = float(nodata_line[len("nodata="):])
        except ValueError:
            raise DataError(f"{path}: nodata value is not a number") from None
        names = tuple(line().split(","))
        if len(names) != bands:
            raise DataError(f"{path}: {bands} bands declared but {len(names)} names listed")
        raw = fh.read(width * height * bands * 4)
        if len(raw) != width * height * bands * 4:
            raise DataError(f"{path}: pixel payload truncated")
        data = np.frombuffer(raw, dtype="<f4").reshape(bands, height, width).copy()
    return BandGrid(width=width, height=height, nodata=nodata, band_names=names, data=data)


def load_index_stack(manifest_path: str | Path, kind: str, band_mapping: dict[str, str]) -> IndexStack:
    """The index images of the BandGrids a `date,path` manifest CSV lists.

    The manifest is read as the sensor CSV is: UTF-8, optionally with a
    byte-order mark, and `YYYY-MM-DD` dates. Paths resolve against its
    directory. An unreadable image, a date not after the one before it,
    mixed dimensions and no image are data errors; the first two name
    their line.
    """
    path = Path(manifest_path)
    dates, images = [], []
    last_line = 0  # of the latest date read
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["date", "path"]:
            raise CsvFormatError(f"{path}: manifest header must be 'date,path'")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise CsvFormatError(f"{path}: line {line_no}: expected 2 fields")
            ordinal = _parse_day(row[0])
            if ordinal == _BAD:
                raise CsvFormatError(f"{path}: line {line_no}: bad date {row[0]!r} (want YYYY-MM-DD)")
            if dates and ordinal <= dates[-1].toordinal():
                raise DataError(
                    f"{path}: line {line_no}: date {row[0]} is not after {dates[-1].isoformat()} on line {last_line}; "
                    "manifest dates must be strictly increasing"
                )
            last_line = line_no
            grid_path = (path.parent / row[1]).resolve()
            try:
                grid = read_bandgrid(grid_path)
            except OSError as e:
                raise DataError(f"{path}: line {line_no}: cannot read {grid_path}: {e.strerror}") from None
            dates.append(date.fromordinal(ordinal))
            images.append(compute_index(grid, kind, band_mapping))
    shapes = sorted({img.shape for img in images})
    if len(shapes) > 1:
        raise DataError(f"{path}: images have mixed (height, width): {shapes}")
    return IndexStack(tuple(dates), np.array(images))


def write_pgm(values: np.ndarray, path: str | Path, nodata: float | None = None) -> tuple[float, float]:
    """Export a 2-D array as binary PGM (P5), min->0 and max->255.

    Nodata pixels map to 0. The scaling bounds go to a `<path>.txt`
    sidecar so the grayscale ramp stays invertible. Returns (lo, hi).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ShapeError("PGM export expects a 2-D array")
    valid = np.ones(values.shape, dtype=bool) if nodata is None else values != nodata
    if valid.any():
        lo = float(values[valid].min())
        hi = float(values[valid].max())
    else:
        lo = hi = 0.0
    if hi > lo:
        scaled = (values - lo) / (hi - lo)
    else:
        scaled = np.full(values.shape, 0.5)
    gray = np.clip(np.rint(scaled * 255.0), 0, 255).astype(np.uint8)
    gray[~valid] = 0
    path = Path(path)
    with path.open("wb") as fh:
        fh.write(f"P5\n{values.shape[1]} {values.shape[0]}\n255\n".encode("ascii"))
        fh.write(gray.tobytes())
    sidecar = path.with_name(path.name + ".txt")
    sidecar.write_text(
        f"min={lo!r}\nmax={hi!r}\nnodata_value={'none' if nodata is None else repr(float(nodata))}\nnodata_gray=0\n",
        encoding="utf-8",
    )
    return lo, hi
