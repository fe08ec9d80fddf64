"""Vegetation-index rasters and per-pixel time-series prediction.

Band math (NDVI = (NIR-Red)/(NIR+Red), NDWI = (NIR-SWIR)/(NIR+SWIR)),
raster container I/O, conversion of image stacks into per-pixel
(value, days-to-target) windows, and batched per-pixel inference with
the seq2seq LSTM.

Nodata propagates: undefined ratios and missing inputs become the
nodata sentinel, never 0 or infinity.
"""

from __future__ import annotations

import csv
from collections.abc import Sequence
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .errors import (
    CsvFormatError,
    DataError,
    InsufficientDataError,
    InsufficientHistoryError,
    ShapeError,
)
from .lstm import Seq2SeqModel, predict_batch
from .timeseries import WindowSet

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
class IndexImage:
    """A single NDVI or NDWI raster; non-nodata values lie in [-1, 1]."""

    width: int
    height: int
    index_kind: str
    nodata: float
    values: np.ndarray

    def __post_init__(self):
        if self.index_kind not in INDEX_KINDS:
            raise DataError(f"index_kind must be one of {INDEX_KINDS}, got {self.index_kind!r}")
        if self.values.shape != (self.height, self.width):
            raise ShapeError(f"values shape {self.values.shape} != ({self.height}, {self.width})")
        valid = self.values != self.nodata
        block = self.values[valid]
        if block.size and (not np.all(np.isfinite(block)) or block.min() < -1.0 or block.max() > 1.0):
            raise DataError("index values must lie in [-1, 1] or equal nodata")

    def valid_mask(self) -> np.ndarray:
        return self.values != self.nodata


@dataclass(frozen=True)
class ImageStack:
    """Date-ordered index images with shared dimensions."""

    entries: tuple[tuple[date, IndexImage], ...]

    def __post_init__(self):
        if not self.entries:
            raise DataError("image stack is empty")
        dates = [d for d, _ in self.entries]
        if any(b <= a for a, b in zip(dates, dates[1:])):
            raise DataError("stack dates must be strictly increasing")
        dims = {(img.width, img.height) for _, img in self.entries}
        if len(dims) != 1:
            raise DataError(f"stack images have mixed dimensions: {sorted(dims)}")

    @property
    def width(self) -> int:
        return self.entries[0][1].width

    @property
    def height(self) -> int:
        return self.entries[0][1].height

    def __len__(self) -> int:
        return len(self.entries)


# -- band math ------------------------------------------------------------------

def compute_index(grid: BandGrid, kind: str, band_mapping: dict[str, str]) -> IndexImage:
    """Normalized difference ratio of two mapped bands.

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
    return IndexImage(grid.width, grid.height, kind, float(DEFAULT_NODATA), values)


# -- stack flattening -----------------------------------------------------------

def _pixel_windows(chosen: Sequence[tuple[date, IndexImage]], target_date: date) -> tuple[np.ndarray, np.ndarray]:
    """(windows, mask) of `flatten_stack` from the window's images, oldest first."""
    p = chosen[0][1].values.size
    windows = np.zeros((p, INPUT_WINDOW, 2), dtype=np.float64)
    mask = np.ones(p, dtype=bool)
    for j, (d, img) in enumerate(chosen):
        flat = img.values.reshape(-1)
        valid = img.valid_mask().reshape(-1)
        mask &= valid
        windows[:, j, 0] = np.where(valid, flat, 0.0)
        windows[:, j, 1] = float((target_date - d).days)
    windows[~mask, :, 0] = 0.0
    return windows, mask


def flatten_stack(stack: ImageStack, target_date: date) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel windows from the 5 most recent images before target_date.

    Returns (windows, mask): windows is (P, 5, 2) with columns (index
    value, days-to-target) and P = width*height in row-major pixel
    order; mask flags pixels valid in all 5 images.
    """
    prior = [(d, img) for d, img in stack.entries if d < target_date]
    if len(prior) < INPUT_WINDOW:
        raise InsufficientHistoryError(
            f"need {INPUT_WINDOW} images before {target_date.isoformat()}, have {len(prior)}"
        )
    return _pixel_windows(prior[-INPUT_WINDOW:], target_date)


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


def reshape_to_image(flat: np.ndarray, width: int, height: int, index_kind: str) -> IndexImage:
    """Row-major reshape of a flat prediction vector into an IndexImage with `DEFAULT_NODATA`."""
    flat = np.asarray(flat, dtype=np.float64)
    if flat.shape != (width * height,):
        raise ShapeError(f"flat length {flat.shape} != width*height = {width * height}")
    return IndexImage(width, height, index_kind, DEFAULT_NODATA, flat.reshape(height, width).copy())


def stack_windows_for_training(stack: ImageStack) -> tuple[WindowSet, np.ndarray]:
    """Supervised pixel samples from every consecutive 6-image run.

    Run i uses images i..i+4 as the window and image i+5 as the target;
    a pixel contributes only to runs where it is valid in all 6 images.
    Returns the pooled WindowSet (L=5, d=2, H=1) plus the run index of
    each sample; samples are ordered by run, then pixel.
    """
    n_runs = len(stack) - INPUT_WINDOW
    if n_runs < 1:
        raise InsufficientDataError(f"need at least {INPUT_WINDOW + 1} images, have {len(stack)}")
    inputs, targets, run_ids = [], [], []
    for r in range(n_runs):
        target_date, target_img = stack.entries[r + INPUT_WINDOW]
        windows, mask = _pixel_windows(stack.entries[r : r + INPUT_WINDOW], target_date)
        mask &= target_img.valid_mask().reshape(-1)
        if not mask.any():
            continue
        inputs.append(windows[mask])
        targets.append(target_img.values.reshape(-1)[mask])
        run_ids.append(np.full(int(mask.sum()), r, dtype=np.int64))
    if not inputs:
        raise InsufficientDataError("no pixel is valid across any 6-image run")
    ws = WindowSet(
        inputs=np.concatenate(inputs, axis=0),
        targets=np.concatenate(targets)[:, None, None],
    )
    return ws, np.concatenate(run_ids)


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


def read_stack_manifest(path: str | Path) -> list[tuple[date, Path]]:
    """Parse a `date,path` manifest CSV; paths resolve against its directory."""
    path = Path(path)
    out: list[tuple[date, Path]] = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["date", "path"]:
            raise CsvFormatError(f"{path}: manifest header must be 'date,path'")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise CsvFormatError(f"{path}: line {line_no}: expected 2 fields")
            try:
                day = date.fromisoformat(row[0])
            except ValueError:
                raise CsvFormatError(f"{path}: line {line_no}: bad date {row[0]!r}") from None
            out.append((day, (path.parent / row[1]).resolve()))
    return out


def load_index_stack(manifest_path: str | Path, kind: str, band_mapping: dict[str, str]) -> ImageStack:
    """Read every BandGrid in a manifest and convert it to an index stack."""
    entries = []
    for day, grid_path in read_stack_manifest(manifest_path):
        grid = read_bandgrid(grid_path)
        entries.append((day, compute_index(grid, kind, band_mapping)))
    return ImageStack(entries=tuple(entries))


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
