"""Deterministic synthetic scenario generator.

Produces a sensor CSV (seasonal sinusoid + rainfall-driven impulses
with depth-lagged damping + AR(1) noise), a multispectral image stack
whose NDVI field is a pixel-phased seasonal wave plus a drifting
Gaussian bump, and a ready-to-run JSON config binding them together.
Every byte of output is a pure function of (spec, seed).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .timeseries import VALID_DEPTHS_CM
from .vegindex import DEFAULT_NODATA, BandGrid, write_bandgrid

_YEAR_DAYS = 365.0
_AR_COEFF = 0.7
_RAIN_DECAY = 0.85


@dataclass(frozen=True)
class SynthSpec:
    """Dimensions and knobs for one synthetic scenario."""

    n_days: int = 400
    start: date = date(2023, 1, 1)
    season_days: float = 120.0
    depths_cm: tuple[int, ...] = (10, 30, 60)
    sensor_fractions: tuple[tuple[float, float], ...] = (
        (0.2, 0.2),
        (0.8, 0.25),
        (0.3, 0.75),
        (0.7, 0.8),
    )
    grid_nx: int = 16
    grid_ny: int = 16
    cell_size: float = 10.0
    n_images: int = 13
    image_width: int = 32
    image_height: int = 32
    image_interval_days: int = 10
    interval_jitter_days: int = 2
    noise_scale: float = 0.4
    rain_probability: float = 0.2
    rain_mean_mm: float = 4.0
    cloud_image: int | None = 2
    cloud_size: int = 8

    def __post_init__(self):
        if self.n_days < 1 or self.n_images < 0 or self.image_width < 1 or self.image_height < 1:
            raise ConfigError("scenario dimensions must be positive")
        if self.noise_scale < 0 or not (0.0 <= self.rain_probability <= 1.0):
            raise ConfigError("noise_scale must be >= 0 and rain_probability in [0, 1]")
        for d in self.depths_cm:
            if d not in VALID_DEPTHS_CM:
                raise ConfigError(f"depth {d} outside supported range 10..120 step 10")

    @property
    def domain_x(self) -> float:
        return self.grid_nx * self.cell_size

    @property
    def domain_y(self) -> float:
        return self.grid_ny * self.cell_size

    def sensor_locations(self) -> dict[str, tuple[float, float]]:
        return {
            f"s{k + 1}": (fx * self.domain_x, fy * self.domain_y)
            for k, (fx, fy) in enumerate(self.sensor_fractions)
        }


def moisture_formula(spec: SynthSpec, x: float, y: float, depth_cm: int, day: int) -> float:
    """Deterministic moisture component (no rain, no noise).

    With rain_probability = 0 and noise_scale = 0 the generated
    moisture equals this value exactly; amplitudes are tuned so the
    clean signal stays strictly inside [2, 98] and clipping never
    engages: 45 +- (14 spatial + 25 seasonal) stays in [6, 94].
    """
    base = 45.0 + 0.08 * depth_cm
    spatial = (8.0 * np.sin(x / 50.0) + 6.0 * np.cos(y / 60.0)) * np.exp(-depth_cm / 200.0)
    amp = 25.0 * np.exp(-depth_cm / 80.0)
    phase = (x + y) * 0.2
    return float(base + spatial + amp * np.sin(2.0 * np.pi * (day + phase) / spec.season_days))


def _soil_temp(spec: SynthSpec, x: float, y: float, depth_cm: int, day: int) -> float:
    phase = (x + y) * 0.2
    return float(
        16.0 + 9.0 * np.exp(-depth_cm / 150.0) * np.sin(2.0 * np.pi * (day + phase - 30.0) / _YEAR_DAYS)
    )


def generate_sensor_csv(spec: SynthSpec, path: str | Path, seed: int) -> Path:
    """Write the scenario's sensor table; rows ordered by (date, sensor, depth).

    Rainfall is one shared daily series; its moisture response is an
    exponentially decaying impulse delayed and attenuated with depth.
    AR(1) noise streams are independent per (sensor, depth).
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 101)))
    rain = np.where(
        rng.random(spec.n_days) < spec.rain_probability,
        rng.exponential(spec.rain_mean_mm, spec.n_days),
        0.0,
    )
    locations = spec.sensor_locations()
    rows: list[list[str]] = []
    columns: dict[tuple[str, int], dict[str, np.ndarray]] = {}
    for sensor_id, (x, y) in locations.items():
        for depth in spec.depths_cm:
            lag = int(round(depth / 20.0))
            gain = 0.3 * np.exp(-depth / 60.0)
            resp = np.zeros(spec.n_days)
            for t in range(spec.n_days):
                prev = resp[t - 1] if t > 0 else 0.0
                pulse = rain[t - lag] if t - lag >= 0 else 0.0
                resp[t] = _RAIN_DECAY * prev + gain * pulse
            eps = rng.normal(0.0, 1.0, size=(3, spec.n_days)) * spec.noise_scale
            noise = np.zeros((3, spec.n_days))
            for t in range(spec.n_days):
                prev = noise[:, t - 1] if t > 0 else np.zeros(3)
                noise[:, t] = _AR_COEFF * prev + eps[:, t]
            clean = np.array([moisture_formula(spec, x, y, depth, t) for t in range(spec.n_days)])
            temp = np.array([_soil_temp(spec, x, y, depth, t) for t in range(spec.n_days)])
            columns[(sensor_id, depth)] = {
                "moisture": np.clip(clean + resp + noise[0], 2.0, 98.0),
                "soil_temp": temp + 0.3 * noise[1],
                "salinity": np.maximum(1.5 + 0.004 * depth + 0.05 * noise[2], 0.0),
            }
    for t in range(spec.n_days):
        day = (spec.start + timedelta(days=t)).isoformat()
        for sensor_id in locations:
            for depth in spec.depths_cm:
                col = columns[(sensor_id, depth)]
                rows.append(
                    [
                        day,
                        sensor_id,
                        str(depth),
                        repr(float(col["moisture"][t])),
                        repr(float(col["soil_temp"][t])),
                        repr(float(col["salinity"][t])),
                        repr(float(rain[t])),
                    ]
                )
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "sensor_id", "depth_cm", "moisture", "soil_temp", "salinity", "rainfall"])
        writer.writerows(rows)
    return path


def index_field(spec: SynthSpec, day: int) -> np.ndarray:
    """Clean NDVI field at an absolute day offset: seasonal wave + drifting bump."""
    w, h = spec.image_width, spec.image_height
    jj, ii = np.meshgrid(np.arange(w), np.arange(h))
    phase = 2.0 * np.pi * (jj / w + 0.5 * ii / h)
    wave = 0.3 * np.sin(2.0 * np.pi * day / 180.0 + phase)
    cx = w * (0.5 + 0.35 * np.sin(2.0 * np.pi * day / 300.0))
    cy = h * (0.5 + 0.35 * np.cos(2.0 * np.pi * day / 300.0))
    sigma = w / 6.0
    bump = 0.25 * np.exp(-((jj - cx) ** 2 + (ii - cy) ** 2) / (2.0 * sigma**2))
    return np.clip(0.25 + wave + bump, -0.95, 0.95)


def generate_image_stack(spec: SynthSpec, out_dir: str | Path, seed: int) -> Path:
    """Write the scenario's BandGrid stack plus a `date,path` manifest.

    Bands are constructed so the NDVI of (B04, B08) reproduces the
    clean field exactly up to float32 rounding, and an NDWI of
    (B08, B11) stays in (0, 0.4). One image optionally carries a
    nodata corner block standing in for cloud cover.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 202)))
    day = 0
    entries: list[tuple[str, str]] = []
    for k in range(spec.n_images):
        if k > 0:
            jitter = int(rng.integers(-spec.interval_jitter_days, spec.interval_jitter_days + 1))
            day += max(1, spec.image_interval_days + jitter)
        v = index_field(spec, day)
        brightness = 0.6
        nir = brightness * (1.0 + v) / 2.0
        red = brightness * (1.0 - v) / 2.0
        wetness = 0.4 * (v + 1.0) / 2.0
        swir = nir * (1.0 - wetness) / (1.0 + wetness)
        bands = np.stack([red, nir, swir]).astype(np.float32)
        if spec.cloud_image is not None and k == spec.cloud_image:
            c = min(spec.cloud_size, spec.image_width, spec.image_height)
            bands[:, :c, :c] = DEFAULT_NODATA
        grid = BandGrid(
            width=spec.image_width,
            height=spec.image_height,
            nodata=DEFAULT_NODATA,
            band_names=("B04", "B08", "B11"),
            data=bands,
        )
        img_date = (spec.start + timedelta(days=day)).isoformat()
        name = f"image_{k:03d}.bgrid"
        write_bandgrid(grid, out_dir / name)
        entries.append((img_date, name))
    manifest = out_dir / "manifest.csv"
    with manifest.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "path"])
        writer.writerows(entries)
    return manifest


def generate_dataset(out_dir: str | Path, seed: int, spec: SynthSpec | None = None) -> Path:
    """Write sensors.csv, images/, and config.json; returns the config path.

    The emitted config is sized for a desk-scale end-to-end run:
    small hidden layers and few epochs, an explicit variogram (so the
    demo map stays fixed rather than following a fit to four samples),
    and the scenario's sensor locations.
    """
    spec = spec or SynthSpec()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    generate_sensor_csv(spec, out_dir / "sensors.csv", seed)
    config: dict = {
        "seed": seed,
        "sensor_csv": "sensors.csv",
        "output_dir": "out",
        "sensor_locations": {k: [x, y] for k, (x, y) in spec.sensor_locations().items()},
        "depths_cm": list(spec.depths_cm),
        "horizon_days": 14,
        "test_fraction": 0.2,
        "forecast_day": 14,
        "grid": {
            "nx": spec.grid_nx,
            "ny": spec.grid_ny,
            "cell_size": spec.cell_size,
            "x0": 0.0,
            "y0": 0.0,
        },
        "variogram": {"nugget": 0.01, "sill": 30.0, "range_a": spec.domain_x * 0.75},
        "soil_model": {"input_length": 30, "encoder_hidden": 32, "decoder_hidden": 32, "dense_hidden": 16},
        "soil_train": {"learning_rate": 0.003, "epochs": 25, "batch_size": 64, "loss": "mse"},
        "index_model": {"encoder_hidden": 24, "decoder_hidden": 24, "dense_hidden": 12},
        "index_train": {"learning_rate": 0.003, "epochs": 12, "batch_size": 256, "loss": "mse"},
    }
    if spec.n_images > 0:
        generate_image_stack(spec, out_dir / "images", seed)
        config["image_manifest"] = "images/manifest.csv"
        config["index_kind"] = "NDVI"
        config["band_mapping"] = {"red": "B04", "nir": "B08", "swir": "B11"}
    config_path = out_dir / "config.json"
    with config_path.open("w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return config_path
