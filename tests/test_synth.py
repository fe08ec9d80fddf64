"""Synthetic scenario generator: determinism, clean-signal exactness, shape."""

import csv
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from smartcast.errors import ConfigError
from smartcast.pipeline import parse_config
from smartcast.synth import SynthSpec, generate_dataset, index_field, moisture_formula
from smartcast.timeseries import build_series, load_sensor_csv
from smartcast.vegindex import DEFAULT_NODATA, compute_index, load_index_stack, read_bandgrid

SMALL = SynthSpec(
    n_days=40,
    depths_cm=(10, 30),
    grid_nx=6,
    grid_ny=6,
    n_images=7,
    image_width=8,
    image_height=8,
    cloud_image=None,
)


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_regeneration_is_byte_identical(tmp_path: Path):
    generate_dataset(tmp_path / "a", seed=11, spec=SMALL)
    generate_dataset(tmp_path / "b", seed=11, spec=SMALL)
    a, b = tree_bytes(tmp_path / "a"), tree_bytes(tmp_path / "b")
    assert a.keys() == b.keys()
    assert "sensors.csv" in a and "images/manifest.csv" in a and "config.json" in a
    for name in a:
        assert a[name] == b[name], name


def test_seed_changes_data(tmp_path: Path):
    generate_dataset(tmp_path / "a", seed=1, spec=SMALL)
    generate_dataset(tmp_path / "b", seed=2, spec=SMALL)
    assert (tmp_path / "a" / "sensors.csv").read_bytes() != (tmp_path / "b" / "sensors.csv").read_bytes()
    assert (tmp_path / "a" / "images" / "image_001.bgrid").read_bytes() != (
        tmp_path / "b" / "images" / "image_001.bgrid"
    ).read_bytes()


def test_zero_noise_moisture_is_exact(tmp_path: Path):
    spec = SynthSpec(
        n_days=30, depths_cm=(10, 60), noise_scale=0.0, rain_probability=0.0, n_images=0
    )
    generate_dataset(tmp_path, seed=5, spec=spec)
    locations = spec.sensor_locations()
    by_key = {}
    with (tmp_path / "sensors.csv").open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            by_key[(row["date"], row["sensor_id"], int(row["depth_cm"]))] = row
    for t in (0, 13, 29):
        day = (spec.start + timedelta(days=t)).isoformat()
        for sid, (x, y) in locations.items():
            for depth in spec.depths_cm:
                row = by_key[(day, sid, depth)]
                # repr round trip makes the clean signal reproduce bit-exactly
                assert float(row["moisture"]) == moisture_formula(spec, x, y, depth, t)
                assert float(row["salinity"]) == 1.5 + 0.004 * depth
                assert float(row["rainfall"]) == 0.0


def test_sensor_csv_loads_and_builds_series(tiny_dir: Path):
    records = load_sensor_csv(tiny_dir / "sensors.csv")
    spec_days, sensors, depths = 140, 4, 2
    assert len(records) == spec_days * sensors * depths
    series = build_series(records, "s2", 30)
    assert series.shape == (spec_days, 4)
    # generator leaves no gaps: one complete row per day of the series
    rows = (records.sensor == records.sensor_names.index("s2")) & (records.depth_cm == 30)
    assert rows.sum() == len(series) and not np.isnan(records.features[rows]).any()
    assert np.all(series[:, 0] >= 2.0) and np.all(series[:, 0] <= 98.0)


def test_image_stack_kind_and_range(tiny_dir: Path):
    mapping = {"red": "B04", "nir": "B08", "swir": "B11"}
    stack = load_index_stack(tiny_dir / "images" / "manifest.csv", "NDVI", mapping)
    assert stack.values.shape == (8, 8, 8) and len(stack.dates) == 8
    assert all(b > a for a, b in zip(stack.dates, stack.dates[1:]))
    valid = stack.values[stack.values != DEFAULT_NODATA]
    assert valid.min() >= -1.0 and valid.max() <= 1.0
    # first image sits at day 0; bands were built to make NDVI reproduce the
    # clean field up to float32 rounding
    tiny = SynthSpec(n_days=140, depths_cm=(10, 30), grid_nx=6, grid_ny=6,
                     n_images=8, image_width=8, image_height=8, cloud_image=None)
    clean = index_field(tiny, 0)
    assert np.max(np.abs(stack.values[0] - clean)) <= 5e-7
    ndwi = load_index_stack(tiny_dir / "images" / "manifest.csv", "NDWI", mapping)
    valid = ndwi.values[ndwi.values != DEFAULT_NODATA]
    assert valid.min() > 0.0 and valid.max() < 0.4


def test_cloud_block_becomes_nodata(tmp_path: Path):
    spec = SynthSpec(
        n_days=20, depths_cm=(10,), n_images=3, image_width=8, image_height=8,
        cloud_image=1, cloud_size=3,
    )
    generate_dataset(tmp_path, seed=4, spec=spec)
    grid = read_bandgrid(tmp_path / "images" / "image_001.bgrid")
    assert int((grid.band("B04") == np.float32(DEFAULT_NODATA)).sum()) == 9
    img = compute_index(grid, "NDVI", {"red": "B04", "nir": "B08"})
    assert int((img == DEFAULT_NODATA).sum()) == 9
    assert not np.any(img[3:, 3:] == DEFAULT_NODATA)
    clear = read_bandgrid(tmp_path / "images" / "image_000.bgrid")
    assert not np.any(clear.band("B04") == np.float32(DEFAULT_NODATA))


def test_emitted_config_parses(tiny_dir: Path):
    config = parse_config(tiny_dir / "config.json")
    assert config.seed == 3
    assert config.depths_cm == (10, 30)
    assert config.horizon_days == 14
    assert config.soil_model.input_length == 30
    assert config.grid.nx == 6 and config.grid.cell_size == 10.0
    assert config.variogram is not None
    assert set(config.sensor_locations) == {"s1", "s2", "s3", "s4"}
    assert config.index_kind == "NDVI"


def test_spec_validation():
    with pytest.raises(ConfigError):
        SynthSpec(depths_cm=(15,))
    with pytest.raises(ConfigError):
        SynthSpec(noise_scale=-0.1)
    with pytest.raises(ConfigError):
        SynthSpec(rain_probability=1.5)
    with pytest.raises(ConfigError):
        SynthSpec(n_days=0)


def test_sensor_locations_scale_with_grid():
    spec = SynthSpec(grid_nx=10, grid_ny=20, cell_size=5.0)
    locs = spec.sensor_locations()
    assert locs["s1"] == (0.2 * 50.0, 0.2 * 100.0)
    assert spec.domain_x == 50.0 and spec.domain_y == 100.0
