"""Band math, raster I/O, stack flattening, and per-pixel prediction."""

from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from smartcast.errors import (
    DataError,
    InsufficientDataError,
    InsufficientHistoryError,
    ShapeError,
)
from smartcast.lstm import ModelShape, init_params, predict_batch
from smartcast.timeseries import Scaler
from smartcast.vegindex import (
    DEFAULT_NODATA,
    INPUT_WINDOW,
    BandGrid,
    IndexStack,
    compute_index,
    flatten_stack,
    load_index_stack,
    predict_pixels,
    read_bandgrid,
    stack_windows_for_training,
    write_bandgrid,
    write_pgm,
)

MAPPING = {"red": "B04", "nir": "B08", "swir": "B11"}


def make_grid(red, nir, swir=None, nodata=DEFAULT_NODATA):
    """BandGrid from per-band 2-D arrays (float32-cast)."""
    red = np.asarray(red, dtype=np.float32)
    nir = np.asarray(nir, dtype=np.float32)
    if swir is None:
        swir = np.full_like(red, 0.1)
    else:
        swir = np.asarray(swir, dtype=np.float32)
    h, w = red.shape
    data = np.stack([red, nir, swir])
    return BandGrid(width=w, height=h, nodata=nodata, band_names=("B04", "B08", "B11"), data=data)


def write_manifest(root: Path, lines: list[str], encoding="utf-8", newline="\n") -> Path:
    """A `date,path` manifest under `root` with the given body lines."""
    path = root / "manifest.csv"
    path.write_bytes(newline.join(["date,path", *lines, ""]).encode(encoding))
    return path


# -- band math -----------------------------------------------------------------


def test_index_matches_direct_arithmetic_randomized():
    # float32 storage, float64 ratio; oracle computed the same way by hand
    rng = np.random.default_rng(42)
    for _ in range(25):
        h, w = rng.integers(2, 9, size=2)
        red = rng.uniform(0.01, 1.0, (h, w)).astype(np.float32)
        nir = rng.uniform(0.01, 1.0, (h, w)).astype(np.float32)
        swir = rng.uniform(0.01, 1.0, (h, w)).astype(np.float32)
        grid = make_grid(red, nir, swir)

        ndvi = compute_index(grid, "NDVI", MAPPING)
        ndwi = compute_index(grid, "NDWI", MAPPING)
        r64, n64, s64 = (band.astype(np.float64) for band in (red, nir, swir))
        assert np.max(np.abs(ndvi - (n64 - r64) / (n64 + r64))) <= 1e-7
        assert np.max(np.abs(ndwi - (n64 - s64) / (n64 + s64))) <= 1e-7
        for img in (ndvi, ndwi):
            assert img.shape == (h, w) and img.dtype == np.float64
            assert img.min() >= -1.0 and img.max() <= 1.0


def test_index_pinned_values():
    grid = make_grid([[0.2, 0.25, 0.3, 0.0]], [[0.6, 0.75, 0.3, 0.0]])
    img = compute_index(grid, "NDVI", MAPPING)
    assert abs(img[0, 0] - 0.5) <= 1e-7
    # 0.75 and 0.25 are exact in float32, so the ratio is exactly 0.5
    assert img[0, 1] == 0.5
    assert img[0, 2] == 0.0
    assert img[0, 3] == DEFAULT_NODATA  # zero denominator


def test_index_input_nodata_propagates():
    nod = np.float32(DEFAULT_NODATA)
    grid = make_grid([[0.2, nod], [0.3, 0.3]], [[nod, 0.5], [0.6, 0.6]])
    img = compute_index(grid, "NDVI", MAPPING)
    assert img[0, 0] == DEFAULT_NODATA
    assert img[0, 1] == DEFAULT_NODATA
    assert img[1, 0] != DEFAULT_NODATA


def test_index_rejects_reflectance_outside_unit_interval():
    grid = make_grid([[0.2]], [[1.5]])
    with pytest.raises(DataError, match="B08"):
        compute_index(grid, "NDVI", MAPPING)


def test_index_kind_and_mapping_errors():
    grid = make_grid([[0.2]], [[0.6]])
    with pytest.raises(DataError, match="EVI"):
        compute_index(grid, "EVI", MAPPING)
    with pytest.raises(DataError):
        compute_index(grid, "NDWI", {"red": "B04", "nir": "B08"})


# -- containers ------------------------------------------------------------------


def test_bandgrid_validation():
    data = np.zeros((2, 3, 4), dtype=np.float32)
    with pytest.raises(ShapeError):
        BandGrid(width=4, height=3, nodata=-1.0, band_names=("a",), data=data)
    with pytest.raises(ShapeError):
        BandGrid(width=4, height=3, nodata=-1.0, band_names=("a", "b"),
                 data=data.astype(np.float64))
    with pytest.raises(DataError):
        BandGrid(width=1, height=1, nodata=-1.0,
                 band_names=tuple(f"b{i}" for i in range(14)),
                 data=np.zeros((14, 1, 1), dtype=np.float32))
    grid = BandGrid(width=4, height=3, nodata=-1.0, band_names=("a", "b"), data=data)
    with pytest.raises(DataError, match="missing"):
        grid.band("missing")


def test_image_stack_validation(tmp_path: Path):
    d0, d1 = date(2024, 1, 1), date(2024, 1, 2)
    with pytest.raises(DataError, match="empty"):
        IndexStack(dates=(), values=np.zeros((0, 2, 2)))
    with pytest.raises(DataError, match="increasing"):
        IndexStack(dates=(d0, d0), values=np.zeros((2, 2, 2)))
    write_bandgrid(make_grid([[0.2, 0.3]], [[0.6, 0.5]]), tmp_path / "a.bgrid")
    write_bandgrid(make_grid([[0.2], [0.3]], [[0.6], [0.5]]), tmp_path / "b.bgrid")
    with pytest.raises(DataError, match="empty"):
        load_index_stack(write_manifest(tmp_path, []), "NDVI", MAPPING)
    with pytest.raises(DataError, match="increasing"):
        load_index_stack(write_manifest(tmp_path, ["2024-01-02,a.bgrid", "2024-01-01,a.bgrid"]), "NDVI", MAPPING)
    with pytest.raises(DataError, match=r"mixed \(height, width\): \[\(1, 2\), \(2, 1\)\]"):
        load_index_stack(write_manifest(tmp_path, ["2024-01-01,a.bgrid", "2024-01-02,b.bgrid"]), "NDVI", MAPPING)
    stack = load_index_stack(write_manifest(tmp_path, ["2024-01-01,a.bgrid", "2024-01-02,a.bgrid"]), "NDVI", MAPPING)
    assert stack.dates == (d0, d1)
    assert stack.values.shape == (2, 1, 2) and stack.values.dtype == np.float64


# -- raster file I/O ---------------------------------------------------------------


def test_bandgrid_roundtrip_is_byte_exact(tmp_path: Path):
    rng = np.random.default_rng(5)
    data = rng.uniform(0.0, 1.0, (3, 4, 5)).astype(np.float32)
    data[0, 0, 0] = np.float32(DEFAULT_NODATA)
    grid = BandGrid(width=5, height=4, nodata=DEFAULT_NODATA,
                    band_names=("B04", "B08", "B11"), data=data)
    p1, p2 = tmp_path / "a.bgrid", tmp_path / "b.bgrid"
    write_bandgrid(grid, p1)
    back = read_bandgrid(p1)
    assert back.width == 5 and back.height == 4
    assert back.band_names == grid.band_names
    assert back.nodata == grid.nodata
    assert back.data.tobytes() == grid.data.tobytes()
    write_bandgrid(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_bandgrid_read_errors(tmp_path: Path):
    good = tmp_path / "g.bgrid"
    write_bandgrid(make_grid([[0.2]], [[0.6]]), good)
    raw = good.read_bytes()

    bad_magic = tmp_path / "m.bgrid"
    bad_magic.write_bytes(b"NOTBG 1\n" + raw.split(b"\n", 1)[1])
    with pytest.raises(DataError, match="not a BGRID"):
        read_bandgrid(bad_magic)

    truncated = tmp_path / "t.bgrid"
    truncated.write_bytes(raw[:-2])
    with pytest.raises(DataError, match="truncated"):
        read_bandgrid(truncated)

    header_only = tmp_path / "h.bgrid"
    header_only.write_bytes(b"BGRID 1\n1 1")
    with pytest.raises(DataError, match="truncated header"):
        read_bandgrid(header_only)

    mismatch = tmp_path / "n.bgrid"
    head, tail = raw.split(b"\n", 3)[:3], raw.split(b"\n", 3)[3]
    mismatch.write_bytes(b"\n".join(head) + b"\nonly_one_name\n" + tail.split(b"\n", 1)[1])
    with pytest.raises(DataError, match="names listed"):
        read_bandgrid(mismatch)


@pytest.mark.parametrize(
    "dims, nodata, fragment",
    [
        (b"x 1 3", b"nodata=-9999.0", "dimension"),
        (b"1 1 3.5", b"nodata=-9999.0", "dimension"),
        (b"0 1 3", b"nodata=-9999.0", "positive"),
        (b"1 -1 3", b"nodata=-9999.0", "positive"),
        (b"1 1 0", b"nodata=-9999.0", "positive"),
        (b"1 1 3", b"nodata=none", "nodata"),
        (b"1 1 3", b"nodata=-9999.0\xc2\xb0", "ASCII"),
    ],
)
def test_bandgrid_refuses_a_malformed_header(tmp_path: Path, dims: bytes, nodata: bytes, fragment: str):
    good = tmp_path / "g.bgrid"
    write_bandgrid(make_grid([[0.2]], [[0.6]]), good)
    magic, _, _, names, payload = good.read_bytes().split(b"\n", 4)
    bad = tmp_path / "bad.bgrid"
    bad.write_bytes(b"\n".join([magic, dims, nodata, names, payload]))
    with pytest.raises(DataError, match=fragment) as info:
        read_bandgrid(bad)
    assert "bad.bgrid" in str(info.value)


def test_stack_manifest_errors(tmp_path: Path):
    write_bandgrid(make_grid([[0.2]], [[0.6]]), tmp_path / "a.bgrid")
    bad_header = tmp_path / "m1.csv"
    bad_header.write_text("day,file\n", encoding="utf-8")
    with pytest.raises(DataError, match="header"):
        load_index_stack(bad_header, "NDVI", MAPPING)
    with pytest.raises(DataError, match="line 2"):
        load_index_stack(write_manifest(tmp_path, ["not-a-date,a.bgrid"]), "NDVI", MAPPING)


@pytest.mark.parametrize("day", ["20240111", "2024-W02-4", "2024-1-11", " 2024-01-11", "2024-02-30"])
def test_stack_manifest_takes_only_iso_calendar_dates(tmp_path: Path, day: str):
    # the sensor CSV's rule; fromisoformat alone reads the first two
    write_bandgrid(make_grid([[0.2]], [[0.6]]), tmp_path / "a.bgrid")
    manifest = write_manifest(tmp_path, ["2024-01-01,a.bgrid", f"{day},a.bgrid"])
    with pytest.raises(DataError, match=f"line 3: bad date {day!r} \\(want YYYY-MM-DD\\)"):
        load_index_stack(manifest, "NDVI", MAPPING)


def test_stack_manifest_reads_a_byte_order_mark_and_crlf(tmp_path: Path):
    write_bandgrid(make_grid([[0.2]], [[0.6]]), tmp_path / "a.bgrid")
    write_bandgrid(make_grid([[0.3]], [[0.5]]), tmp_path / "b.bgrid")
    lines = ["2024-01-01,a.bgrid", "2024-01-11,b.bgrid"]
    plain = load_index_stack(write_manifest(tmp_path, lines), "NDVI", MAPPING)
    spelled = load_index_stack(write_manifest(tmp_path, lines, "utf-8-sig", "\r\n"), "NDVI", MAPPING)
    assert spelled.dates == plain.dates == (date(2024, 1, 1), date(2024, 1, 11))
    assert spelled.values.tobytes() == plain.values.tobytes()


def test_stack_manifest_names_an_image_that_cannot_be_read(tmp_path: Path):
    write_bandgrid(make_grid([[0.2]], [[0.6]]), tmp_path / "a.bgrid")
    manifest = write_manifest(tmp_path, ["2024-01-01,a.bgrid", "", "2024-01-11,gone.bgrid"])
    with pytest.raises(DataError) as info:
        load_index_stack(manifest, "NDVI", MAPPING)
    message = str(info.value)
    assert "manifest.csv: line 4:" in message and str(tmp_path / "gone.bgrid") in message


@pytest.mark.parametrize("earlier", ["2024-01-05", "2024-01-11"], ids=["unordered", "repeated"])
def test_stack_manifest_names_a_date_not_after_the_one_before(tmp_path: Path, earlier: str):
    # named by file, line and both dates; the line's image is never read
    write_bandgrid(make_grid([[0.2]], [[0.6]]), tmp_path / "a.bgrid")
    manifest = write_manifest(tmp_path, ["2024-01-01,a.bgrid", "2024-01-11,a.bgrid", "", f"{earlier},gone.bgrid"])
    with pytest.raises(DataError, match=rf"manifest\.csv: line 5: date {earlier} is not after 2024-01-11 on line 3"):
        load_index_stack(manifest, "NDVI", MAPPING)


def test_pgm_pinned_bytes_and_sidecar(tmp_path: Path):
    values = np.array([[0.0, 0.5], [1.0, DEFAULT_NODATA]])
    path = tmp_path / "img.pgm"
    lo, hi = write_pgm(values, path)
    assert (lo, hi) == (0.0, 1.0)
    raw = path.read_bytes()
    assert raw == b"P5\n2 2\n255\n" + bytes([0, 128, 255, 0])
    sidecar = (tmp_path / "img.pgm.txt").read_text(encoding="utf-8")
    assert "min=0.0" in sidecar and "max=1.0" in sidecar
    assert "nodata_value=-9999.0" in sidecar and "nodata_gray=0" in sidecar


def test_pgm_constant_field_maps_to_midgray(tmp_path: Path):
    path = tmp_path / "flat.pgm"
    write_pgm(np.full((1, 3), 7.25), path)
    assert path.read_bytes().endswith(bytes([128, 128, 128]))


# -- windows ----------------------------------------------------------------------


def oracle_pixel_windows(images, dates, target_date):
    """The per-image loop `flatten_stack` and `stack_windows_for_training`
    once ran: (windows, mask) from the window's (H, W) images, oldest first."""
    p = images[0].size
    windows = np.zeros((p, INPUT_WINDOW, 2), dtype=np.float64)
    mask = np.ones(p, dtype=bool)
    for j, (d, img) in enumerate(zip(dates, images)):
        flat = img.reshape(-1)
        valid = flat != DEFAULT_NODATA
        mask &= valid
        windows[:, j, 0] = np.where(valid, flat, 0.0)
        windows[:, j, 1] = float((target_date - d).days)
    windows[~mask, :, 0] = 0.0
    return windows, mask


def oracle_flatten(stack, target_date):
    prior = [k for k, d in enumerate(stack.dates) if d < target_date][-INPUT_WINDOW:]
    return oracle_pixel_windows(stack.values[prior], [stack.dates[k] for k in prior], target_date)


def oracle_training(stack):
    """The per-run loop: run r is images r..r+4 with image r+5 as target."""
    inputs, targets, run_ids = [], [], []
    for r in range(len(stack.dates) - INPUT_WINDOW):
        target_date, target_img = stack.dates[r + INPUT_WINDOW], stack.values[r + INPUT_WINDOW]
        window = slice(r, r + INPUT_WINDOW)
        windows, mask = oracle_pixel_windows(stack.values[window], stack.dates[window], target_date)
        mask &= target_img.reshape(-1) != DEFAULT_NODATA
        inputs.append(windows[mask])
        targets.append(target_img.reshape(-1)[mask])
        run_ids.append(np.full(int(mask.sum()), r, dtype=np.int64))
    return np.concatenate(inputs), np.concatenate(targets)[:, None, None], np.concatenate(run_ids)


def random_stack(rng, n_images, height, width, nodata_frac):
    """Uneven dates (gaps of 1 to 20 days) and scattered nodata."""
    gaps = np.cumsum(rng.integers(1, 21, size=n_images))
    dates = tuple(date(2024, 1, 1) + timedelta(days=int(g)) for g in gaps)
    values = rng.uniform(-1.0, 1.0, (n_images, height, width))
    values[rng.random(values.shape) < nodata_frac] = DEFAULT_NODATA
    return IndexStack(dates, values)


def test_windows_equal_the_per_image_loop_bit_for_bit():
    rng = np.random.default_rng(28)
    for case in range(40):
        stack = random_stack(rng, int(rng.integers(6, 13)), *(int(v) for v in rng.integers(1, 7, 2)),
                             nodata_frac=(0.0, 0.05, 0.3)[case % 3])
        expected = oracle_training(stack)
        if expected[2].size == 0:
            with pytest.raises(InsufficientDataError, match="no pixel is valid"):
                stack_windows_for_training(stack)
        else:
            ws, run_ids = stack_windows_for_training(stack)
            for got, want in zip((ws.inputs, ws.targets, run_ids), expected):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                assert got.base is None  # owns its data: no view of a larger block

        d = stack.dates
        between = [d[k] + timedelta(days=1) for k in range(INPUT_WINDOW - 1, len(d) - 1) if (d[k + 1] - d[k]).days > 1]
        for target in [*d[INPUT_WINDOW:], *between, d[-1] + timedelta(days=int(rng.integers(1, 30)))]:
            windows, mask = flatten_stack(stack, target)
            want_windows, want_mask = oracle_flatten(stack, target)
            assert windows.tobytes() == want_windows.tobytes()
            assert mask.tolist() == want_mask.tolist()


def step10_stack(n_images, width=2, height=2, bad=None):
    """Images every 10 days; pixel p of image k holds (k*P + p)/1000.

    `bad` marks (image, row, col) cells to overwrite with nodata.
    """
    p = width * height
    values = np.arange(n_images * p, dtype=np.float64).reshape(n_images, height, width) / 1000.0
    for bk, br, bc in bad or ():
        values[bk, br, bc] = DEFAULT_NODATA
    return IndexStack(tuple(date(2024, 1, 1) + timedelta(days=10 * k) for k in range(n_images)), values)


def test_flatten_stack_offsets_and_values():
    stack = step10_stack(6)
    target = stack.dates[5]
    windows, mask = flatten_stack(stack, target)
    assert windows.shape == (4, 5, 2)
    assert mask.all()
    assert windows[0, :, 1].tolist() == [50.0, 40.0, 30.0, 20.0, 10.0]
    # pixel 3 of image k holds (4k+3)/1000
    assert windows[3, :, 0].tolist() == [(4 * k + 3) / 1000.0 for k in range(5)]


def test_flatten_stack_skips_later_images():
    stack = step10_stack(8)
    # target between images 5 and 6: window must end at image 5
    target = stack.dates[5] + timedelta(days=3)
    windows, _ = flatten_stack(stack, target)
    assert windows[0, :, 1].tolist() == [43.0, 33.0, 23.0, 13.0, 3.0]
    assert windows[1, -1, 0] == (5 * 4 + 1) / 1000.0


def test_flatten_stack_insufficient_history():
    stack = step10_stack(6)
    with pytest.raises(InsufficientHistoryError, match="need 5 images before 2024-01-11, have 1"):
        flatten_stack(stack, date(2024, 1, 11))


def test_flatten_stack_mask_and_zeroing():
    stack = step10_stack(6, bad=[(2, 0, 1)])  # pixel 1 missing in third image
    windows, mask = flatten_stack(stack, stack.dates[5])
    assert mask.tolist() == [True, False, True, True]
    assert np.all(windows[1, :, 0] == 0.0)
    assert windows[1, 0, 1] == 50.0  # offsets survive masking


def test_stack_windows_for_training_alignment():
    stack = step10_stack(7)
    ws, run_ids = stack_windows_for_training(stack)
    # 2 runs x 4 pixels, ordered run-major then pixel
    assert ws.inputs.shape == (8, 5, 2)
    assert ws.targets.shape == (8, 1, 1)
    assert run_ids.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
    for s in range(8):
        r, p = divmod(s, 4)
        assert ws.inputs[s, :, 0].tolist() == [((r + k) * 4 + p) / 1000.0 for k in range(5)]
        assert ws.inputs[s, :, 1].tolist() == [50.0, 40.0, 30.0, 20.0, 10.0]
        assert ws.targets[s, 0, 0] == ((r + 5) * 4 + p) / 1000.0


def test_stack_windows_excludes_invalid_pixels():
    # pixel 2 nodata in image 6 drops it from run 1 only
    stack = step10_stack(7, bad=[(6, 1, 0)])
    ws, run_ids = stack_windows_for_training(stack)
    assert ws.inputs.shape[0] == 7
    assert run_ids.tolist() == [0, 0, 0, 0, 1, 1, 1]
    assert ws.targets[4:, 0, 0].tolist() == [24 / 1000.0, 25 / 1000.0, 27 / 1000.0]


def test_stack_windows_requires_six_images():
    with pytest.raises(InsufficientDataError, match="need at least 6"):
        stack_windows_for_training(step10_stack(5))


# -- batched pixel prediction --------------------------------------------------------


PIXEL_SHAPE = ModelShape(input_dim=2, encoder_hidden=4, decoder_hidden=4,
                         dense_hidden=3, horizon=1)


def test_predict_pixels_mask_and_validation():
    model = init_params(PIXEL_SHAPE, seed=0)
    windows = np.zeros((3, 5, 2))
    windows[:, :, 1] = [50.0, 40.0, 30.0, 20.0, 10.0]
    out = predict_pixels(model, windows, np.array([True, False, True]))
    assert out[1] == DEFAULT_NODATA
    assert out[0] != DEFAULT_NODATA and -1.0 <= out[0] <= 1.0
    with pytest.raises(ShapeError):
        predict_pixels(model, windows[:, :4, :], np.ones(3, dtype=bool))
    with pytest.raises(ShapeError):
        predict_pixels(model, windows, np.ones(2, dtype=bool))
    soil_like = init_params(ModelShape(4, 4, 4, 3, horizon=2), seed=0)
    with pytest.raises(ShapeError):
        predict_pixels(soil_like, windows, np.ones(3, dtype=bool))
    # windows go to predict_batch in index units; it alone applies the scaler
    scaled = init_params(PIXEL_SHAPE, seed=0, scaler=Scaler(np.array([0.3, 30.0]), np.array([0.2, 15.0])))
    mask = np.array([True, False, True])
    out = predict_pixels(scaled, windows, mask)
    np.testing.assert_array_equal(out[mask], np.clip(predict_batch(scaled, windows[mask])[:, 0], -1.0, 1.0))
    assert out[1] == DEFAULT_NODATA


def test_predict_pixels_clamps_to_index_range():
    model = init_params(PIXEL_SHAPE, seed=1)
    model.head_out.bias[...] = 50.0  # force raw outputs far above 1
    windows = np.zeros((2, 5, 2))
    windows[:, :, 1] = [50.0, 40.0, 30.0, 20.0, 10.0]
    out = predict_pixels(model, windows, np.ones(2, dtype=bool))
    assert out.tolist() == [1.0, 1.0]
