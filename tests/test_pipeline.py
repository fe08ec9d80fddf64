"""Config parsing, stage orchestration, run artifacts, CLI exit codes."""

import concurrent.futures
import dataclasses
import json
import multiprocessing
import os
import pickle
import shutil
import subprocess
import sys
import weakref
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from smartcast import kriging, lstm, pipeline
from smartcast.cli import main
from smartcast.errors import (
    ConfigError,
    DataError,
    DivergenceError,
    EmptySplitError,
    FactorizationError,
    NumericError,
    StageError,
)
from smartcast.lstm import ModelShape, Seq2SeqModel, init_params, load_model, predict, save_model
from smartcast.pipeline import (
    RunConfig,
    _split_by_run,
    cmd_gradcheck,
    parse_config,
    run_forecast,
)
from smartcast.timeseries import Scaler, WindowSet, load_sensor_csv
from smartcast.vegindex import load_index_stack, read_bandgrid


def write_config(directory: Path, payload: dict, name: str = "config.json") -> Path:
    path = directory / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


@pytest.fixture()
def minimal_dir(tmp_path: Path) -> Path:
    (tmp_path / "sensors.csv").write_text(
        "date,sensor_id,depth_cm,moisture,soil_temp,salinity,rainfall\n", encoding="utf-8"
    )
    return tmp_path


# -- config parsing ---------------------------------------------------------------


def test_parse_minimal_config_fills_defaults(minimal_dir: Path):
    path = write_config(minimal_dir, {"seed": 1, "sensor_csv": "sensors.csv"})
    config = parse_config(path)
    assert config.seed == 1
    assert config.soil_model.input_length == 30
    assert config.soil_train.learning_rate == 1e-3
    assert config.index_train.learning_rate == 1e-3
    assert (config.soil_model.encoder_hidden, config.soil_model.dense_hidden) == (200, 100)
    assert (config.index_model.encoder_hidden, config.index_model.dense_hidden) == (50, 20)
    assert config.horizon_days == 14
    assert config.forecast_day == 14  # defaults to the horizon
    assert config.test_fraction == 0.2
    assert config.max_gap_days == 3
    assert config.index_kind == "NDVI"
    assert config.band_mapping == {"red": "B04", "nir": "B08", "swir": "B11"}
    assert (config.grid.nx, config.grid.ny, config.grid.cell_size) == (16, 16, 10.0)
    assert config.depths_cm is None and config.variogram is None
    assert config.image_manifest is None
    assert config.output_dir == minimal_dir / "out"


def test_parse_rejects_unknown_keys_by_name(minimal_dir: Path):
    base = {"seed": 1, "sensor_csv": "sensors.csv"}
    with pytest.raises(ConfigError, match="foo"):
        parse_config(write_config(minimal_dir, {**base, "foo": 3}))
    with pytest.raises(ConfigError, match="hidden"):
        parse_config(write_config(minimal_dir, {**base, "soil_model": {"hidden": 8}}))
    with pytest.raises(ConfigError, match="momentum"):
        parse_config(write_config(minimal_dir, {**base, "soil_train": {"momentum": 0.9}}))
    with pytest.raises(ConfigError, match="cells"):
        parse_config(write_config(minimal_dir, {**base, "grid": {"cells": 4}}))
    with pytest.raises(ConfigError, match="green"):
        parse_config(write_config(minimal_dir, {**base, "band_mapping": {"green": "B03"}}))
    # The loss is always MSE and Adam's constants are fixed: an older config's keys are unknown.
    for section in ("soil_train", "index_train"):
        for key, value in (("loss", "mse"), ("adam_beta1", 0.9), ("adam_beta2", 0.999), ("adam_epsilon", 1e-8)):
            with pytest.raises(ConfigError, match=f"in {section}: {key}$"):
                parse_config(write_config(minimal_dir, {**base, section: {"epochs": 2, key: value}}))


def test_parse_validation_errors(minimal_dir: Path):
    base = {"seed": 1, "sensor_csv": "sensors.csv"}
    cases = [
        ({"sensor_csv": "sensors.csv"}, "seed"),
        ({**base, "seed": -1}, "nonnegative"),
        ({"seed": 1}, "sensor_csv"),
        ({"seed": 1, "sensor_csv": "missing.csv"}, "missing.csv"),
        ({**base, "image_manifest": "nope.csv"}, "nope.csv"),
        ({**base, "test_fraction": 0.0}, "test_fraction"),
        ({**base, "test_fraction": 1.0}, "test_fraction"),
        ({**base, "forecast_day": 0}, "forecast_day"),
        ({**base, "forecast_day": 15}, "forecast_day"),
        ({**base, "horizon_days": 0}, "horizon_days"),
        ({**base, "max_gap_days": -1}, "max_gap_days"),
        ({**base, "index_kind": "EVI"}, "index_kind"),
        ({**base, "index_kind": "NDWI", "band_mapping": {"nir": "B08"}}, "swir"),
        ({**base, "band_mapping": {"nir": "B08"}}, "red"),
        ({**base, "depths_cm": []}, "depths_cm"),
        ({**base, "depths_cm": [10, True]}, "depths_cm"),
        ({**base, "depths_cm": [15, 10]}, r"^depths_cm 15 not in \{10,20,...,120\}$"),
        ({**base, "sensor_locations": {"s1": [1.0]}}, "s1"),
        ({**base, "sensor_locations": {"s1": [True, False]}}, "s1"),
        ({**base, "band_mapping": {"red": "B04", "nir": None}}, "'nir' in band_mapping"),
        ({**base, "variogram": {"nugget": 0.1}}, "sill"),
        ({**base, "seed": "seven"}, "wrong type"),
        ({**base, "soil_train": {"learning_rate": -1}}, "soil_train"),
        ({**base, "index_train": {"batch_size": 0}}, "index_train"),
        ({**base, "soil_model": {"encoder_hidden": 0}}, "soil_model"),
        ({**base, "grid": {"nx": 0}}, "grid"),
        ({**base, "variogram": {"nugget": -0.1, "sill": 1.0, "range_a": 5.0}}, "variogram"),
    ]
    for payload, fragment in cases:
        with pytest.raises(ConfigError, match=fragment):
            parse_config(write_config(minimal_dir, payload))
    with pytest.raises(ConfigError, match="not found"):
        parse_config(minimal_dir / "absent.json")
    bad = minimal_dir / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="JSON"):
        parse_config(bad)
    root = minimal_dir / "root.json"
    root.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError, match="object"):
        parse_config(root)


def test_parse_rejects_non_finite_numbers(minimal_dir: Path, capsys):
    # Python's json reads NaN, Infinity and -Infinity, and an overflowing
    # literal such as 1e400 becomes inf; a config may hold none of them.
    base = {"seed": 1, "sensor_csv": "sensors.csv"}
    nan, inf = float("nan"), float("inf")
    cases = [
        ({**base, "variogram": {"nugget": 0.0, "sill": 1.0, "range_a": nan}}, "NaN"),
        ({**base, "sensor_locations": {"s1": [inf, 0.0]}}, "Infinity"),
        ({**base, "soil_train": {"learning_rate": nan}}, "NaN"),
        ({**base, "grid": {"nx": 4, "ny": 4, "cell_size": inf}}, "Infinity"),
        ({**base, "test_fraction": -inf}, "-Infinity"),
    ]
    for payload, constant in cases:
        with pytest.raises(ConfigError, match=f"non-finite number {constant}"):
            parse_config(write_config(minimal_dir, payload))
    overflow = minimal_dir / "overflow.json"
    for literal in ("1e400", "1" + "0" * 400):
        overflow.write_text(f'{{"seed": 1, "sensor_csv": "sensors.csv", "test_fraction": {literal}}}', encoding="utf-8")
        with pytest.raises(ConfigError, match=f"non-finite number {literal}"):
            parse_config(overflow)
    # The CLI refuses the config before any stage runs.
    assert main(["run", "--config", str(write_config(minimal_dir, cases[0][0]))]) == 2
    assert "NaN" in capsys.readouterr().err


def test_parse_normalizes_depths(minimal_dir: Path):
    path = write_config(
        minimal_dir, {"seed": 1, "sensor_csv": "sensors.csv", "depths_cm": [60, 10, 60, 30]}
    )
    assert parse_config(path).depths_cm == (10, 30, 60)


def test_config_paths_resolve_against_config_dir(minimal_dir: Path, tmp_path_factory, monkeypatch):
    import argparse

    from smartcast.cli import _load_config

    elsewhere = tmp_path_factory.mktemp("elsewhere").resolve()
    (minimal_dir / "images").mkdir()
    (minimal_dir / "images" / "manifest.csv").write_text("date,path\n", encoding="utf-8")
    (elsewhere / "sensors.csv").write_bytes((minimal_dir / "sensors.csv").read_bytes())
    (elsewhere / "manifest.csv").write_text("date,path\n", encoding="utf-8")
    monkeypatch.chdir(elsewhere)  # relative paths in the file must not follow the working directory

    relative = write_config(
        minimal_dir,
        {"seed": 1, "sensor_csv": "sensors.csv", "image_manifest": "images/manifest.csv", "output_dir": "runs/a"},
    )
    config = parse_config(relative)
    assert config.sensor_csv == minimal_dir / "sensors.csv"
    assert config.image_manifest == minimal_dir / "images" / "manifest.csv"
    assert config.output_dir == minimal_dir / "runs" / "a"

    payload = {
        "seed": 1,
        "sensor_csv": str(elsewhere / "sensors.csv"),
        "image_manifest": str(elsewhere / "manifest.csv"),
        "output_dir": str(elsewhere / "out"),
    }
    config = parse_config(write_config(minimal_dir, payload, name="absolute.json"))
    assert config.sensor_csv == elsewhere / "sensors.csv"
    assert config.image_manifest == elsewhere / "manifest.csv"
    assert config.output_dir == elsewhere / "out"

    # --out is a command-line path: a relative one follows the working directory.
    args = argparse.Namespace(config=str(relative), seed=None, out="runs/b")
    assert _load_config(args).output_dir == elsewhere / "runs" / "b"


# -- index train/test splitting ------------------------------------------------------


def run_windows(run_ids):
    run_ids = np.asarray(run_ids)
    n = len(run_ids)
    inputs = np.zeros((n, 5, 2))
    inputs[:, 0, 0] = np.arange(n)  # tag each sample for identity checks
    targets = np.arange(n, dtype=np.float64)[:, None, None]
    return WindowSet(inputs=inputs, targets=targets), run_ids


def test_split_by_run_holds_out_whole_runs():
    windows, run_ids = run_windows([0, 0, 1, 1, 2, 2, 3, 3])
    fit, val, test = _split_by_run(windows, run_ids, test_fraction=0.25)
    assert fit.inputs[:, 0, 0].tolist() == [0.0, 1.0, 2.0, 3.0]  # runs 0 and 1
    assert val.inputs[:, 0, 0].tolist() == [4.0, 5.0]            # last train run
    assert test.inputs[:, 0, 0].tolist() == [6.0, 7.0]           # held-out run 3


def test_split_by_run_single_train_run_has_no_val():
    windows, run_ids = run_windows([0, 0, 0, 1, 1])
    fit, val, test = _split_by_run(windows, run_ids, test_fraction=0.2)
    assert val is None
    assert fit.n_samples == 3 and test.n_samples == 2


def test_split_by_run_rejects_degenerate_splits():
    windows, run_ids = run_windows([0, 0, 0])
    with pytest.raises(EmptySplitError):
        _split_by_run(windows, run_ids, test_fraction=0.2)
    windows, run_ids = run_windows([0, 0, 1, 1])
    with pytest.raises(EmptySplitError):
        _split_by_run(windows, run_ids, test_fraction=0.9)


# -- end-to-end run -------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_run(tiny_dir: Path, tmp_path_factory: pytest.TempPathFactory):
    config = parse_config(tiny_dir / "config.json")
    out_dir = tmp_path_factory.mktemp("tiny_run")
    report = run_forecast(dataclasses.replace(config, output_dir=out_dir))
    return config, report, out_dir


def test_run_forecast_report_complete(tiny_run):
    config, report, _ = tiny_run
    assert [d.depth_cm for d in report.depths] == [10, 30]  # every depth exactly once
    for d in report.depths:
        assert np.isfinite(d.test_rmse) and np.isfinite(d.persistence_rmse)
        assert set(d.forecasts) == {"s1", "s2", "s3", "s4"}
        for values in d.forecasts.values():
            assert len(values) == config.horizon_days
            assert all(0.0 <= v <= 100.0 for v in values)
        _, variogram, n_samples = report.kriging[d.depth_cm]
        assert n_samples == 4
        assert variogram is not None
    assert report.index is not None
    assert np.isfinite(report.index.test_rmse) and np.isfinite(report.index.test_mae)
    payload = report.to_dict()
    assert set(payload) == {"seed", "forecast_day", "soil", "index", "artifacts"}


def test_run_forecast_artifacts_on_disk(tiny_run):
    config, report, out_dir = tiny_run
    assert not (out_dir / ".partial").exists()
    for rel in report.artifacts.values():
        assert (out_dir / rel).is_file(), rel
    on_disk = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    assert on_disk == report.to_dict()

    manifest = (out_dir / "volume" / "manifest.csv").read_text(encoding="utf-8").strip().splitlines()
    assert manifest == ["depth_cm,path", "10,depth_010.bgrid", "30,depth_030.bgrid"]
    layer = read_bandgrid(out_dir / "volume" / "depth_010.bgrid")
    assert layer.band_names == ("moisture", "variance")
    assert (layer.width, layer.height) == (config.grid.nx, config.grid.ny)

    forecasts = json.loads((out_dir / "forecasts.json").read_text(encoding="utf-8"))
    assert sorted(forecasts) == ["10", "30"]
    assert sorted(forecasts["10"]) == ["s1", "s2", "s3", "s4"]

    model = load_model(out_dir / "checkpoints" / "soil_depth_010.ckpt")
    assert model.input_dim == 4 and model.horizon == config.horizon_days
    index_model = load_model(out_dir / "checkpoints" / "index.ckpt")
    assert index_model.input_dim == 2 and index_model.horizon == 1

    forecast_img = read_bandgrid(out_dir / "index_forecast.bgrid")
    assert forecast_img.band_names == (config.index_kind,)


def test_run_forecast_index_targets_forecast_day(tiny_run):
    config, report, _ = tiny_run
    target = date.fromisoformat(report.index.forecast_target)
    manifest = config.image_manifest.read_text(encoding="utf-8")
    last_date = date.fromisoformat(manifest.strip().splitlines()[-1].split(",")[0])
    assert target == last_date + timedelta(days=config.forecast_day)


def test_run_forecast_stage_failure_is_quarantined(tiny_dir: Path, tmp_path: Path):
    config = parse_config(tiny_dir / "config.json")
    broken = dataclasses.replace(config, test_fraction=0.99)
    out = tmp_path / "out"
    with pytest.raises(StageError) as info:
        run_forecast(dataclasses.replace(broken, output_dir=out))
    assert info.value.stage == "soil"
    assert isinstance(info.value.cause, EmptySplitError)
    assert (out / ".partial").exists()
    assert not (out / "report.json").exists()


def test_batched_forecast_matches_per_sensor_predict():
    scaler = Scaler(mean=np.array([30.0, 15.0, 1.0, 2.0]), std=np.array([40.0, 5.0, 0.5, 3.0]))
    model = dataclasses.replace(init_params(ModelShape(4, 6, 5, 4, horizon=3), seed=2), scaler=scaler)
    rng = np.random.default_rng(4)
    tails = {f"s{k}": rng.normal(0.0, 1.5, (7, 4)) * scaler.std + scaler.mean for k in (3, 1, 12, 2)}
    got = pipeline.forecast_sensors(model, tails)
    assert list(got) == ["s1", "s12", "s2", "s3"]
    clipped = 0
    for sid, values in got.items():
        want = np.clip(predict(model, tails[sid]), 0.0, 100.0)
        clipped += int(np.sum(want == 0.0))
        np.testing.assert_allclose(values, want, rtol=0.0, atol=1e-12)
    assert clipped < 12  # the comparison is not all clipped zeros


def file_tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def tiny_chain(tiny_dir: Path, tmp_path_factory: pytest.TempPathFactory) -> Path:
    out = tmp_path_factory.mktemp("tiny_chain")
    for command in ("train-soil", "train-index", "forecast", "interpolate"):
        assert main([command, "--config", str(tiny_dir / "config.json"), "--out", str(out)]) == 0
    return out


def test_stage_chain_writes_what_run_writes(tiny_run, tiny_chain):
    _, report, run_dir = tiny_run
    chain, run = file_tree(tiny_chain), file_tree(run_dir)
    assert set(chain) == set(run) - {"report.json"}
    assert {"index_forecast.pgm.txt", "soil_metrics.json", "index_metrics.json"} <= set(chain)
    for name, data in chain.items():
        assert data == run[name], name
    assert set(report.artifacts.values()) <= set(run)


def test_failed_stage_command_leaves_outputs_alone(tiny_dir: Path, tiny_chain: Path, tmp_path: Path, capsys):
    out = tmp_path / "out"
    shutil.copytree(tiny_chain, out)
    before = file_tree(out)
    payload = json.loads((tiny_dir / "config.json").read_text(encoding="utf-8"))
    payload["sensor_locations"] = {}
    for key in ("sensor_csv", "image_manifest"):
        payload[key] = str(tiny_dir / payload[key])
    config_path = write_config(tmp_path, payload, "unlocated.json")
    assert main(["interpolate", "--config", str(config_path), "--out", str(out)]) == 3
    assert "configured location" in capsys.readouterr().err
    assert file_tree(out) == before
    assert not (out / ".partial").exists()


# -- training pool ---------------------------------------------------------------------


@pytest.fixture()
def soil_pools(monkeypatch):
    """Worker and job counts of every training pool opened."""
    pools = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            super().__init__(max_workers, **kwargs)
            pools.append({"workers": max_workers, "jobs": 0})

        def submit(self, fn, /, *args, **kwargs):
            pools[-1]["jobs"] += 1
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return pools


def test_soil_stage_bytes_do_not_depend_on_worker_count(tiny_dir: Path, tmp_path: Path, monkeypatch, soil_pools):
    config = parse_config(tiny_dir / "config.json")
    config = dataclasses.replace(config, soil_train=dataclasses.replace(config.soil_train, epochs=3))
    records = load_sensor_csv(config.sensor_csv)
    outcomes = []
    for cores in (1, 2):
        monkeypatch.setattr(pipeline, "_usable_cores", lambda n=cores: n)
        checkpoints, results = {}, []
        for model, result in pipeline.run_soil_stage(records, config):
            path = tmp_path / f"{cores}-{result.depth_cm}.ckpt"
            save_model(model, path)
            checkpoints[result.depth_cm] = path.read_bytes()
            results.append(result)  # metrics and forecasts
        outcomes.append((checkpoints, results))
    assert soil_pools == [{"workers": 1, "jobs": 2}, {"workers": 2, "jobs": 2}]
    assert outcomes[0] == outcomes[1]


def diverging_config(tiny_dir: Path, tmp_path: Path, section: str) -> Path:
    """The tiny scenario's config with one Adam step that sends `section`'s
    model weights to +-1e200."""
    payload = json.loads((tiny_dir / "config.json").read_text(encoding="utf-8"))
    payload[section]["learning_rate"] = 1e200
    for key in ("sensor_csv", "image_manifest"):
        payload[key] = str(tiny_dir / payload[key])
    return write_config(tmp_path, payload, "diverge.json")


def demo_jobs(config: RunConfig) -> list:
    """`run`'s training jobs for `config`: every soil depth, then the index model."""
    soil_jobs = pipeline._soil_stage(load_sensor_csv(config.sensor_csv), config)
    stack = load_index_stack(config.image_manifest, config.index_kind, config.band_mapping)
    return soil_jobs + [pipeline._index_stage(stack, config)]


def test_single_threaded_blas_is_scoped(monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    with pipeline._single_threaded_blas():
        assert [os.environ[name] for name in pipeline._BLAS_THREAD_VARS] == ["1", "1", "1"]
    assert os.environ["OMP_NUM_THREADS"] == "3"
    assert "OPENBLAS_NUM_THREADS" not in os.environ


def test_soil_worker_divergence_stays_typed(tiny_dir: Path, tmp_path: Path, monkeypatch, soil_pools, capsys):
    config_path = diverging_config(tiny_dir, tmp_path, "soil_train")
    monkeypatch.setattr(pipeline, "_usable_cores", lambda: 1)

    out = tmp_path / "run"
    with pytest.raises(StageError) as info:
        run_forecast(dataclasses.replace(parse_config(config_path), output_dir=out))
    assert info.value.stage == "soil"
    assert isinstance(info.value.cause, DivergenceError)
    assert soil_pools[-1]["jobs"] == 1  # the second depth never started
    assert [p for p in out.rglob("*") if p.is_file()] == []
    assert multiprocessing.active_children() == []

    for command in ("train-soil", "run"):
        out = tmp_path / command
        assert main([command, "--config", str(config_path), "--out", str(out)]) == 4
        assert multiprocessing.active_children() == []
    assert not (tmp_path / "train-soil" / ".partial").exists()
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("jobs", "cores", "workers"),
    [
        (3, 1, 1),  # one core: never time-share
        (4, 1, 1),
        (1, 2, 1),  # jobs <= cores: one worker per job
        (2, 2, 2),
        (3, 4, 3),
        (4, 2, 2),  # whole rounds: one worker per core
        (8, 4, 4),
        (3, 2, 3),  # a partial last round starts beside a full one
        (5, 2, 3),
        (9, 4, 5),
        (7, 3, 4),
    ],
)
def test_pool_size_adds_a_worker_per_leftover_job(jobs, cores, workers):
    # equal jobs are all big, so the leftover rule applies to every one
    assert pipeline._pool_size([1.0] * jobs, cores) == workers


DEMO_MIX = [1.0, 1.0, 1.0, 0.155]  # synth --seed 7: three soil depths, then the index model


@pytest.mark.parametrize(
    ("costs", "cores", "workers"),
    [
        (DEMO_MIX, 2, 3),  # the third depth time-shares; the index job queues
        (DEMO_MIX, 4, 4),  # every job on its own core
        (DEMO_MIX, 1, 1),  # one core: never time-share
        ([1.0, 1.0, 1.0], 2, 3),  # paper_soil
        ([2.5] * 4, 2, 2),  # whole rounds of equal jobs: one worker per core
        ([2.5] * 5, 2, 3),
        ([1.0, 1.0, 0.0074], 2, 2),  # the tiny scenario's run: 2 depths fill 2 cores
        ([1.0, 0.2, 0.2], 2, 2),  # one big job: small jobs still fill the cores
        ([1.0, 0.5, 0.5], 2, 3),  # half the largest cost is big
        ([1.0, 0.49, 0.49], 2, 2),
        ([0.155, 1.0, 1.0, 1.0], 2, 3),  # job order does not size the pool
        ([7.0], 4, 1),
    ],
)
def test_pool_size_counts_only_big_jobs(costs, cores, workers):
    assert pipeline._pool_size(costs, cores) == workers


def test_job_cost_of_the_demo_mix(synth_config):
    # the shape-only estimate puts the index model at 0.16 of a soil depth
    costs = [pipeline._job_cost(job) for job in demo_jobs(synth_config)]
    assert costs[0] == costs[1] == costs[2]
    assert costs[3] / costs[0] == pytest.approx(0.155, abs=0.005)
    assert pipeline._pool_size(costs, 2) == 3


def test_jobs_carry_no_model(tiny_dir: Path):
    # a job is a recipe the worker builds its initial model from: at the
    # paper's widths each pickles to less than that model's float64 parameters
    config = dataclasses.replace(
        parse_config(tiny_dir / "config.json"),
        soil_model=pipeline.SoilModelSpec(),
        index_model=pipeline.IndexModelSpec(),
    )
    jobs = demo_jobs(config)
    assert [job[0] for job in jobs] == ["soil", "soil", "index"]
    for job in jobs:
        assert not any(isinstance(part, Seq2SeqModel) for part in job)
        shape = job[1]
        assert len(pickle.dumps(job[1:])) < 8 * shape.n_params


def test_soil_job_ships_series_not_windows(synth_config):
    # a soil job carries each sensor's scaled series and its cut points;
    # the worker cuts the windows, ~34x the bytes of the series
    for job in pipeline._soil_stage(load_sensor_csv(synth_config.sensor_csv), synth_config):
        windows = [part for part in job[3].windows() if part is not None]
        assert len(pickle.dumps(job)) < sum(part.inputs.nbytes + part.targets.nbytes for part in windows) / 10


def test_parent_runs_no_lstm_pass(tiny_dir: Path, tiny_run, tiny_chain, tmp_path: Path, monkeypatch):
    # the workers cut the windows, train, score and forecast: with every
    # forward pass refused in the parent, run, train-soil and train-index
    # still write the trees an unrestricted run writes
    def refused(*args, **kwargs):
        raise AssertionError("an LSTM forward pass ran in the parent")

    monkeypatch.setattr(lstm, "_forward", refused)
    config = str(tiny_dir / "config.json")
    assert main(["run", "--config", config, "--out", str(tmp_path / "run")]) == 0
    assert file_tree(tmp_path / "run") == file_tree(tiny_run[2])
    for command in ("train-soil", "train-index"):
        assert main([command, "--config", config, "--out", str(tmp_path / "chain")]) == 0
    trained = file_tree(tmp_path / "chain")
    assert trained == {name: data for name, data in file_tree(tiny_chain).items() if name in trained}
    assert {"checkpoints/index.ckpt", "soil_metrics.json", "index_metrics.json", "index_forecast.bgrid"} <= set(trained)


def test_run_trains_every_model_in_one_pool(tiny_dir: Path, tmp_path: Path, monkeypatch, soil_pools):
    # each run opens one pool for every depth and the index model, and its
    # whole output tree, index.ckpt included, does not depend on the pool
    # size: on 2 cores the 2 depths start 2 workers and the small index
    # job queues behind them
    config = parse_config(tiny_dir / "config.json")
    trees = []
    for cores in (1, 2):
        monkeypatch.setattr(pipeline, "_usable_cores", lambda n=cores: n)
        out_dir = tmp_path / f"cores{cores}"
        report = run_forecast(dataclasses.replace(config, output_dir=out_dir))
        trees.append(file_tree(out_dir))
    jobs = len(report.depths) + 1
    assert jobs == 3
    assert soil_pools == [{"workers": 1, "jobs": jobs}, {"workers": 2, "jobs": jobs}]
    assert "checkpoints/index.ckpt" in trees[0]
    assert trees[0] == trees[1]


def test_big_job_divergence_never_starts_the_queued_small_job(
    tiny_dir: Path, tmp_path: Path, monkeypatch, soil_pools
):
    # on 2 cores both depths train and the index job waits for a free
    # worker; the depths diverge, so it never starts
    config_path = diverging_config(tiny_dir, tmp_path, "soil_train")
    monkeypatch.setattr(pipeline, "_usable_cores", lambda: 2)

    out = tmp_path / "run"
    with pytest.raises(StageError) as info:
        run_forecast(dataclasses.replace(parse_config(config_path), output_dir=out))
    assert info.value.stage == "soil"
    assert isinstance(info.value.cause, DivergenceError)
    assert soil_pools == [{"workers": 2, "jobs": 2}]
    assert [p for p in out.rglob("*") if p.is_file()] == []
    assert multiprocessing.active_children() == []


def test_trained_bytes_do_not_depend_on_the_pool_size(synth_config, tmp_path: Path, monkeypatch, soil_pools):
    # the demo mix of three soil depths and the small index model, at 2
    # epochs each, trained by 1, 2, 3 and 4 workers
    config = dataclasses.replace(
        synth_config,
        soil_train=dataclasses.replace(synth_config.soil_train, epochs=2),
        index_train=dataclasses.replace(synth_config.index_train, epochs=2),
    )
    jobs = demo_jobs(config)
    checkpoints = []
    for workers in (1, 2, 3, 4):
        monkeypatch.setattr(pipeline, "_pool_size", lambda costs, cores, w=workers: w)
        paths = []
        for k, (model, *_) in enumerate(pipeline._train_all(jobs)):
            paths.append(tmp_path / f"{workers}-{k}.ckpt")
            save_model(model, paths[-1])
        checkpoints.append([path.read_bytes() for path in paths])
    assert [pool["workers"] for pool in soil_pools] == [1, 2, 3, 4]
    assert all(pool["jobs"] == 4 for pool in soil_pools)
    assert checkpoints[1:] == [checkpoints[0]] * 3


def test_index_worker_divergence_stays_typed(tiny_dir: Path, tmp_path: Path, monkeypatch, soil_pools, capsys):
    config_path = diverging_config(tiny_dir, tmp_path, "index_train")
    monkeypatch.setattr(pipeline, "_usable_cores", lambda: 2)

    out = tmp_path / "run"
    with pytest.raises(StageError) as info:
        run_forecast(dataclasses.replace(parse_config(config_path), output_dir=out))
    assert info.value.stage == "index"
    assert isinstance(info.value.cause, DivergenceError)
    assert [p for p in out.rglob("*") if p.is_file()] == []
    assert multiprocessing.active_children() == []

    for command in ("train-index", "run"):
        out = tmp_path / command
        assert main([command, "--config", str(config_path), "--out", str(out)]) == 4
        assert multiprocessing.active_children() == []
        assert [p for p in out.rglob("*") if p.is_file()] == []
        assert "stage 'index' failed" in capsys.readouterr().err


def test_run_forecast_rejects_bad_day(tiny_dir: Path, tmp_path: Path):
    config = parse_config(tiny_dir / "config.json")
    with pytest.raises(ConfigError, match="1..14"):
        run_forecast(dataclasses.replace(config, output_dir=tmp_path / "o"), forecast_day=15)


# -- kriging stage ------------------------------------------------------------------


def test_kriging_stage_builds_one_model_per_depth(tiny_dir: Path, monkeypatch):
    # one model per depth serves both the LOO score and the grid, with the
    # configured variogram and with one fitted by LOO, whose search builds
    # no model of its own
    config = parse_config(tiny_dir / "config.json")
    calls = []
    real = kriging.build_model

    def counting(layout, values, variogram):
        calls.append(len(values))
        return real(layout, values, variogram)

    monkeypatch.setattr(kriging, "build_model", counting)
    rng = np.random.default_rng(8)
    table = {depth: {sid: tuple(rng.uniform(10.0, 60.0, 3)) for sid in config.sensor_locations} for depth in (10, 30, 60)}
    layout = kriging.SampleLayout([config.sensor_locations[sid] for sid in sorted(config.sensor_locations)])
    for variogram in (config.variogram, None):
        calls.clear()
        volume, stats = pipeline.run_kriging_stage(table, dataclasses.replace(config, variogram=variogram), 2)
        assert calls == [4, 4, 4]
        assert volume.depths == (10, 30, 60)
        for depth in (10, 30, 60):
            values = np.array([table[depth][sid][1] for sid in sorted(config.sensor_locations)])
            want = variogram if variogram is not None else kriging.fit_variogram(layout, values)
            assert stats[depth][0] is not None and stats[depth][1] == want


def kriging_table(sensor_ids, depths=(10, 30, 60), seed=8) -> dict[int, dict[str, tuple[float, ...]]]:
    rng = np.random.default_rng(seed)
    return {depth: {sid: tuple(rng.uniform(10.0, 60.0, 3)) for sid in sensor_ids} for depth in depths}


@pytest.mark.parametrize(("fitted", "eighs"), [(True, 8), (False, 1)], ids=["fitted", "configured"])
def test_kriging_stage_decomposes_each_range_once_per_layout(fitted, eighs, tiny_dir: Path, monkeypatch):
    # three depths at the same 4 located sensors: a fit scores 8 ranges,
    # and the model's range is one of them, so 8 eighs serve every depth
    # (27 when each depth decomposed its own); a configured variogram has 1
    config = parse_config(tiny_dir / "config.json")
    if fitted:
        config = dataclasses.replace(config, variogram=None)
    calls = []
    real = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    volume, _ = pipeline.run_kriging_stage(kriging_table(config.sensor_locations), config, 2)
    assert volume.depths == (10, 30, 60)
    assert calls == [(4, 4)] * eighs


@pytest.mark.parametrize("fitted", [True, False], ids=["fitted", "configured"])
def test_kriging_stage_matches_each_depth_kriged_alone(fitted, tiny_dir: Path):
    # 60 cm lacks s2, so it gets a layout of its own; each depth's grid,
    # variance and stats are those of the per-depth calls, bit for bit
    config = parse_config(tiny_dir / "config.json")
    if fitted:
        config = dataclasses.replace(config, variogram=None)
    table = kriging_table(config.sensor_locations, depths=(10, 30, 60, 90), seed=9)
    del table[60]["s2"]
    volume, stats = pipeline.run_kriging_stage(table, config, 3)
    for k, depth in enumerate(volume.depths):
        located = sorted(table[depth])
        layout = kriging.SampleLayout([config.sensor_locations[sid] for sid in located])
        values = np.array([table[depth][sid][2] for sid in located])
        variogram = config.variogram or kriging.fit_variogram(layout, values)
        model = kriging.build_model(layout, values, variogram)
        mapped, variance = kriging.interpolate_grid(model, config.grid)
        assert volume.values[k].tobytes() == mapped.tobytes()
        assert volume.variance[k].tobytes() == variance.tobytes()
        assert stats[depth] == (kriging.loo_score(model), variogram, len(located))
    assert stats[60][2] == 3


def test_kriging_stage_names_the_depth_of_two_sensors_at_one_location(tiny_dir: Path):
    # the layout checks the locations, and is made inside the depth's try
    config = parse_config(tiny_dir / "config.json")
    locations = dict(config.sensor_locations, s2=config.sensor_locations["s1"])
    with pytest.raises(DataError, match=r"^depth 10 cm: samples 0 and 1 share coordinates"):
        pipeline.run_kriging_stage(kriging_table(locations), dataclasses.replace(config, sensor_locations=locations), 2)


def thin_table(located: list[str], depth_30: dict[str, float]) -> dict[int, dict[str, tuple[float, ...]]]:
    """A 14-day forecast table: every located sensor at 10 cm, `depth_30` at 30 cm."""
    return {
        10: {sid: (20.0 + 3.0 * k,) * 14 for k, sid in enumerate(located)},
        30: {sid: (value,) * 14 for sid, value in depth_30.items()},
    }


def test_kriging_stage_maps_thin_and_flat_depths_with_a_configured_variogram(tiny_dir: Path):
    # The rule: a configured variogram maps a 2-sensor or constant depth
    # and reports LOO None; only a fitted one refuses it (the CLI test
    # below). Forecasts are clipped to [0, 100], so a saturated depth can
    # be constant, and a refusal would abort every depth's map.
    config = parse_config(tiny_dir / "config.json")
    located = sorted(config.sensor_locations)
    volume, stats = pipeline.run_kriging_stage(thin_table(located, {"s1": 20.0, "s2": 25.0}), config, 2)
    assert stats[30] == (None, config.variogram, 2)
    mapped = volume.values[1]
    # Within the samples' range, but for the Gaussian model's smooth
    # overshoot past the outer sensor: 25.0308 on this grid.
    assert 20.0 <= mapped.min() and mapped.max() <= 25.0 + 0.01 * (25.0 - 20.0)
    assert (volume.variance[1] > 0.0).all()
    for constant in (20.0, 100.0):
        volume, stats = pipeline.run_kriging_stage(thin_table(located, dict.fromkeys(located[:3], constant)), config, 2)
        assert stats[30] == (None, config.variogram, 3)
        np.testing.assert_allclose(volume.values[1], constant, rtol=1e-14, atol=0.0)


def test_kriging_stage_names_the_depth_it_refuses(tiny_dir: Path, tmp_path: Path, capsys):
    # A configured zero nugget with s2 1e-9 from s1 at 30 cm: cond(R) is
    # ~1e16, past the 1e10 bound, so the stage refuses and names the
    # depth; interpolate exits 4 and writes nothing.
    payload = json.loads((tiny_dir / "config.json").read_text(encoding="utf-8"))
    payload["variogram"]["nugget"] = 0.0
    x, y = payload["sensor_locations"]["s1"]
    payload["sensor_locations"]["s2"] = [x + 1e-9, y]
    for key in ("sensor_csv", "image_manifest"):
        payload[key] = str(tiny_dir / payload[key])
    config_path = write_config(tmp_path, payload, "refused.json")
    located = sorted(payload["sensor_locations"])
    table = thin_table([sid for sid in located if sid != "s2"], {sid: 20.0 + k for k, sid in enumerate(located)})
    with pytest.raises(FactorizationError, match=r"^depth 30 cm: .*cond\(R \+ rI\) = \S+ > 1e\+10") as info:
        pipeline.run_kriging_stage(table, parse_config(config_path), 2)
    assert float(str(info.value).split("= ")[1].split()[0]) > 1e10
    out = tmp_path / "out"
    out.mkdir()
    (out / "forecasts.json").write_text(json.dumps({str(d): t for d, t in table.items()}), encoding="utf-8")
    assert main(["interpolate", "--config", str(config_path), "--out", str(out)]) == 4
    assert "depth 30 cm: " in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["forecasts.json"]


# -- gradcheck command ----------------------------------------------------------------


def test_cmd_gradcheck_passes_over_every_default_coordinate():
    report = cmd_gradcheck(seed=0)
    assert report["passed"] is True
    assert report["soil"]["passed"] and report["index"]["passed"]
    model = init_params(ModelShape(4, 8, 8, 6, horizon=3), seed=0)
    assert report["soil"]["n_checked"] == sum(t.size for t in model.tensors.values()) == 1021
    assert report["index"]["n_checked"] == 409


def test_cmd_gradcheck_detects_corruption():
    report = cmd_gradcheck(seed=0, corrupt=True)
    assert report["passed"] is False
    assert report["soil"]["worst_param"] == "encoder.w"


def test_gradcheck_names_the_corrupted_gate(capsys):
    # the corruption doubles flat[0] of the fused encoder W: row 0, gate i
    report = cmd_gradcheck(seed=0, corrupt=True)
    for r in (report["soil"], report["index"]):
        assert (r["worst_param"], r["worst_gate"], r["worst_index"]) == ("encoder.w", "i", 0)
    assert main(["gradcheck", "--corrupt"]) == 4
    out = capsys.readouterr().out
    assert "soil: FAIL" in out and "at encoder.w (gate i, index 0) over" in out


@pytest.mark.parametrize(
    "param, index, gate",
    [
        ("encoder.w", 15, "i"),  # soil toy, n = 4: W is (16, 4), flat 15 is row 3
        ("encoder.w", 17, "f"),  # row 4
        ("decoder.u", 35, "o"),  # U is (16, 4): row 8
        ("decoder.b", 15, "g"),  # b is (16,)
        ("head_out.weight", 2, None),  # not an LSTM tensor
    ],
)
def test_gradcheck_gate_of_worst_coordinate(param, index, gate):
    shape = ModelShape(4, 4, 4, 3, horizon=2)
    offset = 0
    for name, dims in shape.layout():
        if name == param:
            break
        offset += int(np.prod(dims))
    assert shape.locate(offset + index) == (param, index, gate)


# -- CLI ----------------------------------------------------------------------------


def test_cli_exit_codes(tmp_path: Path, capsys):
    assert main(["run"]) == 2  # --config required
    capsys.readouterr()
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "missing.json" in err
    (tmp_path / "sensors.csv").write_text("date,sensor_id,depth_cm,moisture,soil_temp,salinity,rainfall\n")
    path = write_config(tmp_path, {"seed": 1, "sensor_csv": "sensors.csv", "soil_train": {"learning_rate": -1}})
    assert main(["train-soil", "--config", str(path)]) == 2
    assert "soil_train" in capsys.readouterr().err


def test_cli_refuses_a_manifest_image_that_cannot_be_read(tiny_dir: Path, tmp_path: Path, capsys):
    data = tmp_path / "data"
    shutil.copytree(tiny_dir, data, ignore=shutil.ignore_patterns("out*", "chain*"))
    (data / "images" / "image_003.bgrid").rename(data / "images" / "renamed.bgrid")
    for command in ("train-index", "run"):
        assert main([command, "--config", str(data / "config.json"), "--out", str(tmp_path / command)]) == 3
        err = capsys.readouterr().err
        assert "manifest.csv: line 5:" in err and str(data / "images" / "image_003.bgrid") in err
        assert "Traceback" not in err


def test_cli_refuses_a_manifest_date_out_of_order(tiny_dir: Path, tmp_path: Path, capsys):
    data = tmp_path / "data"
    shutil.copytree(tiny_dir, data, ignore=shutil.ignore_patterns("out*", "chain*"))
    manifest = data / "images" / "manifest.csv"
    lines = manifest.read_text(encoding="utf-8").splitlines()
    lines[4], lines[5] = lines[5], lines[4]
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    later, earlier = lines[4].split(",")[0], lines[5].split(",")[0]
    assert main(["train-index", "--config", str(data / "config.json"), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert f"manifest.csv: line 6: date {earlier} is not after {later} on line 5" in err
    assert "Traceback" not in err


def test_cli_forecast_refuses_a_malformed_checkpoint(tiny_dir: Path, tiny_chain: Path, tmp_path: Path, capsys):
    out = tmp_path / "out"
    shutil.copytree(tiny_chain, out)
    ckpt = out / "checkpoints" / "soil_depth_030.ckpt"
    magic, header, body = ckpt.read_bytes().split(b"\n", 2)
    header = json.loads(header)
    del header["horizon"]
    ckpt.write_bytes(magic + b"\n" + json.dumps(header).encode("utf-8") + b"\n" + body)
    assert main(["forecast", "--config", str(tiny_dir / "config.json"), "--out", str(out)]) == 3
    assert "soil_depth_030.ckpt" in capsys.readouterr().err


def test_cli_forecast_refuses_a_checkpoint_named_without_a_depth(
    tiny_dir: Path, tiny_chain: Path, tmp_path: Path, capsys
):
    out = tmp_path / "out"
    shutil.copytree(tiny_chain, out)
    shutil.copy(out / "checkpoints" / "soil_depth_030.ckpt", out / "checkpoints" / "soil_depth_old.ckpt")
    before = file_tree(out)
    assert main(["forecast", "--config", str(tiny_dir / "config.json"), "--out", str(out)]) == 3
    assert "soil_depth_old.ckpt" in capsys.readouterr().err
    assert file_tree(out) == before


def test_cli_forecast_refuses_a_checkpoint_of_another_shape(
    tiny_dir: Path, tiny_chain: Path, tmp_path: Path, capsys
):
    # a valid header whose horizon is not the config's: the tensors load,
    # so only a comparison with the config's soil shape can refuse it
    out = tmp_path / "out"
    shutil.copytree(tiny_chain, out)
    ckpt = out / "checkpoints" / "soil_depth_030.ckpt"
    magic, header, body = ckpt.read_bytes().split(b"\n", 2)
    header = json.loads(header)
    header["horizon"] = 3
    ckpt.write_bytes(magic + b"\n" + json.dumps(header).encode("utf-8") + b"\n" + body)
    assert load_model(ckpt).horizon == 3
    before = file_tree(out)
    assert main(["forecast", "--config", str(tiny_dir / "config.json"), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "soil_depth_030.ckpt" in err and "horizon=3" in err and "horizon=14" in err
    assert file_tree(out) == before
    assert not (out / ".partial").exists()


def test_cli_forecast_refuses_a_checkpoint_with_a_nan_parameter(
    tiny_dir: Path, tiny_chain: Path, tmp_path: Path, capsys
):
    # the header is valid and the shape is the config's: only the
    # parameters themselves can refuse it, before any forecast is made
    out = tmp_path / "out"
    shutil.copytree(tiny_chain, out)
    ckpt = out / "checkpoints" / "soil_depth_030.ckpt"
    model = load_model(ckpt)
    model.flat[0] = np.nan
    save_model(model, ckpt)
    before = file_tree(out)
    assert main(["forecast", "--config", str(tiny_dir / "config.json"), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "soil_depth_030.ckpt" in err and "encoder.w (gate i) at index 0" in err
    assert file_tree(out) == before
    assert not (out / ".partial").exists()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_json_artifact_refuses_a_non_finite_number(value, tmp_path: Path):
    with pytest.raises(NumericError, match="metrics.json"):
        pipeline._write_json(tmp_path, "metrics.json", {"10": {"test_rmse": 1.0, "curve": [2.0, value]}})
    assert list(tmp_path.iterdir()) == []


def test_cli_forecast_refuses_a_non_finite_forecast(
    tiny_dir: Path, tiny_chain: Path, tmp_path: Path, monkeypatch, capsys
):
    # a NaN that reaches a payload stops the command with exit 4 naming the
    # file; it stays in the `.partial` quarantine, unwritten
    out = tmp_path / "out"
    shutil.copytree(tiny_chain, out)
    table = pipeline.read_forecasts(out / "forecasts.json", 1)
    table[10]["s1"] = (np.nan, *table[10]["s1"][1:])
    monkeypatch.setattr(pipeline, "forecast_from_checkpoints", lambda config, ckpt_dir: table)
    before = file_tree(out)
    assert main(["forecast", "--config", str(tiny_dir / "config.json"), "--out", str(out)]) == 4
    assert "forecasts.json" in capsys.readouterr().err
    assert file_tree(out) == before
    assert list((out / ".partial").iterdir()) == []


@pytest.mark.parametrize(
    "payload",
    [
        '{"10": {"s1": [1.0,',  # not JSON
        "[[10, 20.0]]",  # a list, not a depth table
        '{"10": {"s1": "a curve that is a string"}}',
        '{"ten": {"s1": [20.0, 21.0, 22.0, 23.0, 24.0, 25.0, 26.0, 27.0, 28.0, 29.0, 30.0, 31.0, 32.0, 33.0]}}',
        "{}",  # no depth, so no volume
    ],
    ids=["not-json", "list", "string-curve", "word-depth", "no-depth"],
)
def test_cli_interpolate_refuses_a_malformed_forecast_table(payload, tiny_dir: Path, tmp_path: Path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "forecasts.json").write_text(payload, encoding="utf-8")
    assert main(["interpolate", "--config", str(tiny_dir / "config.json"), "--out", str(out)]) == 3
    assert "forecasts.json" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["forecasts.json"]


@pytest.mark.parametrize("entry", ["NaN", "Infinity", "true", '"1.5"'], ids=["nan", "infinity", "true", "string"])
def test_read_forecasts_refuses_an_entry_that_is_not_a_finite_number(entry, tiny_dir: Path, tmp_path: Path, capsys):
    # the entry sits past the interpolated day: the whole table is checked
    # where it is read, by file, sensor and depth, not later in kriging
    curve = ", ".join(["20.5"] * 5 + [entry] + ["21.0"] * 8)
    out = tmp_path / "out"
    out.mkdir()
    (out / "forecasts.json").write_text(f'{{"10": {{"s1": [{curve}]}}}}', encoding="utf-8")
    with pytest.raises(DataError, match=r"forecasts\.json: forecast for s1 at depth 10 holds .*not a finite number"):
        pipeline.read_forecasts(out / "forecasts.json", 1)
    assert main(["interpolate", "--config", str(tiny_dir / "config.json"), "--out", str(out)]) == 3
    assert "forecast for s1 at depth 10" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["forecasts.json"]


@pytest.mark.parametrize(
    ("depth_30", "message"),
    [
        ({"s1": 20.0, "s2": 25.0}, "variogram fit needs >= 3 samples, have 2"),
        ({"s1": 20.0, "s2": 20.0, "s3": 20.0}, "sample values are constant"),
    ],
    ids=["two-sensors", "constant"],
)
def test_cli_interpolate_names_the_depth_a_variogram_fit_refuses(
    depth_30, message, tiny_dir: Path, tmp_path: Path, capsys
):
    # with no configured variogram each depth fits its own; a depth that
    # cannot fit one is refused as bad data under its own name
    payload = json.loads((tiny_dir / "config.json").read_text(encoding="utf-8"))
    del payload["variogram"]
    for key in ("sensor_csv", "image_manifest"):
        payload[key] = str(tiny_dir / payload[key])
    config_path = write_config(tmp_path, payload, "fitted.json")
    located = sorted(payload["sensor_locations"])
    assert set(depth_30) <= set(located)
    table = {
        "10": {sid: [20.0 + 3.0 * k] * 14 for k, sid in enumerate(located)},
        "30": {sid: [value] * 14 for sid, value in depth_30.items()},
    }
    out = tmp_path / "out"
    out.mkdir()
    (out / "forecasts.json").write_text(json.dumps(table), encoding="utf-8")
    assert main(["interpolate", "--config", str(config_path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"depth 30 cm: {message}" in err
    assert sorted(p.name for p in out.iterdir()) == ["forecasts.json"]


def test_cli_forecast_requires_checkpoints(tiny_dir: Path, tmp_path: Path, capsys):
    rc = main(["forecast", "--config", str(tiny_dir / "config.json"), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "train-soil" in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    # importing the CLI imports pipeline and kriging too
    src = str(Path(pipeline.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, smartcast.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_parent_never_loads_numpy_random(tiny_dir: Path, tmp_path: Path):
    # the workers derive the training seeds and draw every random number:
    # train-soil, train-index and run leave numpy.random out of the parent
    src = str(Path(pipeline.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    config, out = str(tiny_dir / "config.json"), str(tmp_path / "out")
    code = (
        "import sys\n"
        "from smartcast.cli import main\n"
        "for command in ('train-soil', 'train-index', 'run'):\n"
        f"    assert main([command, '--config', {config!r}, '--out', {out!r}]) == 0\n"
        "    print(command, 'numpy.random' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=600)
    assert result.returncode == 0, result.stderr
    assert [line for line in result.stdout.splitlines() if line.endswith(("True", "False"))] == [
        "train-soil False",
        "train-index False",
        "run False",
    ]


def test_run_job_derives_todays_seeds(tiny_dir: Path, monkeypatch):
    # the parent ships each job's seed parts; the worker derives from them
    # the init and training seeds the parent once derived itself
    config = parse_config(tiny_dir / "config.json")
    config = dataclasses.replace(
        config,
        soil_train=dataclasses.replace(config.soil_train, epochs=0),
        index_train=dataclasses.replace(config.index_train, epochs=0),
    )
    seeds = []
    real_init, real_train = lstm.init_params, lstm.train

    def init_params(shape, seed, scaler=None):
        seeds.append(seed)
        return real_init(shape, seed, scaler)

    def train(model, fit, val, train_config, seed):
        seeds.append(seed)
        return real_train(model, fit, val, train_config, seed)

    monkeypatch.setattr(lstm, "init_params", init_params)
    monkeypatch.setattr(lstm, "train", train)
    jobs = demo_jobs(config)
    assert [job[2] for job in jobs] == [(3, 11, 10), (3, 11, 30), (3, 22)]
    for job in jobs:
        pipeline._run_job(*job[1:])
    assert seeds == [698397058, 612058380, 3921729532, 3202589398, 2833387778, 2109360856]


def test_index_job_frees_its_fit_and_val_windows_before_finish(tiny_dir: Path, monkeypatch):
    # the task hands its fit and val windows to the job, which drops them
    # once the model has trained: neither is alive while the model scores
    config = parse_config(tiny_dir / "config.json")
    config = dataclasses.replace(config, index_train=dataclasses.replace(config.index_train, epochs=1))
    stack = load_index_stack(config.image_manifest, config.index_kind, config.band_mapping)
    job = pipeline._index_stage(stack, config)
    task = job[3]
    refs = [weakref.ref(task.fit), weakref.ref(task.val)]
    n_train = task.fit.n_samples + task.val.n_samples
    alive = []
    real = pipeline._IndexTask.finish

    def finish(self, model, test):
        alive.extend(ref() is not None for ref in refs)
        return real(self, model, test)

    monkeypatch.setattr(pipeline._IndexTask, "finish", finish)
    _, result, _ = pipeline._run_job(*job[1:])
    assert alive == [False, False]
    assert result.n_train_windows == n_train


def test_cli_gradcheck(capsys):
    rc = main(["gradcheck"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "soil: PASS" in out and "index: PASS" in out
    rc = main(["gradcheck", "--corrupt"])
    out = capsys.readouterr().out
    assert rc == 4
    assert "soil: FAIL" in out


def test_cli_synth_writes_runnable_scenario(tmp_path: Path, capsys):
    out = tmp_path / "scene"
    assert main(["synth", "--out", str(out), "--seed", "5"]) == 0
    capsys.readouterr()
    config = parse_config(out / "config.json")
    assert config.seed == 5
    assert config.sensor_csv.is_file()
    assert config.image_manifest.is_file()


def test_cli_stage_chain(tiny_dir: Path, tmp_path: Path, capsys):
    config = str(tiny_dir / "config.json")
    out = str(tmp_path / "chain")
    assert main(["train-soil", "--config", config, "--out", out]) == 0
    assert (tmp_path / "chain" / "checkpoints" / "soil_depth_010.ckpt").is_file()
    assert (tmp_path / "chain" / "soil_metrics.json").is_file()

    assert main(["train-index", "--config", config, "--out", out]) == 0
    assert (tmp_path / "chain" / "checkpoints" / "index.ckpt").is_file()
    # promotion merges into checkpoints/; soil checkpoints must survive
    assert (tmp_path / "chain" / "checkpoints" / "soil_depth_010.ckpt").is_file()

    assert main(["forecast", "--config", config, "--out", out]) == 0
    forecasts = json.loads((tmp_path / "chain" / "forecasts.json").read_text(encoding="utf-8"))
    assert sorted(forecasts) == ["10", "30"]

    assert main(["interpolate", "--config", config, "--out", out, "--day", "7"]) == 0
    assert (tmp_path / "chain" / "volume" / "depth_030.bgrid").is_file()
    assert (tmp_path / "chain" / "grid.csv").is_file()
    capsys.readouterr()

    bad = main(["interpolate", "--config", config, "--out", out, "--day", "99"])
    assert bad == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["forecast", "--config", "c.json", "--day", "3"],
        ["train-soil", "--config", "c.json", "--day", "3"],
        ["train-index", "--config", "c.json", "--day", "3"],
        ["synth", "--config", "c.json"],
        ["synth", "--day", "3"],
        ["gradcheck", "--config", "nowhere.json"],
        ["gradcheck", "--out", "x"],
        ["gradcheck", "--day", "99"],
    ],
)
def test_cli_subcommands_refuse_flags_they_do_not_read(argv, tmp_path: Path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a command that ran anyway would write here
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_flag_overrides(tiny_dir: Path, tmp_path: Path):
    import argparse

    from smartcast.cli import _load_config

    args = argparse.Namespace(
        config=str(tiny_dir / "config.json"), seed=9, out=str(tmp_path / "elsewhere")
    )
    config = _load_config(args)
    assert config.seed == 9
    assert config.output_dir == tmp_path / "elsewhere"
