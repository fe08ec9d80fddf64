"""End-to-end orchestration: config parsing, staged runs, reports.

A run trains one soil model per depth (windows pooled across sensors,
scaled per depth) and the vegetation-index pixel model, produces 14-day
forecasts at every sensor and a forecast index image, kriges the chosen
forecast day into a per-depth grid stack, and writes all artifacts plus
a JSON report.

Each training stage checks its data, fits its scaler and builds its
jobs. A job is a model's whole work, not a model: in `_train_all`'s
spawned workers each job derives its seeds, cuts its windows, builds and
trains its model, scores it on the test split and forecasts with it (in
original units: `lstm.predict_batch` applies the scaler), so the parent
runs no LSTM pass, never loads `np.random`, and ships only series and cut
points. `run` trains every model in one pool.

Every stage failure is wrapped in a StageError naming the stage, and
artifacts are staged under `<out>/.partial` until the run succeeds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import shutil
from collections.abc import Mapping
from dataclasses import dataclass
from datetime import timedelta
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import kriging, lstm, timeseries, vegindex
from .errors import (
    ConfigError,
    DataError,
    EmptySplitError,
    FactorizationError,
    NumericError,
    StageError,
)
from .kriging import GridGeometry, Variogram
from .lstm import ModelShape, Seq2SeqModel, TrainConfig
from .timeseries import DEFAULT_HORIZON, DEFAULT_MAX_GAP, Scaler, WindowSet

_DEFAULT_BAND_MAPPING = {"red": "B04", "nir": "B08", "swir": "B11"}
_VAL_FRACTION = 0.1


@dataclass(frozen=True)
class SoilModelSpec:
    """Soil-architecture sizing (input window and layer widths)."""

    input_length: int = 30
    encoder_hidden: int = 200
    decoder_hidden: int = 200
    dense_hidden: int = 100

    def __post_init__(self):
        if min(self.input_length, self.encoder_hidden, self.decoder_hidden, self.dense_hidden) < 1:
            raise ConfigError("soil model dimensions must be positive")


@dataclass(frozen=True)
class IndexModelSpec:
    """Index-architecture sizing; the input window is fixed at 5 images."""

    encoder_hidden: int = 50
    decoder_hidden: int = 50
    dense_hidden: int = 20

    def __post_init__(self):
        if min(self.encoder_hidden, self.decoder_hidden, self.dense_hidden) < 1:
            raise ConfigError("index model dimensions must be positive")


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration.

    `sensor_csv`, `image_manifest` and `output_dir` are resolved once, by
    `parse_config`: a relative path in the file is relative to the
    config file's directory, an absolute one is kept.
    """

    seed: int
    sensor_csv: Path
    image_manifest: Path | None
    output_dir: Path
    sensor_locations: dict[str, tuple[float, float]]
    depths_cm: tuple[int, ...] | None
    horizon_days: int
    test_fraction: float
    max_gap_days: int
    forecast_day: int
    index_kind: str
    band_mapping: dict[str, str]
    soil_model: SoilModelSpec
    index_model: IndexModelSpec
    soil_train: TrainConfig
    index_train: TrainConfig
    grid: GridGeometry
    variogram: Variogram | None


@dataclass(frozen=True)
class DepthResult:
    """One depth's trained-model figures and per-sensor forecasts."""

    depth_cm: int
    test_rmse: float
    persistence_rmse: float
    n_train_windows: int
    n_test_windows: int
    forecasts: dict[str, tuple[float, ...]]

    def metrics(self) -> dict:
        """The depth's entry in soil_metrics.json, which report.json extends."""
        return {
            "test_rmse": self.test_rmse,
            "persistence_rmse": self.persistence_rmse,
            "n_train_windows": self.n_train_windows,
            "n_test_windows": self.n_test_windows,
        }


@dataclass(frozen=True)
class IndexResult:
    """Index-model evaluation and forecast-target metadata."""

    test_rmse: float
    test_mae: float
    persistence_rmse: float
    n_train_windows: int
    n_test_windows: int
    forecast_target: str


@dataclass(frozen=True)
class ForecastReport:
    """Everything a run produced: metrics per depth, the kriging stage's
    (LOO score, variogram, sample count) per depth, index metrics and
    artifacts."""

    seed: int
    forecast_day: int
    depths: tuple[DepthResult, ...]
    kriging: dict[int, tuple[float | None, Variogram, int]]
    index: IndexResult | None
    artifacts: dict[str, str]

    def to_dict(self) -> dict:
        """Plain-type payload; `_write_json` refuses it if a number is not finite."""
        depths = {}
        for d in self.depths:
            loo_score, variogram, n_samples = self.kriging[d.depth_cm]
            depths[str(d.depth_cm)] = {
                **d.metrics(),
                "forecasts": {s: list(vals) for s, vals in d.forecasts.items()},
                "n_samples": n_samples,
                "loo_score": loo_score,
                "variogram": dataclasses.asdict(variogram),
            }
        return {
            "seed": self.seed,
            "forecast_day": self.forecast_day,
            "soil": {"per_depth": depths},
            "index": None if self.index is None else dataclasses.asdict(self.index),
            "artifacts": dict(sorted(self.artifacts.items())),
        }


# -- config parsing ---------------------------------------------------------------

def _reject_unknown(section: str, given: dict, allowed: set[str]) -> None:
    unknown = sorted(set(given) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {section}: {', '.join(unknown)}")


def _require(given: dict, key: str, kinds, section: str):
    if key not in given:
        raise ConfigError(f"missing required key '{key}' in {section}")
    value = given[key]
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise ConfigError(f"key '{key}' in {section} has wrong type {type(value).__name__}")
    return value


def _optional(given: dict, key: str, kinds, section: str, default):
    if key not in given or given[key] is None:
        return default
    return _require(given, key, kinds, section)


# Sections that map one-to-one onto a dataclass: its fields give the keys,
# types and defaults, and `None` as the default makes every key required.
_SECTIONS = {
    "soil_model": (SoilModelSpec, SoilModelSpec()),
    "index_model": (IndexModelSpec, IndexModelSpec()),
    "soil_train": (TrainConfig, TrainConfig()),
    "index_train": (TrainConfig, TrainConfig()),
    "grid": (GridGeometry, GridGeometry(nx=16, ny=16, cell_size=10.0)),
    "variogram": (Variogram, None),
}
_KINDS = {"int": (int, int), "float": ((int, float), float)}


def _parse_section(section: str, raw: dict, cls, default):
    fields = dataclasses.fields(cls)
    _reject_unknown(section, raw, {f.name for f in fields})
    values = {}
    for f in fields:
        kinds, convert = _KINDS[f.type]
        if default is None:
            values[f.name] = convert(_require(raw, f.name, kinds, section))
        else:
            values[f.name] = convert(_optional(raw, f.name, kinds, section, getattr(default, f.name)))
    try:
        return cls(**values)
    except (ValueError, ConfigError, DataError) as e:
        raise ConfigError(f"invalid {section}: {e}") from e


def _finite_number(text: str) -> float | int:
    """JSON number hook: refuses NaN, Infinity, -Infinity and literals past
    the float range. An integer literal stays an int."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"config holds the non-finite number {text}; every number must be finite")
    return int(text) if text.lstrip("-").isdigit() else value


def parse_config(path: str | Path) -> RunConfig:
    """Load and validate a JSON run config; defaults fill absent keys.

    Unknown keys anywhere are rejected by name; referenced input paths
    must exist when the file is parsed. The seed is mandatory, and every
    number must be finite.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
        raw = json.loads(text, parse_float=_finite_number, parse_int=_finite_number, parse_constant=_finite_number)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    allowed = {
        "seed", "sensor_csv", "image_manifest", "output_dir", "sensor_locations",
        "depths_cm", "horizon_days", "test_fraction", "max_gap_days", "forecast_day",
        "index_kind", "band_mapping", "soil_model", "index_model", "soil_train",
        "index_train", "grid", "variogram",
    }
    _reject_unknown("config", raw, allowed)
    seed = int(_require(raw, "seed", int, "config"))
    if seed < 0:
        raise ConfigError("seed must be nonnegative")
    # Joining an absolute path keeps it as it is.
    sensor_csv = _require(raw, "sensor_csv", str, "config")
    if not (path.parent / sensor_csv).is_file():
        raise ConfigError(f"sensor_csv does not exist: {sensor_csv}")
    image_manifest = _optional(raw, "image_manifest", str, "config", None)
    if image_manifest is not None and not (path.parent / image_manifest).is_file():
        raise ConfigError(f"image_manifest does not exist: {image_manifest}")

    locations_raw = _optional(raw, "sensor_locations", dict, "config", {})
    locations: dict[str, tuple[float, float]] = {}
    for sid, xy in locations_raw.items():
        if not (isinstance(xy, list) and len(xy) == 2 and all(type(c) in (int, float) for c in xy)):
            raise ConfigError(f"sensor_locations['{sid}'] must be [x, y]")
        locations[str(sid)] = (float(xy[0]), float(xy[1]))

    depths_raw = _optional(raw, "depths_cm", list, "config", None)
    depths: tuple[int, ...] | None = None
    if depths_raw is not None:
        if not depths_raw or not all(isinstance(d, int) and not isinstance(d, bool) for d in depths_raw):
            raise ConfigError("depths_cm must be a nonempty list of integers")
        depths = tuple(sorted(set(depths_raw)))

    horizon = int(_optional(raw, "horizon_days", int, "config", DEFAULT_HORIZON))
    if horizon < 1:
        raise ConfigError("horizon_days must be >= 1")
    test_fraction = float(_optional(raw, "test_fraction", (int, float), "config", 0.2))
    if not (0.0 < test_fraction < 1.0):
        raise ConfigError("test_fraction must be in (0, 1)")
    max_gap = int(_optional(raw, "max_gap_days", int, "config", DEFAULT_MAX_GAP))
    if max_gap < 0:
        raise ConfigError("max_gap_days must be >= 0")
    forecast_day = int(_optional(raw, "forecast_day", int, "config", horizon))
    if not (1 <= forecast_day <= horizon):
        raise ConfigError(f"forecast_day must be in 1..{horizon}")

    index_kind = str(_optional(raw, "index_kind", str, "config", "NDVI"))
    if index_kind not in vegindex.INDEX_KINDS:
        raise ConfigError(f"index_kind must be one of {vegindex.INDEX_KINDS}")
    band_raw = _optional(raw, "band_mapping", dict, "config", dict(_DEFAULT_BAND_MAPPING))
    _reject_unknown("band_mapping", band_raw, {"red", "nir", "swir"})
    band_mapping = {k: _require(band_raw, k, str, "band_mapping") for k in band_raw}
    needed = {"red", "nir"} if index_kind == "NDVI" else {"nir", "swir"}
    missing = sorted(needed - set(band_mapping))
    if missing:
        raise ConfigError(f"band_mapping for {index_kind} needs key(s): {', '.join(missing)}")

    sections = {}
    for section, (cls, default) in _SECTIONS.items():
        given = _optional(raw, section, dict, "config", None)
        sections[section] = default if given is None else _parse_section(section, given, cls, default)

    return RunConfig(
        seed=seed,
        sensor_csv=path.parent / sensor_csv,
        image_manifest=None if image_manifest is None else path.parent / image_manifest,
        output_dir=path.parent / _optional(raw, "output_dir", str, "config", "out"),
        sensor_locations=locations,
        depths_cm=depths,
        horizon_days=horizon,
        test_fraction=test_fraction,
        max_gap_days=max_gap,
        forecast_day=forecast_day,
        index_kind=index_kind,
        band_mapping=band_mapping,
        **sections,
    )


def _derive_seed(master: int, *parts: int) -> int:
    return int(np.random.SeedSequence((master, *parts)).generate_state(1)[0])


# -- soil stage -------------------------------------------------------------------

def _usable_series(
    groups: Mapping[tuple[str, int], timeseries.SensorTable], sensor_ids: list[str], depth: int, max_gap: int
) -> dict[str, np.ndarray]:
    """Each sensor's (T, 4) daily features at `depth`, in `sensor_ids`
    order, skipping sensors whose rows build no series."""
    series = {}
    for sid in sensor_ids:
        group = groups.get((sid, depth))
        if group is None:
            continue
        try:
            series[sid] = timeseries.build_series(group, sid, depth, max_gap=max_gap)
        except DataError:
            continue
    return series


@dataclass(frozen=True)
class _SoilTask:
    """One depth's work in a worker, as the parent ships it.

    `series` holds each usable sensor's (T, 4) daily features in original
    units, in sensor order, and `cuts` its (n_fit, n_train): the sensor's
    windows 0..n_fit-1 fit, n_fit..n_train-1 validate and the rest test.
    """

    depth_cm: int
    scaler: Scaler
    input_length: int
    horizon: int
    series: dict[str, np.ndarray]
    cuts: dict[str, tuple[int, int]]

    @property
    def n_fit(self) -> int:
        return sum(n_fit for n_fit, _ in self.cuts.values())

    def windows(self) -> tuple[WindowSet, WindowSet | None, WindowSet]:
        """The fit, val (None when empty) and test windows, each split
        joined across sensors in sensor order: fit and val from the scaled
        days they cover, test in original units. The fit windows are float32,
        the dtype `lstm.train` trains in, so no float64 copy of them is
        held while it trains."""
        parts: list[list] = [[], [], []]
        length, horizon = self.input_length, self.horizon
        for sid, features in self.series.items():
            n_fit, n_train = self.cuts[sid]
            stop = n_train + length + horizon - 1  # the train windows cover days [0, stop)
            inputs, targets = timeseries.make_windows(self.scaler.apply(features[:stop]), length, horizon)
            parts[0].append((inputs[:n_fit], targets[:n_fit]))
            parts[1].append((inputs[n_fit:], targets[n_fit:]))
            parts[2].append(timeseries.make_windows(features[n_train:], length, horizon))
        test = WindowSet(*map(np.concatenate, zip(*parts.pop())))  # test's parts own their arrays: freed here
        fit, val = (
            WindowSet(*(np.concatenate(arrays, dtype=dtype) for arrays in zip(*part)))
            for part, dtype in zip(parts, (np.float32, np.float64))
        )
        return fit, val if val.n_samples else None, test

    def finish(self, model: Seq2SeqModel, test: WindowSet) -> tuple[Seq2SeqModel, DepthResult]:
        """The trained model and its figures: test RMSE, persistence RMSE (each
        window's last moisture held over the horizon), every sensor's forecast."""
        targets = test.targets[:, :, 0]
        persistence = np.repeat(test.inputs[:, -1, :1], self.horizon, axis=1)
        tails = {sid: features[-self.input_length :] for sid, features in self.series.items()}
        result = DepthResult(
            depth_cm=self.depth_cm,
            test_rmse=lstm.rmse(lstm.predict_batch(model, test.inputs), targets),
            persistence_rmse=lstm.rmse(persistence, targets),
            n_train_windows=sum(n_train for _, n_train in self.cuts.values()),
            n_test_windows=test.n_samples,
            forecasts=forecast_sensors(model, tails),
        )
        return model, result


def _prepare_depth(
    groups: Mapping[tuple[str, int], timeseries.SensorTable], sensor_ids: list[str], depth: int, config: RunConfig
) -> _SoilTask:
    """The depth's task: each sensor's windows split in time order, first
    n_fit fit, then n_val val, then the rest test; the splits are checked
    here, before any worker starts. The scaler is fitted on the days the
    train windows (fit and val) cover."""
    length = config.soil_model.input_length
    horizon = config.horizon_days
    series = _usable_series(groups, sensor_ids, depth, config.max_gap_days)
    if not series:
        raise DataError(f"no usable sensor series at depth {depth}")

    cuts = {}  # per sensor: (n_fit, n_train); windows n_fit..n_train are val
    for sid, features in series.items():
        n_windows = len(features) - length - horizon + 1
        if n_windows < 2:
            raise EmptySplitError(
                f"sensor {sid} depth {depth}: {len(features)} days give {max(n_windows, 0)} windows; need >= 2"
            )
        n_train = int(np.floor(n_windows * (1.0 - config.test_fraction)))
        if n_train < 1 or n_train >= n_windows:
            raise EmptySplitError(f"test_fraction {config.test_fraction} leaves an empty split at depth {depth}")
        n_val = max(1, int(np.floor(n_train * _VAL_FRACTION))) if n_train > 1 else 0  # a single train window fits, none validates
        cuts[sid] = (n_train - n_val, n_train)
    scaler = timeseries.fit_scaler_pooled(
        [features[: cuts[sid][1] + length + horizon - 1] for sid, features in series.items()]
    )
    return _SoilTask(depth, scaler, length, horizon, series, cuts)


def _usable_cores() -> int:
    """CPUs this process may run on: its affinity mask, not the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextlib.contextmanager
def _single_threaded_blas():
    """Processes started inside the block run BLAS on one thread.

    The training pool may start more processes than there are cores (see
    `_pool_size`); a multi-threaded BLAS in each would multiply that
    oversubscription by its thread count. BLAS results at wide layers also
    depend on its thread count, so pinning it keeps trained bytes
    independent of the host. The parent's environment is restored on exit.
    """
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


# One model's whole work: its stage, the initial model's shape, the parts
# its seeds are derived from, the task the worker cuts its windows from and
# finishes with, and `lstm.train`'s config. The worker builds the model.
_TrainJob = tuple[str, ModelShape, tuple[int, ...], "_SoilTask | _IndexTask", TrainConfig]


def _run_job(shape: ModelShape, seed_parts: tuple[int, ...], task: _SoilTask | _IndexTask, train_config: TrainConfig):
    """One job, run in the worker: the task's windows, the model built and
    trained on them, and the task's outcome, which holds that model.

    The init seed is derived from `seed_parts` + (0,) and the training seed
    from `seed_parts` + (1,) here, not in the parent: `np.random`, which
    derives them, costs ~5 MiB to import, and only a worker draws numbers."""
    fit, val, test = task.windows()
    init_seed, train_seed = (_derive_seed(*seed_parts, k) for k in (0, 1))
    # Unnamed, the initial model dies once `train` has made its float32 copy.
    model = lstm.train(lstm.init_params(shape, init_seed, task.scaler), fit, val, train_config, train_seed)[0]
    del fit, val  # the task handed them over: freed before scoring
    return task.finish(model, test)


def _job_cost(job: _TrainJob) -> int:
    """A job's training work from its shapes: fit windows x epochs x the
    gate GEMM work of one window, L encoder steps of 4ne(ne + d) and H
    decoder steps of 4nd(nd + ne)."""
    _, s, _, task, train_config = job
    encoder = task.input_length * 4 * s.encoder_hidden * (s.encoder_hidden + s.input_dim)
    decoder = s.horizon * 4 * s.decoder_hidden * (s.decoder_hidden + s.encoder_hidden)
    return task.n_fit * train_config.epochs * (encoder + decoder)


def _pool_size(costs: list[float], cores: int) -> int:
    """Workers for training jobs of estimated `costs` on `cores` usable cores.

    A job is big when it costs at least half the largest job. The big jobs
    get one worker per core, plus one per big job of a partial last round:
    those time-share the cores with a full round, so no core idles until
    the end (McNaughton 1959: preemption reaches max(p_max, sum(p) / m)).
    Whole rounds stay at one worker per core, since time-sharing there
    only adds switching cost. Small jobs start no worker of their own;
    they queue behind the big ones, and the pool never has fewer than
    min(jobs, cores) workers. On 2 cores, 3 soil depths and the index
    model (0.16 of a depth) start 3 workers; 4 equal jobs start 2.
    """
    big = sum(cost >= max(costs) / 2 for cost in costs)
    return max(min(len(costs), cores), min(big, cores + big % cores))


def _train_all(jobs: list[_TrainJob]) -> list:
    """`_run_job` on every job in spawned workers, `_pool_size` of them.

    The pool is sized from the jobs' estimated costs (`_job_cost`): the
    big jobs share the cores and the small ones queue behind them. Each
    worker cuts its job's windows, builds its float64 initial model, which
    dies once `lstm.train` has made its float32 copy, and scores and
    forecasts with the trained model, so the parent runs no LSTM pass.
    The outcomes, each holding its trained model, come back in job order.
    Jobs are handed out in order as workers free up; after the first failure
    no further job starts, the running ones finish, and the earliest
    job's failure is raised, as a serial loop would raise it, wrapped in
    a StageError naming its stage.
    """
    if not jobs:
        return []
    import multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    workers = _pool_size([_job_cost(job) for job in jobs], _usable_cores())
    spawn = multiprocessing.get_context("spawn")
    futures = []
    with _single_threaded_blas(), ProcessPoolExecutor(workers, mp_context=spawn) as pool:
        running = set()
        for job in jobs:
            if len(running) == workers:
                done, running = wait(running, return_when=FIRST_COMPLETED)
                if any(future.exception() is not None for future in done):
                    break
            futures.append(pool.submit(_run_job, *job[1:]))
            running.add(futures[-1])
    # Leaving the pool waited for every started job; the started ones are
    # a prefix of `jobs`, so the first failure met here is the earliest.
    outcomes = []
    for (stage, *_), future in zip(jobs, futures):
        try:
            outcomes.append(future.result())
        except Exception as e:
            raise StageError(stage, e) from e
    return outcomes


def forecast_sensors(model: Seq2SeqModel, tails: dict[str, np.ndarray]) -> dict[str, tuple[float, ...]]:
    """One depth's forecasts from every sensor's (L, 4) tail in original units.

    Returns per-sensor horizon forecasts in original units, clipped to
    the physical moisture range [0, 100], keyed in sorted sensor order.
    """
    sensor_ids = sorted(tails)
    preds = np.clip(lstm.predict_batch(model, np.stack([tails[sid] for sid in sensor_ids])), 0.0, 100.0)
    return {sid: tuple(float(v) for v in row) for sid, row in zip(sensor_ids, preds)}


def _soil_shape(config: RunConfig) -> ModelShape:
    """The shape of every soil model the config trains or forecasts with."""
    m = config.soil_model
    n_features = len(timeseries.FEATURE_NAMES)
    return ModelShape(n_features, m.encoder_hidden, m.decoder_hidden, m.dense_hidden, config.horizon_days)


def _soil_stage(table: timeseries.SensorTable, config: RunConfig) -> list[_TrainJob]:
    """Every depth's job, in depth order; a depth whose data cannot split
    raises here, before any worker starts."""
    groups = timeseries.group_records(table)
    sensor_ids = sorted({sid for sid, _ in groups})
    depths = config.depths_cm or tuple(sorted({depth for _, depth in groups}))
    shape = _soil_shape(config)
    jobs: list[_TrainJob] = []
    for depth in depths:
        task = _prepare_depth(groups, sensor_ids, depth, config)
        jobs.append(("soil", shape, (config.seed, 11, task.depth_cm), task, config.soil_train))
    return jobs


def run_soil_stage(table: timeseries.SensorTable, config: RunConfig) -> list[tuple[Seq2SeqModel, DepthResult]]:
    """Train, evaluate, and forecast one model per depth.

    The splits are checked and the series scaled here in depth order;
    each depth's worker cuts its windows, trains, scores the test split
    and forecasts every sensor.

    Returns (trained model, result) per depth, in depth order; a result
    holds the depth's metrics and per-sensor forecasts, clipped to the
    physical moisture range.
    """
    return _train_all(_soil_stage(table, config))


def forecast_from_checkpoints(config: RunConfig, ckpt_dir: Path) -> dict[int, dict[str, tuple[float, ...]]]:
    """Forecasts at every sensor from the soil checkpoints under `ckpt_dir`.

    Each checkpoint carries its depth's scaler; sensors without a usable
    series at a depth are skipped, as in training. A checkpoint whose shape
    is not the config's soil shape is refused as bad data.
    """
    checkpoints = sorted(ckpt_dir.glob("soil_depth_*.ckpt"))
    if not checkpoints:
        raise DataError(f"no soil checkpoints under {ckpt_dir}; run train-soil first")
    groups = timeseries.group_records(timeseries.load_sensor_csv(config.sensor_csv))
    sensor_ids = sorted({sid for sid, _ in groups})
    length = config.soil_model.input_length
    shape = _soil_shape(config)
    table: dict[int, dict[str, tuple[float, ...]]] = {}
    for ckpt in checkpoints:
        try:
            depth = int(ckpt.stem.removeprefix("soil_depth_"))
        except ValueError:
            raise DataError(f"checkpoint {ckpt.name} names no integer depth") from None
        model = lstm.load_model(ckpt)
        if model.shape != shape:
            raise DataError(f"checkpoint {ckpt.name} has {model.shape}, but the config gives {shape}")
        if model.scaler is None:
            raise DataError(f"checkpoint {ckpt.name} carries no scaler")
        tails: dict[str, np.ndarray] = {}
        for sid, features in _usable_series(groups, sensor_ids, depth, config.max_gap_days).items():
            if len(features) < length:
                raise DataError(f"sensor {sid} depth {depth}: {len(features)} days < input window {length}")
            tails[sid] = features[-length:]
        if not tails:
            raise DataError(f"no sensor has data at depth {depth}")
        table[depth] = forecast_sensors(model, tails)
    return table


# -- index stage ------------------------------------------------------------------

def _split_by_run(windows: WindowSet, run_ids: np.ndarray, test_fraction: float):
    """(fit, val, test): the leading runs fit, the last training run
    validates when there are two or more, the rest is test. Each split is
    cut once, by its own mask."""
    runs = np.unique(run_ids)
    n_train_runs = int(np.floor(len(runs) * (1.0 - test_fraction)))
    if n_train_runs < 1 or n_train_runs >= len(runs):
        raise EmptySplitError(
            f"{len(runs)} window runs cannot split with test_fraction {test_fraction}"
        )
    n_fit_runs = max(n_train_runs - 1, 1)

    def cut(mask: np.ndarray) -> WindowSet:
        return WindowSet(windows.inputs[mask], windows.targets[mask])

    fit = cut(run_ids < runs[n_fit_runs])
    val = cut(run_ids == runs[n_fit_runs]) if n_fit_runs < n_train_runs else None
    return fit, val, cut(run_ids >= runs[n_train_runs])


@dataclass(eq=False)
class _IndexTask:
    """The pixel model's work in a worker: its scaled fit and val windows,
    its test windows in index units, the forecast date's (P, 5, 2) pixel
    windows with their (H, W) validity mask, and the forecast date.

    `windows` hands the fit and val windows over and keeps no reference to
    them, so they are freed once the model has trained, as a soil task's are.
    """

    scaler: Scaler
    fit: WindowSet | None
    val: WindowSet | None
    test: WindowSet
    pixels: np.ndarray
    mask: np.ndarray
    forecast_target: str
    input_length: ClassVar[int] = vegindex.INPUT_WINDOW
    n_fit: int = dataclasses.field(init=False)
    n_train: int = dataclasses.field(init=False)

    def __post_init__(self):
        self.n_fit = self.fit.n_samples
        self.n_train = self.n_fit + (0 if self.val is None else self.val.n_samples)

    def windows(self) -> tuple[WindowSet, WindowSet | None, WindowSet]:
        fit, val, self.fit, self.val = self.fit, self.val, None, None
        return fit, val, self.test

    def finish(self, model: Seq2SeqModel, test: WindowSet) -> tuple[Seq2SeqModel, IndexResult, np.ndarray]:
        """The trained model, its metrics on the test windows, with
        predictions clipped to [-1, 1], and the (H, W) forecast index,
        `vegindex.DEFAULT_NODATA` where the mask is false."""
        preds = np.clip(lstm.predict_batch(model, test.inputs)[:, 0], -1.0, 1.0)
        targets = test.targets[:, 0, 0]
        result = IndexResult(
            test_rmse=lstm.rmse(preds, targets),
            test_mae=lstm.mae(preds, targets),
            persistence_rmse=lstm.rmse(test.inputs[:, -1, 0], targets),
            n_train_windows=self.n_train,
            n_test_windows=test.n_samples,
            forecast_target=self.forecast_target,
        )
        forecast = vegindex.predict_pixels(model, self.pixels, self.mask.reshape(-1))
        return model, result, forecast.reshape(self.mask.shape)


def _index_stage(stack: vegindex.IndexStack, config: RunConfig) -> _TrainJob:
    """The pixel model's job: train on the leading runs of windows, score
    on the held-out ones and forecast the index image."""
    fit, val, test = _split_by_run(*vegindex.stack_windows_for_training(stack), config.test_fraction)
    scaler = timeseries.fit_scaler_pooled([fit.inputs.reshape(-1, fit.input_dim)])
    fit = WindowSet(scaler.apply(fit.inputs), scaler.apply_feature(fit.targets, 0))
    if val is not None:
        val = WindowSet(scaler.apply(val.inputs), scaler.apply_feature(val.targets, 0))
    target_date = stack.dates[-1] + timedelta(days=config.forecast_day)
    pixels, mask = vegindex.flatten_stack(stack, target_date)

    m = config.index_model
    shape = ModelShape(2, m.encoder_hidden, m.decoder_hidden, m.dense_hidden, horizon=1)
    task = _IndexTask(scaler, fit, val, test, pixels, mask.reshape(stack.values.shape[1:]), target_date.isoformat())
    return ("index", shape, (config.seed, 22), task, config.index_train)


def run_index_stage(stack: vegindex.IndexStack, config: RunConfig) -> tuple[Seq2SeqModel, IndexResult, np.ndarray]:
    """Train the shared pixel model, evaluate on held-out runs, forecast.

    The model trains, is scored and predicts the image's pixels in one
    spawned worker, as every model does. The forecast target date is the
    last image date plus the configured forecast day. The forecast is an
    (H, W) index array that reuses the stack's validity mask: a pixel
    missing from any of the last 5 images is `vegindex.DEFAULT_NODATA`.
    """
    return _train_all([_index_stage(stack, config)])[0]


# -- kriging stage ----------------------------------------------------------------

def check_forecast_day(config: RunConfig, day: int | None) -> int:
    """The day to interpolate: `day`, or the config's when None, within the horizon."""
    day = config.forecast_day if day is None else day
    if not (1 <= day <= config.horizon_days):
        raise ConfigError(f"forecast day must be in 1..{config.horizon_days}")
    return day


def read_forecasts(path: Path, day: int) -> dict[int, dict[str, tuple[float, ...]]]:
    """The forecast table `write_forecasts` saved: per depth (at least
    one), per sensor, a list of at least `day` finite JSON numbers. Anything
    else is refused by file name, and an entry that is not a finite number
    (NaN, Infinity, a bool, a string) by its sensor and depth too."""
    if not path.is_file():
        raise DataError(f"{path} not found; run forecast first")
    try:
        table = {int(depth): per_sensor for depth, per_sensor in json.loads(path.read_text(encoding="utf-8")).items()}
        for depth, per_sensor in table.items():
            for sid, curve in per_sensor.items():
                if not isinstance(curve, list) or len(curve) < day:
                    raise DataError(f"{path}: forecast for {sid} at depth {depth} is not a list of >= {day} days")
                bad = [v for v in curve if type(v) not in (int, float) or not math.isfinite(v)]
                if bad:
                    raise DataError(
                        f"{path}: forecast for {sid} at depth {depth} holds {json.dumps(bad[0])}, not a finite number"
                    )
                per_sensor[sid] = tuple(float(v) for v in curve)
    except (ValueError, TypeError, AttributeError, OverflowError) as exc:  # JSONDecodeError is a ValueError
        raise DataError(f"{path} is not a forecast table: {exc}") from None
    if not table:
        raise DataError(f"{path} holds no depth")
    return table


def run_kriging_stage(
    forecast_table: dict[int, dict[str, tuple[float, ...]]],
    config: RunConfig,
    forecast_day: int,
) -> tuple[kriging.MoistureVolume, dict[int, tuple[float | None, Variogram, int]]]:
    """Krige the chosen forecast day at every depth into a volume.

    Sensors without a configured location are skipped by name in the
    error message when none remain. A configured variogram override is
    used verbatim, and maps a depth with 2 located sensors or constant
    forecasts with LOO score None; otherwise `kriging.fit_variogram`
    chooses one by LOO from the depth's samples, which needs 3 located
    sensors not all equal in value. Each depth builds one model for its
    LOO score and its grid. Depths whose located sensors are the same share
    one `kriging.SampleLayout`: its distances and each range's
    eigendecomposition are computed once for all of them. A refusal names
    its depth.
    """
    depths = tuple(sorted(forecast_table))
    values_by_depth, variance_by_depth = [], []
    stats: dict[int, tuple[float | None, Variogram, int]] = {}
    layouts: dict[tuple[str, ...], kriging.SampleLayout] = {}
    for depth in depths:
        forecasts = forecast_table[depth]
        located = tuple(sid for sid in sorted(forecasts) if sid in config.sensor_locations)
        if not located:
            known = ", ".join(sorted(config.sensor_locations)) or "(none)"
            raise DataError(
                f"no sensor at depth {depth} has a configured location; locations exist for: {known}"
            )
        values = np.array([forecasts[sid][forecast_day - 1] for sid in located])
        variogram = config.variogram
        try:
            if located not in layouts:  # made in the try, so two sensors at one location name the depth
                layouts[located] = kriging.SampleLayout([config.sensor_locations[sid] for sid in located])
            layout = layouts[located]
            if variogram is None:
                variogram = kriging.fit_variogram(layout, values)
            model = kriging.build_model(layout, values, variogram)
        except (DataError, FactorizationError) as e:  # shared locations, too few or constant samples, ill-conditioned
            raise type(e)(f"depth {depth} cm: {e}") from e
        try:
            score = kriging.loo_score(model)
        except DataError:  # fewer than 3 samples, or constant values
            score = None
        mapped, variance = kriging.interpolate_grid(model, config.grid)
        values_by_depth.append(mapped)
        variance_by_depth.append(variance)
        stats[depth] = (score, variogram, len(located))
    volume = kriging.MoistureVolume(depths, config.grid, np.stack(values_by_depth), np.stack(variance_by_depth))
    return volume, stats


# -- staged outputs ---------------------------------------------------------------

def _promote_partial(partial: Path, out_dir: Path) -> None:
    # Merge, don't clobber: stages share directories (train-soil and
    # train-index both promote into checkpoints/).
    for child in sorted(partial.iterdir()):
        target = out_dir / child.name
        if child.is_dir() and target.is_dir():
            _promote_partial(child, target)
            continue
        if target.is_dir():
            shutil.rmtree(target)
        elif target.exists():
            target.unlink()
        child.replace(target)
    partial.rmdir()


@contextlib.contextmanager
def staged(out_dir: Path):
    """Yield a fresh `<out>/.partial`; promote it into `out_dir` when the block succeeds.

    When the block raises, `.partial` stays behind as quarantine and no
    file already under `out_dir` changes.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    partial = out_dir / ".partial"
    if partial.exists():
        shutil.rmtree(partial)
    partial.mkdir()
    yield partial
    _promote_partial(partial, out_dir)


# Each writer puts one stage's files under `root` and returns their
# report artifact names with paths relative to `root`.

def _write_json(root: Path, name: str, payload: dict) -> str:
    """`payload` as `root/name`; NumericError naming the file, which is
    not written, when a number in it is not finite."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as e:
        raise NumericError(f"{name} would hold a non-finite number: {e}") from e
    (root / name).write_text(text + "\n", encoding="utf-8")
    return name


def write_soil(root: Path, outcomes: list[tuple[Seq2SeqModel, DepthResult]]) -> dict[str, str]:
    """One checkpoint per depth plus soil_metrics.json."""
    (root / "checkpoints").mkdir(exist_ok=True)
    artifacts = {}
    for model, result in outcomes:
        rel = f"checkpoints/soil_depth_{result.depth_cm:03d}.ckpt"
        lstm.save_model(model, root / rel)
        artifacts[f"checkpoint_soil_{result.depth_cm}"] = rel
    metrics = {str(result.depth_cm): result.metrics() for _, result in outcomes}
    artifacts["soil_metrics"] = _write_json(root, "soil_metrics.json", metrics)
    return artifacts


def write_index(
    root: Path, model: Seq2SeqModel, result: IndexResult, forecast: np.ndarray, index_kind: str
) -> dict[str, str]:
    """index.ckpt, index_metrics.json and the (H, W) forecast index as
    BandGrid and PGM; the BandGrid's one band is named `index_kind`."""
    (root / "checkpoints").mkdir(exist_ok=True)
    lstm.save_model(model, root / "checkpoints" / "index.ckpt")
    grid = vegindex.BandGrid(
        width=forecast.shape[1],
        height=forecast.shape[0],
        nodata=vegindex.DEFAULT_NODATA,
        band_names=(index_kind,),
        data=forecast[None, :, :].astype(np.float32),
    )
    vegindex.write_bandgrid(grid, root / "index_forecast.bgrid")
    vegindex.write_pgm(forecast, root / "index_forecast.pgm")
    return {
        "checkpoint_index": "checkpoints/index.ckpt",
        "index_metrics": _write_json(root, "index_metrics.json", dataclasses.asdict(result)),
        "index_forecast": "index_forecast.bgrid",
    }


def write_forecasts(root: Path, table: dict[int, dict[str, tuple[float, ...]]]) -> dict[str, str]:
    """forecasts.json: per depth, per sensor, the horizon forecast curve."""
    return {"forecasts": _write_json(root, "forecasts.json", {str(d): t for d, t in table.items()})}


def write_volume(root: Path, volume: kriging.MoistureVolume) -> dict[str, str]:
    """volume/ (one grid per depth plus a manifest) and grid.csv."""
    kriging.export_volume(volume, root / "volume")
    kriging.export_grid_csv(volume, root / "grid.csv")
    return {"volume_manifest": "volume/manifest.csv", "grid_csv": "grid.csv"}


# -- orchestration ----------------------------------------------------------------

def run_forecast(config: RunConfig, forecast_day: int | None = None) -> ForecastReport:
    """Execute every stage and write its outputs plus report.json under
    `config.output_dir`.

    The outputs are those of the four stage commands, written by the
    same writers inside one `staged` block, so a failed run leaves no
    new file outside the `.partial` quarantine. The soil and index
    models train in one `_train_all` pool. Identical (config, seed,
    inputs) produce byte-identical outputs.
    """
    day = check_forecast_day(config, forecast_day)

    def stage(name, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except StageError:
            raise
        except Exception as e:
            raise StageError(name, e) from e

    with staged(config.output_dir) as partial:
        table = stage("load", timeseries.load_sensor_csv, config.sensor_csv)
        stack = None
        if config.image_manifest is not None:
            stack = stage(
                "load", vegindex.load_index_stack, config.image_manifest, config.index_kind, config.band_mapping
            )
        # One pool trains every model: the soil depths, then the index model.
        soil_jobs = stage("soil", _soil_stage, table, config)
        index_jobs = [] if stack is None else [stage("index", _index_stage, stack, config)]
        outcomes = stage("soil", _train_all, soil_jobs + index_jobs)  # a failed job raises its own stage's error
        soil, index = outcomes[: len(soil_jobs)], outcomes[-1] if index_jobs else None
        forecast_table = {result.depth_cm: result.forecasts for _, result in soil}
        volume, kriging_stats = stage("kriging", run_kriging_stage, forecast_table, config, day)

        artifacts = stage("export", write_soil, partial, soil)
        if index is not None:
            artifacts.update(stage("export", write_index, partial, *index, config.index_kind))
        artifacts.update(stage("export", write_forecasts, partial, forecast_table))
        artifacts.update(stage("export", write_volume, partial, volume))
        artifacts["report"] = "report.json"
        report = ForecastReport(
            seed=config.seed,
            forecast_day=day,
            depths=tuple(result for _, result in soil),
            kriging=kriging_stats,
            index=None if index is None else index[1],
            artifacts=artifacts,
        )
        stage("export", lambda: _write_json(partial, "report.json", report.to_dict()))
    return report


# -- gradient-check command ---------------------------------------------------------

def cmd_gradcheck(seed: int = 0, corrupt: bool = False) -> dict:
    """Finite-difference audit of both toy architectures.

    Both toys are their production shapes scaled down; the soil toy's
    6-day input and 3-day horizon give both layers multi-step
    backpropagation through time. Probe targets sit near the model's own
    predictions so central differences stay clear of cancellation noise.
    `corrupt` doubles one analytic gradient entry to prove the check can
    fail. The worst coordinate is reported by tensor, index within it
    and, in a fused LSTM tensor, gate.
    """
    reports = {}
    toys = {"soil": (ModelShape(4, 8, 8, 6, horizon=3), 6), "index": (ModelShape(2, 5, 5, 4, horizon=1), 5)}
    for name, (shape, length) in toys.items():
        rng = np.random.default_rng(np.random.SeedSequence((seed, 33, 1 if name == "soil" else 2)))
        model = lstm.init_params(shape, seed=_derive_seed(seed, 33, shape.encoder_hidden))
        x = rng.normal(0.0, 1.0, size=(length, shape.input_dim))
        preds, _ = lstm.forward_batch(model, x[None, :, :])
        targets = preds[0] + 0.1 * rng.normal(0.0, 1.0, size=preds[0].shape)
        report = lstm.gradient_check(model, (x, targets), corrupt="encoder.w" if corrupt else None)
        reports[name] = dataclasses.asdict(report)
    reports["passed"] = all(reports[k]["passed"] for k in ("soil", "index"))
    return reports
