"""End-to-end orchestration: config parsing, staged runs, reports.

A run trains one soil model per depth (windows pooled across sensors,
scaled per depth) and the vegetation-index pixel model, produces 14-day
forecasts at every sensor and a forecast index image, kriges the chosen
forecast day into a per-depth grid stack, and writes all artifacts plus
a JSON report.

Each training stage builds its jobs and a function that finishes the
stage with the trained models. A job is a recipe, not a model: every
model is built and trained in `_train_all`'s spawned workers, and `run`
trains the soil and index models in one pool.

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
from collections.abc import Callable
from dataclasses import dataclass
from datetime import timedelta
from pathlib import Path

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
    """Per-depth training, forecasting, and interpolation outcomes."""

    depth_cm: int
    test_rmse: float
    persistence_rmse: float
    n_train_windows: int
    n_test_windows: int
    forecasts: dict[str, tuple[float, ...]]
    loo_score: float | None
    variogram: Variogram | None
    n_samples: int


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
    """Everything a run produced: metrics per depth, index metrics, artifacts."""

    seed: int
    forecast_day: int
    depths: tuple[DepthResult, ...]
    index: IndexResult | None
    artifacts: dict[str, str]

    def to_dict(self) -> dict:
        """Plain-type payload with every metric checked finite."""

        def finite(name: str, value: float) -> float:
            value = float(value)
            if not np.isfinite(value):
                raise NumericError(f"report metric {name} is not finite: {value}")
            return value

        depths = {}
        for d in self.depths:
            entry = {
                "test_rmse": finite(f"depth {d.depth_cm} test_rmse", d.test_rmse),
                "persistence_rmse": finite(f"depth {d.depth_cm} persistence_rmse", d.persistence_rmse),
                "n_train_windows": d.n_train_windows,
                "n_test_windows": d.n_test_windows,
                "forecasts": {
                    s: [finite(f"forecast {s}@{d.depth_cm}", v) for v in vals]
                    for s, vals in sorted(d.forecasts.items())
                },
                "n_samples": d.n_samples,
                "loo_score": None if d.loo_score is None else finite(f"depth {d.depth_cm} loo", d.loo_score),
                "variogram": None
                if d.variogram is None
                else {k: finite(k, v) for k, v in dataclasses.asdict(d.variogram).items()},
            }
            depths[str(d.depth_cm)] = entry
        index = None if self.index is None else dataclasses.asdict(self.index)
        if index is not None:
            index.update({k: finite(f"index {k}", index[k]) for k in ("test_rmse", "test_mae", "persistence_rmse")})
        return {
            "seed": self.seed,
            "forecast_day": self.forecast_day,
            "soil": {"per_depth": depths},
            "index": index,
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
_KINDS = {"int": (int, int), "float": ((int, float), float), "str": (str, str)}


def _section_fields(cls) -> list[dataclasses.Field]:
    # A training seed is derived from the run seed per stage, never configured.
    return [f for f in dataclasses.fields(cls) if not (cls is TrainConfig and f.name == "seed")]


def _parse_section(section: str, raw: dict, cls, default):
    fields = _section_fields(cls)
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
        if not (isinstance(xy, list) and len(xy) == 2 and all(isinstance(c, (int, float)) for c in xy)):
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
    forecast_day = int(_optional(raw, "forecast_day", int, "config", horizon))
    if not (1 <= forecast_day <= horizon):
        raise ConfigError(f"forecast_day must be in 1..{horizon}")

    index_kind = str(_optional(raw, "index_kind", str, "config", "NDVI"))
    if index_kind not in vegindex.INDEX_KINDS:
        raise ConfigError(f"index_kind must be one of {vegindex.INDEX_KINDS}")
    band_raw = _optional(raw, "band_mapping", dict, "config", dict(_DEFAULT_BAND_MAPPING))
    _reject_unknown("band_mapping", band_raw, {"red", "nir", "swir"})
    band_mapping = {k: str(v) for k, v in band_raw.items()}
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

@dataclass(frozen=True)
class _DepthData:
    """Scaled window splits for one depth, pooled across sensors."""

    depth_cm: int
    scaler: Scaler
    fit: WindowSet
    val: WindowSet | None
    test: WindowSet
    last_inputs: dict[str, np.ndarray]   # per sensor: scaled (L, 4) tail


def _usable_series(
    groups: dict[tuple[str, int], timeseries.SensorTable], sensor_ids: list[str], depth: int, max_gap: int
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


def _prepare_depth(
    groups: dict[tuple[str, int], timeseries.SensorTable], sensor_ids: list[str], depth: int, config: RunConfig
) -> _DepthData:
    """Each sensor's windows split in time order, first n_fit fit, then
    n_val val, then the rest test, and the splits joined across sensors
    in sensor order. The scaler is fitted on the days the train windows
    (fit and val) cover."""
    length = config.soil_model.input_length
    horizon = config.horizon_days
    series = _usable_series(groups, sensor_ids, depth, config.max_gap_days)
    if not series:
        raise DataError(f"no usable sensor series at depth {depth}")

    splits = {}  # per sensor: (n_fit, n_train); windows n_fit..n_train are val
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
        splits[sid] = (n_train - n_val, n_train)
    scaler = timeseries.fit_scaler_pooled(
        [features[: splits[sid][1] + length + horizon - 1] for sid, features in series.items()]
    )

    fit, val, test = [], [], []
    last_inputs: dict[str, np.ndarray] = {}
    for sid, features in series.items():
        scaled = scaler.apply(features)
        inputs, targets = timeseries.make_windows(scaled, input_length=length, horizon=horizon)
        n_fit, n_train = splits[sid]
        fit.append((inputs[:n_fit], targets[:n_fit]))
        val.append((inputs[n_fit:n_train], targets[n_fit:n_train]))
        test.append((inputs[n_train:], targets[n_train:]))
        last_inputs[sid] = scaled[-length:]

    def joined(parts: list[tuple[np.ndarray, np.ndarray]]) -> WindowSet:
        inputs, targets = zip(*parts)
        return WindowSet(np.concatenate(inputs), np.concatenate(targets))

    fit, val, test = joined(fit), joined(val), joined(test)
    return _DepthData(
        depth_cm=depth,
        scaler=scaler,
        fit=fit,
        val=val if val.n_samples else None,
        test=test,
        last_inputs=last_inputs,
    )


def _eval_on_moisture_scale(
    model: Seq2SeqModel, test: WindowSet, scaler: Scaler
) -> tuple[float, float]:
    """(model RMSE, persistence RMSE) on the unscaled moisture scale."""
    preds = lstm.predict_batch(model, test.inputs)
    targets = scaler.invert_feature(test.targets[:, :, 0], 0)
    last = scaler.invert_feature(test.inputs[:, -1, 0], 0)
    persistence = np.repeat(last[:, None], test.horizon, axis=1)
    return lstm.rmse(preds, targets), lstm.rmse(persistence, targets)


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


# A recipe for one model: its stage, the initial model's shape, init seed and
# scaler, then `lstm.train`'s other arguments. The worker builds the model.
_TrainJob = tuple[str, ModelShape, int, Scaler, WindowSet, WindowSet | None, TrainConfig]


def _train_job(shape, init_seed, scaler, fit, val, train_config) -> Seq2SeqModel:
    """One job's model, built and trained in the worker."""
    return lstm.train(lstm.init_params(shape, init_seed, scaler), fit, val, train_config)[0]


def _job_cost(job: _TrainJob) -> int:
    """A job's training work from its shapes: fit windows x epochs x the
    gate GEMM work of one window, L encoder steps of 4ne(ne + d) and H
    decoder steps of 4nd(nd + ne)."""
    _, s, _, _, fit, _, train_config = job
    encoder = fit.input_length * 4 * s.encoder_hidden * (s.encoder_hidden + s.input_dim)
    decoder = s.horizon * 4 * s.decoder_hidden * (s.decoder_hidden + s.encoder_hidden)
    return fit.n_samples * train_config.epochs * (encoder + decoder)


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


def _train_all(jobs: list[_TrainJob]) -> list[Seq2SeqModel]:
    """`_train_job` on every job in spawned workers, `_pool_size` of them.

    The pool is sized from the jobs' estimated costs (`_job_cost`): the
    big jobs share the cores and the small ones queue behind them. Each
    worker builds its job's float64 initial model, which dies once
    `lstm.train` has made its float32 copy, so neither the parent nor a
    pickled job holds one. Trained models come back in job order. Jobs
    are handed out in order as workers free up; after the first failure
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
            futures.append(pool.submit(_train_job, *job[1:]))
            running.add(futures[-1])
    # Leaving the pool waited for every started job; the started ones are
    # a prefix of `jobs`, so the first failure met here is the earliest.
    models = []
    for (stage, *_), future in zip(jobs, futures):
        try:
            models.append(future.result())
        except Exception as e:
            raise StageError(stage, e) from e
    return models


def forecast_sensors(model: Seq2SeqModel, tails: dict[str, np.ndarray]) -> dict[str, tuple[float, ...]]:
    """One depth's forecasts: every sensor's scaled (L, 4) tail in one batch.

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


_SoilOutcome = tuple[list[DepthResult], dict[int, Seq2SeqModel], dict[int, dict[str, tuple[float, ...]]]]


def _soil_stage(
    table: timeseries.SensorTable, config: RunConfig
) -> tuple[list[_TrainJob], Callable[[list[Seq2SeqModel]], _SoilOutcome]]:
    """Every depth's training job, in depth order, and the function that
    evaluates and forecasts with the trained models."""
    groups = timeseries.group_records(table)
    sensor_ids = sorted({sid for sid, _ in groups})
    depths = config.depths_cm or tuple(sorted({depth for _, depth in groups}))
    shape = _soil_shape(config)
    prepared = [_prepare_depth(groups, sensor_ids, depth, config) for depth in depths]
    jobs: list[_TrainJob] = []
    for data in prepared:
        init_seed = _derive_seed(config.seed, 11, data.depth_cm, 0)
        train_config = dataclasses.replace(config.soil_train, seed=_derive_seed(config.seed, 11, data.depth_cm, 1))
        jobs.append(("soil", shape, init_seed, data.scaler, data.fit, data.val, train_config))

    def finish(trained: list[Seq2SeqModel]) -> _SoilOutcome:
        results: list[DepthResult] = []
        models: dict[int, Seq2SeqModel] = {}
        forecast_table: dict[int, dict[str, tuple[float, ...]]] = {}
        for data, model in zip(prepared, trained):
            depth = data.depth_cm
            rmse, persist = _eval_on_moisture_scale(model, data.test, data.scaler)
            forecasts = forecast_sensors(model, data.last_inputs)
            models[depth] = model
            forecast_table[depth] = forecasts
            results.append(
                DepthResult(
                    depth_cm=depth,
                    test_rmse=rmse,
                    persistence_rmse=persist,
                    n_train_windows=data.fit.n_samples + (data.val.n_samples if data.val else 0),
                    n_test_windows=data.test.n_samples,
                    forecasts=forecasts,
                    loo_score=None,
                    variogram=None,
                    n_samples=0,
                )
            )
        return results, models, forecast_table

    return jobs, finish


def run_soil_stage(table: timeseries.SensorTable, config: RunConfig) -> _SoilOutcome:
    """Train, evaluate, and forecast one model per depth.

    Windows are prepared here in depth order, the per-depth models train
    in parallel worker processes, and evaluation and forecasting run
    here again in depth order.

    Returns per-depth results (metrics + per-sensor 14-day forecasts,
    clipped to the physical moisture range), trained models, and the
    forecast table used by the kriging stage.
    """
    jobs, finish = _soil_stage(table, config)
    return finish(_train_all(jobs))


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
        depth = int(ckpt.stem.rsplit("_", 1)[1])
        model = lstm.load_model(ckpt)
        if model.shape != shape:
            raise DataError(f"checkpoint {ckpt.name} has {model.shape}, but the config gives {shape}")
        if model.scaler is None:
            raise DataError(f"checkpoint {ckpt.name} carries no scaler")
        tails: dict[str, np.ndarray] = {}
        for sid, features in _usable_series(groups, sensor_ids, depth, config.max_gap_days).items():
            if len(features) < length:
                raise DataError(f"sensor {sid} depth {depth}: {len(features)} days < input window {length}")
            tails[sid] = model.scaler.apply(features[-length:])
        if not tails:
            raise DataError(f"no sensor has data at depth {depth}")
        table[depth] = forecast_sensors(model, tails)
    return table


# -- index stage ------------------------------------------------------------------

def _split_by_run(windows: WindowSet, run_ids: np.ndarray, test_fraction: float):
    runs = np.unique(run_ids)
    n_train_runs = int(np.floor(len(runs) * (1.0 - test_fraction)))
    if n_train_runs < 1 or n_train_runs >= len(runs):
        raise EmptySplitError(
            f"{len(runs)} window runs cannot split with test_fraction {test_fraction}"
        )
    train_mask = np.isin(run_ids, runs[:n_train_runs])
    train = WindowSet(windows.inputs[train_mask], windows.targets[train_mask])
    test = WindowSet(windows.inputs[~train_mask], windows.targets[~train_mask])
    val = None
    if n_train_runs >= 2:
        last_run = runs[n_train_runs - 1]
        val_mask = run_ids == last_run
        fit_mask = train_mask & ~val_mask
        val = WindowSet(windows.inputs[val_mask], windows.targets[val_mask])
        train = WindowSet(windows.inputs[fit_mask], windows.targets[fit_mask])
    return train, val, test


_IndexOutcome = tuple[IndexResult, Seq2SeqModel, vegindex.IndexImage]


def _index_stage(
    stack: vegindex.ImageStack, config: RunConfig
) -> tuple[_TrainJob, Callable[[Seq2SeqModel], _IndexOutcome]]:
    """The pixel model's training job and the function that tests the
    trained model on held-out runs and forecasts the index image."""
    windows, run_ids = vegindex.stack_windows_for_training(stack)
    fit, val, test = _split_by_run(windows, run_ids, config.test_fraction)
    n_train_windows = fit.n_samples + (val.n_samples if val is not None else 0)
    scaler = timeseries.fit_scaler_pooled([fit.inputs.reshape(-1, fit.input_dim)])
    fit = WindowSet(scaler.apply(fit.inputs), scaler.apply_feature(fit.targets, 0))
    if val is not None:
        val = WindowSet(scaler.apply(val.inputs), scaler.apply_feature(val.targets, 0))

    m = config.index_model
    shape = ModelShape(2, m.encoder_hidden, m.decoder_hidden, m.dense_hidden, horizon=1)
    train_config = dataclasses.replace(config.index_train, seed=_derive_seed(config.seed, 22, 1))
    job: _TrainJob = ("index", shape, _derive_seed(config.seed, 22, 0), scaler, fit, val, train_config)

    def finish(model: Seq2SeqModel) -> _IndexOutcome:
        preds = np.clip(lstm.predict_batch(model, scaler.apply(test.inputs))[:, 0], -1.0, 1.0)
        targets = test.targets[:, 0, 0]
        persistence = test.inputs[:, -1, 0]
        target_date = stack.entries[-1][0] + timedelta(days=config.forecast_day)
        result = IndexResult(
            test_rmse=lstm.rmse(preds, targets),
            test_mae=lstm.mae(preds, targets),
            persistence_rmse=lstm.rmse(persistence, targets),
            n_train_windows=n_train_windows,
            n_test_windows=test.n_samples,
            forecast_target=target_date.isoformat(),
        )
        flat_windows, mask = vegindex.flatten_stack(stack, target_date)
        flat_preds = vegindex.predict_pixels(model, flat_windows, mask)
        image = vegindex.reshape_to_image(flat_preds, stack.width, stack.height, index_kind=config.index_kind)
        return result, model, image

    return job, finish


def run_index_stage(stack: vegindex.ImageStack, config: RunConfig) -> _IndexOutcome:
    """Train the shared pixel model, evaluate on held-out runs, forecast.

    The model trains in one spawned worker, as every model does. The
    forecast target date is the last image date plus the configured
    forecast day; the predicted image reuses the stack's validity mask.
    """
    job, finish = _index_stage(stack, config)
    return finish(_train_all([job])[0])


# -- kriging stage ----------------------------------------------------------------

def check_forecast_day(config: RunConfig, day: int | None) -> int:
    """The day to interpolate: `day`, or the config's when None, within the horizon."""
    day = config.forecast_day if day is None else day
    if not (1 <= day <= config.horizon_days):
        raise ConfigError(f"forecast day must be in 1..{config.horizon_days}")
    return day


def read_forecasts(path: Path, day: int) -> dict[int, dict[str, tuple[float, ...]]]:
    """The forecast table `write_forecasts` saved: per depth (at least
    one), per sensor, a list of at least `day` numbers. Anything else is
    refused by file name."""
    if not path.is_file():
        raise DataError(f"{path} not found; run forecast first")
    try:
        table = {int(depth): per_sensor for depth, per_sensor in json.loads(path.read_text(encoding="utf-8")).items()}
        for depth, per_sensor in table.items():
            for sid, curve in per_sensor.items():
                if not isinstance(curve, list) or len(curve) < day:
                    raise DataError(f"{path}: forecast for {sid} at depth {depth} is not a list of >= {day} days")
                per_sensor[sid] = tuple(float(v) for v in curve)
    except (ValueError, TypeError, AttributeError) as exc:  # JSONDecodeError is a ValueError
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
    LOO score and its grid. A refusal names its depth.
    """
    depths = tuple(sorted(forecast_table))
    values_by_depth, variance_by_depth = [], []
    stats: dict[int, tuple[float | None, Variogram, int]] = {}
    for depth in depths:
        forecasts = forecast_table[depth]
        located = [sid for sid in sorted(forecasts) if sid in config.sensor_locations]
        if not located:
            known = ", ".join(sorted(config.sensor_locations)) or "(none)"
            raise DataError(
                f"no sensor at depth {depth} has a configured location; locations exist for: {known}"
            )
        points = np.array([config.sensor_locations[sid] for sid in located], dtype=np.float64)
        values = np.array([forecasts[sid][forecast_day - 1] for sid in located])
        variogram = config.variogram
        try:
            if variogram is None:
                variogram = kriging.fit_variogram(points, values)
            model = kriging.build_model(points, values, variogram)
        except (DataError, FactorizationError) as e:  # too few or constant samples, or ill-conditioned
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
    with (root / name).open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return name


def write_soil(root: Path, results: list[DepthResult], models: dict[int, Seq2SeqModel]) -> dict[str, str]:
    """One checkpoint per depth plus soil_metrics.json."""
    (root / "checkpoints").mkdir(exist_ok=True)
    artifacts = {}
    for depth, model in sorted(models.items()):
        rel = f"checkpoints/soil_depth_{depth:03d}.ckpt"
        lstm.save_model(model, root / rel)
        artifacts[f"checkpoint_soil_{depth}"] = rel
    metrics = {
        str(r.depth_cm): {
            "test_rmse": r.test_rmse,
            "persistence_rmse": r.persistence_rmse,
            "n_train_windows": r.n_train_windows,
            "n_test_windows": r.n_test_windows,
        }
        for r in results
    }
    artifacts["soil_metrics"] = _write_json(root, "soil_metrics.json", metrics)
    return artifacts


def write_index(
    root: Path, result: IndexResult, model: Seq2SeqModel, image: vegindex.IndexImage
) -> dict[str, str]:
    """index.ckpt, index_metrics.json and the forecast image as BandGrid and PGM."""
    (root / "checkpoints").mkdir(exist_ok=True)
    lstm.save_model(model, root / "checkpoints" / "index.ckpt")
    grid = vegindex.BandGrid(
        width=image.width,
        height=image.height,
        nodata=image.nodata,
        band_names=(image.index_kind,),
        data=image.values[None, :, :].astype(np.float32),
    )
    vegindex.write_bandgrid(grid, root / "index_forecast.bgrid")
    vegindex.write_pgm(image.values, root / "index_forecast.pgm", nodata=image.nodata)
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
        soil_jobs, finish_soil = stage("soil", _soil_stage, table, config)
        index_jobs = []
        if stack is not None:
            index_job, finish_index = stage("index", _index_stage, stack, config)
            index_jobs = [index_job]
        trained = stage("soil", _train_all, soil_jobs + index_jobs)  # a failed job raises its own stage's error
        depth_results, soil_models, forecast_table = stage("soil", finish_soil, trained[: len(soil_jobs)])
        del soil_jobs, finish_soil  # frees the soil windows before the index finish's peak
        index = None if stack is None else stage("index", finish_index, trained[-1])
        volume, kriging_stats = stage("kriging", run_kriging_stage, forecast_table, config, day)

        artifacts = stage("export", write_soil, partial, depth_results, soil_models)
        if index is not None:
            artifacts.update(stage("export", write_index, partial, *index))
        artifacts.update(stage("export", write_forecasts, partial, forecast_table))
        artifacts.update(stage("export", write_volume, partial, volume))
        artifacts["report"] = "report.json"
        merged = [
            dataclasses.replace(
                r,
                loo_score=kriging_stats[r.depth_cm][0],
                variogram=kriging_stats[r.depth_cm][1],
                n_samples=kriging_stats[r.depth_cm][2],
            )
            for r in depth_results
        ]
        report = ForecastReport(
            seed=config.seed,
            forecast_day=day,
            depths=tuple(merged),
            index=None if index is None else index[0],
            artifacts=artifacts,
        )
        stage("export", lambda: _write_json(partial, "report.json", report.to_dict()))
    return report


# -- gradient-check command ---------------------------------------------------------

def cmd_gradcheck(
    seed: int = 0,
    corrupt: bool = False,
    hidden: int = 8,
    dense: int = 6,
    length: int = 6,
    horizon: int = 3,
) -> dict:
    """Finite-difference audit of both toy architectures.

    The soil-shaped toy honors the dimension arguments; the index toy
    is fixed at its production shape scaled down. Probe targets sit
    near the model's own predictions so central differences stay clear
    of cancellation noise. `corrupt` doubles one analytic gradient
    entry to prove the check can fail. The worst coordinate is reported
    by tensor, index within it and, in a fused LSTM tensor, gate.
    """
    reports = {}
    configs = {
        "soil": ModelShape(4, hidden, hidden, dense, horizon=horizon),
        "index": ModelShape(2, 5, 5, 4, horizon=1),
    }
    lengths = {"soil": length, "index": 5}
    for name, shape in configs.items():
        rng = np.random.default_rng(np.random.SeedSequence((seed, 33, 1 if name == "soil" else 2)))
        model = lstm.init_params(shape, seed=_derive_seed(seed, 33, shape.encoder_hidden))
        x = rng.normal(0.0, 1.0, size=(lengths[name], shape.input_dim))
        preds, _ = lstm.forward_batch(model, x[None, :, :])
        targets = preds[0] + 0.1 * rng.normal(0.0, 1.0, size=preds[0].shape)
        report = lstm.gradient_check(model, (x, targets), corrupt="encoder.w" if corrupt else None)
        reports[name] = dataclasses.asdict(report)
    reports["passed"] = all(reports[k]["passed"] for k in ("soil", "index"))
    return reports
