"""Workload definitions: seeded inputs, the CLI commands of one repetition,
the artifacts those commands document, and the quality figures read back
from their outputs.

Every input is generated through `smartcast.synth` from the workload seed;
the program itself only ever sees the generated files.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from smartcast.synth import SynthSpec, generate_dataset, moisture_formula

WORKLOADS = ("demo_run", "field_remap", "paper_soil")

# Sizes. "full" is what the benchmark measures; "tiny" only exercises the
# same code paths quickly for the smoke mode.
FIELD_SENSORS = {"full": 200, "tiny": 12}
FIELD_GRID = {"full": 64, "tiny": 16}
# field_remap's checkpoints are trained once per seed, before timing, on the
# first few sensors of the field: training on all 200 would take ~50 s of
# every run's budget and is not what the workload measures.
FIELD_TRAIN_SENSORS = {"full": 8, "tiny": 4}
FIELD_TRAIN_EPOCHS = {"full": 2, "tiny": 1}
# The paper's soil widths (SoilModelSpec defaults) at ~9 s per epoch; two
# epochs keep one repetition inside the run length.
PAPER_WIDTHS = {"input_length": 30, "encoder_hidden": 200, "decoder_hidden": 200, "dense_hidden": 100}
PAPER_EPOCHS = {"full": 2, "tiny": 1}
TINY_DAYS = 120


@dataclass
class Prepared:
    """Generated inputs of one workload run, ready for repetitions."""

    workload: str
    spec: SynthSpec
    config_path: Path
    config: dict
    commands: list[list[str]]        # smartcast argv per process; "{out}" is the repetition's output dir
    checkpoints: Path | None = None  # copied into every repetition's output dir
    pretrain_s: float | None = None
    quality: dict[str, float] = field(default_factory=dict)  # figures fixed before timing

    @property
    def depths(self) -> list[int]:
        return sorted(self.config["depths_cm"])

    @property
    def sensors(self) -> list[str]:
        return sorted(self.config["sensor_locations"])


def _write_config(path: Path, config: dict) -> None:
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _tiny(**changes) -> SynthSpec:
    base = dict(n_days=TINY_DAYS, n_images=9, image_width=12, image_height=12, cloud_size=4)
    return replace(SynthSpec(), **{**base, **changes})


def prepare(workload: str, seed: int, size: str, work: Path, run_child) -> Prepared:
    """Generate the workload's inputs under `work`.

    `run_child(argv, log_name)` runs one untimed smartcast process and
    returns (exit code, wall seconds); field_remap uses it to train its
    checkpoints once per seed.
    """
    data = work / "data"
    if workload == "demo_run":
        spec = SynthSpec() if size == "full" else _tiny()
        config_path = generate_dataset(data, seed, spec)
        config = json.loads(config_path.read_text(encoding="utf-8"))
        if size == "tiny":
            config["soil_train"]["epochs"] = 2
            config["index_train"]["epochs"] = 2
            _write_config(config_path, config)
        return Prepared(workload, spec, config_path, config, [["run", "--config", str(config_path), "--out", "{out}"]])

    if workload == "paper_soil":
        spec = SynthSpec(n_images=0) if size == "full" else _tiny(n_images=0)
        config_path = generate_dataset(data, seed, spec)
        config = json.loads(config_path.read_text(encoding="utf-8"))
        config["soil_model"] = dict(PAPER_WIDTHS)
        config["soil_train"]["epochs"] = PAPER_EPOCHS[size]
        _write_config(config_path, config)
        return Prepared(workload, spec, config_path, config, [["train-soil", "--config", str(config_path), "--out", "{out}"]])

    if workload == "field_remap":
        rng = np.random.default_rng(np.random.SeedSequence((seed, 7001)))
        n = FIELD_SENSORS[size]
        fractions = tuple((float(fx), float(fy)) for fx, fy in rng.random((n, 2)))
        spec = SynthSpec(
            sensor_fractions=fractions,
            grid_nx=FIELD_GRID[size],
            grid_ny=FIELD_GRID[size],
            n_images=0,
            **({} if size == "full" else {"n_days": TINY_DAYS}),
        )
        config_path = generate_dataset(data, seed, spec)
        config = json.loads(config_path.read_text(encoding="utf-8"))
        del config["variogram"]  # fitted from the forecasts, as a real field would be
        _write_config(config_path, config)

        train_dir = work / "train"
        train_dir.mkdir()
        keep = {f"s{k + 1}" for k in range(FIELD_TRAIN_SENSORS[size])}
        with (data / "sensors.csv").open(newline="", encoding="utf-8") as fi, (train_dir / "sensors.csv").open(
            "w", newline="", encoding="utf-8"
        ) as fo:
            reader, writer = csv.reader(fi), csv.writer(fo)
            writer.writerow(next(reader))
            writer.writerows(row for row in reader if row[1] in keep)
        train_config = dict(config)
        train_config["sensor_locations"] = {k: v for k, v in config["sensor_locations"].items() if k in keep}
        train_config["soil_train"] = dict(config["soil_train"], epochs=FIELD_TRAIN_EPOCHS[size])
        _write_config(train_dir / "config.json", train_config)
        out = train_dir / "out"
        code, seconds = run_child(
            ["train-soil", "--config", str(train_dir / "config.json"), "--out", str(out)], "pretrain"
        )
        if code != 0:
            raise RuntimeError(f"field_remap checkpoint training exited with {code}")
        prepared = Prepared(
            workload,
            spec,
            config_path,
            config,
            [
                ["forecast", "--config", str(config_path), "--out", "{out}"],
                ["interpolate", "--config", str(config_path), "--out", "{out}"],
            ],
            checkpoints=out / "checkpoints",
            pretrain_s=seconds,
        )
        prepared.quality["soil_rmse_ratio"] = soil_ratio_from_metrics(out / "soil_metrics.json")
        return prepared

    raise ValueError(f"unknown workload {workload!r}")


def start_repetition(prepared: Prepared, out: Path) -> None:
    """Fresh output directory holding only what the repetition may start from."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    if prepared.checkpoints is not None:
        shutil.copytree(prepared.checkpoints, out / "checkpoints")


# -- documented artifacts ------------------------------------------------------------

def expected_artifacts(prepared: Prepared) -> list[str]:
    """Relative paths every repetition must leave in its output directory."""
    depths = prepared.depths
    ckpts = [f"checkpoints/soil_depth_{d:03d}.ckpt" for d in depths]
    mapped = ["forecasts.json", "grid.csv", "volume/manifest.csv"]
    for d in depths:
        mapped += [f"volume/depth_{d:03d}.bgrid", f"volume/depth_{d:03d}.pgm", f"volume/depth_{d:03d}.pgm.txt"]
    if prepared.workload == "demo_run":
        extra = ["report.json"]
        if "image_manifest" in prepared.config:
            extra += ["checkpoints/index.ckpt", "index_forecast.bgrid", "index_forecast.pgm"]
        return ckpts + mapped + extra
    if prepared.workload == "paper_soil":
        return ckpts + ["soil_metrics.json"]
    return ckpts + mapped


def deterministic_artifacts(prepared: Prepared, out: Path) -> list[str]:
    """Outputs that must be byte-identical across repetitions of one commit."""
    names = [p.relative_to(out).as_posix() for p in sorted(out.glob("checkpoints/*.ckpt"))]
    names += [p.relative_to(out).as_posix() for p in sorted(out.glob("volume/*.bgrid"))]
    for name in ("forecasts.json", "grid.csv", "report.json", "soil_metrics.json"):
        if (out / name).is_file():
            names.append(name)
    return names


# -- quality figures ----------------------------------------------------------------

def soil_ratio_from_metrics(path: Path) -> float:
    """Mean over depths of test RMSE / persistence RMSE from soil_metrics.json."""
    per_depth = json.loads(path.read_text(encoding="utf-8"))
    return float(np.mean([m["test_rmse"] / m["persistence_rmse"] for m in per_depth.values()]))


def quality(prepared: Prepared, out: Path) -> dict[str, float]:
    """Quality figures of one repetition, read from its outputs only."""
    figures = dict(prepared.quality)
    if prepared.workload == "demo_run":
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        per_depth = report["soil"]["per_depth"].values()
        figures["soil_rmse_ratio"] = float(np.mean([d["test_rmse"] / d["persistence_rmse"] for d in per_depth]))
        if report["index"] is not None:
            figures["index_rmse_ratio"] = report["index"]["test_rmse"] / report["index"]["persistence_rmse"]
    if prepared.workload == "paper_soil":
        figures["soil_rmse_ratio"] = soil_ratio_from_metrics(out / "soil_metrics.json")
    if (out / "grid.csv").is_file():
        figures["map_rmse"] = map_rmse(prepared, out / "grid.csv")
    return figures


def map_rmse(prepared: Prepared, grid_csv: Path) -> float:
    """RMSE of every kriged cell against the scenario's noise-free moisture
    on the interpolated forecast day."""
    day = prepared.spec.n_days - 1 + int(prepared.config["forecast_day"])
    total, count = 0.0, 0
    with grid_csv.open(newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            truth = moisture_formula(prepared.spec, float(row["x"]), float(row["y"]), int(row["depth_cm"]), day)
            total += (float(row["value"]) - truth) ** 2
            count += 1
    if count == 0:
        raise ValueError(f"{grid_csv} holds no cells")
    return math.sqrt(total / count)
