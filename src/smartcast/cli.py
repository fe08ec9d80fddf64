"""Command-line interface.

Subcommands: synth, train-soil, train-index, forecast, interpolate,
run, gradcheck. Exit codes: 0 success, 2 config error, 3 data error,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import sys
from pathlib import Path

import numpy as np

from . import kriging, lstm, pipeline, timeseries, vegindex
from .errors import ConfigError, DataError, NumericError, SmartcastError, StageError
from .synth import SynthSpec, generate_dataset


def _exit_code(err: Exception) -> int:
    if isinstance(err, StageError):
        return _exit_code(err.cause)
    if isinstance(err, ConfigError):
        return 2
    if isinstance(err, DataError):
        return 3
    if isinstance(err, NumericError):
        return 4
    return 1


def _load_config(args: argparse.Namespace) -> pipeline.RunConfig:
    if not args.config:
        raise ConfigError("--config is required for this command")
    config = pipeline.parse_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.out is not None:
        out = Path(args.out)
        config = dataclasses.replace(
            config,
            output_dir=str(out if out.is_absolute() else Path.cwd() / out),
        )
    return config


def _staged_output(out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    partial = out_dir / ".partial"
    if partial.exists():
        shutil.rmtree(partial)
    partial.mkdir()
    return partial


def _write_json(path: Path, payload: dict) -> None:
    with path.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_synth(args: argparse.Namespace) -> int:
    out = Path(args.out or "synthdata")
    seed = args.seed if args.seed is not None else 0
    config_path = generate_dataset(out, seed, SynthSpec())
    print(f"dataset written under {out}")
    print(f"config: {config_path}")
    return 0


def cmd_train_soil(args: argparse.Namespace) -> int:
    config = _load_config(args)
    records = timeseries.load_sensor_csv(config.sensor_csv_path)
    results, models, forecast_table = pipeline.run_soil_stage(records, config)
    out_dir = config.output_path
    partial = _staged_output(out_dir)
    ckpt_dir = partial / "checkpoints"
    ckpt_dir.mkdir()
    for depth, model in sorted(models.items()):
        lstm.save_model(model, ckpt_dir / f"soil_depth_{depth:03d}.ckpt")
    _write_json(
        partial / "soil_metrics.json",
        {
            str(r.depth_cm): {
                "test_rmse": r.test_rmse,
                "persistence_rmse": r.persistence_rmse,
                "n_train_windows": r.n_train_windows,
                "n_test_windows": r.n_test_windows,
            }
            for r in results
        },
    )
    pipeline._promote_partial(partial, out_dir)
    for r in results:
        print(f"depth {r.depth_cm:3d} cm: test RMSE {r.test_rmse:.4f} vs persistence {r.persistence_rmse:.4f}")
    print(f"checkpoints in {out_dir / 'checkpoints'}")
    return 0


def cmd_train_index(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if config.image_manifest_path is None:
        raise ConfigError("config has no image_manifest; nothing to train on")
    stack = vegindex.load_index_stack(config.image_manifest_path, config.index_kind, config.band_mapping)
    result, model, image = pipeline.run_index_stage(stack, config)
    out_dir = config.output_path
    partial = _staged_output(out_dir)
    ckpt_dir = partial / "checkpoints"
    ckpt_dir.mkdir()
    lstm.save_model(model, ckpt_dir / "index.ckpt")
    _write_json(
        partial / "index_metrics.json",
        {
            "test_rmse": result.test_rmse,
            "test_mae": result.test_mae,
            "persistence_rmse": result.persistence_rmse,
            "n_train_windows": result.n_train_windows,
            "n_test_windows": result.n_test_windows,
            "forecast_target": result.forecast_target,
        },
    )
    grid = vegindex.BandGrid(
        width=image.width,
        height=image.height,
        nodata=image.nodata,
        band_names=(config.index_kind,),
        data=image.values[None, :, :].astype(np.float32),
    )
    vegindex.write_bandgrid(grid, partial / "index_forecast.bgrid")
    vegindex.write_pgm(image.values, partial / "index_forecast.pgm", nodata=image.nodata)
    pipeline._promote_partial(partial, out_dir)
    print(f"index test RMSE {result.test_rmse:.4f} MAE {result.test_mae:.4f} vs persistence {result.persistence_rmse:.4f}")
    print(f"checkpoint in {out_dir / 'checkpoints' / 'index.ckpt'}")
    return 0


def cmd_forecast(args: argparse.Namespace) -> int:
    config = _load_config(args)
    out_dir = config.output_path
    ckpt_dir = out_dir / "checkpoints"
    checkpoints = sorted(ckpt_dir.glob("soil_depth_*.ckpt"))
    if not checkpoints:
        raise DataError(f"no soil checkpoints under {ckpt_dir}; run train-soil first")
    groups = timeseries.group_records(timeseries.load_sensor_csv(config.sensor_csv_path))
    sensor_ids = sorted({sid for sid, _ in groups})
    length = config.soil_model.input_length
    table: dict[str, dict[str, tuple[float, ...]]] = {}
    for ckpt in checkpoints:
        depth = int(ckpt.stem.rsplit("_", 1)[1])
        model = lstm.load_model(ckpt)
        if model.scaler is None:
            raise DataError(f"checkpoint {ckpt.name} carries no scaler")
        tails: dict[str, np.ndarray] = {}
        for sid in sensor_ids:
            try:
                series = timeseries.build_series(
                    groups.get((sid, depth), []), sid, depth, max_gap=config.max_gap_days
                )
            except DataError:
                continue
            if series.length < length:
                raise DataError(
                    f"sensor {sid} depth {depth}: {series.length} days < input window {length}"
                )
            tails[sid] = model.scaler.apply(series.features[-length:])
        if not tails:
            raise DataError(f"no sensor has data at depth {depth}")
        table[str(depth)] = pipeline.forecast_sensors(model, tails)
    partial = _staged_output(out_dir)
    _write_json(partial / "forecasts.json", table)
    pipeline._promote_partial(partial, out_dir)
    print(f"forecasts for {len(table)} depth(s) written to {out_dir / 'forecasts.json'}")
    return 0


def cmd_interpolate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    out_dir = config.output_path
    forecasts_path = out_dir / "forecasts.json"
    if not forecasts_path.is_file():
        raise DataError(f"{forecasts_path} not found; run forecast first")
    raw = json.loads(forecasts_path.read_text(encoding="utf-8"))
    day = args.day if args.day is not None else config.forecast_day
    if not (1 <= day <= config.horizon_days):
        raise ConfigError(f"--day must be in 1..{config.horizon_days}")
    table: dict[int, dict[str, tuple[float, ...]]] = {}
    for depth_str, per_sensor in raw.items():
        depth = int(depth_str)
        table[depth] = {}
        for sid, values in per_sensor.items():
            if len(values) < day:
                raise DataError(f"forecast for {sid} at depth {depth} has {len(values)} < {day} days")
            table[depth][sid] = tuple(float(v) for v in values)
    volume, stats = pipeline.run_kriging_stage(table, config, day)
    partial = _staged_output(out_dir)
    kriging.export_volume(volume, partial / "volume")
    kriging.export_grid_csv(volume, partial / "grid.csv")
    pipeline._promote_partial(partial, out_dir)
    for depth in sorted(stats):
        score, variogram, n = stats[depth]
        shown = "n/a" if score is None else f"{score:.4f}"
        print(f"depth {depth:3d} cm: {n} samples, LOO score {shown}, range {variogram.range_a:.1f}")
    print(f"volume manifest: {out_dir / 'volume' / 'manifest.csv'}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args)
    report, out_dir = pipeline.run_forecast(config, forecast_day=args.day)
    for d in report.depths:
        shown = "n/a" if d.loo_score is None else f"{d.loo_score:.4f}"
        print(
            f"depth {d.depth_cm:3d} cm: test RMSE {d.test_rmse:.4f} "
            f"vs persistence {d.persistence_rmse:.4f}, LOO {shown}"
        )
    if report.index is not None:
        print(
            f"index: test RMSE {report.index.test_rmse:.4f} MAE {report.index.test_mae:.4f} "
            f"vs persistence {report.index.persistence_rmse:.4f}"
        )
    print(f"report: {out_dir / 'report.json'}")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    report = pipeline.cmd_gradcheck(
        seed=args.seed if args.seed is not None else 0,
        corrupt=args.corrupt,
        hidden=args.hidden,
        dense=args.dense,
        length=args.length,
        horizon=args.horizon,
    )
    for name in ("soil", "index"):
        r = report[name]
        status = "PASS" if r["passed"] else "FAIL"
        print(
            f"{name}: {status} max rel error {r['max_rel_error']:.3e} "
            f"at {r['worst_param']} over {r['n_checked']} coordinates (tolerance {r['tolerance']:.1e})"
        )
    if not report["passed"]:
        print("gradient check FAILED", file=sys.stderr)
        return 4
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a JSON run config")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--day", type=int, help="forecast day used for interpolation (1..horizon)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smartcast",
        description="Soil-moisture forecasting, vegetation-index prediction, and kriged moisture volumes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scenario with a ready-to-run config")
    _add_common(p)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train-soil", help="train per-depth soil models and save checkpoints")
    _add_common(p)
    p.set_defaults(fn=cmd_train_soil)

    p = sub.add_parser("train-index", help="train the vegetation-index pixel model")
    _add_common(p)
    p.set_defaults(fn=cmd_train_index)

    p = sub.add_parser("forecast", help="14-day forecasts at every sensor from saved checkpoints")
    _add_common(p)
    p.set_defaults(fn=cmd_forecast)

    p = sub.add_parser("interpolate", help="krige saved forecasts into per-depth grids")
    _add_common(p)
    p.set_defaults(fn=cmd_interpolate)

    p = sub.add_parser("run", help="end-to-end: train, forecast, interpolate, export")
    _add_common(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("gradcheck", help="finite-difference audit of both architectures")
    _add_common(p)
    p.add_argument("--corrupt", action="store_true", help="inject a gradient fault; the check must fail")
    p.add_argument("--hidden", type=int, default=8, help="toy hidden width (soil-shaped model)")
    p.add_argument("--dense", type=int, default=6, help="toy dense width (soil-shaped model)")
    p.add_argument("--length", type=int, default=6, help="toy input length (soil-shaped model)")
    p.add_argument("--horizon", type=int, default=3, help="toy horizon (soil-shaped model)")
    p.set_defaults(fn=cmd_gradcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SmartcastError as e:
        print(f"error: {e}", file=sys.stderr)
        return _exit_code(e)


if __name__ == "__main__":
    sys.exit(main())
