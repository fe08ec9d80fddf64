"""Command-line interface.

Subcommands: synth, train-soil, train-index, forecast, interpolate,
run, gradcheck. Exit codes: 0 success, 2 config error, 3 data error,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import pipeline, timeseries, vegindex
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
        config = dataclasses.replace(config, output_dir=Path.cwd() / args.out)
    return config


def cmd_synth(args: argparse.Namespace) -> int:
    out = Path(args.out or "synthdata")
    seed = args.seed if args.seed is not None else 0
    config_path = generate_dataset(out, seed, SynthSpec())
    print(f"dataset written under {out}")
    print(f"config: {config_path}")
    return 0


def cmd_train_soil(args: argparse.Namespace) -> int:
    config = _load_config(args)
    table = timeseries.load_sensor_csv(config.sensor_csv)
    outcomes = pipeline.run_soil_stage(table, config)
    out_dir = config.output_dir
    with pipeline.staged(out_dir) as partial:
        pipeline.write_soil(partial, outcomes)
    for _, r in outcomes:
        print(f"depth {r.depth_cm:3d} cm: test RMSE {r.test_rmse:.4f} vs persistence {r.persistence_rmse:.4f}")
    print(f"checkpoints in {out_dir / 'checkpoints'}")
    return 0


def cmd_train_index(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if config.image_manifest is None:
        raise ConfigError("config has no image_manifest; nothing to train on")
    stack = vegindex.load_index_stack(config.image_manifest, config.index_kind, config.band_mapping)
    model, result, forecast = pipeline.run_index_stage(stack, config)
    out_dir = config.output_dir
    with pipeline.staged(out_dir) as partial:
        pipeline.write_index(partial, model, result, forecast, config.index_kind)
    print(f"index test RMSE {result.test_rmse:.4f} MAE {result.test_mae:.4f} vs persistence {result.persistence_rmse:.4f}")
    print(f"checkpoint in {out_dir / 'checkpoints' / 'index.ckpt'}")
    return 0


def cmd_forecast(args: argparse.Namespace) -> int:
    config = _load_config(args)
    out_dir = config.output_dir
    table = pipeline.forecast_from_checkpoints(config, out_dir / "checkpoints")
    with pipeline.staged(out_dir) as partial:
        pipeline.write_forecasts(partial, table)
    print(f"forecasts for {len(table)} depth(s) written to {out_dir / 'forecasts.json'}")
    return 0


def cmd_interpolate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    out_dir = config.output_dir
    day = pipeline.check_forecast_day(config, args.day)
    table = pipeline.read_forecasts(out_dir / "forecasts.json", day)
    volume, stats = pipeline.run_kriging_stage(table, config, day)
    with pipeline.staged(out_dir) as partial:
        pipeline.write_volume(partial, volume)
    for depth in sorted(stats):
        score, variogram, n = stats[depth]
        shown = "n/a" if score is None else f"{score:.4f}"
        print(f"depth {depth:3d} cm: {n} samples, LOO score {shown}, range {variogram.range_a:.1f}")
    print(f"volume manifest: {out_dir / 'volume' / 'manifest.csv'}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args)
    report = pipeline.run_forecast(config, forecast_day=args.day)
    for d in report.depths:
        score = report.kriging[d.depth_cm][0]
        shown = "n/a" if score is None else f"{score:.4f}"
        print(
            f"depth {d.depth_cm:3d} cm: test RMSE {d.test_rmse:.4f} "
            f"vs persistence {d.persistence_rmse:.4f}, LOO {shown}"
        )
    if report.index is not None:
        print(
            f"index: test RMSE {report.index.test_rmse:.4f} MAE {report.index.test_mae:.4f} "
            f"vs persistence {report.index.persistence_rmse:.4f}"
        )
    print(f"report: {config.output_dir / 'report.json'}")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    report = pipeline.cmd_gradcheck(seed=args.seed if args.seed is not None else 0, corrupt=args.corrupt)
    for name in ("soil", "index"):
        r = report[name]
        status = "PASS" if r["passed"] else "FAIL"
        gate = f"gate {r['worst_gate']}, " if r["worst_gate"] else ""
        print(
            f"{name}: {status} max rel error {r['max_rel_error']:.3e} at {r['worst_param']} "
            f"({gate}index {r['worst_index']}) over {r['n_checked']} coordinates (tolerance {r['tolerance']:.1e})"
        )
    if not report["passed"]:
        print("gradient check FAILED", file=sys.stderr)
        return 4
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smartcast",
        description="Soil-moisture forecasting, vegetation-index prediction, and kriged moisture volumes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # A subcommand takes only the shared flags it reads; argparse refuses the others.
    flags = {name: argparse.ArgumentParser(add_help=False) for name in ("config", "seed", "out", "day")}
    flags["config"].add_argument("--config", help="path to a JSON run config")
    flags["seed"].add_argument("--seed", type=int, help="seed; overrides the config's, if any")
    flags["out"].add_argument("--out", help="output directory; overrides the config's, if any")
    flags["day"].add_argument("--day", type=int, help="forecast day used for interpolation (1..horizon)")
    commands = [
        ("synth", cmd_synth, "seed out", "generate a synthetic scenario with a ready-to-run config"),
        ("train-soil", cmd_train_soil, "config seed out", "train per-depth soil models and save checkpoints"),
        ("train-index", cmd_train_index, "config seed out", "train the vegetation-index pixel model"),
        ("forecast", cmd_forecast, "config seed out", "14-day forecasts at every sensor from saved checkpoints"),
        ("interpolate", cmd_interpolate, "config seed out day", "krige saved forecasts into per-depth grids"),
        ("run", cmd_run, "config seed out day", "end-to-end: train, forecast, interpolate, export"),
        ("gradcheck", cmd_gradcheck, "seed", "finite-difference audit of both architectures"),
    ]
    for name, fn, shared, text in commands:
        sub.add_parser(name, help=text, parents=[flags[f] for f in shared.split()]).set_defaults(fn=fn)
    sub.choices["gradcheck"].add_argument(
        "--corrupt", action="store_true", help="inject a gradient fault; the check must fail"
    )
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
