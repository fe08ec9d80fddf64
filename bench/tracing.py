"""Span tracing of one smartcast CLI process, from outside the program.

Run as a script, this stands in for `python -m smartcast`:

    python3 bench/tracing.py SPANS.json <smartcast arguments>

It imports `smartcast.cli` under a `cli.import` span, wraps the public
layer functions named in TARGETS, runs `cli.main` under a `cli.main`
span, and writes the spans (name, start, end, parent, counts) when the
command ends. Spans live in memory until then.

A wrapped function is replaced wherever a smartcast module binds it, not
only where it is defined: `vegindex` binds `forward_batch` and `kriging`
binds `write_bandgrid` with `from ... import`.

Imported as a module, `layer_metrics` turns the span files of one
repetition into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

_STARTED = time.perf_counter()  # CLOCK_MONOTONIC: comparable with the parent's clock

# (module, function) -> span name. Names group a layer's entry points.
TARGETS = {
    ("pipeline", "parse_config"): "pipeline.parse_config",
    ("pipeline", "run_forecast"): "pipeline.run_forecast",
    ("pipeline", "run_soil_stage"): "pipeline.soil_stage",
    ("pipeline", "run_index_stage"): "pipeline.index_stage",
    ("pipeline", "run_kriging_stage"): "pipeline.kriging_stage",
    ("timeseries", "load_sensor_csv"): "timeseries.load_sensor_csv",
    ("timeseries", "build_series"): "timeseries.build_series",
    ("timeseries", "make_windows"): "timeseries.make_windows",
    ("lstm", "train"): "lstm.train",
    ("lstm", "forward_batch"): "lstm.forward",
    ("lstm", "backward_batch"): "lstm.backward",
    ("lstm", "adam_step"): "lstm.adam",
    ("lstm", "evaluate_loss"): "lstm.evaluate_loss",
    ("lstm", "predict"): "lstm.predict",
    ("lstm", "save_model"): "lstm.save_model",
    ("lstm", "load_model"): "lstm.load_model",
    ("vegindex", "load_index_stack"): "vegindex.load_index_stack",
    ("vegindex", "stack_windows_for_training"): "vegindex.stack_windows",
    ("vegindex", "predict_pixels"): "vegindex.predict_pixels",
    ("vegindex", "write_bandgrid"): "vegindex.write",
    ("vegindex", "write_pgm"): "vegindex.write",
    ("kriging", "empirical_variogram"): "kriging.empirical_variogram",
    ("kriging", "fit_variogram"): "kriging.fit_variogram",
    ("kriging", "build_model"): "kriging.build_model",
    ("kriging", "loo_score"): "kriging.loo_score",
    ("kriging", "interpolate_grid"): "kriging.interpolate_grid",
    ("kriging", "export_volume"): "kriging.export",
    ("kriging", "export_grid_csv"): "kriging.export",
}


def _forward_flops(model, x_shape) -> float:
    """GEMM flops of one forward_batch, computed from shapes.

    Encoder: L steps of four gates, each x@W (d->n) and h@U (n->n).
    Decoder: H steps fed the final encoder state, plus the dense head.
    Elementwise gate math is left out.
    """
    b, length, d = x_shape
    ne, nd = model.encoder.hidden_dim, model.decoder.hidden_dim
    dense = model.head_hidden.weight.shape[0]
    enc = length * 8 * b * ne * (d + ne)
    dec = model.horizon * (8 * b * nd * (ne + nd) + 2 * b * nd * dense + 2 * b * dense)
    return float(enc + dec)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


COUNTED = {
    "timeseries.load_sensor_csv", "lstm.forward", "lstm.backward", "lstm.train", "lstm.save_model",
    "vegindex.stack_windows", "vegindex.predict_pixels", "kriging.build_model",
    "kriging.interpolate_grid", "kriging.export",
}


def _counts(name: str, args: list, result) -> dict:
    """Counts taken from a call's arguments (in parameter order) and its
    return value."""
    if name == "timeseries.load_sensor_csv":
        return {"rows": len(result)}
    if name == "lstm.forward":
        x = args[1]
        return {"samples": x.shape[0], "flops": _forward_flops(args[0], x.shape)}
    if name == "lstm.backward":
        # Gradients w.r.t. inputs and weights: two GEMMs per forward GEMM.
        return {"flops": 2.0 * _forward_flops(args[0], args[1].x.shape)}
    if name == "lstm.train":
        history = result[1]
        val = [h["val_loss"] for h in history]
        best = len(history) if any(v is None for v in val) else min(range(len(val)), key=val.__getitem__) + 1
        return {"epochs": len(history), "useful_epochs": best}
    if name == "lstm.save_model":
        return {"bytes": os.path.getsize(args[1])}
    if name == "vegindex.stack_windows":
        return {"windows": result[0].n_samples}
    if name == "vegindex.predict_pixels":
        mask = args[2]
        return {"pixels": int(mask.sum()), "masked": int(mask.size - mask.sum())}
    if name == "kriging.build_model":
        return {"jittered": int(result.jitter > 0)}
    if name == "kriging.interpolate_grid":
        return {"cells": int(result[0].size)}
    if name == "kriging.export":
        target = Path(args[1])
        return {"bytes": _dir_bytes(target) if target.is_dir() else target.stat().st_size}
    raise KeyError(name)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, counts]
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, None])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        signature = inspect.signature(fn) if name in COUNTED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if signature is not None:
                bound = list(signature.bind(*args, **kwargs).arguments.values())
                self.spans[index][4] = _counts(name, bound, result)
            return result

        return traced

    def patch(self) -> None:
        modules = {n: m for n, m in sys.modules.items() if n == "smartcast" or n.startswith("smartcast.")}
        for (module, attr), name in TARGETS.items():
            original = getattr(modules[f"smartcast.{module}"], attr)
            wrapper = self.wrap(name, original)
            for mod in modules.values():
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, bound, wrapper)


def _main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    index = tracer.open("cli.import")
    import smartcast.cli as cli

    tracer.close(index)
    tracer.patch()
    index = tracer.open("cli.main")
    try:
        code = cli.main(cli_args)
    finally:
        tracer.close(index)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"started": _STARTED, "spans": tracer.spans}, fh)
    return code


# -- per-layer metrics -----------------------------------------------------------------

SPAN_TIMES = {
    "cli.import": "cli.import_s",
    "cli.main": "cli.main_self_s",
    "pipeline.parse_config": "pipeline.parse_config_s",
    "pipeline.soil_stage": "pipeline.soil_stage_s",
    "pipeline.index_stage": "pipeline.index_stage_s",
    "pipeline.kriging_stage": "pipeline.kriging_stage_s",
    "pipeline.run_forecast": "pipeline.run_forecast_self_s",
    "timeseries.load_sensor_csv": "timeseries.load_sensor_csv_s",
    "timeseries.build_series": "timeseries.build_series_s",
    "timeseries.make_windows": "timeseries.make_windows_s",
    "lstm.train": "lstm.train_s",
    "lstm.forward": "lstm.forward_s",
    "lstm.backward": "lstm.backward_s",
    "lstm.adam": "lstm.adam_s",
    "lstm.evaluate_loss": "lstm.evaluate_loss_s",
    "lstm.predict": "lstm.predict_s",
    "lstm.save_model": "lstm.save_model_s",
    "lstm.load_model": "lstm.load_model_s",
    "vegindex.load_index_stack": "vegindex.load_index_stack_s",
    "vegindex.stack_windows": "vegindex.stack_windows_s",
    "vegindex.predict_pixels": "vegindex.predict_pixels_s",
    "vegindex.write": "vegindex.write_s",
    "kriging.empirical_variogram": "kriging.empirical_variogram_s",
    "kriging.fit_variogram": "kriging.fit_variogram_s",
    "kriging.build_model": "kriging.build_model_s",
    "kriging.loo_score": "kriging.loo_score_s",
    "kriging.interpolate_grid": "kriging.interpolate_grid_s",
    "kriging.export": "kriging.export_s",
}
SPAN_CALLS = {
    "timeseries.build_series": "timeseries.build_series_calls",
    "lstm.forward": "lstm.forward_calls",
    "lstm.backward": "lstm.backward_calls",
    "lstm.adam": "lstm.adam_calls",
    "lstm.predict": "lstm.predict_calls",
    "kriging.build_model": "kriging.build_model_calls",
}
SPAN_COUNTS = {
    ("timeseries.load_sensor_csv", "rows"): "timeseries.csv_rows",
    ("lstm.forward", "samples"): "lstm.forward_samples",
    ("lstm.save_model", "bytes"): "lstm.checkpoint_bytes",
    ("vegindex.stack_windows", "windows"): "vegindex.pixel_windows",
    ("vegindex.predict_pixels", "pixels"): "vegindex.pixels_predicted",
    ("kriging.build_model", "jittered"): "kriging.jittered_models",
    ("kriging.export", "bytes"): "kriging.bytes_written",
}


def _rate(numerator: float, seconds: float) -> float:
    return numerator / seconds if seconds > 0 else 0.0


def layer_metrics(span_files: list[tuple[Path, float]]) -> dict[str, float]:
    """Self times, call counts, argument counts and derived rates of one
    repetition, summed over its processes. Each span file comes with the
    time its process was spawned.

    A span's self time is its duration minus the durations of its direct
    children; the self times of all spans of a process add up to the
    time from the start of `import smartcast.cli` to the end of `main`.
    A metric whose layer did not run in the repetition reads 0.
    """
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[tuple[str, str], float] = defaultdict(float)
    covered = startup = 0.0
    for path, spawned in span_files:
        record = json.loads(path.read_text(encoding="utf-8"))
        startup += record["started"] - spawned
        spans = record["spans"]
        own = [end - start for _, start, end, _, _ in spans]
        for name, start, end, parent, extra in spans:
            if parent >= 0:
                own[parent] -= end - start
            else:
                covered += end - start
            calls[name] += 1
            for key, value in (extra or {}).items():
                counts[(name, key)] += value
        for (name, *_), seconds in zip(spans, own):
            self_time[name] += seconds

    metrics = {metric: self_time[span] for span, metric in SPAN_TIMES.items()}
    metrics.update({metric: float(calls[span]) for span, metric in SPAN_CALLS.items()})
    metrics.update({metric: float(counts[key]) for key, metric in SPAN_COUNTS.items()})
    metrics["timeseries.csv_rows_per_s"] = _rate(counts[("timeseries.load_sensor_csv", "rows")], self_time["timeseries.load_sensor_csv"])
    metrics["lstm.forward_gflop_per_s"] = _rate(counts[("lstm.forward", "flops")] / 1e9, self_time["lstm.forward"])
    metrics["lstm.backward_gflop_per_s"] = _rate(counts[("lstm.backward", "flops")] / 1e9, self_time["lstm.backward"])
    epochs = counts[("lstm.train", "epochs")]
    metrics["lstm.epochs_useful_ratio"] = counts[("lstm.train", "useful_epochs")] / epochs if epochs else 0.0
    pixels = counts[("vegindex.predict_pixels", "pixels")] + counts[("vegindex.predict_pixels", "masked")]
    metrics["vegindex.masked_frac"] = counts[("vegindex.predict_pixels", "masked")] / pixels if pixels else 0.0
    metrics["kriging.cells_per_s"] = _rate(counts[("kriging.interpolate_grid", "cells")], self_time["kriging.interpolate_grid"])
    metrics["trace.spanned_s"] = covered
    metrics["trace.startup_s"] = startup
    return metrics


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
