"""Correctness checks on one repetition's output directory.

The files are parsed here from their documented formats rather than
through the program's own readers, so a reader bug cannot hide a writer
bug. Each check returns a list of problems; an empty list means the
repetition passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

CKPT_MAGIC = b"SMLSTM1\n"
BGRID_MAGIC = b"BGRID 1"


def _nonfinite_json(value, where: str) -> list[str]:
    if isinstance(value, float):
        return [] if math.isfinite(value) else [f"{where}: {value}"]
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _nonfinite_json(v, f"{where}.{k}")]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in _nonfinite_json(v, f"{where}[{i}]")]
    return []


def _check_bgrid(path: Path) -> list[str]:
    with path.open("rb") as fh:
        if fh.readline().rstrip(b"\n") != BGRID_MAGIC:
            return [f"{path.name}: bad magic"]
        width, height, bands = (int(v) for v in fh.readline().split())
        nodata = float(fh.readline().decode("ascii").split("=", 1)[1])
        fh.readline()  # band names
        data = np.frombuffer(fh.read(), dtype="<f4")
    if data.size != width * height * bands:
        return [f"{path.name}: {data.size} values, header says {width * height * bands}"]
    valid = data[data != np.float32(nodata)]
    return [] if np.all(np.isfinite(valid)) else [f"{path.name}: non-finite cells"]


def _check_checkpoint(path: Path) -> list[str]:
    with path.open("rb") as fh:
        if fh.read(len(CKPT_MAGIC)) != CKPT_MAGIC:
            return [f"{path.name}: bad magic"]
        header = json.loads(fh.readline())
        data = np.frombuffer(fh.read(), dtype="<f8")
    problems = _nonfinite_json(header, path.name)
    if data.size == 0 or not np.all(np.isfinite(data)):
        problems.append(f"{path.name}: empty or non-finite parameters")
    return problems


def _check_grid_csv(path: Path, expected_rows: int) -> list[str]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    problems = [] if len(rows) == expected_rows else [f"grid.csv: {len(rows)} cells, expected {expected_rows}"]
    bad = sum(1 for r in rows if not (math.isfinite(float(r["value"])) and math.isfinite(float(r["variance"]))))
    if bad:
        problems.append(f"grid.csv: {bad} non-finite cells")
    return problems


def _check_forecasts(path: Path, depths: list[int], sensors: list[str], horizon: int) -> list[str]:
    table = json.loads(path.read_text(encoding="utf-8"))
    problems = _nonfinite_json(table, "forecasts")
    if sorted(int(d) for d in table) != depths:
        problems.append(f"forecasts.json: depths {sorted(table)} != {depths}")
    for depth, per_sensor in table.items():
        if sorted(per_sensor) != sensors:
            problems.append(f"forecasts.json: depth {depth} covers {len(per_sensor)} of {len(sensors)} sensors")
        if any(len(v) != horizon for v in per_sensor.values()):
            problems.append(f"forecasts.json: depth {depth} has a forecast of the wrong length")
    return problems


def check_outputs(out: Path, artifacts: list[str], prepared) -> list[str]:
    """Every documented artifact exists and every number in it is finite."""
    problems = [f"missing {name}" for name in artifacts if not (out / name).is_file()]
    if (out / ".partial").exists():
        problems.append("staging directory .partial left behind")
    if problems:
        return problems
    config = prepared.config
    for path in sorted(out.glob("checkpoints/*.ckpt")):
        problems += _check_checkpoint(path)
    for path in sorted(out.rglob("*.bgrid")):
        problems += _check_bgrid(path)
    for name in ("report.json", "soil_metrics.json"):
        if (out / name).is_file():
            problems += _nonfinite_json(json.loads((out / name).read_text(encoding="utf-8")), name)
    if (out / "forecasts.json").is_file():
        problems += _check_forecasts(out / "forecasts.json", prepared.depths, prepared.sensors, config["horizon_days"])
    if (out / "grid.csv").is_file():
        cells = config["grid"]["nx"] * config["grid"]["ny"] * len(prepared.depths)
        problems += _check_grid_csv(out / "grid.csv", cells)
    return problems


def digests(out: Path, names: list[str]) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def compare_digests(reference: dict[str, str], current: dict[str, str], label: str) -> list[str]:
    if sorted(reference) != sorted(current):
        return [f"deterministic outputs differ from {label}: file sets {sorted(reference)} vs {sorted(current)}"]
    return [f"{name} differs from {label}" for name in sorted(current) if reference[name] != current[name]]
