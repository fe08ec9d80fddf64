"""smartcast benchmark: cold CLI processes on seeded synthetic workloads.

Run from the root of a smartcast checkout:

    python3 bench/run.py --workload demo_run --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

One run generates the workload's inputs from the seed, times the
set-up probe (a cold process that imports `smartcast.cli` and parses the
workload's config), then runs repetitions of the workload's CLI commands
as cold processes until the next one would overrun `--seconds` (at least
one). Every repetition starts from a fresh output directory and is
checked: exit codes, documented artifacts, finite numbers, and
byte-identical deterministic outputs across repetitions of one commit.

With `--trace 1` the run makes one repetition without tracing, then
repetitions whose processes run under bench/tracing.py, and reports the
per-layer metrics plus the tracing overhead.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the metric names and units come from
BENCHMARK.json. Lines before it give the same figures for people, the
quality figures that apply to only some workloads, and an environment
record.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import outputs
import tracing

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 5
HARD_LIMIT_S = 150.0  # no repetition starts that would end after this
QUALITY_UNITS = {"soil_rmse_ratio": "ratio", "index_rmse_ratio": "ratio", "map_rmse": "moisture-%"}
SETUP_CODE = "import sys, smartcast.cli; smartcast.cli.pipeline.parse_config(sys.argv[1])"


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


class Child:
    """Runs smartcast child processes with wall time and peak RSS from
    their own rusage, killing any that would pass the run's deadline."""

    def __init__(self, root: Path, logs: Path, deadline: float):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.logs = logs
        self.deadline = deadline

    def run(self, argv: list[str], log_name: str) -> tuple[int, float, float, float]:
        """(exit code, spawn time, wall seconds, peak RSS MiB) of one process."""
        log = self.logs / f"{log_name}.log"
        with log.open("wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=fh, stderr=subprocess.STDOUT, env=self.env)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, start, wall, usage.ru_maxrss / 1024.0

    def smartcast(self, args: list[str], log_name: str) -> tuple[int, float]:
        code, _, wall, _ = self.run(["-m", "smartcast", *args], log_name)
        return code, wall


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted([*root.glob("src/smartcast/*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas_threads() -> int | None:
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    """Machine and library facts the numbers depend on."""
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = Path(index, "size").read_text().strip()
        except OSError:
            continue
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": caches,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


class Repetitions:
    """Runs and checks repetitions of one prepared workload."""

    def __init__(self, prepared, child: Child, work: Path, store: Path, source: str):
        self.prepared = prepared
        self.child = child
        self.work = work
        self.store = store
        self.source = source
        self.reference: dict[str, str] | None = None
        self.records: list[dict] = []

    def run_one(self, traced: bool) -> dict:
        import workloads

        n = len(self.records)
        out = self.work / f"rep{n}"
        workloads.start_repetition(self.prepared, out)
        wall, rss, problems, span_files = 0.0, 0.0, [], []
        for k, args in enumerate(self.prepared.commands):
            args = [a.replace("{out}", str(out)) for a in args]
            spans = self.work / f"rep{n}-{k}.spans.json"
            if traced:
                argv = [str(BENCH_DIR / "tracing.py"), str(spans), *args]
            else:
                argv = ["-m", "smartcast", *args]
            code, spawned, seconds, peak = self.child.run(argv, f"rep{n}-{k}-{args[0]}")
            span_files.append((spans, spawned))
            wall += seconds
            rss = max(rss, peak)
            if code != 0:
                problems.append(f"`smartcast {args[0]}` exited with {code}")
                break
        record = {"wall_s": wall, "peak_rss_mb": rss, "traced": traced, "quality": {}, "layers": None}
        try:
            if not problems:
                problems = outputs.check_outputs(out, workloads.expected_artifacts(self.prepared), self.prepared)
            if not problems:
                problems = self._check_determinism(out)
            if not problems:
                record["quality"] = workloads.quality(self.prepared, out)
                if traced:
                    record["layers"] = tracing.layer_metrics(span_files)
        except (OSError, ValueError, KeyError, TypeError) as exc:  # malformed output files
            problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        record["problems"] = problems
        self.records.append(record)
        shutil.rmtree(out)
        return record

    def _check_determinism(self, out: Path) -> list[str]:
        """Compare with this run's first repetition, and with earlier runs of
        the same workload and seed on the same source."""
        import workloads

        current = outputs.digests(out, workloads.deterministic_artifacts(self.prepared, out))
        if self.reference is not None:
            return outputs.compare_digests(self.reference, current, "repetition 0")
        self.reference = current
        if self.store.is_file():
            saved = json.loads(self.store.read_text(encoding="utf-8"))
            if saved["source"] == self.source:
                return outputs.compare_digests(saved["files"], current, "an earlier run of this seed")
        self.store.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.store.with_suffix(".tmp")
        tmp.write_text(json.dumps({"source": self.source, "files": current}, indent=1), encoding="utf-8")
        tmp.replace(self.store)
        return []

    def loop(self, seconds: float, traced: bool, started: float) -> None:
        """Repetitions until the next would overrun `seconds`; at least one."""
        begin = time.monotonic()
        count = 0
        while True:
            self.run_one(traced)
            count += 1
            now = time.monotonic()
            per_rep = (now - begin) / count
            if now - begin + per_rep > seconds or now - started + per_rep > HARD_LIMIT_S:
                return


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool, size: str) -> int:
    import workloads

    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    started = time.monotonic()
    work = root / ".bench_work" / f"{workload}-{size}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    logs = work / "logs"
    logs.mkdir(parents=True)
    child = Child(root, logs, deadline=started + 170.0)
    try:
        print("env " + json.dumps(environment(), sort_keys=True))
        t0 = time.perf_counter()
        prepared = workloads.prepare(workload, seed, size, work, child.smartcast)
        print(f"inputs generated in {time.perf_counter() - t0:.2f} s", end="")
        print(f" (checkpoint training {prepared.pretrain_s:.2f} s)" if prepared.pretrain_s is not None else "")

        reps = Repetitions(
            prepared,
            child,
            work,
            root / ".bench_work" / "digests" / f"{workload}-{size}-{seed}.json",
            _source_digest(root),
        )
        if trace:
            child.run(["-c", SETUP_CODE, str(prepared.config_path)], "warmup")  # fills caches first
            reps.run_one(traced=False)
            reps.loop(seconds, traced=True, started=started)
            metrics = _layer_report(reps.records)
            wanted = spec["per_layer"]
        else:
            setup = _setup_seconds(child, prepared.config_path, 1 if size == "tiny" else SETUP_PROBES)
            reps.loop(seconds, traced=False, started=started)
            metrics = _end_to_end_report(reps.records, setup)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for r in reps.records if r["problems"])
    for i, r in enumerate(reps.records):
        status = "ok" if not r["problems"] else "FAILED: " + "; ".join(r["problems"][:5])
        kind = "traced" if r["traced"] else "timed"
        print(f"repetition {i} ({kind}): wall {r['wall_s']:.3f} s, peak RSS {r['peak_rss_mb']:.1f} MiB, {status}")
    print(f"failed_frac {failed / len(reps.records):.4f} ratio ({failed} of {len(reps.records)})")
    result = {}
    for m in wanted:
        if m["name"] in metrics:
            result[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(QUALITY_UNITS)
    for name, value in sorted(metrics.items()):
        unit = units.get(name, "")
        print(f"  {name:34s} {value:16.6f} {unit}")
    correct = failed == 0 and len(result) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": len(reps.records), "failed": failed, "metrics": result}))
    return 0


def _setup_seconds(child: Child, config: Path, probes: int) -> float:
    """Median wall time of cold processes that import the CLI and parse the
    config; one unmeasured probe first fills the bytecode cache."""
    times = []
    for k in range(probes + 1):
        code, _, wall, _ = child.run(["-c", SETUP_CODE, str(config)], f"setup{k}")
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
        times.append(wall)
    print("setup probes: " + ", ".join(f"{t:.4f}" for t in times[1:]) + " s")
    return _median(times[1:])


def _quality_medians(records: list[dict]) -> dict[str, float]:
    names = sorted({k for r in records for k in r["quality"]})
    return {name: _median([r["quality"][name] for r in records if name in r["quality"]]) for name in names}


def _end_to_end_report(records: list[dict], setup: float) -> dict[str, float]:
    metrics = {
        "wall_s": _median([r["wall_s"] for r in records]),
        "setup_s": setup,
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in records]),
    }
    metrics.update(_quality_medians(records))
    return metrics


def _layer_report(records: list[dict]) -> dict[str, float]:
    plain = records[0]
    traced = [r for r in records if r["traced"] and r["layers"] is not None]
    if not traced:
        return {}
    names = traced[0]["layers"].keys()
    metrics = {name: _median([r["layers"][name] for r in traced]) for name in names}
    wall = _median([r["wall_s"] for r in traced])
    metrics["trace.unattributed_s"] = wall - metrics.pop("trace.spanned_s") - metrics["trace.startup_s"]
    metrics["trace.overhead_s"] = wall - plain["wall_s"]
    quality = _quality_medians(traced)
    metrics["lstm.soil_rmse_ratio"] = quality.get("soil_rmse_ratio", 0.0)
    metrics["kriging.map_rmse"] = quality.get("map_rmse", 0.0)
    metrics["vegindex.index_rmse_ratio"] = quality.get("index_rmse_ratio", 0.0)
    return metrics


# -- smoke mode ------------------------------------------------------------------------

def smoke(root: Path) -> int:
    """Each workload once at tiny size, untraced and traced, checking the
    result line's schema against BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "0",
                    "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            done = subprocess.run(argv, capture_output=True, text=True, cwd=root, timeout=300)
            label = f"{workload} --trace {trace}"
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                problems.append(f"{label}: exit {done.returncode}: {done.stderr.strip()[-400:]}")
                continue
            problems += [f"{label}: {p}" for p in _schema_problems(json.loads(lines[-1]), spec[key])]
            print(f"{label}: {lines[-1][:160]}")
    for p in problems:
        print(f"SMOKE FAILURE {p}")
    print("smoke " + ("passed" if not problems else f"failed ({len(problems)} problems)"))
    return 0 if not problems else 1


def _schema_problems(result: dict, wanted: list[dict]) -> list[str]:
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return [f"result keys {sorted(result)}"]
    if result["correct"] is not True:
        problems.append("correct is not true")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1 and isinstance(result["failed"], int)):
        problems.append("attempted/failed are not whole numbers with attempted >= 1")
    names = [m["name"] for m in wanted]
    if sorted(result["metrics"]) != sorted(names):
        problems.append(f"metrics {sorted(set(names) ^ set(result['metrics']))} missing or extra")
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is not None and (got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float))):
            problems.append(f"metric {m['name']} is {got}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for --smoke")
    parser.add_argument("--smoke", action="store_true", help="run every workload once at tiny size")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "smartcast" / "cli.py").is_file() or not (root / "BENCHMARK.json").is_file():
        return _fail(f"run from the root of a smartcast checkout; {root} has no src/smartcast or BENCHMARK.json")
    sys.path.insert(0, str(root / "src"))
    if args.smoke:
        return smoke(root)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        return _fail("--seed must be >= 0 and --seconds > 0")
    return run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace), args.size)


if __name__ == "__main__":
    sys.exit(main())
