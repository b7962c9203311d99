"""Benchmark driver: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload census-7x7 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ./src.  One
client in one process runs the workload's ops back to back (closed loop,
threads=1) until --seconds have passed and at least MIN_OPS ops are done,
checking every output.  --trace 0 reports the end-to-end metrics, with
timings scaled by the host-speed probe (probe.py); --trace 1 wraps the
program's layers (spans.py) and reports the per-layer metrics instead, raw.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The full result, with the
environment and the raw figures, is also written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from probe import SpeedProbe
from spans import TARGETS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

MIN_OPS = 110  # p90 is reported only with at least 10 samples beyond it
SETUP_SAMPLES = 5  # this process plus fresh interpreters, median reported
EXIT_NO_PROGRAM = 3
EXIT_USAGE = 64


class UnknownWorkload(KeyError):
    pass


def _load_program() -> None:
    if not (SRC / "drgcayley" / "__init__.py").is_file():
        sys.stderr.write(f"no program source at {SRC}/drgcayley; run from a checkout\n")
        raise SystemExit(EXIT_NO_PROGRAM)
    sys.path.insert(0, str(SRC))


def load_reference(path: Path = REFERENCE) -> dict:
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    chunks = ref["chunks"]
    full = ref["census"][chunks["group"]]
    # the chunk table must add up to the full census it was cut from
    if (
        len(chunks["connected"]) << chunks["chunkBits"] != full["symmetricSets"]
        or sum(chunks["connected"]) != full["connectedSets"]
        or sum(len(h) for h in chunks["hits"]) != full["drgSets"]
    ):
        raise ValueError(f"{path}: chunk table does not match the census totals")
    return ref


def timed_setup(name: str, reference: dict, tracer=None):
    """Import the program and build the workload's caches.

    Returns the workload, the raw set-up seconds and the host slowdown
    measured by a probe burst right after it.
    """
    t0 = time.perf_counter()
    import workloads  # imports drgcayley

    if tracer is not None:
        tracer.install()
    cls = workloads.WORKLOADS.get(name)
    if cls is None:
        raise UnknownWorkload(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = cls(reference)
    workload.setup()
    seconds = time.perf_counter() - t0
    return workload, seconds, SpeedProbe().burst().slowdown()


def fresh_setup(name: str) -> tuple[float, float]:
    """(raw seconds, slowdown) of a set-up in a new interpreter, so it starts cold."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", name, "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, slowdown = proc.stdout.split()
    return float(seconds), float(slowdown)


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS library numpy loaded, when it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    from drgcayley import kernels

    return {
        "backend": kernels.active_backend(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "env": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "DRGCAYLEY_BACKEND",
        ) if k in os.environ},
    }


def percentile_ms(latencies: list[float], pct: int) -> float:
    values = sorted(latencies)
    cut = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    beyond = sum(1 for v in values if v > cut)
    if beyond < 10:
        raise ValueError(f"p{pct} has only {beyond} samples beyond it")
    return cut * 1e3


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(tracer, wall_s: float, latencies: list[float]) -> dict:
    totals = tracer.totals()
    counts = tracer.counters

    def secs(name: str, key: str = "s") -> float:
        return totals.get(name, {}).get(key, 0.0)

    out: dict[str, dict] = {}
    for _module, _fn, span in TARGETS:
        out[f"{span}.calls"] = metric(counts.get(f"{span}.calls", 0), "count")
        out[f"{span}.s"] = metric(secs(span), "s")
    for name in ("kernels.scanned", "kernels.connected", "kernels.hits", "classify.hits"):
        out[name] = metric(counts.get(name, 0), "count")
    scan_s = secs("kernels.census_scan")
    rechecks = counts.get("kernels.recheck.calls", 0)
    out["kernels.sets_per_s"] = metric(counts.get("kernels.scanned", 0) / scan_s if scan_s else 0.0, "1/s")
    out["kernels.recheck.yield"] = metric(counts.get("kernels.hits", 0) / rechecks if rechecks else 0.0, "ratio")
    out["kernels.prefilter.s"] = metric(secs("kernels.census_scan", "self_s"), "s")
    out["classify.census.self_s"] = metric(secs("classify.census", "self_s"), "s")
    out["trace.spans"] = metric(len(tracer.rows), "count")
    out["trace.wall_s"] = metric(wall_s, "s")
    out["trace.op_p50_ms"] = metric(statistics.median(latencies) * 1e3, "ms")
    return out


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    reference: dict,
    setup_samples: int = SETUP_SAMPLES,
    min_ops: int = MIN_OPS,
    spans_path: Path | None = None,
) -> dict:
    """Set up, run the closed loop, check outputs; returns the full result.

    A traced run writes its spans to ``spans_path`` when one is given.
    """
    tracer = Tracer() if trace else None
    workload, setup_s, setup_slowdown = timed_setup(name, reference, tracer)
    setups = [(setup_s, setup_slowdown)]
    if not trace:
        setups += [fresh_setup(name) for _ in range(setup_samples - 1)]

    op_times: list[tuple[float, float]] = []  # (start, end) of each op
    sets = 0
    failed = 0
    ops = workload.ops(seed)
    probe = SpeedProbe()  # one sample per PROBE_INTERVAL_S, about 1% of the run
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline or len(op_times) < min_ops:
        op = next(ops)
        if tracer is not None:
            tracer.op = len(op_times)
        t0 = time.perf_counter()
        try:
            sets += workload.run(op, tracer)
        except Exception:  # a wrong answer or a crash is a failed op, never an abort
            failed += 1
            if failed <= 5:
                sys.stderr.write(f"op {len(op_times)} failed: {op!r}\n{traceback.format_exc()}")
        op_times.append((t0, time.perf_counter()))
        probe.maybe_sample()
    wall_s = time.perf_counter() - start
    latencies = [t1 - t0 for t0, t1 in op_times]
    if tracer is not None:
        tracer.uninstall()
        if spans_path is not None:
            tracer.dump(spans_path)

    attempted = len(latencies)
    raw = {}
    if tracer is not None:
        metrics = layer_metrics(tracer, wall_s, latencies)
    else:
        raw = {
            "setup_s": statistics.median(s for s, _ in setups),
            "sets_per_s": sets / wall_s,
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p90_ms": percentile_ms(latencies, 90),
        }
        scaled = [(t1 - t0) / probe.slowdown_around(t0, t1) for t0, t1 in op_times]
        metrics = {
            "setup_s": metric(statistics.median(s / d for s, d in setups), "s"),
            "sets_per_s": metric(raw["sets_per_s"] * probe.slowdown(), "1/s"),
            "op_p50_ms": metric(statistics.median(scaled) * 1e3, "ms"),
            "op_p90_ms": metric(percentile_ms(scaled, 90), "ms"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "wall_s": wall_s,
        "setup_samples": [{"s": s, "slowdown": d} for s, d in setups],
        "slowdown": probe.slowdown(),
        "probe_samples": len(probe.samples),
        "raw_metrics": raw,
        "fail_frac": failed / attempted,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print the cold set-up time of the workload and exit")
    args = parser.parse_args(argv)

    _load_program()
    reference = load_reference()
    try:
        if args.setup_only:
            _, seconds, slowdown = timed_setup(args.workload, reference)
            print(seconds, slowdown)
            return 0
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), reference,
                              spans_path=OUT / f"{stem}-spans.json")
    except UnknownWorkload as exc:
        sys.stderr.write(f"{exc.args[0]}\n")
        return EXIT_USAGE
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")

    print(f"environment: {json.dumps(result['environment'], sort_keys=True)}")
    print(f"ops: {result['attempted']} attempted, {result['failed']} failed, "
          f"fail_frac {result['fail_frac']:.4f}, wall_s {result['wall_s']:.3f}, "
          f"host slowdown {result['slowdown']:.3f}")
    for key, entry in result["metrics"].items():
        raw = result["raw_metrics"].get(key)
        note = f" (raw {raw})" if raw is not None else ""
        print(f"{key}: {entry['value']} {entry['unit']}{note}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
