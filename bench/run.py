"""fatpoints benchmark: one workload per run, every metric by name and unit.

    python3 bench/run.py --workload main_theorem --seed 0 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports the package from the
checkout's src/ directory and exits with status 1, printing no result,
when that is missing.

A run checks the engine's rank against the exact oracle on a few pinned
systems, then answers the workload's question list in passes until
--seconds have gone by (it finishes the pass in progress).  Between passes
it times fresh interpreters that import the package (set-up time).  With --trace 1 the passes alternate between
untraced and traced, and the traced ones give the per-layer metrics.

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The line before it is a report with the environment, the pass times and
any failures; both, and the spans of a traced run, are also written under
.bench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SRC = CHECKOUT / "src"
OUT_DIR = CHECKOUT / ".bench_out"
SETUP_REPEATS = 5
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import fatpoints; "
    "fatpoints.load_bundled_registry()"
)

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import fatpoints from this checkout's src/, never from elsewhere."""
    if not (SRC / "fatpoints" / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {SRC / 'fatpoints'}")
    sys.path.insert(0, str(SRC))
    import fatpoints

    if Path(fatpoints.__file__).resolve().parent != (SRC / "fatpoints").resolve():
        sys.exit(f"bench: imported fatpoints from {fatpoints.__file__}, not {SRC}")
    return fatpoints


def setup_sample() -> float:
    """Wall time of a fresh interpreter that imports the package and loads
    the bundled registry, as a user's first command does."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        cwd=CHECKOUT, check=True, stdout=subprocess.DEVNULL, timeout=60,
    )
    return time.perf_counter() - t0


def environment() -> dict:
    import numpy

    nproc = len(os.sched_getaffinity(0))
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = blas_threads()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_le_nproc": threads is None or threads <= nproc,
        "nproc": nproc,
        "cpu_model": cpu_model(),
    }


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS library numpy loaded, read through its
    own query function; None when it cannot be found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


@dataclass
class Passes:
    untraced: list = field(default_factory=list)  # wall time of each pass
    traced: list = field(default_factory=list)
    setup: list = field(default_factory=list)  # setup_sample() times
    last_traced: object = None  # the last traced pass's answers
    missing: list = field(default_factory=list)  # wrapped targets not found


def run_passes(fatpoints, workload, inputs, seed, seconds, tracer, outcome) -> Passes:
    """Answer the question list in passes until `seconds` have gone by; with
    a tracer, odd passes are traced.  The SETUP_REPEATS set-up samples are
    spread over the run, between passes, so that they see the same machine
    load as the passes do."""
    import spans

    runs = Passes()
    start = time.perf_counter()
    runs.setup.append(setup_sample())
    k = 0
    while True:
        config = fatpoints.PrimeFieldConfig(seed=seed + k)
        if tracer is not None and k % 2 == 1:
            wrappers = spans.Wrappers(tracer)
            runs.missing = wrappers.absent
            try:
                with tracer.phase(f"{workload.name}.pass"):
                    t0 = time.perf_counter()
                    result = workload.run_pass(inputs, config, tracer.phase)
                    runs.traced.append(time.perf_counter() - t0)
            finally:
                wrappers.remove()
            runs.last_traced = result
        else:
            t0 = time.perf_counter()
            result = workload.run_pass(inputs, config, _untraced_phase)
            runs.untraced.append(time.perf_counter() - t0)
        outcome.merge(workload.check(inputs, result))
        k += 1
        elapsed = time.perf_counter() - start
        due = min(SETUP_REPEATS, 1 + int(elapsed / seconds * (SETUP_REPEATS - 1)))
        while len(runs.setup) < due:
            runs.setup.append(setup_sample())
        if runs.untraced and (runs.traced or tracer is None) and elapsed >= seconds:
            break
    while len(runs.setup) < SETUP_REPEATS:
        runs.setup.append(setup_sample())
    return runs


def _untraced_phase(name):
    return contextlib.nullcontext()


def main(argv=None) -> int:
    args = parse_args(argv)
    fatpoints = import_package()
    import layers
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 64
    workload = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    env = environment()
    if not env["blas_threads_le_nproc"]:
        print(f"bench: BLAS uses {env['blas_threads']} threads on {env['nproc']} CPUs",
              file=sys.stderr)

    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    tracer = spans.Tracer() if args.trace else None
    try:
        inputs = workload.prepare(args.seed, workdir)
        outcome = workloads.oracle_check(args.seed)
        runs = run_passes(
            fatpoints, workload, inputs, args.seed, args.seconds, tracer, outcome
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is None:
        metrics = {
            "wall_s": statistics.median(runs.untraced),
            "setup_s": statistics.median(runs.setup),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
        absent = []
    else:
        overhead = statistics.median(runs.traced) / statistics.median(runs.untraced) - 1
        last = runs.last_traced
        cache_bytes = last.get("cache_bytes", 0) if isinstance(last, dict) else 0
        metrics = layers.derive(tracer.spans, runs.traced, set(runs.missing),
                                cache_bytes, overhead)
        units = {name: unit for name, (unit, _, _) in layers.LAYER_METRICS.items()}
        tracer.write_jsonl(OUT_DIR / f"{stem}.spans.jsonl")
        absent = [m for m in layers.LAYER_METRICS if m not in metrics]

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "setup_s_samples": runs.setup,
        "untraced_pass_s": runs.untraced,
        "traced_pass_s": runs.traced,
        "absent_metrics": absent,
        "failures": outcome.failures[:50],
    }
    result = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"report": report, "result": result}, indent=2) + "\n"
    )
    if absent:
        print(f"bench: absent metrics: {', '.join(absent)}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
