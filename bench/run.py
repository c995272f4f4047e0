"""Benchmark of vsbdf3: three study workloads, end-to-end or traced.

Run from the root of a source checkout:

    python3 bench/run.py --workload conv-random --seed 1 --seconds 20 --trace 0

The package is imported from ./src.  The run repeats whole rounds of the
workload's operations until --seconds have passed, checks every round's
outputs after its timed body, and prints as its last line one JSON object:
correct, attempted, failed and the metrics (end-to-end with --trace 0,
per-layer with --trace 1).  The line before it holds the behaviour
fingerprint and the host facts.  Results and span traces go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# OpenBLAS threads for every run, capped at the CPUs this process may use.
# One thread: on 2 CPUs four repeats of conv-random took 4.87-5.25 s with
# one thread and 4.54-6.23 s with two (see README.md).
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("conv-random", "energy-periodic", "certify-mix")
# Fresh interpreters timed importing vsbdf3, after one untimed warm-up
# that compiles the bytecode.
SETUP_PROBES = 11
PROBE = ("import sys, time\n"
         "t = time.perf_counter()\n"
         "import vsbdf3\n"
         "t = time.perf_counter() - t\n"
         "print(repr(t), vsbdf3.__file__)\n")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def blas_threads() -> int:
    return max(1, min(BLAS_THREADS, len(os.sched_getaffinity(0))))


def measure_setup(src: Path) -> list[float]:
    """Import time of vsbdf3 in fresh interpreters; the first is a warm-up."""
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for i in range(SETUP_PROBES + 1):
        out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout.split()
        if not Path(out[1]).resolve().is_relative_to(src):
            raise RuntimeError(f"imported vsbdf3 from {out[1]}, not from {src}")
        if i:
            times.append(float(out[0]))
    return times


def host_facts() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
    }


def run_rounds(workload, seconds: float) -> dict:
    """Repeat whole rounds until `seconds` have passed; check after each body.

    Peak memory is read after the first round's body, before any check.
    """
    ops = workload.operations()
    times, failed, attempted = [], 0, 0
    fingerprint, consistent, peak_kib, out_bytes = None, True, 0, 0
    start = time.perf_counter()
    while True:
        outputs = []
        t0 = time.perf_counter()
        for op in ops:
            try:
                outputs.append(op())
            except Exception as exc:  # an operation that raises has failed
                outputs.append(exc)
        times.append(time.perf_counter() - t0)
        if len(times) == 1:
            # one round is what one command costs a user
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out_bytes += sum(p.stat().st_size for p in workload.output_paths() if p.is_file())
        flags, fp = workload.check(outputs)
        attempted += len(flags)
        failed += sum(flags)
        if fingerprint is None:
            fingerprint = fp
        elif fp != fingerprint:
            consistent = False
        if time.perf_counter() - start >= seconds:
            break
    return {"round_s": times, "attempted": attempted, "failed": failed,
            "fingerprint": fingerprint, "consistent": consistent,
            "peak_rss_mb": peak_kib / 1024.0, "out_bytes": out_bytes}


def main(argv=None) -> int:
    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "vsbdf3" / "__init__.py").is_file():
        print(f"error: no vsbdf3 package under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    args = parse_args(argv)
    # set before numpy is first imported, here or in a child interpreter
    threads = blas_threads()
    for var in THREAD_VARS:
        os.environ[var] = str(threads)

    setup = [] if args.trace else measure_setup(src)

    sys.path.insert(0, str(src))
    import vsbdf3
    import vsbdf3.cli

    import tracer as tracing
    from workloads import WORKLOADS

    outdir = Path("bench", "out")
    outdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer().install(vsbdf3) if args.trace else None
    workload = WORKLOADS[args.workload](vsbdf3, args.seed, outdir)
    result = run_rounds(workload, args.seconds)
    wall_s = statistics.median(result["round_s"])
    if tracer is not None:
        tracer.uninstall()
        trace_path = outdir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        metrics = tracer.layer_metrics(len(result["round_s"]), wall_s, result["out_bytes"])
        units = tracing.PER_LAYER
    else:
        metrics = {"wall_s": wall_s, "setup_s": statistics.median(setup),
                   "peak_rss_mb": result["peak_rss_mb"]}
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

    # failed operations are counted in "failed"; "correct" says that the
    # rest repeated the first round's outputs exactly
    correct = result["consistent"]
    summary = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "blas_threads": threads, "host": host_facts(),
        "fingerprint": result["fingerprint"], "rounds_consistent": result["consistent"],
        "round_s": result["round_s"], "setup_s": setup, **summary,
    }
    (outdir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"fingerprint": result["fingerprint"], "host": record["host"],
                      "blas_threads": threads}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
