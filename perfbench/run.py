"""twoproc benchmark: seeded batch workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload solve-light --seed 1 --seconds 25 --trace 0

The run writes the workload's model file(s) from the seed, measures set-up
time in fresh processes, runs one warm-up operation, then runs operations one
at a time (a closed loop with one client) until --seconds have passed.  Every
operation's outputs are checked.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the line before
it is an "info" object with the raw timings and the environment.

Host speed.  On a shared virtual machine the CPUs also serve other tenants,
and their speed drifts by up to 1.5x over seconds to minutes, which moves the
median of one run by about a fifth.  Between operations the run therefore
times a fixed calibration workload that does not touch the package
(`HostSpeed`), and scales each operation's wall time by
REFERENCE_CALIBRATION_S divided by the mean of the calibrations just before
and after it.  The scaled time is the operation's wall time at the host speed
where the calibration takes REFERENCE_CALIBRATION_S.  It follows the
program's cost, not the neighbours' load, and the constant cancels when two
commits are compared.

--trace 0 reports the end-to-end metrics:
  wall_norm_s      median scaled wall time of one operation
  work_norm_per_s  work units (solves, searches, paths, models) per second
                   of scaled operation time
  peak_rss_mb      peak resident memory of the benchmark process
  setup_s          median scaled time, over SETUP_PROBES fresh processes,
                   from process start through `import twoproc` and loading
                   and validating the workload's model file(s)
Set-up probes are scaled like operations.  The unscaled wall_s, work_per_s
and setup_s are in the info line.

--trace 1 spends the first half of the time untraced and the second half with
the wrappers of spans.py installed, and reports the per-layer metrics of the
traced operations (times are raw means per operation, counts are per
operation), the median scaled traced and untraced wall times and their
difference (the tracing overhead).  Spans are written to
.bench_out/trace-<workload>-<seed>.jsonl.

BLAS and OpenMP are pinned to BLAS_THREADS threads before numpy loads.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 9
PROBE_TIMEOUT = 60.0
MAX_FAILURES = 3  # stop early rather than loop on an operation that always fails
# Median calibration time on the 2-vCPU x86-64 virtual machine (Python 3.11,
# NumPy 2.4) where the benchmark was defined.
REFERENCE_CALIBRATION_S = 0.03


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def probe_setup(model_files) -> float:
    """Wall time from spawning a fresh interpreter until it has imported
    twoproc and loaded the model files."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), str(SRC), *map(str, model_files)],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.wait(timeout=PROBE_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


class HostSpeed:
    """Scales timed work to the reference host speed.

    The calibration is a fixed piece of work in the mix the package runs: an
    interpreter loop, a loop of small-array numpy calls, and dense and
    large-array passes.  It calls nothing from the package, so its time
    follows the host alone.  `scale()` times it once more and returns the
    factor for the work done since the previous calibration.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.random((96, 32))
        self.dense = rng.random((768, 256))
        self.large = np.arange(300_000, dtype=float)
        self.before = self.calibrate()

    def calibrate(self) -> float:
        start = time.perf_counter()
        x = np.full(32, 1.0 / 32)
        for _ in range(600):
            x = np.maximum(x + 1e-3 * (self.small @ x)[:32], 0.0)
            x /= x.sum()
        p = np.full(256, 1.0 / 256)
        for _ in range(150):
            p = (self.dense @ p)[:256]
            p /= p.sum()
        v = self.large
        for _ in range(8):
            v = np.sqrt(v + 1.0)
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        return time.perf_counter() - start

    def scale(self) -> float:
        after = self.calibrate()
        factor = 2.0 * REFERENCE_CALIBRATION_S / (self.before + after)
        self.before = after
        return factor


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def tail(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples above it, or None
    when there are fewer than eleven samples."""
    ordered = sorted(values)
    if len(ordered) < 11:
        return None
    k = len(ordered) - 11
    return {"percentile": 100.0 * (k + 1) / len(ordered), "value": ordered[k], "samples": len(ordered)}


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def run(args) -> int:
    if not (SRC / "twoproc" / "__init__.py").is_file():
        return fail(f"no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402  (imports twoproc from SRC)
    from spans import Tracer, unit_of  # noqa: E402

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    work_dir = OUT / f"{args.workload}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    attempted = failed = 0
    failures = []
    untraced = []  # (raw wall, scaled wall, None) per timed operation
    traced = []  # (raw wall, scaled wall, per-layer metrics) per traced operation
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        host = HostSpeed()
        setup = []  # (raw, scaled) per set-up probe
        for _ in range(SETUP_PROBES):
            elapsed = probe_setup(workload.model_files)
            setup.append((elapsed, elapsed * host.scale()))
        workload.prepare()

        def attempt(i, traced_op=False):
            """Run and check operation i; (raw wall, scaled wall, metrics) or None."""
            nonlocal attempted, failed
            attempted += 1
            result = None
            try:
                start = time.perf_counter()
                metrics = None
                if traced_op:
                    metrics = tracer.run_op(lambda: workload.op(i))
                else:
                    workload.op(i)
                wall = time.perf_counter() - start
                workload.check(i)
                result = wall, metrics
            except Exception as exc:  # any failed operation is counted, the run goes on
                failed += 1
                failures.append(f"op {i}: {type(exc).__name__}: {exc}")
            scale = host.scale()
            return None if result is None else (result[0], result[0] * scale, result[1])

        def loop(samples, seconds, traced_op, first):
            i = first
            until = time.perf_counter() + seconds
            while (time.perf_counter() < until or not samples) and failed < MAX_FAILURES:
                sample = attempt(i, traced_op)
                i += 1
                if sample is not None:
                    samples.append(sample)
            return i

        attempt(0)  # warm-up: checked, not timed
        i = loop(untraced, args.seconds / 2 if args.trace else args.seconds, False, 1)
        if args.trace:
            tracer.install()
            try:
                loop(traced, args.seconds / 2, True, i)
            finally:
                tracer.uninstall()
            OUT.mkdir(exist_ok=True)
            tracer.write_spans(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
        run_failures = workload.finish()
        if run_failures:
            failures.extend(run_failures)
            failed = attempted
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    raw = [s[0] for s in untraced]
    scaled = [s[1] for s in untraced]
    work = len(untraced) * workload.work_per_op
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "ops_timed": len(untraced),
        "ops_traced": len(traced),
        "work_unit": workload.work_unit,
        "work_per_op": workload.work_per_op,
        "wall_s": median(raw),
        "work_per_s": work / sum(raw) if raw else 0.0,
        "wall_s_ops": [round(w, 6) for w in raw],
        "host_scale_ops": [round(n / w, 4) for w, n in zip(raw, scaled)],
        "wall_tail_s": tail(raw),
        "setup_s": median([s[0] for s in setup]),
        "setup_s_probes": [round(s[0], 6) for s in setup],
        "trace_targets_missing": tracer.missing if tracer else [],
        "env": environment(),
        "failures": failures,
    }
    print(json.dumps({"info": info}))
    if args.trace:
        metrics = {}
        per_op = [s[2] for s in traced]
        for key in per_op[0] if per_op else []:
            values = [m[key] for m in per_op]
            unit = unit_of(key)
            # Counts are an observed per-operation value (they repeat exactly
            # except for output bytes); times are means so that the layer self
            # times and unattributed_s add up to trace.op_s.
            value = statistics.median_low(values) if unit in ("count", "bytes") else statistics.fmean(values)
            metrics[key] = {"value": value, "unit": unit}
        traced_wall = median([s[1] for s in traced])
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.untraced_wall_s"] = {"value": median(scaled), "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_wall - median(scaled), "unit": "s"}
    else:
        metrics = {
            "wall_norm_s": {"value": median(scaled), "unit": "s"},
            "work_norm_per_s": {"value": work / sum(scaled) if scaled else 0.0, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "setup_s": {"value": median([s[1] for s in setup]), "unit": "s"},
        }
    print(json.dumps({"correct": failed == 0 and not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(HERE))
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
