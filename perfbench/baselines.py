"""Re-measure the layer baselines quoted in ROADMAP item 1 on the bundled examples.

    python3 perfbench/baselines.py

Prints one line per baseline: integrate example3 (n=64, 10 time units) with
the share of it spent in RateFunction.__call__, limiting_regime + decay_fit
on example1/2/3, choose_truncation on example1, Monte Carlo on example3
(10^4 paths to t=80) with its rate share, and tune_weights on example3.
BLAS is pinned to one thread, as in the benchmark runs.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import sys  # noqa: E402
import time  # noqa: E402
from argparse import Namespace  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402
from twoproc import bounds, cli, mcsim, solver  # noqa: E402

CONFIGS = HERE.parent / "src" / "twoproc" / "configs"


def load(name):
    cfg = cli.load_model_file(CONFIGS / f"{name}.json")
    return cfg.spec, cli.resolve_solve_settings(cfg, Namespace())


def timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def traced(fn):
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.run_op(fn)
    finally:
        tracer.uninstall()


def main() -> None:
    spec3, settings3 = load("example3")
    short = replace(settings3, horizon=10.0)
    p0 = solver.empty_start(short.n)
    wall = timed(lambda: solver.integrate(spec3, short, p0))
    m = traced(lambda: solver.integrate(spec3, short, p0))
    print(f"integrate example3 n=64 10 units: {wall:.3f} s, {1e6 * wall / 10_000:.0f} us/step; "
          f"traced rate share {m['model.rate_s'] / m['trace.op_s']:.0%}")

    for name in ("example1", "example2", "example3"):
        spec, settings = load(name)
        if settings.n is None:
            settings = replace(settings, n=solver.choose_truncation(spec, settings))

        def regime_and_fit():
            regime = solver.limiting_regime(spec, settings)
            solver.decay_fit(regime.from_empty, regime.from_far)

        print(f"limiting_regime + decay_fit {name} (n={settings.n}): {timed(regime_and_fit):.2f} s")

    spec1, settings1 = load("example1")
    print(f"choose_truncation example1: {timed(lambda: solver.choose_truncation(spec1, settings1)):.2f} s")

    sim = mcsim.SimSettings(n_paths=10_000, seed=cli.DEFAULT_SEED, sample_times=(1.0, 5.0, 80.0))
    wall = timed(lambda: mcsim.estimate_probs(spec3, sim))
    m = traced(lambda: mcsim.estimate_probs(spec3, sim))
    print(f"Monte Carlo example3 10^4 paths to t=80: {wall:.2f} s, {10_000 / wall:.0f} paths/s, "
          f"{m['mcsim.path_candidates']:.3g} path-candidates; traced rate share "
          f"{m['model.rate_s'] / m['trace.op_s']:.0%}")

    print(f"tune_weights example3: {timed(lambda: bounds.tune_weights(spec3)):.3f} s")


if __name__ == "__main__":
    main()
