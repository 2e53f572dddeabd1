"""Self-tests of the benchmark itself (not of the package).

    python3 perfbench/selftest.py

1. Seeded inputs: the same seed writes byte-identical model files, other
   seeds write different ones, and every generated model passes the
   package's own validation (`cli.load_model_file`) as it is.
2. Exact counts: two traced runs of each workload with the same seed, in
   separate processes, report identical per-operation counts, and the solver
   workloads report the same solver.truncation_n and solver.rk4_steps for the
   default seed and for a seed that draws another phase.
3. Identities that hold at the commit that defined the benchmark:
   model.rate_calls.solver = 12 x solver.rk4_steps (three rates at each of the
   four RK4 stages) and model.rate_calls.mcsim = 3 x mcsim.candidate_iters.
   A change that evaluates the rates less often breaks them by design and
   updates this check with it.
4. Without the package source next to it the benchmark exits non-zero and
   prints no result.

Exit code 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_out" / "selftest"
DEFAULT_SEED = 1
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from twoproc import cli  # noqa: E402

failures = []


def check(ok: bool, message: str) -> None:
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def files_of(name: str, seed: int, tag: str) -> list[bytes]:
    wl = workloads.WORKLOADS[name](seed, SCRATCH / f"{name}-{seed}-{tag}")
    return [p.read_bytes() for p in wl.model_files]


def seeded_inputs() -> None:
    for name, cls in workloads.WORKLOADS.items():
        first = files_of(name, DEFAULT_SEED, "a")
        check(first == files_of(name, DEFAULT_SEED, "b"), f"{name}: seed {DEFAULT_SEED} rewrites identical bytes")
        distinct = {tuple(files_of(name, seed, "a")) for seed in range(1, 9)}
        check(len(distinct) > 1, f"{name}: seeds 1..8 give {len(distinct)} distinct inputs")
        wl = cls(DEFAULT_SEED, SCRATCH / f"{name}-{DEFAULT_SEED}-a")
        try:
            for path in wl.model_files:
                cli.load_model_file(path)
            check(True, f"{name}: generated models pass the package's validation")
        except cli.ConfigError as exc:
            check(False, f"{name}: generated model refused: {exc}")


BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench_run(name: str, seed: int, trace: int) -> dict:
    """One short run; checks it is correct and prints exactly the metrics BENCHMARK.json lists."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "2", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(proc.returncode == 0 and result["correct"], f"{name} seed {seed} trace {trace}: run correct")
    listed = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer" if trace else "end_to_end"]]
    printed = [(k, v["unit"]) for k, v in result["metrics"].items()]
    check(sorted(printed) == sorted(listed), f"{name} trace {trace}: metrics and units match BENCHMARK.json")
    return result["metrics"]


def traced_run(name: str, seed: int) -> dict:
    """Per-operation counts of a short traced run."""
    return {k: v["value"] for k, v in bench_run(name, seed, 1).items() if v["unit"] == "count"}


def other_phase_seed(cls) -> int:
    quarter = cls(DEFAULT_SEED, SCRATCH / "phase").quarter
    return next(s for s in range(2, 100) if cls(s, SCRATCH / "phase").quarter != quarter)


def exact_counts() -> None:
    for name, cls in workloads.WORKLOADS.items():
        bench_run(name, DEFAULT_SEED, 0)
        a, b = traced_run(name, DEFAULT_SEED), traced_run(name, DEFAULT_SEED)
        diff = sorted(k for k in a if a[k] != b.get(k))
        check(not diff, f"{name}: counts repeat exactly between runs" + (f" (differ: {diff})" if diff else ""))
        if name in ("solve-light", "truncate-heavy"):
            seed = other_phase_seed(cls)
            c = traced_run(name, seed)
            for key in ("solver.truncation_n", "solver.rk4_steps"):
                check(a[key] == c[key], f"{name}: {key} {a[key]} at seed {DEFAULT_SEED} and {c[key]} at seed {seed}")
            check(a["model.rate_calls.solver"] == 12 * a["solver.rk4_steps"] > 0,
                  f"{name}: rate calls in integrate {a['model.rate_calls.solver']} = 12 x {a['solver.rk4_steps']} RK4 steps")
        if name == "truncate-heavy":
            check(a["model.rate_calls"] == 12 * a["solver.rk4_steps"],
                  f"{name}: all {a['model.rate_calls']} rate calls = 12 x RK4 steps")
        if name == "simulate-hetero":
            check(a["model.rate_calls.mcsim"] == 3 * a["mcsim.candidate_iters"] > 0,
                  f"{name}: MC rate calls {a['model.rate_calls.mcsim']} = 3 x {a['mcsim.candidate_iters']} candidate iterations")
            check(a["mcsim.path_candidates"] == 10_000 * a["mcsim.candidate_iters"],
                  f"{name}: path candidates = paths x candidate iterations")


def refuses_without_package() -> None:
    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "solve-light", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    check(proc.returncode != 0 and '"metrics"' not in last, f"without src/: exit code {proc.returncode}, no result printed")


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        seeded_inputs()
        exact_counts()
        refuses_without_package()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
