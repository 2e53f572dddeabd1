"""Write references.json, the stored references the benchmark checks against.

    python3 perfbench/reference.py

* solve-light `cycle_mean`: the period average of the mean job count in the
  limiting periodic regime.  A phase shift only moves the cycle in time, so
  one value serves every seed.  Computed by this file's own RK4 integration
  of the forward Kolmogorov equations (n = 64 states, step 1e-3, 40 periods
  from empty), which shares no code with the package's solver.
* simulate-hetero `q<psi>-l<phi>`: probabilities of p00, p01, p10, p11 at the
  Monte-Carlo sample times for each of the eight phase pairs the workload can
  draw, from the same independent integration.
* `truncation_n`: the state count the package's `choose_truncation` accepts
  for every phase the solver workloads can draw.  This is a regression
  reference: the value the package gives at the commit that defined the
  benchmark, identical for all four phases.
"""

from __future__ import annotations

import json
import os
import sys
from argparse import Namespace
from pathlib import Path

HERE = Path(__file__).resolve().parent
os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import workloads  # noqa: E402

N_STATES = 64
STEP = 1e-3
STATE_INDEX = {"p00": 0, "p01": 2, "p10": 1, "p11": 3}


def kolmogorov_rhs(p, lam, mu1, mu2):
    """dp/dt for a batch of distributions p (B x n) on the conservative truncation.

    Arrivals move 0->1, 1->3, 2->3, k->k+1 (none from the last state); main
    completions 1->0, 3->2, k->k-1 (k >= 4); backup completions 2->0, 3->1,
    k->k-1 (k >= 4).  Rates are column vectors (B x 1).
    """
    out = np.zeros_like(p)
    arr = lam * p
    arr[:, -1] = 0.0
    out -= arr
    out[:, 1] += arr[:, 0]
    out[:, 3] += arr[:, 1] + arr[:, 2]
    out[:, 4:] += arr[:, 3:-1]
    for rate, skip, to_zero, from_three in ((mu1, 2, 1, 2), (mu2, 1, 2, 1)):
        dep = rate * p
        dep[:, 0] = 0.0
        dep[:, skip] = 0.0
        out -= dep
        out[:, 0] += dep[:, to_zero]
        out[:, from_three] += dep[:, 3]
        out[:, 3:-1] += dep[:, 4:]
    return out


def integrate(models, t_end, record):
    """RK4 from the empty state for a batch of model dicts; calls
    record(step_index, t, p) after every step."""
    p = np.zeros((len(models), N_STATES))
    p[:, 0] = 1.0
    steps = int(round(t_end / STEP))

    def rates(t):
        return [np.array([float(workloads.rate_values(m[k], t)) for m in models]).reshape(-1, 1)
                for k in ("lambda", "mu1", "mu2")]

    for i in range(steps):
        t = i * STEP
        r0, rh, r1 = rates(t), rates(t + STEP / 2), rates(t + STEP)
        k1 = kolmogorov_rhs(p, *r0)
        k2 = kolmogorov_rhs(p + STEP / 2 * k1, *rh)
        k3 = kolmogorov_rhs(p + STEP / 2 * k2, *rh)
        k4 = kolmogorov_rhs(p + STEP * k3, *r1)
        p = p + STEP / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        record(i + 1, (i + 1) * STEP, p)


def cycle_mean() -> float:
    model = workloads.SolveLight.model(0)
    counts = np.maximum(np.arange(N_STATES) - 1.0, 0.0)
    counts[1:3] = 1.0
    per_period = int(round(1.0 / STEP))
    periods = 40
    means = []

    def record(i, t, p):
        if i > (periods - 1) * per_period:
            means.append(float(counts @ p[0]))

    integrate([model], float(periods), record)
    return float(np.mean(means))


def mc_probs() -> dict:
    wl = workloads.SimulateHetero
    pairs = [(q, (q + shift) % 4) for q in range(4) for shift in (0, 2)]
    keys = [wl.key(q, lq) for q, lq in pairs]
    models = [wl.model(q, lq, 0) for q, lq in pairs]
    marks = {int(round(t / STEP)): j for j, t in enumerate(workloads.MC_SAMPLE_TIMES)}
    out = {k: {label: [0.0] * len(marks) for label in STATE_INDEX} for k in keys}

    def record(i, t, p):
        if i in marks:
            for b, key in enumerate(keys):
                for label, idx in STATE_INDEX.items():
                    out[key][label][marks[i]] = float(p[b, idx])

    integrate(models, max(workloads.MC_SAMPLE_TIMES), record)
    return out


def truncation_n(cls) -> int:
    from twoproc import cli, solver

    accepted = set()
    for q in range(4):
        path = HERE.parent / ".bench_out" / f"reference-{cls.name}-q{q}.json"
        path.parent.mkdir(exist_ok=True)
        workloads.write_model(path, cls.model(q))
        cfg = cli.load_model_file(path)
        accepted.add(solver.choose_truncation(cfg.spec, cli.resolve_solve_settings(cfg, Namespace())))
        path.unlink()
    if len(accepted) != 1:
        raise SystemExit(f"{cls.name}: phases disagree on the accepted truncation: {sorted(accepted)}")
    return accepted.pop()


def main() -> None:
    refs = {
        "solve-light": {"cycle_mean": cycle_mean(), "truncation_n": truncation_n(workloads.SolveLight)},
        "truncate-heavy": {"truncation_n": truncation_n(workloads.TruncateHeavy)},
        "simulate-hetero": mc_probs(),
    }
    (HERE / "references.json").write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    print(json.dumps(refs, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
