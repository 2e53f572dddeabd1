"""Seeded inputs, operations and output checks of the benchmark workloads.

Each workload writes its model file(s) from the workload seed, then runs one
operation at a time in a closed loop.  An operation is what a user of the
package waits for: one `twoproc solve`, one truncation search, one
`twoproc simulate`, or one `twoproc bound` sweep over a batch of models.
After every operation the outputs are checked against closed forms or
stored references, with tolerances the package documents; bit-identity of
solver floats is never required.

Phases are drawn in quarter periods.  A quarter-period shift turns
sin(2 pi t) into +-sin or +-cos exactly, so a rate such as 1 + sin(2 pi (t + phi))
that touches zero is written without rounding.  A general phase needs the
coefficients cos(2 pi phi) and sin(2 pi phi), whose rounded combination dips
to about -9e-16 at the minimum, and the package's sampled validation refuses
such a model (see NOTES.md).
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
import re
from argparse import Namespace
from pathlib import Path

import numpy as np

from twoproc import cli, solver

TRACKED = ("p00", "p01", "p10", "p11")
SWEEP_KINDS = (
    "equal-sin", "equal-sin", "hetero-const", "hetero-const",
    "table", "second-harmonic", "overloaded", "overloaded",
)
MC_SEEDS_PER_RUN = 4
MC_SAMPLE_TIMES = [1.0, 5.0, 20.0]


@functools.lru_cache(maxsize=None)
def references() -> dict:
    """Stored reference values, written by reference.py."""
    return json.loads(Path(__file__).with_name("references.json").read_text())


class CheckFailed(AssertionError):
    """An operation's output broke one of its checks."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def shifted_sin(amplitude: float, quarters: int) -> dict:
    """amplitude * sin(2 pi (t + quarters/4)) as one exact harmonic term."""
    sign, kind = ((1.0, "sin"), (1.0, "cos"), (-1.0, "sin"), (-1.0, "cos"))[quarters % 4]
    return {"amplitude": sign * amplitude, "kind": kind, "harmonic": 1}


def shifted_cos(amplitude: float, quarters: int) -> dict:
    """amplitude * cos(2 pi (t + quarters/4)); cos(x) = sin(x + pi/2)."""
    return shifted_sin(amplitude, quarters + 1)


def _r6(x: float) -> float:
    """Six decimals, so model files hold short exact parameters."""
    return round(x, 6)


def write_model(path: Path, model: dict) -> Path:
    path.write_text(json.dumps(model, indent=2, sort_keys=True) + "\n")
    return path


def rate_values(rate: dict, ts) -> np.ndarray:
    """Evaluate a model-file rate object on an array of times (own code, not the package's)."""
    ts = np.asarray(ts, dtype=float)
    if "table" in rate:
        breaks = np.array([b for b, _ in rate["table"]])
        values = np.array([v for _, v in rate["table"]])
        return values[np.searchsorted(breaks, ts % 1.0, side="right") - 1]
    out = np.full_like(ts, float(rate.get("constant", 0.0)))
    for h in rate.get("harmonics", []):
        fn = np.sin if h["kind"] == "sin" else np.cos
        out = out + h["amplitude"] * fn(2.0 * math.pi * h.get("harmonic", 1) * ts)
    return out


def rate_mean(rate: dict) -> float:
    """Exact period mean of a model-file rate object."""
    if "table" in rate:
        breaks = [b for b, _ in rate["table"]] + [1.0]
        return sum(v * (breaks[i + 1] - breaks[i]) for i, (_, v) in enumerate(rate["table"]))
    return float(rate.get("constant", 0.0))


def weighted_alphas(lam, mu1, mu2, epsilon, delta1, delta):
    """Negated column sums alpha_1..alpha_5 of the weighted transformed generator.

    Weights d = (1, epsilon, 1, delta1, delta1*delta, delta1*delta^2); the
    rates may be scalars or arrays.
    """
    d = (1.0, epsilon, 1.0, delta1, delta1 * delta, delta1 * delta * delta)
    mu = mu1 + mu2
    return np.array([
        (lam + mu1) - (d[1] / d[0]) * lam - (d[2] / d[0]) * lam,
        (lam + mu2) - (d[0] / d[1]) * (mu1 - mu2),
        (lam + mu) - (d[0] / d[2]) * mu2 - (d[3] / d[2]) * lam,
        (lam + mu) - (d[1] / d[3]) * mu2 - (d[2] / d[3]) * mu - (d[4] / d[3]) * lam,
        (lam + mu) - (d[3] / d[4]) * mu - (d[5] / d[4]) * lam,
    ])


def equal_mu_alphas(lam, mu, epsilon):
    """Pointwise-route closed forms for mu1 = mu2 with ratio sqrt(mu/lambda)."""
    root = np.sqrt(lam * mu)
    gap = (np.sqrt(lam) - np.sqrt(mu)) ** 2
    return np.array([mu / 2.0 - epsilon * lam, lam + mu / 2.0, mu / 2.0 + lam - root,
                     gap - (epsilon / 2.0) * root, gap])


def hetero_alphas(lam, mu2, chi, epsilon, delta1, delta):
    """Constant-rate closed forms for mu1 = (1 + chi) mu2."""
    return np.array([
        (1.0 + chi) * mu2 - epsilon * lam,
        lam + mu2 * (1.0 - chi / epsilon),
        lam * (1.0 - delta1) + (1.0 + chi) * mu2,
        lam * (1.0 - delta) + mu2 * (2.0 + chi - (2.0 + epsilon + chi) / delta1),
        lam * (1.0 - delta) + mu2 * (1.0 - 1.0 / delta) * (2.0 + chi),
    ])


def run_cli(argv) -> int:
    """`twoproc <argv>` in-process, with its console report discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class Workload:
    """One seeded workload: generate inputs, run an operation, check it."""

    name = ""
    work_unit = "operation"
    work_per_op = 1

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.rng = random.Random(f"twoproc-bench/{self.name}/{seed}")
        self.work_dir = work_dir
        self.model_dir = work_dir / "models"
        self.out_dir = work_dir / "out"
        self.model_dir.mkdir(parents=True, exist_ok=True)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.models = self.generate()
        self.model_files = [write_model(self.model_dir / f"{m['name']}.json", m) for m in self.models]

    def generate(self) -> list[dict]:
        raise NotImplementedError

    def prepare(self) -> None:
        """Load what the operation needs before the first operation."""

    def op(self, i: int) -> None:
        raise NotImplementedError

    def check(self, i: int) -> None:
        """Raise CheckFailed when operation i produced a wrong output."""

    def finish(self) -> list[str]:
        """Run-level checks over all operations; returns the failures."""
        return []


class SolveLight(Workload):
    """`twoproc solve` on the example1 family: lambda = 1 + sin(2 pi (t + phi)), mu1 = mu2 = 2."""

    name = "solve-light"
    work_unit = "solve"

    def generate(self):
        self.quarter = self.rng.randrange(4)
        return [self.model(self.quarter)]

    @staticmethod
    def model(quarter: int) -> dict:
        return {
            "name": f"solve-light-q{quarter}",
            "lambda": {"constant": 1.0, "harmonics": [shifted_sin(1.0, quarter)]},
            "mu1": {"constant": 2.0},
            "mu2": {"constant": 2.0},
            "weights": {"epsilon": 0.01},
            "solve": {"step": 0.004, "horizon": 20.0, "tol_truncation": 1e-6, "tol_mix": 1e-5},
        }

    def op(self, i):
        rc = run_cli(["solve", "--model", self.model_files[0], "--out", self.out_dir])
        require(rc == 0, f"solve exited with {rc}")

    def check(self, i):
        model = self.models[0]
        ref = references()[self.name]
        report = (self.out_dir / "report.txt").read_text()
        n_found = re.search(r"truncation n: (\d+)", report)
        fit_found = re.search(r"fitted decay rate: (\S+)", report)
        require(n_found is not None and fit_found is not None, "report.txt lacks n or the fitted rate")
        n = int(n_found.group(1))
        require(n == ref["truncation_n"], f"accepted n {n} != stored {ref['truncation_n']}")
        lam = rate_mean(model["lambda"])
        mu1, mu2 = rate_mean(model["mu1"]), rate_mean(model["mu2"])
        delta = math.sqrt((mu1 + mu2) / lam)
        beta0 = float(np.min(weighted_alphas(lam, mu1, mu2, model["weights"]["epsilon"], delta, delta)))
        beta_hat = float(fit_found.group(1))
        require(beta_hat >= beta0 - 0.05, f"fitted rate {beta_hat} < beta*_0 - 0.05 = {beta0 - 0.05}")
        for name in ("trajectory_x0.csv", "trajectory_xfar.csv", "limit_cycle.csv"):
            rows = read_csv(self.out_dir / name)
            probs = rows[:, 1:-1]
            require(probs.shape[1] == n, f"{name} has {probs.shape[1]} states, expected {n}")
            require(float(probs.min()) >= 0.0, f"{name} has a negative probability")
            # 12 significant digits per cell bound the rounding of a row sum by n * 5e-13.
            worst = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
            require(worst <= n * 5e-13 + 1e-15, f"{name} row sums miss 1 by {worst:.3g}")
        cycle_mean = float(np.mean(rows[:-1, -1]))  # rows of limit_cycle.csv, one period
        # Trajectories within tol_mix in l1 move the mean by at most (n-1)*tol_mix;
        # accepting n leaves at most tol_truncation between the n and 2n means.
        solve = model["solve"]
        tol = (n - 1) * solve["tol_mix"] + solve["tol_truncation"]
        require(abs(cycle_mean - ref["cycle_mean"]) <= tol,
                f"limit-cycle mean {cycle_mean:.9g} vs reference {ref['cycle_mean']:.9g} (tol {tol:.3g})")


class TruncateHeavy(Workload):
    """`solver.choose_truncation` at rho = 0.95: lambda = 3.8 (1 + sin 2 pi (t + phi)), mu1 = mu2 = 2."""

    name = "truncate-heavy"
    work_unit = "search"

    def generate(self):
        self.quarter = self.rng.randrange(4)
        return [self.model(self.quarter)]

    @staticmethod
    def model(quarter: int) -> dict:
        return {
            "name": f"truncate-heavy-q{quarter}",
            "lambda": {"constant": 3.8, "harmonics": [shifted_sin(3.8, quarter)]},
            "mu1": {"constant": 2.0},
            "mu2": {"constant": 2.0},
            "solve": {"step": 0.02, "horizon": 40.0, "tol_truncation": 1e-6},
        }

    def prepare(self):
        cfg = cli.load_model_file(self.model_files[0])
        self.spec = cfg.spec
        self.settings = cli.resolve_solve_settings(cfg, Namespace())
        self.accepted = None

    def op(self, i):
        self.accepted = solver.choose_truncation(self.spec, self.settings)

    def check(self, i):
        want = references()[self.name]["truncation_n"]
        require(self.accepted == want, f"accepted n {self.accepted} != stored {want}")


class SimulateHetero(Workload):
    """`twoproc simulate` on the example3 rates, 10^4 paths at t = 1, 5, 20."""

    name = "simulate-hetero"
    work_unit = "path"
    work_per_op = 10_000

    def generate(self):
        # mu1 and mu2 share the phase psi; lambda's own phase is psi or psi + 1/2.
        # Both keep max(lambda + mu1 + mu2) = 19 + sqrt(185), so the dominating
        # rate, the candidate budget and the work per path do not depend on the seed.
        self.quarter = self.rng.randrange(4)
        self.lam_quarter = (self.quarter + 2 * self.rng.randrange(2)) % 4
        self.mc_seeds = [self.rng.randrange(2**31) for _ in range(MC_SEEDS_PER_RUN)]
        return [self.model(self.quarter, self.lam_quarter, self.mc_seeds[0])]

    @classmethod
    def model(cls, quarter: int, lam_quarter: int, mc_seed: int) -> dict:
        return {
            "name": f"simulate-hetero-{cls.key(quarter, lam_quarter)}",
            "lambda": {"constant": 8.0, "harmonics": [shifted_sin(8.0, lam_quarter)]},
            "mu1": {"constant": 6.0, "harmonics": [shifted_cos(6.0, quarter)]},
            "mu2": {"constant": 5.0, "harmonics": [shifted_cos(5.0, quarter)]},
            "simulate": {"paths": cls.work_per_op, "seed": mc_seed, "sample_times": MC_SAMPLE_TIMES},
        }

    @staticmethod
    def key(quarter: int, lam_quarter: int) -> str:
        """Name of the phase pair in references.json."""
        return f"q{quarter}-l{lam_quarter}"

    def prepare(self):
        self.first_csv = {}
        self.cells = []

    def mc_seed(self, i: int) -> int:
        return self.mc_seeds[i % len(self.mc_seeds)]

    def op(self, i):
        rc = run_cli(["simulate", "--model", self.model_files[0], "--out", self.out_dir,
                      "--seed", self.mc_seed(i)])
        require(rc == 0, f"simulate exited with {rc}")

    def check(self, i):
        raw = (self.out_dir / "mc_estimates.csv").read_bytes()
        seed = self.mc_seed(i)
        if seed in self.first_csv:
            require(raw == self.first_csv[seed], f"mc_estimates.csv differs between runs of seed {seed}")
            return
        self.first_csv[seed] = raw
        paths = self.work_per_op
        by_time = {}
        for line in raw.decode("ascii").splitlines()[1:]:
            t, state, est, se = line.split(",")
            by_time.setdefault(float(t), {})[state] = (float(est), float(se))
        require(sorted(by_time) == MC_SAMPLE_TIMES, f"sample times {sorted(by_time)}")
        probs = references()[self.name][self.key(self.quarter, self.lam_quarter)]
        for j, t in enumerate(MC_SAMPLE_TIMES):
            counts = sum(round(est * paths) for est, _ in by_time[t].values())
            require(counts == paths, f"counts at t={t:g} sum to {counts}, not {paths}")
            for label in TRACKED:
                est, se = by_time[t].get(label, (0.0, 0.5 / paths))
                self.cells.append(abs(est - probs[label][j]) <= 3.0 * se)

    def finish(self):
        hits = sum(self.cells)
        if self.cells and hits < 0.95 * len(self.cells):
            return [f"MC/ODE agreement: {hits}/{len(self.cells)} tracked cells within 3 SE"]
        return []


class CertifySweep(Workload):
    """`twoproc bound` over a seeded batch of models with no weights block."""

    name = "certify-sweep"
    work_unit = "model"
    work_per_op = len(SWEEP_KINDS)

    def generate(self):
        rng = self.rng
        models = []
        for j, kind in enumerate(SWEEP_KINDS):
            m = _r6(rng.uniform(1.0, 3.0))
            chi = _r6(rng.uniform(0.1, 0.5))
            if kind in ("equal-sin", "overloaded"):
                rho = rng.uniform(0.3, 0.8) if kind == "equal-sin" else rng.uniform(1.05, 1.5)
                a = _r6(rho * 2.0 * m)
                amp = _r6(rng.uniform(0.2, 0.9) * a)
                lam = {"constant": a, "harmonics": [{"amplitude": amp, "kind": rng.choice(("sin", "cos")),
                                                     "harmonic": 1}]}
                mu1 = mu2 = {"constant": m}
            elif kind == "hetero-const":
                mu1, mu2 = {"constant": _r6((1.0 + chi) * m)}, {"constant": m}
                lam = {"constant": _r6(rng.uniform(0.3, 0.8) * (mu1["constant"] + m))}
            elif kind == "table":
                mean = rng.uniform(0.3, 0.8) * 2.0 * m
                b, w = _r6(rng.uniform(0.3, 0.7)), rng.uniform(-0.4, 0.4)
                lam = {"table": [[0.0, _r6(mean * (1.0 + w))], [b, _r6(mean * (1.0 - w * b / (1.0 - b)))]]}
                mu1 = mu2 = {"constant": m}
            else:  # second-harmonic arrivals on heterogeneous constant servers
                mu1, mu2 = {"constant": _r6((1.0 + chi) * m)}, {"constant": m}
                a = _r6(rng.uniform(0.3, 0.8) * (mu1["constant"] + m))
                lam = {"constant": a, "harmonics": [
                    {"amplitude": _r6(rng.uniform(0.1, 0.5) * a), "kind": "sin", "harmonic": 1},
                    {"amplitude": _r6(rng.uniform(0.1, 0.4) * a), "kind": "cos", "harmonic": 2}]}
            models.append({"name": f"sweep-{j}-{kind}", "lambda": lam, "mu1": mu1, "mu2": mu2})
        return models

    def prepare(self):
        self.rcs = [None] * len(self.models)

    def op(self, i):
        for j, path in enumerate(self.model_files):
            self.rcs[j] = run_cli(["bound", "--model", path, "--out", self.out_dir / str(j)])

    def check(self, i):
        for j, (model, rc) in enumerate(zip(self.models, self.rcs)):
            out = self.out_dir / str(j)
            if SWEEP_KINDS[j] == "overloaded":
                require(rc == 2, f"{model['name']}: overloaded model exited with {rc}, expected 2")
                text = (out / "certificate.txt").read_text()
                require(text.startswith("ergodicity not certified"), f"{model['name']}: {text[:60]!r}")
                continue
            require(rc == 0, f"{model['name']}: bound exited with {rc}")
            cert = json.loads((out / "certificate.json").read_text())
            self.check_certificate(model, cert)

    @staticmethod
    def check_certificate(model: dict, cert: dict) -> None:
        name = model["name"]
        w = cert["weights"]
        eps, d1, delta = w["epsilon"], w["delta1"], w["delta"]
        lam, mu1, mu2 = (rate_mean(model[k]) for k in ("lambda", "mu1", "mu2"))
        require(abs(delta - math.sqrt((mu1 + mu2) / lam)) <= 1e-12 * delta, f"{name}: delta != sqrt(mu*/lambda*)")
        alphas = weighted_alphas(lam, mu1, mu2, eps, d1, delta)
        beta0 = float(np.min(alphas))
        require(abs(cert["beta_star_avg"] - beta0) <= 1e-10, f"{name}: beta*_0 {cert['beta_star_avg']} != {beta0}")
        require(cert["binding_alpha"] == int(np.argmin(alphas)) + 1, f"{name}: binding alpha index")
        if "harmonics" not in model["lambda"] and "table" not in model["lambda"] and mu1 != mu2:
            het = float(np.min(hetero_alphas(lam, mu2, mu1 / mu2 - 1.0, eps, d1, delta)))
            require(abs(cert["beta_star_avg"] - het) <= 1e-10, f"{name}: heterogeneous closed form {het}")
        grid = np.linspace(0.0, 1.0, 2049)
        lam_t = rate_values(model["lambda"], grid)
        if model["mu1"] == model["mu2"]:
            curve = equal_mu_alphas(lam_t, 2.0 * rate_values(model["mu1"], grid), eps)
        else:
            curve = weighted_alphas(lam_t, rate_values(model["mu1"], grid), rate_values(model["mu2"], grid),
                                    eps, d1, delta)
        inf = float(np.min(curve))
        got = cert["beta_star_periodic"]
        if inf > 0.0:
            require(got is not None and abs(got - inf) <= 1e-10, f"{name}: periodic beta* {got} != {inf}")
        else:
            require(got is None, f"{name}: periodic beta* {got} reported for curve infimum {inf}")


WORKLOADS = {cls.name: cls for cls in (SolveLight, TruncateHeavy, SimulateHetero, CertifySweep)}

