"""Command-line front end: bound / solve / simulate / compare / dump.

Reads a JSON model file (see docs/config.md), writes CSV reports and static
SVG charts into an output directory.  Each command takes only the flags it
reads (`COMMANDS`); a flag overrides the model-file value named in `FLAGS`.

Exit codes:
  0  success
  1  usage, configuration or runtime error: one `error: ...` line on stderr,
     or `<command> failed: ...` on stdout when the solver gives up
  2  ergodicity not certified
  3  comparison thresholds violated
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import bounds, mcsim, solver
from .charts import write_chart
from .matrices import WeightSequence, build_A, build_B, build_transformed, format_matrix
from .model import ModelSpec, RateFunction, state_label
from .solver import SolveSettings

OUT_ENV = "TWOPROC_OUT"
TRACKED_STATES = (0, 2, 1, 3)  # p00, p01, p10, p11
DEFAULT_PATHS = 100_000
DEFAULT_SEED = 20240601


class ConfigError(ValueError):
    pass


# -- model files -----------------------------------------------------------

_TOP_KEYS = {"name", "lambda", "mu1", "mu2", "weights", "solve", "simulate"}
_RATE_KEYS = {"constant", "harmonics", "table"}
_HARMONIC_KEYS = {"amplitude", "kind", "harmonic"}
_WEIGHT_KEYS = {"epsilon", "delta1", "delta"}
_SOLVE_KEYS = {"n", "step", "horizon", "tol_truncation", "tol_mix"}
_SIM_KEYS = {"paths", "seed", "sample_times"}


def _reject_unknown(obj: dict, allowed: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}")


def _parse_rate(obj, where: str) -> RateFunction:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    _reject_unknown(obj, _RATE_KEYS, where)
    try:
        if "table" in obj:
            if "constant" in obj or "harmonics" in obj:
                raise ConfigError(f"{where}: table form excludes constant/harmonics")
            return RateFunction.piecewise([(float(b), float(v)) for b, v in obj["table"]])
        harmonics = []
        for h in obj.get("harmonics", []):
            _reject_unknown(h, _HARMONIC_KEYS, f"{where}.harmonics entry")
            harmonics.append((float(h["amplitude"]), str(h["kind"]), int(h.get("harmonic", 1))))
        return RateFunction.trig(float(obj.get("constant", 0.0)), harmonics)
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class ModelConfig:
    name: str
    spec: ModelSpec
    weights: dict
    solve: dict
    simulate: dict


def load_model_file(path) -> ModelConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"model file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("model file must hold a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "model file")
    for key in ("lambda", "mu1", "mu2"):
        if key not in raw:
            raise ConfigError(f"model file misses required key {key!r}")
    try:
        spec = ModelSpec(
            lam=_parse_rate(raw["lambda"], "lambda"),
            mu1=_parse_rate(raw["mu1"], "mu1"),
            mu2=_parse_rate(raw["mu2"], "mu2"),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid model: {exc}") from exc
    weights = raw.get("weights", {})
    _reject_unknown(weights, _WEIGHT_KEYS, "weights")
    solve = raw.get("solve", {})
    _reject_unknown(solve, _SOLVE_KEYS, "solve")
    sim = raw.get("simulate", {})
    _reject_unknown(sim, _SIM_KEYS, "simulate")
    return ModelConfig(
        name=str(raw.get("name", Path(path).stem)),
        spec=spec,
        weights=weights,
        solve=solve,
        simulate=sim,
    )


# dest -> (model-file section, key, argparse keywords); the flag is
# --dest with "_" written "-", and overrides the file value when it has one.
FLAGS = {
    "model": (None, None, {"required": True, "help": "path to a JSON model file"}),
    "out": (None, None, {"help": f"output directory (default ${OUT_ENV} or ./twoproc-out)"}),
    "n": ("solve", "n", {"type": int, "help": "truncation level"}),
    "step": ("solve", "step", {"type": float, "help": "RK4 step size"}),
    "horizon": ("solve", "horizon", {"type": float, "help": "integration end time"}),
    "paths": ("simulate", "paths", {"type": int, "help": "Monte Carlo path count"}),
    "seed": ("simulate", "seed", {"type": int, "help": "Monte Carlo seed"}),
    "epsilon": ("weights", "epsilon", {"type": float, "help": "weight d2"}),
    "delta1": ("weights", "delta1", {"type": float, "help": "weight d4"}),
    "tol_mix": ("solve", "tol_mix", {"type": float, "help": "merge tolerance"}),
    "tol_trunc": ("solve", "tol_truncation", {"type": float, "help": "truncation-doubling tolerance"}),
    "force": (None, None, {"action": "store_true", "help": "solve even without a certificate"}),
    "what": (None, None, {"choices": ("A", "B", "f", "transformed"), "default": "A", "help": "matrix to print"}),
    "t": (None, None, {"type": float, "default": 0.0, "help": "evaluation time"}),
    "conservative": (None, None, {"action": "store_true", "help": "conservative last column for A"}),
}


def _setting(cfg: ModelConfig, args, dest: str, default=None):
    """The flag when given, else the model-file value, else the default."""
    value = getattr(args, dest, None)
    if value is None:
        section, key, _ = FLAGS[dest]
        value = getattr(cfg, section).get(key, default)
    return value


def resolve_weights(cfg: ModelConfig, args) -> WeightSequence | None:
    """Weights from flags/config, or None to let the engine tune them."""
    eps = _setting(cfg, args, "epsilon")
    if eps is None:
        return None
    lam_m, _, _, mu_m = cfg.spec.mean_rates()
    if not lam_m < mu_m:
        return None  # certificate generation will refuse anyway
    delta = cfg.weights.get("delta", bounds.geometric_ratio(cfg.spec))
    d1 = _setting(cfg, args, "delta1", delta)
    try:
        return WeightSequence(epsilon=float(eps), delta1=float(d1), delta=float(delta))
    except ValueError as exc:
        raise ConfigError(f"invalid weights: {exc}") from exc


def resolve_solve_settings(cfg: ModelConfig, args) -> SolveSettings:
    defaults = asdict(SolveSettings())
    merged = {key: _setting(cfg, args, dest, defaults[key])
              for dest, (section, key, _) in FLAGS.items() if section == "solve"}
    try:
        return SolveSettings(
            n=None if merged["n"] is None else int(merged["n"]),
            step=float(merged["step"]),
            horizon=float(merged["horizon"]),
            tol_truncation=float(merged["tol_truncation"]),
            tol_mix=float(merged["tol_mix"]),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid solve settings: {exc}") from exc


def _resolve_sim(cfg: ModelConfig, args, horizon: float) -> mcsim.SimSettings:
    times = cfg.simulate.get("sample_times")
    if times is None:
        times = [1.0, 5.0, horizon]
    return mcsim.SimSettings(
        n_paths=int(_setting(cfg, args, "paths", DEFAULT_PATHS)),
        seed=int(_setting(cfg, args, "seed", DEFAULT_SEED)),
        sample_times=tuple(float(t) for t in times),
    )


def _out_dir(args) -> Path:
    out = getattr(args, "out", None) or os.environ.get(OUT_ENV) or "twoproc-out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# -- CSV writers ------------------------------------------------------------

CSV_FLOAT = "%.12g"
CSV_BLOCK_CELLS = 8192  # cells stacked and formatted together (a 64 KiB block)


def _csv_order(n: int) -> list[int]:
    order = [0, 2, 1]
    order.extend(range(3, n))
    return order


def write_trajectory_csv(path, traj: solver.Trajectory) -> None:
    order = _csv_order(traj.n)
    header = "t," + ",".join(state_label(k) for k in order) + ",mean"
    row = ",".join([CSV_FLOAT] * (traj.n + 2)) + "\n"
    span = max(1, CSV_BLOCK_CELLS // (traj.n + 2))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(traj.times), span):
            rows = slice(lo, lo + span)
            block = np.column_stack([traj.times[rows], traj.probs[rows][:, order], traj.mean[rows]])
            fh.writelines(row % tuple(cells.tolist()) for cells in block)


def write_mc_csv(path, est: mcsim.SimEstimate) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("t,state,estimate,stderr\n")
        for i, t in enumerate(est.times):
            for k in range(est.counts.shape[1]):
                fh.write(
                    f"{CSV_FLOAT % t},{state_label(k)},"
                    f"{CSV_FLOAT % est.estimates[i, k]},{CSV_FLOAT % est.stderrs[i, k]}\n"
                )


# -- commands ---------------------------------------------------------------


def cmd_bound(args) -> int:
    cfg = load_model_file(args.model)
    out = _out_dir(args)
    result = bounds.make_certificate(cfg.spec, resolve_weights(cfg, args))
    if isinstance(result, bounds.NoCertificate):
        print(result.reason)
        (out / "certificate.txt").write_text(result.reason + "\n")
        return 2
    report = bounds.certificate_report(result, cfg.spec)
    (out / "certificate.txt").write_text(report)
    (out / "certificate.json").write_text(
        json.dumps({**asdict(result), "beta_star": result.beta_star}, indent=2, sort_keys=True) + "\n"
    )
    print("\n".join(report.splitlines()[:12]))
    print(f"full report: {out / 'certificate.txt'}")
    return 0


# Solver failures that main reports as "<command> failed: ..." (exit 1).
SOLVE_ERRORS = (solver.MixingHorizonError, solver.TruncationLimitError, solver.StepSizeError,
                solver.FitWindowError)


def _certified_regime(args):
    """Load the model, certify it, and compute its limiting regime and decay fit.

    Returns (cfg, out, cert, settings, regime, fit) with the accepted
    truncation in settings.n, or None once a refusal is printed; with --force
    a refused model is solved and cert is None.
    """
    cfg = load_model_file(args.model)
    out = _out_dir(args)
    cert = bounds.make_certificate(cfg.spec, resolve_weights(cfg, args))
    if isinstance(cert, bounds.NoCertificate):
        print(cert.reason)
        if not getattr(args, "force", False):
            return None
        cert = None
    settings = resolve_solve_settings(cfg, args)
    regime = solver.limiting_regime(cfg.spec, settings)
    fit = solver.decay_fit(regime.from_empty, regime.from_far, cert.weights if cert else None)
    return cfg, out, cert, replace(settings, n=regime.from_empty.n), regime, fit


def cmd_solve(args) -> int:
    solved = _certified_regime(args)
    if solved is None:
        return 2
    cfg, out, cert, settings, regime, fit = solved
    write_trajectory_csv(out / "trajectory_x0.csv", regime.from_empty)
    write_trajectory_csv(out / "trajectory_xfar.csv", regime.from_far)
    write_trajectory_csv(out / "limit_cycle.csv", regime.cycle)

    t0 = regime.from_empty.times
    far_label = f"start index {solver.far_initial_state(settings.n)}"
    for k in TRACKED_STATES:
        write_chart(
            out / f"{state_label(k)}.svg",
            [("start empty", t0, regime.from_empty.probs[:, k]),
             (far_label, t0, regime.from_far.probs[:, k])],
            title=f"{cfg.name}: {state_label(k)}(t)",
            ylabel=state_label(k),
        )
    write_chart(
        out / "mean.svg",
        [("start empty", t0, regime.from_empty.mean),
         (far_label, t0, regime.from_far.mean)],
        title=f"{cfg.name}: mean jobs E(t)",
        ylabel="E(t)",
    )
    write_chart(
        out / "mean_cycle.svg",
        [("limiting regime", regime.cycle.times, regime.cycle.mean)],
        title=f"{cfg.name}: limiting-regime mean over one period",
        ylabel="E(t)",
    )

    lines = [
        f"model: {cfg.name}",
        f"truncation n: {settings.n}   step: {regime.from_empty.step:g}   horizon: {settings.horizon:g}",
        f"t_mix (l1 gap < {settings.tol_mix:g}): {regime.t_mix:g}",
        f"fitted decay rate: {fit.beta_hat:.6g} over t in [{fit.window[0]:g}, {fit.window[1]:g}] ({fit.n_points} samples)",
        f"fitted prefactor: {fit.prefactor_hat:.6g}",
        f"defect per unit time (empty start): {regime.from_empty.defect_per_unit_time:.3g}",
        f"defect per unit time (far start):   {regime.from_far.defect_per_unit_time:.3g}",
        f"limit-cycle mean range: [{regime.cycle.mean.min():.6g}, {regime.cycle.mean.max():.6g}]",
    ]
    if cert is not None:
        check = solver.contraction_check(
            regime.from_empty, regime.from_far, cfg.spec, cert.weights, cert.beta_star_avg
        )
        cert = replace(cert, prefactor_N=check.prefactor_measured)
        lines.append(f"certified beta*_0: {cert.beta_star_avg:.6g}  measured prefactor N: {check.prefactor_measured:.6g}")
        lines.append(f"certified-route ratio max (should stay near/below 1): {check.ratio_certified_max:.6g}")
        (out / "certificate.txt").write_text(bounds.certificate_report(cert, cfg.spec))
    report = "\n".join(lines) + "\n"
    (out / "report.txt").write_text(report)
    print(report, end="")
    return 0


def cmd_simulate(args) -> int:
    cfg = load_model_file(args.model)
    out = _out_dir(args)
    settings = resolve_solve_settings(cfg, args)
    sim = _resolve_sim(cfg, args, settings.horizon)
    est = mcsim.estimate_probs(cfg.spec, sim)
    write_mc_csv(out / "mc_estimates.csv", est)
    lines = [f"model: {cfg.name}", f"paths: {sim.n_paths}   seed: {sim.seed}"]
    for i, t in enumerate(est.times):
        tracked = "  ".join(
            f"{state_label(k)}={est.estimates[i, k]:.4f}+-{est.stderrs[i, k]:.4f}"
            for k in TRACKED_STATES if k < est.counts.shape[1]
        )
        lines.append(f"t={t:g}: {tracked}")
    report = "\n".join(lines) + "\n"
    (out / "mc_report.txt").write_text(report)
    print(report, end="")
    return 0


def cmd_compare(args) -> int:
    solved = _certified_regime(args)
    if solved is None:
        return 2
    cfg, out, cert, settings, regime, fit = solved
    regime_avg = solver.limiting_regime(cfg.spec.averaged(), settings)
    fit_avg = solver.decay_fit(regime_avg.from_empty, regime_avg.from_far, cert.weights)
    check = solver.contraction_check(
        regime.from_empty, regime.from_far, cfg.spec, cert.weights, cert.beta_star_avg
    )

    sim = _resolve_sim(cfg, args, settings.horizon)
    est = mcsim.estimate_probs(cfg.spec, sim)
    write_mc_csv(out / "mc_estimates.csv", est)

    rows = []
    hits = 0
    for i, t in enumerate(est.times):
        ode_p = regime.from_empty.prob_at(t)
        for k in TRACKED_STATES:
            mc = est.estimates[i, k] if k < est.counts.shape[1] else 0.0
            se = est.stderrs[i, k] if k < est.counts.shape[1] else 0.5 / sim.n_paths
            diff = abs(mc - ode_p[k])
            ok = diff <= 3.0 * se
            hits += ok
            rows.append((t, state_label(k), mc, ode_p[k], se, ok))
    frac = hits / len(rows)

    rel_gap = abs(fit.beta_hat - fit_avg.beta_hat) / fit_avg.beta_hat
    slope_ok = fit.beta_hat >= cert.beta_star_avg - 0.05
    ratio_ok = bool(np.all(check.ratio_avg <= 1.05 * check.prefactor_measured))
    agree_ok = frac >= 0.95
    equal_ok = rel_gap <= 0.05

    with open(out / "agreement.csv", "w", encoding="ascii", newline="\n") as fh:
        fh.write("t,state,mc_estimate,ode_prob,stderr,within_3se\n")
        for t, lbl, mc, ode, se, ok in rows:
            fh.write(f"{CSV_FLOAT % t},{lbl},{CSV_FLOAT % mc},"
                     f"{CSV_FLOAT % ode},{CSV_FLOAT % se},{int(ok)}\n")

    cert = replace(cert, prefactor_N=check.prefactor_measured)
    (out / "certificate.txt").write_text(bounds.certificate_report(cert, cfg.spec))
    lines = [
        f"model: {cfg.name}   n: {settings.n}   horizon: {settings.horizon:g}   paths: {sim.n_paths}",
        f"[{'PASS' if agree_ok else 'FAIL'}] MC/ODE agreement: {hits}/{len(rows)} tracked cells within 3 SE",
        f"[{'PASS' if equal_ok else 'FAIL'}] decay-rate equality: periodic {fit.beta_hat:.5g} vs averaged "
        f"{fit_avg.beta_hat:.5g} (relative gap {rel_gap:.3%})",
        f"[{'PASS' if slope_ok else 'FAIL'}] fitted rate {fit.beta_hat:.5g} >= beta*_0 - 0.05 = "
        f"{cert.beta_star_avg - 0.05:.5g}",
        f"[{'PASS' if ratio_ok else 'FAIL'}] weighted contraction: measured prefactor N = "
        f"{check.prefactor_measured:.5g}, certified-route ratio max {check.ratio_certified_max:.5g}",
    ]
    for t, lbl, mc, ode, se, ok in rows:
        lines.append(f"  t={t:>6g} {lbl}: mc={mc:.5f} ode={ode:.5f} se={se:.5f} {'ok' if ok else 'MISS'}")
    report = "\n".join(lines) + "\n"
    (out / "compare_report.txt").write_text(report)
    print(report, end="")
    return 0 if (agree_ok and equal_ok and slope_ok and ratio_ok) else 3


def cmd_dump(args) -> int:
    cfg = load_model_file(args.model)
    n = 12 if args.n is None else args.n
    t = args.t
    if args.what == "A":
        sys.stdout.write(format_matrix(build_A(cfg.spec, t, n, conservative=args.conservative)))
    elif args.what == "B":
        B, _ = build_B(cfg.spec, t, n)
        sys.stdout.write(format_matrix(B))
    elif args.what == "f":
        _, f = build_B(cfg.spec, t, n)
        sys.stdout.write(format_matrix(f[None, :]))
    else:
        weights = resolve_weights(cfg, args)
        if weights is None:
            weights = bounds.tune_weights(cfg.spec)
        sys.stdout.write(format_matrix(build_transformed(cfg.spec, weights, t, n)))
    return 0


# -- argument parsing --------------------------------------------------------


COMMANDS = {
    "bound": (cmd_bound, "compute a convergence certificate", {"model", "out", "epsilon", "delta1"}),
    "solve": (cmd_solve, "integrate the Kolmogorov system and extract the limiting regime",
              {"model", "out", "epsilon", "delta1", "n", "step", "horizon", "tol_mix", "tol_trunc", "force"}),
    "simulate": (cmd_simulate, "Monte Carlo state estimates", {"model", "out", "horizon", "paths", "seed"}),
    "compare": (cmd_compare, "cross-validate solver, simulator and averaged model",
                {"model", "out", "epsilon", "delta1", "n", "step", "horizon", "tol_mix", "tol_trunc",
                 "paths", "seed"}),
    "dump": (cmd_dump, "print a dense matrix truncation (debug; --n defaults to 12)",
             {"model", "n", "epsilon", "delta1", "what", "t", "conservative"}),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError (exit 1 in main) instead of exiting 2."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by later ones."""
    parser = _Parser(
        prog="twoproc",
        description="Convergence bounds and transient analysis for a two-processor heterogeneous queue",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for dest, (_, _, kwargs) in FLAGS.items():
            if dest in flags:
                p.add_argument("--" + dest.replace("_", "-"), dest=dest, **kwargs)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except SOLVE_ERRORS as exc:
        print(f"{args.command} failed: {exc}")
        return 1
    except bounds.NotErgodicError as exc:
        print(f"ergodicity not certified: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # ConfigError (usage errors too) and invalid values such as --paths 0 or --n 3
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
