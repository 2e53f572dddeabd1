"""Command-line front end: bound / solve / simulate / compare / dump.

Reads a JSON model file (see docs/config.md), writes CSV reports and static
SVG charts into an output directory.  Each command takes only the flags it
reads (`COMMANDS`); a flag overrides the model-file value named in `FLAGS`.

Exit codes:
  0  success
  1  usage, configuration or runtime error: one `error: ...` line on stderr,
     or `<command> failed: ...` on stdout when the solver gives up; also a
     closed stdout, with no message
  2  ergodicity not certified: one `ergodicity not certified: ...` line, on
     stdout (on stderr for dump)
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
from .matrices import WeightSequence, _forcing, build_A, build_B, build_transformed, format_matrix
from .model import ModelSpec, RateFunction, state_label
from .solver import SolveSettings

OUT_ENV = "TWOPROC_OUT"
TRACKED_STATES = (0, 2, 1, 3)  # p00, p01, p10, p11
DEFAULT_PATHS = 100_000
DEFAULT_SEED = 20240601


class ConfigError(ValueError):
    pass


# -- model files -----------------------------------------------------------

# dest -> (model-file section, key, argparse keywords); the flag is
# --dest with "_" written "-", and overrides the file value when it has one.
# The section entries are also the schema of the file's sections ("nargs"
# marks a list); `delta` and `sample_times` are in no command, so no flag.
FLAGS = {
    "model": (None, None, {"required": True, "help": "path to a JSON model file"}),
    "out": (None, None, {"help": f"output directory (default ${OUT_ENV} or ./twoproc-out)"}),
    "n": ("solve", "n", {"type": int, "help": "truncation level"}),
    "step": ("solve", "step", {"type": float, "help": "RK4 step size, rounded down to 1/k"}),
    "horizon": ("solve", "horizon", {"type": float, "help": "integration end time"}),
    "paths": ("simulate", "paths", {"type": int, "help": "Monte Carlo path count"}),
    "seed": ("simulate", "seed", {"type": int, "help": "Monte Carlo seed"}),
    "sample_times": ("simulate", "sample_times", {"type": float, "nargs": "+", "help": "Monte Carlo sample times"}),
    "epsilon": ("weights", "epsilon", {"type": float, "help": "weight d2"}),
    "delta1": ("weights", "delta1", {"type": float, "help": "weight d4"}),
    "delta": ("weights", "delta", {"type": float, "help": "tail weight ratio"}),
    "tol_mix": ("solve", "tol_mix", {"type": float, "help": "merge tolerance"}),
    "tol_trunc": ("solve", "tol_truncation", {"type": float, "help": "truncation-doubling tolerance"}),
    "force": (None, None, {"action": "store_true", "help": "solve even without a certificate"}),
    "what": (None, None, {"choices": ("A", "B", "f", "transformed"), "default": "A", "help": "matrix to print"}),
    "t": (None, None, {"type": float, "default": 0.0, "help": "evaluation time"}),
    "conservative": (None, None, {"action": "store_true", "help": "conservative last column for A"}),
}

# The model file's schema: an object is a dict of its keys, a list of any
# length [item], a list of fixed length a tuple, and a value its type.
_HARMONIC = {"amplitude": float, "kind": str, "harmonic": int}
_RATE = {"constant": float, "harmonics": [_HARMONIC], "table": [(float, float)]}
_SCHEMA = {
    "name": str, "lambda": _RATE, "mu1": _RATE, "mu2": _RATE,
    **{section: {key: [kw["type"]] if "nargs" in kw else kw["type"] for s, key, kw in FLAGS.values() if s == section}
       for section, _, _ in FLAGS.values() if section},
}


def _convert(value, where: str, schema):
    """The JSON value at key path `where` checked against its schema, or a ConfigError naming where.

    Nothing is rounded or cast: a float is a finite JSON number (never
    true/false), an int an integral one (16 and 16.0 pass, 16.7 does not).
    Lists come back as tuples.
    """
    if schema is float or schema is int:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where} must be a number, got {json.dumps(value)}")
        if not abs(value) <= sys.float_info.max:  # NaN, Infinity or an integer beyond the float range
            raise ConfigError(f"{where} must be finite, got {value}")
        if schema is int and value != int(value):
            raise ConfigError(f"{where} must be an integer, got {value}")
        return schema(value)
    if schema is str:
        if isinstance(value, str):
            return value
        raise ConfigError(f"{where} must be a string, got {json.dumps(value)}")
    if isinstance(schema, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be an object")
        unknown = value.keys() - schema.keys()
        if unknown:
            raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(schema)}")
        prefix = "" if where == "model file" else where + "."
        return {key: _convert(item, prefix + key, schema[key]) for key, item in value.items()}
    if not isinstance(value, list) or isinstance(schema, tuple) and len(value) != len(schema):
        raise ConfigError(f"{where} must be a list" + (f" of {len(schema)}" if isinstance(schema, tuple) else ""))
    items = schema if isinstance(schema, tuple) else schema * len(value)
    return tuple([_convert(item, f"{where}[{i}]", s) for i, (item, s) in enumerate(zip(value, items))])


def _parse_rate(obj: dict, where: str) -> RateFunction:
    if "table" in obj and len(obj) > 1:
        raise ConfigError(f"{where}: table form excludes constant/harmonics")
    try:
        if "table" in obj:
            return RateFunction.piecewise(obj["table"])
        harmonics = [(h["amplitude"], h["kind"], h.get("harmonic", 1)) for h in obj.get("harmonics", ())]
        return RateFunction.trig(obj.get("constant", 0.0), harmonics)
    except KeyError as exc:
        raise ConfigError(f"{where}: a harmonic term misses required key {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class ModelConfig:
    name: str
    spec: ModelSpec
    weights: dict
    solve: dict
    simulate: dict


def load_model_file(path) -> ModelConfig:
    """Read and check a model file; every value is converted here, once."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"model file {path} is not valid JSON: {exc}") from exc
    raw = _convert(raw, "model file", _SCHEMA)
    for key in ("lambda", "mu1", "mu2"):
        if key not in raw:
            raise ConfigError(f"model file misses required key {key!r}")
    rates = [_parse_rate(raw[key], key) for key in ("lambda", "mu1", "mu2")]
    try:
        spec = ModelSpec(*rates)
    except ValueError as exc:
        raise ConfigError(f"invalid model: {exc}") from exc
    return ModelConfig(
        name=raw.get("name", Path(path).stem),
        spec=spec,
        weights=raw.get("weights", {}),
        solve=raw.get("solve", {}),
        simulate=raw.get("simulate", {}),
    )


def _setting(cfg: ModelConfig, args, dest: str, default=None):
    """The flag when given, else the model-file value, else the default."""
    value = getattr(args, dest, None)
    if value is None:
        section, key, _ = FLAGS[dest]
        value = getattr(cfg, section).get(key, default)
    return value


def resolve_weights(cfg: ModelConfig, args) -> WeightSequence | None:
    """Weights from flags/config, or None to let the engine tune them.

    delta1 and delta shape the weights only next to epsilon; one given
    without it is refused rather than dropped for the tuned weights.  With
    epsilon set, `bounds.geometric_ratio` (the default delta) raises
    NotCertifiedError when lambda* >= mu*.
    """
    eps = _setting(cfg, args, "epsilon")
    if eps is None:
        for dest in ("delta1", "delta"):
            if _setting(cfg, args, dest) is not None:
                raise ConfigError(f"{dest} is set but epsilon is not; "
                                  f"set epsilon too, or drop {dest} to tune the weights")
        return None
    delta = _setting(cfg, args, "delta", bounds.geometric_ratio(cfg.spec))
    return WeightSequence(epsilon=eps, delta1=_setting(cfg, args, "delta1", delta), delta=delta)


def resolve_solve_settings(cfg: ModelConfig, args) -> SolveSettings:
    defaults = asdict(SolveSettings())
    return SolveSettings(**{key: _setting(cfg, args, dest, defaults[key])
                            for dest, (section, key, _) in FLAGS.items() if section == "solve"})


def _resolve_sim(cfg: ModelConfig, args) -> mcsim.SimSettings:
    horizon = _setting(cfg, args, "horizon", SolveSettings.horizon)
    if not horizon > 0.0:  # NaN too; an infinite horizon is refused as a sample time
        raise ConfigError(f"horizon must be finite and positive, got {horizon:g}")
    default_times = tuple(t for t in (1.0, 5.0) if t < horizon) + (horizon,)
    return mcsim.SimSettings(
        n_paths=_setting(cfg, args, "paths", DEFAULT_PATHS),
        seed=_setting(cfg, args, "seed", DEFAULT_SEED),
        sample_times=_setting(cfg, args, "sample_times", default_times),
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


def _write_certificate(out: Path, cert: bounds.ConvergenceCertificate, spec: ModelSpec) -> str:
    """Write certificate.txt and certificate.json, the same for every command; returns the text."""
    report = bounds.certificate_report(cert, spec)
    (out / "certificate.txt").write_text(report)
    record = {**asdict(cert), "beta_star": cert.beta_star}
    (out / "certificate.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return report


def cmd_bound(args) -> int:
    cfg = load_model_file(args.model)
    try:
        cert = bounds.make_certificate(cfg.spec, resolve_weights(cfg, args))
    except bounds.NotCertifiedError as exc:
        print(exc)
        (_out_dir(args) / "certificate.txt").write_text(f"{exc}\n")
        return 2
    out = _out_dir(args)
    report = _write_certificate(out, cert, cfg.spec)
    print(report.split("\n\n", 1)[0])  # the header block, through the bound line
    print(f"full report: {out / 'certificate.txt'}")
    return 0


def _certified_regime(cfg: ModelConfig, args, settings: SolveSettings):
    """Certify the model, write its certificate, and compute its limiting regime and decay fit.

    Returns (out, cert, settings, regime, fit) with the accepted truncation
    in settings.n, or None once a refusal is printed; with --force a refused
    model is solved and cert is None.  A refusal creates no output directory.
    """
    try:
        cert = bounds.make_certificate(cfg.spec, resolve_weights(cfg, args))
    except bounds.NotCertifiedError as exc:
        print(exc)
        if not getattr(args, "force", False):
            return None
        cert = None
    out = _out_dir(args)
    if cert is not None:
        _write_certificate(out, cert, cfg.spec)
    regime = solver.limiting_regime(cfg.spec, settings)
    fit = solver.decay_fit(regime.from_empty, regime.from_far)
    return out, cert, replace(settings, n=regime.from_empty.n), regime, fit


def cmd_solve(args) -> int:
    cfg = load_model_file(args.model)
    solved = _certified_regime(cfg, args, resolve_solve_settings(cfg, args))
    if solved is None:
        return 2
    out, cert, settings, regime, fit = solved
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
        f"defect per unit time (empty start): {regime.from_empty.defect_per_unit_time:.3g}",
        f"defect per unit time (far start):   {regime.from_far.defect_per_unit_time:.3g}",
        f"limit-cycle mean range: [{regime.cycle.mean.min():.6g}, {regime.cycle.mean.max():.6g}]",
    ]
    if cert is not None:
        check = solver.contraction_check(
            regime.from_empty, regime.from_far, cfg.spec, cert.weights, cert.beta_star_avg
        )
        label = "certified beta*_0" if cert.beta_star is not None else "beta*_0 (averaged; no bound proven for these weights)"
        lines.append(f"{label}: {cert.beta_star_avg:.6g}  measured prefactor N: {check.prefactor_measured:.6g}")
        lines.append(f"certified-route ratio max (should stay near/below 1): {check.ratio_certified_max:.6g}")
    report = "\n".join(lines) + "\n"
    (out / "report.txt").write_text(report)
    print(report, end="")
    return 0


def cmd_simulate(args) -> int:
    cfg = load_model_file(args.model)
    sim = _resolve_sim(cfg, args)
    out = _out_dir(args)
    est = mcsim.estimate_probs(cfg.spec, sim)
    write_mc_csv(out / "mc_estimates.csv", est)
    lines = [f"model: {cfg.name}", f"paths: {sim.n_paths}   seed: {sim.seed}"]
    for i, t in enumerate(est.times):
        tracked = "  ".join(
            f"{state_label(k)}={est.estimates[i, k]:.4f}+-{est.stderrs[i, k]:.4f}"
            for k in TRACKED_STATES
        )
        lines.append(f"t={t:g}: {tracked}")
    report = "\n".join(lines) + "\n"
    (out / "mc_report.txt").write_text(report)
    print(report, end="")
    return 0


def cmd_compare(args) -> int:
    cfg = load_model_file(args.model)
    settings = resolve_solve_settings(cfg, args)
    sim = _resolve_sim(cfg, args)
    if sim.sample_times[-1] > settings.horizon:
        raise ConfigError(f"sample time {sim.sample_times[-1]:g} is beyond the solve horizon {settings.horizon:g}")
    *_, grid = solver.sample_grid(settings.horizon, settings.step)
    for t in sim.sample_times:  # ValueError off the grid; after a step halving prob_at checks again
        solver.grid_index(grid, settings.step, t)
    solved = _certified_regime(cfg, args, settings)
    if solved is None:
        return 2
    out, cert, settings, regime, fit = solved
    regime_avg = solver.limiting_regime(cfg.spec.averaged(), settings)
    fit_avg = solver.decay_fit(regime_avg.from_empty, regime_avg.from_far)
    check = solver.contraction_check(
        regime.from_empty, regime.from_far, cfg.spec, cert.weights, cert.beta_star_avg
    )

    est = mcsim.estimate_probs(cfg.spec, sim)
    write_mc_csv(out / "mc_estimates.csv", est)

    rows = []
    hits = 0
    for i, t in enumerate(est.times):
        ode_p = regime.from_empty.prob_at(t)
        for k in TRACKED_STATES:
            mc, se = est.estimates[i, k], est.stderrs[i, k]
            diff = abs(mc - ode_p[k])
            ok = diff <= 3.0 * se
            hits += ok
            rows.append((t, state_label(k), mc, ode_p[k], se, ok))
    frac = hits / len(rows)

    rel_gap = abs(fit.beta_hat - fit_avg.beta_hat) / fit_avg.beta_hat
    slope_ok = fit.beta_hat >= cert.beta_star_avg - 0.05
    ratio_ok = check.ratio_certified_max <= 1.05
    agree_ok = frac >= 0.95
    equal_ok = rel_gap <= 0.05

    with open(out / "agreement.csv", "w", encoding="ascii", newline="\n") as fh:
        fh.write("t,state,mc_estimate,ode_prob,stderr,within_3se\n")
        for t, lbl, mc, ode, se, ok in rows:
            fh.write(f"{CSV_FLOAT % t},{lbl},{CSV_FLOAT % mc},"
                     f"{CSV_FLOAT % ode},{CSV_FLOAT % se},{int(ok)}\n")

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
    t = args.t
    if not np.isfinite(t):
        raise ConfigError(f"t must be finite, got {t:g}")
    cfg = load_model_file(args.model)
    n = 12 if args.n is None else args.n
    if args.what == "A":
        M = build_A(cfg.spec, t, n, conservative=args.conservative)
    elif args.what == "B":
        M, _ = build_B(cfg.spec, t, n)
    elif args.what == "f":
        M = _forcing(cfg.spec, t, n)[None, :]
    else:
        weights = resolve_weights(cfg, args) or bounds.tune_weights(cfg.spec)
        M = build_transformed(cfg.spec, weights, t, n)
    sys.stdout.writelines(format_matrix(M))
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
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader of stdout is gone, e.g. `| head`
        sys.stdout = None  # so print() and the flush at exit write nothing more
        return 1
    except solver.SolveError as exc:
        print(f"{args.command} failed: {exc}")
        return 1
    except bounds.NotCertifiedError as exc:
        print(exc, file=sys.stderr)
        return 2
    except MemoryError as exc:  # valid input that needs more memory than the host has
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except ValueError as exc:  # ConfigError (usage errors too) and invalid values such as --paths 0 or --n 3
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
