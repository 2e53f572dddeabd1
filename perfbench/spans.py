"""Call tracing for the benchmark's traced run.

`Tracer.install` replaces the package functions listed in TARGETS with
wrappers that keep a stack of open calls.  Every call adds its inclusive time
and its self time (inclusive minus the wrapped calls it made) to its key, so
the self times of one operation plus the operation's own uncovered time add
up to the operation's wall time exactly.  Calls of the coarse functions also
become spans (name, start, end, parent span, operation id), kept in memory and
written out when the run ends.  The hot leaves -- rate evaluations, rate and
spec construction, `alphas_averaged` -- run up to a million times per
operation, so they are counted on their caller instead of becoming spans.

The wrappers are installed by the benchmark only; the package holds no
tracing code.  Counters are taken from the wrapped calls' arguments and
results, so they count the work the package was asked to do.
"""

from __future__ import annotations

import importlib
import json
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

from twoproc.mcsim import compute_rate_bound

LAYERS = ("model", "bounds", "solver", "mcsim", "cli", "charts")
STEP_SIZES = (16, 32, 64, 128, 256)

# (module, class or None, attribute, key, becomes a span)
TARGETS = (
    ("model", "RateFunction", "__call__", "model.rate", False),
    ("model", "RateFunction", "__post_init__", "model.rate_build", False),
    ("model", "ModelSpec", "__post_init__", "model.spec_build", False),
    ("bounds", None, "make_certificate", "bounds.make_certificate", True),
    ("bounds", None, "tune_weights", "bounds.tune_weights", True),
    ("bounds", None, "alphas_averaged", "bounds.alphas_averaged", False),
    ("bounds", None, "certificate_report", "bounds.certificate_report", True),
    ("solver", None, "choose_truncation", "solver.choose_truncation", True),
    ("solver", None, "limiting_regime", "solver.limiting_regime", True),
    ("solver", None, "integrate", "solver.integrate", True),
    ("solver", None, "decay_fit", "solver.decay_fit", True),
    ("solver", None, "contraction_check", "solver.contraction_check", True),
    ("mcsim", None, "estimate_probs", "mcsim.estimate_probs", True),
    # private, but the only place where the candidate budget is visible
    ("mcsim", None, "_run_block", "mcsim.run_block", True),
    ("cli", None, "main", "cli.main", True),
    ("cli", None, "write_trajectory_csv", "cli.write_trajectory_csv", True),
    ("cli", None, "write_mc_csv", "cli.write_mc_csv", True),
    # cli imports write_chart by name, so the chart layer is patched there
    ("cli", None, "write_chart", "charts.write_chart", True),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Stack-based call timer with spans for coarse calls and counters for leaves."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._patches = []
        self._op_id = 0
        self._hooks = {
            "model.rate": self._on_rate,
            "bounds.alphas_averaged": self._on_alphas_averaged,
            "solver.integrate": self._on_integrate,
            "solver.choose_truncation": self._on_choose_truncation,
            "mcsim.run_block": self._on_run_block,
            "cli.write_trajectory_csv": self._on_csv,
            "cli.write_mc_csv": self._on_csv,
            "charts.write_chart": self._on_svg,
        }
        self._reset()

    def _reset(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # key -> [calls, inclusive s, self s]
        self.counts = defaultdict(int)
        self.steps = defaultdict(lambda: [0, 0.0])  # truncation n -> [RK4 steps, seconds]
        self.truncation_n = 0
        self.mc_calls = []
        self._mc_lam = None
        self._stack = []

    # -- installation ------------------------------------------------------

    def install(self):
        for module_name, cls_name, attr, key, span in TARGETS:
            owner = importlib.import_module(f"twoproc.{module_name}")
            if cls_name is not None:
                owner = getattr(owner, cls_name, None)
            original = None if owner is None else vars(owner).get(attr)
            if original is None:
                self.missing.append(key)
                continue
            setattr(owner, attr, self._wrap(key, original, span))
            self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _wrap(self, key, fn, span):
        tracer = self
        hook = self._hooks.get(key)
        before = self._before_estimate if key == "mcsim.estimate_probs" else None

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [key, 0.0, tracer._open_span() if span else -1]
            if before is not None:
                before(args, kwargs)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(frame, parent, start, perf_counter())
                if hook is not None:
                    hook(args, kwargs, None, exc, parent, 0.0)
                raise
            end = perf_counter()
            tracer._close(frame, parent, start, end)
            if hook is not None:
                hook(args, kwargs, result, None, parent, end - start)
            return result

        return wrapper

    def _open_span(self) -> int:
        self.spans.append(None)
        return len(self.spans) - 1

    def _close(self, frame, parent, start, end):
        self._stack.pop()
        dur = end - start
        st = self.stats[frame[0]]
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[1]
        if parent is not None:
            parent[1] += dur
        if frame[2] >= 0:
            parent_span = next((f[2] for f in reversed(self._stack) if f[2] >= 0), None)
            self.spans[frame[2]] = (frame[0], start, end, parent_span, self._op_id)

    # -- counters ----------------------------------------------------------

    def _on_rate(self, args, kwargs, result, exc, parent, dur):
        caller = parent[0] if parent is not None else "op"
        self.counts["rate_calls." + caller] += 1
        if caller == "mcsim.run_block" and args[0] is self._mc_lam:
            self.counts["path_candidates"] += int(np.size(args[1]))

    def _on_alphas_averaged(self, args, kwargs, result, exc, parent, dur):
        if parent is not None and parent[0] == "bounds.tune_weights":
            self.counts["tune_candidates"] += 1

    def _on_integrate(self, args, kwargs, result, exc, parent, dur):
        if parent is not None and parent[0] == "solver.choose_truncation":
            self.counts["truncation_integrations"] += 1
        if exc is not None:
            if type(exc).__name__ == "StepSizeError":
                self.counts["step_halvings"] += 1
            return
        settings = _arg(args, kwargs, 1, "settings")
        steps = int(round(settings.horizon / settings.step))
        self.counts["rk4_steps"] += steps
        acc = self.steps[settings.n]
        acc[0] += steps
        acc[1] += dur

    def _on_choose_truncation(self, args, kwargs, result, exc, parent, dur):
        if exc is None:
            self.counts["truncations"] += 1
            self.truncation_n = int(result)

    def _before_estimate(self, args, kwargs):
        spec = _arg(args, kwargs, 0, "spec")
        self._mc_lam = spec.lam
        self.mc_calls.append((spec, _arg(args, kwargs, 1, "settings")))

    def _on_run_block(self, args, kwargs, result, exc, parent, dur):
        self.counts["candidate_iters"] += int(_arg(args, kwargs, 6, "budget"))

    def _on_csv(self, args, kwargs, result, exc, parent, dur):
        if exc is None:
            self.counts["csv_bytes"] += os.path.getsize(args[0])

    def _on_svg(self, args, kwargs, result, exc, parent, dur):
        if exc is None:
            self.counts["svg_bytes"] += os.path.getsize(args[0])

    # -- one operation ------------------------------------------------------

    def run_op(self, fn) -> dict:
        """Run fn() as one traced operation and return its per-layer metrics."""
        self._reset()
        self._op_id += 1
        self._wrap("op", fn, True)()
        return self._op_metrics()

    def _op_metrics(self) -> dict:
        stats, counts = self.stats, self.counts

        def incl(*keys):
            return sum(stats[k][1] for k in keys if k in stats)

        def self_time(key):
            return stats[key][2] if key in stats else 0.0

        m = {}
        m["model.rate_calls"] = stats["model.rate"][0] if "model.rate" in stats else 0
        m["model.rate_calls.solver"] = counts["rate_calls.solver.integrate"]
        m["model.rate_calls.mcsim"] = counts["rate_calls.mcsim.run_block"]
        m["model.rate_s"] = incl("model.rate")
        m["model.spec_build_s"] = incl("model.rate_build", "model.spec_build")
        m["bounds.tune_s"] = incl("bounds.tune_weights")
        m["bounds.tune_candidates"] = counts["tune_candidates"]
        m["bounds.certificate_s"] = incl("bounds.make_certificate")
        m["bounds.report_s"] = incl("bounds.certificate_report")
        m["solver.integrate_calls"] = stats["solver.integrate"][0] if "solver.integrate" in stats else 0
        m["solver.rk4_steps"] = counts["rk4_steps"]
        m["solver.step_halvings"] = counts["step_halvings"]
        m["solver.integrate_s"] = incl("solver.integrate")
        for n in STEP_SIZES:
            steps, secs = self.steps.get(n, (0, 0.0))
            m[f"solver.step_us.n{n}"] = 1e6 * secs / steps if steps else 0.0
        m["solver.truncation_s"] = incl("solver.choose_truncation")
        m["solver.truncation_doublings"] = counts["truncation_integrations"] - counts["truncations"]
        m["solver.truncation_n"] = self.truncation_n
        m["solver.regime_s"] = self_time("solver.limiting_regime")
        m["solver.fit_s"] = incl("solver.decay_fit")
        m["solver.contraction_s"] = incl("solver.contraction_check")
        m["mcsim.estimate_s"] = incl("mcsim.estimate_probs")
        m["mcsim.candidate_iters"] = counts["candidate_iters"]
        m["mcsim.path_candidates"] = counts["path_candidates"]
        pc = counts["path_candidates"]
        m["mcsim.ns_per_path_candidate"] = 1e9 * m["mcsim.estimate_s"] / pc if pc else 0.0
        m["cli.csv_s"] = incl("cli.write_trajectory_csv", "cli.write_mc_csv")
        m["cli.csv_bytes"] = counts["csv_bytes"]
        m["charts.svg_s"] = incl("charts.write_chart")
        m["charts.svg_bytes"] = counts["svg_bytes"]
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for key, st in stats.items():
            layer = key.split(".")[0]
            if layer in layer_self:
                layer_self[layer] += st[2]
        for layer, value in layer_self.items():
            m[f"{layer}.self_s"] = value
        m["unattributed_s"] = self_time("op")
        m["trace.op_s"] = incl("op")
        # Useful candidates: the expected count a dominating rate of exactly
        # compute_rate_bound would need, against the candidates scanned.
        useful = 0.0
        for spec, settings in self.mc_calls:
            useful += settings.n_paths * compute_rate_bound(spec) * max(settings.sample_times)
        m["mcsim.useful_ratio"] = useful / pc if pc else 0.0
        return m

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, op = span
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def unit_of(key: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if ".step_us." in key:
        return "us"
    if key.endswith("ns_per_path_candidate"):
        return "ns"
    if key.endswith("_bytes"):
        return "bytes"
    if key.endswith("_ratio"):
        return "ratio"
    if key.endswith("_s"):
        return "s"
    return "count"
