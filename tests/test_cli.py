import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import reference_trajectory_csv, traced_peak
import twoproc
from twoproc import bounds, cli, mcsim, solver
from twoproc.cli import ConfigError, _csv_order, load_model_file, main, write_trajectory_csv
from twoproc.model import ModelSpec, RateFunction

CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "twoproc" / "configs"


def write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture()
def light_model(tmp_path) -> Path:
    return write_json(
        tmp_path / "light.json",
        {
            "name": "light",
            "lambda": {"constant": 1.0, "harmonics": [{"amplitude": 1.0, "kind": "sin", "harmonic": 1}]},
            "mu1": {"constant": 2.0},
            "mu2": {"constant": 2.0},
            "weights": {"epsilon": 0.01},
            "solve": {"n": 16, "horizon": 16.0, "tol_mix": 0.01},
            "simulate": {"paths": 1500, "seed": 17},
        },
    )


class TestConfigLoading:
    def test_shipped_configs_parse(self):
        for name in ("example1", "example2", "example3"):
            cfg = load_model_file(CONFIG_DIR / f"{name}.json")
            assert cfg.name == name

    def test_unknown_top_key_rejected(self, tmp_path):
        bad = write_json(tmp_path / "bad.json", {"lambda": {"constant": 1}, "mu1": {"constant": 2},
                                                 "mu2": {"constant": 2}, "horizons": 5})
        with pytest.raises(ConfigError, match="unknown key"):
            load_model_file(bad)

    def test_unknown_rate_key_rejected(self, tmp_path):
        bad = write_json(tmp_path / "bad.json", {"lambda": {"value": 1}, "mu1": {"constant": 2},
                                                 "mu2": {"constant": 2}})
        with pytest.raises(ConfigError, match="unknown key"):
            load_model_file(bad)

    def test_missing_rate_rejected(self, tmp_path):
        bad = write_json(tmp_path / "bad.json", {"lambda": {"constant": 1}, "mu1": {"constant": 2}})
        with pytest.raises(ConfigError, match="misses required"):
            load_model_file(bad)

    def test_table_rates_supported(self, tmp_path):
        cfg = load_model_file(write_json(tmp_path / "tab.json", {
            "lambda": {"table": [[0.0, 0.5], [0.5, 1.5]]},
            "mu1": {"constant": 2.0},
            "mu2": {"constant": 2.0},
        }))
        assert cfg.spec.lam.mean() == pytest.approx(1.0, abs=1e-15)


VALID_MODEL = {
    "lambda": {"constant": 1.0, "harmonics": [{"amplitude": 0.5, "kind": "sin", "harmonic": 1}]},
    "mu1": {"constant": 2.0},
    "mu2": {"table": [[0.0, 1.5], [0.5, 2.0]]},
    "weights": {"epsilon": 0.1, "delta1": 1.5, "delta": 1.5},
    "solve": {"n": 16, "step": 0.01, "horizon": 10.0, "tol_truncation": 1e-6, "tol_mix": 1e-5},
    "simulate": {"paths": 200, "seed": 3, "sample_times": [1.0, 5.0]},
}
# key path -> (container path, key) in VALID_MODEL, for every number in the file
NUMBER_KEYS = {
    **{f"{section}.{key}": ((section,), key) for section in ("weights", "solve", "simulate")
       for key in VALID_MODEL[section] if key != "sample_times"},
    "simulate.sample_times[1]": (("simulate", "sample_times"), 1),
    "lambda.constant": (("lambda",), "constant"),
    "lambda.harmonics[0].amplitude": (("lambda", "harmonics", 0), "amplitude"),
    "lambda.harmonics[0].harmonic": (("lambda", "harmonics", 0), "harmonic"),
    "mu2.table[1][0]": (("mu2", "table", 1), 0),
    "mu2.table[1][1]": (("mu2", "table", 1), 1),
}
MALFORMED = [
    *[(path, value) for path in NUMBER_KEYS for value in ([16], "16", True)],
    *[(path, 16.7) for path in ("solve.n", "simulate.paths", "simulate.seed")],
    ("lambda.harmonics[0].harmonic", 1.5),
]


def with_value(container: tuple, key, value) -> dict:
    """A copy of VALID_MODEL with model[container...][key] = value."""
    model = json.loads(json.dumps(VALID_MODEL))
    node = model
    for step in container:
        node = node[step]
    node[key] = value
    return model


def run_each_command(model: Path, tmp_path: Path, capsys) -> list[tuple[int, str, str]]:
    """(exit code, stdout, stderr) of every command that reads the model file."""
    results = []
    for command in ("bound", "solve", "simulate", "compare", "dump"):
        out = [] if command == "dump" else ["--out", str(tmp_path / command)]
        rc = main([command, "--model", str(model), *out])
        captured = capsys.readouterr()
        results.append((rc, captured.out, captured.err))
    return results


class TestMalformedModelFiles:
    def test_valid_model_loads_every_key(self, tmp_path):
        cfg = load_model_file(write_json(tmp_path / "ok.json", VALID_MODEL))
        assert cfg.solve == {"n": 16, "step": 0.01, "horizon": 10.0, "tol_truncation": 1e-6, "tol_mix": 1e-5}
        assert cfg.simulate == {"paths": 200, "seed": 3, "sample_times": (1.0, 5.0)}
        assert cfg.spec.lam.harmonics[0].harmonic == 1

    def test_integral_floats_are_integers(self, tmp_path):
        model = with_value(*NUMBER_KEYS["lambda.harmonics[0].harmonic"], 2.0)
        model["solve"]["n"] = 16.0
        cfg = load_model_file(write_json(tmp_path / "ok.json", model))
        assert type(cfg.solve["n"]) is int and cfg.solve["n"] == 16
        assert type(cfg.spec.lam.harmonics[0].harmonic) is int

    @pytest.mark.parametrize("path,value", MALFORMED, ids=[f"{p}={json.dumps(v)}" for p, v in MALFORMED])
    def test_wrong_type_exits_one_naming_the_key(self, path, value, tmp_path, capsys):
        model = write_json(tmp_path / "bad.json", with_value(*NUMBER_KEYS[path], value))
        for rc, out, err in run_each_command(model, tmp_path, capsys):
            assert (rc, out) == (1, "")
            assert err.startswith(f"error: {path} must be ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("container,key,value", [
        ((), "weights", 5), ((), "solve", ["n"]), ((), "simulate", "paths"), ((), "lambda", 1.0), ((), "name", 5),
        (("lambda",), "harmonics", {"amplitude": 0.5}), (("mu2",), "table", [[0.0, 1.5, 2.0]]),
        (("simulate",), "sample_times", 5),
    ])
    def test_wrong_structure_exits_one_naming_the_key(self, container, key, value, tmp_path, capsys):
        bad = write_json(tmp_path / "bad.json", with_value(container, key, value))
        for rc, out, err in run_each_command(bad, tmp_path, capsys):
            assert (rc, out) == (1, "")
            assert err.startswith(f"error: {'.'.join((*container, key))}") and err.count("\n") == 1, err

    def test_docs_list_exactly_the_accepted_keys(self):
        docs = (CONFIG_DIR.parents[2] / "docs" / "config.md").read_text()
        tables = {}
        for block in re.split(r"^#+ ", docs, flags=re.M)[1:]:
            heading, body = block.split("\n", 1)
            tables[heading.strip().strip("`")] = set(re.findall(r"^\| `(\w+)`", body, flags=re.M))
        schema = cli._SCHEMA
        assert tables["Top-level keys"] == set(schema)
        assert tables["Rate objects"] == set(schema["lambda"])
        assert tables["Harmonic terms"] == set(schema["lambda"]["harmonics"][0])
        for section in {section for section, _, _ in cli.FLAGS.values() if section}:
            assert tables[section] == set(schema[section]), section


def assert_same_certificate_as_bound(model: Path, out: Path, bound_out: Path) -> None:
    """The certificate files in out are byte-identical to those `bound` writes for the model."""
    assert main(["bound", "--model", str(model), "--out", str(bound_out)]) == 0
    for name in ("certificate.txt", "certificate.json"):
        assert (out / name).read_bytes() == (bound_out / name).read_bytes(), name


class TestBoundCommand:
    def test_light_traffic_certificate_values(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["bound", "--model", str(CONFIG_DIR / "example1.json"), "--out", str(out)])
        assert rc == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["beta_star_avg"] == pytest.approx(0.99, abs=1e-14)
        assert cert["beta_star_periodic"] >= 0.3
        assert (out / "certificate.txt").read_text().startswith("convergence certificate")

    @pytest.mark.parametrize("example,bound_line", [
        ("example1", "  bound: ||p'(t)-p''(t)||_1 <= 274.960445488 * exp(-0.99 t) * ||z'(0)-z''(0)||_1D"),
        ("example3", "  bound: no bound at beta*_0 is proven for these weights "
                     "(alpha2 = -6 < alpha5 = 1.85751 at t = 0)"),
    ])
    def test_bound_line_is_proven_or_says_none_is(self, example, bound_line, tmp_path, capsys):
        # example1: C * P = 200 * exp(1/pi) = 200 * 1.37480222744; example3: alpha2 undercuts
        # the binding alpha5 at t = 0, so P is unset
        out = tmp_path / "out"
        assert main(["bound", "--model", str(CONFIG_DIR / f"{example}.json"), "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[-2:] == [bound_line, f"full report: {out / 'certificate.txt'}"]
        assert printed[:-1] == (out / "certificate.txt").read_text().split("\n\n")[0].splitlines()
        assert " N " not in "\n".join(printed)
        assert "prefactor_N" not in json.loads((out / "certificate.json").read_text())

    def test_readme_quotes_the_printed_bound_lines(self, tmp_path, capsys):
        readme = (CONFIG_DIR.parents[2] / "README.md").read_text()
        quoted = [" ".join(q.split()) for q in re.findall(r"`(bound: [^`]*)`", readme)]
        printed = []
        for example in ("example1", "example3"):
            assert main(["bound", "--model", str(CONFIG_DIR / f"{example}.json"), "--out", str(tmp_path)]) == 0
            printed += [line.strip() for line in capsys.readouterr().out.splitlines()]
        assert len(quoted) == 2
        assert all(line in printed for line in quoted), quoted

    def test_overloaded_model_exits_two(self, tmp_path):
        model = write_json(tmp_path / "over.json", {
            "lambda": {"constant": 5.0}, "mu1": {"constant": 1.0}, "mu2": {"constant": 1.0}})
        rc = main(["bound", "--model", str(model), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "not certified" in (tmp_path / "o" / "certificate.txt").read_text()

    def test_invalid_model_exits_one(self, tmp_path, capsys):
        model = write_json(tmp_path / "bad.json", {
            "lambda": {"constant": 1.0}, "mu1": {"constant": 1.0}, "mu2": {"constant": 2.0}})
        rc = main(["bound", "--model", str(model), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "mu2" in capsys.readouterr().err

    @pytest.mark.parametrize("amplitude,harmonic,message", [(1.04, 1000, "negative"), (1.5, 10_000, "exceeds")])
    def test_high_harmonic_model_exits_one(self, tmp_path, capsys, amplitude, harmonic, message):
        model = write_json(tmp_path / "alias.json", {
            "lambda": {"constant": 1.0, "harmonics": [{"amplitude": amplitude, "kind": "sin", "harmonic": harmonic}]},
            "mu1": {"constant": 2.0}, "mu2": {"constant": 2.0}})
        rc = main(["bound", "--model", str(model), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1 and message in err

    def test_weight_flags_override(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["bound", "--model", str(CONFIG_DIR / "example1.json"), "--out", str(out),
                   "--epsilon", "0.05"])
        assert rc == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["beta_star_avg"] == pytest.approx(0.95, abs=1e-14)

    @pytest.mark.parametrize("flags,weights,name", [
        (["--delta1", "1.5"], {}, "delta1"),
        ([], {"delta1": 1.5}, "delta1"),
        ([], {"delta": 1.5}, "delta"),
    ], ids=["flag-delta1", "file-delta1", "file-delta"])
    def test_weight_without_epsilon_exits_one(self, flags, weights, name, tmp_path, capsys):
        # the tuner picks every weight, so a delta1 or delta without epsilon would go unread
        model = write_json(tmp_path / "m.json", {
            "lambda": {"constant": 1.0}, "mu1": {"constant": 2.0}, "mu2": {"constant": 2.0}, "weights": weights})
        out = tmp_path / "o"
        assert main(["bound", "--model", str(model), "--out", str(out), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {name} is set but epsilon is not; "
                                f"set epsilon too, or drop {name} to tune the weights\n")
        assert not out.exists()


class TestSolveCommand:
    EXPECTED_FILES = (
        "trajectory_x0.csv", "trajectory_xfar.csv", "limit_cycle.csv", "report.txt",
        "p00.svg", "p01.svg", "p10.svg", "p11.svg", "mean.svg", "mean_cycle.svg",
        "certificate.txt", "certificate.json",
    )

    def test_artifacts_and_determinism(self, light_model, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["solve", "--model", str(light_model), "--out", str(out1)]) == 0
        for name in self.EXPECTED_FILES:
            assert (out1 / name).exists(), name
        header = (out1 / "trajectory_x0.csv").read_text().splitlines()[0]
        assert header.startswith("t,p00,p01,p10,p11,p12")
        assert header.endswith(",mean")
        assert main(["solve", "--model", str(light_model), "--out", str(out2)]) == 0
        for name in ("trajectory_x0.csv", "trajectory_xfar.csv", "limit_cycle.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        assert_same_certificate_as_bound(light_model, out1, tmp_path / "bound")

    def test_trajectory_rows_are_stochastic(self, light_model, tmp_path):
        out = tmp_path / "o"
        main(["solve", "--model", str(light_model), "--out", str(out)])
        rows = (out / "trajectory_x0.csv").read_text().splitlines()[1:]
        assert len(rows) <= 10_000
        first = np.array([float(v) for v in rows[0].split(",")])
        assert first[0] == 0.0
        assert np.sum(first[1:-1]) == pytest.approx(1.0, abs=1e-12)

    def test_no_arrivals_flat_mean(self, tmp_path):
        model = write_json(tmp_path / "idle.json", {
            "lambda": {"constant": 0.0}, "mu1": {"constant": 1.0}, "mu2": {"constant": 1.0},
            "solve": {"n": 16, "horizon": 16.0, "tol_mix": 0.01}})
        out = tmp_path / "o"
        assert main(["solve", "--model", str(model), "--out", str(out)]) == 0
        rows = (out / "trajectory_x0.csv").read_text().splitlines()[1:]
        means = [float(r.split(",")[-1]) for r in rows]
        assert max(abs(m) for m in means) == 0.0

    def test_uncertifiable_weights_need_force(self, tmp_path):
        # with no arrivals and mu1 > mu2 the alpha_2 column is negative for
        # every epsilon < 1, so the weight family certifies nothing
        model = write_json(tmp_path / "idle2.json", {
            "lambda": {"constant": 0.0}, "mu1": {"constant": 2.0}, "mu2": {"constant": 1.0},
            "solve": {"n": 16, "horizon": 16.0, "tol_mix": 0.01}})
        assert main(["solve", "--model", str(model), "--out", str(tmp_path / "a")]) == 2
        assert main(["solve", "--model", str(model), "--out", str(tmp_path / "b"), "--force"]) == 0

    def test_overloaded_requires_force(self, tmp_path):
        model = write_json(tmp_path / "over.json", {
            "lambda": {"constant": 5.0}, "mu1": {"constant": 1.0}, "mu2": {"constant": 1.0},
            "solve": {"n": 16, "horizon": 2.0}})
        assert main(["solve", "--model", str(model), "--out", str(tmp_path / "o")]) == 2

    def test_unmerged_horizon_exits_one(self, light_model, tmp_path, capsys):
        rc = main(["solve", "--model", str(light_model), "--out", str(tmp_path / "o"),
                   "--horizon", "4", "--tol-mix", "1e-9"])
        assert rc == 1
        assert "merge" in capsys.readouterr().out

    REPORT_KEYS = ["model", "truncation n", "t_mix (l1 gap < 1e-05)", "fitted decay rate",
                   "defect per unit time (empty start)", "defect per unit time (far start)", "limit-cycle mean range"]

    def test_proven_rate_keeps_its_lines_on_example1(self, tmp_path):
        out = tmp_path / "o"
        assert main(["solve", "--model", str(CONFIG_DIR / "example1.json"), "--out", str(out)]) == 0
        report = (out / "report.txt").read_text().splitlines()
        assert [line.split(":")[0] for line in report] == self.REPORT_KEYS + [
            "certified beta*_0", "certified-route ratio max (should stay near/below 1)"]
        assert report[-2].startswith("certified beta*_0: 0.99  measured prefactor N: ")
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["beta_star"] == cert["beta_star_periodic"] >= 0.3

    def test_unproven_rate_is_labelled_on_example3(self, tmp_path):
        out = tmp_path / "o"
        assert main(["solve", "--model", str(CONFIG_DIR / "example3.json"), "--out", str(out)]) == 0
        report = (out / "report.txt").read_text().splitlines()
        assert [line.split(":")[0] for line in report] == self.REPORT_KEYS + [
            "beta*_0 (averaged; no bound proven for these weights)",
            "certified-route ratio max (should stay near/below 1)"]
        assert report[-2].startswith("beta*_0 (averaged; no bound proven for these weights): 0.238337  measured")
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["beta_star_periodic"] is None and cert["prefactor_analytic"] is None
        assert cert["beta_star"] is None
        assert cert["beta_star_avg"] == pytest.approx(0.238337, abs=1e-6)

    def test_overflowing_step_halves_with_nothing_on_stderr(self, tmp_path, capsys):
        # the propagator build at steps 0.02 to 0.000625 overflows before its check fails the step
        model = write_json(tmp_path / "stiff.json", {
            "lambda": {"constant": 1000.0}, "mu1": {"constant": 1000.0}, "mu2": {"constant": 1000.0},
            "solve": {"n": 16, "step": 0.02, "horizon": 5.0}})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # outside the suite each one prints two lines on stderr
            assert main(["solve", "--model", str(model), "--out", str(tmp_path / "o")]) == 0
        captured = capsys.readouterr()
        assert [str(w.message) for w in caught] == [] and captured.err == ""
        assert "step: 0.0003125 " in captured.out

    def test_report_shows_the_step_used(self, tmp_path):
        model = write_json(tmp_path / "stiff.json", {
            "lambda": {"constant": 60.0}, "mu1": {"constant": 50.0}, "mu2": {"constant": 50.0},
            "solve": {"n": 16, "step": 0.02, "horizon": 3.0}})
        out = tmp_path / "o"
        assert main(["solve", "--model", str(model), "--out", str(out)]) == 0
        rows = (out / "trajectory_x0.csv").read_text().splitlines()[1:3]
        assert [float(r.split(",")[0]) for r in rows] == [0.0, 0.005]
        assert "step: 0.005 " in (out / "report.txt").read_text()


class TestTrajectoryCsv:
    @staticmethod
    def trajectory(rows: int, n: int) -> solver.Trajectory:
        rng = np.random.default_rng(5)
        probs = rng.dirichlet(np.ones(n), size=rows)
        probs[0, :3] = (-0.0, 5e-324, 1e-300)
        probs[2, 4] = -0.0
        times = np.arange(rows) * 0.001
        mean = probs @ np.arange(n)
        return solver.Trajectory(
            times=times, probs=probs, mean=mean, n=n, step=0.001, defect_per_unit_time=0.0, min_entry_pre=0.0,
        )

    @pytest.mark.parametrize("rows", [7, 2500])
    def test_byte_identical_to_per_cell_format(self, rows, tmp_path):
        traj = self.trajectory(rows, 9)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj)
        header, body = path.read_text().split("\n", 1)
        assert header == "t,p00,p01,p10,p11,p12,p13,p14,p15,p16,mean"
        assert body == reference_trajectory_csv(traj, _csv_order(9))
        if rows == 2500:
            assert body.startswith("0,-0,1e-300,4.94065645841e-324,")


class TestSimulateCommand:
    def test_csv_and_determinism(self, light_model, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--model", str(light_model), "--out", str(out1), "--paths", "600"]) == 0
        assert main(["simulate", "--model", str(light_model), "--out", str(out2), "--paths", "600"]) == 0
        body = (out1 / "mc_estimates.csv").read_text()
        assert body.splitlines()[0] == "t,state,estimate,stderr"
        assert body == (out2 / "mc_estimates.csv").read_text()

    @pytest.mark.parametrize("horizon,times", [
        (0.5, (0.5,)), (3.0, (1.0, 3.0)), (5.0, (1.0, 5.0)), (5.5, (1.0, 5.0, 5.5)), (50.0, (1.0, 5.0, 50.0)),
    ])
    def test_default_sample_times_end_at_the_horizon(self, horizon, times, light_model):
        # simulate and compare both sample at 1 and 5 when they fall before the horizon, then at it
        cfg = load_model_file(light_model)
        assert cli._resolve_sim(cfg, argparse.Namespace(horizon=horizon)).sample_times == times

    def test_short_horizon_reports_each_sample_time_once(self, light_model, tmp_path, capsys):
        for horizon in ("3", "5"):
            argv = ["simulate", "--model", str(light_model), "--out", str(tmp_path / horizon), "--paths", "100"]
            assert main([*argv, "--horizon", horizon]) == 0
            rows = capsys.readouterr().out.splitlines()[2:]
            assert [row.split(":")[0] for row in rows] == ["t=1", f"t={horizon}"]

    def test_too_few_paths_exits_one(self, light_model, tmp_path, capsys):
        rc = main(["simulate", "--model", str(light_model), "--out", str(tmp_path / "o"), "--paths", "10"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "100 paths" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("horizon", ["1e308", "1e300", "1e7"])
    def test_unscannable_horizon_exits_one(self, horizon, tmp_path, monkeypatch, capsys):
        # 1e7: Lambda = 5.0e7 per path, 5.0e12 candidates at the default 10^5 paths, some 35 hours
        monkeypatch.setattr(mcsim, "_run_block", None)  # refused before any path runs
        rc = main(["simulate", "--model", str(CONFIG_DIR / "example1.json"), "--out", str(tmp_path / "o"),
                   "--horizon", horizon])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: sample time {float(horizon):g} takes Lambda = ") and err.count("\n") == 1
        assert err.endswith("for 100000 paths, more than 1e+10\n")
        assert not (tmp_path / "o").exists()

    def test_cap_admits_the_largest_bundled_run(self, tmp_path, monkeypatch):
        # the default simulate on example2 plans 10^5 x 1,689 candidates, under the 10^10 cap
        class Admitted(Exception):
            pass

        def admitted(*args, **kwargs):
            raise Admitted

        monkeypatch.setattr(mcsim, "_run_block", admitted)
        with pytest.raises(Admitted):
            main(["simulate", "--model", str(CONFIG_DIR / "example2.json"), "--out", str(tmp_path / "o")])


class TestCompareCommand:
    def test_light_model_passes_all_gates(self, light_model, tmp_path):
        out = tmp_path / "cmp"
        rc = main(["compare", "--model", str(light_model), "--out", str(out)])
        assert rc == 0
        report = (out / "compare_report.txt").read_text()
        assert report.count("[PASS]") == 4
        assert (out / "agreement.csv").exists()
        assert_same_certificate_as_bound(light_model, out, tmp_path / "bound")

    def test_validation_error_before_any_run(self, tmp_path, capsys):
        model = write_json(tmp_path / "bad.json", {
            "lambda": {"constant": 1.0}, "mu1": {"constant": 1.0}, "mu2": {"constant": 2.0}})
        assert main(["compare", "--model", str(model), "--out", str(tmp_path / "o")]) == 1

    def test_simulation_settings_checked_before_any_run(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("ran before the settings were checked")

        monkeypatch.setattr(solver, "limiting_regime", fail)
        monkeypatch.setattr(bounds, "make_certificate", fail)
        out = tmp_path / "o"
        assert main(["compare", "--model", str(CONFIG_DIR / "example1.json"), "--out", str(out), "--paths", "0"]) == 1
        assert capsys.readouterr().err == "error: at least 100 paths are required, got 0\n"
        assert not out.exists()

    def test_sample_times_beyond_the_horizon_refused_before_any_run(self, tmp_path, monkeypatch, capsys):
        model = write_json(tmp_path / "late.json", {
            "lambda": {"constant": 1.0}, "mu1": {"constant": 2.0}, "mu2": {"constant": 2.0},
            "solve": {"horizon": 20.0}, "simulate": {"paths": 100, "sample_times": [1.0, 30.0]}})
        assert main(["simulate", "--model", str(model), "--out", str(tmp_path / "sim")]) == 0  # no solve to pass

        def fail(*args, **kwargs):
            raise AssertionError("ran before the sample times were checked")

        monkeypatch.setattr(solver, "limiting_regime", fail)
        monkeypatch.setattr(mcsim, "estimate_probs", fail)
        capsys.readouterr()
        out = tmp_path / "o"
        assert main(["compare", "--model", str(model), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: sample time 30 is beyond the solve horizon 20\n"
        assert not out.exists()

    def test_sample_times_off_the_grid_refused_before_any_run(self, tmp_path, monkeypatch, capsys):
        # horizon 30 at step 0.001 samples every 0.004 (stride 4), so 1.002 falls between samples
        model = write_json(tmp_path / "off.json", {
            "lambda": {"constant": 1.0, "harmonics": [{"amplitude": 1.0, "kind": "sin", "harmonic": 1}]},
            "mu1": {"constant": 2.0}, "mu2": {"constant": 2.0}, "weights": {"epsilon": 0.01},
            "solve": {"horizon": 30.0, "step": 0.001}, "simulate": {"sample_times": [1.002, 5.0]}})

        def fail(*args, **kwargs):
            raise AssertionError("ran before the sample times were checked")

        monkeypatch.setattr(bounds, "make_certificate", fail)
        monkeypatch.setattr(solver, "limiting_regime", fail)
        monkeypatch.setattr(mcsim, "estimate_probs", fail)
        out = tmp_path / "o"
        assert main(["compare", "--model", str(model), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", "error: t=1.002 is not on the sample grid\n")
        assert not out.exists()

    GATES = ("MC/ODE agreement", "decay-rate equality", "fitted rate", "weighted contraction")
    # gate -> (owner, name, change to the result): each moves the one input of one gate past its threshold
    GATE_BREAKERS = {
        "MC/ODE agreement": (mcsim, "estimate_probs", lambda est: replace(est, estimates=est.estimates + 0.2)),
        "decay-rate equality": (ModelSpec, "averaged", lambda avg: ModelSpec(
            *(RateFunction.fixed(2.0 * rate.mean()) for rate in (avg.lam, avg.mu1, avg.mu2)))),
        "fitted rate": (bounds, "make_certificate", lambda cert: replace(cert, beta_star_avg=cert.beta_star_avg + 1.0)),
        "weighted contraction": (solver, "contraction_check", lambda check: replace(check, ratio_certified_max=1.06)),
    }

    @pytest.mark.parametrize("gate", GATES)
    def test_each_gate_can_fail(self, gate, light_model, tmp_path, monkeypatch, capsys):
        owner, name, change = self.GATE_BREAKERS[gate]
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, **kwargs: change(original(*args, **kwargs)))
        assert main(["compare", "--model", str(light_model), "--out", str(tmp_path / "o")]) == 3
        lines = capsys.readouterr().out.splitlines()[1:5]
        assert [line[:6] for line in lines] == ["[FAIL]" if g == gate else "[PASS]" for g in self.GATES]
        assert lines[self.GATES.index(gate)].startswith(f"[FAIL] {gate}")


class TestDumpCommand:
    def test_generator_dump_matches_builder(self, tmp_path, capsys):
        rc = main(["dump", "--model", str(CONFIG_DIR / "example1.json"), "--what", "A",
                   "--t", "0.0", "--n", "6"])
        assert rc == 0
        text = capsys.readouterr().out
        M = np.array([[float(v) for v in line.split()] for line in text.strip().splitlines()])
        from twoproc.matrices import build_A

        cfg = load_model_file(CONFIG_DIR / "example1.json")
        assert np.array_equal(M, build_A(cfg.spec, 0.0, 6))

    def test_forcing_dump_lays_no_matrix_out(self, capsys):
        args = ["dump", "--model", str(CONFIG_DIR / "example3.json"), "--what", "f", "--n", "4095", "--t", "0.37"]
        rc, peak = traced_peak(lambda: main(args))
        assert rc == 0
        row = [float(v) for v in capsys.readouterr().out.split()]
        assert len(row) == 4095 and row[0] > 0.0 and not any(row[1:])
        assert peak <= 5e6  # one 4095 x 4095 array would take 134 MB

    def test_forcing_vector_dump(self, capsys):
        rc = main(["dump", "--model", str(CONFIG_DIR / "example2.json"), "--what", "f",
                   "--t", "0.25", "--n", "6"])
        assert rc == 0
        row = [float(v) for v in capsys.readouterr().out.split()]
        assert row == [6.0, 0.0, 0.0, 0.0, 0.0, 0.0]

    def test_too_small_truncation_exits_one(self, capsys):
        rc = main(["dump", "--model", str(CONFIG_DIR / "example1.json"), "--n", "3"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: truncation must keep at least 5 states\n"


class TestUsageErrors:
    EXAMPLE1 = str(CONFIG_DIR / "example1.json")

    @pytest.mark.parametrize("argv", [
        ["bound", "--model", EXAMPLE1, "--step", "-1"],
        ["solve", "--model", EXAMPLE1, "--paths", "3"],
        ["simulate", "--model", EXAMPLE1, "--epsilon", "0.1"],
        ["dump", "--model", EXAMPLE1, "--out", "x"],
    ], ids=["bound-step", "solve-paths", "simulate-epsilon", "dump-out"])
    def test_flag_the_command_does_not_read_exits_one(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unrecognized arguments: {argv[3]} {argv[4]}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,message", [
        (["bound", "--out", "o"], "the following arguments are required: --model"),
        (["simulate", "--model", EXAMPLE1, "--out", "o", "--paths", "0"], "at least 100 paths are required, got 0"),
        (["dump", "--model", EXAMPLE1, "--n", "0"], "truncation must keep at least 5 states"),
        (["solve", "--model", EXAMPLE1, "--out", "o", "--tol-trunc", "0"],
         "tol_truncation must be finite and positive, got 0"),
        (["solve", "--model", EXAMPLE1, "--out", "o", "--tol-trunc=-1e-6"],
         "tol_truncation must be finite and positive, got -1e-06"),
        (["compare", "--model", EXAMPLE1, "--out", "o", "--tol-mix", "0"],
         "tol_mix must be finite and positive, got 0"),
        (["solve", "--model", EXAMPLE1, "--out", "o", "--horizon", "nan"],
         "horizon must be finite and positive, got nan"),
        (["solve", "--model", EXAMPLE1, "--out", "o", "--horizon", "inf"],
         "horizon must be finite and positive, got inf"),
        (["simulate", "--model", EXAMPLE1, "--out", "o", "--horizon", "inf"],
         "sample times must be finite and nonnegative, got (1.0, 5.0, inf)"),
        (["simulate", "--model", EXAMPLE1, "--out", "o", "--horizon", "0"],
         "horizon must be finite and positive, got 0"),
        (["solve", "--model", EXAMPLE1, "--out", "o", "--n", "4097"],
         "truncation must keep at most 4096 states, got 4097"),
        (["dump", "--model", EXAMPLE1, "--n", "4097"], "truncation must keep at most 4096 states, got 4097"),
        (["dump", "--model", EXAMPLE1, "--what", "B", "--n", "4096"],
         "B keeps at most 4095 states (A on n + 1), got 4096"),
        (["solve", "--model", EXAMPLE1, "--out", "o", "--n", "16", "--horizon", "1e17"],
         "horizon / step must be at most 1e+08 steps, got 1e+20"),
        (["solve", "--model", EXAMPLE1, "--out", "o", "--n", "16", "--step", "5e-324", "--horizon", "5e-324"],
         "1 / step must be finite, got step 4.94066e-324"),
        (["dump", "--model", EXAMPLE1, "--t", "nan"], "t must be finite, got nan"),
        (["dump", "--model", EXAMPLE1, "--t", "inf"], "t must be finite, got inf"),
        (["dump", "--model", EXAMPLE1, "--t=-inf"], "t must be finite, got -inf"),
    ], ids=["missing-model", "paths-0", "dump-n-0", "tol-trunc-0", "tol-trunc-negative", "compare-tol-mix-0",
            "horizon-nan", "horizon-inf", "simulate-horizon-inf", "simulate-horizon-0", "solve-n-4097",
            "dump-n-4097", "dump-B-n-4096", "solve-steps-past-cap", "solve-step-reciprocal-inf", "dump-t-nan",
            "dump-t-inf", "dump-t-minus-inf"])
    def test_missing_model_and_zero_values_exit_one(self, argv, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_help_exits_zero_and_lists_only_the_flags_read(self, capsys):
        flags = {
            "bound": ["--model", "--out", "--epsilon", "--delta1"],
            "solve": ["--model", "--out", "--n", "--step", "--horizon", "--epsilon", "--delta1",
                      "--tol-mix", "--tol-trunc", "--force"],
            "simulate": ["--model", "--out", "--horizon", "--paths", "--seed"],
            "compare": ["--model", "--out", "--n", "--step", "--horizon", "--paths", "--seed", "--epsilon",
                        "--delta1", "--tol-mix", "--tol-trunc"],
            "dump": ["--model", "--n", "--epsilon", "--delta1", "--what", "--t", "--conservative"],
        }
        for command, expected in flags.items():
            with pytest.raises(SystemExit) as exit_info:
                main([command, "--help"])
            assert exit_info.value.code == 0
            listed = re.findall(r"^  (?:-h, )?(--[a-z0-9-]+)", capsys.readouterr().out, flags=re.M)
            assert listed == ["--help", *expected]


@pytest.mark.parametrize("weights", [[], ["--epsilon", "0.1"]], ids=["tuned", "given"])
def test_every_command_refuses_with_the_same_line(weights, tmp_path, capsys):
    model = write_json(tmp_path / "over.json", {
        "lambda": {"constant": 5.0}, "mu1": {"constant": 2.0}, "mu2": {"constant": 2.0},
        "solve": {"n": 16, "horizon": 2.0}})
    refusal = "ergodicity not certified: mean arrival rate 5 >= mean service rate 4\n"
    for command, stream in (("bound", "out"), ("solve", "out"), ("compare", "out"), ("dump", "err")):
        out = tmp_path / command
        flags = ["--what", "transformed"] if command == "dump" else ["--out", str(out)]
        assert main([command, "--model", str(model), *weights, *flags]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ((refusal, "") if stream == "out" else ("", refusal)), command
        if command == "bound":
            assert (out / "certificate.txt").read_text() == refusal
        else:
            assert not out.exists(), command


@pytest.mark.parametrize("error,line", [
    (MemoryError("Unable to allocate 90.3 GiB for an array with shape (1, 12121245664) and data type float64"),
     "error: Unable to allocate 90.3 GiB for an array with shape (1, 12121245664) and data type float64\n"),
    (MemoryError(), "error: out of memory\n"),
], ids=["numpy", "bare"])
def test_memory_error_exits_one_with_one_line(error, line, tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(mcsim, "estimate_probs", fail)
    assert main(["simulate", "--model", str(CONFIG_DIR / "example1.json"), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr() == ("", line)


def test_closed_stdout_exits_one_without_traceback(tmp_path, monkeypatch):
    class ClosedPipe(io.TextIOBase):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    err = io.StringIO()
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    monkeypatch.setattr(sys, "stderr", err)
    model = str(CONFIG_DIR / "example1.json")
    assert main(["bound", "--model", model, "--out", str(tmp_path / "a")]) == 1
    assert err.getvalue() == ""
    # a redirected stdout that stays open, as perfbench's in-process runs use, still works
    with contextlib.redirect_stdout(io.StringIO()) as buffer:
        assert main(["bound", "--model", model, "--out", str(tmp_path / "b")]) == 0
    assert buffer.getvalue().startswith("convergence certificate\n")


def test_successive_calls_match_separate_runs(tmp_path):
    # main builds its parser once per process; a flag of one call must not
    # carry over into the next
    model = str(CONFIG_DIR / "example1.json")
    env = dict(os.environ, PYTHONPATH=str(Path(twoproc.__file__).parents[1]))
    flags = (["--epsilon", "0.1"], [])
    for i, extra in enumerate(flags):
        assert main(["bound", "--model", model, "--out", str(tmp_path / f"in{i}"), *extra]) == 0
    for i, extra in enumerate(flags):
        subprocess.run([sys.executable, "-m", "twoproc.cli", "bound", "--model", model,
                        "--out", str(tmp_path / f"run{i}"), *extra], env=env, check=True, capture_output=True)
    certs = [[(tmp_path / f"{kind}{i}" / "certificate.json").read_bytes() for i in (0, 1)] for kind in ("in", "run")]
    assert certs[0] == certs[1]
    assert certs[0][0] != certs[0][1]


def test_output_dir_from_environment(light_model, tmp_path, monkeypatch):
    target = tmp_path / "env-out"
    monkeypatch.setenv("TWOPROC_OUT", str(target))
    assert main(["bound", "--model", str(light_model)]) == 0
    assert (target / "certificate.json").exists()


def test_rerun_replaces_every_output(tmp_path, capsys):
    # a rerun unlinks each output and creates it anew: same bytes, and a hard
    # link made before the rerun keeps the old file instead of being written through
    out, links = tmp_path / "out", tmp_path / "links"
    model = str(CONFIG_DIR / "example1.json")
    runs = (["bound"], ["solve"], ["simulate", "--paths", "2000"], ["compare", "--paths", "2000"])
    codes = [main([*argv, "--model", model, "--out", str(out)]) for argv in runs]
    assert codes[:3] == [0, 0, 0]
    first = {path.name: path.read_bytes() for path in out.iterdir()}
    assert len(first) == 16  # bound 2, solve 10, simulate 2, compare 2 more
    links.mkdir()
    for name in first:
        os.link(out / name, links / name)
    assert [main([*argv, "--model", model, "--out", str(out)]) for argv in runs] == codes
    capsys.readouterr()
    assert {path.name: path.read_bytes() for path in out.iterdir()} == first
    for name, data in first.items():
        assert (links / name).read_bytes() == data
        assert not os.path.samefile(links / name, out / name), name


def test_symlinked_output_is_replaced_not_followed(tmp_path):
    out, target = tmp_path / "out", tmp_path / "target.txt"
    out.mkdir()
    target.write_text("keep\n")
    (out / "certificate.txt").symlink_to(target)
    assert main(["bound", "--model", str(CONFIG_DIR / "example1.json"), "--out", str(out)]) == 0
    assert target.read_text() == "keep\n"
    assert not (out / "certificate.txt").is_symlink()
    assert (out / "certificate.txt").read_text().startswith("convergence certificate\n")


def test_any_unicode_model_name(light_model, tmp_path, capsys):
    # the name reaches the reports as UTF-8 and the chart titles escaped
    name = "a&b<c é"
    payload = json.loads(light_model.read_text())
    model = tmp_path / "named.json"
    model.write_text(json.dumps({**payload, "name": name}, ensure_ascii=False), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["solve", "--model", str(model), "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith(f"model: {name}\n")
    assert (out / "report.txt").read_text(encoding="utf-8").startswith(f"model: {name}\n")
    charts = sorted(out.glob("*.svg"))
    assert len(charts) == 6
    for chart in charts:
        title = ET.parse(chart).getroot().find("{http://www.w3.org/2000/svg}text").text
        assert title.startswith(f"{name}: "), chart.name
