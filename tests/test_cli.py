import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import reference_trajectory_csv
import twoproc
from twoproc import solver
from twoproc.cli import MAX_CSV_ROWS, ConfigError, _csv_order, load_model_file, main, write_trajectory_csv

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


class TestBoundCommand:
    def test_light_traffic_certificate_values(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["bound", "--model", str(CONFIG_DIR / "example1.json"), "--out", str(out)])
        assert rc == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["beta_star_avg"] == pytest.approx(0.99, abs=1e-14)
        assert cert["beta_star_periodic"] >= 0.3
        assert (out / "certificate.txt").read_text().startswith("convergence certificate")

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


class TestSolveCommand:
    EXPECTED_FILES = (
        "trajectory_x0.csv", "trajectory_xfar.csv", "limit_cycle.csv", "report.txt",
        "p00.svg", "p01.svg", "p10.svg", "p11.svg", "mean.svg", "mean_cycle.svg",
        "certificate.txt",
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
            times=times, probs=probs, mean=mean, l1_defect=np.zeros(rows), n=n, step=0.001,
            defect_total=0.0, defect_per_unit_time=0.0, min_entry_pre=0.0,
        )

    @pytest.mark.parametrize("rows", [7, 2500, MAX_CSV_ROWS + 2345])
    def test_byte_identical_to_per_cell_format(self, rows, tmp_path):
        traj = self.trajectory(rows, 9)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj)
        header, body = path.read_text().split("\n", 1)
        assert header == "t,p00,p01,p10,p11,p12,p13,p14,p15,p16,mean"
        assert body == reference_trajectory_csv(traj, _csv_order(9), MAX_CSV_ROWS)
        if rows > MAX_CSV_ROWS:
            assert body.count("\n") == (rows + 1) // 2
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

    def test_too_few_paths_exits_one(self, light_model, tmp_path, capsys):
        rc = main(["simulate", "--model", str(light_model), "--out", str(tmp_path / "o"), "--paths", "10"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "100 paths" in err
        assert err.count("\n") == 1


class TestCompareCommand:
    def test_light_model_passes_all_gates(self, light_model, tmp_path):
        out = tmp_path / "cmp"
        rc = main(["compare", "--model", str(light_model), "--out", str(out)])
        assert rc == 0
        report = (out / "compare_report.txt").read_text()
        assert report.count("[PASS]") == 4
        assert (out / "agreement.csv").exists()

    def test_validation_error_before_any_run(self, tmp_path, capsys):
        model = write_json(tmp_path / "bad.json", {
            "lambda": {"constant": 1.0}, "mu1": {"constant": 1.0}, "mu2": {"constant": 2.0}})
        assert main(["compare", "--model", str(model), "--out", str(tmp_path / "o")]) == 1


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
