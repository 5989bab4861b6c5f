import json
import os
import subprocess
import sys

import numpy as np
import pytest

from mpvesd.cli import main
from mpvesd.config import ConfigError, load_config, parse_config, save_config
from mpvesd.experiments import ExperimentConfig

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


@pytest.fixture
def tiny_exp_config(tmp_path):
    return _write(tmp_path, "tiny.json", {
        "family": "conv_rate",
        "schedule": [24, 40, 64, 96, 140],
        "d": 0.5,
        "spectrum": [{"sigma": 1.0, "weight": 1.0}],
        "trials": 2,
        "seed": 13,
    })


@pytest.fixture
def law_config(tmp_path):
    return _write(tmp_path, "law.json", {
        "spectrum": [{"sigma": 1.0, "weight": 0.5},
                     {"sigma": 4.0, "weight": 0.5}],
        "d": 0.5,
    })


class TestConfig:
    def test_law_config_loads(self, law_config):
        obj, notes = load_config(law_config)
        assert obj.d == 0.5
        assert obj.spectrum.atoms[0][0] == 4.0

    def test_bad_weights_named(self, tmp_path):
        path = _write(tmp_path, "bad.json", {
            "spectrum": [{"sigma": 1.0, "weight": 0.99}], "d": 0.5})
        with pytest.raises(ConfigError, match="spectrum"):
            load_config(path)

    def test_missing_trials_defaulted_with_note(self, tmp_path):
        path = _write(tmp_path, "exp.json", {
            "family": "conv_rate", "schedule": [10, 20], "d": 0.5})
        cfg, notes = load_config(path)
        assert cfg.trials == 10
        assert any("trials=10" in n for n in notes)

    def test_all_errors_reported_at_once(self, tmp_path):
        path = _write(tmp_path, "multi.json", {
            "family": "nope", "schedule": [30, 10], "trials": 0, "d": -1})
        with pytest.raises(ConfigError) as err:
            load_config(path)
        msg = str(err.value)
        for key in ("family", "schedule", "trials", "d"):
            assert key in msg

    def test_schedule_roundtrip(self, tmp_path):
        cfg = ExperimentConfig(family="conv_rate",
                               schedule=(50, 100, 200, 400, 800), d=0.5,
                               seed=7)
        path = str(tmp_path / "roundtrip.json")
        save_config(cfg, path)
        loaded, _ = load_config(path)
        assert loaded.schedule == (50, 100, 200, 400, 800)
        assert loaded.seed == 7
        assert loaded.family == "conv_rate"

    def test_unknown_params_listed_with_other_errors(self, tmp_path):
        path = _write(tmp_path, "params.json", {
            "family": "spiked_vesd", "trials": 0,
            "params": {"n": 50, "bogus": 1}})
        with pytest.raises(ConfigError) as err:
            load_config(path)
        msg = str(err.value)
        for word in ("trials", "'n'", "'bogus'"):
            assert word in msg

    def test_parse_rejects_non_object(self):
        with pytest.raises(ConfigError):
            parse_config([1, 2, 3])


class TestCli:
    def test_law_edges_two_atom(self, law_config, tmp_path, capsys):
        out = str(tmp_path / "edges.csv")
        rc = main(["law", "edges", "--config", law_config, "--out", out])
        assert rc == 0
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "kind,a_lo,a_hi"
        comp = [l for l in lines if l.startswith("component")]
        assert len(comp) == 1
        lo, hi = map(float, comp[0].split(",")[1:])
        assert lo == pytest.approx(0.311118658683, abs=1e-6)
        assert hi == pytest.approx(17.142441266316, abs=1e-6)
        zero = [l for l in lines if l.startswith("zero_atom")][0]
        assert float(zero.split(",")[1]) == 0.0
        assert "rows" in capsys.readouterr().out

    def test_exp_conv_rate_deterministic_bytes(self, tiny_exp_config, tmp_path):
        out1 = str(tmp_path / "a.csv")
        out2 = str(tmp_path / "b.csv")
        assert main(["exp", "conv_rate", "--config", tiny_exp_config,
                     "--out", out1, "--seed", "7", "--jobs", "1"]) == 0
        assert main(["exp", "conv_rate", "--config", tiny_exp_config,
                     "--out", out2, "--seed", "7", "--jobs", "1"]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()
        header = open(out1).readline().strip()
        assert header == "family,N,trial,seed,statistic,value"

    def test_unknown_flag_exits_2_without_output(self, tiny_exp_config, tmp_path):
        out = str(tmp_path / "never.csv")
        with pytest.raises(SystemExit) as exc:
            main(["exp", "conv_rate", "--config", tiny_exp_config,
                  "--out", out, "--bogus-flag"])
        assert exc.value.code == 2
        assert not os.path.exists(out)

    def test_config_error_exit_code(self, tmp_path):
        bad = _write(tmp_path, "bad.json", {
            "spectrum": [{"sigma": 1.0, "weight": 0.9}], "d": 0.5})
        out = str(tmp_path / "never.csv")
        rc = main(["law", "edges", "--config", bad, "--out", out])
        assert rc == 2
        assert not os.path.exists(out)

    def test_quantile_out_of_range_exit_code(self, tmp_path):
        # d = 2 leaves continuous mass 1/2, so N = 100 locations need M <= 50
        cfg = _write(tmp_path, "d2.json",
                     {"spectrum": [{"sigma": 1.0, "weight": 1.0}], "d": 2.0})
        out = str(tmp_path / "never.csv")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-m", "mpvesd.cli", "law", "gamma", "--config",
             cfg, "--out", out, "--N", "100", "--M", "200"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "input error:" in proc.stderr
        assert "exceeds continuous mass" in proc.stderr
        assert not os.path.exists(out)

    def test_unknown_params_exit_code(self, tmp_path):
        path = _write(tmp_path, "params.json", {
            "family": "spiked_vesd", "params": {"n": 50, "bogus": 1}})
        out = str(tmp_path / "never.csv")
        assert main(["exp", "spiked_vesd", "--config", path,
                     "--out", out]) == 2
        assert not os.path.exists(out)

    def test_family_mismatch_rejected(self, tiny_exp_config, tmp_path):
        rc = main(["exp", "rigidity", "--config", tiny_exp_config,
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_law_density_csv(self, law_config, tmp_path):
        out = str(tmp_path / "density.csv")
        rc = main(["law", "density", "--config", law_config, "--out", out,
                   "--n", "50"])
        assert rc == 0
        rows = open(out).read().strip().splitlines()
        assert rows[0] == "E,value"
        assert len(rows) == 51

    def test_law_solve_point(self, law_config, tmp_path):
        out = str(tmp_path / "m.csv")
        rc = main(["law", "solve", "--config", law_config, "--out", out,
                   "--E", "3.0", "--eta", "0.1"])
        assert rc == 0
        row = open(out).read().strip().splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(-0.0851245273858, abs=1e-9)
        assert float(row[3]) == pytest.approx(0.3219822422135, abs=1e-9)

    def test_law_gamma(self, law_config, tmp_path):
        out = str(tmp_path / "gamma.csv")
        rc = main(["law", "gamma", "--config", law_config, "--out", out,
                   "--N", "10", "--M", "20"])
        assert rc == 0
        rows = open(out).read().strip().splitlines()[1:]
        gammas = [float(r.split(",")[1]) for r in rows]
        assert len(gammas) == 10
        assert all(a > b for a, b in zip(gammas, gammas[1:]))

    def test_law_regularity(self, law_config, tmp_path):
        out = str(tmp_path / "reg.csv")
        assert main(["law", "regularity", "--config", law_config,
                     "--out", out]) == 0
        rows = open(out).read().strip().splitlines()
        assert len(rows) == 3  # header + two edges

    def test_sample_eigenvalues(self, law_config, tmp_path):
        out = str(tmp_path / "eigs.csv")
        rc = main(["sample", "--config", law_config, "--out", out,
                   "--N", "40", "--seed", "3"])
        assert rc == 0
        rows = open(out).read().strip().splitlines()[1:]
        lams = [float(r.split(",")[1]) for r in rows]
        assert len(lams) == 80  # M = N/d = 80 eigenvalues of Q1
        assert all(a >= b - 1e-12 for a, b in zip(lams, lams[1:]))

    def test_vesd_and_dist(self, law_config, tmp_path):
        out = str(tmp_path / "vesd.csv")
        rc = main(["vesd", "--config", law_config, "--out", out,
                   "--N", "60", "--seed", "3", "--vector", "random"])
        assert rc == 0
        rows = open(out).read().strip().splitlines()[1:]
        cum = [float(r.split(",")[1]) for r in rows]
        assert cum[-1] == pytest.approx(1.0, abs=1e-5)
        out2 = str(tmp_path / "dist.csv")
        rc = main(["dist", "--config", law_config, "--out", out2,
                   "--N", "60", "--seed", "3"])
        assert rc == 0
        val = float(open(out2).read().strip().splitlines()[1].split(",")[1])
        assert 0.0 < val < 1.0

    def test_lab_identities(self, tmp_path):
        out = str(tmp_path / "ids.csv")
        rc = main(["lab", "identities", "--out", out, "--M", "10", "--N", "10",
                   "--trials", "5", "--seed", "1"])
        assert rc == 0
        rows = open(out).read().strip().splitlines()[1:]
        assert len(rows) == 5
        assert all(float(r.split(",")[1]) < 1e-8 for r in rows)

    def test_lab_rigidity(self, tmp_path, law_config):
        cfg = _write(tmp_path, "ident.json",
                     {"spectrum": [{"sigma": 1.0, "weight": 1.0}], "d": 2.0})
        out = str(tmp_path / "rig.csv")
        rc = main(["lab", "rigidity", "--config", cfg, "--out", out,
                   "--N", "100", "--trials", "5"])
        assert rc == 0
        assert len(open(out).read().strip().splitlines()) == 7  # header+5+median

    def test_repo_configs_parse(self):
        for name in os.listdir(CONFIG_DIR):
            load_config(os.path.join(CONFIG_DIR, name))


@pytest.mark.parametrize("name", sorted(os.listdir(CONFIG_DIR)))
def test_repo_config_loads_and_roundtrips(name, tmp_path):
    obj, _ = load_config(os.path.join(CONFIG_DIR, name))
    path = str(tmp_path / name)
    save_config(obj, path)
    assert load_config(path)[0] == obj
