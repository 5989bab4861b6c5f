import json
import os
import subprocess
import sys

import numpy as np
import pytest

from mpvesd import cli
from mpvesd.cli import main
from mpvesd.config import load_config, parse_config, save_config
from mpvesd.errors import InputError, NumericalError
from mpvesd.experiments import ExperimentConfig

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _run_cli(*argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC_DIR] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "mpvesd.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


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
        with pytest.raises(InputError, match="spectrum"):
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
        with pytest.raises(InputError, match="family: must be one of") as err:
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
        with pytest.raises(InputError, match="params: unknown keys") as err:
            load_config(path)
        msg = str(err.value)
        for word in ("trials", "'n'", "'bogus'"):
            assert word in msg

    def test_unread_fields_rejected(self):
        # spiked_vesd builds its own spectrum and aspect ratio from params
        with pytest.raises(InputError, match="unknown fields") as err:
            parse_config({"family": "spiked_vesd", "d": 7,
                          "spectrum": [{"sigma": 2.0, "weight": 1.0}],
                          "trials": 0, "params": {"bogus": 1}})
        msg = str(err.value)
        for word in ("'d'", "'spectrum'", "trials", "'bogus'"):
            assert word in msg

    @pytest.mark.parametrize("raw, field", [
        ({"family": "conv_rate", "repetition_cap": 5}, "'repetition_cap'"),
        ({"family": "expected_conv", "trials": 5}, "'trials'"),
        ({"family": "rigidity", "out": "x.csv"}, "'out'"),
        ({"spectrum": [{"sigma": 1.0, "weight": 1.0}], "d": 2.0,
          "trials": 5}, "'trials'"),
    ])
    def test_each_family_rejects_what_it_does_not_read(self, raw, field):
        with pytest.raises(InputError, match=f"unknown fields \\[{field}\\]"):
            parse_config(raw)

    def test_default_notes_name_only_read_fields(self):
        _, notes = parse_config({"family": "spiked_vesd"})
        assert notes == ["trials=10"]
        _, notes = parse_config({"family": "expected_conv"})
        assert notes == ["spectrum=delta_1", "d=0.5", "entry_law=gaussian"]

    def test_saved_config_holds_only_read_fields(self, tmp_path):
        path = str(tmp_path / "spiked.json")
        save_config(ExperimentConfig(family="spiked_vesd", params={"M": 40}),
                    path)
        assert set(json.loads(open(path).read())) == {
            "family", "trials", "seed", "params"}

    def test_parse_rejects_non_object(self):
        with pytest.raises(InputError, match="must be a JSON object"):
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
        proc = _run_cli("law", "gamma", "--config", cfg, "--out", out,
                        "--N", "100", "--M", "200")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "input error:" in proc.stderr
        assert "exceeds continuous mass" in proc.stderr
        assert not os.path.exists(out)

    def test_numerical_failure_exit_code(self, law_config, tmp_path,
                                         monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise NumericalError("support edges do not alternate")
        monkeypatch.setattr(cli, "solve_law", fail)
        out = str(tmp_path / "never.csv")
        assert main(["law", "edges", "--config", law_config,
                     "--out", out]) == 1
        err = capsys.readouterr().err
        assert "numerical failure in law: support edges" in err
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

    def test_law_density_hard_edge_row(self, tmp_path):
        # delta_1 at d = 1: the default grid starts at the hard edge E = 0,
        # where the density diverges like E^{-1/2}
        cfg = _write(tmp_path, "d1.json",
                     {"spectrum": [{"sigma": 1.0, "weight": 1.0}], "d": 1.0})
        out = str(tmp_path / "density.csv")
        assert main(["law", "density", "--config", cfg, "--out", out,
                     "--n", "5"]) == 0
        rows = open(out).read().strip().splitlines()
        assert rows[1] == "0,inf"
        assert all(0.0 < float(r.split(",")[1]) < 1.0 for r in rows[2:-1])

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


LAW = {"spectrum": [{"sigma": 1.0, "weight": 1.0}], "d": 0.5}


#: (command, config: a JSON object, a file name that does not exist or
#: None, and a phrase the one-line message must hold)
FAILURE_PROBES = [
    (["vesd", "--N", "10", "--vector", "ex"], LAW, "vector: expected"),
    (["law", "solve", "--E", "1.0", "--eta", "0"], LAW, "upper half plane"),
    (["law", "solve", "--E", "abc"], LAW, "--E: expected"),
    (["law", "density", "--n", "-1"], LAW, "--n: must be >= 1"),
    (["law", "gamma", "--N", "0"], LAW, "need N, M >= 1"),
    (["lab", "identities", "--M", "0"], None, "dimensions must be >= 1"),
    (["lab", "locallaw", "--N", "0"], LAW, "N must be >= 1"),
    (["sample", "--N", "0"], LAW, "dimensions must be >= 1"),
    (["sample", "--N", "5", "--M", "-3"], LAW, "M must be >= 1"),
    (["exp", "conv_rate"], {
        "family": "conv_rate", "schedule": [20, 40], "d": 0.5, "trials": 2,
        "entry_law": {"kind": "pareto_symmetric", "a": 1.5}},
     "must exceed 2, got 1.5"),
    (["exp", "spiked_vesd"], {
        "family": "spiked_vesd", "d": 7, "trials": 1,
        "spectrum": [{"sigma": 2.0, "weight": 1.0}],
        "params": {"M": 40, "inner_reps": 1}},
     "unknown fields ['d', 'spectrum']"),
    (["law", "edges"], "missing.json", "cannot read"),
]


@pytest.mark.parametrize("argv, config, message", FAILURE_PROBES,
                         ids=[" ".join(p[0]) for p in FAILURE_PROBES])
def test_cli_failures_exit_2_with_one_line(argv, config, message, tmp_path):
    out = str(tmp_path / "never.csv")
    if isinstance(config, dict):
        argv = argv + ["--config", _write(tmp_path, "c.json", config)]
    elif config is not None:
        argv = argv + ["--config", str(tmp_path / config)]
    proc = _run_cli(*argv, "--out", out)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    # besides the run's log line, stderr holds one line naming the failure
    lines = [l for l in proc.stderr.splitlines() if not l.startswith("mpvesd: ")]
    assert len(lines) == 1 and lines[0].startswith("input error: ")
    assert message in lines[0]
    assert not os.path.exists(out)
