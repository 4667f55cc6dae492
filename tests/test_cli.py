import json

import pytest

import lowrank_uq as lq
from lowrank_uq.cli import main


SIM_CONFIG = """
# small experiment grid
design = pauli
eta = dirac,pauli
R = 0.1
n_grid = 20,40
reps = 30
d = 4
seed = 12
constants = simulation
"""


def _write_config(tmp_path, text=SIM_CONFIG):
    path = tmp_path / "config.txt"
    path.write_text(text)
    return path


class TestSimulateCommand:
    def test_writes_results_and_tables(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "results_pauli_dirac_R0.1.csv",
            "results_pauli_pauli_R0.1.csv",
            "tables.csv",
        ]
        tables = (out / "tables.csv").read_text().strip().split("\n")
        assert tables[0] == "design,eta,R,row,n20,n40"
        assert len(tables) == 1 + 2 * 4

    def test_seed_env_override_changes_results(self, tmp_path, monkeypatch):
        cfg = _write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(cfg), "--out", str(out_a)])
        monkeypatch.setenv("LOWRANK_UQ_SEED", "999")
        main(["simulate", "--config", str(cfg), "--out", str(out_b)])
        a = (out_a / "results_pauli_dirac_R0.1.csv").read_text()
        b = (out_b / "results_pauli_dirac_R0.1.csv").read_text()
        assert a != b

    def test_bad_config_returns_nonzero(self, tmp_path):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("design : pauli\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_n_grid_below_two_rejected(self, tmp_path, capsys):
        # n = 1 used to fail inside the pair statistic, after the output
        # directory was made
        cfg = _write_config(tmp_path, SIM_CONFIG.replace("n_grid = 20,40", "n_grid = 1,20"))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert "n_grid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, name", [
        ("n_gird = 20,40", "'n_gird'"),
        ("constants = theory", "'constants'"),
    ])
    def test_unknown_key_or_regime_rejected(self, tmp_path, capsys, line, name):
        cfg = _write_config(tmp_path, SIM_CONFIG + line + "\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert name in capsys.readouterr().err
        assert not out.exists()


class TestCertifyCommand:
    def test_json_and_epoch_log(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main([
            "certify", "--d", "4", "--rank", "1", "--sigma", "0.05", "--eps", "0.5",
            "--delta", "0.1", "--design", "pauli", "--noise", "gaussian",
            "--constants", "simulation", "--seed", "7",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
        assert payload["stopped"] is True
        assert payload["n_hat"] == sum(e["budget"] for e in payload["epochs"])
        log = (tmp_path / "certify_epochs.csv").read_text().strip().split("\n")
        assert log[0].startswith("seed,d,rank,m,budget")
        assert len(log) == 1 + len(payload["epochs"])

    def test_bernoulli_noise_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main([
            "certify", "--d", "4", "--eps", "0.6", "--design", "pauli",
            "--noise", "bernoulli:4096", "--seed", "3",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
        assert payload["stopped"] is True

    def test_unstopped_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main([
            "certify", "--d", "4", "--eps", "0.001", "--design", "pauli",
            "--constants", "theory", "--seed", "3",
        ])
        # unreachable accuracy within the epoch cap; surfaced via exit code 2
        assert rc == 2


class TestCalibrateCommand:
    def test_writes_constants_file(self, tmp_path, capsys):
        out = tmp_path / "constants.txt"
        rc = main([
            "calibrate", "--out", str(out), "--seed", "5", "--targets", "rss",
            "--reps", "120",
        ])
        assert rc == 0
        constants = lq.load_constants(out)
        assert "rss_c" in constants and constants["rss_c"] > 0
        namespace = set(lq.DEFAULT_SIMULATION_CONSTANTS) | {"pilot_D", "nuclear_c_v", "nuclear_C"}
        assert set(constants) <= namespace
