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

    def test_bad_config_returns_nonzero(self, tmp_path):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("design : pauli\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_inline_comment_accepted(self, tmp_path):
        commented = SIM_CONFIG.replace("reps = 30", "reps = 30  # per cell")
        outputs = []
        for tag, text in (("plain", SIM_CONFIG), ("commented", commented)):
            (tmp_path / tag).mkdir()
            cfg = _write_config(tmp_path / tag, text)
            assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / tag)]) == 0
            outputs.append((tmp_path / tag / "tables.csv").read_text())
        assert outputs[0] == outputs[1]

    def test_line_without_equals_named(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, "design = pauli\nreps 30\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "line 2 is not key = value: 'reps 30'" in capsys.readouterr().err

    def test_repeated_key_rejected(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, SIM_CONFIG + "reps = 20\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert "line 11 repeats key 'reps' of line 7" in capsys.readouterr().err
        assert not out.exists()

    def test_n_grid_below_two_rejected(self, tmp_path, capsys):
        # n = 1 used to fail inside the pair statistic, after the output
        # directory was made
        cfg = _write_config(tmp_path, SIM_CONFIG.replace("n_grid = 20,40", "n_grid = 1,20"))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert "n_grid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edits, match", [
        ({"R = 0.1": "R = 0.1,nan"}, "error_norm_sq must be finite and > 0, got nan"),
        ({"R = 0.1": "R = inf"}, "error_norm_sq must be finite and > 0, got inf"),
        ({"design = pauli": "design = gaussian", "d = 4": "d = 0"}, "d must be >= 1, got 0"),
        ({"seed = 12": "seed = -1"}, "seed must be a non-negative integer, got -1"),
    ])
    def test_unusable_spec_rejected_before_any_file(self, tmp_path, capsys, edits, match):
        # a bad R used to be found after the first results file was written,
        # d = 0 under a Gaussian design wrote a table with exit 0, and a
        # negative seed failed with a message naming no key, after the output
        # directory was made
        text = SIM_CONFIG
        for old, new in edits.items():
            text = text.replace(old, new)
        cfg = _write_config(tmp_path, text)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert match in capsys.readouterr().err
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
        assert log[0].endswith(",diameter,pilot_iterations,pilot_converged,pilot_gap")
        rows = [line.split(",") for line in log[1:]]
        assert all(row[-2] in ("0", "1") for row in rows)
        # a pilot converged exactly when its gap met the default tolerance
        assert all((row[-2] == "1") == (float(row[-1]) <= lq.PilotConfig().gap_tol)
                   for row in rows)
        assert len(log) == 1 + len(payload["epochs"])

    def test_empty_epoch_log_gets_the_header(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        args = ["certify", "--d", "4", "--eps", "0.5", "--seed", "7"]
        assert main(args) == 0
        fresh = (tmp_path / "certify_epochs.csv").read_text()
        (tmp_path / "certify_epochs.csv").write_text("")
        assert main(args) == 0
        assert (tmp_path / "certify_epochs.csv").read_text() == fresh

    def test_epoch_log_with_another_header_refused(self, tmp_path, capsys, monkeypatch):
        # the header of logs written before the pilot gap was recorded
        monkeypatch.chdir(tmp_path)
        old = ("seed,d,rank,m,budget,n_half,method,alpha,statistic,radius_sq,diameter,"
               "pilot_iterations,pilot_converged\n7,4,1,1,4,2,RSS,0.1,0.5,1,1,3,1\n")
        (tmp_path / "certify_epochs.csv").write_text(old)
        assert main(["certify", "--d", "4", "--eps", "0.5", "--seed", "7"]) == 1
        assert "another header" in capsys.readouterr().err
        assert (tmp_path / "certify_epochs.csv").read_text() == old

    def test_bernoulli_noise_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main([
            "certify", "--d", "4", "--eps", "0.6", "--design", "pauli",
            "--noise", "bernoulli:4096", "--seed", "3",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
        assert payload["stopped"] is True

    @pytest.mark.parametrize("noise", ["gaussian:0.3", "gaussian:abc", "gaussian:"])
    def test_gaussian_noise_suffix_rejected(self, tmp_path, capsys, monkeypatch, noise):
        # sigma comes from --sigma alone; a suffix used to be ignored
        monkeypatch.chdir(tmp_path)
        assert main(["certify", "--d", "4", "--eps", "0.5", "--noise", noise]) == 1
        assert repr(noise) in capsys.readouterr().err
        assert not (tmp_path / "certify_epochs.csv").exists()

    def test_bernoulli_noise_on_gaussian_design_rejected(self, tmp_path, capsys, monkeypatch):
        # used to fail in epoch 1, inside the Bernoulli channel
        monkeypatch.chdir(tmp_path)
        (tmp_path / "certify_epochs.csv").write_text("kept\n")
        assert main(["certify", "--d", "4", "--eps", "0.5", "--design", "gaussian",
                     "--noise", "bernoulli:64"]) == 1
        assert "Pauli designs only" in capsys.readouterr().err
        assert (tmp_path / "certify_epochs.csv").read_text() == "kept\n"

    @pytest.mark.parametrize("flag, value, name", [
        ("--sigma", "nan", "sigma"), ("--sigma", "inf", "sigma"), ("--sigma", "-0.1", "sigma"),
        ("--eps", "nan", "epsilon"), ("--eps", "inf", "epsilon"), ("--eps", "0", "epsilon"),
    ])
    def test_unusable_sigma_or_eps_rejected(self, tmp_path, capsys, monkeypatch,
                                            flag, value, name):
        # a non-finite value used to fail in epoch 1 with an unrelated error
        monkeypatch.chdir(tmp_path)
        # a repeated option takes its last value
        assert main(["certify", "--d", "4", "--eps", "0.5", flag, value]) == 1
        assert f"{name} must be" in capsys.readouterr().err
        assert not (tmp_path / "certify_epochs.csv").exists()

    def test_negative_seed_rejected(self, tmp_path, capsys, monkeypatch):
        # used to fail inside SeedSequence with a message naming no option
        monkeypatch.chdir(tmp_path)
        assert main(["certify", "--d", "4", "--eps", "0.5", "--seed", "-1"]) == 1
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not (tmp_path / "certify_epochs.csv").exists()

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
        # the default --reps is the nuclear fixture's replication count
        out = tmp_path / "constants.txt"
        assert main(["calibrate", "--out", str(out), "--seed", "5"]) == 0
        constants = lq.load_constants(out)
        assert set(constants) == {"pilot_D", "nuclear_c_v", "nuclear_C"}
        assert all(value > 0 for value in constants.values())

    def test_reps_below_floor_rejected(self, tmp_path, capsys):
        # a count below 60 used to be raised to 60 without a word
        out = tmp_path / "constants.txt"
        assert main(["calibrate", "--out", str(out), "--reps", "59"]) == 1
        assert "reps 59 is below the floor of 60" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, name", [
        ("--delta", "1.5", "delta 1.5 is outside (0, 1)"),
        ("--delta", "0", "delta 0.0 is outside (0, 1)"),
    ])
    def test_unusable_target_or_delta_rejected(self, tmp_path, capsys, flag, value, name):
        out = tmp_path / "constants.txt"
        assert main(["calibrate", "--out", str(out), flag, value]) == 1
        assert name in capsys.readouterr().err
        assert not out.exists()
