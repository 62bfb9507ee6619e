import csv
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from seqopt import tasks
from seqopt.cli import main
from seqopt.config import config_echo, load_config
from seqopt.flow import FlowTrainConfig
from seqopt.predictor import PredictorConfig
from seqopt.vae import VaeConfig

TINY_INI = """
[task]
name = synthetic-medium
seed = 5
length = 8
full_size = 1500
max_train = 400
max_mutations = 5
percentile_low = 20
percentile_high = 50
gap = 2
n_pairs = 8

[paths]
workdir = work
results = results

[vae]
latent_dim = 6
beta = 0.002
epochs = 25
batch_size = 64
hidden_channels = 24

[flow]
epochs = 100
batch_size = 128
hidden = 64

[predictor]
epochs = 40
batch_size = 64
hidden_channels = 12
hidden_dense = 32

[sampler]
steps = 8
guidance_steps = 2
alpha = 0.3
batch = 48
top_k = 16
mode = manifold
seed = 100

[evaluate]
seeds = 100,101

[grid]
alphas = 0,0.3
guidance_steps = 0,2

[extrapolate]
y_values = 0.3,1.0
batch = 32

[ode_sweep]
steps = 4,8
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Config + trained checkpoints shared by all CLI command tests."""
    root = tmp_path_factory.mktemp("cli")
    ini = root / "run.ini"
    ini.write_text(TINY_INI)
    assert main(["train-vae", str(ini)]) == 0
    assert main(["train-prior", str(ini)]) == 0
    assert main(["train-prior", str(ini), "--conditional"]) == 0
    assert main(["train-predictor", str(ini)]) == 0
    return root, ini


class TestTraining:
    def test_checkpoints_and_reports_exist(self, workspace):
        root, _ = workspace
        work = root / "work"
        for name in ("vae_encoder.npz", "vae_decoder.npz", "flow.npz",
                     "flow_conditional.npz", "predictor.npz",
                     "vae_report.json", "flow_report.json", "predictor_report.json"):
            assert (work / name).exists(), name

    def test_conditional_flag_in_checkpoint(self, workspace):
        root, _ = workspace
        from seqopt.flow import load_flow
        assert load_flow(root / "work" / "flow_conditional.npz").conditional
        assert not load_flow(root / "work" / "flow.npz").conditional

    def test_train_prior_requires_vae(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(TINY_INI)
        assert main(["train-prior", str(ini)]) == 3  # missing VAE checkpoint

    def test_rerun_identical_checksums(self, workspace, capsys):
        root, ini = workspace
        report = json.loads((root / "work" / "vae_report.json").read_text())
        assert main(["train-vae", str(ini)]) == 0
        report2 = json.loads((root / "work" / "vae_report.json").read_text())
        assert report["checksums"] == report2["checksums"]

    def test_synthetic_oracle_training_rejected(self, workspace):
        _, ini = workspace
        assert main(["train-predictor", str(ini), "--role", "oracle"]) == 1


class TestSample:
    def test_sample_writes_result(self, workspace, capsys):
        root, ini = workspace
        assert main(["sample", str(ini)]) == 0
        out = capsys.readouterr().out
        path = Path(out.split()[1])
        payload = json.loads(path.read_text())
        assert payload["config_echo"]["sampler"]["mode"] == "manifold"
        assert len(payload["sequences"]) <= 16
        assert all(len(s) == 8 for s in payload["sequences"])

    def test_unconditional_mode_forces_alpha_zero(self, workspace, capsys):
        root, ini = workspace
        assert main(["sample", str(ini), "--mode", "unconditional"]) == 0
        path = Path(capsys.readouterr().out.split()[1])
        echo = json.loads(path.read_text())["provenance"]["config"]
        assert echo["mode"] == "unconditional"
        assert echo["alpha"] == 0.0 and echo["guidance_steps"] == 0

    def test_top_k_batch_flags_echoed(self, workspace, capsys):
        root, ini = workspace
        assert main(["sample", str(ini), "--top-k", "8", "--batch", "32"]) == 0
        path = Path(capsys.readouterr().out.split()[1])
        echo = json.loads(path.read_text())["provenance"]["config"]
        assert echo["top_k"] == 8 and echo["batch"] == 32

    def test_invalid_mode_usage_error(self, workspace, capsys):
        _, ini = workspace
        assert main(["sample", str(ini), "--mode", "sideways"]) == 1
        err = capsys.readouterr().err
        for mode in ("manifold", "naive", "unconditional", "learned_posterior"):
            assert mode in err

    def test_sample_seed_override(self, workspace, capsys):
        _, ini = workspace
        assert main(["sample", str(ini), "--seed", "77"]) == 0
        path = Path(capsys.readouterr().out.split()[1])
        assert json.loads(path.read_text())["provenance"]["config"]["seed"] == 77


class TestExperiments:
    def test_evaluate_writes_summary_and_samples(self, workspace, capsys):
        root, ini = workspace
        assert main(["evaluate", str(ini)]) == 0
        out = capsys.readouterr().out
        assert "+-" in out
        run_dir = Path(out.strip().splitlines()[-1].split()[-1])
        payload = json.loads((run_dir / "summary.json").read_text())
        assert len(payload["summary"]["per_seed"]) == 2
        assert (run_dir / "samples" / "seed-100.json").exists()
        assert (run_dir / "samples" / "seed-101.json").exists()
        mean = payload["summary"]["mean"]["median_fitness"]
        vals = [r["median_fitness"] for r in payload["summary"]["per_seed"]]
        assert abs(mean - np.mean(vals)) < 1e-12

    def test_gridsearch_cell_count(self, workspace, capsys):
        root, ini = workspace
        assert main(["gridsearch", str(ini)]) == 0
        run_dir = Path(capsys.readouterr().out.strip().split()[-1])
        cells = (run_dir / "cells.csv").read_text().strip().splitlines()
        assert len(cells) == 1 + 4  # header + 2x2 grid

    def test_extrapolate_rows(self, workspace, capsys):
        root, ini = workspace
        assert main(["extrapolate", str(ini)]) == 0
        run_dir = Path(capsys.readouterr().out.strip().split()[-1])
        rows = json.loads((run_dir / "summary.json").read_text())["rows"]
        assert len(rows) == 4  # 2 y-values x 2 modes

    def test_ode_sweep_rows(self, workspace, capsys):
        root, ini = workspace
        assert main(["ode-sweep", str(ini)]) == 0
        run_dir = Path(capsys.readouterr().out.strip().split()[-1])
        rows = json.loads((run_dir / "summary.json").read_text())["rows"]
        assert [r["steps"] for r in rows] == [4, 8]

    def test_ablate_three_rows(self, workspace, capsys):
        root, ini = workspace
        assert main(["ablate", str(ini)]) == 0
        out = capsys.readouterr().out
        run_dir = Path(out.strip().splitlines()[-1].split()[-1])
        rows = json.loads((run_dir / "summary.json").read_text())["rows"]
        assert [r["mode"] for r in rows] == ["manifold", "naive", "learned_posterior"]
        assert "manifold" in out and "learned_posterior" in out

    def test_gridsearch_diverging_cell_is_an_error_row(self, workspace, capsys):
        root, ini = workspace
        grid = root / "inf-grid.ini"
        grid.write_text(TINY_INI.replace("alphas = 0,0.3", "alphas = 0.3, inf"))
        assert main(["gridsearch", str(grid)]) == 0
        run_dir = Path(capsys.readouterr().out.strip().split()[-1])
        with open(run_dir / "cells.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        # alpha=inf diverges only where guidance runs (J=2)
        assert [(r["alpha"], r["guidance_steps"]) for r in rows] == \
            [("0.3", "0"), ("0.3", "2"), ("inf", "0"), ("inf", "2")]
        assert [r["error"] for r in rows[:3]] == ["", "", ""]
        assert "non-finite" in rows[3]["error"] and rows[3]["n_unique"] == "0"

    @pytest.mark.parametrize("command", ["gridsearch", "extrapolate", "ode-sweep"])
    def test_parallel_cells_match_serial(self, workspace, capsys, command):
        root, ini = workspace
        cells = []
        for flags in ([], ["--parallelism", "2"]):
            assert main([command, str(ini)] + flags) == 0
            run_dir = Path(capsys.readouterr().out.strip().split()[-1])
            cells.append((run_dir / "cells.csv").read_bytes())
        assert cells[0] == cells[1]


class TestValidation:
    def test_missing_config(self):
        assert main(["evaluate", "/nonexistent/run.ini"]) == 1

    def test_bad_values_all_reported(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text("""
[task]
name = warpdrive
[vae]
latent_dim = 0
[sampler]
mode = sideways
""")
        assert main(["evaluate", str(ini)]) == 1
        err = capsys.readouterr().err
        assert "name" in err and "latent_dim" in err and "mode" in err

    def test_empty_grid_lists_rejected(self, workspace, capsys):
        root, ini = workspace
        empty = root / "empty-grid.ini"
        empty.write_text(TINY_INI.replace("alphas = 0,0.3\nguidance_steps = 0,2",
                                          "alphas =\nguidance_steps ="))
        assert main(["gridsearch", str(empty)]) == 1
        err = capsys.readouterr().err
        assert "config error: [grid] alphas must be non-empty" in err
        assert "config error: [grid] guidance_steps must be non-empty" in err

    def test_bad_sampler_mode_and_objective_both_reported(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text(TINY_INI.replace("mode = manifold", "mode = magic\nobjective = nope"))
        assert main(["evaluate", str(ini)]) == 1
        err = capsys.readouterr().err
        assert "config error: [sampler] mode must be one of" in err
        assert "objective must be one of" in err

    @pytest.mark.parametrize("command,section,option,value", [
        ("train-vae", "vae", "beta", "inf"),
        ("train-vae", "vae", "hidden_channels", "0"),
        ("train-predictor", "predictor", "hidden_channels", "0"),
        ("train-predictor", "predictor", "hidden_dense", "0"),
        ("train-prior", "flow", "hidden", "0"),
        ("sample", "sampler", "temperature", "nan"),
    ])
    def test_value_that_would_crash_or_diverge_rejected(self, tmp_path, capsys, command,
                                                         section, option, value):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[task]\nname = synthetic-medium\n[paths]\nworkdir = work\n"
                       f"[{section}]\n{option} = {value}\n")
        assert main([command, str(ini)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: [{section}] {option}")
        assert not (tmp_path / "work").exists()

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text(TINY_INI.replace("[vae]\n", "[vae]\nepoch = 5\n")
                       .replace("[flow]\n", "[flow]\nseed = 3\n")
                       .replace("[predictor]\n", "[predictor]\nhidden = 8\n")
                       .replace("[sampler]\n", "[sampler]\nguidance = 2\n"))
        assert main(["train-vae", str(ini)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "config error: [vae] epoch: unknown option; the options are latent_dim, "
            "beta, learning_rate, epochs, batch_size, hidden_channels",
            "config error: [flow] seed: not read; the flow is seeded with [task] seed",
            "config error: [predictor] hidden: unknown option; the options are "
            "learning_rate, epochs, batch_size, hidden_channels, hidden_dense",
            "config error: [sampler] guidance: unknown option; the options are "
            "steps, guidance_steps, alpha, target_y, batch, top_k, mode, seed, "
            "temperature, objective"]
        assert not (tmp_path / "work").exists()

    def test_diverging_training_exits_2(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text(TINY_INI.replace("[vae]\n", "[vae]\nlearning_rate = 1e300\n"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["train-vae", str(ini)]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.startswith("runtime divergence: epoch 0: layer ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not (tmp_path / "work" / "vae_encoder.npz").exists()

    def test_csv_task_requires_data(self, tmp_path, capsys):
        ini = tmp_path / "csv.ini"
        ini.write_text("[task]\nname = csv\n")
        assert main(["train-vae", str(ini)]) == 1
        assert "data" in capsys.readouterr().err

    def test_csv_task_trains(self, tmp_path):
        from seqopt.data import write_csv, write_range_file
        from seqopt.landscape import make_landscape, synthetic_full_dataset
        from seqopt.seqs import Vocabulary
        vocab = Vocabulary.amino_acids()
        ls = make_landscape(seed=31, length=8, vocab=vocab)
        ds = synthetic_full_dataset(ls, count=200, seed=32, vocab=vocab,
                                    max_mutations=4)
        write_csv(ds, tmp_path / "data.csv", vocab)
        write_range_file(ds, tmp_path / "data.range")
        ini = tmp_path / "csv.ini"
        ini.write_text("""
[task]
name = csv
[paths]
data = data.csv
range_file = data.range
workdir = work
[vae]
latent_dim = 4
beta = 0.002
epochs = 10
batch_size = 64
hidden_channels = 12
""")
        assert main(["train-vae", str(ini)]) == 0
        assert (tmp_path / "work" / "vae_encoder.npz").exists()


class TestShippedConfigs:
    CONFIGS = Path(__file__).resolve().parent.parent / "configs"

    def test_defaults_and_shipped_files(self, tmp_path):
        minimal = tmp_path / "hard.ini"
        minimal.write_text("[task]\nname = synthetic-hard\n")
        cfg = load_config(minimal)
        assert cfg.vae == VaeConfig() == tasks.default_vae_config()
        assert cfg.flow == FlowTrainConfig(seed=0) == tasks.default_flow_config(0)
        assert cfg.predictor == PredictorConfig() == tasks.default_predictor_config()

        # synthetic-hard.ini writes the defaults out, except for the grid's alphas
        shipped = config_echo(load_config(self.CONFIGS / "synthetic-hard.ini"))
        default = config_echo(cfg)
        assert shipped["grid"].pop("alphas") == [0.0, 0.05, 0.2, 0.5]
        assert default["grid"].pop("alphas") == [0.0, 0.1, 0.3, 0.5]
        del shipped["paths"], default["paths"]
        assert shipped == default

        assert load_config(self.CONFIGS / "synthetic-medium.ini").task_name == \
            "synthetic-medium"
