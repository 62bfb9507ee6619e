import csv
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import seqopt
from seqopt import tasks
from seqopt.cli import main
from seqopt.config import config_echo, load_config
from seqopt.errors import ConfigError
from seqopt.flow import FlowTrainConfig
from seqopt.nn.checkpoint import load_checkpoint, save_checkpoint
from seqopt.nn.layers import ParamStore
from seqopt.predictor import PredictorConfig
from seqopt.vae import VaeConfig

from golden.update import TINY_GOLDEN, environment, experiment_hashes

TINY_INI = """
[task]
name = synthetic-medium
seed = 5
length = 8
full_size = 1500
max_train = 400
max_mutations = 5
percentile = 20, 50
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

# TINY_INI sampling in learned_posterior mode, which takes no guidance
POSTERIOR_INI = TINY_INI.replace(
    "guidance_steps = 2\nalpha = 0.3\n", "guidance_steps = 0\nalpha = 0\n").replace(
    "mode = manifold", "mode = learned_posterior")


# `seqopt ARGS...` in a process pinned to the one CPU argv[1].
ONE_CPU_COMMAND = """
import os, sys
os.sched_setaffinity(0, {int(sys.argv[1])})
from seqopt import jobs
from seqopt.cli import main
assert jobs.process_cores() == 1
sys.exit(main(sys.argv[2:]))
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

    def test_checkpoints_equal_train_models(self, workspace):
        """The train-* commands run the stages `train_models` runs."""
        from seqopt.flow import load_flow
        from seqopt.nn.checkpoint import params_checksum
        from seqopt.predictor import load_external_predictor
        from seqopt.vae import load_vae
        root, ini = workspace
        cfg = load_config(ini)
        task = tasks.build_synthetic_task(cfg.task.name, cfg.task.seed,
                                          spec=cfg.task.spec)
        bundle = tasks.train_models(task, cfg.task.seed, vae_cfg=cfg.vae,
                                    flow_cfg=cfg.flow, pred_cfg=cfg.predictor,
                                    conditional=True)
        work = root / "work"
        vae = load_vae(work)
        pairs = [(vae.encoder, bundle.vae.encoder), (vae.decoder, bundle.vae.decoder),
                 (load_flow(work / "flow.npz").net, bundle.flow.net),
                 (load_flow(work / "flow_conditional.npz").net,
                  bundle.flow_conditional.net),
                 (load_external_predictor(work / "predictor.npz").net,
                  bundle.predictor.net)]
        for cli_net, net in pairs:
            assert params_checksum(cli_net.params) == params_checksum(net.params)

    def test_synthetic_oracle_training_rejected(self, workspace):
        _, ini = workspace
        assert main(["train-predictor", str(ini), "--role", "oracle"]) == 1

    def test_smoothed_role_is_usage_error(self, workspace, capsys):
        _, ini = workspace
        assert main(["train-predictor", str(ini), "--role", "smoothed"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        listed = err[0].partition("choose from")[2]
        assert "predictor" in listed and "oracle" in listed


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
        payload = json.loads(path.read_text())
        echo = payload["provenance"]["config"]
        assert echo["mode"] == "unconditional"
        assert echo["alpha"] == 0.0 and echo["guidance_steps"] == 0
        assert payload["config_echo"]["sampler"] == echo

    def test_top_k_batch_flags_echoed(self, workspace, capsys):
        root, ini = workspace
        assert main(["sample", str(ini), "--top-k", "8", "--batch", "32"]) == 0
        path = Path(capsys.readouterr().out.split()[1])
        payload = json.loads(path.read_text())
        echo = payload["provenance"]["config"]
        assert echo["top_k"] == 8 and echo["batch"] == 32
        assert payload["config_echo"]["sampler"] == echo

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


@pytest.mark.parametrize("command", ["gridsearch", "extrapolate", "ode-sweep"])
def test_sweep_seed_overrides_sampler_seed(workspace, capsys, command):
    """--seed on a sweep is [sampler] seed; the task, and so the landscape the
    workdir's checkpoints were trained on, stays the configured one."""
    _, ini = workspace
    assert main([command, str(ini), "--seed", "77"]) == 0
    run_dir = Path(capsys.readouterr().out.strip().split()[-1])
    echo = json.loads((run_dir / "summary.json").read_text())["config_echo"]
    assert echo["sampler"]["seed"] == 77 and echo["task"]["seed"] == 5


@pytest.mark.parametrize("command", ["evaluate", "ablate"])
def test_seed_flag_refused_on_evaluate_and_ablate(workspace, tmp_path, capsys, command):
    """Their seeds are [evaluate] seeds, so --seed is a usage error."""
    _, ini = workspace
    assert main([command, str(ini), "--seed", "6", "--results-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "config error: unrecognized arguments: --seed 6"]
    assert not any(tmp_path.iterdir())


def test_parallelism_flag_is_usage_error(workspace, tmp_path, capsys):
    """Experiments size their pools from the CPUs the process may use."""
    _, ini = workspace
    assert main(["evaluate", str(ini), "--parallelism", "2",
                 "--results-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "config error: unrecognized arguments: --parallelism 2"]
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command,flags,old,new,problem", [
    ("sample", ["--seed", "-1"], "", "", "[sampler] seed must be >= 0"),
    ("gridsearch", ["--seed", "-4"], "", "", "[sampler] seed must be >= 0"),
    ("evaluate", [], "seeds = 100,101", "seeds = 1, -2", "[evaluate] seeds must be >= 0"),
    ("train-vae", ["--seed", "-1"], "", "", "[task] seed must be >= 0"),
    ("train-vae", [], "seed = 5", "seed = -1", "[task] seed must be >= 0"),
], ids=["sample", "gridsearch", "evaluate", "train-vae-flag", "train-vae-ini"])
def test_negative_seed_is_config_error(workspace, tmp_path, capsys, command, flags,
                                       old, new, problem):
    """A negative seed is refused with the config, not inside SeedSequence."""
    root, _ = workspace
    ini = tmp_path / "run.ini"
    ini.write_text(TINY_INI.replace("workdir = work", f"workdir = {root / 'work'}")
                   .replace(old, new))
    assert main([command, str(ini)] + flags) == 1
    assert capsys.readouterr().err.splitlines() == [f"config error: {problem}"]
    assert not (tmp_path / "results").exists()


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

    def test_gridsearch_nan_alpha_is_an_error_row(self, workspace, capsys):
        """alpha = nan is refused per cell, as a negative alpha is, rather than
        sampled unguided. summary.json stays strict JSON: the NaN alpha and the
        failed cells' metrics are null."""
        root, ini = workspace
        grid = root / "nan-grid.ini"
        grid.write_text(TINY_INI.replace("alphas = 0,0.3", "alphas = 0, nan"))
        assert main(["gridsearch", str(grid)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("wrote 4 cells (2 failed)")
        run_dir = Path(out.strip().split()[-1])
        with open(run_dir / "cells.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["error"] for r in rows] == ["", "", "alpha must be >= 0",
                                              "alpha must be >= 0"]

        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")
        summary = json.loads((run_dir / "summary.json").read_text(), parse_constant=refuse)
        assert summary["config_echo"]["grid"]["alphas"] == [0.0, None]
        assert [(c["alpha"], c["median_fitness"]) for c in summary["cells"][2:]] == [
            (None, None), (None, None)]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_extrapolate_non_finite_target_is_config_error(self, tmp_path, capsys, value):
        """A non-finite [extrapolate] y_values entry is refused when the config
        loads, before any checkpoint is looked for (this workdir has none)."""
        ini = tmp_path / "run.ini"
        ini.write_text(TINY_INI.replace("y_values = 0.3,1.0", f"y_values = 0.3, {value}"))
        assert main(["extrapolate", str(ini)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "config error: [extrapolate] y_values must be finite"]
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("command", ["extrapolate", "ablate"])
    def test_unguided_sampler_refused_for_guided_rows(self, workspace, tmp_path, capsys,
                                                      command):
        """The manifold and naive rows take alpha and J from [sampler], so a
        [sampler] without guidance (as learned_posterior mode needs) is refused
        rather than sampled unguided under those labels. The refusal comes
        before any checkpoint is looked for, so a workdir without them gives
        the same error."""
        _, ini = _workdir_copy(workspace, tmp_path, POSTERIOR_INI)
        bare = tmp_path / "bare"
        bare.mkdir()
        (bare / "run.ini").write_text(POSTERIOR_INI)
        for config in (ini, bare / "run.ini"):
            assert main([command, str(config)]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(
                "config error: [sampler] alpha and guidance_steps must be > 0"), err
            assert not (config.parent / "results").exists()
        assert not (bare / "work").exists()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="needs CPU affinity")
    @pytest.mark.parametrize("command", ["gridsearch", "extrapolate", "ode-sweep",
                                         "evaluate"])
    def test_parallel_cells_match_serial(self, workspace, capsys, command):
        """A rerun writes byte-identical result files, and so does a run in a
        process pinned to one CPU, whose jobs all run in that process."""
        cpus = os.sched_getaffinity(0)
        if len(cpus) < 2:
            pytest.skip("needs at least 2 CPUs")
        root, ini = workspace
        run_dirs = []
        for _ in range(2):
            assert main([command, str(ini)]) == 0
            run_dirs.append(capsys.readouterr().out.strip().split()[-1])
        src = str(Path(seqopt.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        out = subprocess.run([sys.executable, "-c", ONE_CPU_COMMAND, str(min(cpus)),
                              command, str(ini)],
                             capture_output=True, text=True, check=True, env=env)
        run_dirs.append(out.stdout.strip().split()[-1])
        default, rerun, one_cpu = [
            {str(p.relative_to(run_dir)): p.read_bytes()
             for p in Path(run_dir).rglob("*") if p.is_file()} for run_dir in run_dirs]
        expected = ({"summary.json", "samples/seed-100.json", "samples/seed-101.json"}
                    if command == "evaluate" else {"summary.json", "cells.csv"})
        assert set(default) == expected
        assert rerun == default
        assert one_cpu == default


def _csv_config(workspace, tmp_path, oracle=""):
    """A csv task's config that samples with the workspace's checkpoints;
    `oracle` is its [paths] oracle_checkpoint line, if any."""
    from _datafiles import write_csv
    from seqopt.landscape import make_landscape, synthetic_full_dataset
    from seqopt.seqs import Vocabulary
    from test_landscape import rotation_pool
    root, _ = workspace
    vocab = Vocabulary.amino_acids()
    ls = make_landscape(seed=31, length=8, vocab=vocab)
    write_csv(synthetic_full_dataset(ls, count=50, seed=32,
                                     edit_tokens=rotation_pool(ls.target, vocab.size),
                                     max_mutations=4), tmp_path / "data.csv", vocab)
    ini = tmp_path / "csv.ini"
    ini.write_text(f"[task]\nname = csv\n[paths]\ndata = data.csv\n"
                   f"workdir = {root / 'work'}\n{oracle}")
    return ini


def _workdir_copy(workspace, tmp_path, text=TINY_INI):
    """A config (`text`, by default the workspace's) whose workdir is a copy
    of the workspace's checkpoints."""
    root, _ = workspace
    work = tmp_path / "work"
    shutil.copytree(root / "work", work)
    ini = tmp_path / "run.ini"
    ini.write_text(text)
    return work, ini


class TestCheckpoints:
    @pytest.mark.parametrize("command", ["sample", "evaluate"])
    @pytest.mark.parametrize("name,kind,impostor,flags", [
        ("vae_encoder.npz", "vae_encoder", "flow", []),
        ("flow.npz", "flow", "predictor", []),
        ("predictor.npz", "predictor", "flow", []),
        ("flow_conditional.npz", "flow", "predictor", ["--mode", "learned_posterior"]),
    ])
    def test_wrong_kind_is_io_error(self, workspace, tmp_path, capsys, command, name,
                                    kind, impostor, flags):
        work, ini = _workdir_copy(workspace, tmp_path)
        shutil.copy(work / f"{impostor}.npz", work / name)
        if command == "evaluate":  # evaluate samples in [sampler] mode
            ini.write_text(POSTERIOR_INI if flags else TINY_INI)
            flags = []
        assert main([command, str(ini)] + flags) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"i/o error: {work / name}: checkpoint kind '{impostor}' is not '{kind}'"]

    @pytest.mark.parametrize("names,field", [
        (["vae_encoder.npz", "vae_decoder.npz"], "length"),
        (["flow.npz"], "latent_dim"),
        (["predictor.npz"], "length"),
    ])
    def test_checkpoint_without_metadata_is_io_error(self, workspace, tmp_path, capsys,
                                                      names, field):
        """Each loader names the file and the first field it reads that the
        checkpoint's metadata lacks."""
        work, ini = _workdir_copy(workspace, tmp_path)
        for name in names:
            kind = Path(name).stem
            descriptor, params, _ = load_checkpoint(work / name, kind)
            save_checkpoint(work / name, kind, descriptor, params)
        assert main(["sample", str(ini)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"i/o error: {work / names[0]}: metadata field {field!r} is missing"]

    def test_rng_seed_not_an_int_is_io_error(self, workspace, tmp_path, capsys):
        work, ini = _workdir_copy(workspace, tmp_path)
        descriptor, params, extra = load_checkpoint(work / "predictor.npz", "predictor")
        params.rng_seed = "x"
        save_checkpoint(work / "predictor.npz", "predictor", descriptor, params, extra)
        assert main(["sample", str(ini)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"i/o error: {work / 'predictor.npz'}: metadata field 'rng_seed' is not int: 'x'"]

    def test_unknown_predictor_role_is_io_error(self, workspace, tmp_path, capsys):
        work, ini = _workdir_copy(workspace, tmp_path)
        descriptor, params, extra = load_checkpoint(work / "predictor.npz", "predictor")
        for role in ("smoothie", "smoothed"):
            save_checkpoint(work / "predictor.npz", "predictor", descriptor, params,
                            {**extra, "role": role})
            assert main(["sample", str(ini)]) == 3
            assert capsys.readouterr().err.splitlines() == [
                f"i/o error: {work / 'predictor.npz'}: metadata field 'role' is {role!r}, "
                "not one of ('predictor', 'oracle')"]

    @pytest.mark.parametrize("field, value, problem", [
        ("max_freq", "x", "'x', not a finite number > 0"),
        ("max_freq", 0.0, "0.0, not a finite number > 0"),
        ("time_embed_dim", 15, "15, not an even width"),
    ])
    def test_bad_flow_embedding_field_is_io_error(self, workspace, tmp_path, capsys,
                                                  field, value, problem):
        work, ini = _workdir_copy(workspace, tmp_path)
        descriptor, params, extra = load_checkpoint(work / "flow.npz", "flow")
        save_checkpoint(work / "flow.npz", "flow", descriptor, params,
                        {**extra, field: value})
        assert main(["sample", str(ini)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"i/o error: {work / 'flow.npz'}: metadata field {field!r} is {problem}"]

    def test_flow_widths_disagreeing_with_trunk_are_io_error(self, workspace, tmp_path,
                                                             capsys):
        """A flow re-saved with a narrower time embedding is refused when it
        loads, not at its first velocity."""
        work, ini = _workdir_copy(workspace, tmp_path)
        descriptor, params, extra = load_checkpoint(work / "flow.npz", "flow")
        save_checkpoint(work / "flow.npz", "flow", descriptor, params,
                        {**extra, "time_embed_dim": 14})
        assert main(["sample", str(ini)]) == 3
        width = descriptor[0]["in"]
        assert capsys.readouterr().err.splitlines() == [
            f"i/o error: {work / 'flow.npz'}: metadata fields 'latent_dim', 'time_embed_dim' "
            f"and 'fitness_embed_dim' sum to {width - 2}, not the first dense layer's 'in' "
            f"width {width}"]

    @pytest.mark.parametrize("edit", ["reshape", "drop"])
    def test_arrays_disagreeing_with_descriptor_are_io_error(self, workspace, tmp_path,
                                                             capsys, edit):
        """A checkpoint whose checksum matches its arrays, but whose arrays
        are not the ones its descriptor lays out, is refused when it loads."""
        work, ini = _workdir_copy(workspace, tmp_path)
        descriptor, params, extra = load_checkpoint(work / "flow.npz", "flow")
        arrays = dict(params.arrays)
        shape = arrays["0.weight"].shape
        if edit == "reshape":
            arrays["0.weight"] = np.zeros((shape[0] + 1, shape[1]))
            problem = f"has shape {(shape[0] + 1, shape[1])}, the descriptor gives {shape}"
        else:
            del arrays["0.bias"]
            problem = f"of shape {(shape[1],)} is missing"
        array = "0.weight" if edit == "reshape" else "0.bias"
        save_checkpoint(work / "flow.npz", "flow", descriptor, ParamStore(arrays, 0), extra)
        assert main(["sample", str(ini)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"i/o error: {work / 'flow.npz'}: parameter array {array!r} {problem}"]

    @pytest.mark.parametrize("field,value,problem", [
        ("beta", 0.0, "beta must be > 0"),
        ("latent_dim", 0, "latent_dim must be >= 1"),
        ("hidden_channels", 0, "hidden_channels must be >= 1"),
    ])
    def test_vae_metadata_the_config_refuses_is_io_error(self, workspace, tmp_path, capsys,
                                                          field, value, problem):
        """A VAE pair whose metadata agrees on a value that `VaeConfig`
        refuses is refused as a checkpoint error naming the encoder file."""
        work, ini = _workdir_copy(workspace, tmp_path)
        for name in ("vae_encoder.npz", "vae_decoder.npz"):
            kind = Path(name).stem
            descriptor, params, extra = load_checkpoint(work / name, kind)
            save_checkpoint(work / name, kind, descriptor, params, {**extra, field: value})
        assert main(["sample", str(ini)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"i/o error: {work / 'vae_encoder.npz'}: {problem}"]

    @pytest.mark.parametrize("name", ["vae_decoder.npz", "flow.npz", "predictor.npz"])
    def test_checkpoint_of_another_version_is_io_error(self, workspace, tmp_path, capsys,
                                                       name):
        work, ini = _workdir_copy(workspace, tmp_path)
        with np.load(work / name) as zf:
            arrays = dict(zf)
        meta = json.loads(str(arrays["__meta__"]))
        arrays["__meta__"] = np.array(json.dumps({**meta, "version": 2}))
        np.savez(work / name, **arrays)
        assert main(["sample", str(ini)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"i/o error: {work / name}: unsupported checkpoint version 2"]

    @pytest.mark.parametrize("command", ["sample", "evaluate"])
    def test_unused_conditional_flow_not_loaded(self, workspace, tmp_path, capsys,
                                                command):
        """Sampling in manifold mode never reads flow_conditional.npz."""
        work, ini = _workdir_copy(workspace, tmp_path)
        shutil.copy(work / "predictor.npz", work / "flow_conditional.npz")
        assert main([command, str(ini)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["evaluate", "gridsearch"])
    def test_wrong_kind_oracle_is_io_error(self, workspace, tmp_path, capsys, command):
        root, _ = workspace
        oracle = root / "work" / "flow.npz"
        ini = _csv_config(workspace, tmp_path, f"oracle_checkpoint = {oracle}\n")
        assert main([command, str(ini)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"i/o error: {oracle}: checkpoint kind 'flow' is not 'predictor'"]

    @pytest.mark.parametrize("command", ["evaluate", "gridsearch"])
    def test_oracle_of_another_length_is_config_error(self, workspace, tmp_path, capsys,
                                                      command):
        """An oracle scoring length-9 rows against length-8 models is refused
        before any sampling, not at scoring."""
        from seqopt.predictor import PredictorConfig, PredictorModel, save_predictor
        oracle = tmp_path / "oracle9.npz"
        save_predictor(PredictorModel.build(9, 20, PredictorConfig(hidden_channels=2,
                                                                   hidden_dense=2),
                                            seed=0, role="oracle"), oracle)
        ini = _csv_config(workspace, tmp_path, f"oracle_checkpoint = {oracle}\n")
        assert main([command, str(ini)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "config error: length mismatch: oracle 9 vs vae 8"]
        assert not (tmp_path / "results").exists()

    def test_csv_evaluate_needs_oracle_checkpoint(self, workspace, tmp_path, capsys):
        ini = _csv_config(workspace, tmp_path)
        assert main(["evaluate", str(ini)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "config error: csv tasks need [paths] oracle_checkpoint for evaluation"]

    def test_csv_sample_loads_no_oracle(self, workspace, tmp_path, capsys):
        root, _ = workspace
        for oracle in ("", f"oracle_checkpoint = {root / 'work' / 'flow.npz'}\n"):
            assert main(["sample", str(_csv_config(workspace, tmp_path, oracle))]) == 0
            assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("name,writer,flags", [
        ("vae_encoder.npz", "train-vae", []),
        ("flow.npz", "train-prior", []),
        ("predictor.npz", "train-predictor", []),
        ("flow_conditional.npz", "train-prior --conditional",
         ["--mode", "learned_posterior"]),
        ("vae_decoder.npz", "train-vae", []),
    ])
    def test_missing_checkpoint_names_command(self, workspace, tmp_path, capsys, name,
                                              writer, flags):
        work, ini = _workdir_copy(workspace, tmp_path)
        (work / name).unlink()
        assert main(["sample", str(ini)] + flags) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"i/o error: missing checkpoint {work / name}; run `seqopt {writer}`"]

    @pytest.mark.parametrize("command", ["sample", "evaluate", "gridsearch", "ode-sweep"])
    def test_missing_conditional_flow_for_learned_posterior(self, workspace, tmp_path,
                                                            capsys, command):
        """A command that samples in [sampler] mode = learned_posterior needs the
        conditional flow before it starts."""
        work, ini = _workdir_copy(workspace, tmp_path, POSTERIOR_INI)
        (work / "flow_conditional.npz").unlink()
        assert main([command, str(ini)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"i/o error: missing checkpoint {work / 'flow_conditional.npz'}; "
            "run `seqopt train-prior --conditional`"]
        assert not (tmp_path / "results").exists()


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
        """Two bad [sampler] values (here mode and top_k) are both reported."""
        ini = tmp_path / "bad.ini"
        ini.write_text(TINY_INI.replace("top_k = 16\nmode = manifold",
                                        "top_k = 64\nmode = magic"))
        assert main(["evaluate", str(ini)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2, err
        assert err[0] == "config error: [sampler] need 1 <= top_k <= batch"
        assert err[1].startswith("config error: [sampler] mode must be one of")

    @pytest.mark.parametrize("command,section,option,value", [
        ("train-vae", "vae", "beta", "inf"),
        ("train-vae", "vae", "hidden_channels", "0"),
        ("train-predictor", "predictor", "hidden_channels", "0"),
        ("train-predictor", "predictor", "hidden_dense", "0"),
        ("train-prior", "flow", "hidden", "0"),
        ("train-vae", "vae", "learning_rate", "0"),
        ("train-prior", "flow", "batch_size", "0"),
        ("train-predictor", "predictor", "epochs", "-1"),
        ("sample", "sampler", "alpha", "nan"),
        ("extrapolate", "extrapolate", "y_values", ""),
        ("extrapolate", "extrapolate", "batch", "0"),
        ("ode-sweep", "ode_sweep", "steps", ""),
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

    @pytest.mark.parametrize("old,new", [
        ("max_mutations = 5\n", ""),  # the default of 12 exceeds length 8
        ("n_pairs = 8", "n_pairs = 40"),
        ("[task]\n", "[task]\nedits_per_position = 25\n"),
        ("gap = 2", "gap = 9"),  # the difficulty filter selects nothing
    ], ids=["max_mutations", "n_pairs", "edits_per_position", "gap"])
    def test_task_spec_that_builds_no_task_is_config_error(self, tmp_path, old, new):
        ini = tmp_path / "run.ini"
        ini.write_text(TINY_INI.replace(old, new, 1))
        src = str(Path(seqopt.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        out = subprocess.run([sys.executable, "-m", "seqopt.cli", "train-vae", str(ini)],
                             capture_output=True, text=True, env=env, cwd=tmp_path)
        assert out.returncode == 1, out.stderr
        err = out.stderr.splitlines()
        assert "Traceback" not in out.stderr
        assert len(err) == 1 and err[0].startswith("config error: [task] "), err
        assert not (tmp_path / "work").exists()

    def test_spec_keys_refused_for_csv_tasks(self, tmp_path, capsys):
        (tmp_path / "data.csv").write_text("")
        ini = tmp_path / "csv.ini"
        ini.write_text("[task]\nname = csv\ngap = 3\npercentile = 30\n"
                       "[paths]\ndata = data.csv\nworkdir = work\n")
        assert main(["train-vae", str(ini)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "config error: [task] gap: not read for csv tasks",
            "config error: [task] percentile: not read for csv tasks"]
        assert not (tmp_path / "work").exists()

    def test_degenerate_fitness_range_is_io_error(self, tmp_path, capsys):
        (tmp_path / "data.csv").write_text("sequence,fitness\nACD,0.5\nACC,0.5\n")
        ini = tmp_path / "csv.ini"
        ini.write_text("[task]\nname = csv\n[paths]\ndata = data.csv\nworkdir = work\n")
        assert main(["train-vae", str(ini)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("i/o error: ") and "y_min=0.5" in err[0]
        assert not (tmp_path / "work").exists()

    @pytest.mark.parametrize("text,problem", [
        ("[vae]\nepochs = 3\n[vae]\n",
         "unparseable config: While reading from {ini!r} [line  7]: section 'vae' "
         "already exists"),
        ("[vae]\nepochs = many\n", "[vae] epochs: cannot parse 'many'"),
        ("[vae]\nepochs =\n", "[vae] epochs: cannot parse ''"),
        ("[ode_sweep]\nsteps = 0\n", "[ode_sweep] steps must all be >= 1"),
    ], ids=["duplicate_section", "unparseable_value", "empty_value", "zero_steps"])
    def test_config_refusals(self, tmp_path, capsys, text, problem):
        ini = tmp_path / "run.ini"
        ini.write_text("[task]\nname = synthetic-medium\n[paths]\nworkdir = work\n" + text)
        assert main(["train-vae", str(ini)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "config error: " + problem.format(ini=str(ini))]
        assert not (tmp_path / "work").exists()

    @pytest.mark.parametrize("rows,ranges,problem", [
        ("ACD,0.5\nACC\n", None, "{data}: line 3: expected 2 fields, got 1"),
        ("", None, "{data}: no records"),
        ("ACD,0.5\nACC,inf\n", None, "{data}: non-finite fitness value"),
        ("ACD,0.5\nACC,0.7\n", "y_min=0\nlow=1\n",
         "{ranges}: line 2: expected 'y_min=<real>' or 'y_max=<real>'"),
        ("ACD,0.5\nACC,0.7\n", "y_min=0\ny_max=one\n",
         "{ranges}: line 2: non-numeric value 'one'"),
        ("ACD,0.5\nACC,0.7\n", "y_max=1\n",
         "{ranges}: range file must declare both y_min and y_max"),
    ], ids=["short_row", "no_records", "non_finite_fitness", "range_key",
            "range_value", "one_bound"])
    def test_data_file_refusals(self, tmp_path, capsys, rows, ranges, problem):
        """A csv task's data file or range file that `load_csv` refuses ends
        the command with one i/o error line that names the file."""
        data, range_file = tmp_path / "data.csv", tmp_path / "data.range"
        data.write_text("sequence,fitness\n" + rows)
        paths = "data = data.csv\nworkdir = work\n"
        if ranges is not None:
            range_file.write_text(ranges)
            paths += "range_file = data.range\n"
        ini = tmp_path / "csv.ini"
        ini.write_text(f"[task]\nname = csv\n[paths]\n{paths}")
        assert main(["train-vae", str(ini)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "i/o error: " + problem.format(data=data, ranges=range_file)]
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
            "steps, guidance_steps, alpha, target_y, batch, top_k, mode, seed"]
        assert not (tmp_path / "work").exists()

        # unknown [sampler] options, unknown keys of every other section, keys
        # the task does not read, a bad percentile, and the section names
        # themselves
        cases = [
            ("[sampler]\n", "[sampler]\ntemperature = 1.0\n",
             "[sampler] temperature: unknown option; the options are steps, "
             "guidance_steps, alpha, target_y, batch, top_k, mode, seed"),
            ("[sampler]\n", "[sampler]\nobjective = match_target\n",
             "[sampler] objective: unknown option"),
            ("[evaluate]\n", "[evaluate]\nseed = 7\n",
             "[evaluate] seed: unknown option; the options are seeds"),
            ("[ode_sweep]\nsteps", "[ode_sweep]\nstep",
             "[ode_sweep] step: unknown option; the options are steps"),
            ("[task]\n", "[run]\nparallelism = 2\n[task]\n",
             "[run]: unknown section; the sections are task, paths, vae, flow, "
             "predictor, sampler, evaluate, grid, extrapolate, ode_sweep"),
            ("[grid]\n", "[grid]\nalpha = 0.3\n",
             "[grid] alpha: unknown option; the options are alphas, guidance_steps"),
            ("[paths]\n", "[paths]\nresult = x\n",
             "[paths] result: unknown option; the options are workdir, results"),
            ("[task]\n", "[task]\ngpa = 9\n", "[task] gpa: unknown option"),
            ("[task]\n", "[task]\npercentile_upper = 30\n",
             "[task] percentile_upper: unknown option"),
            ("percentile = 20, 50", "percentile = 40 20", "[task] percentile must be "),
            ("percentile = 20, 50", "percentile = 10 20 30", "[task] percentile must be "),
            ("percentile = 20, 50", "percentile = 150", "[task] percentile must be "),
            ("[paths]\n", "[paths]\ndata = data.csv\n",
             "[paths] data: not read for synthetic tasks"),
            ("[paths]\n", "[paths]\nrange_file = data.range\n",
             "[paths] range_file: not read for synthetic tasks"),
            ("[paths]\n", "[paths]\noracle_checkpoint = oracle.npz\n",
             "[paths] oracle_checkpoint: not read for synthetic tasks"),
            ("[grid]\n", "[gird]\nalphas = 0.3\n[grid]\n",
             "[gird]: unknown section; the sections are task, paths, vae, flow, "
             "predictor, sampler, evaluate, grid, extrapolate, ode_sweep"),
            ("[task]\n", "[DEFAULT]\nseed = 3\n[task]\n",
             "[DEFAULT]: unknown section; the sections are task, paths, vae, flow, "
             "predictor, sampler, evaluate, grid, extrapolate, ode_sweep"),
        ]
        for old, new, problem in cases:
            ini.write_text(TINY_INI.replace(old, new, 1))
            assert main(["train-vae", str(ini)]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"config error: {problem}"), err
            assert not (tmp_path / "work").exists()

        # [DEFAULT] is not merged into the sections, which would seed the sampler
        ini.write_text("[DEFAULT]\nseed = 3\n[task]\n[sampler]\nsteps = 4\n")
        with pytest.raises(ConfigError) as exc:
            load_config(ini)
        assert exc.value.problems == [cases[-1][2]]

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
        assert capsys.readouterr().err.splitlines() == [
            "config error: [paths] data is required for csv tasks"]

    def test_missing_csv_paths_reported_one_line_each(self, tmp_path, capsys):
        ini = tmp_path / "csv.ini"
        ini.write_text("[task]\nname = csv\n[paths]\ndata = nope.csv\n"
                       "range_file = nope.range\noracle_checkpoint = nope.npz\n"
                       "workdir = work\n")
        assert main(["train-vae", str(ini)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"config error: [paths] data not found: {tmp_path / 'nope.csv'}",
            f"config error: [paths] range_file not found: {tmp_path / 'nope.range'}",
            f"config error: [paths] oracle_checkpoint not found: {tmp_path / 'nope.npz'}"]
        assert not (tmp_path / "work").exists()

    def test_keys_checked_when_task_refused(self, tmp_path, capsys):
        """A refused [task] (here its seed) does not hide a misspelt key of
        [task] or [paths]; the keys are checked against those any task takes."""
        ini = tmp_path / "run.ini"
        ini.write_text("[task]\nseed = -1\ngap = 2\ngpa = 2\n"
                       "[paths]\nworkdri = work\nresults = out\n")
        assert main(["train-vae", str(ini)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 3, err
        assert err[0] == "config error: [task] seed must be >= 0"
        assert err[1].startswith("config error: [task] gpa: unknown option; "
                                 "the options are name, seed, ")
        assert err[2] == ("config error: [paths] workdri: unknown option; the options "
                          "are data, range_file, oracle_checkpoint, workdir, results")

    def test_csv_echo_names_range_file_and_oracle(self, tmp_path):
        for name in ("data.csv", "data.range", "oracle.npz"):
            (tmp_path / name).write_text("")
        ini = tmp_path / "csv.ini"
        ini.write_text("[task]\nname = csv\n[paths]\ndata = data.csv\n"
                       "range_file = data.range\noracle_checkpoint = oracle.npz\n")
        paths = config_echo(load_config(ini))["paths"]
        assert paths["range_file"] == str(tmp_path / "data.range")
        assert paths["oracle_checkpoint"] == str(tmp_path / "oracle.npz")
        ini.write_text("[task]\nname = csv\n[paths]\ndata = data.csv\n")
        paths = config_echo(load_config(ini))["paths"]
        assert paths["range_file"] is None and paths["oracle_checkpoint"] is None

    def test_csv_task_trains(self, tmp_path):
        from _datafiles import write_csv, write_range_file
        from seqopt.landscape import make_landscape, synthetic_full_dataset
        from seqopt.seqs import Vocabulary
        from test_landscape import rotation_pool
        vocab = Vocabulary.amino_acids()
        ls = make_landscape(seed=31, length=8, vocab=vocab)
        ds = synthetic_full_dataset(ls, count=200, seed=32,
                                    edit_tokens=rotation_pool(ls.target, vocab.size),
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

        assert load_config(self.CONFIGS / "synthetic-medium.ini").task.name == \
            "synthetic-medium"

    def test_echo_pinned(self, tmp_path):
        """The config echo of TINY_INI and of synthetic-medium.ini, key by key;
        unlike the golden hashes, this holds on every numpy and BLAS."""
        ini = tmp_path / "run.ini"
        ini.write_text(TINY_INI)
        assert config_echo(load_config(ini)) == {
            "task": {"name": "synthetic-medium", "seed": 5, "spec": {
                "name": "synthetic-medium", "percentile": [20.0, 50.0], "gap": 2,
                "length": 8, "full_size": 1500, "max_train": 400,
                "edits_per_position": 3, "min_mutations": 1, "max_mutations": 5,
                "n_pairs": 8}},
            "paths": {"data": None, "range_file": None, "oracle_checkpoint": None,
                      "workdir": str(tmp_path / "work"),
                      "results": str(tmp_path / "results")},
            "vae": {"latent_dim": 6, "beta": 0.002, "learning_rate": 0.001, "epochs": 25,
                    "batch_size": 64, "hidden_channels": 24},
            "flow": {"learning_rate": 0.001, "batch_size": 128, "epochs": 100, "seed": 5,
                     "hidden": 64},
            "predictor": {"learning_rate": 0.001, "epochs": 40, "batch_size": 64,
                          "hidden_channels": 12, "hidden_dense": 32},
            "sampler": {"steps": 8, "guidance_steps": 2, "alpha": 0.3, "target_y": 1.0,
                        "batch": 48, "top_k": 16, "mode": "manifold", "seed": 100},
            "evaluate": {"seeds": [100, 101]},
            "grid": {"alphas": [0.0, 0.3], "guidance_steps": [0, 2]},
            "extrapolate": {"y_values": [0.3, 1.0], "batch": 32},
            "ode_sweep": {"steps": [4, 8]}}

        assert config_echo(load_config(self.CONFIGS / "synthetic-medium.ini")) == {
            "task": {"name": "synthetic-medium", "seed": 0, "spec": {
                "name": "synthetic-medium", "percentile": [20.0, 40.0], "gap": 6,
                "length": 20, "full_size": 20000, "max_train": 2500,
                "edits_per_position": 3, "min_mutations": 1, "max_mutations": 12,
                "n_pairs": None}},
            "paths": {"data": None, "range_file": None, "oracle_checkpoint": None,
                      "workdir": str(self.CONFIGS / "../runs/synthetic-medium"),
                      "results": str(self.CONFIGS / "../results")},
            "vae": {"latent_dim": 14, "beta": 0.0015, "learning_rate": 0.001,
                    "epochs": 90, "batch_size": 128, "hidden_channels": 48},
            "flow": {"learning_rate": 0.001, "batch_size": 256, "epochs": 300, "seed": 0,
                     "hidden": 128},
            "predictor": {"learning_rate": 0.001, "epochs": 100, "batch_size": 128,
                          "hidden_channels": 24, "hidden_dense": 64},
            "sampler": {"steps": 32, "guidance_steps": 5, "alpha": 0.5, "target_y": 1.0,
                        "batch": 512, "top_k": 128, "mode": "manifold", "seed": 100},
            "evaluate": {"seeds": [100, 101, 102, 103, 104]},
            "grid": {"alphas": [0.0, 0.1, 0.3, 0.5], "guidance_steps": [0, 2, 5]},
            "extrapolate": {"y_values": [0.2, 0.4, 0.6, 0.8, 1.0], "batch": 256},
            "ode_sweep": {"steps": [4, 8, 16, 24, 32]}}


def test_tiny_pipeline_matches_golden(workspace, tmp_path):
    """The ten commands on TINY_INI write the files whose sha256 the golden
    file holds (`python tests/golden/update.py` rewrites it). Where this
    host's numpy or BLAS differs from the file's, a difference skips the test,
    naming the files and both environments."""
    root, _ = workspace
    shutil.copytree(root / "work", tmp_path / "work")
    (tmp_path / "run.ini").write_text(TINY_INI)
    golden = json.loads(TINY_GOLDEN.read_text())
    files = experiment_hashes(tmp_path, main)
    differing = sorted(name for name in golden["files"].keys() | files.keys()
                       if golden["files"].get(name) != files.get(name))
    if differing and golden["environment"] != environment():
        pytest.skip(f"hashes made under {golden['environment']}, this host has "
                    f"{environment()}; differing: {', '.join(differing)}")
    assert not differing, f"files differing from {TINY_GOLDEN}: {differing}"
