"""Rewrite both golden files, each next to the environment it was made under:

- tests/golden/tiny.json: the sha256 of every file the ten `seqopt` commands
  write on the tiny config of tests/test_cli.py (`TINY_INI`);
- tests/golden/hard.json: what the `hard_run` fixture of
  tests/test_acceptance.py trains and samples on the synthetic-hard task: its
  five checkpoint checksums and the exact values criteria 7-8 check.

    python tests/golden/update.py

A change that alters these bits on purpose commits the rewritten files and
names what changed. tests/test_cli.py and tests/test_acceptance.py compare a
run against them; the helpers here are shared with those tests.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

TINY_GOLDEN = Path(__file__).with_name("tiny.json")
HARD_GOLDEN = Path(__file__).with_name("hard.json")
TRAINING = (["train-vae"], ["train-prior"], ["train-prior", "--conditional"],
            ["train-predictor"])
EXPERIMENTS = ("sample", "evaluate", "gridsearch", "extrapolate", "ode-sweep", "ablate")


def environment() -> dict:
    """What the hashes depend on besides the source: the numpy version and
    the OpenBLAS numpy runs on (name, version and the core kernel it picked),
    all None without OpenBLAS. Not its thread count: the VAE and predictor
    train in chunks on one BLAS thread each, and the flows' training and
    sampling give the same bits on 1 and 2 threads."""
    from seqopt.jobs import openblas

    env = {"numpy": np.__version__, "blas": None, "blas_version": None, "blas_core": None}
    blas = openblas()
    if blas is not None:
        config, corename = blas("get_config"), blas("get_corename")
        config.argtypes = corename.argtypes = []
        config.restype = corename.restype = ctypes.c_char_p
        name, version = config().decode().split()[:2]  # "OpenBLAS 0.3.31 ..."
        env.update(blas=name, blas_version=version, blas_core=corename().decode())
    return env


def experiment_hashes(root: Path, main) -> dict:
    """Run the six experiment commands (`main` is `seqopt.cli.main`) from
    inside `root` on its run.ini, a relative path, so no result names the
    directory; return {path: sha256} of every file under `root` but run.ini,
    with the timestamp directory of each run dropped from its path."""
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for command in EXPERIMENTS:
            if main([command, "run.ini"]) != 0:
                raise RuntimeError(f"seqopt {command} failed")
    finally:
        os.chdir(cwd)
    hashes = {}
    for path in sorted(root.rglob("*")):
        parts = path.relative_to(root).parts
        if not path.is_file() or parts == ("run.ini",):
            continue
        if parts[0] == "results":  # results/<task>/<experiment>/<timestamp>/...
            parts = parts[:3] + parts[4:]
        hashes["/".join(parts)] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def hard_values(run: dict, seeds) -> dict:
    """The values of a `hard_run` fixture result that hard.json pins: the
    checksums of its five trained networks, the VAE's held-out accuracy, the
    training set's median, and the median normalized fitness of each mode and
    of the two y=1 extrapolations per sampling seed."""
    from seqopt.nn.checkpoint import params_checksum

    bundle = run["bundle"]
    nets = {"vae_encoder": bundle.vae.encoder, "vae_decoder": bundle.vae.decoder,
            "flow": bundle.flow.net, "flow_conditional": bundle.flow_conditional.net,
            "predictor": bundle.predictor.net}
    per_seed = {**run["fits"], "extrap_manifold_y1": run["extrap_manifold_y1"],
                "extrap_posterior_y1": run["extrap_posterior_y1"]}
    return {"checksums": {name: params_checksum(net.params) for name, net in nets.items()},
            "vae_val_accuracy": float(run["vae_val_accuracy"]),
            "train_median": float(run["train_median"]),
            **{key: {str(s): float(v) for s, v in zip(seeds, values)}
               for key, values in per_seed.items()}}


def write_golden(path: Path, key: str, values: dict) -> None:
    path.write_text(json.dumps({"environment": environment(), key: values},
                               indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(values)} {key} to {path}")


def main() -> None:
    tests = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(tests.parent / "src"), str(tests)]
    from seqopt.cli import main as seqopt
    from test_acceptance import SAMPLING_SEEDS, run_hard
    from test_cli import TINY_INI

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "run.ini").write_text(TINY_INI)
        for command in TRAINING:
            if seqopt([command[0], str(root / "run.ini")] + command[1:]) != 0:
                raise SystemExit(f"seqopt {' '.join(command)} failed")
        write_golden(TINY_GOLDEN, "files", experiment_hashes(root, seqopt))
    write_golden(HARD_GOLDEN, "values", hard_values(run_hard(), SAMPLING_SEEDS))


if __name__ == "__main__":
    main()
