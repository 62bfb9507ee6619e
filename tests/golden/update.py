"""Rewrite tests/golden/tiny.json: the sha256 of every file the ten `seqopt`
commands write on the tiny config of tests/test_cli.py (`TINY_INI`), next to
the environment the hashes were made under.

    python tests/golden/update.py

A change that alters these bits on purpose commits the rewritten file and
names the files whose hashes changed. tests/test_cli.py compares a run
against it; the helpers here are shared with that test.
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

GOLDEN = Path(__file__).with_name("tiny.json")
TRAINING = (["train-vae"], ["train-prior"], ["train-prior", "--conditional"],
            ["train-predictor"])
EXPERIMENTS = ("sample", "evaluate", "gridsearch", "extrapolate", "ode-sweep", "ablate")


def environment() -> dict:
    """What the hashes depend on besides the source: the numpy version and
    the OpenBLAS numpy runs on (name, version, the core kernel it picked and
    its thread count), all None without OpenBLAS."""
    from seqopt.jobs import openblas

    env = {"numpy": np.__version__, "blas": None, "blas_version": None,
           "blas_core": None, "blas_threads": None}
    blas = openblas()
    if blas is not None:
        config, corename, threads = (blas(name) for name in
                                     ("get_config", "get_corename", "get_num_threads"))
        config.argtypes = corename.argtypes = threads.argtypes = []
        config.restype = corename.restype = ctypes.c_char_p
        threads.restype = ctypes.c_int
        name, version = config().decode().split()[:2]  # "OpenBLAS 0.3.31 ..."
        env.update(blas=name, blas_version=version, blas_core=corename().decode(),
                   blas_threads=threads())
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


def main() -> None:
    tests = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(tests.parent / "src"), str(tests)]
    from seqopt.cli import main as seqopt
    from test_cli import TINY_INI

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "run.ini").write_text(TINY_INI)
        for command in TRAINING:
            if seqopt([command[0], str(root / "run.ini")] + command[1:]) != 0:
                raise SystemExit(f"seqopt {' '.join(command)} failed")
        files = experiment_hashes(root, seqopt)
    GOLDEN.write_text(json.dumps({"environment": environment(), "files": files},
                                 indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(files)} hashes to {GOLDEN}")


if __name__ == "__main__":
    main()
