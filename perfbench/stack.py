"""The frozen model stack the guide and evaluate workloads sample from.

The stack is what `train_models` trains with its defaults and
`conditional=True` on the synthetic-hard task (seed 0), using the source
tree under test. It takes minutes, so it is trained once per source tree and
cached under `.bench_build/perfbench/` in the checkout, keyed by a hash of
`src/seqopt` plus the training configuration. An entry is written to a
temporary directory and moved into place with `os.replace`, and its manifest
is written last; an entry whose manifest or checkpoints do not verify is
deleted and trained again.

Run as a script, this module trains the stack into the directory given as
its one argument; the benchmark starts it as a subprocess so that training
does not count in the benchmark process's peak memory.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
import zipfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_build" / "perfbench"
TASK, TASK_SEED = "synthetic-hard", 0
CHECKPOINTS = {"vae_encoder": "vae_encoder.npz", "vae_decoder": "vae_decoder.npz",
               "flow": "flow.npz", "flow_conditional": "flow_conditional.npz",
               "predictor": "predictor.npz"}
TRAIN_TIMEOUT_S = 840


class StackError(RuntimeError):
    """The stack could not be trained or verified."""


def source_hash(src: Path = SRC) -> str:
    """sha256 over (relative path, bytes) of every .py file of the package."""
    h = hashlib.sha256()
    pkg = src / "seqopt"
    for path in sorted(pkg.rglob("*.py")):
        h.update(str(path.relative_to(pkg)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def training_config() -> dict:
    from seqopt import tasks

    return {"task": TASK, "task_seed": TASK_SEED, "conditional": True,
            "vae": dataclasses.asdict(tasks.default_vae_config()),
            "flow": dataclasses.asdict(tasks.default_flow_config(TASK_SEED)),
            "predictor": dataclasses.asdict(tasks.default_predictor_config())}


def cache_key() -> str:
    payload = json.dumps({"source": source_hash(), "training": training_config()},
                         sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def load_models(directory: Path) -> dict:
    """Load every checkpoint of an entry; each load verifies its checksum."""
    from seqopt.flow import load_flow
    from seqopt.predictor import load_external_predictor
    from seqopt.vae import load_vae

    return {"vae": load_vae(directory),
            "flow": load_flow(directory / CHECKPOINTS["flow"]),
            "flow_conditional": load_flow(directory / CHECKPOINTS["flow_conditional"]),
            "predictor": load_external_predictor(directory / CHECKPOINTS["predictor"])}


def checksums(models: dict) -> dict:
    from seqopt.nn.checkpoint import params_checksum

    return {"vae_encoder": params_checksum(models["vae"].encoder.params),
            "vae_decoder": params_checksum(models["vae"].decoder.params),
            "flow": params_checksum(models["flow"].net.params),
            "flow_conditional": params_checksum(models["flow_conditional"].net.params),
            "predictor": params_checksum(models["predictor"].net.params)}


def verify(directory: Path, key: str) -> dict:
    """Manifest of a complete, uncorrupted entry; raises StackError otherwise."""
    from seqopt.nn.checkpoint import CheckpointError

    try:
        manifest = json.loads((directory / "manifest.json").read_text())
        if manifest.get("key") != key:
            raise StackError("manifest key does not match")
        got = checksums(load_models(directory))
    except (OSError, ValueError, KeyError, zipfile.BadZipFile, CheckpointError) as exc:
        # load_checkpoint lets BadZipFile through for a truncated file
        raise StackError(f"{type(exc).__name__}: {exc}") from None
    if got != manifest.get("checksums"):
        raise StackError("checkpoint checksums differ from the manifest")
    return manifest


def ensure_stack(log=print) -> tuple[Path, dict]:
    """Directory and manifest of a verified stack for this source tree,
    training it first when the cache has no valid entry."""
    key = cache_key()
    entry = CACHE / f"stack-{key[:20]}"
    if entry.exists():
        try:
            return entry, verify(entry, key)
        except StackError as exc:
            log(f"stack cache entry {entry.name} rejected ({exc}); retraining")
            shutil.rmtree(entry)
    CACHE.mkdir(parents=True, exist_ok=True)
    for partial in CACHE.glob("stack-*.tmp-*"):  # left by an interrupted run
        shutil.rmtree(partial, ignore_errors=True)
    tmp = CACHE / f"{entry.name}.tmp-{os.getpid()}"
    start = time.perf_counter()
    try:
        subprocess.run([sys.executable, str(Path(__file__).resolve()), str(tmp), key],
                       check=True, timeout=TRAIN_TIMEOUT_S)
        manifest = verify(tmp, key)
        os.replace(tmp, entry)
    except (subprocess.SubprocessError, OSError, StackError) as exc:
        raise StackError(f"training the stack failed: {exc}") from None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    log(f"stack trained in {time.perf_counter() - start:.1f} s into {entry.name}")
    return entry, manifest


def train_into(directory: Path, key: str) -> None:
    from seqopt import tasks
    from seqopt.flow import save_flow
    from seqopt.predictor import save_predictor
    from seqopt.vae import save_vae

    task = tasks.build_synthetic_task(TASK, TASK_SEED)
    bundle = tasks.train_models(task, TASK_SEED, conditional=True)
    directory.mkdir(parents=True)
    save_vae(bundle.vae, directory)
    save_flow(bundle.flow, directory / CHECKPOINTS["flow"])
    save_flow(bundle.flow_conditional, directory / CHECKPOINTS["flow_conditional"])
    save_predictor(bundle.predictor, directory / CHECKPOINTS["predictor"])
    models = {"vae": bundle.vae, "flow": bundle.flow,
              "flow_conditional": bundle.flow_conditional, "predictor": bundle.predictor}
    manifest = {"key": key, "checksums": checksums(models),
                "training": training_config()}
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    train_into(Path(sys.argv[1]), sys.argv[2])
