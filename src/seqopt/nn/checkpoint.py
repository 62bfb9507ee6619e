"""Versioned model checkpoints: one .npz holding a JSON meta record (kind,
descriptor, extras, content checksum) plus the named parameter arrays."""

from __future__ import annotations

import hashlib
import json
import zipfile
from pathlib import Path

import numpy as np

from ..atomic import atomic_open
from .layers import ParamStore, validate_descriptor

FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    """Unreadable, corrupted, or unsupported checkpoint file."""


def params_checksum(params: ParamStore) -> str:
    """sha256 over (name, shape, raw bytes) in sorted name order."""
    h = hashlib.sha256()
    for name in sorted(params.arrays):
        arr = np.ascontiguousarray(params.arrays[name], dtype=np.float64)
        h.update(name.encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def save_checkpoint(path, kind: str, descriptor, params: ParamStore,
                    extra: dict | None = None) -> str:
    """Write the checkpoint and return its parameter checksum. The file is
    replaced whole, so a crash mid-write leaves any previous checkpoint."""
    checksum = params_checksum(params)
    meta = {
        "version": FORMAT_VERSION,
        "kind": kind,
        "descriptor": descriptor,
        "rng_seed": params.rng_seed,
        "checksum": checksum,
        "extra": extra or {},
    }
    payload = {f"param/{name}": arr for name, arr in params.arrays.items()}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(path, "wb") as fh:
        np.savez(fh, __meta__=np.array(json.dumps(meta)), **payload)
    return checksum


def load_checkpoint(path):
    """Read and verify a checkpoint.

    Returns (kind, descriptor, ParamStore, extra, checksum). Refuses files
    whose stored checksum does not match the recomputed one, and descriptors
    containing unsupported layer kinds.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"missing checkpoint: {path}")
    try:
        # np.load(path) leaks the handle it opened when the zip is corrupt
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as zf:
            meta = json.loads(str(zf["__meta__"]))
            arrays = {key[len("param/"):]: np.asarray(zf[key], dtype=np.float64)
                      for key in zf.files if key.startswith("param/")}
    except (OSError, ValueError, KeyError, json.JSONDecodeError,
            EOFError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from None
    if meta.get("version") != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {meta.get('version')}")
    problems = validate_descriptor(meta.get("descriptor"))
    if problems:
        raise CheckpointError(f"{path}: " + "; ".join(problems))
    params = ParamStore(arrays, int(meta.get("rng_seed", 0)))
    checksum = params_checksum(params)
    if checksum != meta.get("checksum"):
        raise CheckpointError(f"{path}: checksum mismatch (file corrupted or tampered)")
    return meta["kind"], meta["descriptor"], params, meta.get("extra", {}), checksum
