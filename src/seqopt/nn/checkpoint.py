"""Versioned model checkpoints: one .npz holding a JSON meta record (kind,
descriptor, extras, content checksum) plus the named parameter arrays.

A load refuses a file whose arrays do not have exactly the names and shapes
its descriptor lays out (`layers.param_shapes`), or whose extras lack a field
the loader reads, naming the file and the array or field. Each model's loader
then checks the network against the shapes its metadata states
(`check_shapes`)."""

from __future__ import annotations

import hashlib
import json
import zipfile
from pathlib import Path

import numpy as np

from ..atomic import atomic_open
from .autodiff import Tensor
from .layers import Network, NonFiniteError, ParamStore, param_shapes, validate_descriptor

FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    """Unreadable, corrupted, or unsupported checkpoint file."""


def params_checksum(params: ParamStore) -> str:
    """sha256 over (name, shape, raw bytes) in sorted name order. sha256
    reads the bytes from each C-contiguous array's own buffer, not a copy. A
    store frozen with its checksum (a loaded one) returns the kept value for
    as long as its `flat` is read-only, so that numpy refuses every write to
    its parameters; once `flat` is writeable again, the store is hashed."""
    if params.checksum is not None and not params.flat.flags.writeable:
        return params.checksum
    h = hashlib.sha256()
    for name in sorted(params.arrays):
        arr = np.ascontiguousarray(params.arrays[name], dtype=np.float64)
        h.update(name.encode())
        h.update(str(arr.shape).encode())
        h.update(arr)
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


def load_checkpoint(path, kind: str, fields: dict | None = None):
    """Read and verify a checkpoint of the given kind.

    Returns (descriptor, ParamStore, extra), the arrays in descriptor order
    and each extra named in `fields` ({name: type}) converted to its type.
    The store is frozen (`ParamStore.freeze`) with the checksum the load
    verified: it is read-only, and `params_checksum` returns that value.
    Refuses files of another kind, files whose stored checksum does not match
    the recomputed one, descriptors containing unsupported layer kinds, arrays
    the descriptor does not lay out, and extras lacking one of `fields`.
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
    if not (isinstance(meta, dict) and isinstance(meta.get("extra", {}), dict)):
        raise CheckpointError(f"{path}: metadata is not an object with an 'extra' object")
    if meta.get("version") != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {meta.get('version')}")
    if meta.get("kind") != kind:
        raise CheckpointError(f"{path}: checkpoint kind {meta.get('kind')!r} is not {kind!r}")
    problems = validate_descriptor(meta.get("descriptor"))
    if problems:
        raise CheckpointError(f"{path}: " + "; ".join(problems))
    shapes = param_shapes(meta["descriptor"])
    for name in sorted(shapes.keys() | arrays.keys()):
        if name not in shapes:
            raise CheckpointError(f"{path}: parameter array {name!r} is not in the descriptor")
        if name not in arrays:
            raise CheckpointError(f"{path}: parameter array {name!r} of shape "
                                  f"{shapes[name]} is missing")
        if arrays[name].shape != shapes[name]:
            raise CheckpointError(f"{path}: parameter array {name!r} has shape "
                                  f"{arrays[name].shape}, the descriptor gives {shapes[name]}")
    params = ParamStore({name: arrays[name] for name in shapes},
                        _convert(path, "rng_seed", meta.get("rng_seed", 0), int))
    checksum = params_checksum(params)
    if checksum != meta.get("checksum"):
        raise CheckpointError(f"{path}: checksum mismatch (file corrupted or tampered)")
    params.freeze(checksum)
    extra = meta.get("extra", {})
    for name, parse in (fields or {}).items():
        if name not in extra:
            raise CheckpointError(f"{path}: metadata field {name!r} is missing")
        extra[name] = _convert(path, name, extra[name], parse)
    return meta["descriptor"], params, extra


def _convert(path, name: str, value, parse):
    try:
        return parse(value)
    except (TypeError, ValueError):
        raise CheckpointError(f"{path}: metadata field {name!r} is not "
                              f"{parse.__name__}: {value!r}") from None


def check_shapes(path, net: Network, fields: dict, shape_in: tuple, shape_out: tuple) -> None:
    """Refuse the checkpoint at `path` unless `net` maps one zero row of shape
    `shape_in` to a finite row of shape `shape_out`, the shapes that its
    metadata `fields` ({name: value}) state."""
    try:
        got = net.apply(Tensor(np.zeros((1, *shape_in)), requires_grad=False)).shape[1:]
        problem = None if got == shape_out else f"returns shape {got}"
    except (ValueError, NonFiniteError) as exc:
        problem = f"fails on that input: {exc}"
    if problem is not None:
        stated = ", ".join(f"{name!r} {value}" for name, value in fields.items())
        raise CheckpointError(f"{path}: metadata fields {stated} give input shape {shape_in} "
                              f"and output shape {shape_out}, but the network {problem}")
