"""Crash-safe file writes: data goes to a temporary file in the target's
directory and is moved onto the target with os.replace, so a reader sees the
old file or the complete new one, never a partial write. Every JSON file is
written by `atomic_write_json`."""

from __future__ import annotations

import contextlib
import json
import math
import os
import secrets
from pathlib import Path


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a fresh temporary file beside `path` for writing.

    On a clean exit the data is flushed to disk and the file replaces `path`.
    If the block raises, the temporary file is deleted and `path` is left as
    it was. `mode` is "w" or "wb"; other keyword arguments go to open().
    """
    if mode not in ("w", "wb"):
        raise ValueError(f"atomic_open writes whole files; mode must be 'w' or 'wb', got {mode!r}")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), **kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


def atomic_write_json(path, payload) -> None:
    """`payload` as strict JSON with sorted keys, indented by two: a
    non-finite float (a failed cell's metrics, a NaN alpha) is written as
    null."""
    atomic_write_text(path, json.dumps(_strict_json(payload), indent=2, sort_keys=True,
                                       allow_nan=False))


def _strict_json(obj):
    if isinstance(obj, dict):
        return {key: _strict_json(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict_json(value) for value in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj
