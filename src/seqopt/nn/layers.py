"""Declarative layer descriptors and the Network container.

A descriptor is a JSON-friendly list of layer dicts over a frozen layer set:
what the models here build (dense, stride-1 same-padding 1-D conv,
relu/leaky_relu, flatten/reshape), plus the tanh, softmax and global average
pooling layers that no model here builds, kept for external predictor
checkpoints (`predictor.load_external_predictor`) that use them.
A network's parameters are views named "layerindex.name", in descriptor
order, into one float64 buffer (a ParamStore's `flat`) initialized
deterministically from the store's seed; their gradient is one such buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class NonFiniteError(RuntimeError):
    """A layer produced NaN/inf activations."""


_LAYER_KINDS = ("dense", "conv1d", "relu", "leaky_relu", "tanh", "softmax",
                "global_avg_pool", "flatten", "reshape")


def validate_descriptor(descriptor) -> list[str]:
    """Return a list of problems (empty when the descriptor is well formed)."""
    problems = []
    if not isinstance(descriptor, (list, tuple)) or not descriptor:
        return ["descriptor must be a non-empty list of layer dicts"]
    for i, layer in enumerate(descriptor):
        if not isinstance(layer, dict) or "kind" not in layer:
            problems.append(f"layer {i}: not a dict with a 'kind' key")
            continue
        kind = layer["kind"]
        if kind not in _LAYER_KINDS:
            problems.append(f"layer {i}: unsupported kind {kind!r}")
            continue
        if kind == "dense":
            if not (isinstance(layer.get("in"), int) and isinstance(layer.get("out"), int)
                    and layer["in"] > 0 and layer["out"] > 0):
                problems.append(f"layer {i}: dense needs positive int 'in'/'out'")
        elif kind == "conv1d":
            ok = all(isinstance(layer.get(k), int) and layer[k] > 0
                     for k in ("in_ch", "out_ch", "kernel"))
            if not ok or layer.get("kernel", 0) % 2 != 1:
                problems.append(f"layer {i}: conv1d needs positive int 'in_ch'/'out_ch' and odd 'kernel'")
        elif kind == "leaky_relu":
            alpha = layer.get("alpha", 0.01)
            if not (isinstance(alpha, (int, float)) and 0 < alpha <= 1):
                problems.append(f"layer {i}: leaky_relu 'alpha' must be a number "
                                f"in (0, 1], got {alpha!r}")
        elif kind == "reshape":
            shape = layer.get("shape")
            if not (isinstance(shape, (list, tuple)) and all(isinstance(s, int) for s in shape)):
                problems.append(f"layer {i}: reshape needs an int 'shape' list")
    return problems


@dataclass
class ParamStore:
    """Named parameter arrays plus the seed they were initialized from. The
    arrays are copied, in insertion order, into one contiguous float64 buffer
    `flat` and become views of it, so an in-place update of `flat` reaches
    every array."""

    arrays: dict[str, np.ndarray]
    rng_seed: int

    def __post_init__(self):
        self.flat = np.concatenate([np.zeros(0)] + [np.ravel(a) for a in self.arrays.values()])
        self.arrays = self.views(self.flat)
        self.checksum = None

    def freeze(self, checksum: str) -> None:
        """Make `flat` read-only, re-cut the named arrays as read-only views of
        it, and keep `checksum`, the parameters' `params_checksum`, which that
        function then returns for as long as `flat` stays read-only. numpy
        then refuses every write to `flat` and the named arrays."""
        self.flat.setflags(write=False)
        self.arrays = self.views(self.flat)
        self.checksum = checksum

    def views(self, buffer: np.ndarray) -> dict[str, np.ndarray]:
        """Cut a buffer laid out like `flat` into the named arrays' shapes."""
        out, start = {}, 0
        for name, arr in self.arrays.items():
            out[name] = buffer[start:start + arr.size].reshape(arr.shape)
            start += arr.size
        return out


def param_shapes(descriptor) -> dict[str, tuple[int, ...]]:
    """The shape of each named parameter array of a valid descriptor, in
    layer order: the layout of a network's `ParamStore.flat`."""
    shapes = {}
    for i, layer in enumerate(descriptor):
        if layer["kind"] == "dense":
            shapes[f"{i}.weight"] = (layer["in"], layer["out"])
            shapes[f"{i}.bias"] = (layer["out"],)
        elif layer["kind"] == "conv1d":
            shapes[f"{i}.weight"] = (layer["out_ch"], layer["in_ch"], layer["kernel"])
            shapes[f"{i}.bias"] = (layer["out_ch"],)
    return shapes


def init_params(descriptor, seed: int) -> ParamStore:
    """Glorot-uniform weights, zero biases, drawn in layer order so the same
    (descriptor, seed) pair always produces identical arrays."""
    problems = validate_descriptor(descriptor)
    if problems:
        raise ValueError("bad descriptor: " + "; ".join(problems))
    rng = np.random.default_rng(seed)
    arrays: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(descriptor).items():
        if name.endswith(".bias"):
            arrays[name] = np.zeros(shape)
        else:  # Glorot: fan_in + fan_out, times the kernel of a conv1d (out_ch, in_ch, kernel)
            s = np.sqrt(6.0 / ((shape[0] + shape[1]) * np.prod(shape[2:], dtype=int)))
            arrays[name] = rng.uniform(-s, s, size=shape)
    return ParamStore(arrays, seed)


class Network:
    """A descriptor-driven feed-forward stack over batched inputs.

    Inputs are (B, features) for dense stacks or (B, channels, length) for
    conv stacks; `flatten`/`reshape` layers move between the two.
    """

    def __init__(self, descriptor, params: ParamStore):
        problems = validate_descriptor(descriptor)
        if problems:
            raise ValueError("bad descriptor: " + "; ".join(problems))
        self.descriptor = [dict(layer) for layer in descriptor]
        self.params = params
        self._wrap(requires_grad=False)

    @classmethod
    def build(cls, descriptor, seed: int) -> "Network":
        return cls(descriptor, init_params(descriptor, seed))

    def _wrap(self, requires_grad: bool) -> None:
        self._tensors = {name: Tensor(arr, requires_grad=requires_grad)
                         for name, arr in self.params.arrays.items()}

    def refresh(self) -> None:
        """Ask for parameter gradients: re-wrap the parameter arrays as fresh
        leaves that record them, so the next tape reaches the parameters.
        Until then (and again after `collect_grads`) the leaves are frozen and
        a forward pass builds no parameter gradients."""
        self._wrap(requires_grad=True)

    def apply(self, x: Tensor) -> Tensor:
        """Tape-aware forward pass; raises NonFiniteError naming the bad layer."""
        for i, layer in enumerate(self.descriptor):
            kind = layer["kind"]
            if kind == "dense":
                x = ad.matmul(x, self._tensors[f"{i}.weight"]) + self._tensors[f"{i}.bias"]
            elif kind == "conv1d":
                x = ad.conv1d(x, self._tensors[f"{i}.weight"], self._tensors[f"{i}.bias"])
            elif kind == "relu":
                x = ad.relu(x)
            elif kind == "leaky_relu":
                x = ad.leaky_relu(x, layer.get("alpha", 0.01))
            elif kind == "tanh":
                x = ad.tanh(x)
            elif kind == "softmax":
                x = ad.softmax(x, axis=-1)
            elif kind == "global_avg_pool":
                x = ad.tmean(x, axis=-1)
            elif kind == "flatten":
                x = ad.reshape(x, (x.shape[0], -1))
            elif kind == "reshape":
                x = ad.reshape(x, (x.shape[0], *layer["shape"]))
            if not np.isfinite(x.data).all():
                raise NonFiniteError(f"layer {i} ({kind}) produced non-finite values")
        return x

    def move_params(self, buffer: np.ndarray) -> None:
        """Copy the parameters into `buffer`, a float64 array laid out like
        `params.flat`, and keep them there: it becomes `params.flat`, the named
        arrays become its views, and the leaves wrap them, frozen."""
        buffer[...] = self.params.flat
        self.params.flat = buffer
        self.params.arrays = self.params.views(buffer)
        self._wrap(requires_grad=False)

    def collect_grads(self) -> np.ndarray:
        """Parameter gradients of the last tape as one array laid out like
        `params.flat`, zero where the tape did not reach a parameter; ends the
        gradient step by freezing the parameter leaves again."""
        grad = np.empty_like(self.params.flat)
        for name, view in self.params.views(grad).items():
            leaf_grad = self._tensors[name].grad
            view[...] = 0.0 if leaf_grad is None else leaf_grad
        self._wrap(requires_grad=False)
        return grad
