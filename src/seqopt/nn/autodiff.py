"""Minimal reverse-mode autodiff over float64 numpy arrays.

Covers exactly the op set the models here need (dense/conv nets, softmax
cross-entropy, flow fields, and the guidance chain that differentiates a
predictor composed with a decoder and a velocity-field extrapolation). Every
op's backward is checked against central finite differences in the test suite.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    """Node in the computation tape: a float64 array plus backward closure.

    `requires_grad` marks a node whose gradient a backward sweep produces. A
    leaf built with `Tensor(x)` requires one; constants pass
    `requires_grad=False`. An op's output requires a gradient when any of its
    inputs does; one that requires none records no parents and no closure,
    so a forward pass over constants and frozen parameters builds no tape.
    """

    __slots__ = ("data", "grad", "parents", "_backward", "requires_grad")

    def __init__(self, data, parents=(), backward=None, requires_grad=True):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.parents = parents
        self._backward = backward
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"

    def _accumulate(self, g):
        # The first gradient is adopted as is; later ones build a new array
        # instead of adding in place, because ops hand the same array (or
        # views of it) to several parents.
        self.grad = g if self.grad is None else self.grad + g

    def backward(self, grad=None):
        """Reverse-mode sweep seeding this node's adjoint (defaults to ones)."""
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:  # iterative DFS: tapes can exceed the recursion limit
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                stack.append((p, False))
        if grad is None:
            seed = np.ones_like(self.data)
        else:  # a private copy: the gradients below may be views of the seed
            seed = np.array(np.broadcast_to(grad, self.data.shape), dtype=np.float64)
        self._accumulate(seed)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # operator sugar; scalars and arrays are wrapped as constant leaves
    def __add__(self, other):
        return add(self, as_tensor(other))

    def __sub__(self, other):
        return add(self, mul(as_tensor(other), as_tensor(-1.0)))

    def __mul__(self, other):
        return mul(self, as_tensor(other))

    def __rmul__(self, other):
        return mul(as_tensor(other), self)

    def __getitem__(self, key):
        return take_slice(self, key)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x, requires_grad=False)


def _result(data, inputs: tuple, backward) -> Tensor:
    """An op's output: on the tape when some input requires a gradient, a
    constant otherwise. A single-input op's closure therefore only runs when
    its input requires a gradient; multi-input closures check each operand."""
    if any(t.requires_grad for t in inputs):
        return Tensor(data, inputs, backward)
    return Tensor(data, requires_grad=False)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward op."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _result(a.data + b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _result(a.data * b.data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-D operands")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return _result(a.data @ b.data, (a, b), backward)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    # fmax maps NaN to 0; which of two equal zeros it returns varies with its
    # SIMD path, so adding +0.0 turns every -0.0 into 0.0
    y = np.fmax(x.data, 0.0)
    y += 0.0
    return _result(y, (x,), lambda g: x._accumulate(g * mask))


def leaky_relu(x: Tensor, alpha: float = 0.01) -> Tensor:
    """x * slope, slope 1 where x > 0 and alpha elsewhere. For 0 < alpha <= 1
    max(x, alpha * x) is that product bit for bit, signed zeros, infinities
    and NaNs included, so only the backward builds the slope. At alpha = 0 it
    is not (0 * inf is NaN), so that alpha, like any outside (0, 1], raises
    ValueError."""
    if not 0 < alpha <= 1:  # NaN too
        raise ValueError(f"leaky_relu alpha must be in (0, 1], got {alpha}")
    y = alpha * x.data
    np.maximum(x.data, y, out=y)

    def backward(g):
        slope = (x.data > 0).astype(np.float64)
        np.maximum(slope, alpha, out=slope)
        slope *= g
        x._accumulate(slope)

    return _result(y, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    return _result(y, (x,), lambda g: x._accumulate(g * (1.0 - y * y)))


def exp(x: Tensor) -> Tensor:
    y = np.exp(x.data)
    return _result(y, (x,), lambda g: x._accumulate(g * y))


def log(x: Tensor) -> Tensor:
    return _result(np.log(x.data), (x,), lambda g: x._accumulate(g / x.data))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * p).sum(axis=axis, keepdims=True)
        x._accumulate(p * (g - dot))

    return _result(p, (x,), backward)


def logsumexp(x: Tensor, axis: int = -1) -> Tensor:
    m = x.data.max(axis=axis, keepdims=True)
    e = np.exp(x.data - m)
    s = e.sum(axis=axis, keepdims=True)

    def backward(g):
        x._accumulate(np.expand_dims(g, axis) * (e / s))

    return _result(np.squeeze(m + np.log(s), axis=axis), (x,), backward)


def tsum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        x._accumulate(np.broadcast_to(g, x.data.shape).astype(np.float64))

    return _result(x.data.sum(axis=axis, keepdims=keepdims), (x,), backward)


def tmean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = x.data.size if axis is None else x.data.shape[axis]
    return tsum(x, axis=axis, keepdims=keepdims) * (1.0 / count)


def reshape(x: Tensor, shape) -> Tensor:
    return _result(x.data.reshape(shape), (x,),
                   lambda g: x._accumulate(g.reshape(x.data.shape)))


def transpose(x: Tensor, axes) -> Tensor:
    inv = np.argsort(axes)
    return _result(x.data.transpose(axes), (x,),
                   lambda g: x._accumulate(g.transpose(inv)))


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = tuple(as_tensor(t) for t in tensors)
    splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t._accumulate(piece)

    return _result(np.concatenate([t.data for t in tensors], axis=axis), tensors, backward)


def take_slice(x: Tensor, key) -> Tensor:
    def backward(g):
        full = np.zeros_like(x.data)
        full[key] = g
        x._accumulate(full)

    return _result(x.data[key], (x,), backward)


def gather_last(x: Tensor, index: np.ndarray) -> Tensor:
    """Pick one entry along the last axis per leading position:
    out[..., i] = x[..., i, index[..., i]]."""
    index = np.asarray(index, dtype=np.int64)
    picked = np.take_along_axis(x.data, index[..., None], axis=-1)

    def backward(g):
        full = np.zeros_like(x.data)
        # one slot per (..., i) position, so assignment == accumulation
        np.put_along_axis(full, index[..., None], g[..., None], axis=-1)
        x._accumulate(full)

    return _result(np.squeeze(picked, axis=-1), (x,), backward)


def _padded_rows(a: np.ndarray, pad: int) -> np.ndarray:
    """(B, C, L) -> channels-last rows (B*(L+2*pad), C), each sequence with
    `pad` zero rows on either side."""
    batch, channels, length = a.shape
    rows = np.zeros((batch, length + 2 * pad, channels))
    rows[:, pad:pad + length] = a.transpose(0, 2, 1)
    return rows.reshape(-1, channels)


def _tap_sum(rows: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """out[r] = sum_j rows[r + j] @ taps[j]: one GEMM per tap over a shifted
    contiguous slice of the padded rows, accumulated into one (rows, C_out)
    array laid out like the rows. Output row l of a sequence holds the window
    that starts at its padded row l, so rows l >= L straddle two sequences;
    callers drop them. The last k - 1 rows, whose windows would run past the
    buffer, are zero."""
    k, _, cout = taps.shape
    n = rows.shape[0] - (k - 1)
    out = np.empty((rows.shape[0], cout))
    acc = out[:n]
    np.matmul(rows[:n], taps[0], out=acc)
    for j in range(1, k):
        acc += rows[j:j + n] @ taps[j]
    out[n:] = 0.0
    return out


def conv1d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Stride-1, same-padding 1-D convolution.

    x: (B, C_in, L); w: (C_out, C_in, k) with odd k; b: (C_out,).

    x is copied once into zero-padded channels-last rows; each of the k taps
    is then one GEMM over a shifted contiguous slice of those rows. The input
    gradient is the same sum over a padded copy of the output gradient with
    the taps mirrored, and the weight gradient is one GEMM per tap against
    the forward's rows, computed only when `w` requires a gradient.
    """
    B, cin, L = x.data.shape
    cout, cin_w, k = w.data.shape
    if cin != cin_w:
        raise ValueError(f"conv1d channel mismatch: input {cin}, weight {cin_w}")
    if k % 2 != 1:
        raise ValueError("conv1d kernel width must be odd")
    pad = k // 2

    def channels_first(out_rows):
        return out_rows.reshape(B, L + 2 * pad, -1)[:, :L].transpose(0, 2, 1)

    rows = _padded_rows(x.data, pad)
    y = _tap_sum(rows, np.ascontiguousarray(w.data.transpose(2, 1, 0)))
    y += b.data
    cols = rows if w.requires_grad else None  # keep the rows only if dW needs them

    def backward(g):
        if b.requires_grad:
            b._accumulate(g.sum(axis=(0, 2)))
        if not (w.requires_grad or x.requires_grad):
            return
        grows = _padded_rows(g, pad)
        if w.requires_grad:
            n = grows.shape[0] - 2 * pad
            gv = grows[pad:pad + n]  # zero on every dropped output row
            w._accumulate(np.stack([gv.T @ cols[j:j + n] for j in range(k)], axis=-1))
        if x.requires_grad:
            taps = np.ascontiguousarray(w.data[:, :, ::-1].transpose(2, 0, 1))
            x._accumulate(channels_first(_tap_sum(grows, taps)))

    return _result(channels_first(y), (x, w, b), backward)
