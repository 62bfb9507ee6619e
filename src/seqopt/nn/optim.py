"""Adam with bias correction, one elementwise pass over a network's flat
parameter buffer (`ParamStore.flat`) and its flat gradient, and the one
training loop every model here runs through."""

from __future__ import annotations

import numpy as np

from ..errors import TrainingDivergedError
from .layers import NonFiniteError, ParamStore


BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


class AdamState:
    """First/second moment estimates over a flat parameter buffer of `size`
    entries, plus the step counter."""

    def __init__(self, size: int):
        self.m, self.v, self.step_count = np.zeros(size), np.zeros(size), 0


def adam_step(params: ParamStore, grad: np.ndarray, learning_rate: float,
              state: AdamState) -> AdamState:
    """One bias-corrected Adam update from a gradient laid out like
    `params.flat`; mutates `params.flat` in place so its named views, and the
    networks wrapping them, observe the new values."""
    if grad.shape != params.flat.shape:
        raise ValueError(f"gradient shape {grad.shape} != parameter shape {params.flat.shape}")
    state.step_count += 1
    state.m *= BETA1
    state.m += (1 - BETA1) * grad
    state.v *= BETA2
    state.v += (1 - BETA2) * grad * grad
    m_hat = state.m / (1 - BETA1 ** state.step_count)
    v_hat = state.v / (1 - BETA2 ** state.step_count)
    params.flat -= learning_rate * m_hat / (np.sqrt(v_hat) + EPSILON)
    return state


def check_training_fields(cfg) -> None:
    """Raise ValueError naming a training config's first bad field among
    learning_rate, batch_size and epochs."""
    if cfg.learning_rate <= 0:
        raise ValueError("learning_rate must be > 0")
    if cfg.batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if cfg.epochs < 0:
        raise ValueError("epochs must be >= 0")


def fit(nets, batches, loss_tape, learning_rate: float, epochs: int) -> list[tuple]:
    """Minimize `loss_tape` over `nets` with Adam, one state per network.

    Each epoch iterates the generator `batches()`; `loss_tape(*batch)` returns
    the loss Tensor and a tuple of floats to report. Returns, per epoch, the
    element-wise sum of those tuples and the batch count. A non-finite
    activation or loss raises TrainingDivergedError naming the epoch. The
    parameter leaves are frozen again when this returns."""
    if learning_rate <= 0:
        raise ValueError("learning_rate must be > 0")
    states = [AdamState(net.params.flat.size) for net in nets]
    history = []
    for epoch in range(epochs):
        sums, count = (), 0
        for batch in batches():
            for net in nets:
                net.refresh()
            try:
                loss, report = loss_tape(*batch)
            except NonFiniteError as exc:
                raise TrainingDivergedError(f"epoch {epoch}: {exc}") from None
            if not np.isfinite(loss.data):
                raise TrainingDivergedError(f"epoch {epoch}: non-finite loss")
            loss.backward()
            for net, state in zip(nets, states):
                adam_step(net.params, net.collect_grads(), learning_rate, state)
            sums = tuple(a + b for a, b in zip(sums, report)) if sums else tuple(report)
            count += 1
        history.append((sums, count))
    return history
