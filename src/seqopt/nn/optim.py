"""Adam with bias correction, operating in place on ParamStore arrays, and
the one training loop every model here runs through."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import TrainingDivergedError
from .layers import NonFiniteError, ParamStore


BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """First/second moment estimates plus the step counter."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step_count: int = 0


def adam_step(params: ParamStore, grads: dict[str, np.ndarray], learning_rate: float,
              state: AdamState) -> AdamState:
    """One bias-corrected Adam update; mutates `params.arrays` in place so any
    live views of the arrays observe the new values."""
    state.step_count += 1
    t = state.step_count
    for name, arr in params.arrays.items():
        g = grads[name]
        if g.shape != arr.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter {name!r} shape {arr.shape}")
        if name not in state.m:
            state.m[name] = np.zeros_like(arr)
            state.v[name] = np.zeros_like(arr)
        m, v = state.m[name], state.v[name]
        m *= BETA1
        m += (1 - BETA1) * g
        v *= BETA2
        v += (1 - BETA2) * g * g
        m_hat = m / (1 - BETA1 ** t)
        v_hat = v / (1 - BETA2 ** t)
        arr -= learning_rate * m_hat / (np.sqrt(v_hat) + EPSILON)
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
    states = [AdamState() for _ in nets]
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
