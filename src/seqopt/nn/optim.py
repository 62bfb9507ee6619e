"""Adam with bias correction, operating in place on ParamStore arrays."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .layers import ParamStore


@dataclass(frozen=True)
class AdamConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError("betas must lie in (0, 1)")


@dataclass
class AdamState:
    """First/second moment estimates plus the step counter."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step_count: int = 0


def adam_step(params: ParamStore, grads: dict[str, np.ndarray], cfg: AdamConfig,
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
        m *= cfg.beta1
        m += (1 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1 - cfg.beta2) * g * g
        m_hat = m / (1 - cfg.beta1 ** t)
        v_hat = v / (1 - cfg.beta2 ** t)
        arr -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
    return state
