"""Flow-matching prior over latent vectors.

A velocity-field net is regressed onto the straight-line target z1 - z0 along
the linear interpolation path, then sampled by Euler integration of the
learned field from t=0 (standard normal) to t=1 (data). The field can also
condition on a scalar fitness label, which turns integration into a directly
learned conditional sampler.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .nn import autodiff as ad
from .nn.autodiff import Tensor
from .nn.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .nn.layers import Network
from .nn.optim import check_training_fields, fit

# width of a new field's time and fitness embeddings; checkpoints record theirs
EMBED_DIM = 16


@dataclass(frozen=True)
class FlowTrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 256
    epochs: int = 300
    seed: int = 0
    hidden: int = 128            # width of the velocity trunk's dense layers

    def __post_init__(self):
        check_training_fields(self)
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")


def sinusoidal_embedding(values: np.ndarray, dim: int, max_freq: float = 64.0) -> np.ndarray:
    """(B,) scalars -> (B, dim) sin/cos features with geometric frequencies."""
    if dim % 2 != 0:
        raise ValueError("embedding dim must be even")
    values = np.atleast_1d(np.asarray(values, dtype=np.float64))
    angles = values[:, None] * _frequencies(dim // 2, float(max_freq))[None, :]
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)


@functools.cache
def _frequencies(count: int, max_freq: float) -> np.ndarray:
    """The embedding's angular frequencies, computed once per (count,
    max_freq) and shared read-only by every caller."""
    freqs = np.geomspace(1.0, max_freq, count) * np.pi
    freqs.flags.writeable = False
    return freqs


def trunk_descriptor(latent_dim: int, time_embed_dim: int, fitness_embed_dim: int,
                     hidden: int) -> list[dict]:
    in_dim = latent_dim + time_embed_dim + fitness_embed_dim
    return [
        {"kind": "dense", "in": in_dim, "out": hidden},
        {"kind": "leaky_relu", "alpha": 0.01},
        {"kind": "dense", "in": hidden, "out": hidden},
        {"kind": "leaky_relu", "alpha": 0.01},
        {"kind": "dense", "in": hidden, "out": latent_dim},
    ]


class FlowModel:
    """Velocity field v(z, t[, y]) with sinusoidal time (and optional fitness)
    embeddings concatenated to the latent features."""

    def __init__(self, net: Network, latent_dim: int, time_embed_dim: int,
                 fitness_embed_dim: int = 0, max_freq: float = 64.0):
        self.net = net
        self.latent_dim = latent_dim
        self.time_embed_dim = time_embed_dim
        self.fitness_embed_dim = fitness_embed_dim
        self.max_freq = max_freq

    @classmethod
    def build(cls, latent_dim: int, seed: int, conditional: bool = False, *,
              hidden: int) -> "FlowModel":
        y_dim = EMBED_DIM if conditional else 0
        net = Network.build(trunk_descriptor(latent_dim, EMBED_DIM, y_dim, hidden), seed)
        return cls(net, latent_dim, EMBED_DIM, y_dim)

    @property
    def conditional(self) -> bool:
        return self.fitness_embed_dim > 0

    def extra_meta(self) -> dict:
        return {"latent_dim": self.latent_dim, "time_embed_dim": self.time_embed_dim,
                "fitness_embed_dim": self.fitness_embed_dim, "max_freq": self.max_freq,
                "conditional": self.conditional, "time_embedding": "sinusoidal"}

    def _embed(self, values, dim: int, rows: int) -> Tensor:
        """(rows, dim) embedding of a scalar or of one value per row. A scalar
        is embedded once and broadcast, which gives the same bits as embedding
        it per row."""
        emb = sinusoidal_embedding(values, dim, self.max_freq)
        return Tensor(np.broadcast_to(emb, (rows, dim)), requires_grad=False)

    def _features(self, z: Tensor, t, y) -> Tensor:
        b = z.shape[0]
        parts = [z, self._embed(t, self.time_embed_dim, b)]
        if self.conditional:
            if y is None:
                raise ValueError("conditional flow model needs a fitness value y")
            parts.append(self._embed(y, self.fitness_embed_dim, b))
        elif y is not None:
            raise ValueError("unconditional flow model got a fitness value")
        return ad.concat(parts, axis=1)

    def velocity_tape(self, z: Tensor, t, y=None) -> Tensor:
        return self.net.apply(self._features(z, t, y))

    def velocity(self, z: np.ndarray, t, y=None) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        if z.shape[1] != self.latent_dim:
            raise ValueError(f"latent dimension {z.shape[1]} != model {self.latent_dim}")
        return self.velocity_tape(Tensor(z, requires_grad=False), t, y).data


def interpolate(z0: np.ndarray, z1: np.ndarray, t) -> np.ndarray:
    """Straight-line path (1-t)*z0 + t*z1; t scalar or per-row, within [0, 1]."""
    z0 = np.asarray(z0, dtype=np.float64)
    z1 = np.asarray(z1, dtype=np.float64)
    if z0.shape != z1.shape:
        raise ValueError("endpoint shape mismatch")
    t_arr = np.asarray(t, dtype=np.float64)
    if (t_arr < 0).any() or (t_arr > 1).any():
        raise ValueError("t must lie in [0, 1]")
    if t_arr.ndim == 1:
        t_arr = t_arr[:, None]
    return (1.0 - t_arr) * z0 + t_arr * z1


def _loss_tape(model: FlowModel, z1: np.ndarray, z0: np.ndarray, t: np.ndarray,
               y: np.ndarray | None) -> Tensor:
    zt = interpolate(z0, z1, t)
    v = model.velocity_tape(Tensor(zt, requires_grad=False), t, y)
    resid = v - (z1 - z0)
    return ad.tmean(ad.tsum(resid * resid, axis=1) * 0.5)


def flow_matching_loss(model: FlowModel, z1: np.ndarray, z0: np.ndarray,
                       t: np.ndarray, y: np.ndarray | None = None) -> float:
    """Mean over the batch of 0.5 * ||v(path(t)) - (z1 - z0)||^2."""
    return float(_loss_tape(model, np.atleast_2d(z1), np.atleast_2d(z0),
                            np.atleast_1d(t), y).data)


def train_flow(latents: np.ndarray, cfg: FlowTrainConfig,
               labels: np.ndarray | None = None) -> tuple[FlowModel, list[float]]:
    """Fit the velocity field on encoded latents; fresh noise endpoints and
    times are drawn every epoch. Given fitness `labels`, one per latent, the
    field is conditioned on them. Returns the model and per-epoch losses."""
    latents = np.atleast_2d(np.asarray(latents, dtype=np.float64))
    conditional = labels is not None
    if conditional:
        labels = np.asarray(labels, dtype=np.float64)
        if labels.shape != (latents.shape[0],):
            raise ValueError("labels must be one scalar per latent")
    n, dim = latents.shape
    model = FlowModel.build(dim, seed=cfg.seed, conditional=conditional, hidden=cfg.hidden)
    rng = np.random.default_rng(cfg.seed + 3000)

    def batches():
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            z1 = latents[idx]
            z0 = rng.standard_normal(z1.shape)
            t = rng.uniform(0.0, 1.0, size=idx.size)
            yield z1, z0, t, labels[idx] if conditional else None

    def loss_tape(z1, z0, t, y):
        loss = _loss_tape(model, z1, z0, t, y)
        return loss, (float(loss.data),)

    history = fit([model.net], batches, loss_tape, cfg.learning_rate, cfg.epochs)
    return model, [total / count for (total,), count in history]


def save_flow(model: FlowModel, path) -> str:
    return save_checkpoint(path, "flow", model.net.descriptor, model.net.params,
                           extra=model.extra_meta())


def load_flow(path) -> FlowModel:
    """Load a flow checkpoint. Embedding widths must be even, the latent and
    embedding widths must sum to the trunk's input width, the latent width
    must be its output width, and a recorded `max_freq` must be a finite
    number > 0; a file without one gets the default."""
    descriptor, params, extra = load_checkpoint(
        path, "flow", {"latent_dim": int, "time_embed_dim": int, "fitness_embed_dim": int})
    for name in ("time_embed_dim", "fitness_embed_dim"):
        if extra[name] % 2:
            raise CheckpointError(f"{path}: metadata field {name!r} is {extra[name]!r}, "
                                  "not an even width")
    dense = [layer for layer in descriptor if layer["kind"] == "dense"] or [{}]
    in_dim = extra["latent_dim"] + extra["time_embed_dim"] + extra["fitness_embed_dim"]
    if dense[0].get("in") != in_dim:
        raise CheckpointError(f"{path}: metadata fields 'latent_dim', 'time_embed_dim' and "
                              f"'fitness_embed_dim' sum to {in_dim}, not the first dense "
                              f"layer's 'in' width {dense[0].get('in')}")
    if dense[-1].get("out") != extra["latent_dim"]:
        raise CheckpointError(f"{path}: metadata field 'latent_dim' is {extra['latent_dim']}, "
                              f"not the last dense layer's 'out' width {dense[-1].get('out')}")
    max_freq = extra.get("max_freq", 64.0)
    if not (type(max_freq) in (int, float) and math.isfinite(max_freq) and max_freq > 0):
        raise CheckpointError(f"{path}: metadata field 'max_freq' is {max_freq!r}, "
                              "not a finite number > 0")
    return FlowModel(Network(descriptor, params), extra["latent_dim"], extra["time_embed_dim"],
                     extra["fitness_embed_dim"], float(max_freq))


def euler_step(model, z: np.ndarray, t: float, dt: float, y=None) -> np.ndarray:
    """Single forward-Euler update; shared by plain integration and guided
    sampling so the two agree bit for bit."""
    return z + dt * model.velocity(z, t, y)


def euler_integrate(model, z0: np.ndarray, steps: int, y=None) -> np.ndarray:
    """Integrate dz/dt = v(z, t) from t=0 to 1 with the given number of Euler
    steps. Returns the (steps+1, B, dim) trajectory. Aborts on non-finite
    states, naming the step."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    z = np.atleast_2d(np.asarray(z0, dtype=np.float64))
    dt = 1.0 / steps
    traj = [z.copy()]
    for k in range(steps):
        z = euler_step(model, z, k * dt, dt, y)
        if not np.isfinite(z).all():
            raise FloatingPointError(f"non-finite state at integration step {k}")
        traj.append(z)
    return np.stack(traj)
