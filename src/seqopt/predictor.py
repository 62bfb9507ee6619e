"""Scalar fitness models: trainable predictors over relaxed one-hot input,
an exact landscape-backed oracle for synthetic mode, checkpoint plug-in for
externally trained weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .landscape import SyntheticLandscape
from .nn import autodiff as ad
from .nn.autodiff import Tensor
from .nn.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .nn.layers import Network
from .nn.optim import FORWARD_ROWS, check_training_fields, fit
from .seqs import one_hot_batch

ROLES = ("predictor", "oracle")


@dataclass(frozen=True)
class PredictorConfig:
    learning_rate: float = 1e-3
    epochs: int = 100
    batch_size: int = 128
    hidden_channels: int = 24
    hidden_dense: int = 64

    def __post_init__(self):
        check_training_fields(self)
        for name in ("hidden_channels", "hidden_dense"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass
class PredictorTrainReport:
    per_epoch_mse: list[float] = field(default_factory=list)
    final_train_mse: float | None = None
    val_mse: float | None = None


def predictor_descriptor(length: int, vocab_size: int, cfg: PredictorConfig) -> list[dict]:
    h = cfg.hidden_channels
    return [
        {"kind": "conv1d", "in_ch": vocab_size, "out_ch": h, "kernel": 5},
        {"kind": "relu"},
        {"kind": "conv1d", "in_ch": h, "out_ch": h, "kernel": 5},
        {"kind": "relu"},
        {"kind": "flatten"},
        {"kind": "dense", "in": h * length, "out": cfg.hidden_dense},
        {"kind": "relu"},
        {"kind": "dense", "in": cfg.hidden_dense, "out": 1},
    ]


class PredictorModel:
    """CNN regressor from (d, |V|) relaxed one-hot matrices to scalars."""

    def __init__(self, net: Network, length: int, vocab_size: int, role: str):
        if role not in ROLES:
            raise ValueError(f"role must be one of {ROLES}")
        self.net = net
        self.length = length
        self.vocab_size = vocab_size
        self.role = role

    @classmethod
    def build(cls, length: int, vocab_size: int, cfg: PredictorConfig, seed: int,
              role: str = "predictor") -> "PredictorModel":
        return cls(Network.build(predictor_descriptor(length, vocab_size, cfg), seed),
                   length, vocab_size, role)

    def predict_tape(self, probs: Tensor) -> Tensor:
        """(B, d, V) relaxed one-hot -> (B,) scores, on the tape."""
        x = ad.transpose(probs, (0, 2, 1))
        out = self.net.apply(x)
        return ad.reshape(out, (out.shape[0],))

    def predict_sequences(self, seqs: np.ndarray) -> np.ndarray:
        """Score token sequences via their hard one-hot encoding."""
        seqs = np.atleast_2d(np.asarray(seqs, dtype=np.int64))
        if seqs.shape[1] != self.length:
            raise ValueError(f"sequence length {seqs.shape[1]} != predictor length {self.length}")
        x = Tensor(one_hot_batch(seqs, self.vocab_size), requires_grad=False)
        return self.predict_tape(x).data


def train_predictor(data: Dataset, cfg: PredictorConfig, seed: int,
                    vocab_size: int = 20, role: str = "predictor",
                    val_data: Dataset | None = None
                    ) -> tuple[PredictorModel, PredictorTrainReport]:
    """Minimize MSE against normalized fitness, or raw fitness in the oracle
    role; deterministic given the seed."""
    model = PredictorModel.build(data.length, vocab_size, cfg, seed, role)
    labels = data.fitness if role == "oracle" else data.normalized_fitness()
    rng = np.random.default_rng(seed + 2000)

    def batches():
        order = rng.permutation(data.n)
        for start in range(0, data.n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            yield data.sequences[idx], labels[idx], idx.size

    def loss_tape(seqs, y, rows):
        x = one_hot_batch(seqs, vocab_size)  # in the chunk's process: sequences pickle small
        resid = model.predict_tape(Tensor(x, requires_grad=False)) - y
        loss = ad.tmean(resid * resid)
        # the batch's squared-error sum and size; `fit` weights a chunk's report
        # by its share of the batch's `rows`
        return loss, (float(loss.data) * rows, rows)

    report = PredictorTrainReport()
    for (sq_sum, count), _ in fit([model.net], batches, loss_tape, cfg.learning_rate,
                                  cfg.epochs, chunked=True):
        report.per_epoch_mse.append(sq_sum / count)
    report.final_train_mse = _mse(model, data, labels)
    if val_data is not None:
        val_labels = val_data.fitness if role == "oracle" else val_data.normalized_fitness()
        report.val_mse = _mse(model, val_data, val_labels)
    return model, report


def _mse(model: PredictorModel, data: Dataset, labels: np.ndarray) -> float:
    preds = np.concatenate([model.predict_sequences(data.sequences[s:s + FORWARD_ROWS])
                            for s in range(0, data.n, FORWARD_ROWS)])
    return float(np.mean((preds - labels) ** 2))


class LandscapeOracle:
    """Exact oracle for synthetic mode: wraps the analytic landscape, raw scale."""

    role = "oracle"

    def __init__(self, landscape: SyntheticLandscape):
        self.landscape = landscape
        self.length = landscape.length

    def predict_sequences(self, seqs: np.ndarray) -> np.ndarray:
        return self.landscape.fitness_many(seqs)


def save_predictor(model: PredictorModel, path) -> str:
    return save_checkpoint(path, "predictor", model.net.descriptor, model.net.params,
                           extra={"role": model.role, "length": model.length,
                                  "vocab_size": model.vocab_size})


def load_external_predictor(path) -> PredictorModel:
    """Load a frozen predictor checkpoint (checksum-verified); role and shape
    come from the stored metadata."""
    descriptor, params, extra = load_checkpoint(path, "predictor",
                                                {"length": int, "vocab_size": int})
    role = extra.get("role", "predictor")
    if role not in ROLES:
        raise CheckpointError(f"{path}: metadata field 'role' is {role!r}, not one of {ROLES}")
    return PredictorModel(Network(descriptor, params), extra["length"], extra["vocab_size"],
                          role)
