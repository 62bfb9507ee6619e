"""Beta-weighted variational autoencoder over fixed-length token sequences.

Encoder: one-hot input -> conv stack -> dense head emitting mean and bounded
log-variance. Decoder: dense -> conv stack -> per-position logits. Tokens come
out of the logits via per-row argmax; during guided sampling the decoder is
instead relaxed with a softmax so predictors can be differentiated through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .data import Dataset
from .jobs import process_cores, run_jobs
from .nn import autodiff as ad
from .nn.autodiff import Tensor
from .nn.checkpoint import CheckpointError, check_shapes, load_checkpoint, save_checkpoint
from .nn.layers import Network
from .nn.optim import CHUNK_ROWS, check_training_fields, fit
from .seqs import one_hot_batch

LOGVAR_BOUND = 10.0  # |log-variance| cap, applied smoothly via tanh


@dataclass(frozen=True)
class VaeConfig:
    latent_dim: int = 14
    beta: float = 0.0015
    learning_rate: float = 1e-3
    epochs: int = 90
    batch_size: int = 128
    hidden_channels: int = 48

    def __post_init__(self):
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")
        if self.beta <= 0:
            raise ValueError("beta must be > 0")
        check_training_fields(self)
        if self.hidden_channels < 1:
            raise ValueError("hidden_channels must be >= 1")


@dataclass
class TrainReport:
    per_epoch: list[dict] = field(default_factory=list)
    final_accuracy: float | None = None
    val_accuracy: float | None = None


def encoder_descriptor(length: int, vocab_size: int, cfg: VaeConfig) -> list[dict]:
    h = cfg.hidden_channels
    return [
        {"kind": "conv1d", "in_ch": vocab_size, "out_ch": h, "kernel": 5},
        {"kind": "relu"},
        {"kind": "conv1d", "in_ch": h, "out_ch": h, "kernel": 5},
        {"kind": "relu"},
        {"kind": "flatten"},
        {"kind": "dense", "in": h * length, "out": 2 * cfg.latent_dim},
    ]


def decoder_descriptor(length: int, vocab_size: int, cfg: VaeConfig) -> list[dict]:
    h = cfg.hidden_channels
    return [
        {"kind": "dense", "in": cfg.latent_dim, "out": h * length},
        {"kind": "relu"},
        {"kind": "reshape", "shape": [h, length]},
        {"kind": "conv1d", "in_ch": h, "out_ch": h, "kernel": 5},
        {"kind": "relu"},
        {"kind": "conv1d", "in_ch": h, "out_ch": vocab_size, "kernel": 5},
    ]


class VaeModel:
    """Trained (or initialized) encoder/decoder pair for one sequence length."""

    def __init__(self, encoder: Network, decoder: Network, config: VaeConfig,
                 length: int, vocab_size: int):
        self.encoder = encoder
        self.decoder = decoder
        self.config = config
        self.length = length
        self.vocab_size = vocab_size

    @classmethod
    def build(cls, length: int, vocab_size: int, cfg: VaeConfig, seed: int) -> "VaeModel":
        enc = Network.build(encoder_descriptor(length, vocab_size, cfg), seed)
        dec = Network.build(decoder_descriptor(length, vocab_size, cfg), seed + 1)
        return cls(enc, dec, cfg, length, vocab_size)

    @property
    def latent_dim(self) -> int:
        return self.config.latent_dim

    # --- encoding ---

    def _encode_tape(self, x: Tensor) -> tuple[Tensor, Tensor]:
        """x: (B, V, d) one-hot channels; returns mean and bounded log-variance."""
        out = self.encoder.apply(x)
        l = self.latent_dim
        mean = out[:, :l]
        logvar = ad.tanh(out[:, l:] * (1.0 / LOGVAR_BOUND)) * LOGVAR_BOUND
        return mean, logvar

    def encode_batch(self, seqs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        seqs = np.atleast_2d(np.asarray(seqs, dtype=np.int64))
        if seqs.shape[1] != self.length:
            raise ValueError(f"sequence length {seqs.shape[1]} != model length {self.length}")
        x = one_hot_batch(seqs, self.vocab_size).transpose(0, 2, 1)
        mean, logvar = self._encode_tape(Tensor(x, requires_grad=False))
        return mean.data, logvar.data

    # --- decoding ---

    def decode_logits_tape(self, z: Tensor) -> Tensor:
        """(B, l) latents -> (B, d, V) logits."""
        out = self.decoder.apply(z)           # (B, V, d)
        return ad.transpose(out, (0, 2, 1))

    def decode_logits_batch(self, z: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        if z.shape[1] != self.latent_dim:
            raise ValueError(f"latent dimension {z.shape[1]} != model latent_dim {self.latent_dim}")
        return self.decode_logits_tape(Tensor(z, requires_grad=False)).data

    def decode_probs_tape(self, z: Tensor) -> Tensor:
        """Softmax-relaxed decoding used by gradient guidance."""
        return ad.softmax(self.decode_logits_tape(z), axis=-1)

    def decode_tokens_batch(self, z: np.ndarray) -> np.ndarray:
        # np.argmax takes the lowest index on exact ties
        return self.decode_logits_batch(z).argmax(axis=-1)


def _loss_tape(model: VaeModel, seqs: np.ndarray, noise: np.ndarray):
    """Tape for total/reconstruction/KL on a batch; returns the three Tensors."""
    seqs = np.atleast_2d(np.asarray(seqs, dtype=np.int64))
    x = one_hot_batch(seqs, model.vocab_size).transpose(0, 2, 1)
    mean, logvar = model._encode_tape(Tensor(x, requires_grad=False))
    z = mean + ad.exp(logvar * 0.5) * noise
    logits = model.decode_logits_tape(z)                      # (B, d, V)
    # cross-entropy per position: logsumexp - true-token logit
    ce = ad.logsumexp(logits, axis=-1) - ad.gather_last(logits, seqs)
    recon = ad.tmean(ad.tmean(ce, axis=-1))
    # KL(q || N(0,I)) in closed form, summed over latent dims
    kl_terms = mean * mean + ad.exp(logvar) - 1.0 - logvar
    kl = ad.tmean(ad.tsum(kl_terms, axis=-1) * 0.5)
    total = recon + kl * model.config.beta
    return total, recon, kl


def train_vae(data: Dataset, cfg: VaeConfig, seed: int, vocab_size: int = 20,
              val_data: Dataset | None = None) -> tuple[VaeModel, TrainReport]:
    """Adam training on the ELBO; deterministic given the seed. Non-finite
    loss aborts with TrainingDivergedError."""
    model = VaeModel.build(data.length, vocab_size, cfg, seed)
    rng = np.random.default_rng(seed + 1000)

    def batches():
        order = rng.permutation(data.n)
        for start in range(0, data.n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            yield data.sequences[idx], rng.standard_normal((idx.size, cfg.latent_dim))

    def loss_tape(seqs, noise):
        total, recon, kl = _loss_tape(model, seqs, noise)
        return total, (float(total.data), float(recon.data), float(kl.data))

    report = TrainReport()
    for (total, recon, kl), n_batches in fit([model.encoder, model.decoder], batches,
                                             loss_tape, cfg.learning_rate, cfg.epochs,
                                             chunked=True):
        report.per_epoch.append({"total": total / n_batches,
                                 "reconstruction": recon / n_batches,
                                 "kl": kl / n_batches})
    report.final_accuracy = reconstruction_accuracy(model, data)
    if val_data is not None:
        report.val_accuracy = reconstruction_accuracy(model, val_data)
    return model, report


def reconstruction_accuracy(model: VaeModel, data: Dataset) -> float:
    """Fraction of positions recovered by noise-free encode/decode (z = mean).

    The records are encoded and decoded in pieces of CHUNK_ROWS rows, as
    `jobs.run_jobs` jobs on the process's cores (serially on one core or
    inside another job), and the pieces' counts of correct positions are
    summed."""
    if data.n == 0:
        raise ValueError("empty dataset")
    counts = run_jobs({start: partial(_correct_positions, model,
                                      data.sequences[start:start + CHUNK_ROWS])
                       for start in range(0, data.n, CHUNK_ROWS)}, process_cores())
    return sum(counts.values()) / (data.n * data.length)


def _correct_positions(model: VaeModel, seqs: np.ndarray) -> int:
    mean, _ = model.encode_batch(seqs)
    return int((model.decode_tokens_batch(mean) == seqs).sum())


def sample_vae_prior(model: VaeModel, count: int, seed: int) -> np.ndarray:
    """Decode count latents drawn from the standard-normal prior; (count, d)."""
    if count == 0:
        return np.empty((0, model.length), dtype=np.int64)
    z = np.random.default_rng(seed).standard_normal((count, model.latent_dim))
    return model.decode_tokens_batch(z)


def save_vae(model: VaeModel, directory) -> dict:
    """Write encoder/decoder checkpoints into the directory; returns checksums."""
    directory = Path(directory)
    extra = {"length": model.length, "vocab_size": model.vocab_size,
             "latent_dim": model.config.latent_dim, "beta": model.config.beta,
             "hidden_channels": model.config.hidden_channels}
    enc = save_checkpoint(directory / "vae_encoder.npz", "vae_encoder",
                          model.encoder.descriptor, model.encoder.params, extra)
    dec = save_checkpoint(directory / "vae_decoder.npz", "vae_decoder",
                          model.decoder.descriptor, model.decoder.params, extra)
    return {"vae_encoder": enc, "vae_decoder": dec}


def load_vae(directory) -> VaeModel:
    directory = Path(directory)
    fields = {"length": int, "vocab_size": int, "latent_dim": int, "beta": float,
              "hidden_channels": int}
    paths = directory / "vae_encoder.npz", directory / "vae_decoder.npz"
    desc_e, params_e, extra = load_checkpoint(paths[0], "vae_encoder", fields)
    desc_d, params_d, extra_d = load_checkpoint(paths[1], "vae_decoder", fields)
    differing = sorted(name for name in extra.keys() | extra_d.keys()
                       if extra.get(name) != extra_d.get(name))
    if differing:
        raise CheckpointError(f"{paths[0]} and {paths[1]} disagree: " + "; ".join(
            f"{name!r} is {extra.get(name)!r} against {extra_d.get(name)!r}"
            for name in differing))
    try:
        cfg = VaeConfig(latent_dim=extra["latent_dim"], beta=extra["beta"],
                        hidden_channels=extra["hidden_channels"])
    except ValueError as exc:
        raise CheckpointError(f"{paths[0]}: {exc}") from None
    encoder, decoder = Network(desc_e, params_e), Network(desc_d, params_d)
    v, d, latent = extra["vocab_size"], extra["length"], extra["latent_dim"]
    shapes = {"vocab_size": v, "length": d, "latent_dim": latent}
    check_shapes(paths[0], encoder, shapes, (v, d), (2 * latent,))
    check_shapes(paths[1], decoder, shapes, (latent,), (v, d))
    return VaeModel(encoder, decoder, cfg, d, v)
