"""Benchmark task construction and the training pipeline.

Synthetic tasks build a full reference set of landscape mutants, carve out a
limited training subset with the percentile/mutation-gap difficulty filter,
and hand back everything the samplers and the evaluation harness need. CSV
tasks load externally provided data in the same structure. Training is one
function per stage, which `train_models` and the `seqopt train-*` commands share.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import Dataset, FitnessNormalizer, check_percentile, difficulty_filter, load_csv
from .errors import ConfigError
from .flow import FlowModel, FlowTrainConfig, train_flow
from .landscape import (SyntheticLandscape, make_edit_pool, make_landscape,
                        synthetic_full_dataset)
from .nn.optim import FORWARD_ROWS
from .predictor import (LandscapeOracle, PredictorConfig, PredictorModel,
                        load_external_predictor, train_predictor)
from .seqs import Vocabulary
from .vae import VaeConfig, VaeModel, train_vae


@dataclass(frozen=True)
class SyntheticTaskSpec:
    """A synthetic task's landscape, reference set and training-set filter:
    `percentile` and `gap` go to `difficulty_filter`, so (upper,) keeps the
    records below the upper-th fitness percentile and (low, high) those from
    the low-th to the high-th."""
    name: str
    percentile: tuple[float, ...]
    gap: int
    length: int = 20
    full_size: int = 20000
    max_train: int = 2500
    edits_per_position: int = 3
    min_mutations: int = 1
    max_mutations: int = 12
    n_pairs: int | None = None    # defaults to 2 * length inside the builder

    def __post_init__(self):
        check_percentile(self.percentile)


SYNTHETIC_TASKS = {
    "synthetic-medium": SyntheticTaskSpec("synthetic-medium", percentile=(20, 40), gap=6),
    "synthetic-hard": SyntheticTaskSpec("synthetic-hard", percentile=(30,), gap=7),
}


@dataclass
class TaskData:
    name: str
    vocab: Vocabulary
    full: Dataset
    train: Dataset
    landscape: SyntheticLandscape | None = None

    @property
    def normalizer(self) -> FitnessNormalizer:
        return self.full.normalizer()


def build_synthetic_task(name: str, seed: int,
                         spec: SyntheticTaskSpec | None = None) -> TaskData:
    """Deterministically construct a synthetic task from its seed."""
    if spec is None:
        if name not in SYNTHETIC_TASKS:
            raise ValueError(f"unknown synthetic task {name!r}; "
                             f"choose from {sorted(SYNTHETIC_TASKS)}")
        spec = SYNTHETIC_TASKS[name]
    vocab = Vocabulary.amino_acids()
    base = make_landscape(seed, spec.length, vocab, n_pairs=spec.n_pairs)
    pool = make_edit_pool(seed + 1, base.target, vocab, spec.edits_per_position)
    landscape = make_landscape(seed, spec.length, vocab, n_pairs=spec.n_pairs,
                               decoy_tokens=pool, target=base.target)
    full = synthetic_full_dataset(landscape, spec.full_size, seed + 2, pool,
                                  spec.min_mutations, spec.max_mutations)
    train = difficulty_filter(full, spec.percentile, spec.gap)
    if train.n > spec.max_train:
        keep = np.random.default_rng(seed + 3).choice(train.n, size=spec.max_train,
                                                      replace=False)
        train = train.subset(np.sort(keep))
    return TaskData(name=name, vocab=vocab, full=full, train=train, landscape=landscape)


def build_csv_task(path, range_file=None) -> TaskData:
    """Wrap an externally provided sequence,fitness CSV over the amino acids
    as a task. The loaded file is treated as the (already filtered) training
    set; its declared range must describe the full reference set."""
    vocab = Vocabulary.amino_acids()
    train = load_csv(path, vocab, range_file=range_file)
    return TaskData(name="csv", vocab=vocab, full=train, train=train)


def split_train_val(data: Dataset, seed: int):
    """Deterministic (fit, val) split holding out a tenth of the records."""
    rng = np.random.default_rng(seed + 10)
    n_val = max(1, int(round(0.1 * data.n)))
    perm = rng.permutation(data.n)
    return data.subset(perm[n_val:]), data.subset(perm[:n_val])


def encode_latents(vae: VaeModel, data: Dataset, seed: int) -> np.ndarray:
    """One sampled posterior draw per record (z = mean + sigma * eps)."""
    rng = np.random.default_rng(seed)
    out = np.empty((data.n, vae.latent_dim))
    for start in range(0, data.n, FORWARD_ROWS):
        seqs = data.sequences[start:start + FORWARD_ROWS]
        mean, logvar = vae.encode_batch(seqs)
        eps = rng.standard_normal(mean.shape)
        out[start:start + len(seqs)] = mean + np.exp(0.5 * logvar) * eps
    return out


@dataclass
class ModelBundle:
    vae: VaeModel
    flow: FlowModel
    predictor: PredictorModel
    flow_conditional: FlowModel | None = None
    reports: dict = field(default_factory=dict)


def default_vae_config() -> VaeConfig:
    return VaeConfig()


def default_flow_config(seed: int) -> FlowTrainConfig:
    return FlowTrainConfig(seed=seed)


def default_predictor_config() -> PredictorConfig:
    return PredictorConfig()


def train_vae_stage(task: TaskData, seed: int, cfg: VaeConfig):
    """The VAE on the fit part of the training set, scored on the held-out
    part. Returns (model, report)."""
    fit, val = split_train_val(task.train, seed)
    return train_vae(fit, cfg, seed, vocab_size=task.vocab.size, val_data=val)


def train_prior_stage(task: TaskData, vae: VaeModel, seed: int, cfg: FlowTrainConfig,
                      conditional: bool = False):
    """The flow prior on one sampled latent per training record. The
    conditional flow is conditioned on normalized fitness and seeded one past
    `cfg.seed`. Returns (model, per-epoch losses)."""
    latents = encode_latents(vae, task.train, seed + 20)
    if not conditional:
        return train_flow(latents, cfg)
    return train_flow(latents, replace(cfg, seed=cfg.seed + 1),
                      labels=task.train.normalized_fitness())


def train_predictor_stage(task: TaskData, seed: int, cfg: PredictorConfig,
                          role: str = "predictor"):
    """A fitness model in one of `predictor.ROLES`: on the fit part of the
    training set, or on the full set's raw labels (oracle; synthetic tasks
    refuse it). Returns (model, report)."""
    if role == "oracle":
        if task.landscape is not None:
            raise ConfigError(["synthetic tasks use the exact landscape oracle; "
                               "no oracle training is needed"])
        return train_predictor(task.full, cfg, seed, vocab_size=task.vocab.size, role=role)
    fit, val = split_train_val(task.train, seed)
    return train_predictor(fit, cfg, seed, vocab_size=task.vocab.size, role=role,
                           val_data=val)


def train_models(task: TaskData, seed: int,
                 vae_cfg: VaeConfig | None = None,
                 flow_cfg: FlowTrainConfig | None = None,
                 pred_cfg: PredictorConfig | None = None,
                 conditional: bool = False) -> ModelBundle:
    """Train the whole stack on the task's limited training set, one stage
    after another: the VAE, the flow prior on its sampled latents, and the
    fitness predictor. `conditional` adds the fitness-conditioned flow."""
    flow_cfg = flow_cfg or default_flow_config(seed)
    vae, vae_report = train_vae_stage(task, seed, vae_cfg or default_vae_config())
    flow, flow_losses = train_prior_stage(task, vae, seed, flow_cfg)
    predictor, pred_report = train_predictor_stage(
        task, seed, pred_cfg or default_predictor_config())
    bundle = ModelBundle(vae=vae, flow=flow, predictor=predictor,
                         reports={"vae": asdict(vae_report),
                                  "flow": {"per_epoch": flow_losses},
                                  "predictor": asdict(pred_report)})
    if conditional:
        bundle.flow_conditional, cond_losses = train_prior_stage(
            task, vae, seed, flow_cfg, conditional=True)
        bundle.reports["flow_conditional"] = {"per_epoch": cond_losses}
    return bundle


def task_oracle(task: TaskData, checkpoint=None):
    """The evaluation oracle: the exact landscape for synthetic tasks, and for
    csv tasks the predictor checkpoint at `checkpoint`, such as one written by
    `seqopt train-predictor --role oracle`."""
    if task.landscape is not None:
        return LandscapeOracle(task.landscape)
    if checkpoint is None:
        raise ConfigError(["csv tasks need [paths] oracle_checkpoint for evaluation"])
    return load_external_predictor(checkpoint)
