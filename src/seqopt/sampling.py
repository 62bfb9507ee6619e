"""Guided posterior sampling in latent space.

Each chain integrates the learned flow from Gaussian noise to the data end of
the path; after every Euler step, a configurable number of inner gradient
steps pulls the state toward latents whose decoded sequence the predictor
scores at the target fitness. The default ("manifold") variant evaluates the
predictor at the one-shot endpoint extrapolation of the current state while
differentiating at the state itself, which keeps updates on the time-t
manifold; the "naive" variant differentiates the predictor directly at the
current state. Decoded batches are deduplicated, ranked by predictor score on
the hard one-hot encoding, and cut to the top k.

Chains are independent rows and the guidance objective is a sum over them,
so each chain's gradient depends on its own row alone. The batch is cut
into blocks of CHAIN_BLOCK rows, and each block runs its whole trajectory,
every Euler step with its guidance steps, and then decodes its final
latents, as one `jobs.run_jobs` job. The blocks are dealt to as many
processes as the process may run on CPUs (`jobs.process_cores`, its
scheduler affinity), each with one BLAS thread; inside a job of another
`run_jobs` call, such as a sweep's, they run serially in that job's
process. Guidance computes no weight gradient, and at 64 rows the
one-thread and default-thread runs give equal bits, so the latents and
their decoded sequences are byte-identical at every core count. The unique
decodes are then scored in the caller, CHAIN_BLOCK rows at a time.

A block that goes non-finite (a non-finite state, a layer's
`NonFiniteError` or a non-finite guidance gradient) stops and reports the
integration step at which it failed. The failure with the smallest (step,
block) is re-raised, naming its step, which is the failure a loop over steps
outside and blocks inside would meet first. A decoder layer that goes
non-finite on a block's final latents counts as a failure after the last
step, and is re-raised as the layer named it.

Blocks also keep each tape small. A 64-chain tape (about 8 MB at the hard
config) is reused from the malloc heap from one step to the next, while the
arrays of one 512-chain tape (4.7 MB per conv activation) are mapped afresh
and page-faulted on every use. The heap rule every `jobs.pool` sets on
entry makes the reuse hold in every process, not only in one that has
already freed a large array. Decoding and scoring at the same width keep
the forward-only passes as small. BLAS may pick a different kernel for a
different row count, so a chain's latent and decoded sequence depend on its
block, as its score depends on its 64-row piece of the unique decodes, not
on the batch size.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from .errors import ConfigError
from .flow import FlowModel, euler_step
from .jobs import process_cores, run_jobs
from .nn import autodiff as ad
from .nn.autodiff import Tensor
from .nn.checkpoint import params_checksum
from .nn.layers import NonFiniteError
from .predictor import PredictorModel
from .seqs import detokenize, distinct_rows
from .vae import VaeModel

MODES = ("manifold", "naive", "unconditional", "learned_posterior")
UNGUIDED = ("unconditional", "learned_posterior")  # modes that take alpha=0, J=0
CHAIN_BLOCK = 64  # chains integrated together; see the module docstring


@dataclass(frozen=True)
class SamplerConfig:
    steps: int = 32              # outer Euler (ODE) steps
    guidance_steps: int = 0      # inner gradient steps per Euler step
    alpha: float = 0.0           # guidance strength (constant across steps)
    target_y: float = 1.0        # desired fitness on the normalized scale
    batch: int = 512             # chains sampled before selection
    top_k: int = 128             # sequences kept after dedup + ranking
    mode: str = "manifold"
    seed: int = 0

    def __post_init__(self):
        problems = []
        if self.steps < 1:
            problems.append("steps must be >= 1")
        if self.guidance_steps < 0:
            problems.append("guidance_steps must be >= 0")
        if not self.alpha >= 0:  # NaN too
            problems.append("alpha must be >= 0")
        if not math.isfinite(self.target_y):
            problems.append("target_y must be finite")
        if self.batch < 1 or not (1 <= self.top_k <= self.batch):
            problems.append("need 1 <= top_k <= batch")
        if self.seed < 0:
            problems.append("seed must be >= 0")
        if self.mode not in MODES:
            problems.append(f"mode must be one of {MODES}")
        if self.mode in UNGUIDED and (self.alpha != 0 or self.guidance_steps != 0):
            problems.append(f"{self.mode} mode requires alpha=0 and guidance_steps=0")
        if problems:
            raise ConfigError(problems)

    def for_mode(self, mode: str) -> "SamplerConfig":
        """This config in `mode`, with alpha=0 and no guidance steps in the
        unguided modes."""
        if mode in UNGUIDED:
            return replace(self, mode=mode, alpha=0.0, guidance_steps=0)
        return replace(self, mode=mode)


@dataclass
class SampleResult:
    sequences: np.ndarray          # (k, d) unique, ranked by predictor score
    predictor_scores: np.ndarray   # (k,) descending
    raw_latents: np.ndarray        # (batch, l) final latents, chain order
    raw_sequences: np.ndarray      # (batch, d) decoded chains before dedup
    selected_chain: np.ndarray     # (k,) first chain index per kept sequence
    shortfall: bool                # fewer unique decodes than top_k
    provenance: dict = field(default_factory=dict)

    def to_json(self, vocab) -> dict:
        return {
            "provenance": self.provenance,
            "shortfall": self.shortfall,
            "n_unique": int(len(self.sequences)),
            "sequences": [detokenize(s, vocab) for s in self.sequences],
            "predictor_scores": [float(s) for s in self.predictor_scores],
            "selected_chain": [int(i) for i in self.selected_chain],
        }


def chain_latent(seed: int, chain_index: int, dim: int) -> np.ndarray:
    """Initial noise of one chain; stream index == chain index."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(chain_index,)))
    return rng.standard_normal(dim)


def initial_latents(seed: int, batch: int, dim: int) -> np.ndarray:
    return np.stack([chain_latent(seed, i, dim) for i in range(batch)])


def _objective_tape(z: Tensor, flow: FlowModel, vae: VaeModel,
                    predictor: PredictorModel, target_y: float, t: float, dt: float,
                    manifold: bool, y_cond) -> Tensor:
    """0.5 * (score - target_y)^2 of the softmax-relaxed decoding, summed over
    independent chains."""
    if manifold:
        v = flow.velocity_tape(z, t, y_cond)
        z_end = z + (1.0 - t - dt) * v
    else:
        z_end = z
    resid = predictor.predict_tape(vae.decode_probs_tape(z_end)) - target_y
    return ad.tsum(resid * resid) * 0.5


def guidance_step(z: np.ndarray, flow: FlowModel, vae: VaeModel,
                  predictor: PredictorModel, target_y: float, alpha: float,
                  t: float, dt: float, *, manifold: bool = True,
                  y_cond=None) -> np.ndarray:
    """One gradient-descent step on the fitness-match objective, per chain.

    Only the latent is differentiated. The models' parameter leaves stay
    frozen, so concurrent calls that share the models write no shared state."""
    if alpha == 0.0:
        return z
    zt = Tensor(np.atleast_2d(np.asarray(z, dtype=np.float64)))
    obj = _objective_tape(zt, flow, vae, predictor, target_y, t, dt, manifold, y_cond)
    obj.backward()
    grad = zt.grad
    if not np.isfinite(grad).all():
        raise FloatingPointError(f"non-finite guidance gradient at t={t:.4f}")
    return zt.data - alpha * grad


def _integrate_block(z: np.ndarray, cfg: SamplerConfig, flow: FlowModel, vae: VaeModel,
                     predictor: PredictorModel, y_cond):
    """(final latents, decoded tokens) of one block of chains after every
    Euler step and its guidance steps, or (step, exception) for the
    integration step at which the block went non-finite; a decoder layer
    that goes non-finite on the final latents fails at step `cfg.steps`."""
    dt = 1.0 / cfg.steps
    # every non-finite value below ends in a named exception, so numpy's
    # overflow and invalid-value warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(cfg.steps):
            t = k * dt
            try:
                z = euler_step(flow, z, t, dt, y_cond)
                if not np.isfinite(z).all():
                    return k, FloatingPointError(f"non-finite state at integration step {k}")
                for _ in range(cfg.guidance_steps):
                    z = guidance_step(z, flow, vae, predictor, cfg.target_y,
                                      cfg.alpha, t, dt, y_cond=y_cond,
                                      manifold=(cfg.mode == "manifold"))
            except (NonFiniteError, FloatingPointError) as exc:
                return k, exc
        try:
            return z, vae.decode_tokens_batch(z)
        except NonFiniteError as exc:
            return cfg.steps, exc


def check_stack(vae: VaeModel, predictor: PredictorModel, flows: dict, oracle=None) -> None:
    """Raise ConfigError listing each {name: flow} (None skipped) of another
    latent width than the VAE's, and a predictor or oracle of another length."""
    problems = [f"latent dim mismatch: vae {vae.latent_dim} vs {name} {flow.latent_dim}"
                for name, flow in flows.items()
                if flow is not None and flow.latent_dim != vae.latent_dim]
    problems += [f"length mismatch: {name} {model.length} vs vae {vae.length}"
                 for name, model in (("predictor", predictor), ("oracle", oracle))
                 if model is not None and model.length != vae.length]
    if problems:
        raise ConfigError(problems)


def _checksums(flow: FlowModel, vae: VaeModel, predictor: PredictorModel) -> dict:
    return {"flow": params_checksum(flow.net.params),
            "vae_encoder": params_checksum(vae.encoder.params),
            "vae_decoder": params_checksum(vae.decoder.params),
            "predictor": params_checksum(predictor.net.params)}


def guided_sample(cfg: SamplerConfig, flow: FlowModel, vae: VaeModel,
                  predictor: PredictorModel) -> SampleResult:
    """Run `cfg.batch` independent chains and select the top-k unique decoded
    sequences.

    Chains: z0 from per-chain RNG streams; each block of CHAIN_BLOCK chains,
    one `run_jobs` job, advances along the learned field and after every
    Euler step applies the configured number of guidance steps (none in
    unconditional and learned_posterior modes), then decodes its own final
    latents. The blocks' latents and decoded sequences are concatenated in
    chain order, and the unique decodes are scored CHAIN_BLOCK rows at a
    time. A failure names the first integration step at which any chain
    went non-finite.
    """
    check_stack(vae, predictor, {"flow": flow})
    if cfg.mode == "learned_posterior" and not flow.conditional:
        raise ConfigError(["learned_posterior mode needs a fitness-conditioned flow model"])

    y_cond = cfg.target_y if flow.conditional else None
    z0 = initial_latents(cfg.seed, cfg.batch, flow.latent_dim)
    starts = range(0, cfg.batch, CHAIN_BLOCK)
    blocks = run_jobs({s: partial(_integrate_block, z0[s:s + CHAIN_BLOCK], cfg, flow, vae,
                                  predictor, y_cond)
                       for s in starts}, process_cores())
    failures = [(k, s, exc) for s, (k, exc) in blocks.items() if isinstance(exc, Exception)]
    if failures:
        k, _, exc = min(failures)  # the earliest step, then the first block
        if isinstance(exc, NonFiniteError) and k < cfg.steps:
            raise NonFiniteError(f"{exc} at integration step {k}") from exc
        raise exc
    z = np.concatenate([blocks[s][0] for s in starts])
    raw_sequences = np.concatenate([blocks[s][1] for s in starts])
    sequences, scores, selected, shortfall = _select_top_k(
        raw_sequences, predictor, cfg.top_k)
    provenance = {
        "config": asdict(cfg),
        "checksums": _checksums(flow, vae, predictor),
        "chain_rng": "SeedSequence(entropy=seed, spawn_key=(chain_index,))",
    }
    return SampleResult(sequences=sequences, predictor_scores=scores,
                        raw_latents=z, raw_sequences=raw_sequences,
                        selected_chain=selected, shortfall=shortfall,
                        provenance=provenance)


def _select_top_k(decoded: np.ndarray, predictor: PredictorModel, top_k: int):
    """Dedup (keeping first chain occurrence), rank by predictor score with
    lexicographic tie-break, cut to top_k. The unique rows are scored in
    chain order, in pieces of CHAIN_BLOCK rows."""
    chain_idx = np.sort(distinct_rows(decoded)[1])
    unique = decoded[chain_idx]
    scores = np.concatenate([predictor.predict_sequences(unique[s:s + CHAIN_BLOCK])
                             for s in range(0, len(unique), CHAIN_BLOCK)])
    # lexsort's last key is its first: -score, then the tokens left to right
    order = np.lexsort((*unique.T[::-1], -scores))[:top_k]
    shortfall = len(unique) < top_k
    return unique[order], scores[order], chain_idx[order], shortfall
