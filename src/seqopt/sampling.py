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
so each chain's gradient depends on its own row alone. Each Euler step
therefore runs over blocks of CHAIN_BLOCK rows. A 64-chain tape (about
8 MB at the hard config) is reused from the malloc heap from one block to
the next, while the arrays of one 512-chain tape (4.7 MB per conv
activation) are mapped afresh and page-faulted on every use; that is the
time blocking saves. `_keep_tapes_on_heap` makes the reuse hold in every
process, not only in one that has already freed a large array. BLAS may
pick a different kernel for a different row count, so a chain's bits depend
on its block, not on the batch size.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .flow import FlowModel, euler_step
from .nn import autodiff as ad
from .nn.autodiff import Tensor
from .nn.checkpoint import params_checksum
from .nn.layers import NonFiniteError
from .predictor import PredictorModel
from .seqs import detokenize
from .vae import VaeModel

MODES = ("manifold", "naive", "unconditional", "learned_posterior")
OBJECTIVES = ("match_target", "maximize")
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
    temperature: float = 1.0     # softmax relaxation for guidance-time decoding
    objective: str = "match_target"

    def __post_init__(self):
        problems = []
        if self.steps < 1:
            problems.append("steps must be >= 1")
        if self.guidance_steps < 0:
            problems.append("guidance_steps must be >= 0")
        if self.alpha < 0:
            problems.append("alpha must be >= 0")
        if self.batch < 1 or not (1 <= self.top_k <= self.batch):
            problems.append("need 1 <= top_k <= batch")
        if self.mode not in MODES:
            problems.append(f"mode must be one of {MODES}")
        if self.objective not in OBJECTIVES:
            problems.append(f"objective must be one of {OBJECTIVES}")
        if self.temperature <= 0:
            problems.append("temperature must be > 0")
        if self.mode == "unconditional" and (self.alpha != 0 or self.guidance_steps != 0):
            problems.append("unconditional mode requires alpha=0 and guidance_steps=0")
        if problems:
            raise ConfigError(problems)

    def for_mode(self, mode: str) -> "SamplerConfig":
        """This config in `mode`. The unguided modes (unconditional and
        learned_posterior) run with alpha=0 and no guidance steps."""
        if mode in ("unconditional", "learned_posterior"):
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
                    manifold: bool, temperature: float, objective: str,
                    y_cond) -> Tensor:
    """Scalar to minimize, summed over independent chains."""
    if manifold:
        v = flow.velocity_tape(z, t, y_cond)
        z_end = z + (1.0 - t - dt) * v
    else:
        z_end = z
    probs = vae.decode_probs_tape(z_end, temperature)
    scores = predictor.predict_tape(probs)
    if objective == "match_target":
        resid = scores - target_y
        return ad.tsum(resid * resid) * 0.5
    return ad.tsum(scores * scores) * (-0.5)  # maximize: ascend 0.5*||g||^2


def guidance_step(z: np.ndarray, flow: FlowModel, vae: VaeModel,
                  predictor: PredictorModel, target_y: float, alpha: float,
                  t: float, dt: float, *, manifold: bool = True,
                  temperature: float = 1.0, objective: str = "match_target",
                  y_cond=None) -> np.ndarray:
    """One gradient-descent step on the fitness-match objective, per chain.

    Only the latent is differentiated. The models' parameter leaves stay
    frozen, so concurrent calls that share the models write no shared state."""
    if alpha == 0.0:
        return z
    zt = Tensor(np.atleast_2d(np.asarray(z, dtype=np.float64)))
    obj = _objective_tape(zt, flow, vae, predictor, target_y, t, dt,
                          manifold, temperature, objective, y_cond)
    obj.backward()
    grad = zt.grad
    if not np.isfinite(grad).all():
        raise FloatingPointError(f"non-finite guidance gradient at t={t:.4f}")
    return zt.data - alpha * grad


def _keep_tapes_on_heap() -> None:
    """Allocate and free one 16 MB buffer, never written.

    glibc returns the top of its heap to the OS whenever more than its trim
    threshold lies free there. The threshold starts at 128 KB and rises to
    twice the size of the largest mmapped buffer freed so far. In a process
    that has freed no array of about 8 MB or more, each block's tape would
    be unmapped when it is released and page-faulted in again by the next
    block: a fresh-process sample at the hard config then ran 1.45x slower
    than the unblocked loop. Freeing a 16 MB buffer raises the threshold to
    32 MB, as freeing any large array would. Under another allocator this
    is one unused allocation."""
    np.empty(16 << 20, dtype=np.uint8)


def _checksums(flow: FlowModel, vae: VaeModel, predictor: PredictorModel | None) -> dict:
    out = {"flow": params_checksum(flow.net.params),
           "vae_encoder": params_checksum(vae.encoder.params),
           "vae_decoder": params_checksum(vae.decoder.params)}
    if predictor is not None:
        out["predictor"] = params_checksum(predictor.net.params)
    return out


def guided_sample(cfg: SamplerConfig, flow: FlowModel, vae: VaeModel,
                  predictor: PredictorModel | None) -> SampleResult:
    """Run `cfg.batch` independent chains and select the top-k unique decoded
    sequences.

    Chains: z0 from per-chain RNG streams; per Euler step and per block of
    CHAIN_BLOCK chains, advance along the learned field, then apply the
    configured number of guidance steps (none in unconditional and
    learned_posterior modes). Blocks are integrated one after another within
    each step, so a failure names the first integration step at which any
    chain went non-finite.
    """
    if vae.latent_dim != flow.latent_dim:
        raise ConfigError([f"latent dim mismatch: vae {vae.latent_dim} vs flow {flow.latent_dim}"])
    if cfg.mode == "learned_posterior" and not flow.conditional:
        raise ConfigError(["learned_posterior mode needs a fitness-conditioned flow model"])
    needs_guidance = cfg.mode in ("manifold", "naive") and cfg.guidance_steps > 0 and cfg.alpha > 0
    if cfg.mode in ("manifold", "naive") and predictor is None:
        raise ConfigError(["guided modes need a predictor"])
    if predictor is not None and predictor.length != vae.length:
        raise ConfigError([f"length mismatch: predictor {predictor.length} vs decoder {vae.length}"])

    y_cond = cfg.target_y if flow.conditional else None
    z = initial_latents(cfg.seed, cfg.batch, flow.latent_dim)
    dt = 1.0 / cfg.steps
    _keep_tapes_on_heap()
    # every non-finite value below ends in a named exception, so numpy's
    # overflow and invalid-value warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(cfg.steps):
            t = k * dt
            try:
                for s in range(0, cfg.batch, CHAIN_BLOCK):
                    zb = euler_step(flow, z[s:s + CHAIN_BLOCK], t, dt, y_cond)
                    if not np.isfinite(zb).all():
                        raise FloatingPointError(f"non-finite state at integration step {k}")
                    if needs_guidance:
                        for _ in range(cfg.guidance_steps):
                            zb = guidance_step(zb, flow, vae, predictor, cfg.target_y,
                                               cfg.alpha, t, dt,
                                               manifold=(cfg.mode == "manifold"),
                                               temperature=cfg.temperature,
                                               objective=cfg.objective, y_cond=y_cond)
                    z[s:s + CHAIN_BLOCK] = zb
            except NonFiniteError as exc:
                raise NonFiniteError(f"{exc} at integration step {k}") from exc
    raw_sequences = vae.decode_tokens_batch(z)
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


def _select_top_k(decoded: np.ndarray, predictor: PredictorModel | None,
                  top_k: int):
    """Dedup (keeping first chain occurrence), rank by predictor score with
    lexicographic tie-break, cut to top_k."""
    first_seen: dict[bytes, int] = {}
    for i, row in enumerate(decoded):
        key = row.tobytes()
        if key not in first_seen:
            first_seen[key] = i
    chain_idx = np.array(sorted(first_seen.values()))
    unique = decoded[chain_idx]
    if predictor is not None:
        scores = predictor.predict_sequences(unique)
    else:
        scores = np.zeros(len(unique))
    order = sorted(range(len(unique)),
                   key=lambda i: (-scores[i], tuple(unique[i])))
    order = order[:top_k]
    shortfall = len(unique) < top_k
    return unique[order], scores[order], chain_idx[order], shortfall
