"""The three benchmark workloads, all on the synthetic-hard task.

Each workload is a closed loop with one caller: the next op starts when the
previous one has returned. An op's inputs come from the workload seed and
the op's index, so the same seed gives the same ops in the same order.

- guide: guided sampling in manifold mode. Backward-heavy: tape
  construction, conv1d/matmul backward, gradient accumulation and
  `Network.refresh`, with almost no edit-distance work.
- evaluate: `run_benchmark` over two seeds on a worker pool, alternating
  unconditional and learned-posterior sampling, metrics included. The same
  decoder, flow and predictor run forward-only; the time goes to edit
  distances and the harness.
- train: one `train_vae`, `train_predictor` or `train_flow` call at the
  hard config's shapes and batch sizes: parameter gradients plus Adam, with
  no guidance and no edit distances.

Ops are sized so that a run of a few seconds holds several of them; the
per-step shapes (512 chains, conv widths, batch sizes) are the hard
config's. Checks on an op's output run outside its timed part; a check that
fails marks the op failed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

# Calls go through module attributes (`sampling.guided_sample`, not a
# from-import) so that the tracer's wrappers see them.
from seqopt import flow, harness, metrics, predictor, sampling, tasks, vae

import stack


@dataclass(frozen=True)
class Sizes:
    """Op sizes. HARD is the benchmark's; tests use a smaller one."""

    guide_batch: int = 512
    guide_top_k: int = 128
    guide_steps: int = 2          # Euler steps per op, each with J guidance steps
    guidance_steps: int = 5
    alpha: float = 0.5
    eval_batch: int = 64
    eval_posterior_top_k: int = 16
    eval_steps: int = 32
    vae_epochs: int = 2
    predictor_epochs: int = 4
    flow_epochs: int = 30


HARD = Sizes()


def op_seed(seed: int, index: int) -> int:
    """Sampling / training-init seed of op `index` under workload `seed`."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0] >> 1)


@dataclass
class Op:
    items: int        # chains integrated, chains scored, or examples x epochs
    output: object


@dataclass
class Frozen:
    """What a `seqopt sample` user loads: the task and the checkpoints."""

    assets: harness.TaskAssets
    checksums: dict


def load_frozen(entry, task_spec=None) -> Frozen:
    """Build the task and load the cached stack; the set-up of guide and
    evaluate."""
    task = tasks.build_synthetic_task(stack.TASK, stack.TASK_SEED, spec=task_spec)
    models = stack.load_models(entry)
    assets = harness.TaskAssets(
        name=task.name, vocab=task.vocab, train=task.train,
        normalizer=task.normalizer, oracle=tasks.task_oracle(task),
        vae=models["vae"], flow=models["flow"], predictor=models["predictor"],
        flow_conditional=models["flow_conditional"])
    return Frozen(assets, stack.checksums(models))


class Sampling:
    """Shared by guide and evaluate: set-up loads the frozen stack."""

    def __init__(self, sizes: Sizes = HARD):
        self.sizes = sizes

    def setup(self, entry, task_spec=None):
        return load_frozen(entry, task_spec)

    def prepare(self, state: Frozen, entry):
        pass


class Guide(Sampling):
    name = "guide"
    cycle = ("manifold",)

    def config(self, seed, steps=None, guidance_steps=None) -> sampling.SamplerConfig:
        s = self.sizes
        return sampling.SamplerConfig(
            steps=steps or s.guide_steps,
            guidance_steps=guidance_steps or s.guidance_steps, alpha=s.alpha,
            batch=s.guide_batch, top_k=s.guide_top_k, mode="manifold", seed=seed)

    def warm_up(self, state: Frozen):
        a = state.assets
        sampling.guided_sample(self.config(0, steps=1, guidance_steps=1),
                               a.flow, a.vae, a.predictor)

    def op(self, state: Frozen, seed: int, index: int) -> Op:
        a = state.assets
        res = sampling.guided_sample(self.config(op_seed(seed, index)),
                                     a.flow, a.vae, a.predictor)
        return Op(self.sizes.guide_batch, res)

    def check(self, state: Frozen, index: int, res) -> list[str]:
        a = state.assets
        seqs, scores = res.sequences, res.predictor_scores
        problems = []
        if len(np.unique(seqs, axis=0)) != len(seqs):
            problems.append("selected rows are not unique")
        if len(seqs) > self.sizes.guide_top_k:
            problems.append(f"{len(seqs)} rows exceed top_k")
        if seqs.size and (seqs.min() < 0 or seqs.max() >= a.vocab.size):
            problems.append("token outside the vocabulary")
        if np.any(np.diff(scores) > 0):
            problems.append("scores are not in descending order")
        rescored = a.predictor.predict_sequences(seqs)
        if not np.allclose(rescored, scores, rtol=0.0, atol=1e-9):
            problems.append("scores differ from predict_sequences by more than 1e-9")
        expected = {k: state.checksums[k] for k in ("flow", "vae_encoder",
                                                    "vae_decoder", "predictor")}
        if res.provenance.get("checksums") != expected:
            problems.append("provenance checksums differ from the loaded checkpoints")
        return problems

    def quality(self, state: Frozen, outputs: list) -> dict:
        a = state.assets
        fitness = float(np.mean([metrics.median_normalized_fitness(
            res.sequences, a.oracle, a.normalizer) for res in outputs]))
        return {"quality": fitness, "median_fitness": fitness}


class Evaluate(Sampling):
    name = "evaluate"
    cycle = ("unconditional", "learned_posterior")
    parallelism = min(2, os.cpu_count() or 1)

    def config(self, mode: str) -> sampling.SamplerConfig:
        s = self.sizes
        top_k = s.eval_batch if mode == "unconditional" else s.eval_posterior_top_k
        return sampling.SamplerConfig(steps=s.eval_steps, batch=s.eval_batch,
                                      top_k=top_k, mode=mode)

    def seeds(self, seed: int, index: int) -> list[int]:
        base = op_seed(seed, index)
        return [base, base + 1]

    def warm_up(self, state: Frozen):
        a = state.assets
        for mode in self.cycle:
            sampling.guided_sample(self.config(mode), a.flow_for(mode),
                                   a.vae, a.predictor)

    def op(self, state: Frozen, seed: int, index: int) -> Op:
        mode = self.cycle[index % len(self.cycle)]
        seeds = self.seeds(seed, index)
        out = harness.run_benchmark(state.assets, self.config(mode), seeds,
                                    parallelism=self.parallelism, keep_samples=True)
        return Op(self.sizes.eval_batch * len(seeds), (mode, seeds) + tuple(out))

    def check(self, state: Frozen, index: int, output) -> list[str]:
        mode, seeds, summary, results = output
        top_k = self.config(mode).top_k
        problems = []
        for s, report in zip(seeds, summary.reports):
            values = [report.median_fitness, report.diversity, report.novelty]
            if not np.all(np.isfinite(values)):
                problems.append(f"seed {s}: non-finite metric")
            unique = len(np.unique(results[s].raw_sequences, axis=0))
            if report.n_sequences != min(top_k, unique):
                problems.append(f"seed {s}: n_sequences {report.n_sequences} != "
                                f"{min(top_k, unique)} unique decodes kept")
        if not all(np.isfinite(v) for v in summary.mean.values()):
            problems.append("non-finite mean metric")
        return problems

    def quality(self, state: Frozen, outputs: list) -> dict:
        means = [out[2].mean for out in outputs]
        avg = {m: float(np.mean([mean[m] for mean in means])) for m in harness.METRIC_NAMES}
        return {"quality": avg["median_fitness"], **avg}


@dataclass
class TrainState:
    task: object
    fit: object
    latents: np.ndarray = None


class Train:
    name = "train"
    cycle = ("vae", "predictor", "flow")

    def __init__(self, sizes: Sizes = HARD):
        self.sizes = sizes

    def setup(self, entry, task_spec=None):
        task = tasks.build_synthetic_task(stack.TASK, stack.TASK_SEED, spec=task_spec)
        fit, _ = tasks.split_train_val(task.train, stack.TASK_SEED)
        return TrainState(task, fit)

    def prepare(self, state: TrainState, entry):
        """Flow training data, as `train_models` makes it: latents of the
        training set under the stack's VAE."""
        model = vae.load_vae(entry)
        state.latents = tasks.encode_latents(model, state.task.train, stack.TASK_SEED + 20)

    def warm_up(self, state: TrainState):
        vae.train_vae(state.fit, self._vae_config(1), 0, vocab_size=state.task.vocab.size)

    def _vae_config(self, epochs):
        return replace(tasks.default_vae_config(), epochs=epochs)

    def op(self, state: TrainState, seed: int, index: int) -> Op:
        kind = self.cycle[index % len(self.cycle)]
        s, vocab = op_seed(seed, index), state.task.vocab.size
        if kind == "vae":
            epochs = self.sizes.vae_epochs
            _, report = vae.train_vae(state.fit, self._vae_config(epochs), s, vocab_size=vocab)
            losses = [e["total"] for e in report.per_epoch]
            n = state.fit.n
        elif kind == "predictor":
            epochs = self.sizes.predictor_epochs
            cfg = replace(tasks.default_predictor_config(), epochs=epochs)
            _, report = predictor.train_predictor(state.fit, cfg, s, vocab_size=vocab)
            losses = report.per_epoch_mse
            n = state.fit.n
        else:
            epochs = self.sizes.flow_epochs
            cfg = replace(tasks.default_flow_config(s), epochs=epochs)
            _, losses = flow.train_flow(state.latents, cfg)
            n = len(state.latents)
        return Op(n * epochs, (kind, [float(v) for v in losses]))

    def check(self, state: TrainState, index: int, output) -> list[str]:
        kind, losses = output
        if not np.all(np.isfinite(losses)):
            return [f"{kind}: non-finite loss"]
        if not losses[-1] < losses[0]:
            return [f"{kind}: last epoch loss {losses[-1]} is not below the first {losses[0]}"]
        return []

    def quality(self, state: TrainState, outputs: list) -> dict:
        final = {kind: float(np.mean([losses[-1] for k, losses in outputs if k == kind]))
                 for kind in self.cycle}
        drop = [1.0 - losses[-1] / losses[0] for _, losses in outputs]
        return {"quality": float(np.mean(drop)),
                **{f"train_loss.{k}": v for k, v in final.items()}}


WORKLOADS = {w.name: w for w in (Guide, Evaluate, Train)}
