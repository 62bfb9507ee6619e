#!/usr/bin/env python3
"""The full pipeline: latent flow prior + predictor guidance.

Trains every model on a reduced synthetic task, then samples with the four
modes and scores them against the exact oracle. The ordering to look for:

    unconditional  ~ training data     (the prior reproduces what it saw)
    guided modes   >> unconditional    (predictor gradients help a lot)

On this easy task naive and manifold guidance land close together; the
endpoint-extrapolation advantage of the manifold variant shows up on the hard
benchmark (see the acceptance suite, which asserts it seed-matched).

The guided chains move along the learned flow while inner gradient steps pull
each state toward latents whose decoded sequence the predictor scores at the
target fitness y=1.
"""

import numpy as np

from seqopt.flow import FlowTrainConfig
from seqopt.metrics import compute_metrics
from seqopt.predictor import PredictorConfig
from seqopt.sampling import SamplerConfig, guided_sample
from seqopt.seqs import detokenize
from seqopt.tasks import (SyntheticTaskSpec, build_synthetic_task, task_oracle,
                          train_models)
from seqopt.vae import VaeConfig

spec = SyntheticTaskSpec(name="demo", percentile=(20, 50), gap=3, length=12,
                         full_size=4000, max_train=900, max_mutations=7, n_pairs=20)
task = build_synthetic_task("demo", seed=0, spec=spec)
print(f"task: {task.train.n} training sequences, median normalized fitness "
      f"{np.median(task.train.normalized_fitness()):.3f}")

print("training VAE + flow prior + conditional flow + predictor "
      "(about a minute)...")
bundle = train_models(
    task, seed=0,
    vae_cfg=VaeConfig(latent_dim=8, beta=0.002, epochs=60, batch_size=64,
                      hidden_channels=32),
    flow_cfg=FlowTrainConfig(epochs=200, batch_size=128, seed=0),
    pred_cfg=PredictorConfig(epochs=60, batch_size=64, hidden_channels=16,
                             hidden_dense=48),
    conditional=True)
print(f"  vae held-out accuracy {bundle.reports['vae']['val_accuracy']:.3f}, "
      f"predictor held-out mse {bundle.reports['predictor']['val_mse']:.4f}")

oracle = task_oracle(task)
runs = (("unconditional", SamplerConfig(steps=32, batch=256, top_k=256,
                                        mode="unconditional", seed=7)),
        ("naive", SamplerConfig(steps=32, guidance_steps=4, alpha=0.4,
                                batch=256, top_k=64, mode="naive", seed=7)),
        ("manifold", SamplerConfig(steps=32, guidance_steps=4, alpha=0.4,
                                   batch=256, top_k=64, mode="manifold", seed=7)),
        ("learned_posterior", SamplerConfig(steps=32, batch=256, top_k=256,
                                            mode="learned_posterior", seed=7)))

print(f"\n{'mode':18s} {'fitness':>8s} {'diversity':>10s} {'novelty':>8s} {'unique':>7s}")
best = {}
for name, cfg in runs:
    flow = bundle.flow_conditional if name == "learned_posterior" else bundle.flow
    result = guided_sample(cfg, flow, bundle.vae, bundle.predictor)
    report = compute_metrics(result.sequences, oracle, task.normalizer,
                             task.train, seed=7)
    best[name] = result
    print(f"{name:18s} {report.median_fitness:8.3f} {report.diversity:10.1f} "
          f"{report.novelty:8.1f} {report.n_sequences:7d}")

print(f"\ntarget sequence        : {detokenize(task.landscape.target, task.vocab)}")
print("top manifold-guided picks:")
top = best["manifold"].sequences[:3]
truth = task.normalizer.normalize(task.landscape.fitness_many(top))
for seq, score, true in zip(top, best["manifold"].predictor_scores[:3], truth):
    print(f"  {detokenize(seq, task.vocab)}  predictor {score:.3f}  oracle {true:.3f}")
