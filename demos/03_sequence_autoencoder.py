#!/usr/bin/env python3
"""The discrete-sequence autoencoder: tokens in, continuous latents out.

Trains the beta-weighted VAE on a reduced synthetic task, reports held-out
reconstruction accuracy, and contrasts sequences decoded from the N(0, I)
prior with real training data. Prior samples are plausible but unguided,
which is exactly the gap the guided sampler closes in demo 04.
"""

import numpy as np

from seqopt.seqs import detokenize
from seqopt.tasks import (SyntheticTaskSpec, build_synthetic_task, split_train_val)
from seqopt.vae import VaeConfig, sample_vae_prior, train_vae

spec = SyntheticTaskSpec(name="demo", percentile=(20, 50), gap=3, length=12,
                         full_size=4000, max_train=900, max_mutations=7, n_pairs=20)
task = build_synthetic_task("demo", seed=0, spec=spec)
fit, val = split_train_val(task.train, seed=0)
print(f"training set: {fit.n} sequences of length {task.train.length}, "
      f"{val.n} held out")

cfg = VaeConfig(latent_dim=8, beta=0.002, learning_rate=1e-3, epochs=60,
                batch_size=64, hidden_channels=32)
print(f"training VAE (latent dim {cfg.latent_dim}, beta {cfg.beta}, "
      f"{cfg.epochs} epochs)...")
model, report = train_vae(fit, cfg, seed=0, val_data=val)
first, last = report.per_epoch[0], report.per_epoch[-1]
print(f"loss {first['total']:.3f} -> {last['total']:.3f} "
      f"(reconstruction {last['reconstruction']:.3f}, kl {last['kl']:.1f})")
print(f"reconstruction accuracy: train {report.final_accuracy:.3f}, "
      f"held-out {report.val_accuracy:.3f}")

print("\nround trip of one held-out sequence:")
seq = val.sequences[0]
mean, _ = model.encode_batch(seq[None])
decoded = model.decode_tokens_batch(mean)[0]
print(f"  in : {detokenize(seq, task.vocab)}")
print(f"  out: {detokenize(decoded, task.vocab)} "
      f"({(decoded == seq).mean() * 100:.0f}% positions recovered)")
print(f"  latent mean (first 4 dims): {mean[0, :4].round(3)}")

print("\nsampling 8 sequences straight from the N(0, I) prior:")
samples = sample_vae_prior(model, 8, seed=1)
for s, fitness in zip(samples, task.landscape.fitness_many(samples)):
    print(f"  {detokenize(s, task.vocab)}  fitness {fitness:.3f}")
prior256 = sample_vae_prior(model, 256, seed=2)
prior_fit = np.median(task.normalizer.normalize(
    task.landscape.fitness_many(prior256)))
train_fit = np.median(task.train.normalized_fitness())
print(f"\nmedian normalized fitness: prior samples {prior_fit:.3f} vs "
      f"training data {train_fit:.3f}")
