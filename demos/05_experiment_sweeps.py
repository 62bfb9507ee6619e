#!/usr/bin/env python3
"""The evaluation harness: benchmark, parameter grid, target-fitness sweep,
and integration-steps sweep, with machine-readable outputs.

Re-trains the reduced stack from demo 04, then drives each experiment the way
the command-line `evaluate` / `gridsearch` / `extrapolate` / `ode-sweep`
subcommands do, writing results/<task>/<experiment>/<timestamp>/ files.
"""

from dataclasses import replace

from seqopt.flow import FlowTrainConfig
from seqopt.harness import (TaskAssets, extrapolation_experiment, grid_search,
                            ode_steps_sweep, results_dir, run_benchmark,
                            write_cells_csv, write_summary)
from seqopt.predictor import PredictorConfig
from seqopt.sampling import SamplerConfig
from seqopt.tasks import (SyntheticTaskSpec, build_synthetic_task, task_oracle,
                          train_models)
from seqopt.vae import VaeConfig

spec = SyntheticTaskSpec(name="demo", percentile=(20, 50), gap=3, length=12,
                         full_size=4000, max_train=900, max_mutations=7, n_pairs=20)
task = build_synthetic_task("demo", seed=0, spec=spec)
print("training models (about a minute)...")
bundle = train_models(
    task, seed=0,
    vae_cfg=VaeConfig(latent_dim=8, beta=0.002, epochs=60, batch_size=64,
                      hidden_channels=32),
    flow_cfg=FlowTrainConfig(epochs=200, batch_size=128, seed=0),
    pred_cfg=PredictorConfig(epochs=60, batch_size=64, hidden_channels=16,
                             hidden_dense=48),
    conditional=True)
assets = TaskAssets(name="demo", vocab=task.vocab, train=task.train,
                    normalizer=task.normalizer, oracle=task_oracle(task),
                    vae=bundle.vae, flow=bundle.flow, predictor=bundle.predictor,
                    flow_conditional=bundle.flow_conditional)
base = SamplerConfig(steps=32, guidance_steps=4, alpha=0.4, batch=256, top_k=64,
                     mode="manifold", seed=0)

print("\n== five-seed benchmark ==")
summary = run_benchmark(assets, base, seeds=[0, 1, 2, 3, 4])
print("fitness | diversity | novelty:", summary.format_row())
out = results_dir("results", "demo", "evaluate")
write_summary(out, summary.to_json())
print("wrote", out / "summary.json")

print("\n== alpha x guidance-steps grid (single seed per cell) ==")
cells = grid_search(assets, replace(base, seed=0), alphas=[0.0, 0.2, 0.4],
                    guidance_steps=[0, 2, 4])
print(f"{'alpha':>6s} {'J':>3s} {'fitness':>8s} {'diversity':>10s}")
for c in cells:
    print(f"{c['alpha']:6.1f} {c['guidance_steps']:3d} "
          f"{c['median_fitness']:8.3f} {c['diversity']:10.1f}")
out = results_dir("results", "demo", "gridsearch")
write_cells_csv(out, cells)
print("wrote", out / "cells.csv")

print("\n== target-fitness sweep (raw batches, no top-k) ==")
rows = extrapolation_experiment(assets, y_values=[0.2, 0.5, 0.8, 1.0],
                                base_cfg=replace(base, seed=0))
print(f"{'mode':18s} {'y':>5s} {'median y_gt':>12s}")
for r in rows:
    print(f"{r['mode']:18s} {r['target_y']:5.1f} {r['median_y_gt']:12.3f}")
out = results_dir("results", "demo", "extrapolate")
write_cells_csv(out, rows)
print("wrote", out / "cells.csv")

print("\n== integration-steps sweep ==")
rows = ode_steps_sweep(assets, replace(base, seed=0), [4, 8, 16, 32])
for r in rows:
    print(f"steps {r['steps']:3d}: fitness {r['median_fitness']:.3f}, "
          f"diversity {r['diversity']:.1f}")
out = results_dir("results", "demo", "ode-sweep")
write_cells_csv(out, rows)
print("wrote", out / "cells.csv")
