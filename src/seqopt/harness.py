"""Multi-seed benchmark runner, parameter grids, fitness-extrapolation sweep,
ODE-steps sweep, and the ablation table, with machine-readable result files.

Every experiment is one call to `_sweep`: it samples a {key: SamplerConfig}
map, each config with the flow its mode uses, and maps each result through
the experiment's own measurement inside the same job, so `run_benchmark`'s
metrics run where its sampling does. `ablation_table` is one `run_benchmark`
per mode.

The jobs go through `jobs.run_jobs`, on as many processes as the process
may run on CPUs (`jobs.process_cores`, its scheduler affinity; `taskset`
bounds it). `run_jobs` deals the keys round-robin by position to the caller
and forked workers, each with one BLAS thread. Results are assembled by key
and a failure re-raises the earliest failing key's exception, so neither the
worker count nor the completion order affects output. Each job's
`guided_sample` runs its chain blocks serially, because a `run_jobs` call
inside a job of another runs in that job's process. `run_benchmark` alone
takes its process count as an argument.

Results land in <results>/<task>/<experiment>/<timestamp>/ as summary.json
plus cells.csv (for grids/sweeps) and samples/*.json; every file embeds the
config echo and model checksums so runs are replayable.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import time
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .atomic import atomic_open, atomic_write_json
from .data import Dataset, FitnessNormalizer
from .errors import ConfigError
from .flow import FlowModel
from .jobs import process_cores, run_jobs
from .metrics import MetricReport, compute_metrics, median_normalized_fitness
from .nn.layers import NonFiniteError
from .predictor import PredictorModel
from .sampling import SamplerConfig, check_stack, guided_sample
from .seqs import Vocabulary
from .vae import VaeModel

METRIC_NAMES = ("median_fitness", "diversity", "novelty")
# What a grid cell may fail with and still be recorded as a row.
_CELL_ERRORS = (ConfigError, FloatingPointError, NonFiniteError, ValueError)


@dataclass
class TaskAssets:
    """Everything a sampling experiment needs: frozen models plus the oracle
    and the full-set normalizer."""

    name: str
    vocab: Vocabulary
    train: Dataset
    normalizer: FitnessNormalizer
    oracle: object                      # exposes length and predict_sequences(seqs) -> raw fitness
    vae: VaeModel
    flow: FlowModel
    predictor: PredictorModel
    flow_conditional: FlowModel | None = None

    def __post_init__(self):
        check_stack(self.vae, self.predictor,
                    {"flow": self.flow, "conditional flow": self.flow_conditional},
                    self.oracle)

    def flow_for(self, mode: str) -> FlowModel:
        if mode == "learned_posterior":
            if self.flow_conditional is None:
                raise ConfigError(["learned_posterior mode needs a conditional flow checkpoint"])
            return self.flow_conditional
        return self.flow


@dataclass
class BenchmarkSummary:
    reports: list[MetricReport]
    mean: dict[str, float]
    std: dict[str, float]
    config: dict

    def to_json(self) -> dict:
        return {"per_seed": [dataclasses.asdict(r) for r in self.reports],
                "mean": self.mean, "std": self.std, "config": self.config}

    def format_row(self) -> str:
        """One table row in the usual 'metric mean +- std' layout."""
        cells = [f"{self.mean[m]:.2f} +- {self.std[m]:.2f}" for m in METRIC_NAMES]
        return " | ".join(cells)


def _sweep(assets: TaskAssets, configs: dict, measure, parallelism: int,
           on_error=None) -> dict:
    """Sample each {key: SamplerConfig} with the flow its mode uses and return
    {key: measure(key, result)}, one `run_jobs` job per key on `parallelism`
    processes. With `on_error`, a job that fails with one of `_CELL_ERRORS`
    returns on_error(key, exc) instead of raising. The training side of
    novelty is prepared before the workers fork, so each inherits it."""
    assets.train.prepared_rows

    def job(key, cfg):
        try:
            res = guided_sample(cfg, assets.flow_for(cfg.mode), assets.vae,
                                assets.predictor)
            return measure(key, res)
        except _CELL_ERRORS as exc:
            if on_error is None:
                raise
            return on_error(key, exc)

    return run_jobs({key: partial(job, key, cfg) for key, cfg in configs.items()},
                    parallelism)


def run_benchmark(assets: TaskAssets, cfg: SamplerConfig, seeds,
                  parallelism: int = 1, keep_samples: bool = False):
    """Sample once per seed with frozen models and aggregate the three metrics
    as mean and population std over seeds. Unconditional runs keep the whole
    deduplicated batch (no top-k cut), matching prior-only analysis."""
    seeds = list(seeds)
    if cfg.mode == "unconditional" and cfg.top_k != cfg.batch:
        cfg = replace(cfg, top_k=cfg.batch)

    def measure(s, res):
        return res, compute_metrics(res.sequences, assets.oracle, assets.normalizer,
                                    assets.train, seed=s)

    measured = _sweep(assets, {s: replace(cfg, seed=s) for s in seeds}, measure,
                      parallelism)
    results = {s: res for s, (res, _) in measured.items()}
    reports = [measured[s][1] for s in seeds]
    summary = BenchmarkSummary(
        reports=reports,
        mean={m: float(np.mean([getattr(r, m) for r in reports])) for m in METRIC_NAMES},
        std={m: float(np.std([getattr(r, m) for r in reports])) for m in METRIC_NAMES},
        config={"sampler": dataclasses.asdict(cfg), "seeds": seeds, "task": assets.name},
    )
    return (summary, results) if keep_samples else summary


def grid_search(assets: TaskAssets, base_cfg: SamplerConfig, alphas,
                guidance_steps) -> list[dict]:
    """One sampling run per (alpha, J) cell, reporting fitness and diversity
    (plus novelty) per cell. Every cell samples and measures with
    `base_cfg.seed`. Cell failures are recorded, not fatal."""
    cells = list(itertools.product(alphas, guidance_steps))
    if not cells:
        raise ValueError("grids must be non-empty")

    def row(i, **measured):
        alpha, j = cells[i]
        return {"alpha": float(alpha), "guidance_steps": int(j), **measured}

    def failed(i, exc):
        return row(i, median_fitness=np.nan, diversity=np.nan, novelty=np.nan,
                   n_unique=0, error=str(exc))

    def measure(i, res):
        report = compute_metrics(res.sequences, assets.oracle, assets.normalizer,
                                 assets.train, seed=base_cfg.seed)
        return row(i, median_fitness=report.median_fitness,
                   diversity=report.diversity, novelty=report.novelty,
                   n_unique=report.n_sequences, error="")

    configs, rows = {}, {}
    for i, (alpha, j) in enumerate(cells):
        try:
            configs[i] = replace(base_cfg, alpha=float(alpha), guidance_steps=int(j))
        except _CELL_ERRORS as exc:
            rows[i] = failed(i, exc)
    rows.update(_sweep(assets, configs, measure, process_cores(), on_error=failed))
    return [rows[i] for i in range(len(cells))]


def check_guided(base_cfg: SamplerConfig) -> None:
    """Refuse a base config whose alpha or J is 0: the guided rows of the
    extrapolation sweep and the ablation table take both from it."""
    if base_cfg.alpha == 0 or base_cfg.guidance_steps == 0:
        raise ConfigError(["[sampler] alpha and guidance_steps must be > 0 for the "
                           "guided manifold and naive rows, got alpha="
                           f"{base_cfg.alpha}, guidance_steps={base_cfg.guidance_steps}"])


def extrapolation_experiment(assets: TaskAssets, y_values, *,
                             base_cfg: SamplerConfig) -> list[dict]:
    """Median oracle fitness of the *raw* decoded batch (no dedup, no top-k)
    as the requested target fitness varies, in the manifold and learned_posterior
    modes, each run seeded with `base_cfg.seed`."""
    check_guided(base_cfg)
    points = [(mode, float(y)) for mode in ("manifold", "learned_posterior") for y in y_values]

    def measure(i, res):
        mode, y = points[i]
        measured = median_normalized_fitness(res.raw_sequences, assets.oracle,
                                             assets.normalizer)
        return {"mode": mode, "target_y": y, "median_y_gt": measured}

    configs = {i: replace(base_cfg.for_mode(mode), target_y=y)
               for i, (mode, y) in enumerate(points)}
    return list(_sweep(assets, configs, measure, process_cores()).values())


def ode_steps_sweep(assets: TaskAssets, base_cfg: SamplerConfig,
                    step_counts) -> list[dict]:
    """One run per ODE step count, reporting fitness and diversity, each run
    seeded with `base_cfg.seed`."""
    step_counts = [int(k) for k in step_counts]
    if any(k < 1 for k in step_counts):
        raise ValueError("step counts must be >= 1")

    def measure(i, res):
        report = compute_metrics(res.sequences, assets.oracle, assets.normalizer,
                                 assets.train, seed=base_cfg.seed)
        return {"steps": step_counts[i], "median_fitness": report.median_fitness,
                "diversity": report.diversity}

    configs = {i: replace(base_cfg, steps=k) for i, k in enumerate(step_counts)}
    return list(_sweep(assets, configs, measure, process_cores()).values())


def ablation_table(assets: TaskAssets, base_cfg: SamplerConfig, seeds) -> list[dict]:
    """Seed-matched mode comparison shaped like the guidance-variant tables."""
    check_guided(base_cfg)
    rows = []
    for mode in ("manifold", "naive", "learned_posterior"):
        summary = run_benchmark(assets, base_cfg.for_mode(mode), seeds,
                                parallelism=process_cores())
        rows.append({"mode": mode,
                     "median_fitness_mean": summary.mean["median_fitness"],
                     "median_fitness_std": summary.std["median_fitness"],
                     "diversity_mean": summary.mean["diversity"],
                     "novelty_mean": summary.mean["novelty"]})
    return rows


# --- results directory layout ---

def results_dir(root, task: str, experiment: str, timestamp: str | None = None) -> Path:
    """Create a new, empty run directory <root>/<task>/<experiment>/<stamp>.
    A run that starts in the same second as an earlier one gets <stamp>-1,
    <stamp>-2, ... instead of sharing (and overwriting) its files."""
    stamp = timestamp or time.strftime("%Y%m%d-%H%M%S")
    parent = Path(root) / task / experiment
    parent.mkdir(parents=True, exist_ok=True)
    for n in itertools.count():
        path = parent / (f"{stamp}-{n}" if n else stamp)
        try:
            path.mkdir()
        except FileExistsError:
            continue
        return path


def write_summary(path: Path, payload: dict) -> Path:
    """`payload` as summary.json in the run directory `path`."""
    out = Path(path) / "summary.json"
    atomic_write_json(out, payload)
    return out


def write_cells_csv(path: Path, rows: list[dict]) -> Path:
    out = Path(path) / "cells.csv"
    with atomic_open(out, newline="") as fh:
        if rows:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    return out


def write_samples(path: Path, results: dict, vocab: Vocabulary) -> list[Path]:
    sample_dir = Path(path) / "samples"
    sample_dir.mkdir(exist_ok=True)
    written = []
    for key, res in sorted(results.items(), key=lambda kv: str(kv[0])):
        out = sample_dir / f"seed-{key}.json"
        atomic_write_json(out, res.to_json(vocab))
        written.append(out)
    return written
