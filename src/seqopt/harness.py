"""Multi-seed benchmark runner, parameter grids, fitness-extrapolation sweep,
ODE-steps sweep, and the ablation table, with machine-readable result files.

Every experiment is one call to `_sweep`: it samples a {key: SamplerConfig}
map, each config with the flow its mode uses, and maps each result through
the experiment's own measurement inside the same job, so `run_benchmark`'s
metrics run where its sampling does. `ablation_table` is one sweep over
every (mode, seed).

A sweep runs on as many processes as the process may run on CPUs
(`jobs.process_cores`, its scheduler affinity; `taskset` bounds it), and
`run_benchmark` on as many as it is asked for, up to its seed count, always
through `jobs.Pool.run`. On more than one, the Pool is the one kept for the
TaskAssets it was forked for (`_sweep_pool`): the caller runs one share and
the workers the rest, and later sweeps on the same assets reuse the workers
instead of forking again. The caller and its workers stay on one BLAS
thread for as long as the pool is kept, between sweeps too. This serves a
process that sweeps the same assets more than once, as
demos/05_experiment_sweeps.py does four times and perfbench's evaluate once
per op; a command-line run sweeps once and forks once, as it did before.
One pool is kept per process, for the assets that last swept. It is forked
anew when other assets sweep, when a network's parameter checksum has
changed since the fork (a loaded, read-only model keeps the checksum its
load verified, so this costs microseconds), when another process count is
asked for, and when a worker has died or a run raised: a Ctrl-C, which the
workers ignore, interrupts the caller, whose failed run terminates them. The
assets' fields cannot be reassigned (TaskAssets is frozen). The pool is
closed, and its BLAS pin released, when its assets are released, without a
garbage collection, and at interpreter exit. The training set's side of
novelty is prepared before the fork, so each worker inherits it.

A kept worker runs the code and data it inherited at its fork, so a job is
a picklable task that names what it runs: its SamplerConfig and a
module-level measurement, `measure(assets, cfg, result)`, with
`on_error(cfg, exc)` for a grid cell that fails. A worker reads the assets
it was forked with. Code that replaces a function of this module or of
`metrics` after a pool was forked for some assets, as a test may, reaches
the workers only through assets of its own.

A sweep on one process or inside a job of another pool runs its jobs
serially, on a one-process Pool. So does one on the kept pool's assets in a
process forked from the pool's owner: its copy of the pool has no workers
(`jobs._forget_pools`). Results are assembled by key and a failure
re-raises the earliest failing key's exception, so neither the worker count
nor the completion order affects output. Each job's `guided_sample` runs
its chain blocks serially, because a pool made inside a job of another runs
in that job's process.

Results land in <results>/<task>/<experiment>/<timestamp>/ as summary.json
plus cells.csv (for grids/sweeps) and samples/*.json; every file embeds the
config echo and model checksums so runs are replayable.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import time
import weakref
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .atomic import atomic_open, atomic_write_json
from .data import Dataset, FitnessNormalizer
from .errors import ConfigError
from .flow import FlowModel
from .jobs import Pool, forks, process_cores
from .jobs import run_jobs  # noqa: F401  (perfbench's tracer wraps harness.run_jobs)
from .metrics import MetricReport, compute_metrics, median_normalized_fitness
from .nn.checkpoint import params_checksum
from .nn.layers import NonFiniteError
from .predictor import PredictorModel
from .sampling import SamplerConfig, check_stack, guided_sample
from .seqs import Vocabulary
from .vae import VaeModel

METRIC_NAMES = ("median_fitness", "diversity", "novelty")
# What a grid cell may fail with and still be recorded as a row.
_CELL_ERRORS = (ConfigError, FloatingPointError, NonFiniteError, ValueError)


@dataclass(frozen=True)
class TaskAssets:
    """Everything a sampling experiment needs: frozen models plus the oracle
    and the full-set normalizer. Fields are not reassigned: a sweep's kept
    workers read the assets as they were at their fork."""

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
    {key: measure(assets, cfg, result)}, one job per key on up to
    `parallelism` processes. With `on_error`, a job that fails with one of
    `_CELL_ERRORS` returns on_error(cfg, exc) instead of raising. The
    training side of novelty is prepared before any worker forks."""
    assets.train.prepared_rows
    tasks = [(cfg, measure, on_error) for cfg in configs.values()]
    pool = _sweep_pool(assets, min(parallelism, len(tasks)))
    try:
        return dict(zip(configs, pool.run(tasks)))
    except BaseException:  # a worker may be mid-share or gone: fork anew next time
        if _kept is not None and _kept.pool is pool:
            pool.terminate()
            _kept.release()
        raise


def _job(assets: weakref.ref, cfg: SamplerConfig, measure, on_error):
    """One sweep job: sample `cfg` and measure the result. The assets are
    held weakly, so a kept pool does not keep them alive; a forked worker's
    stack still holds the `_sweep` frame it was forked from, and with it
    the assets, for as long as the worker lives."""
    assets = assets()
    try:
        res = guided_sample(cfg, assets.flow_for(cfg.mode), assets.vae, assets.predictor)
        return measure(assets, cfg, res)
    except _CELL_ERRORS as exc:
        if on_error is None:
            raise
        return on_error(cfg, exc)


@dataclass
class _Kept:
    """The sweep pool kept for one TaskAssets, and what its workers saw of
    them at the fork."""

    pool: Pool
    assets: weakref.ref
    processes: int
    checksums: tuple              # each network's parameter checksum
    release: weakref.finalize     # closes the pool, once


# The pool kept for the TaskAssets that last swept on more than one process.
_kept: _Kept | None = None


def _sweep_pool(assets: TaskAssets, processes: int) -> Pool:
    """The pool kept for `assets` on `processes` processes, forked anew unless
    the kept one matches (see the module docstring), or a one-process Pool
    where the sweep runs serially."""
    global _kept
    ref = weakref.ref(assets)
    if not forks(processes):
        return Pool(partial(_job, ref), 1)
    models = [getattr(assets, f.name) for f in dataclasses.fields(assets)]
    nets = [assets.vae.encoder, assets.vae.decoder] + [m.net for m in models if hasattr(m, "net")]
    checksums = tuple(params_checksum(net.params) for net in nets)
    if (_kept is None or _kept.assets() is not assets or _kept.processes != processes
            or _kept.checksums != checksums or not _kept.pool.alive()):
        if _kept is not None:
            _kept.release()
        pool = Pool(partial(_job, ref), processes, daemon=True)
        _kept = _Kept(pool, ref, processes, checksums, weakref.finalize(assets, _close, pool))
    return _kept.pool


def _close(pool: Pool) -> None:
    """Close a kept pool and forget it."""
    global _kept
    if _kept is not None and _kept.pool is pool:
        _kept = None
    pool.close()


def _report_measure(assets: TaskAssets, cfg: SamplerConfig, res) -> MetricReport:
    return compute_metrics(res.sequences, assets.oracle, assets.normalizer, assets.train,
                           seed=cfg.seed)


def _benchmark_measure(assets: TaskAssets, cfg: SamplerConfig, res):
    return res, _report_measure(assets, cfg, res)


def run_benchmark(assets: TaskAssets, cfg: SamplerConfig, seeds,
                  parallelism: int = 1, keep_samples: bool = False):
    """Sample once per seed with frozen models and aggregate the three metrics
    as mean and population std over seeds. Unconditional runs keep the whole
    deduplicated batch (no top-k cut), matching prior-only analysis."""
    seeds = list(seeds)
    if cfg.mode == "unconditional" and cfg.top_k != cfg.batch:
        cfg = replace(cfg, top_k=cfg.batch)
    measured = _sweep(assets, {s: replace(cfg, seed=s) for s in seeds},
                      _benchmark_measure, parallelism)
    results = {s: res for s, (res, _) in measured.items()}
    reports = [measured[s][1] for s in seeds]
    mean, std = _aggregate(reports)
    summary = BenchmarkSummary(
        reports=reports, mean=mean, std=std,
        config={"sampler": dataclasses.asdict(cfg), "seeds": seeds, "task": assets.name},
    )
    return (summary, results) if keep_samples else summary


def _aggregate(reports: list[MetricReport]) -> tuple[dict, dict]:
    """Each metric's mean and population std over the seeds' reports, of
    which there must be at least one."""
    if not reports:
        raise ValueError("seeds must be non-empty")
    return ({m: float(np.mean([getattr(r, m) for r in reports])) for m in METRIC_NAMES},
            {m: float(np.std([getattr(r, m) for r in reports])) for m in METRIC_NAMES})


def _grid_row(alpha, j, report: MetricReport | None = None, error: str = "") -> dict:
    """A grid cell's row: the report's metrics, or NaN ones and the error."""
    if report is None:
        measured = {"median_fitness": np.nan, "diversity": np.nan, "novelty": np.nan,
                    "n_unique": 0}
    else:
        measured = {"median_fitness": report.median_fitness, "diversity": report.diversity,
                    "novelty": report.novelty, "n_unique": report.n_sequences}
    return {"alpha": float(alpha), "guidance_steps": int(j), **measured, "error": error}


def _grid_measure(assets: TaskAssets, cfg: SamplerConfig, res) -> dict:
    return _grid_row(cfg.alpha, cfg.guidance_steps, _report_measure(assets, cfg, res))


def _grid_failed(cfg: SamplerConfig, exc: Exception) -> dict:
    return _grid_row(cfg.alpha, cfg.guidance_steps, error=str(exc))


def grid_search(assets: TaskAssets, base_cfg: SamplerConfig, alphas,
                guidance_steps) -> list[dict]:
    """One sampling run per (alpha, J) cell, reporting fitness and diversity
    (plus novelty) per cell. Every cell samples and measures with
    `base_cfg.seed`. Cell failures are recorded, not fatal."""
    cells = list(itertools.product(alphas, guidance_steps))
    if not cells:
        raise ValueError("grids must be non-empty")
    configs, rows = {}, {}
    for i, (alpha, j) in enumerate(cells):
        try:
            configs[i] = replace(base_cfg, alpha=float(alpha), guidance_steps=int(j))
        except _CELL_ERRORS as exc:
            rows[i] = _grid_row(alpha, j, error=str(exc))
    rows.update(_sweep(assets, configs, _grid_measure, process_cores(),
                       on_error=_grid_failed))
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
    configs = {i: replace(base_cfg.for_mode(mode), target_y=y)
               for i, (mode, y) in enumerate(points)}
    return list(_sweep(assets, configs, _extrapolation_measure, process_cores()).values())


def _extrapolation_measure(assets: TaskAssets, cfg: SamplerConfig, res) -> dict:
    measured = median_normalized_fitness(res.raw_sequences, assets.oracle, assets.normalizer)
    return {"mode": cfg.mode, "target_y": cfg.target_y, "median_y_gt": measured}


def ode_steps_sweep(assets: TaskAssets, base_cfg: SamplerConfig,
                    step_counts) -> list[dict]:
    """One run per ODE step count, reporting fitness and diversity, each run
    seeded with `base_cfg.seed`."""
    step_counts = [int(k) for k in step_counts]
    if any(k < 1 for k in step_counts):
        raise ValueError("step counts must be >= 1")
    configs = {i: replace(base_cfg, steps=k) for i, k in enumerate(step_counts)}
    return list(_sweep(assets, configs, _ode_measure, process_cores()).values())


def _ode_measure(assets: TaskAssets, cfg: SamplerConfig, res) -> dict:
    report = _report_measure(assets, cfg, res)
    return {"steps": cfg.steps, "median_fitness": report.median_fitness,
            "diversity": report.diversity}


def ablation_table(assets: TaskAssets, base_cfg: SamplerConfig, seeds) -> list[dict]:
    """Seed-matched mode comparison shaped like the guidance-variant tables:
    per mode, the `run_benchmark` aggregates of one sweep over every (mode,
    seed)."""
    check_guided(base_cfg)
    seeds, modes = list(seeds), ("manifold", "naive", "learned_posterior")
    configs = {(mode, s): replace(base_cfg.for_mode(mode), seed=s)
               for mode in modes for s in seeds}
    reports = _sweep(assets, configs, _report_measure, process_cores())
    rows = []
    for mode in modes:
        mean, std = _aggregate([reports[mode, s] for s in seeds])
        rows.append({"mode": mode,
                     "median_fitness_mean": mean["median_fitness"],
                     "median_fitness_std": std["median_fitness"],
                     "diversity_mean": mean["diversity"],
                     "novelty_mean": mean["novelty"]})
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
