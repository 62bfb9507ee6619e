"""Multi-seed benchmark runner, parameter grids, fitness-extrapolation sweep,
ODE-steps sweep, and the ablation table, with machine-readable result files.

Every experiment is one call to `_sweep`: it samples a {key: SamplerConfig}
map, each config with the flow its mode uses, and maps each result through
the experiment's own measurement inside the same job, so `run_benchmark`'s
metrics run where its sampling does. `ablation_table` is one `run_benchmark`
per mode.

The jobs go through `run_jobs`. With `parallelism` above 1 it deals the keys
round-robin by position to that many processes: the caller runs one share
and forked workers run the others. The jobs reach the workers by fork, as
the closures they are, so only results and exceptions are pickled. BLAS is
pinned to one thread for the duration, because one BLAS thread pool per
process oversubscribes the cores. Results are assembled by key and a failure
re-raises the earliest failing key's exception, so neither the worker count
nor the completion order affects output.

Results land in <results>/<task>/<experiment>/<timestamp>/ as summary.json
plus cells.csv (for grids/sweeps) and samples/*.json; every file embeds the
config echo and model checksums so runs are replayable.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import dataclasses
import functools
import itertools
import json
import multiprocessing
import os
import sys
import time
import traceback
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .atomic import atomic_open, atomic_write_text
from .data import Dataset, FitnessNormalizer
from .errors import ConfigError
from .flow import FlowModel
from .metrics import MetricReport, compute_metrics, median_normalized_fitness
from .nn.layers import NonFiniteError
from .predictor import PredictorModel
from .sampling import SamplerConfig, guided_sample
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
        problems = []
        if self.vae.latent_dim != self.flow.latent_dim:
            problems.append(f"latent dim mismatch: vae {self.vae.latent_dim} "
                            f"vs flow {self.flow.latent_dim}")
        if self.predictor.length != self.vae.length:
            problems.append(f"length mismatch: predictor {self.predictor.length} "
                            f"vs vae {self.vae.length}")
        if self.oracle is not None and self.oracle.length != self.vae.length:
            problems.append(f"length mismatch: oracle {self.oracle.length} "
                            f"vs vae {self.vae.length}")
        if self.flow_conditional is not None and \
                self.flow_conditional.latent_dim != self.vae.latent_dim:
            problems.append("conditional flow latent dim mismatch")
        if problems:
            raise ConfigError(problems)

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
        return {"per_seed": [r.to_json() for r in self.reports],
                "mean": self.mean, "std": self.std, "config": self.config}

    def format_row(self) -> str:
        """One table row in the usual 'metric mean +- std' layout."""
        cells = [f"{self.mean[m]:.2f} +- {self.std[m]:.2f}" for m in METRIC_NAMES]
        return " | ".join(cells)


def run_jobs(jobs: dict, parallelism: int = 1) -> dict:
    """Execute {key: zero-arg callable} and return {key: result}, assembled by
    key. With parallelism > 1, worker w of n = min(parallelism, len(jobs))
    runs keys[w::n]: the caller is worker 0 and the others are forked
    processes, all with one BLAS thread. A failing job ends its worker's share,
    and the exception of the earliest failing key is re-raised, as in a serial
    run. Where `fork` does not exist the jobs run serially."""
    keys = list(jobs)
    workers = min(parallelism, len(keys))
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return {key: jobs[key]() for key in keys}
    context = multiprocessing.get_context("fork")
    with _one_blas_thread():
        started = []
        try:
            for w in range(1, workers):
                receive, send = context.Pipe(duplex=False)
                proc = context.Process(target=_worker, args=(jobs, keys[w::workers], send),
                                       name=f"run_jobs worker {w}")
                proc.start()
                send.close()  # the worker now holds the only writing end
                started.append((proc, receive))
            shares = [_run_share(jobs, keys[::workers])]
            shares += [_receive(proc, receive) for proc, receive in started]
        except BaseException:
            for proc, _ in started:
                proc.terminate()
            raise
        finally:
            for proc, receive in started:
                receive.close()
                proc.join()
    done, failures = {}, {}
    position = {key: i for i, key in enumerate(keys)}
    for results, failure in shares:
        done.update(results)
        if failure is not None:
            key, exc, text = failure
            failures[position[key]] = exc, text
    if failures:
        exc, text = failures[min(failures)]
        if exc.__traceback__ is not None:  # raised in this process
            raise exc
        raise exc from _WorkerTraceback(text)
    return {key: done[key] for key in keys}


def _run_share(jobs: dict, keys: list):
    """({key: result}, None), or the results before the first failing key and
    (key, exception, its traceback as text)."""
    results = {}
    for key in keys:
        try:
            results[key] = jobs[key]()
        except Exception as exc:
            return results, (key, exc, traceback.format_exc())
    return results, None


def _worker(jobs: dict, keys: list, send) -> None:
    """Body of a forked worker: run its share, send it back and exit at once,
    without the interpreter shutdown the caller waits for in `join`. A result
    or exception that does not pickle ends the worker before anything is sent."""
    send.send(_run_share(jobs, keys))
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(0)


def _receive(proc, receive):
    try:
        return receive.recv()
    except EOFError:
        proc.join()
        raise RuntimeError(f"{proc.name} (pid {proc.pid}) exited with code "
                           f"{proc.exitcode} before returning its results") from None


class _WorkerTraceback(Exception):
    """The traceback, as text, of a job that failed in a forked worker."""

    def __str__(self):
        return "\n" + self.args[0]


@contextlib.contextmanager
def _one_blas_thread():
    """Pin the OpenBLAS numpy loaded to one thread, and restore the caller's
    count on exit; forked workers inherit the pin. Without OpenBLAS, a no-op."""
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


@functools.cache
def _openblas_threads():
    """(get, set) for the thread count of the OpenBLAS mapped into this process,
    or None. numpy 2 wheels export scipy_openblas_*64_, older wheels
    openblas_*64_, a system OpenBLAS plain openblas_*."""
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return None
    paths = sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5]})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # e.g. a mapping whose file was replaced since
            continue
        for prefix, suffix in itertools.product(("scipy_openblas", "openblas"), ("64_", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def _sweep(assets: TaskAssets, configs: dict, measure, parallelism: int = 1,
           on_error=None) -> dict:
    """Sample each {key: SamplerConfig} with the flow its mode uses and return
    {key: measure(key, result)}, one `run_jobs` job per key. With `on_error`,
    a job that fails with one of `_CELL_ERRORS` returns on_error(key, exc)
    instead of raising."""
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


def grid_search(assets: TaskAssets, base_cfg: SamplerConfig, alphas, guidance_steps,
                parallelism: int = 1) -> list[dict]:
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
    rows.update(_sweep(assets, configs, measure, parallelism, on_error=failed))
    return [rows[i] for i in range(len(cells))]


def extrapolation_experiment(assets: TaskAssets, y_values, *,
                             base_cfg: SamplerConfig, parallelism: int = 1) -> list[dict]:
    """Median oracle fitness of the *raw* decoded batch (no dedup, no top-k)
    as the requested target fitness varies, in the manifold and learned_posterior
    modes, each run seeded with `base_cfg.seed`."""
    points = [(mode, float(y)) for mode in ("manifold", "learned_posterior") for y in y_values]

    def measure(i, res):
        mode, y = points[i]
        measured = median_normalized_fitness(res.raw_sequences, assets.oracle,
                                             assets.normalizer)
        return {"mode": mode, "target_y": y, "median_y_gt": measured}

    configs = {i: replace(base_cfg.for_mode(mode), target_y=y)
               for i, (mode, y) in enumerate(points)}
    return list(_sweep(assets, configs, measure, parallelism).values())


def ode_steps_sweep(assets: TaskAssets, base_cfg: SamplerConfig, step_counts,
                    parallelism: int = 1) -> list[dict]:
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
    return list(_sweep(assets, configs, measure, parallelism).values())


def ablation_table(assets: TaskAssets, base_cfg: SamplerConfig, seeds,
                   parallelism: int = 1) -> list[dict]:
    """Seed-matched mode comparison shaped like the guidance-variant tables."""
    rows = []
    for mode in ("manifold", "naive", "learned_posterior"):
        summary = run_benchmark(assets, base_cfg.for_mode(mode), seeds,
                                parallelism=parallelism)
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
    out = Path(path) / "summary.json"
    atomic_write_text(out, json.dumps(payload, indent=2, sort_keys=True, default=_jsonify))
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
        atomic_write_text(out, json.dumps(res.to_json(vocab), indent=2, sort_keys=True))
        written.append(out)
    return written


def _jsonify(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")
