"""Command-line pipeline driver.

    seqopt train-vae CONFIG          train the sequence autoencoder
    seqopt train-prior CONFIG        train the latent flow prior (needs the VAE)
    seqopt train-predictor CONFIG    train a fitness predictor (or oracle)
    seqopt sample CONFIG             draw and select sequences
    seqopt evaluate CONFIG           multi-seed benchmark with metrics
    seqopt gridsearch CONFIG         alpha x guidance-steps heatmap data
    seqopt extrapolate CONFIG        target-fitness sweep, guided vs learned posterior
    seqopt ode-sweep CONFIG          integration-steps sweep
    seqopt ablate CONFIG             seed-matched mode comparison table

Exit codes: 0 success, 1 validation error, 2 runtime divergence, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings
from pathlib import Path

from . import flow as flowmod
from . import vae as vaemod
from .atomic import atomic_write_text
from .config import RunConfig, config_echo, load_config
from .data import DataFormatError
from .errors import ConfigError, TrainingDivergedError
from .harness import (TaskAssets, ablation_table, extrapolation_experiment,
                      grid_search, ode_steps_sweep, results_dir, run_benchmark,
                      write_cells_csv, write_samples, write_summary)
from .nn.checkpoint import CheckpointError
from .nn.layers import NonFiniteError
from .predictor import (load_external_predictor, save_predictor,
                        smooth_labels_knn, train_predictor)
from .sampling import MODES, guided_sample
from .tasks import (TaskData, build_csv_task, build_synthetic_task, encode_latents,
                    split_train_val, task_oracle)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are validation errors (exit 1)
        raise ConfigError([message])


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("config", help="path to the run configuration (INI)")
    common.add_argument("--seed", type=int, default=None,
                        help="override the task seed (training commands) or the "
                             "sampling seed (sample)")
    common.add_argument("--results-dir", default=None, help="override [paths] results")
    common.add_argument("--parallelism", type=int, default=None,
                        help="worker count for every experiment's sampling runs")

    parser = _Parser(prog="seqopt", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("train-vae", parents=[common])
    p = sub.add_parser("train-prior", parents=[common])
    p.add_argument("--conditional", action="store_true",
                   help="also condition the velocity field on fitness")
    p = sub.add_parser("train-predictor", parents=[common])
    p.add_argument("--role", choices=["predictor", "smoothed", "oracle"],
                   default="predictor")
    p = sub.add_parser("sample", parents=[common])
    p.add_argument("--mode", choices=list(MODES), default=None)
    p.add_argument("--top-k", type=int, default=None)
    p.add_argument("--batch", type=int, default=None)
    sub.add_parser("evaluate", parents=[common])
    sub.add_parser("gridsearch", parents=[common])
    sub.add_parser("extrapolate", parents=[common])
    sub.add_parser("ode-sweep", parents=[common])
    sub.add_parser("ablate", parents=[common])
    return parser


def _load_run(args) -> RunConfig:
    overrides = {}
    if args.seed is not None and args.command != "sample":
        overrides["task.seed"] = args.seed
    if args.seed is not None and args.command == "sample":
        overrides["sampler.seed"] = args.seed
    if args.results_dir is not None:
        overrides["paths.results"] = args.results_dir
    if args.parallelism is not None:
        overrides["run.parallelism"] = args.parallelism
    return load_config(args.config, overrides)


def _task_data(cfg: RunConfig) -> TaskData:
    if cfg.task_name == "csv":
        return build_csv_task(cfg.data_path, range_file=cfg.range_path)
    return build_synthetic_task(cfg.task_name, cfg.task_seed, spec=cfg.task_spec)


def _write_report(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True))


def cmd_train_vae(cfg: RunConfig) -> int:
    task = _task_data(cfg)
    fit, val = split_train_val(task.train, cfg.task_seed)
    model, report = vaemod.train_vae(fit, cfg.vae, cfg.task_seed,
                                     vocab_size=task.vocab.size, val_data=val)
    checksums = vaemod.save_vae(model, cfg.workdir)
    _write_report(cfg.workdir / "vae_report.json",
                  {"report": report.to_json(), "checksums": checksums})
    print(f"vae checkpoints written to {cfg.workdir} "
          f"(val accuracy {report.val_accuracy:.3f})")
    return 0


def _checkpoint(cfg: RunConfig, name: str, command: str) -> Path:
    """The workdir checkpoint `name`; a missing one is an i/o error that
    names the `seqopt` command writing it."""
    path = cfg.workdir / name
    if not path.exists():
        raise CheckpointError(f"missing checkpoint {path}; run `seqopt {command}`")
    return path


def cmd_train_prior(cfg: RunConfig, conditional: bool) -> int:
    task = _task_data(cfg)
    vae = vaemod.load_vae(_checkpoint(cfg, "vae_encoder.npz", "train-vae").parent)
    latents = encode_latents(vae, task.train, cfg.task_seed + 20)
    labels = task.train.normalized_fitness() if conditional else None
    flow_cfg = dataclasses.replace(cfg.flow, seed=cfg.flow.seed + (1 if conditional else 0))
    model, losses = flowmod.train_flow(latents, flow_cfg, labels=labels,
                                       conditional=conditional)
    name = "flow_conditional.npz" if conditional else "flow.npz"
    checksum = flowmod.save_flow(model, cfg.workdir / name)
    _write_report(cfg.workdir / f"{name.removesuffix('.npz')}_report.json",
                  {"per_epoch": losses, "checksum": checksum,
                   "conditional": conditional})
    print(f"flow checkpoint written to {cfg.workdir / name}")
    return 0


def cmd_train_predictor(cfg: RunConfig, role: str) -> int:
    task = _task_data(cfg)
    if role == "oracle":
        if task.landscape is not None:
            raise ConfigError(["synthetic tasks use the exact landscape oracle; "
                               "no oracle training is needed"])
        model, report = train_predictor(task.full, cfg.predictor, cfg.task_seed,
                                        vocab_size=task.vocab.size, role="oracle",
                                        raw_labels=True)
        out = cfg.workdir / "oracle.npz"
    else:
        fit, val = split_train_val(task.train, cfg.task_seed)
        if role == "smoothed":
            fit = smooth_labels_knn(fit, k=10)
        model, report = train_predictor(fit, cfg.predictor, cfg.task_seed,
                                        vocab_size=task.vocab.size, role=role,
                                        val_data=val)
        out = cfg.workdir / ("predictor_smoothed.npz" if role == "smoothed"
                             else "predictor.npz")
    checksum = save_predictor(model, out)
    _write_report(out.with_name(out.stem + "_report.json"),
                  {"report": report.to_json(), "checksum": checksum, "role": role})
    print(f"{role} checkpoint written to {out}")
    return 0


def _load_assets(cfg: RunConfig, need_conditional: bool = False) -> TaskAssets:
    task = _task_data(cfg)
    vae = vaemod.load_vae(_checkpoint(cfg, "vae_encoder.npz", "train-vae").parent)
    flow = flowmod.load_flow(_checkpoint(cfg, "flow.npz", "train-prior"))
    predictor = load_external_predictor(_checkpoint(cfg, "predictor.npz", "train-predictor"))
    flow_conditional = None
    if need_conditional or (cfg.workdir / "flow_conditional.npz").exists():
        flow_conditional = flowmod.load_flow(
            _checkpoint(cfg, "flow_conditional.npz", "train-prior --conditional"))
    if cfg.task_name == "csv":
        if cfg.oracle_checkpoint is None:
            raise ConfigError(["csv tasks need [paths] oracle_checkpoint for evaluation"])
        oracle = load_external_predictor(cfg.oracle_checkpoint)
    else:
        oracle = task_oracle(task)
    return TaskAssets(name=cfg.task_name, vocab=task.vocab, train=task.train,
                      normalizer=task.normalizer, oracle=oracle, vae=vae,
                      flow=flow, predictor=predictor,
                      flow_conditional=flow_conditional)


def cmd_sample(cfg: RunConfig, mode: str | None, top_k: int | None,
               batch: int | None) -> int:
    sampler = cfg.sampler if mode is None else cfg.sampler.for_mode(mode)
    if top_k is not None or batch is not None:
        sampler = dataclasses.replace(sampler,
                                      top_k=top_k if top_k is not None else sampler.top_k,
                                      batch=batch if batch is not None else sampler.batch)
    assets = _load_assets(cfg, need_conditional=(sampler.mode == "learned_posterior"))
    result = guided_sample(sampler, assets.flow_for(sampler.mode), assets.vae,
                           assets.predictor)
    out = results_dir(cfg.results, cfg.task_name, "sample")
    payload = result.to_json(assets.vocab)
    payload["config_echo"] = config_echo(cfg)
    atomic_write_text(out / "sample.json", json.dumps(payload, indent=2, sort_keys=True))
    print(f"wrote {out / 'sample.json'} ({len(result.sequences)} sequences"
          f"{', SHORTFALL' if result.shortfall else ''})")
    return 0


def cmd_evaluate(cfg: RunConfig) -> int:
    assets = _load_assets(cfg)
    summary, results = run_benchmark(assets, cfg.sampler, cfg.eval_seeds,
                                     parallelism=cfg.parallelism, keep_samples=True)
    out = results_dir(cfg.results, cfg.task_name, "evaluate")
    write_summary(out, {"summary": summary.to_json(), "config_echo": config_echo(cfg)})
    write_samples(out, results, assets.vocab)
    print(f"{cfg.task_name} [{cfg.sampler.mode}]  fitness | diversity | novelty:  "
          f"{summary.format_row()}")
    print(f"results in {out}")
    return 0


def _write_rows(cfg: RunConfig, experiment: str, key: str, rows: list[dict]) -> Path:
    """A new run directory holding the rows as cells.csv and, under `key`,
    in summary.json beside the config echo."""
    out = results_dir(cfg.results, cfg.task_name, experiment)
    write_cells_csv(out, rows)
    write_summary(out, {key: rows, "config_echo": config_echo(cfg)})
    return out


def cmd_gridsearch(cfg: RunConfig) -> int:
    assets = _load_assets(cfg)
    cells = grid_search(assets, cfg.sampler, cfg.grid_alphas,
                        cfg.grid_guidance_steps, seed=cfg.sampler.seed,
                        parallelism=cfg.parallelism)
    out = _write_rows(cfg, "gridsearch", "cells", cells)
    failed = sum(1 for c in cells if c["error"])
    print(f"wrote {len(cells)} cells ({failed} failed) to {out}")
    return 0


def cmd_extrapolate(cfg: RunConfig) -> int:
    assets = _load_assets(cfg, need_conditional=True)
    base = dataclasses.replace(cfg.sampler, batch=cfg.extrapolate_batch,
                               top_k=cfg.extrapolate_batch)
    rows = extrapolation_experiment(assets, cfg.extrapolate_y, base_cfg=base,
                                    seed=cfg.sampler.seed,
                                    parallelism=cfg.parallelism)
    out = _write_rows(cfg, "extrapolate", "rows", rows)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def cmd_ode_sweep(cfg: RunConfig) -> int:
    assets = _load_assets(cfg)
    rows = ode_steps_sweep(assets, cfg.sampler, cfg.ode_steps, seed=cfg.sampler.seed,
                           parallelism=cfg.parallelism)
    out = _write_rows(cfg, "ode-sweep", "rows", rows)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def cmd_ablate(cfg: RunConfig) -> int:
    assets = _load_assets(cfg, need_conditional=True)
    rows = ablation_table(assets, cfg.sampler, cfg.eval_seeds,
                          parallelism=cfg.parallelism)
    out = _write_rows(cfg, "ablate", "rows", rows)
    for r in rows:
        print(f"{r['mode']:18s} fitness {r['median_fitness_mean']:.3f} "
              f"+- {r['median_fitness_std']:.3f}")
    print(f"results in {out}")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _load_run(args)
        # numpy's overflow warnings would precede the one-line report that the
        # finite checks make of a divergence
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            if args.command == "train-vae":
                return cmd_train_vae(cfg)
            if args.command == "train-prior":
                return cmd_train_prior(cfg, args.conditional)
            if args.command == "train-predictor":
                return cmd_train_predictor(cfg, args.role)
            if args.command == "sample":
                return cmd_sample(cfg, args.mode, args.top_k, args.batch)
            if args.command == "evaluate":
                return cmd_evaluate(cfg)
            if args.command == "gridsearch":
                return cmd_gridsearch(cfg)
            if args.command == "extrapolate":
                return cmd_extrapolate(cfg)
            if args.command == "ode-sweep":
                return cmd_ode_sweep(cfg)
            if args.command == "ablate":
                return cmd_ablate(cfg)
            raise ConfigError([f"unknown command {args.command!r}"])
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 1
    except (TrainingDivergedError, NonFiniteError, FloatingPointError) as exc:
        print(f"runtime divergence: {exc}", file=sys.stderr)
        return 2
    except (DataFormatError, CheckpointError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
