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
import sys
import warnings
from pathlib import Path

from . import flow as flowmod
from . import vae as vaemod
from .atomic import atomic_write_json
from .config import RunConfig, config_echo, load_config
from .data import DataFormatError
from .errors import ConfigError, TrainingDivergedError
from .harness import (TaskAssets, ablation_table, check_guided, extrapolation_experiment,
                      grid_search, ode_steps_sweep, results_dir, run_benchmark,
                      write_cells_csv, write_samples, write_summary)
from .jobs import process_cores
from .nn.checkpoint import CheckpointError
from .nn.layers import NonFiniteError
from .predictor import ROLES, load_external_predictor, save_predictor
from .sampling import MODES, guided_sample
from .tasks import (TaskData, build_csv_task, build_synthetic_task, task_oracle,
                    train_predictor_stage, train_prior_stage, train_vae_stage)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are validation errors (exit 1)
        raise ConfigError([message])


def build_parser() -> argparse.ArgumentParser:
    # a flag whose destination is a dotted key ("paths.results") overrides
    # that INI option
    common = _Parser(add_help=False)
    common.add_argument("config", help="path to the run configuration (INI)")
    common.add_argument("--results-dir", dest="paths.results", metavar="DIR",
                        help="override [paths] results")

    parser = _Parser(prog="seqopt", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, seed=None):
        """A subcommand; `seed` names the section whose seed --seed overrides
        (evaluate and ablate take their seeds from [evaluate] seeds)."""
        p = sub.add_parser(name, parents=[common])
        p.set_defaults(handler=handler)
        if seed is not None:
            p.add_argument("--seed", dest=f"{seed}.seed", type=int, metavar="SEED",
                           help=f"override [{seed}] seed")
        return p

    command("train-vae", cmd_train_vae, seed="task")
    command("train-prior", cmd_train_prior, seed="task").add_argument(
        "--conditional", action="store_true",
        help="also condition the velocity field on fitness")
    command("train-predictor", cmd_train_predictor, seed="task").add_argument(
        "--role", choices=list(ROLES), default="predictor")
    p = command("sample", cmd_sample, seed="sampler")
    p.add_argument("--mode", choices=list(MODES), default=None)
    p.add_argument("--top-k", dest="sampler.top_k", type=int, metavar="K",
                   help="override [sampler] top_k")
    p.add_argument("--batch", dest="sampler.batch", type=int, metavar="N",
                   help="override [sampler] batch")
    command("evaluate", cmd_evaluate)
    command("gridsearch", cmd_gridsearch, seed="sampler")
    command("extrapolate", cmd_extrapolate, seed="sampler")
    command("ode-sweep", cmd_ode_sweep, seed="sampler")
    command("ablate", cmd_ablate)
    return parser


def _load_run(args) -> RunConfig:
    overrides = {key: value for key, value in vars(args).items()
                 if "." in key and value is not None}
    return load_config(args.config, overrides)


def _task_data(cfg: RunConfig) -> TaskData:
    if cfg.task.name == "csv":
        return build_csv_task(cfg.paths.data, range_file=cfg.paths.range_file)
    try:
        return build_synthetic_task(cfg.task.name, cfg.task.seed, spec=cfg.task.spec)
    except ValueError as exc:  # a [task] spec that builds no task
        raise ConfigError([f"[task] {exc}"]) from None


def cmd_train_vae(cfg: RunConfig, args) -> int:
    model, report = train_vae_stage(_task_data(cfg), cfg.task.seed, cfg.vae)
    checksums = vaemod.save_vae(model, cfg.paths.workdir)
    atomic_write_json(cfg.paths.workdir / "vae_report.json",
                      {"report": dataclasses.asdict(report), "checksums": checksums})
    print(f"vae checkpoints written to {cfg.paths.workdir} "
          f"(val accuracy {report.val_accuracy:.3f})")
    return 0


def _checkpoint(cfg: RunConfig, name: str, command: str) -> Path:
    """The workdir checkpoint `name`; a missing one is an i/o error that
    names the `seqopt` command writing it."""
    path = cfg.paths.workdir / name
    if not path.exists():
        raise CheckpointError(f"missing checkpoint {path}; run `seqopt {command}`")
    return path


def _load_vae(cfg: RunConfig) -> vaemod.VaeModel:
    for name in ("vae_encoder.npz", "vae_decoder.npz"):
        _checkpoint(cfg, name, "train-vae")
    return vaemod.load_vae(cfg.paths.workdir)


def cmd_train_prior(cfg: RunConfig, args) -> int:
    task = _task_data(cfg)
    vae = _load_vae(cfg)
    model, losses = train_prior_stage(task, vae, cfg.task.seed, cfg.flow,
                                      conditional=args.conditional)
    name = "flow_conditional.npz" if args.conditional else "flow.npz"
    checksum = flowmod.save_flow(model, cfg.paths.workdir / name)
    atomic_write_json(cfg.paths.workdir / f"{name.removesuffix('.npz')}_report.json",
                      {"per_epoch": losses, "checksum": checksum,
                       "conditional": args.conditional})
    print(f"flow checkpoint written to {cfg.paths.workdir / name}")
    return 0


def cmd_train_predictor(cfg: RunConfig, args) -> int:
    model, report = train_predictor_stage(_task_data(cfg), cfg.task.seed, cfg.predictor,
                                          role=args.role)
    out = cfg.paths.workdir / f"{args.role}.npz"
    checksum = save_predictor(model, out)
    atomic_write_json(out.with_name(out.stem + "_report.json"),
                      {"report": dataclasses.asdict(report), "checksum": checksum,
                       "role": args.role})
    print(f"{args.role} checkpoint written to {out}")
    return 0


def _load_assets(cfg: RunConfig, mode: str | None = None,
                 oracle: bool = True) -> TaskAssets:
    """The task and the workdir's models, plus the evaluation oracle unless
    `oracle` is false. The conditional flow is loaded, and required, exactly
    when the command samples in `mode` (by default `[sampler] mode`)
    learned_posterior."""
    task = _task_data(cfg)
    vae = _load_vae(cfg)
    flow = flowmod.load_flow(_checkpoint(cfg, "flow.npz", "train-prior"))
    predictor = load_external_predictor(_checkpoint(cfg, "predictor.npz", "train-predictor"))
    flow_conditional = None
    if (mode or cfg.sampler.mode) == "learned_posterior":
        flow_conditional = flowmod.load_flow(
            _checkpoint(cfg, "flow_conditional.npz", "train-prior --conditional"))
    return TaskAssets(name=cfg.task.name, vocab=task.vocab, train=task.train,
                      normalizer=task.normalizer,
                      oracle=task_oracle(task, cfg.paths.oracle_checkpoint) if oracle else None,
                      vae=vae, flow=flow, predictor=predictor,
                      flow_conditional=flow_conditional)


def cmd_sample(cfg: RunConfig, args) -> int:
    sampler = cfg.sampler if args.mode is None else cfg.sampler.for_mode(args.mode)
    assets = _load_assets(cfg, sampler.mode, oracle=False)
    result = guided_sample(sampler, assets.flow_for(sampler.mode), assets.vae,
                           assets.predictor)
    out = results_dir(cfg.paths.results, cfg.task.name, "sample")
    payload = result.to_json(assets.vocab)
    payload["config_echo"] = config_echo(dataclasses.replace(cfg, sampler=sampler))
    atomic_write_json(out / "sample.json", payload)
    print(f"wrote {out / 'sample.json'} ({len(result.sequences)} sequences"
          f"{', SHORTFALL' if result.shortfall else ''})")
    return 0


def cmd_evaluate(cfg: RunConfig, args) -> int:
    assets = _load_assets(cfg)
    summary, results = run_benchmark(assets, cfg.sampler, cfg.evaluate.seeds,
                                     process_cores(), keep_samples=True)
    out = results_dir(cfg.paths.results, cfg.task.name, "evaluate")
    write_summary(out, {"summary": summary.to_json(), "config_echo": config_echo(cfg)})
    write_samples(out, results, assets.vocab)
    print(f"{cfg.task.name} [{cfg.sampler.mode}]  fitness | diversity | novelty:  "
          f"{summary.format_row()}")
    print(f"results in {out}")
    return 0


def _write_rows(cfg: RunConfig, experiment: str, key: str, rows: list[dict]) -> Path:
    """A new run directory holding the rows as cells.csv and, under `key`,
    in summary.json beside the config echo."""
    out = results_dir(cfg.paths.results, cfg.task.name, experiment)
    write_cells_csv(out, rows)
    write_summary(out, {key: rows, "config_echo": config_echo(cfg)})
    return out


def cmd_gridsearch(cfg: RunConfig, args) -> int:
    assets = _load_assets(cfg)
    cells = grid_search(assets, cfg.sampler, cfg.grid.alphas, cfg.grid.guidance_steps)
    out = _write_rows(cfg, "gridsearch", "cells", cells)
    failed = sum(1 for c in cells if c["error"])
    print(f"wrote {len(cells)} cells ({failed} failed) to {out}")
    return 0


def cmd_extrapolate(cfg: RunConfig, args) -> int:
    check_guided(cfg.sampler)  # before the checkpoints load
    assets = _load_assets(cfg, "learned_posterior")
    base = dataclasses.replace(cfg.sampler, batch=cfg.extrapolate.batch,
                               top_k=cfg.extrapolate.batch)
    rows = extrapolation_experiment(assets, cfg.extrapolate.y_values, base_cfg=base)
    out = _write_rows(cfg, "extrapolate", "rows", rows)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def cmd_ode_sweep(cfg: RunConfig, args) -> int:
    assets = _load_assets(cfg)
    rows = ode_steps_sweep(assets, cfg.sampler, cfg.ode_sweep.steps)
    out = _write_rows(cfg, "ode-sweep", "rows", rows)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def cmd_ablate(cfg: RunConfig, args) -> int:
    check_guided(cfg.sampler)  # before the checkpoints load
    assets = _load_assets(cfg, "learned_posterior")
    rows = ablation_table(assets, cfg.sampler, cfg.evaluate.seeds)
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
            return args.handler(cfg, args)
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
