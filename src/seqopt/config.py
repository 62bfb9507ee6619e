"""Run configuration: one INI file with sections for the task, paths, model
hyperparameters, the sampler, and each experiment. The model and sampler
sections are read field by field from their config dataclasses, whose values
are the defaults. Validation collects every problem before reporting, and
paths resolve relative to the config file."""

from __future__ import annotations

import configparser
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from .errors import ConfigError
from .flow import FlowTrainConfig
from .predictor import PredictorConfig
from .sampling import SamplerConfig
from .tasks import SYNTHETIC_TASKS, SyntheticTaskSpec
from .vae import VaeConfig

TASK_NAMES = tuple(sorted(SYNTHETIC_TASKS)) + ("csv",)
# [sampler] defaults to the guided sampler; SamplerConfig() itself is unguided.
SAMPLER_DEFAULTS = SamplerConfig(guidance_steps=5, alpha=0.5, seed=100)
# The integer fields of a synthetic task's spec, each read from [task] under its name.
SPEC_OPTIONS = tuple(f.name for f in fields(SyntheticTaskSpec)
                     if f.name not in ("name", "percentile"))
# Each section's options; the model and sampler sections (None) take theirs
# from their config dataclasses' fields.
OPTIONS = {
    "task": ("name", "seed", "percentile_low", "percentile_high", "percentile_upper")
    + SPEC_OPTIONS,
    "paths": ("data", "range_file", "oracle_checkpoint", "workdir", "results"),
    "vae": None, "flow": None, "predictor": None, "sampler": None,
    "evaluate": ("seeds",),
    "grid": ("alphas", "guidance_steps"),
    "extrapolate": ("y_values", "batch"),
    "ode_sweep": ("steps",),
}


@dataclass
class RunConfig:
    task_name: str
    task_seed: int
    task_spec: SyntheticTaskSpec | None      # None for csv tasks
    data_path: Path | None
    range_path: Path | None
    oracle_checkpoint: Path | None
    workdir: Path
    results: Path
    vae: VaeConfig
    flow: FlowTrainConfig
    predictor: PredictorConfig
    sampler: SamplerConfig
    eval_seeds: list[int]
    grid_alphas: list[float]
    grid_guidance_steps: list[int]
    extrapolate_y: list[float]
    extrapolate_batch: int
    ode_steps: list[int]


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.replace(",", " ").split()]


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.replace(",", " ").split()]


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Parse and validate; raises ConfigError listing all problems at once.
    `overrides` maps dotted keys (e.g. "task.seed") to replacement strings."""
    path = Path(path)
    if not path.exists():
        raise ConfigError([f"config file not found: {path}"])
    # under a default-section name no file uses, [DEFAULT] is one unknown
    # section rather than merged into every section
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       default_section="\0")
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError([f"unparseable config: {exc}"]) from None
    for key, value in (overrides or {}).items():
        section, _, option = key.partition(".")
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, option, str(value))

    problems: list[str] = []
    base = path.parent

    def check_options(section, names, skip=()):
        """A key of [section] that is not in `names`, or is in `skip` ({option:
        why it is not read}), is a problem."""
        for option in parser.options(section) if parser.has_section(section) else ():
            if option in skip:
                problems.append(f"[{section}] {option}: {skip[option]}")
            elif option not in names:
                problems.append(f"[{section}] {option}: unknown option; the options "
                                f"are {', '.join(names)}")

    for section in parser.sections():
        if section not in OPTIONS:
            problems.append(f"[{section}]: unknown section; the sections are "
                            f"{', '.join(OPTIONS)}")
        elif OPTIONS[section]:
            check_options(section, OPTIONS[section])

    def get(section, option, cast, default):
        try:
            if parser.has_option(section, option):
                return cast(parser.get(section, option))
            return default
        except ValueError:
            problems.append(f"[{section}] {option}: cannot parse {parser.get(section, option)!r}")
            return default

    name = get("task", "name", str, "synthetic-medium")
    if name not in TASK_NAMES:
        problems.append(f"[task] name must be one of {TASK_NAMES}, got {name!r}")
    task_seed = get("task", "seed", int, 0)

    task_spec = None
    if name in SYNTHETIC_TASKS:
        default_spec = SYNTHETIC_TASKS[name]
        has_band = parser.has_option("task", "percentile_low") or \
            parser.has_option("task", "percentile_high")
        has_upper = parser.has_option("task", "percentile_upper")
        if has_band and has_upper:
            problems.append("[task] percentile_low/high and percentile_upper are exclusive")
        if has_upper:
            percentile = get("task", "percentile_upper", float, 30.0)
        elif has_band:
            percentile = (get("task", "percentile_low", float, 20.0),
                          get("task", "percentile_high", float, 40.0))
        else:
            percentile = default_spec.percentile
        task_spec = replace(default_spec, percentile=percentile,
                            **{option: get("task", option, int, getattr(default_spec, option))
                               for option in SPEC_OPTIONS})

    def get_path(section, option, default=None):
        raw = get(section, option, str, None)
        if raw is None or raw == "":
            return default
        p = Path(raw)
        return p if p.is_absolute() else base / p

    data_path = get_path("paths", "data")
    range_path = get_path("paths", "range_file")
    oracle_ckpt = get_path("paths", "oracle_checkpoint")
    workdir = get_path("paths", "workdir", base / "runs" / name)
    results = get_path("paths", "results", base / "results")

    if name == "csv":
        if data_path is None:
            problems.append("[paths] data is required for csv tasks")
        elif not data_path.exists():
            problems.append(f"[paths] data file not found: {data_path}")
        if range_path is not None and not range_path.exists():
            problems.append(f"[paths] range file not found: {range_path}")
        if oracle_ckpt is not None and not oracle_ckpt.exists():
            problems.append(f"[paths] oracle checkpoint not found: {oracle_ckpt}")

    def read(section, default, skip=()):
        """`default` with each field not in `skip` read from [section] under its
        own name and cast to its default's type; None if the dataclass refuses.
        A key that is no field, or is in `skip` ({field: why it is not read}),
        is a problem."""
        names = [f.name for f in fields(default) if f.name not in skip]
        check_options(section, names, skip)
        values = {}
        for name in names:
            fallback = getattr(default, name)
            value = get(section, name, type(fallback), fallback)
            if isinstance(value, float) and not math.isfinite(value):
                problems.append(f"[{section}] {name}: must be finite, got {value}")
                value = fallback
            values[name] = value
        try:
            return replace(default, **values)
        except (ValueError, ConfigError) as exc:
            problems.append(f"[{section}] {exc}")
            return None

    vae = read("vae", VaeConfig())
    flow = read("flow", FlowTrainConfig(seed=task_seed),
                skip={"seed": "not read; the flow is seeded with [task] seed"})
    predictor = read("predictor", PredictorConfig())
    sampler = read("sampler", SAMPLER_DEFAULTS)

    eval_seeds = get("evaluate", "seeds", _ints, [100, 101, 102, 103, 104])
    grid_alphas = get("grid", "alphas", _floats, [0.0, 0.1, 0.3, 0.5])
    grid_js = get("grid", "guidance_steps", _ints, [0, 2, 5])
    extrap_y = get("extrapolate", "y_values", _floats, [0.2, 0.4, 0.6, 0.8, 1.0])
    extrap_batch = get("extrapolate", "batch", int, 256)
    ode_steps = get("ode_sweep", "steps", _ints, [4, 8, 16, 24, 32])
    if not eval_seeds:
        problems.append("[evaluate] seeds must be non-empty")
    if any(s < 0 for s in eval_seeds):
        problems.append("[evaluate] seeds must be >= 0")
    if not grid_alphas:
        problems.append("[grid] alphas must be non-empty")
    if not grid_js:
        problems.append("[grid] guidance_steps must be non-empty")
    if not extrap_y:
        problems.append("[extrapolate] y_values must be non-empty")
    if extrap_batch < 1:
        problems.append("[extrapolate] batch must be >= 1")
    if not ode_steps:
        problems.append("[ode_sweep] steps must be non-empty")
    if any(k < 1 for k in ode_steps):
        problems.append("[ode_sweep] steps must all be >= 1")

    if problems:
        raise ConfigError(problems)
    return RunConfig(task_name=name, task_seed=task_seed, task_spec=task_spec,
                     data_path=data_path, range_path=range_path,
                     oracle_checkpoint=oracle_ckpt, workdir=workdir,
                     results=results, vae=vae,
                     flow=flow, predictor=predictor, sampler=sampler,
                     eval_seeds=eval_seeds, grid_alphas=grid_alphas,
                     grid_guidance_steps=grid_js,
                     extrapolate_y=extrap_y, extrapolate_batch=extrap_batch,
                     ode_steps=ode_steps)


def config_echo(cfg: RunConfig) -> dict:
    """JSON-friendly snapshot of the effective configuration."""
    return {
        "task": {"name": cfg.task_name, "seed": cfg.task_seed,
                 "spec": asdict(cfg.task_spec) if cfg.task_spec else None},
        "paths": {"data": str(cfg.data_path) if cfg.data_path else None,
                  "range_file": str(cfg.range_path) if cfg.range_path else None,
                  "oracle_checkpoint": str(cfg.oracle_checkpoint) if cfg.oracle_checkpoint else None,
                  "workdir": str(cfg.workdir), "results": str(cfg.results)},
        "vae": asdict(cfg.vae),
        "flow": asdict(cfg.flow),
        "predictor": asdict(cfg.predictor),
        "sampler": asdict(cfg.sampler),
        "evaluate": {"seeds": cfg.eval_seeds},
        "grid": {"alphas": cfg.grid_alphas, "guidance_steps": cfg.grid_guidance_steps},
        "extrapolate": {"y_values": cfg.extrapolate_y, "batch": cfg.extrapolate_batch},
        "ode_sweep": {"steps": cfg.ode_steps},
    }

