"""Run configuration: one INI file with sections for the task, paths, model
hyperparameters, the sampler, and each experiment. `RunConfig` holds one
dataclass per section. Every section but [task] and [paths] is read field by
field from its config dataclass, whose values are the defaults and whose
`__post_init__` holds the checks; [task] and [paths] are read by hand, since
their values depend on the task name and on the config file's directory.
Validation collects every problem before reporting, and paths resolve
relative to the config file."""

from __future__ import annotations

import configparser
import json
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
TASK_OPTIONS = ("name", "seed", "percentile_low", "percentile_high",
                "percentile_upper") + SPEC_OPTIONS


@dataclass(frozen=True)
class TaskSection:
    name: str
    seed: int
    spec: SyntheticTaskSpec | None      # None for csv tasks


@dataclass(frozen=True)
class PathsSection:
    data: Path | None
    range_file: Path | None
    oracle_checkpoint: Path | None
    workdir: Path
    results: Path


@dataclass(frozen=True)
class EvaluateConfig:
    seeds: tuple[int, ...] = (100, 101, 102, 103, 104)

    def __post_init__(self):
        if any(s < 0 for s in self.seeds):
            raise ValueError("seeds must be >= 0")


@dataclass(frozen=True)
class GridConfig:
    alphas: tuple[float, ...] = (0.0, 0.1, 0.3, 0.5)
    guidance_steps: tuple[int, ...] = (0, 2, 5)


@dataclass(frozen=True)
class ExtrapolateConfig:
    y_values: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8, 1.0)
    batch: int = 256

    def __post_init__(self):
        if not all(math.isfinite(y) for y in self.y_values):
            raise ValueError("y_values must be finite")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")


@dataclass(frozen=True)
class OdeSweepConfig:
    steps: tuple[int, ...] = (4, 8, 16, 24, 32)

    def __post_init__(self):
        if any(k < 1 for k in self.steps):
            raise ValueError("steps must all be >= 1")


@dataclass
class RunConfig:
    """One field per INI section, in file order."""
    task: TaskSection
    paths: PathsSection
    vae: VaeConfig
    flow: FlowTrainConfig
    predictor: PredictorConfig
    sampler: SamplerConfig
    evaluate: EvaluateConfig
    grid: GridConfig
    extrapolate: ExtrapolateConfig
    ode_sweep: OdeSweepConfig


def _parser_for(default):
    """Parse an INI value as the type of `default`; a tuple default reads a
    comma- or space-separated list of its elements' type."""
    if isinstance(default, tuple):
        return lambda text: tuple(map(type(default[0]), text.replace(",", " ").split()))
    return type(default)


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

    sections = [f.name for f in fields(RunConfig)]
    for section in parser.sections():
        if section not in sections:
            problems.append(f"[{section}]: unknown section; the sections are "
                            f"{', '.join(sections)}")
    check_options("task", TASK_OPTIONS)
    check_options("paths", [f.name for f in fields(PathsSection)])

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
    if task_seed < 0:
        problems.append("[task] seed must be >= 0")

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

    path_defaults = {"workdir": base / "runs" / name, "results": base / "results"}
    paths = PathsSection(**{f.name: get_path("paths", f.name, path_defaults.get(f.name))
                            for f in fields(PathsSection)})

    if name == "csv":
        if paths.data is None:
            problems.append("[paths] data is required for csv tasks")
        elif not paths.data.exists():
            problems.append(f"[paths] data file not found: {paths.data}")
        if paths.range_file is not None and not paths.range_file.exists():
            problems.append(f"[paths] range file not found: {paths.range_file}")
        if paths.oracle_checkpoint is not None and not paths.oracle_checkpoint.exists():
            problems.append(f"[paths] oracle checkpoint not found: {paths.oracle_checkpoint}")

    def read(section, default, skip=()):
        """`default` with each field not in `skip` read from [section] under its
        own name and parsed as its default's type; None if the dataclass refuses.
        A key that is no field, or is in `skip` ({field: why it is not read}),
        is a problem, and so is a non-finite float or an empty list."""
        names = [f.name for f in fields(default) if f.name not in skip]
        check_options(section, names, skip)
        values = {}
        for name in names:
            fallback = getattr(default, name)
            value = get(section, name, _parser_for(fallback), fallback)
            if isinstance(value, float) and not math.isfinite(value):
                problems.append(f"[{section}] {name}: must be finite, got {value}")
                value = fallback
            elif value == ():
                problems.append(f"[{section}] {name} must be non-empty")
                value = fallback
            values[name] = value
        try:
            return replace(default, **values)
        except (ValueError, ConfigError) as exc:
            problems.append(f"[{section}] {exc}")
            return None

    read_sections = [read("vae", VaeConfig()),
                     read("flow", FlowTrainConfig(seed=task_seed),
                          skip={"seed": "not read; the flow is seeded with [task] seed"}),
                     read("predictor", PredictorConfig()),
                     read("sampler", SAMPLER_DEFAULTS),
                     read("evaluate", EvaluateConfig()),
                     read("grid", GridConfig()),
                     read("extrapolate", ExtrapolateConfig()),
                     read("ode_sweep", OdeSweepConfig())]

    if problems:
        raise ConfigError(problems)
    return RunConfig(TaskSection(name, task_seed, task_spec), paths, *read_sections)


def config_echo(cfg: RunConfig) -> dict:
    """JSON-friendly snapshot of the effective configuration: each section's
    fields, with tuples as lists and paths as strings."""
    return json.loads(json.dumps(asdict(cfg), default=str))
