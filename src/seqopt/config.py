"""Run configuration: one INI file with sections for the task, paths, model
hyperparameters, the sampler, and each experiment. `RunConfig` holds one
dataclass per section, and one reader reads every section field by field: a
field's name is its key, its default the key's default, its declared type the
key's parser, and its dataclass's `__post_init__` holds the checks. [task]
also holds a synthetic task's `SyntheticTaskSpec` fields, which default to the
named task's entry in `SYNTHETIC_TASKS`. Validation collects every problem
before reporting, and paths, defaults included, are relative to the config
file's directory."""

from __future__ import annotations

import configparser
import json
import math
import typing
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
CSV_PATHS = ("data", "range_file", "oracle_checkpoint")   # [paths] keys of csv tasks


@dataclass(frozen=True)
class TaskSection:
    name: str = "synthetic-medium"
    seed: int = 0
    spec: SyntheticTaskSpec | None = None   # read from [task] too; None for csv tasks

    def __post_init__(self):
        if self.name not in TASK_NAMES:
            raise ValueError(f"name must be one of {TASK_NAMES}, got {self.name!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class PathsSection:
    data: Path | None = None
    range_file: Path | None = None
    oracle_checkpoint: Path | None = None
    workdir: Path = Path("runs", "synthetic-medium")    # runs/<[task] name>
    results: Path = Path("results")

    def __post_init__(self):
        missing = [f"{name} not found: {path}" for name in CSV_PATHS
                   if (path := getattr(self, name)) is not None and not path.exists()]
        if missing:
            raise ConfigError(missing)


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


def _parse(hint, text: str):
    """An INI value as the declared type `hint`: `X | None` reads X, or None
    when empty; `tuple[X, ...]` a comma- or space-separated list of X; any
    other type is called on the text, which must not be empty."""
    args = typing.get_args(hint)
    if type(None) in args:
        return _parse(args[0], text) if text else None
    if typing.get_origin(hint) is tuple:
        return tuple(_parse(args[0], item) for item in text.replace(",", " ").split())
    if not text:
        raise ValueError("empty value")
    return hint(text)


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
        parser.read(str(path))  # a str, so that errors quote the path, not its repr
    except configparser.Error as exc:
        raise ConfigError([f"unparseable config: {exc}"]) from None
    for key, value in (overrides or {}).items():
        section, _, option = key.partition(".")
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, option, str(value))

    problems: list[str] = []
    sections = [f.name for f in fields(RunConfig)]
    for section in parser.sections():
        if section not in sections:
            problems.append(f"[{section}]: unknown section; the sections are "
                            f"{', '.join(sections)}")
    # {section: {key: None where a field reads it, else why it is not read}}
    known: dict[str, dict] = {}

    def read(section, default, skip={}):
        """`default` with each field not in `skip` read from [section] under
        its own name and parsed by its declared type; None if the dataclass
        refuses. `skip` maps a field to why its key is not read, or to None
        where the field is no key. A non-finite float or an empty list is a
        problem, and a path is relative to the config file's directory."""
        hints = typing.get_type_hints(type(default))
        keys = known.setdefault(section, {})
        keys.update((name, why) for name, why in skip.items() if why)
        values = {}
        for name in (f.name for f in fields(default) if f.name not in skip):
            keys[name] = None
            value = getattr(default, name)
            if parser.has_option(section, name):
                text = parser.get(section, name)
                try:
                    value = _parse(hints[name], text)
                except ValueError:
                    problems.append(f"[{section}] {name}: cannot parse {text!r}")
                    continue
                if isinstance(value, float) and not math.isfinite(value):
                    problems.append(f"[{section}] {name}: must be finite, got {value}")
                    continue
                if value == ():
                    problems.append(f"[{section}] {name} must be non-empty")
                    continue
            values[name] = path.parent / value if isinstance(value, Path) else value
        try:
            return replace(default, **values)
        except ValueError as exc:  # a ConfigError lists each of its problems
            problems.extend(f"[{section}] {p}" for p in getattr(exc, "problems", [exc]))
            return None

    task = read("task", TaskSection(), skip={"spec": None})
    if task is None:  # check [task] and [paths] against the keys any task takes
        known["task"].update(dict.fromkeys(f.name for f in fields(SyntheticTaskSpec)))
        paths = read("paths", PathsSection())
    elif task.name == "csv":
        known["task"].update((f.name, "not read for csv tasks")
                             for f in fields(SyntheticTaskSpec) if f.name != "name")
        paths = read("paths", PathsSection(workdir=Path("runs", task.name)))
        if paths is not None and paths.data is None:
            problems.append("[paths] data is required for csv tasks")
    else:
        task = replace(task, spec=read("task", SYNTHETIC_TASKS[task.name],
                                       skip={"name": None}))
        paths = read("paths", PathsSection(workdir=Path("runs", task.name)),
                     skip=dict.fromkeys(CSV_PATHS, "not read for synthetic tasks"))
    read_sections = [read("vae", VaeConfig()),
                     read("flow", FlowTrainConfig(seed=task.seed if task else 0),
                          skip={"seed": "not read; the flow is seeded with [task] seed"}),
                     read("predictor", PredictorConfig()),
                     read("sampler", SAMPLER_DEFAULTS),
                     read("evaluate", EvaluateConfig()),
                     read("grid", GridConfig()),
                     read("extrapolate", ExtrapolateConfig()),
                     read("ode_sweep", OdeSweepConfig())]

    for section, keys in known.items():
        options = ", ".join(name for name, why in keys.items() if why is None)
        for option in parser.options(section) if parser.has_section(section) else ():
            why = keys.get(option, f"unknown option; the options are {options}")
            if why is not None:
                problems.append(f"[{section}] {option}: {why}")
    if problems:
        raise ConfigError(problems)
    return RunConfig(task, paths, *read_sections)


def config_echo(cfg: RunConfig) -> dict:
    """JSON-friendly snapshot of the effective configuration: each section's
    fields, with tuples as lists and paths as strings."""
    return json.loads(json.dumps(asdict(cfg), default=str))
