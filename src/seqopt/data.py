"""Fitness dataset container, CSV ingestion, normalization, and the
percentile/mutation-gap difficulty filter."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .seqs import PreparedRows, Vocabulary, min_distance_to_set, prepare_rows, tokenize


class DataFormatError(ValueError):
    """Malformed data file (bad header, ragged rows, non-numeric fitness...)."""


@dataclass(frozen=True)
class FitnessNormalizer:
    """Affine map sending y_min -> 0 and y_max -> 1. Values outside the range
    map outside [0, 1]; there is deliberately no clipping."""

    y_min: float
    y_max: float

    def __post_init__(self):
        if not (self.y_min < self.y_max):
            raise ValueError(f"need y_min < y_max, got [{self.y_min}, {self.y_max}]")

    def normalize(self, y):
        return (np.asarray(y, dtype=np.float64) - self.y_min) / (self.y_max - self.y_min)


@dataclass(frozen=True)
class Dataset:
    """Fixed-length sequence/fitness pairs.

    y_min/y_max always describe the FULL reference set the data was drawn
    from, so subsets keep normalizing with the parent's extremes.
    """

    sequences: np.ndarray  # (n, d) int64
    fitness: np.ndarray    # (n,) float64, raw scale
    y_min: float
    y_max: float

    def __post_init__(self):
        seqs = np.asarray(self.sequences, dtype=np.int64)
        fit = np.asarray(self.fitness, dtype=np.float64)
        if seqs.ndim != 2:
            raise ValueError("sequences must form an (n, d) matrix")
        if fit.shape != (seqs.shape[0],):
            raise ValueError("fitness length must match number of sequences")
        if fit.size and not np.isfinite(fit).all():
            raise ValueError("fitness values must be finite")
        if not (self.y_min < self.y_max):
            raise ValueError("need y_min < y_max")
        object.__setattr__(self, "sequences", seqs)
        object.__setattr__(self, "fitness", fit)
        self.sequences.setflags(write=False)
        self.fitness.setflags(write=False)

    @property
    def n(self) -> int:
        return self.sequences.shape[0]

    @cached_property
    def prepared_rows(self) -> PreparedRows:
        """The sequences as `min_distance_to_set`'s reference side, prepared
        on first use and kept: the arrays never change, and a process forked
        after the first use inherits them."""
        return prepare_rows(self.sequences)

    @property
    def length(self) -> int:
        return self.sequences.shape[1]

    def normalizer(self) -> FitnessNormalizer:
        return FitnessNormalizer(self.y_min, self.y_max)

    def normalized_fitness(self) -> np.ndarray:
        return self.normalizer().normalize(self.fitness)

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices)
        return Dataset(self.sequences[indices].copy(), self.fitness[indices].copy(),
                       self.y_min, self.y_max)

    @classmethod
    def from_arrays(cls, sequences, fitness) -> "Dataset":
        """Build a full reference set whose extremes define the normalizer."""
        fitness = np.asarray(fitness, dtype=np.float64)
        return cls(np.asarray(sequences), fitness,
                   float(fitness.min()), float(fitness.max()))


def _read_range_file(path: Path) -> tuple[float, float]:
    values = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        key = key.strip()
        if not sep or key not in ("y_min", "y_max"):
            raise DataFormatError(f"{path}: line {lineno}: expected 'y_min=<real>' or 'y_max=<real>'")
        if key in values:
            raise DataFormatError(f"{path}: line {lineno}: {key} declared twice")
        try:
            values[key] = float(val)
        except ValueError:
            raise DataFormatError(f"{path}: line {lineno}: non-numeric value {val.strip()!r}") from None
    if set(values) != {"y_min", "y_max"}:
        raise DataFormatError(f"{path}: range file must declare both y_min and y_max")
    return values["y_min"], values["y_max"]


def load_csv(path, vocab: Vocabulary, range_file=None) -> Dataset:
    """Load a `sequence,fitness` CSV. If `range_file` is given, y_min/y_max
    come from that sidecar declaration instead of the file's own extremes."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        if [h.strip() for h in header] != ["sequence", "fitness"]:
            raise DataFormatError(f"{path}: header must be 'sequence,fitness', got {header!r}")
        seqs, fits = [], []
        length = None
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise DataFormatError(f"{path}: line {lineno}: expected 2 fields, got {len(row)}")
            text, fit_text = row[0].strip(), row[1].strip()
            try:
                tokens = tokenize(text, vocab)
            except ValueError as exc:
                raise DataFormatError(f"{path}: line {lineno}: {exc}") from None
            if length is None:
                length = tokens.size
            elif tokens.size != length:
                raise DataFormatError(
                    f"{path}: line {lineno}: sequence length {tokens.size} != {length} seen earlier")
            try:
                fits.append(float(fit_text))
            except ValueError:
                raise DataFormatError(f"{path}: line {lineno}: non-numeric fitness {fit_text!r}") from None
            seqs.append(tokens)
    if not seqs:
        raise DataFormatError(f"{path}: no records")
    sequences = np.stack(seqs)
    fitness = np.asarray(fits, dtype=np.float64)
    if not np.isfinite(fitness).all():
        raise DataFormatError(f"{path}: non-finite fitness value")
    if range_file is not None:
        source = Path(range_file)
        y_min, y_max = _read_range_file(source)
    else:
        source = path
        y_min, y_max = float(fitness.min()), float(fitness.max())
    if not (np.isfinite([y_min, y_max]).all() and y_min < y_max):
        raise DataFormatError(f"{source}: fitness range needs finite y_min < y_max, "
                              f"got y_min={y_min!r}, y_max={y_max!r}")
    return Dataset(sequences, fitness, y_min, y_max)


def check_percentile(percentile) -> None:
    """Raise ValueError unless `percentile` is (upper,) with 0 <= upper <= 100
    or (low, high) with 0 <= low < high <= 100."""
    p = tuple(percentile)
    if not (len(p) == 1 and 0 <= p[0] <= 100 or len(p) == 2 and 0 <= p[0] < p[1] <= 100):
        raise ValueError("percentile must be one bound, 0 <= upper <= 100, or two, "
                         f"0 <= low < high <= 100, got {p}")


def difficulty_filter(full: Dataset, percentile: tuple[float, ...], gap: int) -> Dataset:
    """Select a training subset of limited difficulty.

    Keeps records whose fitness falls in the percentile band `percentile`,
    (upper,) meaning below the upper-th percentile and (low, high) the low-th
    to the high-th inclusive, AND whose minimum edit distance to every member
    of the full set's 99th-percentile top group is at least `gap` mutations.
    That test needs no distance beyond the gap, so the set distance is capped
    there (`min_distance_to_set(..., cap=gap)`).
    """
    if gap < 0:
        raise ValueError("gap must be >= 0")
    check_percentile(percentile)
    fitness = full.fitness
    bounds = np.percentile(fitness, [float(p) for p in percentile])
    if len(bounds) == 1:
        in_band = fitness < bounds[0]
    else:
        in_band = (fitness >= bounds[0]) & (fitness <= bounds[1])
    candidates = np.flatnonzero(in_band)
    if gap > 0 and candidates.size:
        top = full.sequences[fitness >= np.percentile(fitness, 99.0)]
        dists = min_distance_to_set(full.sequences[candidates], prepare_rows(top), cap=gap)
        candidates = candidates[dists >= gap]
    if candidates.size == 0:
        raise ValueError(
            f"difficulty filter (percentile {tuple(percentile)}, gap {gap}) selected "
            "nothing; widen the percentile band or lower the gap")
    return full.subset(candidates)
