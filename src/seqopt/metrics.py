"""Evaluation metrics for generated sequence sets: oracle-normalized median
fitness, within-set diversity, and novelty against the training data."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, FitnessNormalizer
from .seqs import min_distance_to_set, pairwise_distances


@dataclass(frozen=True)
class MetricReport:
    median_fitness: float
    diversity: float
    novelty: float
    n_sequences: int
    seed: int
    exact_train_matches: int = 0


def median_normalized_fitness(seqs: np.ndarray, oracle,
                              normalizer: FitnessNormalizer) -> float:
    """Median of (oracle(x) - y_min) / (y_max - y_min); not clipped, and an
    even count averages the central two values."""
    seqs = np.atleast_2d(np.asarray(seqs))
    if seqs.shape[0] == 0:
        raise ValueError("empty sequence set")
    return float(np.median(normalizer.normalize(oracle.predict_sequences(seqs))))


def diversity(seqs: np.ndarray) -> float:
    """Median edit distance over all unordered distinct pairs."""
    seqs = np.atleast_2d(np.asarray(seqs))
    if seqs.shape[0] < 2:
        raise ValueError("diversity needs at least 2 sequences")
    return float(np.median(pairwise_distances(seqs)))


def novelty(seqs: np.ndarray, train: Dataset | np.ndarray) -> float:
    """Median over generated sequences of the minimum edit distance to the
    training set. A generated sequence that already exists in the training
    set contributes distance 0."""
    seqs = np.atleast_2d(np.asarray(seqs))
    train_seqs = train.sequences if isinstance(train, Dataset) else np.atleast_2d(train)
    if seqs.shape[0] == 0 or train_seqs.shape[0] == 0:
        raise ValueError("novelty needs non-empty generated and training sets")
    return float(np.median(min_distance_to_set(seqs, train_seqs)))


def count_exact_train_matches(seqs: np.ndarray, train: Dataset | np.ndarray) -> int:
    seqs = np.atleast_2d(np.asarray(seqs))
    train_seqs = train.sequences if isinstance(train, Dataset) else np.atleast_2d(train)
    rows = {t.tobytes() for t in np.asarray(train_seqs, dtype=np.int64)}
    return sum(1 for s in np.asarray(seqs, dtype=np.int64) if s.tobytes() in rows)


def compute_metrics(seqs: np.ndarray, oracle, normalizer: FitnessNormalizer,
                    train: Dataset, seed: int) -> MetricReport:
    seqs = np.atleast_2d(np.asarray(seqs))
    return MetricReport(
        median_fitness=median_normalized_fitness(seqs, oracle, normalizer),
        diversity=diversity(seqs) if seqs.shape[0] >= 2 else 0.0,
        novelty=novelty(seqs, train),
        n_sequences=int(seqs.shape[0]),
        seed=seed,
        exact_train_matches=count_exact_train_matches(seqs, train),
    )
