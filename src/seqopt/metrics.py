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


def _train_distances(seqs: np.ndarray, train: Dataset) -> np.ndarray:
    """Per generated sequence, the minimum edit distance to the training set,
    against its kept `prepared_rows`."""
    seqs = np.atleast_2d(np.asarray(seqs))
    refs = train.prepared_rows
    if seqs.shape[0] == 0 or refs.rows == 0:
        raise ValueError("novelty needs non-empty generated and training sets")
    return min_distance_to_set(seqs, refs)


def novelty(seqs: np.ndarray, train: Dataset) -> float:
    """Median over generated sequences of the minimum edit distance to the
    training set. A generated sequence that already exists in the training
    set contributes distance 0."""
    return float(np.median(_train_distances(seqs, train)))


def count_exact_train_matches(seqs: np.ndarray, train: Dataset) -> int:
    """Generated rows, duplicates included, that equal a training row."""
    seqs = np.atleast_2d(np.asarray(seqs))
    rows = {t.tobytes() for t in train.sequences}
    return sum(1 for s in np.asarray(seqs, dtype=np.int64) if s.tobytes() in rows)


def compute_metrics(seqs: np.ndarray, oracle, normalizer: FitnessNormalizer,
                    train: Dataset, seed: int) -> MetricReport:
    """All metrics of one generated set. Novelty and the exact training
    matches come from one pass of distances: its median, and its zeros."""
    seqs = np.atleast_2d(np.asarray(seqs))
    median_fitness = median_normalized_fitness(seqs, oracle, normalizer)
    spread = diversity(seqs) if seqs.shape[0] >= 2 else 0.0
    distances = _train_distances(seqs, train)
    return MetricReport(
        median_fitness=median_fitness,
        diversity=spread,
        novelty=float(np.median(distances)),
        n_sequences=int(seqs.shape[0]),
        seed=seed,
        exact_train_matches=int(np.count_nonzero(distances == 0)),
    )
