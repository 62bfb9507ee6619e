import numpy as np
import pytest

from seqopt import seqs as seqs_module
from seqopt.data import Dataset, FitnessNormalizer
from seqopt.metrics import (compute_metrics, count_exact_train_matches, diversity,
                            median_normalized_fitness, novelty)
from seqopt.seqs import levenshtein_one_to_many

rng = np.random.default_rng(909)


class ArrayOracle:
    """Oracle stub scoring by a fixed per-token weight sum."""

    def __init__(self, weights):
        self.weights = np.asarray(weights, dtype=np.float64)

    def predict_sequences(self, seqs):
        seqs = np.atleast_2d(seqs)
        return self.weights[seqs].sum(axis=1)


def training_side(rows):
    """A Dataset wrapping raw training rows, as the training side of novelty."""
    return Dataset(rows, np.zeros(len(rows)), 0.0, 1.0)


def brute_diversity(seqs):
    vals = [levenshtein_one_to_many(seqs[i][None], seqs[j][None])[0]
            for i in range(len(seqs)) for j in range(i + 1, len(seqs))]
    return float(np.median(vals))


def brute_novelty(seqs, train):
    vals = [min(levenshtein_one_to_many(s[None], t[None])[0] for t in train) for s in seqs]
    return float(np.median(vals))


class TestMedianFitness:
    def test_all_at_ymin_gives_zero(self):
        oracle = ArrayOracle(np.zeros(4))
        norm = FitnessNormalizer(0.0, 2.0)
        seqs = rng.integers(0, 4, size=(5, 6))
        assert median_normalized_fitness(seqs, oracle, norm) == 0.0

    def test_single_sequence_at_ymax(self):
        oracle = ArrayOracle(np.ones(4))          # every length-6 row scores 6
        norm = FitnessNormalizer(0.0, 6.0)
        assert median_normalized_fitness(rng.integers(0, 4, size=(1, 6)),
                                         oracle, norm) == 1.0

    def test_direct_median_odd(self):
        class Fixed:
            def predict_sequences(self, seqs):
                return np.array([0.1, 0.3, 0.8])

        assert median_normalized_fitness(np.zeros((3, 2), dtype=int), Fixed(),
                                         FitnessNormalizer(0.0, 1.0)) == pytest.approx(0.3)

    def test_even_count_averages_central_two(self):
        class Fixed:
            def predict_sequences(self, seqs):
                return np.array([0.0, 1.0, 0.2, 0.6])

        assert median_normalized_fitness(np.zeros((4, 2), dtype=int), Fixed(),
                                         FitnessNormalizer(0.0, 1.0)) == pytest.approx(0.4)

    def test_not_clipped(self):
        class Fixed:
            def predict_sequences(self, seqs):
                return np.array([-1.0, -1.0, 3.0])

        out = median_normalized_fitness(np.zeros((3, 2), dtype=int), Fixed(),
                                        FitnessNormalizer(0.0, 1.0))
        assert out == -1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median_normalized_fitness(np.empty((0, 3), dtype=int), ArrayOracle(np.ones(4)),
                                      FitnessNormalizer(0.0, 1.0))


class TestDiversity:
    def test_all_identical_zero(self):
        seqs = np.tile(rng.integers(0, 4, size=6), (5, 1))
        assert diversity(seqs) == 0.0

    def test_two_sequences_single_pair(self):
        a = np.array([0, 1, 2, 3])
        b = np.array([1, 1, 2, 0])  # distance 2
        assert diversity(np.stack([a, b])) == 2.0

    def test_matches_brute_force(self):
        for _ in range(30):
            n = rng.integers(2, 12)
            seqs = rng.integers(0, 5, size=(n, rng.integers(3, 12)))
            assert diversity(seqs) == brute_diversity(seqs)

    def test_needs_two(self):
        with pytest.raises(ValueError):
            diversity(np.zeros((1, 4), dtype=int))


class TestNovelty:
    def test_generated_in_training_set_gives_zero(self):
        train = rng.integers(0, 4, size=(10, 6))
        assert novelty(train[:4], training_side(train)) == 0.0

    def test_two_substitutions(self):
        s = rng.integers(0, 4, size=8)
        gen = s.copy()
        gen[1] = (gen[1] + 1) % 4
        gen[5] = (gen[5] + 2) % 4
        assert novelty(gen[None, :], training_side(s[None, :])) == 2.0

    def test_matches_brute_force(self):
        """On a Dataset wrapping raw training rows, novelty and the exact
        matches equal brute force; every third generated row is a training
        row."""
        for _ in range(30):
            seqs = rng.integers(0, 4, size=(rng.integers(1, 10), 7))
            train = rng.integers(0, 4, size=(rng.integers(1, 15), 7))
            seqs[::3] = train[np.arange(len(seqs[::3])) % len(train)]
            side = training_side(train)
            assert novelty(seqs, side) == brute_novelty(seqs, train)
            assert count_exact_train_matches(seqs, side) == sum(
                any((s == t).all() for t in train) for s in seqs)

    def test_exact_match_counting(self):
        train = rng.integers(0, 4, size=(10, 5))
        gen = np.vstack([train[3], train[7], (train[0] + 1) % 4])
        assert count_exact_train_matches(gen, training_side(train)) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            novelty(np.empty((0, 3), dtype=int), training_side(np.zeros((2, 3), dtype=int)))


class TestComputeMetrics:
    def test_report_fields_and_order_invariance(self):
        oracle = ArrayOracle(rng.uniform(0, 1, size=5))
        seqs = rng.integers(0, 5, size=(12, 6))
        train = Dataset.from_arrays(rng.integers(0, 5, size=(30, 6)),
                                    rng.uniform(0, 1, 30))
        report = compute_metrics(seqs, oracle, train.normalizer(), train, seed=9)
        assert report.n_sequences == 12 and report.seed == 9
        shuffled = compute_metrics(seqs[rng.permutation(12)], oracle,
                                   train.normalizer(), train, seed=9)
        assert report.median_fitness == shuffled.median_fitness
        assert report.diversity == shuffled.diversity
        assert report.novelty == shuffled.novelty

    @pytest.mark.parametrize("case", ["duplicates_and_matches", "no_matches", "all_matches"])
    def test_novelty_and_matches_agree_with_the_functions(self, case):
        """compute_metrics takes novelty and the exact matches from one pass
        of distances; both must equal what the standalone functions give."""
        r = np.random.default_rng(910)
        train = Dataset.from_arrays(r.integers(0, 4, size=(25, 6)), r.uniform(0, 1, 25))
        if case == "duplicates_and_matches":
            # training rows, some repeated, a repeated non-member and fresh rows
            seqs = np.vstack([train.sequences[[3, 3, 8, 20, 3]],
                              np.full((2, 6), 3), r.integers(0, 4, size=(6, 6))])
        elif case == "no_matches":
            # token 4 never occurs in training, so no row can match
            seqs = np.vstack([np.full((3, 6), 4), r.integers(0, 5, size=(4, 6))])
            seqs[3:, 0] = 4
        else:
            seqs = train.sequences[[0, 1, 1, 2, 2, 2]]
        oracle = ArrayOracle(r.uniform(0, 1, size=5))
        report = compute_metrics(seqs, oracle, train.normalizer(), train, seed=1)
        assert report.novelty == novelty(seqs, train)
        assert report.exact_train_matches == count_exact_train_matches(seqs, train)
        expected = {"duplicates_and_matches": 5, "no_matches": 0, "all_matches": 6}[case]
        assert report.exact_train_matches == expected

    def test_training_rows_deduplicated_once(self, monkeypatch):
        """A Dataset keeps its prepared side: two compute_metrics calls on it
        dedup its training rows once, and report what fresh Datasets give."""
        r = np.random.default_rng(911)
        rows, fitness = r.integers(0, 4, size=(25, 6)), r.uniform(0, 1, 25)
        train = Dataset.from_arrays(rows, fitness)
        generated = [r.integers(0, 4, size=(8, 6)) for _ in range(2)]
        oracle = ArrayOracle(r.uniform(0, 1, size=4))
        fresh = [compute_metrics(g, oracle, train.normalizer(),
                                 Dataset.from_arrays(rows, fitness), seed=0) for g in generated]
        training = []
        dedup = seqs_module.distinct_rows

        def counted(arr):
            training.append(arr.shape == rows.shape and np.array_equal(arr, rows))
            return dedup(arr)
        monkeypatch.setattr(seqs_module, "distinct_rows", counted)
        reports = [compute_metrics(g, oracle, train.normalizer(), train, seed=0)
                   for g in generated]
        assert training.count(True) == 1 and len(training) == 3
        assert reports == fresh

    def test_errors_in_order(self):
        """Fitness checks the generated set before novelty checks both sets."""
        oracle = ArrayOracle(np.ones(4))
        normalizer = Dataset.from_arrays(np.zeros((3, 5), dtype=int),
                                         np.arange(3.0)).normalizer()
        no_train = training_side(np.empty((0, 5), dtype=int))
        with pytest.raises(ValueError, match="empty sequence set"):
            compute_metrics(np.empty((0, 5), dtype=int), oracle, normalizer, no_train, 0)
        with pytest.raises(ValueError, match="novelty needs non-empty"):
            compute_metrics(np.zeros((2, 5), dtype=int), oracle, normalizer, no_train, 0)
