import numpy as np
import pytest

from _datafiles import write_csv, write_range_file
from seqopt.data import (DataFormatError, Dataset, FitnessNormalizer,
                         difficulty_filter, load_csv)
from seqopt.seqs import Vocabulary
from test_seqs import shared_query


@pytest.fixture(scope="module")
def vocab():
    return Vocabulary.amino_acids()


class TestNormalizer:
    def test_endpoints(self):
        n = FitnessNormalizer(2.0, 6.0)
        assert n.normalize(2.0) == 0.0
        assert n.normalize(6.0) == 1.0

    def test_no_clipping(self):
        n = FitnessNormalizer(0.0, 1.0)
        assert n.normalize(-0.5) == -0.5
        assert n.normalize(1.5) == 1.5

    def test_round_trip_identity(self):
        n = FitnessNormalizer(-3.2, 11.7)
        np.testing.assert_allclose(n.normalize([-3.2, 4.25, 11.7, -18.1, 26.6]),
                                   [0.0, 0.5, 1.0, -1.0, 2.0], rtol=0, atol=1e-15)
        rng = np.random.default_rng(0)
        y = rng.uniform(-50, 50, size=200)
        back = n.normalize(y) * (11.7 + 3.2) - 3.2
        assert np.abs(back - y).max() / np.abs(y).max() < 1e-12

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValueError):
            FitnessNormalizer(1.0, 1.0)


class TestDataset:
    def test_subset_keeps_parent_extremes(self):
        seqs = np.arange(12).reshape(4, 3) % 5
        ds = Dataset.from_arrays(seqs, [0.0, 1.0, 2.0, 3.0])
        sub = ds.subset([1, 2])
        assert sub.n == 2
        assert (sub.y_min, sub.y_max) == (0.0, 3.0)
        np.testing.assert_allclose(sub.normalized_fitness(), [1 / 3, 2 / 3])

    def test_non_finite_fitness_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 3), dtype=int), np.array([0.0, np.nan]), 0.0, 1.0)


class TestLoadCsv:
    def test_basic_with_sidecar_range(self, tmp_path, vocab):
        p = tmp_path / "d.csv"
        p.write_text("sequence,fitness\nACD,0.1\nACC,0.2\nADD,0.3\n")
        r = tmp_path / "d.range"
        r.write_text("y_min=0\ny_max=1\n")
        ds = load_csv(p, vocab, range_file=r)
        assert ds.n == 3 and (ds.y_min, ds.y_max) == (0.0, 1.0)
        np.testing.assert_allclose(ds.fitness, [0.1, 0.2, 0.3])

    def test_range_from_file_itself(self, tmp_path, vocab):
        p = tmp_path / "d.csv"
        p.write_text("sequence,fitness\nACD,0.1\nACC,0.4\n")
        ds = load_csv(p, vocab)
        assert (ds.y_min, ds.y_max) == (0.1, 0.4)

    @pytest.mark.parametrize("rows,range_text,named,values", [
        ("ACD,0.1\nACC,0.2\n", "y_min=1.0\ny_max=0.0\n", "d.range",
         "y_min=1.0, y_max=0.0"),
        ("ACD,0.1\nACC,0.2\n", "y_min=nan\ny_max=1.0\n", "d.range",
         "y_min=nan, y_max=1.0"),
        ("ACD,0.3\nACC,0.3\n", None, "d.csv", "y_min=0.3, y_max=0.3"),
    ], ids=["reversed", "nan", "all_equal"])
    def test_degenerate_range_names_file_and_values(self, tmp_path, vocab, rows,
                                                     range_text, named, values):
        p = tmp_path / "d.csv"
        p.write_text("sequence,fitness\n" + rows)
        r = None
        if range_text is not None:
            r = tmp_path / "d.range"
            r.write_text(range_text)
        with pytest.raises(DataFormatError) as exc:
            load_csv(p, vocab, range_file=r)
        assert str(exc.value).startswith(f"{tmp_path / named}: ")
        assert values in str(exc.value)

    def test_range_key_declared_twice_rejected(self, tmp_path, vocab):
        # an appended line must not silently renormalize every fitness
        p = tmp_path / "d.csv"
        p.write_text("sequence,fitness\nACD,0.1\nACC,0.2\n")
        r = tmp_path / "d.range"
        r.write_text("y_min=0\ny_max=1\n\ny_max=2\n")
        with pytest.raises(DataFormatError) as exc:
            load_csv(p, vocab, range_file=r)
        assert str(exc.value) == f"{r}: line 4: y_max declared twice"

    def test_aav_length_28_accepted(self, tmp_path, vocab):
        rng = np.random.default_rng(5)
        rows = ["sequence,fitness"]
        for i in range(4):
            seq = "".join(vocab.tokens[j] for j in rng.integers(0, 20, size=28))
            rows.append(f"{seq},{0.1 * i}")
        p = tmp_path / "aav.csv"
        p.write_text("\n".join(rows) + "\n")
        ds = load_csv(p, vocab)
        assert ds.length == 28 and ds.n == 4

    def test_ragged_length_rejected(self, tmp_path, vocab):
        p = tmp_path / "d.csv"
        p.write_text("sequence,fitness\nACDA,0.1\nACD,0.2\n")
        with pytest.raises(DataFormatError, match="length"):
            load_csv(p, vocab)

    def test_non_numeric_fitness_rejected(self, tmp_path, vocab):
        p = tmp_path / "d.csv"
        p.write_text("sequence,fitness\nACD,high\n")
        with pytest.raises(DataFormatError, match="non-numeric"):
            load_csv(p, vocab)

    def test_empty_file_rejected(self, tmp_path, vocab):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(DataFormatError, match="empty"):
            load_csv(p, vocab)

    def test_bad_header_rejected(self, tmp_path, vocab):
        p = tmp_path / "d.csv"
        p.write_text("seq,fit\nACD,0.1\n")
        with pytest.raises(DataFormatError, match="header"):
            load_csv(p, vocab)

    def test_unknown_symbol_rejected_with_position(self, tmp_path, vocab):
        p = tmp_path / "d.csv"
        p.write_text("sequence,fitness\nACZ9,0.1\n")
        with pytest.raises(DataFormatError, match="position 2"):
            load_csv(p, vocab)

    def test_write_read_round_trip(self, tmp_path, vocab):
        rng = np.random.default_rng(9)
        ds = Dataset.from_arrays(rng.integers(0, 20, size=(6, 10)),
                                 rng.uniform(-1, 2, size=6))
        p = tmp_path / "out.csv"
        write_csv(ds, p, vocab)
        write_range_file(ds, tmp_path / "out.range")
        back = load_csv(p, vocab, range_file=tmp_path / "out.range")
        np.testing.assert_array_equal(back.sequences, ds.sequences)
        np.testing.assert_allclose(back.fitness, ds.fitness)
        assert (back.y_min, back.y_max) == (ds.y_min, ds.y_max)

    def test_writer_failing_mid_write_keeps_previous_file(self, tmp_path, vocab):
        rng = np.random.default_rng(10)
        p = tmp_path / "out.csv"
        write_csv(Dataset.from_arrays(rng.integers(0, 20, size=(4, 6)),
                                      rng.uniform(0, 1, size=4)), p, vocab)
        before = p.read_bytes()
        seqs = rng.integers(0, 20, size=(4, 6))
        seqs[2, 3] = vocab.size  # detokenize raises after two rows were written
        with pytest.raises(ValueError, match="out of vocabulary"):
            write_csv(Dataset.from_arrays(seqs, rng.uniform(0, 1, size=4)), p, vocab)
        assert p.read_bytes() == before
        assert [q.name for q in tmp_path.iterdir()] == ["out.csv"]


def _toy_full_set(n=200, d=8, seed=21):
    rng = np.random.default_rng(seed)
    seqs = rng.integers(0, 6, size=(n, d))
    fitness = rng.uniform(0, 1, size=n)
    return Dataset.from_arrays(seqs, fitness)


class TestDifficultyFilter:
    def test_gap_zero_is_pure_percentile_filter(self):
        full = _toy_full_set()
        sub = difficulty_filter(full, (20, 40), gap=0)
        lo, hi = np.percentile(full.fitness, [20, 40])
        assert sub.n > 0
        assert ((sub.fitness >= lo) & (sub.fitness <= hi)).all()

    def test_output_subset_and_constraints_brute_force(self):
        full = _toy_full_set()
        gap = 3
        sub = difficulty_filter(full, (20, 40), gap=gap)
        # exhaustive re-check of both constraints against the full set
        lo, hi = np.percentile(full.fitness, [20, 40])
        top = full.sequences[full.fitness >= np.percentile(full.fitness, 99)]
        rows = {tuple(s) for s in full.sequences}
        for i in range(sub.n):
            assert tuple(sub.sequences[i]) in rows
            assert lo <= sub.fitness[i] <= hi
            assert shared_query(sub.sequences[i], top).min() >= gap
        # and no qualifying record was dropped
        kept = {(tuple(s), f) for s, f in zip(sub.sequences, sub.fitness)}
        n_qualifying = 0
        for i in range(full.n):
            if lo <= full.fitness[i] <= hi and \
               shared_query(full.sequences[i], top).min() >= gap:
                n_qualifying += 1
                assert (tuple(full.sequences[i]), full.fitness[i]) in kept
        assert n_qualifying == sub.n

    def test_upper_bound_form(self):
        full = _toy_full_set()
        sub = difficulty_filter(full, (30,), gap=0)
        hi = np.percentile(full.fitness, 30)
        assert (sub.fitness < hi).all()

    def test_empty_result_advises(self):
        full = _toy_full_set()
        with pytest.raises(ValueError, match="widen|lower"):
            difficulty_filter(full, (20, 40), gap=10 ** 6)

    def test_subset_keeps_full_extremes(self):
        full = _toy_full_set()
        sub = difficulty_filter(full, (20, 40), gap=0)
        assert (sub.y_min, sub.y_max) == (full.y_min, full.y_max)
