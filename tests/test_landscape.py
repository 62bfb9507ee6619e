import dataclasses

import numpy as np
import pytest

from seqopt.landscape import (ROW_BLOCK, make_edit_pool, make_landscape, sample_mutants,
                              synthetic_full_dataset)
from seqopt.seqs import Vocabulary


@pytest.fixture(scope="module")
def vocab():
    return Vocabulary.amino_acids()


def rotation_pool(target, vocab_size):
    """The (d, |V| - 1) edit pool of every non-target token, (target[pos] + 1
    + c) % |V| in column c: a uniform pick from it is a uniform shift in
    [1, |V|)."""
    return (np.asarray(target)[:, None] + 1 + np.arange(vocab_size - 1)) % vocab_size


def naive_fitness(landscape, seq):
    """Independent term-by-term re-summation."""
    total = 0.0
    for pos, tok in enumerate(seq):
        total += landscape.linear[pos, tok]
    for (i, j), (ti, tj), w in zip(landscape.pair_pos, landscape.pair_tok,
                                   landscape.pair_weight):
        if seq[i] == ti and seq[j] == tj:
            total += w
    return (total - landscape.raw_min) / (landscape.raw_max - landscape.raw_min)


class TestLandscape:
    def test_target_is_optimum_linear_only(self, vocab):
        ls = make_landscape(seed=0, length=12, vocab=vocab, n_pairs=0)
        assert ls.fitness_many(ls.target[None])[0] == pytest.approx(1.0)

    def test_target_is_optimum_with_pairs(self, vocab):
        ls = make_landscape(seed=1, length=12, vocab=vocab)
        assert ls.fitness_many(ls.target[None])[0] == pytest.approx(1.0)
        # no random sequence beats the constructed optimum
        rng = np.random.default_rng(2)
        seqs = rng.integers(0, vocab.size, size=(500, 12))
        assert ls.fitness_many(seqs).max() <= 1.0 + 1e-12

    def test_all_mismatch_is_zero(self, vocab):
        ls = make_landscape(seed=3, length=10, vocab=vocab, n_pairs=0)
        worst = (ls.target + 1) % vocab.size
        assert ls.fitness_many(worst[None])[0] == pytest.approx(0.0)

    def test_matches_naive_evaluator(self, vocab):
        ls = make_landscape(seed=4, length=15, vocab=vocab)
        rng = np.random.default_rng(5)
        for _ in range(50):
            seq = rng.integers(0, vocab.size, size=15)
            assert ls.fitness_many(seq[None])[0] == pytest.approx(naive_fitness(ls, seq),
                                                                  abs=1e-12)

    def test_deterministic_given_seed(self, vocab):
        a = make_landscape(seed=6, length=9, vocab=vocab)
        b = make_landscape(seed=6, length=9, vocab=vocab)
        np.testing.assert_array_equal(a.target, b.target)
        np.testing.assert_array_equal(a.linear, b.linear)
        np.testing.assert_array_equal(a.pair_weight, b.pair_weight)

    def test_length_mismatch_rejected(self, vocab):
        ls = make_landscape(seed=7, length=9, vocab=vocab)
        with pytest.raises(ValueError, match="length"):
            ls.fitness_many(np.zeros((1, 5), dtype=np.int64))


def formula_fitness(landscape, seqs):
    """`fitness_many`'s sums in their first written form: a 2-D gather of
    the linear terms, and both keys of every pair compared per pair."""
    seqs = np.atleast_2d(np.asarray(seqs, dtype=np.int64))
    raw = landscape.linear[np.arange(landscape.length)[None, :], seqs].sum(axis=1)
    if landscape.pair_weight.size:
        hit = ((seqs[:, landscape.pair_pos[:, 0]] == landscape.pair_tok[None, :, 0])
               & (seqs[:, landscape.pair_pos[:, 1]] == landscape.pair_tok[None, :, 1]))
        raw = raw + hit @ landscape.pair_weight
    return (raw - landscape.raw_min) / (landscape.raw_max - landscape.raw_min)


class TestFitnessBits:
    """`fitness_many` gives the formula's bits, whatever the pairs' keys."""

    @staticmethod
    def rows(rng, ls, count, vocab):
        """Random rows, and mutants of the target, where pairs fire."""
        mutants = sample_mutants(ls, count, int(rng.integers(100)),
                                 rotation_pool(ls.target, vocab.size))
        return np.concatenate([rng.integers(0, vocab.size, size=(count, ls.length)), mutants])

    @pytest.mark.parametrize("count", [0, 1, 300])
    def test_pairs_off_target_and_repeated_keys(self, vocab, count):
        """Pair tokens drawn at random, not the target's, over few positions,
        so that (position, token) keys repeat within and across pairs."""
        rng = np.random.default_rng(40 + count)
        base = make_landscape(seed=41, length=9, vocab=vocab)
        pos = np.sort(rng.choice(3, size=(30, 2)), axis=1)
        pos[pos[:, 0] == pos[:, 1], 1] += 1
        tok = np.where(rng.random((30, 2)) < 0.5, base.target[pos],
                       rng.integers(0, 3, size=(30, 2)))
        ls = dataclasses.replace(base, pair_pos=pos, pair_tok=tok,
                                 pair_weight=rng.uniform(0.25, 1.0, size=30))
        seqs = self.rows(rng, ls, count, vocab)
        seqs[: len(seqs) // 2, :4] = rng.integers(0, 3, size=(len(seqs) // 2, 4))
        keys = {(p, t) for p, t in zip(pos.ravel(), tok.ravel())}
        assert len(keys) < pos.size and (tok != base.target[pos]).any()
        got = ls.fitness_many(seqs)
        assert got.shape == (2 * count,) and got.dtype == np.float64
        assert got.tobytes() == formula_fitness(ls, seqs).tobytes()
        if count == 300:  # some pairs fire, others do not
            fired = (seqs[:, pos[:, 0]] == tok[:, 0]) & (seqs[:, pos[:, 1]] == tok[:, 1])
            assert 0 < fired.sum() < fired.size

    @pytest.mark.parametrize("length,n_pairs", [(1, 0), (6, 0), (20, None)])
    @pytest.mark.parametrize("count", [0, 1, 300])
    def test_generated_landscapes(self, vocab, length, n_pairs, count):
        rng = np.random.default_rng(50 + length + count)
        pool = make_edit_pool(51, make_landscape(52, length, vocab, n_pairs=0).target, vocab)
        ls = make_landscape(52, length, vocab, n_pairs=n_pairs, decoy_tokens=pool)
        seqs = self.rows(rng, ls, count, vocab)
        got = ls.fitness_many(seqs)
        assert got.shape == (2 * count,)
        assert got.tobytes() == formula_fitness(ls, seqs).tobytes()
        if count:
            assert ls.fitness_many(seqs[0]).tobytes() == got[:1].tobytes()

    @pytest.mark.parametrize("count", [1, 1023, 1024, 1025, 2049])
    def test_block_boundaries(self, vocab, count):
        """`fitness_many` scores 1,024 rows at a time; every cut gives the
        one-shot formula's bits."""
        rng = np.random.default_rng(60 + count)
        pool = make_edit_pool(61, make_landscape(62, 20, vocab, n_pairs=0).target, vocab)
        ls = make_landscape(62, 20, vocab, decoy_tokens=pool)
        mutants = sample_mutants(ls, count, 63, pool, max_mutations=6)
        seqs = np.where(rng.random((count, 1)) < 0.25,
                        rng.integers(0, vocab.size, size=(count, 20)), mutants)
        got = ls.fitness_many(seqs)
        assert got.shape == (count,)
        assert got.tobytes() == formula_fitness(ls, seqs).tobytes()


def _loop_mutants(landscape, count, seed, vocab, edit_tokens=None, min_mutations=1,
                 max_mutations=None):
    """Reference sampler: one `choice` and one `integers` call per row."""
    rng = np.random.default_rng(seed)
    d, v = landscape.length, vocab.size
    if max_mutations is None:
        max_mutations = d
    seqs = np.tile(landscape.target, (count, 1))
    n_mut = rng.integers(min_mutations, max_mutations + 1, size=count)
    for i in range(count):
        pos = rng.choice(d, size=n_mut[i], replace=False)
        if edit_tokens is None:
            shift = rng.integers(1, v, size=n_mut[i])
            seqs[i, pos] = (seqs[i, pos] + shift) % v
        else:
            pick = rng.integers(0, edit_tokens.shape[1], size=n_mut[i])
            seqs[i, pos] = edit_tokens[pos, pick]
    return seqs


class TestMutantSampling:
    @pytest.mark.parametrize("d", [1, 2, 20, 33])
    @pytest.mark.parametrize("width", [None, 1, 3])
    @pytest.mark.parametrize("load", ["one_to_d", "d", "half_to_d"])
    def test_equals_per_row_loop(self, vocab, d, width, load):
        """The block sampler makes the per-row loop's draws: array-bound
        `integers` draws element by element, as the scalar calls and
        small-population `choice` do. With no width, the sampler takes the
        rotation pool and the loop draws uniform shifts."""
        ls = make_landscape(seed=d, length=d, vocab=vocab, n_pairs=0)
        pool = None if width is None else make_edit_pool(d + 1, ls.target, vocab, width)
        edits = rotation_pool(ls.target, vocab.size) if pool is None else pool
        bounds = {"one_to_d": (1, d), "d": (d, d), "half_to_d": ((d + 1) // 2, d)}[load]
        for count in (0, 1, 2 * ROW_BLOCK + 3):
            got = sample_mutants(ls, count, 21, edits, *bounds)
            want = _loop_mutants(ls, count, 21, vocab, pool, *bounds)
            assert got.shape == (count, d) and got.dtype == np.int64
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("d", [2, 20, 33])
    @pytest.mark.parametrize("width", [None, 3])
    @pytest.mark.parametrize("load", ["one", "half", "d"])
    def test_equals_per_row_loop_at_one_load(self, vocab, d, width, load):
        """Every row with the same load: k = 1 (so kmax = 1), a middle k,
        and k = d, over a whole block and a part of one."""
        ls = make_landscape(seed=d, length=d, vocab=vocab, n_pairs=0)
        pool = None if width is None else make_edit_pool(d + 1, ls.target, vocab, width)
        edits = rotation_pool(ls.target, vocab.size) if pool is None else pool
        k = {"one": 1, "half": (d + 1) // 2, "d": d}[load]
        got = sample_mutants(ls, ROW_BLOCK + 5, 22, edits, k, k)
        want = _loop_mutants(ls, ROW_BLOCK + 5, 22, vocab, pool, k, k)
        np.testing.assert_array_equal(got, want)
        assert ((got != ls.target).sum(axis=1) <= k).all()

    def test_full_dataset_shape_and_extremes(self, vocab):
        ls = make_landscape(seed=8, length=10, vocab=vocab)
        ds = synthetic_full_dataset(ls, count=300, seed=9,
                                    edit_tokens=rotation_pool(ls.target, vocab.size))
        assert ds.n == 300 and ds.length == 10
        assert ds.y_min == ds.fitness.min() and ds.y_max == ds.fitness.max()
        # mutants span a wide fitness range
        assert ds.y_max - ds.y_min > 0.3

    def test_mutants_deterministic(self, vocab):
        ls = make_landscape(seed=10, length=10, vocab=vocab)
        pool = rotation_pool(ls.target, vocab.size)
        a = sample_mutants(ls, 50, seed=11, edit_tokens=pool)
        b = sample_mutants(ls, 50, seed=11, edit_tokens=pool)
        np.testing.assert_array_equal(a, b)

    def test_mutants_differ_from_target(self, vocab):
        ls = make_landscape(seed=12, length=10, vocab=vocab)
        muts = sample_mutants(ls, 100, seed=13, edit_tokens=rotation_pool(ls.target, vocab.size))
        assert (muts != ls.target).any(axis=1).all()


class TestEditPool:
    def test_pool_avoids_target_and_is_deterministic(self, vocab):
        ls = make_landscape(seed=14, length=10, vocab=vocab)
        pool = make_edit_pool(seed=15, target=ls.target, vocab=vocab, edits_per_position=3)
        assert pool.shape == (10, 3)
        assert (pool != ls.target[:, None]).all()
        pool2 = make_edit_pool(seed=15, target=ls.target, vocab=vocab, edits_per_position=3)
        np.testing.assert_array_equal(pool, pool2)

    def test_pool_mutants_only_use_pool_tokens(self, vocab):
        ls = make_landscape(seed=16, length=10, vocab=vocab)
        pool = make_edit_pool(seed=17, target=ls.target, vocab=vocab)
        muts = sample_mutants(ls, 200, seed=18, edit_tokens=pool, min_mutations=2,
                              max_mutations=6)
        for row in muts:
            changed = row != ls.target
            assert 2 <= changed.sum() <= 6
            for pos in np.flatnonzero(changed):
                assert row[pos] in pool[pos]

    def test_decoy_weights_live_on_pool(self, vocab):
        base = make_landscape(seed=19, length=8, vocab=vocab)
        pool = make_edit_pool(seed=20, target=base.target, vocab=vocab)
        ls = make_landscape(seed=19, length=8, vocab=vocab, decoy_tokens=pool,
                            target=base.target)
        np.testing.assert_array_equal(ls.target, base.target)
        off_pool = np.ones((8, vocab.size), dtype=bool)
        off_pool[np.arange(8)[:, None], pool] = False
        off_pool[np.arange(8), ls.target] = False
        assert (ls.linear[off_pool] == 0).all()
        assert (ls.linear[np.arange(8)[:, None], pool] >= 0).all()
