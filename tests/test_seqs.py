import hashlib

import numpy as np
import pytest

from seqopt import seqs
from seqopt.seqs import (AMINO_ACIDS, Vocabulary, _bounds, _popcount, detokenize,
                         distinct_rows, levenshtein_one_to_many, min_distance_to_set,
                         one_hot_batch, pairwise_distances, prepare_rows, tokenize)


def brute_levenshtein(a, b):
    """Independent full-table DP oracle."""
    a, b = list(a), list(b)
    n, m = len(a), len(b)
    D = np.zeros((n + 1, m + 1), dtype=int)
    D[:, 0] = np.arange(n + 1)
    D[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            D[i, j] = min(D[i - 1, j] + 1, D[i, j - 1] + 1,
                          D[i - 1, j - 1] + (a[i - 1] != b[j - 1]))
    return int(D[n, m])


def shared_query(query, targets):
    """The kernel with one (d,) query for every target row, passed as a
    broadcast (m, d) view."""
    query, targets = np.asarray(query, dtype=np.int64), np.asarray(targets)
    return levenshtein_one_to_many(np.broadcast_to(query, (len(targets), query.size)), targets)


@pytest.fixture(scope="module")
def vocab():
    return Vocabulary.amino_acids()


class TestVocabulary:
    def test_twenty_amino_acids(self, vocab):
        assert vocab.size == 20
        assert "".join(vocab.tokens) == AMINO_ACIDS

    def test_index_symbol_maps_inverse(self, vocab):
        for i, t in enumerate(vocab.tokens):
            assert vocab.index(t) == i

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(("A", "A", "C"))


class TestTokenize:
    def test_round_trip(self, vocab):
        assert detokenize(tokenize("ACD", vocab), vocab) == "ACD"
        np.testing.assert_array_equal(tokenize("ACD", vocab), [0, 1, 2])

    def test_empty_string(self, vocab):
        assert tokenize("", vocab).size == 0

    def test_unknown_symbol_names_position(self, vocab):
        # 'Z' already invalid at position 3; '9' at 4 never reached
        with pytest.raises(ValueError, match="position 3"):
            tokenize("ACDZ9", vocab)
        with pytest.raises(ValueError, match="position 4"):
            tokenize("ACDA9", vocab)

    def test_round_trip_random(self, vocab):
        rng = np.random.default_rng(3)
        for _ in range(20):
            seq = rng.integers(0, vocab.size, size=rng.integers(1, 30))
            text = detokenize(seq, vocab)
            np.testing.assert_array_equal(tokenize(text, vocab), seq)


class TestOneHot:
    def test_basis_rows(self):
        v = Vocabulary(("A", "B", "C"))
        np.testing.assert_array_equal(one_hot_batch(np.array([[0, 2]]), v.size),
                                      [[[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]])

    def test_rows_sum_to_one_and_argmax_inverts(self, vocab):
        rng = np.random.default_rng(7)
        seq = rng.integers(0, vocab.size, size=15)
        m = one_hot_batch(seq[None], vocab.size)[0]
        np.testing.assert_array_equal(m.sum(axis=1), np.ones(15))
        assert set(np.unique(m)) == {0.0, 1.0}
        np.testing.assert_array_equal(m.argmax(axis=1), seq)

    def test_batch_matches_single(self, vocab):
        rng = np.random.default_rng(8)
        seqs = rng.integers(0, vocab.size, size=(6, 9))
        batch = one_hot_batch(seqs, vocab.size)
        for i in range(6):
            np.testing.assert_array_equal(batch[i], one_hot_batch(seqs[i:i + 1], vocab.size)[0])


class TestLevenshtein:
    def test_identical_is_zero(self):
        assert levenshtein_one_to_many(np.array([[1, 2, 3]]), np.array([[1, 2, 3]]))[0] == 0

    def test_empty_cases(self):
        no_row = np.empty((1, 0), dtype=np.int64)
        assert levenshtein_one_to_many(no_row, np.array([[1, 2]]))[0] == 2
        assert levenshtein_one_to_many(np.array([[1, 2]]), no_row)[0] == 2
        assert levenshtein_one_to_many(no_row, no_row)[0] == 0
        assert shared_query([1, 2], np.empty((0, 3), dtype=np.int64)).shape == (0,)

    def test_matches_full_dp_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(400):
            a = rng.integers(0, 6, size=rng.integers(0, 13))
            b = rng.integers(0, 6, size=rng.integers(0, 13))
            assert levenshtein_one_to_many(a[None], b[None])[0] == brute_levenshtein(a, b)

    def test_metric_properties(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            a, b, c = (rng.integers(0, 4, size=rng.integers(1, 10)) for _ in range(3))
            dab = levenshtein_one_to_many(a[None], b[None])[0]
            dba = levenshtein_one_to_many(b[None], a[None])[0]
            assert dab >= 0
            assert dab == dba
            assert (dab == 0) == (len(a) == len(b) and (a == b).all())
            assert dab <= (levenshtein_one_to_many(a[None], c[None])[0]
                           + levenshtein_one_to_many(c[None], b[None])[0])

    def test_one_to_many_matches_scalar(self):
        rng = np.random.default_rng(13)
        q = rng.integers(0, 5, size=8)
        targets = rng.integers(0, 5, size=(40, 11))
        got = shared_query(q, targets)
        want = [brute_levenshtein(q, t) for t in targets]
        np.testing.assert_array_equal(got, want)

    def test_min_distance_and_pairwise(self):
        rng = np.random.default_rng(14)
        seqs = rng.integers(0, 4, size=(10, 7))
        refs = rng.integers(0, 4, size=(5, 7))
        # duplicated rows on either side, with the duplicated side the larger
        # or the smaller one
        for s_, r_ in ((seqs, refs), (seqs, refs[[0, 1, 0, 2, 1, 1, 4, 3, 0, 2, 4, 0]]),
                       (seqs[[3, 3, 1, 3]], refs), (seqs[[3, 3, 1, 3, 9, 1]], refs[[2, 2, 0]])):
            got = min_distance_to_set(s_, prepare_rows(r_))
            want = [shared_query(s, r_).min() for s in s_]
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)
        pd = pairwise_distances(seqs)
        assert pd.size == 45
        want_pd = [levenshtein_one_to_many(seqs[i][None], seqs[j][None])[0]
                   for i in range(10) for j in range(i + 1, 10)]
        np.testing.assert_array_equal(np.sort(pd), np.sort(want_pd))


KERNEL_LENGTHS = (0, 1, 20, 31, 32, 33, 63, 64, 65, 128, 237)


class TestBitParallelKernel:
    """The bit-parallel kernel against the full-table DP, at the lengths where
    its word layout changes: empty, one bit, the task length, either side of
    the end of the one 32-bit word, and either side of each 64-bit word
    boundary up to the GFP length."""

    @pytest.mark.parametrize("d", KERNEL_LENGTHS)
    def test_exact_at_word_boundaries(self, d):
        rng = np.random.default_rng(100 + d)
        query = rng.integers(0, 20, size=d)
        for n in KERNEL_LENGTHS:
            targets = rng.integers(0, 20, size=(3, n))
            # a near copy of the query keeps distances small, where bit errors show
            k = min(n, d)
            targets[0, :k] = query[:k]
            if k:
                targets[0, rng.integers(0, k)] = rng.integers(0, 20)
            got = shared_query(query, targets)
            want = [brute_levenshtein(query, t) for t in targets]
            np.testing.assert_array_equal(got, want, err_msg=f"d={d} n={n}")

    def test_symmetric(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            a = rng.integers(0, 5, size=rng.integers(0, 140))
            b = rng.integers(0, 5, size=rng.integers(0, 140))
            assert (levenshtein_one_to_many(a[None], b[None])[0]
                    == levenshtein_one_to_many(b[None], a[None])[0] == brute_levenshtein(a, b))

    def test_min_distance_independent_of_larger_side(self):
        rng = np.random.default_rng(23)
        small = rng.integers(0, 4, size=(3, 9))
        large = rng.integers(0, 4, size=(17, 9))
        for s_, l_ in ((small, large), (small[[2, 0, 2, 2, 1]], large),
                       (small, large[np.arange(34) % 5]),
                       (small[[1, 1, 1]], large[rng.integers(0, 17, size=40)])):
            cross = np.array([[brute_levenshtein(s, r) for r in l_] for s in s_])
            np.testing.assert_array_equal(min_distance_to_set(s_, prepare_rows(l_)),
                                          cross.min(axis=1))
            np.testing.assert_array_equal(min_distance_to_set(l_, prepare_rows(s_)),
                                          cross.min(axis=0))

    def test_min_distance_zero_length_rows_and_empty_sides(self):
        rng = np.random.default_rng(24)
        rows = rng.integers(0, 4, size=(5, 4))
        none = np.empty((0, 4), dtype=np.int64)
        for a, b, want in ((np.empty((3, 0), int), np.empty((5, 0), int), [0, 0, 0]),
                           (np.empty((3, 0), int), rows, [4, 4, 4]),
                           (np.empty((6, 0), int), rows[:2], [4] * 6),
                           (rows[:2], np.empty((6, 0), int), [4, 4]),
                           (none, rows, []),
                           (none, none, []),
                           # a minimum over no refs is the int64 identity of min
                           (rows, none, [np.iinfo(np.int64).max] * 5)):
            got = min_distance_to_set(a, prepare_rows(b))
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want, err_msg=f"{a.shape} vs {b.shape}")


BATCH_LENGTHS = (0, 1, 5, 31, 32, 33, 63, 64, 65, 100, 130)


def near_copies(rng, rows, n, edits):
    """Rows of length n that start as copies of `rows` (cut or padded with
    random tokens) and take `edits` random substitutions each: small
    distances, where bit errors show."""
    out = rng.integers(0, 6, size=(rows.shape[0], n))
    k = min(n, rows.shape[1])
    out[:, :k] = rows[:, :k]
    for _ in range(edits if n else 0):
        out[np.arange(len(out)), rng.integers(0, n, size=len(out))] = \
            rng.integers(0, 6, size=len(out))
    return out


class TestBatchedKernel:
    """The kernel on distinct and on broadcast (shared) query rows, and the
    bounded set minimum, against the full-table DP: one- and multi-word
    queries, unequal lengths, duplicate rows and empty sides."""

    @pytest.mark.parametrize("d", BATCH_LENGTHS)
    def test_per_row_and_shared_queries_match_dp(self, d):
        rng = np.random.default_rng(300 + d)
        for n in (0, 5, 64, 130):
            queries = rng.integers(0, 6, size=(6, d))
            queries[[2, 3]] = queries[1]  # a run of equal queries shares a table
            queries[5] = queries[0]       # and an equal query outside the run
            targets = np.concatenate([near_copies(rng, queries[:3], n, 2),
                                      rng.integers(0, 6, size=(3, n))])
            want = [brute_levenshtein(q, t) for q, t in zip(queries, targets)]
            got = levenshtein_one_to_many(queries, targets)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want, err_msg=f"d={d} n={n}")
            np.testing.assert_array_equal(
                shared_query(queries[1], targets),
                [brute_levenshtein(queries[1], t) for t in targets], err_msg=f"d={d} n={n}")

    def test_lane_blocks_do_not_change_results(self, monkeypatch):
        rng = np.random.default_rng(31)
        queries = rng.integers(0, 5, size=(11, 70))
        queries[4:8] = queries[3]
        targets = near_copies(rng, queries, 66, 3)
        whole = levenshtein_one_to_many(queries, targets)
        shared = shared_query(queries[0], targets)
        pairs = pairwise_distances(queries)
        minima = min_distance_to_set(queries, prepare_rows(targets))
        monkeypatch.setattr(seqs, "_LANE_BLOCK", 3)
        monkeypatch.setattr(seqs, "_PAIR_BLOCK", 5)
        np.testing.assert_array_equal(levenshtein_one_to_many(queries, targets), whole)
        np.testing.assert_array_equal(shared_query(queries[0], targets), shared)
        np.testing.assert_array_equal(pairwise_distances(queries), pairs)
        np.testing.assert_array_equal(min_distance_to_set(queries, prepare_rows(targets)), minima)
        np.testing.assert_array_equal(whole, [brute_levenshtein(q, t)
                                              for q, t in zip(queries, targets)])

    def test_per_row_query_needs_one_row_per_target(self):
        """A query of another row count, or a (d,) query, which is not
        broadcast, is refused with both shapes."""
        with pytest.raises(ValueError, match=r"one row per target row: got query shape "
                                             r"\(2, 3\) for targets \(3, 3\)"):
            levenshtein_one_to_many(np.zeros((2, 3), int), np.zeros((3, 3), int))
        with pytest.raises(ValueError, match=r"query shape \(3,\) for targets \(2, 3\)"):
            levenshtein_one_to_many(np.zeros(3, int), np.zeros((2, 3), int))

    @pytest.mark.parametrize("d,n", [(0, 5), (5, 0), (5, 5), (20, 20), (20, 13),
                                     (64, 65), (130, 100)])
    def test_min_distance_matches_dp(self, d, n):
        rng = np.random.default_rng(400 + d + n)
        refs = rng.integers(0, 6, size=(9, n))
        refs[[4, 7]] = refs[1]
        sample = near_copies(rng, refs[[0, 1, 3, 1]], d, 2)
        sample = np.concatenate([sample, rng.integers(0, 6, size=(3, d)), sample[:2]])
        cross = np.array([[brute_levenshtein(s, r) for r in refs] for s in sample])
        # the side with fewer rows is the kernel's query side: both sides take a turn
        np.testing.assert_array_equal(min_distance_to_set(sample, prepare_rows(refs)),
                                      cross.min(axis=1))
        np.testing.assert_array_equal(min_distance_to_set(refs, prepare_rows(sample)),
                                      cross.min(axis=0))
        np.testing.assert_array_equal(min_distance_to_set(sample, prepare_rows(refs[:2])),
                                      cross[:, :2].min(axis=1))

    def test_bounds_bracket_the_distance(self):
        rng = np.random.default_rng(32)
        for d, n in ((0, 4), (7, 7), (20, 20), (20, 9), (9, 20), (65, 70), (130, 130)):
            queries = rng.integers(0, 4, size=(5, d))
            refs = np.concatenate([near_copies(rng, queries, n, 2),
                                   rng.integers(0, 4, size=(4, n))])
            queries, refs = distinct_rows(queries)[0], distinct_rows(refs)[0]
            lower, upper = _bounds(prepare_rows(queries), prepare_rows(refs))
            exact = np.array([[brute_levenshtein(q, r) for r in refs] for q in queries])
            assert (lower <= exact).all() and (exact <= upper).all(), (d, n)
            assert (upper <= max(d, n)).all()

    def test_pairwise_is_one_kernel_call_in_row_major_order(self, monkeypatch):
        calls = []
        kernel = seqs.levenshtein_one_to_many

        def counted(query, targets):
            calls.append(len(targets))
            return kernel(query, targets)
        monkeypatch.setattr(seqs, "levenshtein_one_to_many", counted)
        rows = np.random.default_rng(33).integers(0, 20, size=(64, 20))
        got = pairwise_distances(rows)
        assert calls == [64 * 63 // 2]
        np.testing.assert_array_equal(got, np.concatenate(
            [shared_query(rows[i], rows[i + 1:]) for i in range(63)]))


class TestCappedSetDistance:
    """`min_distance_to_set(..., cap=c)` is min(distance, c) per row, the
    filter's threshold form: pairs whose lower bound reaches the cap skip
    the kernel, and the answer does not move."""

    @staticmethod
    def amino_rows(rng, count, length):
        """Rows tokenized from random amino-acid strings."""
        vocab = Vocabulary.amino_acids()
        return np.array([tokenize("".join(rng.choice(list(AMINO_ACIDS), size=length)), vocab)
                         for _ in range(count)]).reshape(count, length)

    @pytest.mark.parametrize("d,n", [(12, 9), (9, 12), (20, 20), (40, 33)])
    def test_equals_exact_minimum_capped(self, d, n):
        rng = np.random.default_rng(500 + d + n)
        refs = self.amino_rows(rng, 6, n)
        refs = refs[[0, 1, 2, 1, 3, 4, 5, 0]]  # duplicated refs
        queries = np.concatenate([near_copies(rng, refs[:4], d, 2) % 20,
                                  self.amino_rows(rng, 5, d)])
        queries = queries[[0, 1, 2, 3, 4, 5, 6, 7, 8, 2, 2, 5]]  # duplicated queries
        exact = np.array([[brute_levenshtein(q, r) for r in refs] for q in queries]).min(axis=1)
        np.testing.assert_array_equal(min_distance_to_set(queries, prepare_rows(refs)), exact)
        for cap in (0, 1, 7, max(d, n), 10 ** 6):
            for a, b in ((queries, refs), (refs[:3], queries)):
                want = (exact if a is queries else np.array(
                    [[brute_levenshtein(q, r) for r in b] for q in a]).min(axis=1))
                got = min_distance_to_set(a, prepare_rows(b), cap=cap)
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, np.minimum(want, cap), err_msg=f"cap={cap}")

    def test_empty_refs_give_the_cap(self):
        rows = np.random.default_rng(34).integers(0, 20, size=(4, 6))
        none = np.empty((0, 6), dtype=np.int64)
        for cap in (0, 7, 10 ** 6):
            got = min_distance_to_set(rows, prepare_rows(none), cap=cap)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, [cap] * 4)
        assert min_distance_to_set(none, prepare_rows(rows), cap=7).shape == (0,)

    def test_negative_cap_refused(self):
        rows = np.zeros((2, 3), dtype=np.int64)
        with pytest.raises(ValueError, match="cap"):
            min_distance_to_set(rows, prepare_rows(rows), cap=-1)

    def test_pairs_at_the_cap_skip_the_kernel(self, monkeypatch):
        """Rows at least the cap away by their bag distance run no kernel."""
        lanes = []
        kernel = seqs.levenshtein_one_to_many

        def counted(query, targets):
            lanes.append(len(targets))
            return kernel(query, targets)
        monkeypatch.setattr(seqs, "levenshtein_one_to_many", counted)
        refs = np.zeros((3, 10), dtype=np.int64)
        refs[1, 0], refs[2, :2] = 1, 2
        far = np.full((5, 10), 5, dtype=np.int64)  # no shared token: lower bound 10
        far[:, 9] = np.arange(5)
        np.testing.assert_array_equal(min_distance_to_set(far, prepare_rows(refs), cap=9), [9] * 5)
        assert lanes == []
        exact = [min(brute_levenshtein(f, r) for r in refs) for f in far]
        assert min(exact) == 9
        np.testing.assert_array_equal(min_distance_to_set(far, prepare_rows(refs)), exact)
        assert lanes  # without the cap, pairs whose lower bound is 9 run it


def bounds_int64(queries, refs):
    """`_bounds` as it was before tokens were narrowed: int64 token compares
    for the upper bound, int64 bag counts for the lower."""
    queries, refs = queries.astype(np.int64), refs.astype(np.int64)
    d, n = queries.shape[1], refs.shape[1]
    longer = max(d, n)
    upper = np.full((queries.shape[0], refs.shape[0]), longer, dtype=np.int64)
    refs_t = np.ascontiguousarray(refs.T)
    for k in range(min(d, n)):
        upper -= queries[:, k, None] == refs_t[k]
    alphabet = max(int(queries.max(initial=0)), int(refs.max(initial=0))) + 1
    query_bags = np.array([np.bincount(r, minlength=alphabet) for r in queries])
    ref_bags = np.array([np.bincount(r, minlength=alphabet) for r in refs])
    lower = longer - np.minimum(query_bags[:, None, :], ref_bags[None, :, :]).sum(axis=2)
    return lower, upper


class TestNarrowTokens:
    """Bounds and distances compare tokens in the narrowest unsigned type that
    holds them: uint8 up to token 255, uint16 from token 256. Every figure
    equals its int64 computation, for queries shorter and longer than refs."""

    SHAPES = [(12, 9), (9, 12), (10, 10)]

    @staticmethod
    def rows(rng, alphabet, count, length):
        """Random rows over `alphabet` tokens; each row also holds token 0 and
        the alphabet's largest token, and 255 and 256 where it has them, which
        the wrong type would wrap onto small tokens."""
        out = rng.integers(0, alphabet, size=(count, length))
        special = sorted({t for t in (0, 255, 256, alphabet - 1) if t < alphabet})
        cells = rng.integers(0, length, size=(count, len(special)))
        out[np.arange(count)[:, None], cells] = special
        return out

    def sides(self, alphabet, d, n):
        """(queries, refs): refs include near copies of the queries, with
        substitutions drawn from the whole alphabet, and duplicated rows."""
        rng = np.random.default_rng(alphabet + 31 * d + n)
        queries = self.rows(rng, alphabet, 8, d)
        refs = self.rows(rng, alphabet, 6, n)
        k = min(d, n)
        refs[:4, :k] = queries[:4, :k]
        for _ in range(2):
            refs[np.arange(4), rng.integers(0, n, size=4)] = rng.integers(0, alphabet, size=4)
        return queries[[0, 1, 2, 3, 4, 5, 6, 7, 1, 5]], refs[[0, 1, 2, 3, 4, 5, 2]]

    @staticmethod
    def min_distances_int64(queries, refs):
        return np.array([shared_query(q, refs.astype(np.int64)).min() for q in queries])

    @pytest.mark.parametrize("alphabet", [20, 256, 300])
    @pytest.mark.parametrize("d,n", SHAPES)
    def test_bounds_equal_int64(self, alphabet, d, n):
        queries, refs = self.sides(alphabet, d, n)
        for a, b in ((queries, refs), (refs, queries)):
            a, b = prepare_rows(a), prepare_rows(b)
            lower, upper = _bounds(a, b)
            want_lower, want_upper = bounds_int64(a.tokens.T, b.tokens.T)
            assert lower.dtype == upper.dtype == np.min_scalar_type(max(d, n))
            np.testing.assert_array_equal(lower, want_lower)
            np.testing.assert_array_equal(upper, want_upper)

    @pytest.mark.parametrize("alphabet", [20, 256, 300])
    @pytest.mark.parametrize("d,n", SHAPES)
    def test_min_distance_equals_int64(self, alphabet, d, n, monkeypatch):
        queries, refs = self.sides(alphabet, d, n)
        token_types = set()
        kernel = seqs.levenshtein_one_to_many

        def recorded(query, targets):
            token_types.update((query.dtype, targets.dtype))
            return kernel(query, targets)
        monkeypatch.setattr(seqs, "levenshtein_one_to_many", recorded)
        for a, b in ((queries, refs), (refs, queries)):
            want = self.min_distances_int64(a, b)
            np.testing.assert_array_equal(min_distance_to_set(a, prepare_rows(b)), want)
            for cap in (0, 3, max(d, n), 10 ** 6):
                np.testing.assert_array_equal(min_distance_to_set(a, prepare_rows(b), cap=cap),
                                              np.minimum(want, cap), err_msg=f"cap={cap}")
        assert token_types == {np.dtype(np.uint8 if alphabet <= 256 else np.uint16)}

    @pytest.mark.parametrize("alphabet", [20, 256, 300])
    @pytest.mark.parametrize("length", [9, 12])
    def test_pairwise_equals_int64(self, alphabet, length):
        rows = np.concatenate(self.sides(alphabet, length, length))
        rows64 = rows.astype(np.int64)
        want = np.concatenate([shared_query(rows64[i], rows64[i + 1:])
                               for i in range(len(rows) - 1)])
        np.testing.assert_array_equal(pairwise_distances(rows), want)


class TestPreparedRows:
    """`prepare_rows`, the reference side that `min_distance_to_set` takes.
    Its distances equal the unprepared ones, each row's minimum of int64
    kernel distances to the raw refs, on random sets with duplicate rows,
    caps, rows of unequal length, and query tokens above the prepared side's
    largest token, which the refs' narrow type cannot hold."""

    @pytest.mark.parametrize("trial", range(30))
    def test_equals_unprepared(self, trial):
        rng = np.random.default_rng(700 + trial)
        n = int(rng.integers(0, 24))
        d = int(rng.integers(0, 24)) if trial % 3 else n
        ref_alphabet = int(rng.choice([2, 20, 256]))
        refs = rng.integers(0, ref_alphabet, size=(int(rng.integers(1, 12)), n))
        refs = refs[rng.integers(0, len(refs), size=2 * len(refs))]
        query_alphabet = ref_alphabet + int(rng.choice([0, 5, 300]))
        queries = rng.integers(0, query_alphabet, size=(9, d))
        k = min(d, n)
        queries[:4, :k] = refs[np.arange(4) % len(refs), :k]  # near copies
        if d:
            queries[np.arange(4), rng.integers(0, d, size=4)] = \
                rng.integers(0, query_alphabet, size=4)
        queries = queries[rng.integers(0, 9, size=14)]
        prepared = prepare_rows(refs)
        exact = np.array([shared_query(q, refs.astype(np.int64)).min() for q in queries])
        for cap in (None, 0, 2, max(d, n), 10 ** 6):
            want = exact if cap is None else np.minimum(exact, cap)
            got = min_distance_to_set(queries, prepared, cap=cap)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want, err_msg=f"cap={cap}")

    def test_narrow_distinct_and_read_only(self):
        rng = np.random.default_rng(41)
        rows = rng.integers(0, 20, size=(30, 12))
        rows[:, 0] = 19
        prepared = prepare_rows(rows[np.arange(60) % 30])
        assert prepared.tokens.dtype == prepared.bags.dtype == np.uint8
        assert prepared.tokens.shape == (12, 30) and prepared.bags.shape == (20, 30)
        np.testing.assert_array_equal(prepared.tokens.T, distinct_rows(rows)[0])
        np.testing.assert_array_equal(prepared.bags.sum(axis=0), [12] * 30)
        for arr in (prepared.tokens, prepared.bags):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 1


def test_popcount_matches_bin_count():
    rng = np.random.default_rng(25)
    special = [0, 1, 2 ** 63, 2 ** 64 - 1, 2 ** 63 - 1, 0x0101010101010101]
    words = np.concatenate([np.array(special, dtype=np.uint64),
                            rng.integers(0, 2 ** 64 - 1, size=58, dtype=np.uint64,
                                         endpoint=True)]).reshape(4, 16)
    want = [sum(bin(int(w)).count("1") for w in col) for col in words.T]
    got = _popcount(words)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(_popcount(words[:1]), [bin(int(w)).count("1")
                                                         for w in words[0]])


def test_hard_task_training_set_pinned():
    """The difficulty filter's selection on the hard task is pinned: a wrong
    distance anywhere in the filter moves this hash."""
    from seqopt.tasks import build_synthetic_task
    seqs = build_synthetic_task("synthetic-hard", 0).train.sequences
    assert seqs.shape == (2500, 20) and seqs.dtype == np.int64
    assert hashlib.sha256(np.ascontiguousarray(seqs).tobytes()).hexdigest() == \
        "0d5af6a26262a2b0e2614fb7d5a7522ac0108614f11a678dc66a1cdea84f00bf"


def test_hard_task_full_set_pinned():
    """The hard task's whole reference set is pinned, rows the difficulty
    filter drops included: a wrong mutant draw anywhere moves these hashes."""
    from seqopt.tasks import build_synthetic_task
    full = build_synthetic_task("synthetic-hard", 0).full
    assert full.sequences.shape == (20000, 20) and full.sequences.dtype == np.int64
    assert full.fitness.shape == (20000,) and full.fitness.dtype == np.float64
    assert hashlib.sha256(np.ascontiguousarray(full.sequences).tobytes()).hexdigest() == \
        "7f714941c355453ba71a61306e20c2461950b6cff7d6acefd7f88d11e46af213"
    assert hashlib.sha256(np.ascontiguousarray(full.fitness).tobytes()).hexdigest() == \
        "8b599039b61c8b68ed27cccd6213131b541805a7bc378b2b579c7ab7e0dff2d1"
