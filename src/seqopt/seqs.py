"""Discrete sequence primitives: vocabulary, tokenization, one-hot encoding,
and Levenshtein edit distance: bit-parallel (Myers/Hyyrö), exact, any length.
Every distance in the package (pairwise, set minimum) goes through
`levenshtein_one_to_many`, which counts the final delta bits with a SWAR
popcount. `min_distance_to_set` makes one kernel call per distinct row of its
query side, so duplicated rows there cost nothing."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# The 20 canonical amino acids, alphabetical one-letter codes.
AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"


@dataclass(frozen=True)
class Vocabulary:
    """Ordered symbol set with mutually inverse index<->symbol maps."""

    tokens: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("vocabulary symbols must be unique")
        if any(len(t) != 1 for t in self.tokens):
            raise ValueError("vocabulary symbols must be single characters")
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(self.tokens)})

    @classmethod
    def amino_acids(cls) -> "Vocabulary":
        return cls(tuple(AMINO_ACIDS))

    @property
    def size(self) -> int:
        return len(self.tokens)

    def index(self, symbol: str) -> int:
        return self._index[symbol]

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index


def tokenize(text: str, vocab: Vocabulary) -> np.ndarray:
    """Map a symbol string to an int index array. Unknown symbols are rejected
    with their 0-based position."""
    idx = np.empty(len(text), dtype=np.int64)
    for pos, ch in enumerate(text):
        if ch not in vocab:
            raise ValueError(f"unknown symbol {ch!r} at position {pos}")
        idx[pos] = vocab.index(ch)
    return idx


def detokenize(seq: np.ndarray, vocab: Vocabulary) -> str:
    seq = np.asarray(seq)
    if seq.size and (seq.min() < 0 or seq.max() >= vocab.size):
        raise ValueError("token index out of vocabulary range")
    return "".join(vocab.tokens[i] for i in seq)


def one_hot_batch(seqs: np.ndarray, vocab_size: int) -> np.ndarray:
    """(n, d) index matrix -> (n, d, |V|)."""
    seqs = np.asarray(seqs, dtype=np.int64)
    n, d = seqs.shape
    out = np.zeros((n, d, vocab_size), dtype=np.float64)
    out[np.arange(n)[:, None], np.arange(d)[None, :], seqs] = 1.0
    return out


_M1, _M2, _M4, _H01 = (np.uint64(v) for v in (0x5555555555555555, 0x3333333333333333,
                                               0x0F0F0F0F0F0F0F0F, 0x0101010101010101))


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits per column of a (w, m) uint64 matrix.

    SWAR count: bit pairs, then nibbles, then bytes hold their own counts; the
    multiply by 0x0101...01 sums the eight byte counts into the top byte, which
    the shift by 56 brings down. The multiply wraps modulo 2**64 by design."""
    x = words - ((words >> np.uint64(1)) & _M1)
    x = (x & _M2) + ((x >> np.uint64(2)) & _M2)
    x = (x + (x >> np.uint64(4))) & _M4
    return ((x * _H01) >> np.uint64(56)).sum(axis=0, dtype=np.int64)


def levenshtein_one_to_many(query: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Edit distance from one query to each row of an (m, n) target matrix.
    Both hold non-negative vocabulary indices, as `tokenize` returns them.

    Myers' bit-vector algorithm (J. ACM 46(3), 1999) in Hyyrö's multi-word
    block form. For every target row, the DP column over the d query
    positions is held as vertical +1/-1 delta bits in ceil(d/64) uint64
    words; each target position then advances all m rows at once with a
    fixed number of whole-array integer ops per word. A word passes the
    horizontal delta on its top row to the word above (h_in/h_out). The
    distance is the last column's bottom cell, n plus the +1 deltas minus the
    -1 deltas. Working memory is O(m * words) beside the transposed targets.
    """
    query = np.asarray(query).ravel()
    targets = np.asarray(targets)
    if targets.ndim != 2:
        raise ValueError("targets must be a 2-D (m, n) matrix")
    m, n = targets.shape
    d = query.size
    if d == 0 or n == 0 or m == 0:
        return np.full(m, d + n, dtype=np.int64)
    words = -(-d // 64)
    pos = np.arange(d)
    # peq[w, c]: bit i of word w is set where query[64 * w + i] is token c.
    peq = np.zeros((words, max(int(query.max()), int(targets.max())) + 1), dtype=np.uint64)
    np.bitwise_or.at(peq, (pos // 64, query),
                     np.left_shift(np.uint64(1), (pos % 64).astype(np.uint64)))
    pv = np.full((words, m), ~np.uint64(0))  # column 0 is D[i][0] = i: all +1
    mv = np.zeros((words, m), dtype=np.uint64)
    ones = np.ones(m, dtype=np.uint64)
    zeros = np.zeros(m, dtype=np.uint64)
    for col in np.ascontiguousarray(targets.T):
        hp, hn = ones, zeros  # row 0 is D[0][j] = j: a +1 horizontal delta
        for w in range(words):
            p, mm = pv[w], mv[w]
            eq = peq[w].take(col)
            xv = eq | mm
            eq |= hn
            xh = eq & p
            xh += p
            xh ^= p
            xh |= eq
            ph = np.invert(xh | p)
            ph |= mm
            mh = p & xh
            if w + 1 < words:
                hp_out, hn_out = ph >> 63, mh >> 63
            ph <<= 1
            ph |= hp
            mh <<= 1
            mh |= hn
            np.bitwise_or(xv, ph, out=p)
            np.invert(p, out=p)
            p |= mh
            np.bitwise_and(ph, xv, out=mm)
            if w + 1 < words:
                hp, hn = hp_out, hn_out
    if d % 64:  # bits above the last query position hold no DP rows
        keep = np.uint64((1 << (d % 64)) - 1)
        pv[-1] &= keep
        mv[-1] &= keep
    return n + _popcount(pv) - _popcount(mv)


def min_distance_to_set(seqs: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Per row of (n, d) seqs, the minimum edit distance to any row of refs.

    Distance is symmetric, so the smaller set supplies the queries and the
    kernel vectorizes over the larger one; the answer is the same either way.
    Only the distinct query rows are run: duplicated seqs share one result,
    and a minimum over refs does not depend on duplicates. The larger side is
    left as is, since the kernel already covers all of its rows in one call.
    """
    seqs = np.atleast_2d(np.asarray(seqs))
    refs = np.atleast_2d(np.asarray(refs))
    if seqs.shape[0] < refs.shape[0]:
        queries, inverse = _distinct_rows(seqs)
        best = np.array([levenshtein_one_to_many(q, refs).min() for q in queries],
                        dtype=np.int64)
        return best[inverse]
    best = np.full(seqs.shape[0], np.iinfo(np.int64).max, dtype=np.int64)
    for ref in _distinct_rows(refs)[0]:
        best = np.minimum(best, levenshtein_one_to_many(ref, seqs))
    return best


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D array and, per input row, its index among
    them. An array with no elements (no rows, or zero-length rows) has nothing
    to reduce and is returned whole."""
    if rows.size == 0:
        return rows, np.arange(rows.shape[0])
    distinct, inverse = np.unique(rows, axis=0, return_inverse=True)
    return distinct, inverse.ravel()  # the inverse's shape differs across numpy versions


def pairwise_distances(seqs: np.ndarray) -> np.ndarray:
    """Flat array of edit distances over all unordered distinct pairs."""
    seqs = np.atleast_2d(np.asarray(seqs))
    n = seqs.shape[0]
    chunks = [levenshtein_one_to_many(seqs[i], seqs[i + 1:]) for i in range(n - 1)]
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chunks)
