"""Discrete sequence primitives: vocabulary, tokenization, one-hot encoding,
and Levenshtein edit distance: bit-parallel (Myers/Hyyrö), exact, any length.

Every distance in the package goes through one kernel,
`levenshtein_one_to_many`. It advances fixed blocks of target rows (lanes)
together, takes one query row per lane (equal rows share one match table),
and counts the final delta bits with a SWAR popcount. `pairwise_distances`
runs all i < j pairs through it, one call per lane block.
`min_distance_to_set` takes its reference side prepared once
(`prepare_rows`: the distinct rows, their narrowed tokens and their token
bags), prepares its queries the same way, and brackets every pair between
two cheap bounds, the equal positions of the common prefix above and the
bag distance below; only the pairs whose lower bound beats their row's best
upper bound run the kernel. Given a cap, it returns min(distance, cap) per
row, and a pair whose lower bound reaches the cap skips the kernel too: a
threshold test such as `distance >= gap` needs no distance beyond the gap."""

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


# SWAR popcount masks per word type, all ones divided by 3, 5, 17 and 255:
# 0x5555..., 0x3333..., 0x0F0F..., 0x0101...
_SWAR = {word: tuple(word(((1 << bits) - 1) // k) for k in (3, 5, 17, 255))
         for word, bits in ((np.uint32, 32), (np.uint64, 64))}


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits per column of a (w, m) uint32 or uint64 matrix.

    SWAR count: bit pairs, then nibbles, then bytes hold their own counts; the
    multiply by 0x0101...01 sums the byte counts into the top byte, which the
    shift by the word's bits less 8 brings down. The multiply wraps modulo the
    word size by design."""
    word = words.dtype.type
    m1, m2, m4, h01 = _SWAR[word]
    x = words - ((words >> word(1)) & m1)
    x = (x & m2) + ((x >> word(2)) & m2)
    x = (x + (x >> word(4))) & m4
    return ((x * h01) >> word(8 * words.itemsize - 8)).sum(axis=0, dtype=np.int64)


# Lanes (target rows) that the kernel advances together, so that a block's
# match tables and DP words stay in cache: (words, lanes * alphabet) match
# bits for per-lane queries, at 4 bytes a word for queries of up to 32
# positions and 8 bytes beyond. On a 2-vCPU Haswell VM, distinct per-lane
# queries cost about 1.4 times as much per lane in one block of 16k lanes as
# in blocks of 4k.
_LANE_BLOCK = 4096
# (query, ref) pairs per block of queries in `min_distance_to_set`, which
# bounds the size of each transient (block, refs) array.
_PAIR_BLOCK = 1 << 18


def levenshtein_one_to_many(query: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Edit distance from each row of an (m, d) query matrix to the same row
    of an (m, n) target matrix. Both hold non-negative vocabulary indices, as
    `tokenize` returns them. One query for every target is
    `np.broadcast_to(query, (m, d))`: its equal rows share one match table.

    Myers' bit-vector algorithm (J. ACM 46(3), 1999) in Hyyrö's multi-word
    block form. For every target row (a lane), the DP column over the d query
    positions is held as vertical +1/-1 delta bits: in one uint32 word when
    d <= 32, else in ceil(d/64) uint64 words. Each target position then
    advances all lanes at once with a fixed number of whole-array integer ops
    per word. A word passes the horizontal delta on its top row to the word
    above (h_in/h_out). The distance is the last column's bottom cell, n plus
    the +1 deltas minus the -1 deltas. Lanes run in blocks of `_LANE_BLOCK`,
    so working memory is O(_LANE_BLOCK * words * alphabet) words of 4 or 8
    bytes."""
    query = np.asarray(query)
    targets = np.asarray(targets)
    if targets.ndim != 2:
        raise ValueError("targets must be a 2-D (m, n) matrix")
    if query.ndim != 2 or query.shape[0] != targets.shape[0]:
        raise ValueError(f"the query must be an (m, d) matrix, one row per target row: "
                         f"got query shape {query.shape} for targets {targets.shape}")
    m, n = targets.shape
    d = query.shape[1]
    if d == 0 or n == 0 or m == 0:
        return np.full(m, d + n, dtype=np.int64)
    out = np.empty(m, dtype=np.int64)
    for start in range(0, m, _LANE_BLOCK):
        lanes = slice(start, start + _LANE_BLOCK)
        out[lanes] = _myers(query[lanes], targets[lanes])
    return out


def _myers(query: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """`levenshtein_one_to_many` on one block of lanes, d > 0 and n > 0. Each
    run of equal query rows gets one match table, which the run's lanes read.
    A query of up to 32 positions fits one 32-bit word, which halves the bytes
    every op moves; longer ones run on 64-bit words, which at d = 100 and
    d = 237 took 0.71-0.85 times the time of 32-bit words on a 2-vCPU VM."""
    m, d = query.shape
    word, bits = (np.uint32, 32) if d <= 32 else (np.uint64, 64)
    words = -(-d // bits)
    alphabet = max(int(query.max()), int(targets.max())) + 1
    query_t = np.ascontiguousarray(query.T)
    first = np.ones(m, dtype=bool)
    np.any(query_t[:, 1:] != query_t[:, :-1], axis=0, out=first[1:])
    offset = (np.cumsum(first) - 1) * alphabet
    keys = query_t.compress(first, axis=1) + offset[first]
    # peq[w, key]: bit i of word w is set where query[bits * w + i] is the
    # key's token. Within one position every table has its own key, so |= on
    # the fancy index sets each bit once.
    peq = np.zeros((words, keys.shape[1] * alphabet), dtype=word)
    for i in range(d):
        peq[i // bits, keys[i]] |= word(1 << (i % bits))
    pv = np.full((words, m), ~word(0))  # column 0 is D[i][0] = i: all +1
    mv = np.zeros((words, m), dtype=word)
    ones = np.ones(m, dtype=word)
    zeros = np.zeros(m, dtype=word)
    one, top = word(1), word(bits - 1)
    # a transposed view of (n, m) rows, as `_pair_distances` passes, needs no copy
    for col in np.ascontiguousarray(targets.T) + offset:
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
                hp_out, hn_out = ph >> top, mh >> top
            ph <<= one
            ph |= hp
            mh <<= one
            mh |= hn
            np.bitwise_or(xv, ph, out=p)
            np.invert(p, out=p)
            p |= mh
            np.bitwise_and(ph, xv, out=mm)
            if w + 1 < words:
                hp, hn = hp_out, hn_out
    if d % bits:  # bits above the last query position hold no DP rows
        keep = word((1 << (d % bits)) - 1)
        pv[-1] &= keep
        mv[-1] &= keep
    return targets.shape[1] + _popcount(pv) - _popcount(mv)


def _pair_distances(a_t: np.ndarray, b_t: np.ndarray, ai: np.ndarray,
                    bi: np.ndarray) -> np.ndarray:
    """Edit distance between rows a[ai[k]] and b[bi[k]] for every k, given
    the sides transposed, as (length, rows) token matrices: one kernel call
    per lane block, so at most one block of rows is gathered at a time. Each
    block is gathered from the transposed sides and passed as a transposed
    view, the layout the kernel iterates in."""
    out = np.empty(ai.size, dtype=np.int64)
    for start in range(0, ai.size, _LANE_BLOCK):
        lanes = slice(start, start + _LANE_BLOCK)
        out[lanes] = levenshtein_one_to_many(a_t.take(ai[lanes], axis=1).T,
                                             b_t.take(bi[lanes], axis=1).T)
    return out


@dataclass(frozen=True)
class PreparedRows:
    """One side of `min_distance_to_set`, prepared once (`prepare_rows`): its
    distinct rows, transposed, as a read-only (length, rows) matrix of the
    narrowest unsigned type that holds its largest token, and their token
    bags, transposed, as a read-only (largest token + 1, rows) matrix of the
    narrowest unsigned type that holds the length. On the tasks' 20 tokens
    both are uint8, an eighth of the bytes of int64."""

    tokens: np.ndarray
    bags: np.ndarray

    @property
    def rows(self) -> int:
        return self.tokens.shape[1]

    @property
    def length(self) -> int:
        return self.tokens.shape[0]


def prepare_rows(rows: np.ndarray) -> PreparedRows:
    """The distinct rows of an (n, d) index matrix (or one (d,) row), in
    `distinct_rows` order, prepared as `min_distance_to_set`'s reference side."""
    return _prepare(distinct_rows(np.atleast_2d(np.asarray(rows)))[0])


def _prepare(distinct: np.ndarray) -> PreparedRows:
    """`PreparedRows` of an index matrix whose rows are already distinct."""
    largest = int(distinct.max(initial=0))
    tokens = np.ascontiguousarray(distinct.T, np.min_scalar_type(largest))
    bags = np.ascontiguousarray(_bags(distinct, largest + 1).T,
                                np.min_scalar_type(distinct.shape[1]))
    tokens.setflags(write=False)
    bags.setflags(write=False)
    return PreparedRows(tokens, bags)


def min_distance_to_set(seqs: np.ndarray, refs: PreparedRows,
                        cap: int | None = None) -> np.ndarray:
    """Per row of (n, d) seqs, the minimum edit distance to any row of the
    prepared refs (`prepare_rows`), or with a cap, the smaller of that minimum
    and the cap.

    The queries are deduplicated, and prepared as the refs are, one block of
    them at a time. For every (query, ref) pair two cheap bounds bracket the
    exact distance D, with L = max(d, n):
      upper: L minus the equal positions over the common prefix (substitute
             the prefix, insert or delete the rest), so D <= upper;
      lower: bag distance, L minus the tokens the two rows share as
             multisets (Bartolini, Ciaccia & Patella, 2002), so D >= lower.
    With U the query's smallest upper bound, only pairs whose lower bound is
    below min(U, cap) can change the answer, and only those run the kernel.
    The answer is the smaller of U, those exact distances and the cap. With
    no refs, every row gets the cap, or without one the int64 identity of
    min. A negative cap raises ValueError.
    """
    if cap is not None and cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    seqs = np.atleast_2d(np.asarray(seqs))
    if seqs.shape[0] == 0 or refs.rows == 0:
        return np.full(seqs.shape[0], np.iinfo(np.int64).max if cap is None else cap,
                       dtype=np.int64)
    queries, _, inverse = distinct_rows(seqs)
    # D <= L, so min(D, cap) = min(D, min(cap, L)), and a cap clamped to L
    # fits the bounds' unsigned type
    longer = max(queries.shape[1], refs.length)
    cap = longer if cap is None else min(cap, longer)
    best = np.empty(queries.shape[0], dtype=np.int64)
    step = max(1, _PAIR_BLOCK // refs.rows)
    for start in range(0, queries.shape[0], step):
        block = _prepare(queries[start:start + step])
        lower, upper = _bounds(block, refs)
        survivors = lower < np.minimum(upper.min(axis=1, keepdims=True), cap)
        # An exact distance never exceeds its pair's upper bound, so writing
        # the survivors' distances over their bounds leaves each row's minimum
        # the answer, up to the cap. The pairs are ordered by the side with
        # fewer rows and that side is the kernel's query, so its rows come in
        # long runs, which share match tables.
        if block.rows <= refs.rows:
            qi, ri = np.nonzero(survivors)
            upper[qi, ri] = _pair_distances(block.tokens, refs.tokens, qi, ri)
        else:
            ri, qi = np.nonzero(survivors.T)
            upper[qi, ri] = _pair_distances(refs.tokens, block.tokens, ri, qi)
        best[start:start + step] = np.minimum(upper.min(axis=1), cap)
    return best[inverse]


def _bounds(queries: PreparedRows, refs: PreparedRows) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) bounds on the edit distance of every (query, ref) pair,
    as (queries.rows, refs.rows) arrays of the smallest unsigned type that
    holds max(d, n); see `min_distance_to_set`. Each side keeps its own token
    type: numpy compares mixed unsigned types exactly, and a token only one
    side holds adds no shared count to the bag distance."""
    d, n = queries.length, refs.length
    longer = max(d, n)
    # both bounds are symmetric; the side with more rows goes on the inner
    # axis, where numpy's loops are long
    swap = queries.rows > refs.rows
    outer, inner = (refs, queries) if swap else (queries, refs)
    upper = np.full((outer.rows, inner.rows), longer, dtype=np.min_scalar_type(longer))
    for k in range(min(d, n)):
        upper -= outer.tokens[k, :, None] == inner.tokens[k]
    lower = np.full_like(upper, longer)
    for c in range(min(len(queries.bags), len(refs.bags))):
        lower -= np.minimum(outer.bags[c, :, None], inner.bags[c])
    return (lower.T, upper.T) if swap else (lower, upper)


def _bags(rows: np.ndarray, alphabet: int) -> np.ndarray:
    """(k, alphabet) token counts of the rows of a (k, d) index matrix."""
    keys = rows + np.arange(rows.shape[0])[:, None] * alphabet
    return np.bincount(keys.ravel(), minlength=rows.shape[0] * alphabet).reshape(-1, alphabet)


def distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D array in no particular order, each one's first
    index, and per input row its index among them. Rows compare as raw bytes,
    which sorts far faster than np.unique(axis=0). An array with no elements (no
    rows, or zero-length rows) has nothing to reduce and is returned whole."""
    if rows.size == 0:
        return rows, np.arange(rows.shape[0]), np.arange(rows.shape[0])
    rows = np.ascontiguousarray(rows)
    raw = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
    return rows[first], first, inverse


def pairwise_distances(seqs: np.ndarray) -> np.ndarray:
    """Flat array of edit distances over all unordered distinct pairs (i, j),
    i < j, in row-major order of i then j. The rows are compared in the
    narrowest unsigned type that holds their tokens."""
    seqs = np.atleast_2d(np.asarray(seqs))
    first, second = np.triu_indices(seqs.shape[0], 1)
    seqs_t = np.ascontiguousarray(seqs.T, np.min_scalar_type(int(seqs.max(initial=0))))
    return _pair_distances(seqs_t, seqs_t, first, second)
