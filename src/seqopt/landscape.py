"""Synthetic epistatic fitness landscapes with an exactly evaluable optimum.

The landscape rewards matching a hidden target sequence: per-position linear
weights (the target token strictly outweighs any decoy token) plus pairwise
terms that fire only when both positions carry their target tokens. All
weights are non-negative, so the global maximum is the target sequence and the
global minimum is 0 (any sequence avoiding every weighted token), which makes
the affine rescale to [0, 1] exact rather than estimated.

Mutant generation mirrors a mutagenesis library: each position has a small
pool of candidate substitutions, and a record activates a random subset of
them. The decoy weights sit on the same pool, so observed fitness varies with
which substitutions were chosen, not only with how many.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .seqs import Vocabulary

ROW_BLOCK = 4096  # mutants drawn together in `sample_mutants`, to bound its transients


@dataclass(frozen=True)
class SyntheticLandscape:
    seed: int
    target: np.ndarray          # (d,) int64
    linear: np.ndarray          # (d, V) float64, >= 0
    pair_pos: np.ndarray        # (P, 2) int64 position pairs, i < j
    pair_tok: np.ndarray        # (P, 2) int64 required tokens
    pair_weight: np.ndarray     # (P,) float64, >= 0
    raw_min: float
    raw_max: float
    # the distinct (position, token) keys of the pairs, as positions and
    # tokens, and per pair column the index of its key: see `fitness_many`
    _keys: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("target", "linear", "pair_pos", "pair_tok", "pair_weight"):
            getattr(self, name).setflags(write=False)
        if not (self.raw_min < self.raw_max):
            raise ValueError("degenerate landscape: raw_min == raw_max")
        pairs = np.stack([self.pair_pos.ravel(), self.pair_tok.ravel()], axis=1)
        keys, inverse = np.unique(pairs, axis=0, return_inverse=True)
        # numpy versions differ in the inverse's shape; its order is the pairs'
        inverse = inverse.ravel().reshape(-1, 2)
        object.__setattr__(self, "_keys", (keys[:, 0], keys[:, 1], inverse[:, 0], inverse[:, 1]))

    @property
    def length(self) -> int:
        return self.target.size

    @property
    def vocab_size(self) -> int:
        return self.linear.shape[1]

    def fitness_many(self, seqs: np.ndarray) -> np.ndarray:
        """Rescaled fitness of each row of an (n, d) matrix: known optimum -> 1,
        known minimum -> 0.

        The rows are scored 1,024 at a time, to bound the transients. The
        linear terms come from one flat gather of `linear`, summed per row.
        A pair fires where both its (position, token) keys match; each
        distinct key is compared once, as one boolean column, and the pairs
        gather their two columns from those into a float64 hit matrix, which
        the matmul with `pair_weight` would otherwise copy to float64."""
        seqs = np.atleast_2d(np.asarray(seqs, dtype=np.int64))
        if seqs.shape[1] != self.length:
            raise ValueError(f"sequence length {seqs.shape[1]} != landscape length {self.length}")
        offsets = np.arange(0, self.linear.size, self.vocab_size)
        key_pos, key_tok, first, second = self._keys
        raw = np.empty(len(seqs))
        for start in range(0, len(seqs), 1024):
            rows = seqs[start:start + 1024]
            sums = self.linear.ravel().take(rows + offsets).sum(axis=1)
            if self.pair_weight.size:
                match = rows.take(key_pos, axis=1) == key_tok
                hit = np.logical_and(match.take(first, axis=1), match.take(second, axis=1),
                                     out=np.empty((len(rows), first.size)))
                sums += hit @ self.pair_weight
            raw[start:start + 1024] = sums
        return (raw - self.raw_min) / (self.raw_max - self.raw_min)


def make_edit_pool(seed: int, target: np.ndarray, vocab: Vocabulary,
                   edits_per_position: int = 3) -> np.ndarray:
    """(d, k) matrix of candidate substitution tokens per position, all
    different from the given target sequence."""
    if not (1 <= edits_per_position <= vocab.size - 1):
        raise ValueError("edits_per_position must be in [1, |V|-1]")
    target = np.asarray(target, dtype=np.int64)
    rng = np.random.default_rng(seed)
    pool = np.empty((target.size, edits_per_position), dtype=np.int64)
    for pos in range(target.size):
        others = np.delete(np.arange(vocab.size), target[pos])
        pool[pos] = rng.choice(others, size=edits_per_position, replace=False)
    return pool


def make_landscape(seed: int, length: int, vocab: Vocabulary,
                   n_pairs: int | None = None,
                   decoy_tokens: np.ndarray | None = None,
                   target: np.ndarray | None = None) -> SyntheticLandscape:
    """Randomly draw a landscape. `n_pairs` defaults to 2*length epistatic
    pairs. `decoy_tokens` (a `make_edit_pool` matrix) picks which non-target
    tokens carry small linear weights; None means no decoys."""
    v = vocab.size
    rng = np.random.default_rng(seed)
    if target is None:
        target = rng.integers(0, v, size=length)
    else:
        target = np.asarray(target, dtype=np.int64)
        if target.shape != (length,):
            raise ValueError("target must be a length-d sequence")
    linear = np.zeros((length, v))
    linear[np.arange(length), target] = rng.uniform(0.75, 1.5, size=length)
    if decoy_tokens is not None:
        decoy_tokens = np.asarray(decoy_tokens, dtype=np.int64)
        if decoy_tokens.shape[0] != length:
            raise ValueError("decoy_tokens first dimension must equal sequence length")
        if (decoy_tokens == target[:, None]).any():
            raise ValueError("decoy tokens must differ from the target token")
        for pos in range(length):
            linear[pos, decoy_tokens[pos]] = rng.uniform(0.0, 0.25, size=decoy_tokens.shape[1])
    if n_pairs is None:
        n_pairs = 2 * length
    max_pairs = length * (length - 1) // 2
    if n_pairs > max_pairs:
        raise ValueError(f"n_pairs {n_pairs} exceeds available position pairs {max_pairs}")
    all_pairs = np.array([(i, j) for i in range(length) for j in range(i + 1, length)])
    if n_pairs:
        chosen = all_pairs[rng.choice(max_pairs, size=n_pairs, replace=False)]
        pair_tok = target[chosen]
    else:
        chosen = np.empty((0, 2), dtype=np.int64)
        pair_tok = np.empty((0, 2), dtype=np.int64)
    pair_weight = rng.uniform(0.25, 1.0, size=n_pairs)
    raw_max = float(linear[np.arange(length), target].sum() + pair_weight.sum())
    return SyntheticLandscape(seed=seed, target=np.asarray(target, dtype=np.int64),
                              linear=linear, pair_pos=np.asarray(chosen, dtype=np.int64),
                              pair_tok=np.asarray(pair_tok, dtype=np.int64),
                              pair_weight=pair_weight, raw_min=0.0, raw_max=raw_max)


def sample_mutants(landscape: SyntheticLandscape, count: int, seed: int,
                   edit_tokens: np.ndarray, min_mutations: int = 1,
                   max_mutations: int | None = None) -> np.ndarray:
    """Draw `count` mutants of the target with a uniform mutation load in
    [min_mutations, max_mutations], each substitution drawn uniformly from
    its position's row of `edit_tokens`, the (d, width) pool. The pool
    `(target[pos] + 1 + c) % |V|` for c < |V| - 1 draws every other token
    uniformly.

    The draws are those of a per-row loop over one `default_rng(seed)`:
    first every row's load k, then per row `choice(d, k, replace=False)` for
    the positions and k pool columns in [0, width). Rows are drawn ROW_BLOCK
    at a time, each block with one array-bound `integers` call that makes
    the rows' draws in that order, its bounds gathered from one template per
    load; `choice`'s Floyd draws and Fisher–Yates shuffle are then replayed
    over the block's rows sorted by load (`_draw_block`). The positions
    equal `Generator.choice`'s whenever it uses Floyd's algorithm, that is
    for d <= 10,000 or k <= d // 50; above that numpy shuffles a tail
    instead, and this sampler keeps Floyd's rule."""
    rng = np.random.default_rng(seed)
    d = landscape.length
    if max_mutations is None:
        max_mutations = d
    if not (1 <= min_mutations <= max_mutations <= d):
        raise ValueError("need 1 <= min_mutations <= max_mutations <= length")
    seqs = np.tile(landscape.target, (count, 1))
    n_mut = rng.integers(min_mutations, max_mutations + 1, size=count)
    templates = _draw_templates(d, min_mutations, max_mutations, edit_tokens.shape[1])
    cells = seqs.ravel()
    for start in range(0, count, ROW_BLOCK):
        rows, pos, pick = _draw_block(rng, d, n_mut[start:start + ROW_BLOCK], *templates)
        cells[(start + rows) * d + pos] = edit_tokens[pos, pick]
    return seqs


def _draw_templates(d: int, kmin: int, kmax: int,
                    width: int) -> tuple[np.ndarray, np.ndarray]:
    """The exclusive upper bounds of a row's 3k - 1 draws, all from 0, for
    each load k in [kmin, kmax], laid end to end, and per k the index of its
    first draw (0 below kmin): `choice`'s Floyd draws in [0, j] for
    j = d-k … d-1, its shuffle's in [0, i] for i = k-1 … 1, then k pool
    columns in [0, width)."""
    loads = np.arange(kmin, kmax + 1)
    count = 3 * loads - 1
    first = np.zeros(kmax + 1, dtype=np.int64)
    first[kmin:] = np.cumsum(count) - count
    k = np.repeat(loads, count)
    t = np.arange(k.size) - first[k]
    bound = np.where(t < k, d - k + 1 + t, np.where(t < 2 * k - 1, 2 * k - t, width))
    return bound, first


def _draw_block(rng: np.random.Generator, d: int, k: np.ndarray, highs: np.ndarray,
                first_of_load: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One block of `sample_mutants`' rows, row r with k[r] >= 1 positions,
    its draws those of `_draw_templates`' load k[r]. Returns the (row,
    position, pick) of every substitution, in no particular row order.

    The draws come from one `integers` call in row order. The replay then
    runs on the rows stably sorted by load, largest first, so that the rows
    still drawing at step i (those with i < k) are a prefix of them; a
    (rows * d) taken-mask and a (rows * kmax) position array are read and
    written through flat indices."""
    n = k.size
    count = 3 * k - 1
    first = np.cumsum(count) - count      # each row's first draw
    draw = np.arange(first[-1] + count[-1]) + np.repeat(first_of_load[k] - first, count)
    draws = rng.integers(0, highs.take(draw))

    order = np.argsort(-k, kind="stable")
    k = k[order]
    kmax = int(k[0])
    alive = np.searchsorted(-k, -np.arange(kmax))  # rows with i < k, per step i
    # a row's Floyd draw i is at floyd + i, its shuffle draw in [0, i] at
    # shuffle - i and its pick c at shuffle + c
    floyd = first[order]
    shuffle = floyd + 2 * k - 1
    # Floyd: the i-th draw, in [0, j] for j = d - k + i, or j when that
    # position is taken
    taken = np.zeros(n * d, dtype=bool)
    row_cell = np.arange(n) * d
    top = d - k
    pos = np.empty((n, kmax), dtype=np.int64)
    for i, m in enumerate(alive):
        val = draws.take(floyd[:m] + i)
        val = np.where(taken.take(row_cell[:m] + val), top[:m] + i, val)
        taken[row_cell[:m] + val] = True
        pos[:m, i] = val
    # Fisher–Yates: swap position i with the row's draw in [0, i]
    flat = pos.ravel()
    row_pos = np.arange(n) * kmax
    for i in range(kmax - 1, 0, -1):
        m = alive[i]
        other = row_pos[:m] + draws.take(shuffle[:m] - i)
        swap = pos[:m, i].copy()
        pos[:m, i] = flat.take(other)
        flat[other] = swap

    subs = np.flatnonzero(np.arange(kmax) < k[:, None])
    rows = subs // kmax
    return order[rows], flat.take(subs), draws.take(shuffle[rows] + subs - row_pos[rows])


def synthetic_full_dataset(landscape: SyntheticLandscape, count: int, seed: int,
                           edit_tokens: np.ndarray, min_mutations: int = 1,
                           max_mutations: int | None = None) -> Dataset:
    """The synthetic stand-in for a full measured reference set: mutants of the
    target (`sample_mutants`) with exact oracle fitness; extremes define the
    normalizer."""
    seqs = sample_mutants(landscape, count, seed, edit_tokens, min_mutations, max_mutations)
    return Dataset.from_arrays(seqs, landscape.fitness_many(seqs))
