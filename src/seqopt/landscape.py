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

from dataclasses import dataclass

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

    def __post_init__(self):
        for name in ("target", "linear", "pair_pos", "pair_tok", "pair_weight"):
            getattr(self, name).setflags(write=False)
        if not (self.raw_min < self.raw_max):
            raise ValueError("degenerate landscape: raw_min == raw_max")

    @property
    def length(self) -> int:
        return self.target.size

    @property
    def vocab_size(self) -> int:
        return self.linear.shape[1]

    def fitness_many(self, seqs: np.ndarray) -> np.ndarray:
        """Rescaled fitness of each row of an (n, d) matrix: known optimum -> 1,
        known minimum -> 0."""
        seqs = np.atleast_2d(np.asarray(seqs, dtype=np.int64))
        if seqs.shape[1] != self.length:
            raise ValueError(f"sequence length {seqs.shape[1]} != landscape length {self.length}")
        raw = self.linear[np.arange(self.length)[None, :], seqs].sum(axis=1)
        if self.pair_weight.size:
            hit = ((seqs[:, self.pair_pos[:, 0]] == self.pair_tok[None, :, 0])
                   & (seqs[:, self.pair_pos[:, 1]] == self.pair_tok[None, :, 1]))
            raw = raw + hit @ self.pair_weight
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
                   vocab: Vocabulary, edit_tokens: np.ndarray | None = None,
                   min_mutations: int = 1, max_mutations: int | None = None) -> np.ndarray:
    """Draw `count` mutants of the target with a uniform mutation load in
    [min_mutations, max_mutations]. Substitutions come from `edit_tokens`
    (the per-position pool) when given, else uniformly from the other tokens.

    The draws are those of a per-row loop over one `default_rng(seed)`:
    first every row's load k, then per row `choice(d, k, replace=False)` for
    the positions and k bounded integers for the substitutions (a pool
    column in [0, width), or a shift in [1, |V|)). Rows are drawn ROW_BLOCK
    at a time, each block with one array-bound `integers` call that makes
    the rows' draws in that order; `choice`'s Floyd draws and Fisher–Yates
    shuffle are then replayed over the block. The positions equal
    `Generator.choice`'s whenever it uses Floyd's algorithm, that is for
    d <= 10,000 or k <= d // 50; above that numpy shuffles a tail instead,
    and this sampler keeps Floyd's rule."""
    rng = np.random.default_rng(seed)
    d, v = landscape.length, vocab.size
    if max_mutations is None:
        max_mutations = d
    if not (1 <= min_mutations <= max_mutations <= d):
        raise ValueError("need 1 <= min_mutations <= max_mutations <= length")
    seqs = np.tile(landscape.target, (count, 1))
    n_mut = rng.integers(min_mutations, max_mutations + 1, size=count)
    low, high = (1, v) if edit_tokens is None else (0, edit_tokens.shape[1])
    for start in range(0, count, ROW_BLOCK):
        k = n_mut[start:start + ROW_BLOCK]
        rows, pos, pick = _draw_block(rng, d, k, low, high)
        if edit_tokens is None:
            seqs[start + rows, pos] = (landscape.target[pos] + pick) % v
        else:
            seqs[start + rows, pos] = edit_tokens[pos, pick]
    return seqs


def _draw_block(rng: np.random.Generator, d: int, k: np.ndarray, low: int,
                high: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One block of `sample_mutants`' rows, row r with k[r] >= 1 positions.
    Row r's draws, in order: `choice`'s Floyd draws in [0, j] for
    j = d-k … d-1, its shuffle's in [0, i] for i = k-1 … 1, then k picks in
    [low, high). Returns the (row, position, pick) of every substitution."""
    n, kmax = k.size, int(k.max())
    count = 3 * k - 1
    first = np.cumsum(count) - count      # each row's first draw
    kr = np.repeat(k, count)
    t = np.arange(kr.size) - np.repeat(first, count)
    in_choice = t < 2 * kr - 1
    bound = np.where(t < kr, d - kr + 1 + t, np.where(in_choice, 2 * kr - t, high))
    draws = rng.integers(np.where(in_choice, 0, low), bound)

    # Floyd: the i-th draw, in [0, j], or j when that position is taken
    idx = np.arange(n)
    taken = np.zeros((n, d), dtype=bool)
    pos = np.empty((n, kmax), dtype=np.int64)
    for i in range(kmax):
        r = idx[i < k]
        j = d - k[r] + i
        val = draws[first[r] + i]
        val = np.where(taken[r, val], j, val)
        taken[r, val] = True
        pos[r, i] = val
    # Fisher–Yates: swap position i with the row's draw in [0, i]
    for i in range(kmax - 1, 0, -1):
        r = idx[i < k]
        other = draws[first[r] + 2 * k[r] - 1 - i]
        pos[r, i], pos[r, other] = pos[r, other], pos[r, i]

    rows, col = np.nonzero(np.arange(kmax) < k[:, None])
    return rows, pos[rows, col], draws[first[rows] + 2 * k[rows] - 1 + col]


def synthetic_full_dataset(landscape: SyntheticLandscape, count: int, seed: int,
                           vocab: Vocabulary, edit_tokens: np.ndarray | None = None,
                           min_mutations: int = 1,
                           max_mutations: int | None = None) -> Dataset:
    """The synthetic stand-in for a full measured reference set: mutants of the
    target with exact oracle fitness; extremes define the normalizer."""
    seqs = sample_mutants(landscape, count, seed, vocab, edit_tokens=edit_tokens,
                          min_mutations=min_mutations, max_mutations=max_mutations)
    fitness = landscape.fitness_many(seqs)
    return Dataset.from_arrays(seqs, fitness)
