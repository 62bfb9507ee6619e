#!/usr/bin/env python3
"""The synthetic fitness landscape and the benchmark data protocol.

Builds an epistatic landscape with a known optimum, samples a full mutant
reference set, and carves out medium/hard training subsets with the
percentile-band + mutation-gap filter. Prints the quantities that define the
optimization problem: fitness spread, mutation loads, and the distance gap to
the top percentile.
"""

import numpy as np

from seqopt.data import difficulty_filter
from seqopt.landscape import make_edit_pool, make_landscape, synthetic_full_dataset
from seqopt.metrics import diversity
from seqopt.seqs import Vocabulary, detokenize, min_distance_to_set, prepare_rows

vocab = Vocabulary.amino_acids()
D = 20

print("== landscape with a hidden optimum ==")
base = make_landscape(seed=0, length=D, vocab=vocab)
pool = make_edit_pool(seed=1, target=base.target, vocab=vocab, edits_per_position=3)
landscape = make_landscape(seed=0, length=D, vocab=vocab, decoy_tokens=pool,
                           target=base.target)
print(f"target sequence: {detokenize(landscape.target, vocab)}")
print(f"fitness(target) = {landscape.fitness_many(landscape.target[None])[0]:.3f} "
      f"(1.0 by construction)")
print(f"{landscape.pair_weight.size} epistatic pairs, e.g. positions "
      f"{landscape.pair_pos[0]} require tokens {landscape.pair_tok[0]}")

one_mut = landscape.target.copy()
one_mut[4] = pool[4, 0]
print(f"single substitution at position 4 -> fitness "
      f"{landscape.fitness_many(one_mut[None])[0]:.3f}")

print("\n== full reference set (20k mutants, 1..12 substitutions) ==")
full = synthetic_full_dataset(landscape, count=20000, seed=2, edit_tokens=pool,
                              max_mutations=12)
print(f"raw fitness range [{full.y_min:.3f}, {full.y_max:.3f}], "
      f"median normalized {np.median(full.normalized_fitness()):.3f}")

print("\n== difficulty filtering ==")
for name, band, gap in (("medium", (20, 40), 6), ("hard", (30,), 7)):
    subset = difficulty_filter(full, band, gap)
    muts = (subset.sequences != landscape.target).sum(axis=1)
    top = full.sequences[full.fitness >= np.percentile(full.fitness, 99)]
    gaps = min_distance_to_set(subset.sequences[:500], prepare_rows(top))
    print(f"{name:7s} band={band} gap>={gap}: {subset.n} records, "
          f"median fitness {np.median(subset.normalized_fitness()):.3f}, "
          f"mutation load {muts.min()}..{muts.max()}, "
          f"min distance to top-1% ≥ {gaps.min()}")
    print(f"         within-set diversity (first 200): "
          f"{diversity(subset.sequences[:200]):.1f} edits")
