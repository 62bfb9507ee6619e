"""Writers of the dataset CSV and its range sidecar, for tests that need the
files `seqopt.data.load_csv` reads. Each writes through a temporary file that
is moved into place, so a failed write keeps the previous file."""

import csv

from seqopt.atomic import atomic_open, atomic_write_text
from seqopt.data import Dataset
from seqopt.seqs import Vocabulary, detokenize


def write_csv(dataset: Dataset, path, vocab: Vocabulary) -> None:
    with atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sequence", "fitness"])
        for i in range(dataset.n):
            writer.writerow([detokenize(dataset.sequences[i], vocab),
                             repr(float(dataset.fitness[i]))])


def write_range_file(dataset: Dataset, path) -> None:
    atomic_write_text(path, f"y_min={dataset.y_min!r}\ny_max={dataset.y_max!r}\n")
