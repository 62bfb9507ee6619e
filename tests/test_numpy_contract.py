"""What the package relies on numpy (and hashlib) to do, one test per reliance,
each naming the code that relies on it. pyproject.toml promises numpy>=1.24,
and CI runs this file under numpy 1.24 as well as the newest numpy, so a
reliance that a numpy version breaks fails here, by name, rather than as a bit
mismatch far from its cause. A change that adds a reliance adds a test here.

One reliance needs a fresh process and is tested there: `jobs.Pool`'s heap
rule relies on numpy passing a large `np.empty` buffer straight to malloc and
free (`test_fresh_process_reuses_block_tapes` in tests/test_sampling.py,
`test_fresh_process_chunked_fit_reuses_tapes` in tests/test_training.py)."""

import hashlib
import warnings

import numpy as np
import pytest

from seqopt import jobs

rng = np.random.default_rng(1)


@pytest.mark.parametrize("word, bits", [(np.uint32, 32), (np.uint64, 64)])
def test_unsigned_words_wrap_around(word, bits):
    """seqs.levenshtein_one_to_many and seqs._popcount: +, *, <<, ~ and - on
    uint32 and uint64 arrays wrap modulo 2**bits, silently."""
    top = (1 << bits) - 1
    x = np.array([top, 1 << (bits - 1), 3], dtype=word)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        total = x + x
        product = x * word(top // 255)
        shifted = x << word(1)
        inverted = np.invert(x)
        difference = x[2:] - x[:1]
    mod = 1 << bits
    assert total.tolist() == [(2 * int(v)) % mod for v in x]
    assert product.tolist() == [(int(v) * (top // 255)) % mod for v in x]
    assert shifted.tolist() == [(int(v) << 1) % mod for v in x]
    assert inverted.tolist() == [top - int(v) for v in x]
    assert difference.tolist() == [(3 - top) % mod]
    assert ~word(0) == top
    assert all(a.dtype == word for a in (total, product, shifted, inverted, difference))


def test_or_assign_through_distinct_fancy_indices():
    """seqs.levenshtein_one_to_many's match tables: `peq[w, keys] |= bit`
    through a fancy index whose keys are distinct sets the bit in each keyed
    word once, beside the bits already there; and ndarray.take(axis=1) of the
    lane blocks equals fancy indexing."""
    peq = np.zeros((2, 8), dtype=np.uint32)
    keys = np.array([[6, 1, 3], [0, 1, 7]])
    for i, row in enumerate(keys):
        peq[0, row] |= np.uint32(1 << i)
    expected = np.zeros(8, dtype=np.uint32)
    for i, row in enumerate(keys):
        for key in row:
            expected[key] |= 1 << i
    assert peq[0].tolist() == expected.tolist() and not peq[1].any()
    lanes = np.array([7, 0, 0, 3])
    assert np.array_equal(peq.take(lanes, axis=1), peq[:, lanes])


def test_unique_over_void_row_views():
    """seqs.distinct_rows (under min_distance_to_set and
    sampling._select_top_k): np.unique over the rows viewed as raw bytes (one
    void item per row) with return_index and return_inverse gives each
    distinct row once and a flat inverse that rebuilds every row."""
    rows = rng.integers(0, 3, size=(40, 4)).astype(np.int64)
    raw = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()
    assert raw.shape == (40,)
    _, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
    distinct = rows[first]
    assert inverse.shape == (40,)
    assert np.array_equal(distinct[inverse], rows)
    assert len({r.tobytes() for r in distinct}) == len(distinct)
    assert len(distinct) == len({r.tobytes() for r in rows})


def test_unique_over_void_row_views_indexes_first_occurrences():
    """seqs.distinct_rows, whose first indices sampling._select_top_k takes
    as each kept sequence's chain: np.unique's return_index over void row
    views gives each distinct row's first occurrence."""
    rows = rng.integers(0, 2, size=(200, 3)).astype(np.int64)
    raw = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()
    _, first = np.unique(raw, return_index=True)
    expected = {}
    for i, row in enumerate(rows):
        expected.setdefault(row.tobytes(), i)
    assert sorted(first.tolist()) == sorted(expected.values())


def test_lexsort_last_key_first_and_stable():
    """sampling._select_top_k: np.lexsort orders by its last key first, the
    keys before it breaking ties (-0.0 ties with 0.0, as in a Python sort),
    and keeps the input order of full ties."""
    score = np.array([1.0, 2.0, 1.0, 2.0, 1.0, -0.0, 0.0])
    token = np.array([3, 0, 3, 1, 2, 5, 4])
    assert np.lexsort((token, score)).tolist() == [6, 5, 4, 0, 2, 1, 3]
    assert np.lexsort((np.zeros(7),)).tolist() == list(range(7))


def test_narrow_bounds_take_booleans_and_python_ints():
    """seqs._bounds and min_distance_to_set: booleans subtract in place from
    bounds of np.min_scalar_type(longer); np.minimum of those bounds with a
    Python int the type holds keeps the type and the values; and tokens cast
    to np.min_scalar_type of the largest token compare and gather as int64
    ones do."""
    longer = 20
    upper = np.full((3, 4), longer, dtype=np.min_scalar_type(longer))
    assert upper.dtype == np.uint8
    equal = rng.integers(0, 2, size=(3, 4)).astype(bool)
    upper -= equal
    upper -= equal
    assert upper.dtype == np.uint8
    assert np.array_equal(upper, longer - 2 * equal.astype(np.int64))
    capped = np.minimum(upper, 19)
    assert capped.dtype == np.uint8
    assert np.array_equal(capped, np.minimum(upper.astype(np.int64), 19))
    tokens = rng.integers(0, 20, size=(5, 6))
    narrow = tokens.astype(np.min_scalar_type(int(tokens.max())))
    assert narrow.dtype == np.uint8
    assert np.array_equal(narrow[:, 0, None] == narrow[:, 1], tokens[:, 0, None] == tokens[:, 1])
    assert np.array_equal(narrow.take([4, 0, 2], axis=1), tokens.take([4, 0, 2], axis=1))


def test_integers_with_array_bounds_draw_in_order():
    """landscape.sample_mutants (its `_draw_block`): Generator.integers with
    array bounds draws element by element, in order, by the scalar routine, so
    one call gives the draws of a per-element loop."""
    lows = np.array([0, 0, 2, 5, 0, 1, 0])
    highs = np.array([1, 7, 9, 6, 20, 10_000, 3])
    seed = np.random.SeedSequence(4)
    whole = np.random.default_rng(seed).integers(lows, highs)
    single = np.random.default_rng(seed)
    assert whole.tolist() == [int(single.integers(lo, hi)) for lo, hi in zip(lows, highs)]


def test_integers_from_scalar_zero_equal_zero_array_lows():
    """landscape.sample_mutants (its `_draw_block`): Generator.integers(0,
    highs) draws what integers(np.zeros_like(highs), highs) draws, so the
    scalar low of its one call gives the draws of per-element lows of 0."""
    highs = np.concatenate([[1, 2, 19, 20, 10_000], rng.integers(1, 40, size=500)])
    seed = np.random.SeedSequence(5)
    scalar = np.random.default_rng(seed).integers(0, highs)
    zeros = np.random.default_rng(seed).integers(np.zeros_like(highs), highs)
    assert scalar.dtype == zeros.dtype and scalar.tolist() == zeros.tolist()


def test_stable_sort_searchsorted_and_flat_indices():
    """landscape._draw_block's replay: argsort(kind="stable") keeps equal
    loads in row order; searchsorted over the loads sorted largest first
    counts the rows still drawing at each step; flat ndarray.take gathers, and
    fancy assignment through distinct flat indices writes each index once."""
    k = np.array([2, 3, 1, 3, 2, 2])
    order = np.argsort(-k, kind="stable")
    assert order.tolist() == [1, 3, 0, 4, 5, 2]
    alive = np.searchsorted(-k[order], -np.arange(3))
    assert alive.tolist() == [int((k > i).sum()) for i in range(3)]
    flat = np.arange(12)
    index = np.array([11, 0, 5])
    assert flat.take(index).tolist() == [11, 0, 5]
    flat[index] = [-1, -2, -3]
    assert flat[[11, 0, 5]].tolist() == [-1, -2, -3] and flat.sum() == 66 - 16 - 6


@pytest.mark.parametrize("alpha", [0.01, 0.3, 1.0])
def test_maximum_equals_slope_product(alpha):
    """autodiff.leaky_relu: np.maximum(x, alpha * x) is x * slope bit for bit
    for 0 < alpha <= 1, slope 1 where x > 0 and alpha elsewhere, signed zeros,
    infinities, subnormals and NaNs included."""
    x = np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324],
                        rng.standard_normal(64)])
    y = alpha * x
    np.maximum(x, y, out=y)
    assert y.tobytes() == (x * np.where(x > 0, 1.0, alpha)).tobytes()


def test_hashlib_reads_the_buffer_in_place():
    """nn.checkpoint.params_checksum: hashlib reads a C-contiguous float64
    array's own buffer, the bytes of tobytes(), and refuses a strided one
    rather than copying it."""
    arr = rng.standard_normal((3, 5))
    assert hashlib.sha256(arr).hexdigest() == hashlib.sha256(arr.tobytes()).hexdigest()
    with pytest.raises((BufferError, ValueError)):
        hashlib.sha256(arr[:, ::2])


def test_view_of_read_only_owner_is_read_only():
    """nn.layers.ParamStore.freeze and seqs.prepare_rows: a view cut from an
    array that owns its data after that array was made read-only is read-only
    too, refuses writes, and cannot be made writeable while its base is not."""
    owner = rng.standard_normal(12)
    owner.setflags(write=False)
    view = owner[2:8].reshape(2, 3)
    assert not view.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        view[0, 0] = 1.0
    with pytest.raises(ValueError):
        view.setflags(write=True)


def test_concatenate_result_can_be_made_read_only():
    """nn.layers.ParamStore: `flat` is the array np.concatenate returns, which
    owns its data, so setflags(write=False) works on it, and setflags(write=True)
    makes it writeable again."""
    flat = np.concatenate([np.zeros(0), rng.standard_normal(4), rng.standard_normal(3)])
    assert flat.flags.owndata
    flat.setflags(write=False)
    assert not flat.flags.writeable
    flat.setflags(write=True)
    flat[0] = 2.0
    assert flat[0] == 2.0


def test_hashlib_reads_a_read_only_buffer():
    """nn.checkpoint.params_checksum: a loaded store whose `flat` was made
    writeable again keeps named arrays cut while it was read-only, and those
    are what it hashes, so hashlib must read a read-only array's buffer as it
    reads a writeable one's."""
    arr = rng.standard_normal((3, 5))
    want = hashlib.sha256(arr.tobytes()).hexdigest()
    arr.setflags(write=False)
    assert hashlib.sha256(arr).hexdigest() == want


def test_unique_axis0_inverse_ravels_in_row_order():
    """landscape.SyntheticLandscape: np.unique(axis=0, return_inverse=True)
    gives an inverse whose shape differs across numpy versions, but whose
    ravel has one entry per row, in row order."""
    pairs = rng.integers(0, 4, size=(30, 2))
    keys, inverse = np.unique(pairs, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    assert inverse.shape == (30,)
    assert np.array_equal(keys[inverse], pairs)


def test_logical_and_into_float64_out():
    """landscape.SyntheticLandscape.fitness_many: np.logical_and of two
    boolean arrays writes 1.0 and 0.0 into a float64 `out` and returns it."""
    a, b = rng.integers(0, 2, size=(2, 4, 6)).astype(bool)
    out = np.empty((4, 6))
    hit = np.logical_and(a, b, out=out)
    assert hit is out and hit.dtype == np.float64
    assert np.array_equal(hit, (a & b).astype(np.float64))


def test_openblas_symbols_found():
    """jobs.one_blas_thread (under every forking jobs.Pool): where numpy maps
    an OpenBLAS, its thread calls are found under one of the prefixes
    `jobs.openblas` knows (scipy_openblas*64_ in numpy 2 wheels,
    openblas*64_ in 1.24's)."""
    try:
        with open("/proc/self/maps") as fh:
            mapped = any("openblas" in line for line in fh)
    except OSError:
        pytest.skip("no /proc/self/maps")
    if not mapped:
        pytest.skip("numpy maps no OpenBLAS")
    blas = jobs.openblas()
    assert blas is not None and blas("get_num_threads")() >= 1
