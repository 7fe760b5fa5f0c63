"""caphs.pcg.Stream against numpy.random.default_rng, draw for draw."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from caphs.pcg import Stream

SEEDS = (0, 11, 2**32, 2**64 + 3, 2**130 + 7)

# [lo, hi) ranges: both Lemire paths with their edges, the two raw words
# (2^32 and 2^64 values), and 3 * 2^30 and 3 * 2^62 values, where a quarter
# of the draws land exactly on Lemire's rejection threshold.
BOUNDS = (
    (0, 1), (0, 2), (0, 7), (-5, 6), (0, 3 * 2**30), (0, 2**32 - 1),
    (0, 2**32), (7, 2**32 + 8), (0, 2**32 + 1), (-(2**63), 2**62), (-(2**63), 2**63 - 1),
    (-(2**63), 2**63), (2**62, 2**63),
)


def _stream_and_numpy(seed):
    return Stream(seed), np.random.default_rng(seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_raw_words_equal_pcg64(seed):
    raw = np.random.default_rng(seed).bit_generator.random_raw(64)
    s = Stream(seed)
    assert [s.next64() for _ in range(64)] == [int(x) for x in raw]


@pytest.mark.parametrize("seed", SEEDS)
def test_scalar_draws_interleave_like_numpy(seed):
    # Cycling the bounds mixes 32-bit draws, which leave a half word, with
    # 64-bit draws, which leave it for the next 32-bit draw.
    s, g = _stream_and_numpy(seed)
    for i in range(40 * len(BOUNDS)):
        lo, hi = BOUNDS[(i * 7) % len(BOUNDS)]
        assert s.integers(lo, hi) == int(g.integers(lo, hi)), (lo, hi)


@pytest.mark.parametrize(
    "seed, bits, excl",
    # Found by search: the seed's first 32- or 64-bit word times excl leaves
    # exactly threshold - 1, the largest remainder Lemire rejects.
    [(6, 32, 3824648961), (10, 32, 3088573783),
     (4, 64, 16459762409505517649), (5, 64, 15520392125091705191)],
)
def test_draw_one_below_the_rejection_threshold(seed, bits, excl):
    s, g = _stream_and_numpy(seed)
    word = int(np.random.default_rng(seed).bit_generator.random_raw(1)[0]) % 2**bits
    assert word * excl % 2**bits == 2**bits % excl - 1
    lo = 0 if bits == 32 else -(2**63)
    assert [s.integers(lo, lo + excl) for _ in range(3)] == g.integers(lo, lo + excl, 3).tolist()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k, n", [(2, 1), (3, 7), (5, 12), (2**31 + 1, 3)])
def test_rows_carry_the_half_word_across_rows(seed, k, n):
    table = np.random.default_rng(seed).integers(0, k, (9, n)).tolist()
    s = Stream(seed)
    assert [[s.integers(0, k) for _ in range(n)] for _ in range(9)] == table


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "k, n",
    # One color (nothing drawn), the 32-bit path up to 2^31 + 1 values, and
    # the wider bounds that bounded_row hands to bounded.
    [(1, 4), (2, 1), (3, 7), (5, 12), (2**31 + 1, 3), (2**32, 3), (2**32 + 1, 2), (2**40, 5)],
)
def test_bounded_row_equals_the_numpy_table_and_the_scalar_draws(seed, k, n):
    table = np.random.default_rng(seed).integers(0, k, (9, n)).tolist()
    rows, scalar = Stream(seed), Stream(seed)
    assert [rows.bounded_row(k - 1, n) for _ in range(9)] == table
    assert [[scalar.bounded(k - 1) for _ in range(n)] for _ in range(9)] == table


@pytest.mark.parametrize("seed, excl", [(6, 3824648961), (10, 3088573783)])
def test_bounded_row_rejects_one_below_the_threshold(seed, excl):
    # The seed's first 32-bit word times excl leaves threshold - 1, so the
    # row must reject it and draw that id again.
    word = int(np.random.default_rng(seed).bit_generator.random_raw(1)[0]) % 2**32
    assert word * excl % 2**32 == 2**32 % excl - 1
    assert Stream(seed).bounded_row(excl - 1, 5) == np.random.default_rng(seed).integers(0, excl, 5).tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_a_scalar_draw_takes_the_half_word_a_row_left(seed):
    s, g = _stream_and_numpy(seed)
    assert s.bounded_row(2, 3) == g.integers(0, 3, 3).tolist()
    assert s._half is not None  # three 32-bit draws leave the high half of a word
    assert s.integers(0, 5) == int(g.integers(0, 5))
    assert s.integers(0, 2**40) == int(g.integers(0, 2**40))  # a 64-bit draw keeps the half
    assert s.bounded_row(6, 4) == g.integers(0, 7, 4).tolist()
    assert s.integers(0, 9) == int(g.integers(0, 9))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "n, r",
    # Floyd's algorithm with a shuffle, then the tail shuffle past n > 10000
    # and r > n // 50, with its first position floored at 1.
    [(1, 0), (1, 1), (5, 3), (9, 9), (300, 17), (10001, 200), (10001, 201),
     (12000, 12000), (12000, 11999)],
)
def test_choice_without_replacement_equals_numpy(seed, n, r):
    s, g = _stream_and_numpy(seed)
    for _ in range(3):
        assert s.choice(n, r) == g.choice(n, size=r, replace=False).tolist()


def _error(call):
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("seed", [-1, -(2**70)])
def test_negative_seed_raises_numpys_error(seed):
    assert _error(lambda: Stream(seed)) == _error(lambda: np.random.default_rng(seed))
    assert _error(lambda: Stream(seed)) == "expected non-negative integer"


@pytest.mark.parametrize(
    "lo, hi",
    [(0, 0), (0, -3), (5, 5), (6, 5), (0, 2**63 + 1), (0, 2**70), (-(2**63) - 1, 0),
     (-(2**70), -(2**70)), (2**63 + 5, 3)],
)
def test_integers_raise_numpys_errors(lo, hi):
    got = _error(lambda: Stream(0).integers(lo, hi))
    assert got == _error(lambda: np.random.default_rng(0).integers(lo, hi))
    assert got in ("high <= 0", "low >= high", "high is out of bounds for int64",
                   "low is out of bounds for int64")


def test_importing_the_cli_leaves_numpy_unloaded():
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, caphs.cli, caphs.reductions; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == "False\n"
