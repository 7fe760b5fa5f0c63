"""numpy's default random stream in pure Python: SeedSequence, PCG64 and
the bounded draws of numpy.random.Generator.

Stream(seed) draws the same numbers as numpy.random.default_rng(seed) for
the calls caphs makes, integers(lo, hi), choice(n, r) without replacement
and bounded_row(r, n), one row of integers(0, r + 1, n) per call, and raises
the same errors with the same messages.  PCG64 is O'Neill's 128-bit LCG with
the XSL-RR output (O'Neill 2014).  Every bounded integer comes from one fill,
bounded_row, drawn by Lemire's multiply-and-reject method (Lemire 2019),
unmasked, as numpy's Generator draws them; a scalar is a fill of one, as
numpy draws it.
"""

from __future__ import annotations

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1

# SeedSequence's hash constants; its pool holds 4 32-bit words.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _seed_words(seed: int) -> list[int]:
    """SeedSequence(seed).generate_state(4, uint64): the seed's 32-bit words,
    least significant first, hashed into the pool and the pool into 8 words,
    paired little-endian into 4 64-bit words."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed >> i & _MASK32 for i in range(0, max(seed.bit_length(), 1), 32)]
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    out = []
    for i in range(8):  # 4 64-bit words, drawn as 8 32-bit words
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        out.append(value ^ value >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


class Stream:
    """numpy.random.default_rng(seed) for integers, rows of bounded integers
    and choice without replacement, all drawn through bounded_row."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int):
        w = _seed_words(seed)
        # pcg64_srandom_r: step from state 0, add the seed, step again.
        self._inc = ((w[2] << 64 | w[3]) << 1 | 1) & _MASK128
        self._state = ((self._inc + (w[0] << 64 | w[1])) * _PCG_MULT + self._inc) & _MASK128
        self._half = None  # the high half of a word a 32-bit draw left over

    def next64(self) -> int:
        """Step the LCG, then output the XSL-RR of the new state."""
        s = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        x = (s >> 64 ^ s) & _MASK64
        rot = s >> 122
        return (x >> rot | x << (64 - rot)) & _MASK64

    def bounded(self, r: int) -> int:
        """A uniform integer in [0, r], 0 <= r < 2^64: numpy draws a scalar
        as a fill of one."""
        return self.bounded_row(r, 1)[0]

    def bounded_row(self, r: int, n: int) -> list[int]:
        """n uniform integers in [0, r], 0 <= r < 2^64, as numpy's unmasked
        random_bounded_uint64_fill draws them: n zeros and nothing drawn for
        r = 0; up to 2^32 - 1, 32-bit Lemire on the halves of each word, low
        half first, with the LCG step and the XSL-RR output inline and the
        high half left over kept for the next draw; raw words at 2^64 - 1;
        and 64-bit Lemire otherwise, which leaves the half word alone."""
        if r == 0:
            return [0] * n
        if r == _MASK64:
            return [self.next64() for _ in range(n)]
        excl = r + 1
        if r > _MASK32:
            # Lemire accepts m unless its low word falls below 2^64 mod excl.
            threshold = (1 << 64) % excl
            out = []
            for _ in range(n):
                m = self.next64() * excl
                while m & _MASK64 < threshold:
                    m = self.next64() * excl
                out.append(m >> 64)
            return out
        # The same test on the low 32 bits; at r = 2^32 - 1 the threshold is
        # 0 and m >> 32 is the raw half word.
        threshold = (1 << 32) % excl
        state, inc, half = self._state, self._inc, self._half
        out = []
        for _ in range(n):
            while True:
                if half is None:
                    state = (state * _PCG_MULT + inc) & _MASK128
                    x = (state >> 64 ^ state) & _MASK64
                    rot = state >> 122
                    x = (x >> rot | x << (64 - rot)) & _MASK64
                    m = (x & _MASK32) * excl
                    half = x >> 32
                else:
                    m = half * excl
                    half = None
                if m & _MASK32 >= threshold:
                    break
            out.append(m >> 32)
        self._state, self._half = state, half
        return out

    def integers(self, lo: int, hi: int) -> int:
        """A uniform integer in [lo, hi), with Generator.integers' int64 checks."""
        hi -= 1
        if lo < _INT64_MIN:
            raise ValueError("low is out of bounds for int64")
        if hi > _INT64_MAX:
            raise ValueError("high is out of bounds for int64")
        if lo > hi:
            raise ValueError("high <= 0" if lo == 0 else "low >= high")
        return lo + self.bounded(hi - lo)

    def choice(self, n: int, r: int) -> list[int]:
        """r distinct integers of [0, n), as Generator.choice(n, r,
        replace=False) orders them, for 0 <= r <= n.

        For n > 10000 and r > n // 50 that is the last r entries of range(n)
        after a Fisher-Yates shuffle of positions n - 1 down to n - r (not
        below 1).  Otherwise Floyd's algorithm draws one value per j in
        [n - r, n), taking j itself when the value was taken already, and
        a Fisher-Yates shuffle of positions r - 1 down to 1 orders them.
        numpy keeps Floyd's values in a hash table, which only answers
        membership, as the set here does.
        """
        if n > 10000 and r > n // 50:
            idx = list(range(n))
            for i in range(n - 1, max(n - r, 1) - 1, -1):
                j = self.bounded(i)
                idx[i], idx[j] = idx[j], idx[i]
            return idx[n - r:]
        out: list[int] = []
        taken: set[int] = set()
        for j in range(n - r, n):
            val = self.bounded(j)
            if val in taken:
                val = j
            taken.add(val)
            out.append(val)
        for i in range(r - 1, 0, -1):
            j = self.bounded(i)
            out[i], out[j] = out[j], out[i]
        return out
