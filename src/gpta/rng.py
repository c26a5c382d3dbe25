"""The run's random streams, in one place.

`Stream(entropy)` reproduces, bit for bit, the draws gpta makes from
numpy's `Generator(PCG64(SeedSequence(entropy)))`: the split and each
epoch's training order (`permutation`), the simulated assistant's Gumbel
keys (`gumbel`), the exemplars (`choice`) and the synthetic corpus
(`integers`, `random`). `seed_word(entropy)` is
`SeedSequence(entropy).generate_state(1)[0]`. Owning the algorithm pins
the run bytes to it rather than to a numpy release, and a run loads
neither `numpy.random` nor, through its `secrets` import, OpenSSL.

SeedSequence hashes the entropy's 32-bit words into a pool of four
words and hashes the pool out again; PCG64 (O'Neill, 2014) is a 128-bit
LCG whose output XORs the state's halves and rotates them by its top six
bits. Arithmetic is on Python ints, masked to 32, 64 or 128 bits.
"""

import math

from .errors import ValidationError

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _words(entropy: int | tuple) -> list[int]:
    """The entropy as 32-bit words, low word first; a tuple's items' words in turn."""
    if isinstance(entropy, tuple):
        return [word for item in entropy for word in _words(item)]
    if entropy < 0:
        raise ValidationError(f"entropy must be >= 0, got {entropy}")
    words = [entropy & _M32]
    while entropy := entropy >> 32:
        words.append(entropy & _M32)
    return words


def _pool(entropy: int | tuple) -> list[int]:
    """SeedSequence's four-word pool for `entropy`."""
    h = 0x43B0D7E5

    def hashmix(v: int) -> int:
        nonlocal h
        v ^= h
        h = (h * 0x931E8875) & _M32
        v = (v * h) & _M32
        return v ^ (v >> 16)

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ (r >> 16)

    words = _words(entropy)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _state_words(entropy: int | tuple, n: int) -> list[int]:
    """SeedSequence(entropy).generate_state(n) as 32-bit words."""
    pool, h, out = _pool(entropy), 0x8B51F9DD, []
    for i in range(n):
        v = pool[i % 4] ^ h
        h = (h * 0x58F38DED) & _M32
        v = (v * h) & _M32
        out.append(v ^ (v >> 16))
    return out


def seed_word(entropy: int | tuple) -> int:
    """SeedSequence(entropy).generate_state(1)[0]: one 32-bit word."""
    return _state_words(entropy, 1)[0]


class Stream:
    """PCG64 seeded from SeedSequence(entropy), with numpy's Generator draws.

    `entropy` is an int >= 0 or a tuple of them. One buffer holds the high
    half of the last 64-bit output that a 32-bit draw split, shared by
    every method, as numpy's bit generator shares it."""

    def __init__(self, entropy: int | tuple):
        w = _state_words(entropy, 8)
        u = [w[i] | w[i + 1] << 32 for i in range(0, 8, 2)]
        # initstate = u0:u1 and initseq = u2:u3; the state starts at inc + initstate, one step on.
        self._inc = ((u[2] << 64 | u[3]) << 1 | 1) & _M128
        self._state = ((self._inc + (u[0] << 64 | u[1])) * _PCG_MULT + self._inc) & _M128
        self._half: int | None = None

    def _next64(self) -> int:
        self._state = s = (self._state * _PCG_MULT + self._inc) & _M128
        word, rot = ((s >> 64) ^ s) & _M64, s >> 122
        return ((word >> rot) | (word << (64 - rot))) & _M64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _M32

    def _bounded(self, r: int) -> int:
        """Uniform in [0, r], by Lemire's multiply-and-reject on 32 bits when r
        fits, else on 64 bits. r = 0 draws nothing."""
        if r == 0:
            return 0
        bits, draw = (32, self._next32) if r <= _M32 else (64, self._next64)
        mask, span = (1 << bits) - 1, r + 1
        threshold = (mask - r) % span
        m = draw() * span
        while (m & mask) < threshold:
            m = draw() * span
        return m >> bits

    def permutation(self, n: int) -> list[int]:
        """A shuffled range(n): Fisher-Yates from the top, each swap index by
        masked rejection on 32-bit draws. One loop on local state."""
        order = list(range(n))
        state, inc, half = self._state, self._inc, self._half
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while True:
                if half is None:
                    state = (state * _PCG_MULT + inc) & _M128
                    word, rot = ((state >> 64) ^ state) & _M64, state >> 122
                    word = ((word >> rot) | (word << (64 - rot))) & _M64
                    j, half = word & _M32, word >> 32
                else:
                    j, half = half, None
                j &= mask
                if j <= i:
                    break
            order[i], order[j] = order[j], order[i]
        self._state, self._half = state, half
        return order

    def integers(self, low: int, high: int | None = None) -> int:
        """Uniform in [low, high), or in [0, low) when high is None."""
        if high is None:
            low, high = 0, low
        return low + self._bounded(high - low - 1)

    def random(self) -> float:
        """Uniform in [0, 1) on a 2^-53 grid."""
        return (self._next64() >> 11) * 2.0**-53

    def gumbel(self, n: int) -> list[float]:
        """n standard Gumbel draws."""
        out = []
        for _ in range(n):
            u = 1.0 - self.random()
            while u == 1.0:
                u = 1.0 - self.random()
            out.append(0.0 - math.log(-math.log(u)))  # loc - scale * log(-log(u)), loc 0: a zero stays +0.0
        return out

    def choice(self, n: int, k: int) -> list[int]:
        """k distinct values of range(n) in random order: Floyd's algorithm,
        then a Fisher-Yates shuffle of the picks. numpy takes this path when
        n <= 10000 or k <= n // 50, so for every k <= 8."""
        picks: list[int] = []
        taken: set[int] = set()
        for j in range(n - k, n):
            v = self._bounded(j)
            picks.append(j if v in taken else v)
            taken.add(picks[-1])
        for i in range(k - 1, 0, -1):
            j = self._bounded(i)
            picks[i], picks[j] = picks[j], picks[i]
        return picks
