"""The permutations that `np.random.default_rng(seed).permutation` draws, as
numpy 2.4 draws them, computed without numpy: SeedSequence(seed) seeds a
PCG64 generator, and each permutation is a Fisher-Yates shuffle of bounded
draws from it.

classifier draws its early-stopping holdouts here, so `classify` loads no
`numpy.random`, and the holdouts stay fixed whatever numpy is installed:
numpy keeps its bit generators' streams across releases, but not what its
`Generator` methods draw from them.
"""

from __future__ import annotations

M32, M64, M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """The 8 words of SeedSequence(seed).generate_state(8): the seed's little-endian 32-bit words hashed and mixed
    into a pool of 4 words, which is hashed out into 8."""
    entropy = [(seed >> shift) & M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    h = 0x43B0D7E5

    def hashmix(v: int) -> int:
        nonlocal h
        v ^= h
        h = (h * 0x931E8875) & M32
        v = (v * h) & M32
        return v ^ (v >> 16)

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & M32
        return r ^ (r >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    h, words = 0x8B51F9DD, []
    for i in range(8):
        v = pool[i % 4] ^ h
        h = (h * 0x58F38DED) & M32
        v = (v * h) & M32
        words.append(v ^ (v >> 16))
    return words


class Generator:
    """np.random.default_rng(seed), for a seed >= 0, as far as `permutation` of a length."""

    def __init__(self, seed: int):
        w = _seed_words(seed)
        # generate_state(4, uint64) joins the words in little-endian pairs: the state's two halves, then the stream's
        s0, s1, i0, i1 = (w[j] | w[j + 1] << 32 for j in range(0, 8, 2))
        self.inc = ((i0 << 64 | i1) << 1 | 1) & M128
        # from state 0: a step, which makes it inc, then the seed added, then another step
        self.state = ((self.inc + (s0 << 64 | s1)) * PCG_MULT + self.inc) & M128
        self.half: int | None = None  # the high half of the last next64 that next32 took the low half of

    def next64(self) -> int:
        self.state = s = (self.state * PCG_MULT + self.inc) & M128
        x, rot = ((s >> 64) ^ s) & M64, s >> 122  # XSL-RR: the halves xored, rotated right by the top 6 bits
        return (x >> rot | x << (64 - rot)) & M64

    def next32(self) -> int:
        if self.half is not None:
            value, self.half = self.half, None
            return value
        value = self.next64()
        self.half = value >> 32
        return value & M32

    def permutation(self, n: int) -> list[int]:
        """A permutation of range(n): for i from n - 1 down to 1, a[i] swapped with a[j], j drawn from 0..i by
        masking 32-bit draws to the bits of i and dropping those above i. (numpy draws 64-bit ones for an i of more
        than 32 bits, which no list in memory reaches.)"""
        a = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self.next32() & mask
            while j > i:
                j = self.next32() & mask
            a[i], a[j] = a[j], a[i]
        return a
