"""Deterministic, platform-independent random number generation.

Everything randomized in this package draws from SplitMix64, a
counter-based 64-bit generator (Steele, Lea & Flood's mixer, as used by
java.util.SplittableRandom).  The k-th output is a pure function of the
seed and k, so streams are reproducible bit-for-bit on any platform:

    state_k = (seed + (k + 1) * 0x9E3779B97F4A7C15) mod 2^64
    out_k   = mix64(state_k)

Ranged draws use rejection sampling, so ``randint(1, k)`` is exactly
uniform over {1, ..., k}.  Because out_k depends only on k, a whole grid
of draws is computed in one packed pass (``randints``): every output is
a 128-bit lane of one integer, mixed by a few big-integer operations,
and the result is the same stream, value for value, that single
``randint`` calls would give.
"""

from __future__ import annotations

import sys
from operator import index

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

#: Seed used by the CLI and the verification suites unless overridden.
DEFAULT_SEED = 3141592653


def mix64(z: int) -> int:
    """SplitMix64 finalizer: avalanche a 64-bit value."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(seed: int, index: int) -> int:
    """Derive the seed for the index-th independent substream.

    Used by multi-trial drivers so that trial t of seed s is the same
    everywhere: derive_seed(s, t) feeds a fresh SplitMix64.
    """
    return mix64((seed + (index + 1) * 0xD6E8FEB86659FD93) & _MASK64)


def _rejection_limit(lo: int, hi: int) -> tuple[int, int]:
    """(span, limit) of the range [lo, hi]: outputs at or above limit,
    the largest multiple of span that fits in 2^64, are rejected so that
    ``u % span`` carries no modulo bias.  Both ends go through
    ``operator.index``, so a float or a str raises TypeError instead of
    making the draws floats."""
    lo, hi = index(lo), index(hi)
    if lo > hi:
        raise ValueError(f"empty range [{lo}, {hi}]")
    span = hi - lo + 1
    if span > 1 << 64:
        # The limit would be 0 and every output would be rejected.
        raise ValueError(f"range [{lo}, {hi}] spans {span} values, more than 2^64")
    return span, (1 << 64) - (1 << 64) % span


# Packed layout for randints: lane k of an int is its bits 128k..128k+127.
# A lane holds a 64-bit value, so the product of a lane and a 64-bit
# constant stays below 2^128 and never carries into the next lane, and
# the bits a right shift moves in from lane k + 1 land at bit 64 or
# above, where the next mask clears them.
_LANE = 128
_BLOCK = 256
_ONES = int.from_bytes((1).to_bytes(_LANE // 8, "little") * _BLOCK, "little")
_LANE_MASKS = _MASK64 * _ONES
# Lane k holds (k + 1) * golden mod 2^64: the state offset of output k.
_STEPS = int.from_bytes(
    b"".join(
        (((k + 1) * _GOLDEN) & _MASK64).to_bytes(_LANE // 8, "little")
        for k in range(_BLOCK)
    ),
    "little",
)
# memoryview(...).cast("Q") reads 64-bit words in host order; with the
# bytes laid out in host order too, a lane's low word is at index 2k on
# a little-endian host and at 2 * count - 1 - 2k on a big-endian one.
_LITTLE = sys.byteorder == "little"


def _mix_lanes(state: int, count: int) -> list[int]:
    """Outputs 0 .. count - 1 (count <= _BLOCK) of a stream at ``state``,
    i.e. mix64(state + (k + 1) * golden) for each k, in one packed pass."""
    # The constants cut to their first count lanes, so that every
    # operation below is on a count-lane int.
    unused = _LANE * (_BLOCK - count)
    masks = _LANE_MASKS >> unused
    z = (state * (_ONES >> unused) + (_STEPS & masks)) & masks
    z = ((z ^ (z >> 30)) & masks) * 0xBF58476D1CE4E5B9 & masks
    z = ((z ^ (z >> 27)) & masks) * 0x94D049BB133111EB & masks
    z = (z ^ (z >> 31)) & masks
    words = memoryview(z.to_bytes(_LANE // 8 * count, sys.byteorder)).cast("Q")
    return (words[::2] if _LITTLE else words[::-2]).tolist()


class SplitMix64:
    """SplitMix64 stream starting from ``seed``."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        """Return the next 64-bit output."""
        self._state = (self._state + _GOLDEN) & _MASK64
        return mix64(self._state)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends inclusive.

        Rejection sampling over the 64-bit outputs; the expected number
        of draws per call is below 2.  The range may hold at most 2^64
        values; a wider one raises ValueError, and a bound that is not
        an int (a float, a str) raises TypeError.
        """
        span, limit = _rejection_limit(lo, hi)
        while True:
            u = self.next_u64()
            if u < limit:
                return lo + (u % span)

    def randints(self, lo: int, hi: int, count: int) -> list[int]:
        """``[self.randint(lo, hi) for _ in range(count)]``, with the
        stream left in the same state, computed in packed blocks.

        The accepted draws are the outputs below the rejection limit, in
        stream order.  Each block computes at most as many outputs as
        draws are still missing, so every accepted output in it is used
        and the stream ends right after the last one, as with randint.
        """
        span, limit = _rejection_limit(lo, hi)
        out: list[int] = []
        while len(out) < count:
            size = min(count - len(out), _BLOCK)
            lanes = _mix_lanes(self._state, size)
            self._state = (self._state + size * _GOLDEN) & _MASK64
            if max(lanes) >= limit:
                lanes = [u for u in lanes if u < limit]
            out += [lo + u % span for u in lanes]
        return out
