"""A small deterministic random number generator.

The RNG is implemented in-repo so that any (seed, stream_id) pair
produces bit-identical draws on every platform, independent of numpy's
own generator versioning.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# SplitMix64 golden-ratio increment and the two odd multipliers of the
# Stafford "variant 13" finalizer.
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_MULT_1 = 0xBF58476D1CE4E5B9
_MIX_MULT_2 = 0x94D049BB133111EB
# Independent odd constant (MurmurHash3 finalizer) used only to derive
# per-stream increments.
_STREAM_MULT = 0xFF51AFD7ED558CCD


def _mix64(z: int) -> int:
    """Stafford variant-13 finalizer; a bijection on 64-bit integers."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_MULT_1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_MULT_2) & _MASK64
    return z ^ (z >> 31)


# Draws per pass of `_draws`: the pass and its scratch (128 KiB
# each) stay in L2 while the finalizer runs over them.
_BLOCK_DRAWS = 16384


def _mix64_inplace(z: np.ndarray, tmp: np.ndarray) -> None:
    """`_mix64` over a uint64 array in place; tmp is same-size scratch."""
    for shift, mult in ((30, _MIX_MULT_1), (27, _MIX_MULT_2)):
        np.right_shift(z, shift, out=tmp)
        np.bitwise_xor(z, tmp, out=z)
        np.multiply(z, np.uint64(mult), out=z)
    np.right_shift(z, 31, out=tmp)
    np.bitwise_xor(z, tmp, out=z)


class RngStream:
    """Counter-style SplitMix64 stream with a per-stream increment.

    State advances by a stream-specific odd increment (gamma) and each
    draw is the mixed state. Outputs depend only on (seed, stream_id,
    position), so the sequence is reproducible bit-for-bit.

    Stream independence: the mixing finalizer is a bijection, so two
    streams emit the same value at some step only if their raw states
    coincide there. States advance by the streams' gammas, hence two
    streams with different gammas can never agree on two *consecutive*
    draws (equal consecutive states would force equal gammas). Gammas
    are derived by hashing (seed, stream_id); distinct pairs collide
    with probability 2^-63 per pair, which we treat as never.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        seed, stream_id = int(seed) & _MASK64, int(stream_id) & _MASK64
        h = _mix64(seed ^ _GOLDEN_GAMMA)
        self._state = _mix64(h ^ ((stream_id * _GOLDEN_GAMMA) & _MASK64))
        self._gamma = _mix64((h + stream_id * _STREAM_MULT) & _MASK64) | 1
        self._position = 0

    @property
    def position(self) -> int:
        """Number of 64-bit draws consumed so far."""
        return self._position

    def next_uint64(self) -> int:
        self._advance(1)
        return _mix64(self._state)

    def _draws(self, n: int, unit: bool = False) -> np.ndarray:
        """The next n draws, not consumed: raw uint64, bit-identical to n
        `next_uint64` calls, or with `unit` their unit uniforms (high 53
        bits times 2^-53), each pass converted while it is in cache."""
        if n < 0:
            raise ValueError(f"block size must be >= 0, got {n}")
        out = np.empty(n, dtype=np.float64 if unit else np.uint64)
        m = min(n, _BLOCK_DRAWS)
        # ramp[j] = (j + 1) * gamma mod 2^64; each pass adds its base state
        ramp = np.arange(1, m + 1, dtype=np.uint64)
        np.multiply(ramp, np.uint64(self._gamma), out=ramp)
        tmp, raw = np.empty((2, m), dtype=np.uint64)
        for a in range(0, n, _BLOCK_DRAWS):
            o = out[a:a + _BLOCK_DRAWS]
            z = raw[:len(o)] if unit else o
            base = (self._state + a * self._gamma) & _MASK64
            np.add(ramp[:len(o)], np.uint64(base), out=z)
            _mix64_inplace(z, tmp[:len(o)])
            if unit:    # < 2^53: the cast to float64 and the scaling are exact
                np.right_shift(z, 11, out=z)
                np.multiply(z.view(np.int64), 2.0**-53, out=o)
        return out

    def _advance(self, n: int) -> None:
        """Consume n draws without computing them."""
        self._state = (self._state + n * self._gamma) & _MASK64
        self._position += n

    def _next_block(self, n: int) -> np.ndarray:
        """n raw draws as uint64, bit-identical to n `next_uint64` calls."""
        out = self._draws(n)
        self._advance(n)
        return out

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        """Uniform float64 draws in [low, high).

        Each value consumes exactly one 64-bit draw; the unit value is
        the high 53 bits scaled by 2^-53.
        """
        if size is None:
            return low + (high - low) * ((self.next_uint64() >> 11) * 2.0**-53)
        shape = (size,) if np.isscalar(size) else tuple(size)
        n = int(np.prod(shape)) if shape else 1
        u = self._draws(n, unit=True)
        self._advance(n)
        u *= high - low
        u += low    # low + (high - low) * u, as in the scalar path
        return u.reshape(shape)

    def integers(self, upper: int, size=None):
        """Draws from {0, ..., upper-1} via floor(uniform * upper).

        Deterministic across platforms; the floor construction has a
        relative bias below 2^-53, negligible for any upper used here.
        """
        if upper <= 0:
            raise ValueError(f"upper must be positive, got {upper}")
        u = self.uniform(size=size)
        if size is None:
            return int(u * upper)
        return np.floor(u * upper).astype(np.int64)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n): stable argsort of n draws."""
        keys = self._next_block(n)
        return np.argsort(keys, kind="stable")
