"""Counter-based random number generation with derivable substreams.

Every source of randomness in this package (dataset shuffles, per-node
training permutations, synthetic data) draws from a SplitMix64 stream.
The generator is counter-based: output i is a pure function of (seed,
i), so streams can be replayed, snapshotted by value, and generated in
bulk with numpy.  Substreams are derived by hashing the parent seed
together with integer tags, which keeps every component's randomness an
explicit function of the run seed and its position in the computation.

`shuffle` is a Fisher-Yates shuffle whose index draws are exactly those of
`randbelow`, one per position from the last down.  Above a small size it
draws them in one `next_u64_array` call and reduces them with numpy; the
scalar loop is the reference, used for short inputs and whenever a draw
would be rejected.

`shuffled` draws the order of one int64 row vector, a standard-CV
fold's or a tree node's in the Python recursion: by one call of the
compiled `shuffle` (`_kernels.c`), or by `SplitMix64Stream.shuffle` on a
list when the kernels are not loaded or the vector is shorter than a
kernel call is worth.  That kernel is `shuffle`'s scalar loop in C,
randbelow's rejection included, so it gives the permutation `shuffle`
gives; the loader checks that against `shuffle` before it keeps the
kernels (`_native`).  (The compiled tree recursion, `tree_feed`, runs
the same loop in C on each range it feeds.)  The oracle's feed orders
(`tree.tree_feed_orders`) keep to the list, so the tests check the one
against the other.

The stream is pinned by test vectors (see tests/test_rng.py); any change
to the constants below is a breaking change to reproducibility.
"""

from __future__ import annotations

import math

import numpy as np

_TOP = 1 << 64
_MASK64 = _TOP - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Shuffles of at least this many elements draw in bulk, and `shuffled`
# hands them to the kernel: below it numpy's fixed cost per call (~15 us
# on a 2-vCPU Xeon VM), or a checked kernel call's (~22 us), is more than
# the scalar loop's ~0.5-0.8 us per element.
_BULK_MIN = 24


def _mix(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


# the constants as numpy scalars, made once
_U_GAMMA, _U_MIX1, _U_MIX2 = np.uint64(_GAMMA), np.uint64(_MIX1), np.uint64(_MIX2)
_U11, _U27, _U30, _U31 = np.uint64(11), np.uint64(27), np.uint64(30), np.uint64(31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 finalizer, in place on a uint64 array."""
    z ^= z >> _U30
    z *= _U_MIX1
    z ^= z >> _U27
    z *= _U_MIX2
    z ^= z >> _U31
    return z


def _picks(draws: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """randbelow's pick and rejection test, elementwise over uint64 arrays:
    draw u with bound b picks u % b and is rejected when u - u % b >
    2**64 - b.  Returns (picks, rejected); overwrites both arguments."""
    picks = draws % bounds
    draws -= picks
    np.negative(bounds, out=bounds)  # 2**64 - bound, in uint64
    return picks, draws > bounds


def derive_seed(seed: int, *tags: int) -> int:
    """Derive a child seed from a parent seed and integer tags.

    Deterministic and order-sensitive in the tags; distinct tag tuples
    give statistically independent streams.
    """
    state = seed & _MASK64
    for tag in tags:
        state = (state + _GAMMA) & _MASK64
        state = _mix(state ^ (tag & _MASK64))
    return state


class SplitMix64Stream:
    """Sequential view of a SplitMix64 counter stream.

    State is the single 64-bit counter, so `state` is an exact snapshot:
    `SplitMix64Stream(stream.state)` replays the stream from there.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    @property
    def state(self) -> int:
        return self._state

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state)

    def next_u64_array(self, count: int) -> np.ndarray:
        """Bulk draw of `count` outputs, identical to `count` scalar calls."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        states = np.arange(1, count + 1, dtype=np.uint64)
        states *= _U_GAMMA
        states += np.uint64(self._state)
        self._state = (self._state + count * _GAMMA) & _MASK64
        return _mix_array(states)

    def uniform(self) -> float:
        """Double in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform_array(self, count: int) -> np.ndarray:
        return (self.next_u64_array(count) >> _U11).astype(np.float64) * 2.0**-53

    def normal_array(self, count: int) -> np.ndarray:
        """Standard normals via Box-Muller; consumes 2*ceil(count/2) outputs.

        With pairs = ceil(count/2), u1 is `uniform_array(pairs)` and u2 the
        next `uniform_array(pairs)`, drawn in one call; a zero u1 becomes
        2**-53.  The normals are radius * cos(theta) for every pair, then
        radius * sin(theta), with radius = sqrt(-2 log u1) and theta =
        2 pi u2, computed in place in those two buffers.
        """
        pairs = (count + 1) // 2
        draws = self.next_u64_array(2 * pairs)
        draws >>= _U11
        uniforms = draws.astype(np.float64)
        del draws
        uniforms *= 2.0**-53
        radius, theta = uniforms[:pairs], uniforms[pairs:]
        radius[radius == 0.0] = 2.0**-53
        np.log(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        theta *= 2.0 * math.pi
        out = np.empty(2 * pairs)
        np.cos(theta, out=out[:pairs])
        np.sin(theta, out=out[pairs:])
        out[:pairs] *= radius
        out[pairs:] *= radius
        return out[:count]

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (_TOP // n) * n
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def shuffle(self, values) -> None:
        """In-place Fisher-Yates shuffle of a mutable sequence.

        For i from len-1 down to 1, swaps position i with j =
        randbelow(i + 1); the permutation and the stream state afterwards
        are those of that loop.  From `_BULK_MIN` elements on, the len-1
        draws come from one `next_u64_array` call and j = u % (i + 1) is
        computed in numpy, with randbelow's rejection test applied to
        every draw (`_picks`); if any draw would be rejected, the stream
        goes back to where it started and the scalar loop runs instead.
        A list swaps fastest: shuffling one and converting it to an int64
        array took about two thirds of the time of shuffling a memoryview
        over that array, at 1,000 and 10,000 elements (CPython 3.11,
        numpy 2.4).  An ndarray works but makes a numpy scalar per access.
        """
        n = len(values)
        if n >= _BULK_MIN:
            start = self._state
            draws = self.next_u64_array(n - 1)
            picks, rejected = _picks(draws, np.arange(n, 1, -1, dtype=np.uint64))
            if not rejected.any():
                for i, j in zip(range(n - 1, 0, -1), memoryview(picks)):
                    values[i], values[j] = values[j], values[i]
                return
            self._state = start
        # randbelow and next_u64, inlined for speed
        state = self._state
        for i in range(n - 1, 0, -1):
            bound = i + 1
            while True:
                state = (state + _GAMMA) & _MASK64
                u = ((state ^ (state >> 30)) * _MIX1) & _MASK64
                u = ((u ^ (u >> 27)) * _MIX2) & _MASK64
                u ^= u >> 31
                j = u % bound
                if u - j <= _TOP - bound:
                    break
            values[i], values[j] = values[j], values[i]
        self._state = state

    def permutation(self, n: int) -> np.ndarray:
        """A uniformly shuffled int64 `np.arange(n)`."""
        order = list(range(n))
        self.shuffle(order)
        return np.array(order, dtype=np.int64)


def shuffled(kernels, rows: np.ndarray, seed: int) -> np.ndarray:
    """The int64 vector `rows` in the order `SplitMix64Stream(seed).shuffle`
    leaves it in; `rows` may be shuffled in place.

    With the kernels loaded (`_native.kernels()`), a vector of at least
    `_BULK_MIN` rows is shuffled in place by one call of the compiled
    `shuffle`, which needs it writable, int64, one-dimensional and
    C-contiguous; ValueError says it is not, before the kernel reads or
    writes it.  Otherwise, and with `kernels` None, it is shuffled as a
    list by `SplitMix64Stream.shuffle`.
    """
    if kernels is None or rows.size < _BULK_MIN:
        order = rows.tolist()
        SplitMix64Stream(seed).shuffle(order)
        return np.array(order, dtype=np.int64)
    if (type(rows) is not np.ndarray or rows.dtype != np.int64 or rows.ndim != 1
            or not rows.flags.c_contiguous or not rows.flags.writeable):
        raise ValueError("a compiled shuffle needs a writable, C-contiguous int64 vector")
    kernels.shuffle(rows.ctypes.data, rows.size, seed)
    return rows
