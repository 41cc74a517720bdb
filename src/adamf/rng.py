"""Deterministic, portable pseudo-random number generation.

One generator algorithm is used everywhere: counter-based SplitMix64
(Steele, Lea & Flood, OOPSLA 2014).  Each generator holds a 64-bit key and
a draw counter; draw number i (counting from 1) is ``mix64(key + i*golden)``
in wrapping 64-bit arithmetic, which is exactly the SplitMix64 sequence
seeded with ``key``.  Because a draw depends only on (key, i), a block of n
draws is one whole-array numpy expression, and the bit stream is
reproducible from the 64-bit seed alone, with no dependence on library
internals.  Normals come from Box-Muller over pairs of draws.

Independent sub-streams are derived by hashing a purpose label into the
key: ``key = mix64(seed ^ fnv1a64(label))``.  Changing how much one stream
consumes (say, the number of negative samples) therefore never perturbs
another (say, parameter initialization).
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _fnv1a64(label: str) -> int:
    h = _FNV_OFFSET
    for byte in label.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def _mix64(z: int) -> int:
    """SplitMix64's finalizer on a Python int."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, in place on a uint64 array (wrapping)."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


class SeededRng:
    """Counter-based SplitMix64 generator with labeled sub-stream derivation.

    Identical (seed, stream) always yields the identical draw sequence.
    Scalar and bulk methods share the counter: n calls of ``uniform()`` see
    the same values as one ``uniforms(n)``.
    """

    algorithm = "splitmix64-counter"

    def __init__(self, seed: int, stream: str = "root"):
        self.seed = seed & _MASK64
        self.stream = stream
        self.key = _mix64(self.seed ^ _fnv1a64(stream))
        self.counter = 0  # draws consumed so far

    def substream(self, label: str) -> "SeededRng":
        """Derive an independent generator for a named purpose."""
        return SeededRng(self.seed, stream=f"{self.stream}/{label}")

    def next_uint64(self) -> int:
        self.counter += 1
        return _mix64((self.key + self.counter * _GOLDEN) & _MASK64)

    def _raw(self, n: int) -> np.ndarray:
        """The next n draws as a uint64 array."""
        start = (self.key + (self.counter + 1) * _GOLDEN) & _MASK64
        self.counter += n
        z = np.arange(n, dtype=np.uint64)
        z *= np.uint64(_GOLDEN)
        z += np.uint64(start)
        return _mix64_array(z)

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 significant bits."""
        return (self.next_uint64() >> 11) * 2.0 ** -53

    def uniforms(self, n: int) -> np.ndarray:
        return (self._raw(n) >> np.uint64(11)) * 2.0 ** -53

    def normal(self) -> float:
        return float(self.normals(1)[0])

    def normals(self, n: int) -> np.ndarray:
        """Standard normals via Box-Muller; two draws per pair of normals.

        The first draw of a pair maps to (0, 1], so log never sees zero; an
        odd n discards the last pair's second normal.
        """
        pairs = (n + 1) // 2
        raw = (self._raw(2 * pairs) >> np.uint64(11)).reshape(pairs, 2)
        u1 = (raw[:, 0] + np.uint64(1)) * 2.0 ** -53
        theta = raw[:, 1] * (2.0 ** -53 * 2.0 * np.pi)
        radius = np.sqrt(-2.0 * np.log(u1))
        return np.stack([radius * np.cos(theta), radius * np.sin(theta)],
                        axis=1).reshape(-1)[:n]

    def randint(self, bound: int) -> int:
        """Unbiased uniform integer in [0, bound) by rejection."""
        return int(self.randints([bound])[0])

    def randints(self, bounds) -> np.ndarray:
        """Unbiased integers in [0, bounds[i]) for each i, by rejection.

        One draw per slot; a draw v is rejected when v >= 2**64 - (2**64 mod
        bound), and rejected slots are redrawn, in slot order, from the
        following draws until none is rejected.  The result has the dtype of
        ``bounds`` (int64 for a list of ordinary ints).
        """
        bounds = np.asarray(bounds).reshape(-1)
        if bounds.size == 0:
            return np.zeros(0, dtype=np.int64)
        if bounds.dtype.kind not in "iu" or np.any(bounds <= 0):
            raise ValueError(f"bounds must be positive integers below 2**64, got {bounds}")
        ubounds = bounds.astype(np.uint64)
        zero = np.uint64(0)
        limit = zero - (zero - ubounds) % ubounds  # wraps to 0 when bound divides 2**64
        v = self._raw(bounds.size)
        pending = np.flatnonzero((limit != 0) & (v >= limit))
        while pending.size:
            v[pending] = self._raw(pending.size)
            pending = pending[v[pending] >= limit[pending]]
        return (v % ubounds).astype(bounds.dtype)

    def permutation(self, n: int) -> np.ndarray:
        """Uniform permutation of range(n): argsort of n drawn keys."""
        return np.argsort(self._raw(n), kind="stable")

    def choice_without_replacement(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n): the first k of ``permutation(n)``."""
        if not 0 <= k <= n:
            raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
        return np.argsort(self._raw(n), kind="stable")[:k].copy()
