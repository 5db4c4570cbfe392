"""Seeded randomness for deterministic simulations.

Every source of randomness in the reproduction (pid allocation, workload
generation, fault injection) draws from a :class:`DeterministicRng` so that a
given seed reproduces a run exactly.  Sub-streams are derived by name, which
keeps components independent: adding a new consumer does not perturb the
sequences other components see.
"""

from __future__ import annotations

import random
import zlib
from typing import Sequence, TypeVar

T = TypeVar("T")


class DeterministicRng:
    """A named hierarchy of seeded ``random.Random`` streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the sub-stream for ``name``, creating it on first use.

        The sub-seed mixes the root seed with a CRC of the name, so streams
        are stable across runs and independent of creation order.
        """
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        stream = random.Random(self._sub_seed(name))
        self._streams[name] = stream
        return stream

    def _sub_seed(self, name: str) -> int:
        return (self.seed * 0x9E3779B1 + zlib.crc32(name.encode())) & 0xFFFFFFFF

    def randint(self, name: str, low: int, high: int) -> int:
        return self.stream(name).randint(low, high)

    def randint_once(self, name: str, low: int, high: int) -> int:
        """The first ``randint`` of the stream ``name``, for a consumer
        that draws only once: the stream is not kept."""
        return random.Random(self._sub_seed(name)).randint(low, high)

    def choice(self, name: str, items: Sequence[T]) -> T:
        return self.stream(name).choice(items)

    def shuffle(self, name: str, items: list) -> None:
        self.stream(name).shuffle(items)

    def uniform(self, name: str, low: float, high: float) -> float:
        return self.stream(name).uniform(low, high)

    def zipf_index(self, name: str, n: int, skew: float = 1.0) -> int:
        """Draw an index in ``[0, n)`` with Zipf(skew) popularity.

        Used by the workload generators to model the heavily skewed name
        popularity real file traffic exhibits.  Implemented by inverse CDF
        over the finite harmonic weights; O(n) setup is cached per (n, skew).
        """
        key = (name, n, skew)
        cdf = self._zipf_cdfs.get(key)
        if cdf is None:
            weights = [1.0 / (rank**skew) for rank in range(1, n + 1)]
            total = sum(weights)
            acc = 0.0
            cdf = []
            for weight in weights:
                acc += weight / total
                cdf.append(acc)
            self._zipf_cdfs[key] = cdf
        point = self.stream(name).random()
        lo, hi = 0, n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cdf[mid] < point:
                lo = mid + 1
            else:
                hi = mid
        return lo

    _zipf_cdfs: dict = {}

    def __init_subclass__(cls, **kwargs) -> None:  # pragma: no cover - guard
        raise TypeError("DeterministicRng is not designed for subclassing")


def derive_seed(seed: int, *names: str) -> int:
    """Stand-alone helper to derive a stable sub-seed from a chain of names."""
    value = seed & 0xFFFFFFFF
    for name in names:
        value = (value * 0x9E3779B1 + zlib.crc32(name.encode())) & 0xFFFFFFFF
    return value
