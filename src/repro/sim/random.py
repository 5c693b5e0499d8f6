"""Seeded randomness for reproducible simulation runs.

Every stochastic component (reorderers, loss, cross traffic, workload
generation) draws from a :class:`SeededRandom` handed to it explicitly, so a
whole experiment is a pure function of its seed.  Components that need
independent streams derive child generators with :meth:`SeededRandom.fork`.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")


class SeededRandom:
    """A thin, explicit wrapper around :class:`random.Random`.

    The wrapper exists for two reasons: to make forking independent streams a
    first-class, documented operation, and to keep the rest of the library
    free of module-level random state.
    """

    def __init__(self, seed: int) -> None:
        self._seed = int(seed)
        self._rng = random.Random(self._seed)
        self._fork_counter = 0
        self.random: Callable[[], float] = self._rng.random
        """Return a float uniformly distributed in ``[0, 1)``: the generator's
        own bound method, so a per-packet draw is one call into C."""

    @property
    def seed(self) -> int:
        """The seed this generator was created with."""
        return self._seed

    def fork(self, label: str = "") -> "SeededRandom":
        """Return a new generator whose stream is independent of this one.

        The child seed is derived deterministically from the parent seed, the
        fork order, and an optional label, so adding a new consumer of
        randomness does not perturb existing streams as long as fork order is
        stable.  A cryptographic digest is used (rather than ``hash``) so the
        derivation is identical across processes and Python invocations.
        """
        self._fork_counter += 1
        return self._child(f"{self._seed}/{self._fork_counter}/{label}")

    def derive(self, label: str) -> "SeededRandom":
        """Return a generator derived from this seed and ``label`` alone.

        Unlike :meth:`fork`, the derivation is stateless: it does not consume
        the fork counter, and the child stream depends only on the parent
        *seed* and the label — not on how many forks happened before.  This is
        what lets a sharded campaign rebuild any subset of a testbed and hand
        each site exactly the stream it would have received in the full build
        (see :mod:`repro.core.runner`).  The label namespace is kept disjoint
        from :meth:`fork`'s counter-based material.
        """
        return self._child(f"{self._seed}::derive::{label}")

    @staticmethod
    def _child(material: str) -> "SeededRandom":
        """Derive a child generator from seed material (shared by fork/derive).

        A cryptographic digest (rather than ``hash``) keeps the derivation
        identical across processes and Python invocations.
        """
        digest = hashlib.blake2b(material.encode(), digest_size=8).digest()
        return SeededRandom(int.from_bytes(digest, "big") & 0x7FFFFFFFFFFFFFFF)

    def uniform(self, low: float, high: float) -> float:
        """Return a float uniformly distributed in ``[low, high]``."""
        return self._rng.uniform(low, high)

    def bernoulli(self, probability: float) -> bool:
        """Return True with the given probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._rng.random() < probability

    def exponential(self, mean: float) -> float:
        """Return an exponentially distributed float with the given mean."""
        if mean <= 0.0:
            raise ValueError(f"mean must be positive: {mean}")
        return self._rng.expovariate(1.0 / mean)

    def randint(self, low: int, high: int) -> int:
        """Return an integer uniformly distributed in ``[low, high]`` inclusive.

        :meth:`random.Random.randint`'s rejection rule in one frame instead of
        four: the same draws from ``getrandbits``, so the same values.
        """
        span = high - low + 1
        if span <= 0:
            raise ValueError(f"empty range for randint(): [{low}, {high}]")
        bits = span.bit_length()
        value = self._rng.getrandbits(bits)
        while value >= span:
            value = self._rng.getrandbits(bits)
        return low + value

    def choice(self, options: Sequence[T]) -> T:
        """Return a uniformly chosen element of ``options``."""
        return self._rng.choice(options)

    def shuffle(self, items: list[T]) -> None:
        """Shuffle ``items`` in place."""
        self._rng.shuffle(items)

    def gauss(self, mean: float, stddev: float) -> float:
        """Return a normally distributed float."""
        return self._rng.gauss(mean, stddev)
