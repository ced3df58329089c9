"""Deterministic random number generation.

Every stochastic component of the simulator (leaf remapping, workload
generation, the toy cipher) draws from a :class:`DeterministicRng` so that
experiments are exactly reproducible from a seed.  The class is a thin,
explicit wrapper around :class:`random.Random`; we avoid the module-level
``random`` state entirely.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_left
from functools import lru_cache
from typing import Tuple


@lru_cache(maxsize=None)
def zipf_cdf(n: int, theta: float) -> Tuple[float, ...]:
    """Cumulative Zipf(``theta``) weights over ``[0, n)``, built once per pair.

    ``bisect_left(zipf_cdf(n, theta), u)`` for a uniform ``u`` in [0, 1) is
    the inverse-CDF Zipf draw :meth:`DeterministicRng.zipf` makes; the DBMS
    generators that draw per operation bisect the cached table themselves.
    """
    weights = [1.0 / (i + 1) ** theta for i in range(n)]
    total = sum(weights)
    acc = 0.0
    cdf = []
    for w in weights:
        acc += w / total
        cdf.append(acc)
    return tuple(cdf)


class DeterministicRng:
    """Seeded random source with the handful of draws the simulator needs."""

    def __init__(self, seed: int = 0):
        self._seed = seed
        self._random = random.Random(seed)
        #: Bound ``Random._randbelow`` -- ``randbelow(n)`` draws exactly the
        #: same value (and consumes exactly the same generator state) as
        #: ``random_leaf(n)``, minus two wrapper frames and ``randrange``'s
        #: argument checks.  Hot paths that draw a leaf per access use this.
        self.randbelow = self._random._randbelow
        #: Bound ``Random.random`` -- the float :meth:`random` returns, minus
        #: its wrapper frame, for generators that draw per trace entry.
        self.random_unit = self._random.random
        #: Bound ``Random.getrandbits``: a uniform integer with the given
        #: number of random bits.  ``_randbelow(n)`` is ``getrandbits(k)``
        #: with ``k = n.bit_length()``, redrawn while ``>= n``; a hot path
        #: may run that loop itself and consume the generator identically.
        self.getrandbits = self._random.getrandbits

    def fork(self, salt: int) -> "DeterministicRng":
        """Derive an independent child generator.

        Components that should not perturb each other's random streams
        (e.g. the workload generator vs. the ORAM's leaf remapper) each get
        a fork with a distinct salt.
        """
        return DeterministicRng(hash((self._seed, salt)) & 0x7FFFFFFFFFFFFFFF)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range [low, high]."""
        return self._random.randint(low, high)

    def random_leaf(self, num_leaves: int) -> int:
        """Uniform leaf label in [0, num_leaves)."""
        return self._random.randrange(num_leaves)

    def random_leaves(self, num_leaves: int, count: int) -> array:
        """``count`` uniform leaf labels in [0, num_leaves) as an ``array('q')``.

        Draw-order contract: the result equals
        ``[self.random_leaf(num_leaves) for _ in range(count)]`` element for
        element and leaves the generator in the same state, because it runs
        the loop ``randrange`` runs -- ``getrandbits(num_leaves.bit_length())``,
        redrawn while the value is ``>= num_leaves`` -- once per label, in
        order.  Every tree build draws its initial leaves through here, so
        the contract is what keeps a build bit-identical to the per-block
        draws it replaced (``tests/test_build_differential.py``).
        """
        if num_leaves < 1:
            raise ValueError("need at least one leaf to draw from")
        getrandbits = self._random.getrandbits
        bits = num_leaves.bit_length()
        leaves = array("q")
        append = leaves.append
        for _ in range(count):
            leaf = getrandbits(bits)
            while leaf >= num_leaves:
                leaf = getrandbits(bits)
            append(leaf)
        return leaves

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._random.random()

    def geometric(self, mean: float) -> int:
        """Geometric draw with the given mean (support {1, 2, ...}).

        Used for sequential-run lengths in the workload generators.  A mean
        of 1.0 (or smaller) always returns 1.
        """
        if mean <= 1.0:
            return 1
        # P(success) per trial so that E[X] = mean for X in {1, 2, ...}.
        p = 1.0 / mean
        u = self._random.random()
        # Inverse CDF of the geometric distribution.
        return max(1, int(math.ceil(math.log(1.0 - u) / math.log(1.0 - p))))

    def expovariate_int(self, mean: float) -> int:
        """Exponential draw rounded to an int >= 0 (compute-gap cycles)."""
        if mean <= 0.0:
            return 0
        return int(self._random.expovariate(1.0 / mean))

    def zipf(self, n: int, theta: float) -> int:
        """Zipfian draw over [0, n) with skew ``theta`` (YCSB-style).

        theta = 0 is uniform; YCSB's default is 0.99.  Uses the standard
        inverse-CDF construction over precomputed harmonic weights
        (:func:`zipf_cdf`, cached per (n, theta) since the DBMS generators
        draw millions of times).
        """
        return bisect_left(zipf_cdf(n, theta), self._random.random())

    def permutation(self, n: int) -> list:
        """Random permutation of range(n)."""
        values = list(range(n))
        self._random.shuffle(values)
        return values

    def state_snapshot(self) -> object:
        """Opaque snapshot of internal state (for checkpoint/restore tests)."""
        return self._random.getstate()

    def state_restore(self, snapshot: object) -> None:
        """Restore a snapshot taken with :meth:`state_snapshot`."""
        self._random.setstate(snapshot)  # type: ignore[arg-type]

