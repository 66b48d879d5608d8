"""Uniform random streams with deterministic substream spawning.

Every sampler in the package draws plain uniforms from one of these
stream objects, so seeding policy lives in exactly one place.  Parallel
work splits a root seed into independent child streams through
``numpy``'s ``SeedSequence`` spawning; chunk results are then combined
in fixed chunk order, which makes multi-threaded runs reproducible.

Uniforms are returned on the half-open interval (0, 1]: the lower
endpoint is excluded so logarithms of uniforms are always finite.
"""
from __future__ import annotations

import numpy as np


class UniformStream:
    """Interface: a source of i.i.d. uniforms on (0, 1]."""

    def uniforms(self, n: int) -> np.ndarray:
        """Return ``n`` uniforms as a 1-d array."""
        raise NotImplementedError


class PcgStream(UniformStream):
    """PCG64-backed uniform stream.

    Parameters
    ----------
    seed : int or numpy.random.SeedSequence
        Root entropy.  Child streams created by :meth:`spawn` are
        statistically independent of the parent and of each other.
    """

    def __init__(self, seed):
        if isinstance(seed, np.random.SeedSequence):
            self._seq = seed
        else:
            self._seq = np.random.SeedSequence(int(seed))
        self._gen = np.random.Generator(np.random.PCG64(self._seq))

    # no caller here: benchmarks/tracing.py patches PcgStream.next_uniform by name
    def next_uniform(self) -> float:
        return 1.0 - self._gen.random()

    def uniforms(self, n: int) -> np.ndarray:
        # Generator.random() covers [0, 1); flip to (0, 1] in place.
        u = self._gen.random(int(n))
        return np.subtract(1.0, u, out=u)

    def spawn(self, n: int) -> list["PcgStream"]:
        """Create ``n`` independent child streams."""
        return [PcgStream(s) for s in self._seq.spawn(int(n))]

