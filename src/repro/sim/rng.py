"""Seeded random number generation helpers.

All stochastic components derive their generators from a single root seed so
whole experiments are reproducible.  Components should never call
``numpy.random`` module-level functions directly.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed, *streams) -> np.random.Generator:
    """Create a :class:`numpy.random.Generator` for a named substream.

    ``streams`` is a sequence of strings or integers identifying the
    component (e.g. ``make_rng(42, "pebs")``).  Two calls with the same seed
    and stream names return generators producing identical sequences, while
    different stream names decorrelate components sharing one root seed.
    """
    material = [_to_int(seed)] + [_to_int(s) for s in streams]
    return np.random.default_rng(np.random.SeedSequence(material))


def _to_int(value) -> int:
    if isinstance(value, (int, np.integer)):
        return int(value) & 0xFFFFFFFF
    if isinstance(value, str):
        # FNV-1a over the UTF-8 bytes; stable across processes (unlike hash()).
        h = 0x811C9DC5
        for byte in value.encode("utf-8"):
            h = ((h ^ byte) * 0x01000193) & 0xFFFFFFFF
        return h
    raise TypeError(f"cannot derive RNG stream from {type(value).__name__}")


class WeightedChoice:
    """Draw indices in proportion to fixed ``weights``, draw for draw as
    ``rng.choice(len(weights), p=weights)`` would.

    ``Generator.choice`` rebuilds the normalized cumulative sum on every
    call and then bisects one ``random()`` draw; this builds it once.
    """

    __slots__ = ("_cdf",)

    def __init__(self, weights):
        cdf = np.cumsum(np.asarray(weights, dtype=np.float64))
        cdf /= cdf[-1]
        self._cdf = cdf

    def draw(self, rng: np.random.Generator) -> int:
        return int(self._cdf.searchsorted(rng.random(), side="right"))
