"""Deterministic random-stream derivation.

Every random draw in the package flows through a generator obtained from
:func:`substream`, keyed by a master seed plus context tags (seed index,
round number, purpose string, entity id).  Each tag tuple maps to an
independent counter-based Philox stream, so work items can run in any
order, or in parallel, without changing results.  A block of seeds draws
through :class:`SeedStreams`, one generator per seed, so each seed's
stream sees the same draws as when the seed runs alone.
"""

import hashlib

import numpy as np


def substream(*tags):
    """Return a ``numpy.random.Generator`` that is a pure function of the tags.

    Tags may be ints or strings.  The encoding is injective: distinct tag
    tuples can never produce the same stream key.
    """
    h = hashlib.sha256()
    for tag in tags:
        if isinstance(tag, str):
            raw = tag.encode("utf-8")
            h.update(b"s" + len(raw).to_bytes(4, "big") + raw)
        elif isinstance(tag, (int, np.integer)) and not isinstance(tag, bool):
            h.update(b"i" + int(tag).to_bytes(16, "big", signed=True))
        else:
            raise TypeError(f"stream tags must be ints or strings, got {tag!r}")
    key = np.frombuffer(h.digest()[:16], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class SeedStreams:
    """The generators of a block of seeds, drawing as one.

    A draw of shape (S, *shape) takes its entry s from generator s with
    shape ``shape``, so every seed's stream yields the numbers, in the order
    and shapes, that it yields when the seed is drawn alone.
    """

    def __init__(self, generators):
        self.generators = tuple(generators)

    def standard_normal(self, shape):
        if shape[0] != len(self.generators):
            raise ValueError(f"draw of shape {tuple(shape)} from a block of "
                             f"{len(self.generators)} seeds")
        out = np.empty(shape)
        for g, row in zip(self.generators, out.reshape(len(out), -1)):
            g.standard_normal(out=row)
        return out


def substreams(seed_tags, *tags):
    """SeedStreams of ``substream(*tags_s, *tags)`` for each seed's tags."""
    return SeedStreams(substream(*tags_s, *tags) for tags_s in seed_tags)
