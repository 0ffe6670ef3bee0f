"""Inversion of a discrete cdf by a branchless binary search.

Drawing from a discrete law by inversion means finding, for a uniform x, the
index ``np.searchsorted(cdf, x, side)``.  With the cdf padded by 1.0s to 2^L
entries, that index has L bits, and bit i (counting from the top) is one
comparison of x with the cdf at the midpoint of the block of entries that
share the index's first i bits.  :func:`levels` tabulates those midpoints
per depth, and :func:`index` descends them for every x at once: L vectorized
steps with no branch to mispredict, where the branches of
``np.searchsorted`` go either way at random for random x.  A pmf over
{0,1}^n has L = n, and the sampler takes one step per coordinate, since
bit i is coordinate i's coin.
"""

from __future__ import annotations

import numpy as np


def levels(cdf: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per depth i, the cdf at the midpoint of each of its 2^i blocks.

    ``cdf`` must be nondecreasing and end at 1.0; it is padded with 1.0 to
    a power of two, so no x < 1 is ever counted past its end.
    """
    depth = max(1, (len(cdf) - 1).bit_length())
    padded = np.ones(1 << depth)
    padded[:len(cdf)] = cdf
    return tuple(padded[(1 << (depth - 1 - i)) - 1::1 << (depth - i)].copy()
                 for i in range(depth))


def index(tables: tuple[np.ndarray, ...], x: np.ndarray, side: str) -> np.ndarray:
    """``np.searchsorted(cdf, x, side)`` for x in [0, 1), from ``levels(cdf)``."""
    step = np.less_equal if side == "right" else np.less
    x = np.asarray(x)
    p = np.zeros(x.shape, np.intp)
    edge = np.empty(x.shape)
    bit = np.empty(x.shape, bool)
    for table in tables:
        # p holds the index's first i bits, so p < 2^i: "clip" is only the
        # fastest mode of take
        table.take(p, out=edge, mode="clip")
        step(edge, x, out=bit)
        p += p
        p += bit
    return p
