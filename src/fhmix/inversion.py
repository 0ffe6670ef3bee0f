"""Inversion of a discrete cdf by a guide table.

Drawing from a discrete law by inversion means finding, for a uniform x, the
index ``np.searchsorted(cdf, x, side)``.  Chen and Asau's guide table
("indexed search"; Devroye, *Non-Uniform Random Variate Generation*, 1986,
section III.2.4) cuts [0, 1) into 2^g equal cells and stores, per cell c,
the number of cdf entries below its left edge c / 2^g.  For x in cell c,
``floor(x 2^g)``, every entry below that edge is below x and every entry
from the next edge on is above it, so the index is that count plus the
number of entries inside the cell that x passes.  :func:`levels` picks 2^g
so that at most one entry falls in a cell, where it can (at most 2^16
cells), and :func:`index` then counts the entries inside x's cell by a
binary search of fixed length over the cdf padded with 2.0 sentinels: a
gather, a multiply and one step per bit of the most entries any cell holds,
for every x at once, with no branch.  ``np.searchsorted`` takes ceil(log2 k)
steps whose branches go either way at random for random x.  The sampler
searches the running sums at a recipe's k atoms of positive mass alone, and
an empirical marginal's cumulative weights.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

#: the most cells a guide table has
MAX_CELLS = 2 ** 16


class Guide(NamedTuple):
    """Search tables of a cdf (:func:`levels`)."""

    cells: np.ndarray  # entry c is #{cdf < c / len(cells)}, as intp
    cdf: np.ndarray  # the cdf, then 2^steps - 1 sentinels of 2.0
    steps: int  # ceil(log2(M + 1)), M the most entries below 1 in one cell


def levels(cdf: np.ndarray) -> Guide:
    """The guide table of ``cdf`` and the length of the search in a cell.

    ``cdf`` must be nondecreasing.  Its last entry is taken as 1.0 (a float
    running sum of a law's masses may end just short of it), so no x < 1 is
    ever counted past its end; ``cdf`` itself is not changed.  The table has
    the fewest cells, a power of two at least 2k for k entries, that put at
    most one entry below 1 in a cell, or ``MAX_CELLS`` if none up to it
    does.  So a search takes at most ceil(log2(k + 1)) steps, and one where
    the entries are apart.
    """
    cdf = np.array(cdf, dtype=float)
    cdf[-1] = 1.0
    inner = cdf[:np.searchsorted(cdf, 1.0)]
    # two entries share a cell of 2^g exactly when their cells of MAX_CELLS
    # agree in the top g bits, so the first bit where neighbours differ, from
    # the top, sets the fewest cells that part them
    fine = (inner * MAX_CELLS).astype(np.intp)
    apart = np.frexp(np.bitwise_xor(fine[1:], fine[:-1]))[1]  # bit lengths, 0 if equal
    parted = 1 << MAX_CELLS.bit_length() - apart.min(initial=MAX_CELLS.bit_length())
    size = min(MAX_CELLS, max(1 << (2 * len(cdf) - 1).bit_length(), parted))
    counts = np.bincount((inner * size).astype(np.intp), minlength=size)
    cells = np.zeros(size, np.intp)
    np.cumsum(counts[:-1], out=cells[1:])
    steps = int(counts.max()).bit_length()
    padded = np.full(len(cdf) + (1 << steps) - 1, 2.0)
    padded[:len(cdf)] = cdf
    return Guide(cells, padded, steps)


def index(tables: Guide, x: np.ndarray, side: str,
          work: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """``np.searchsorted(cdf, x, side)`` for x in [0, 1), from ``levels(cdf)``.

    ``work``, if given, is an (intp, float64, bool) triple of arrays shaped
    like ``x`` that the search uses in place of new ones; the result is then
    its first array.
    """
    step = np.less_equal if side == "right" else np.less
    x = np.asarray(x)
    if work is None:
        work = np.empty(x.shape, np.intp), np.empty(x.shape), np.empty(x.shape, bool)
    p, edge, bit = work
    # x 2^g is exact, and below 2^g, so truncation is its cell; take reads
    # each cell before it writes its count over it, and every index is in
    # range, so "clip" is only the fastest mode of take
    np.multiply(x, len(tables.cells), out=edge)
    np.copyto(p, edge, casting="unsafe")
    tables.cells.take(p, out=p, mode="clip")
    # p counts the entries below the cell; the cell's entries, then entries
    # of later cells or sentinels, all above x, follow it
    for s in reversed(range(tables.steps)):
        half = 1 << s
        tables.cdf[half - 1:].take(p, out=edge, mode="clip")
        step(edge, x, out=bit)
        if half == 1:  # adding the bools beats a masked add
            p += bit
        else:
            np.add(p, half, out=p, where=bit)
    return p
