import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fhmix.inversion import index, levels

SIDES = ("left", "right")


def clustered_cdf(k: int) -> np.ndarray:
    """One heavy atom, then k - 1 atoms of 1e-6 packed into a narrow stretch."""
    cdf = np.cumsum([1.0 - (k - 1) * 1e-6] + [1e-6] * (k - 1))
    cdf[-1] = 1.0
    return cdf


@st.composite
def cdfs(draw):
    kind = draw(st.sampled_from(["random", "dyadic", "zeros", "clustered"]))
    k = draw(st.integers(1, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "clustered":
        return clustered_cdf(k)
    if kind == "dyadic":
        # entries j / 2^m: exact, and often equal to the query itself
        m = 2 ** draw(st.integers(1, 16))
        return np.append(np.sort(rng.integers(0, m, k - 1)) / m, 1.0)
    w = rng.random(k) ** 4
    if kind == "zeros":
        w *= rng.random(k) < 0.3
    w[-1] += w.sum() == 0.0
    cdf = np.cumsum(w / w.sum())
    cdf[-1] = 1.0
    return cdf


def queries(cdf: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    inner = cdf[cdf < 1.0]
    x = np.concatenate([inner, np.nextafter(inner, 0.0), np.nextafter(inner, 1.0),
                        [0.0, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53], rng.random(256)])
    return x[(x >= 0.0) & (x < 1.0)]


@settings(max_examples=300, deadline=None)
@given(cdf=cdfs(), seed=st.integers(0, 2 ** 32 - 1))
@example(cdf=clustered_cdf(2000), seed=0)
@example(cdf=np.arange(1, 4097) / 4096, seed=0)
def test_index_equals_searchsorted(cdf, seed):
    x = queries(cdf, np.random.default_rng(seed))
    tables = levels(cdf)
    for side in SIDES:
        assert np.array_equal(index(tables, x, side), np.searchsorted(cdf, x, side))
        assert index(tables, x[0], side) == np.searchsorted(cdf, x[0], side)


def test_levels_is_the_guide_table_of_the_cdf():
    # 16 cells, the fewest >= 2k that part the entries below 1; cell c holds
    # #{cdf < c/16}, and the cdf is padded with 2^1 - 1 sentinels
    cdf = np.array([0.1, 0.3, 0.6, 0.8, 1.0])
    guide = levels(cdf)
    assert guide.cells.tolist() == [0, 0, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 4, 4, 4]
    assert guide.cdf.tolist() == [0.1, 0.3, 0.6, 0.8, 1.0, 2.0] and guide.steps == 1
    # 0.25 and 0.3 share a cell of 8 and of 16, not of 32
    assert len(levels(np.array([0.25, 0.3, 1.0])).cells) == 32
    # equal sums share every cell: the table stops at 2^16 cells, and the
    # search takes two steps
    guide = levels(np.array([0.5, 0.5, 1.0]))
    assert len(guide.cells) == 2 ** 16 and guide.steps == 2
    assert guide.cdf.tolist() == [0.5, 0.5, 1.0, 2.0, 2.0, 2.0]
    guide = levels(np.array([1.0]))
    assert guide.cells.tolist() == [0, 0] and guide.steps == 0


def on_cell_edges(g: int) -> np.ndarray:
    """Entries c / 2^g for every other c, each on an edge of the 2^g cells
    that part them."""
    return np.append(np.arange(1, 2 ** (g - 1)) * 2.0 / 2 ** g, 1.0)


def crowded_cell(k: int) -> np.ndarray:
    """k - 1 entries 1e-12 apart inside one cell of 2^16, then 1.0."""
    return np.append(0.3 + 1e-12 * np.arange(k - 1), 1.0)


def normalized(w: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(w / w.sum())
    cdf[-1] = 1.0
    return cdf


def tiny_weights(k: int) -> np.ndarray:
    """Weights from 1 down to 1e-300: the small ones add nothing to the
    sums, so runs of equal entries share every cell."""
    return normalized(10.0 ** -np.linspace(0.0, 300.0, k))


@pytest.mark.parametrize("cdf", [
    on_cell_edges(4), on_cell_edges(13), crowded_cell(2000), tiny_weights(60),
    tiny_weights(700), np.array([1.0]), np.arange(1, 4097) / 4096,
    normalized(np.random.default_rng(3).random(4096)),
], ids=["edges-16", "edges-8192", "crowded-2000", "tiny-60", "tiny-700", "k-1",
        "dyadic-4096", "random-4096"])
def test_guide_searches_are_short_and_exact(cdf):
    k = len(cdf)
    guide = levels(cdf)
    assert len(guide.cells) <= 2 ** 16
    assert guide.steps <= math.ceil(math.log2(k + 1))
    x = np.concatenate([queries(cdf, np.random.default_rng(k)),
                        np.arange(len(guide.cells)) / len(guide.cells)])
    for side in SIDES:
        assert np.array_equal(index(guide, x, side), np.searchsorted(cdf, x, side))


def test_guide_steps_follow_the_most_entries_in_a_cell():
    # entries one to a cell take one step; 2000 in one cell take 11
    assert levels(on_cell_edges(13)).steps == 1
    assert levels(np.arange(1, 4097) / 4096).steps == 1
    assert levels(crowded_cell(2000)).steps == 11
    # the tiny weights' equal sums crowd a cell of 2^16 too
    tiny = levels(tiny_weights(700))
    assert len(tiny.cells) == 2 ** 16 and tiny.steps > 1


@pytest.mark.parametrize("k", [1, 5, 600])
def test_levels_takes_the_last_entry_as_one(k):
    # a float running sum may end just short of 1; the table is that of the
    # cdf ending at 1.0, and the caller's array is left as it is
    cdf = normalized(np.random.default_rng(k).random(k))
    short = cdf.copy()
    short[-1] = 1.0 - 2.0 ** -53
    before = short.tobytes()
    got, want = levels(short), levels(cdf)
    assert short.tobytes() == before
    assert np.array_equal(got.cells, want.cells) and got.steps == want.steps
    assert got.cdf.tobytes() == want.cdf.tobytes() and got.cdf[k - 1] == 1.0


def test_index_searches_in_lent_arrays():
    cdf = np.array([0.1, 0.3, 0.6, 0.8, 1.0])
    x = np.random.default_rng(5).random(1000)
    work = np.empty(1000, np.intp), np.empty(1000), np.empty(1000, bool)
    for side in SIDES:
        found = index(levels(cdf), x, side, work)
        assert found is work[0]
        assert np.array_equal(found, np.searchsorted(cdf, x, side))
