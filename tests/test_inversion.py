import numpy as np
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


def test_levels_are_the_midpoints_of_the_padded_cdf():
    cdf = np.array([0.1, 0.3, 0.6, 0.8, 1.0])  # padded to 8 entries with 1.0
    tables = levels(cdf)
    assert [t.tolist() for t in tables] == [[0.8], [0.3, 1.0], [0.1, 0.6, 1.0, 1.0]]
    assert len(levels(np.array([1.0]))) == 1
