import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhmix import csvtext
from fhmix.csvtext import csv_bytes
from fhmix.errors import NumericalError


def reference(block: np.ndarray) -> bytes:
    return "".join(",".join(map(repr, row)) + "\n" for row in block.tolist()).encode()


def from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def ulps_from(x: float, steps: int) -> float:
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


def near(values, ulps=1):
    """Each of ``values`` or a float up to ``ulps`` steps from it, either sign."""
    return st.builds(lambda x, k, negative: -ulps_from(x, k) if negative else ulps_from(x, k),
                     values, st.integers(-ulps, ulps), st.booleans())


#: each class reaches a branch of the formatter that the others rarely do
CLASSES = {
    # every exponent and digit count
    "bits": st.integers(0, 2 ** 64 - 1).map(from_bits).filter(math.isfinite),
    # no hidden bit, and k 2^-1074 down to one digit ("5e-324", "1e-323")
    "subnormal": st.one_of(st.integers(1, 200).map(lambda k: k * 5e-324),
                           st.integers(1, 2 ** 52 - 1).map(from_bits)),
    # the closer lower neighbour below a power of two
    "power_of_two": near(st.integers(-1074, 1023).map(lambda e: math.ldexp(1.0, e))),
    # a multiple of ten inside the interval: the text one digit shorter
    "power_of_ten": near(st.integers(-323, 308).map(lambda e: float(f"1e{e}"))),
    # positional text ending in ".0", and the last integers that are exact
    "integer": st.one_of(st.integers(0, 2 ** 53).map(float),
                         st.integers(-1000, 1000).map(lambda k: float(2 ** 53 + k))),
    # where repr switches between positional and scientific text
    "switch": near(st.sampled_from([1e-4, 1e16]), ulps=3),
    "zero": st.sampled_from([0.0, -0.0]),
    # 2^49 <= x < 2^50 ending in .25 or .75: two 16-digit texts equally near,
    # and repr takes the even one
    "tie": st.builds(float.__add__, st.integers(2 ** 49, 2 ** 50 - 1).map(float),
                     st.sampled_from([0.25, 0.75])),
}


@pytest.mark.parametrize("kind", CLASSES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_text_is_the_repr_of_each_value(kind, data):
    n = data.draw(st.integers(1, 5), label="columns")
    values = data.draw(st.lists(CLASSES[kind], min_size=n, max_size=40 * n), label="values")
    block = np.array(values[:len(values) // n * n]).reshape(-1, n)
    if data.draw(st.booleans(), label="negated"):
        block = -block
    assert csv_bytes(block) == reference(block)


def special_values() -> np.ndarray:
    """Every power of two and ten one ulp either way, k 5e-324 for k <= 200,
    the integers near 2^53, and the notation switch points."""
    powers = [math.ldexp(1.0, e) for e in range(-1074, 1024)]
    powers += [float(f"1e{e}") for e in range(-323, 309)]
    near_powers = [ulps_from(x, k) for x in powers for k in (-1, 0, 1)]
    switch = [ulps_from(x, k) for x in (1e-4, 1e16) for k in range(-3, 4)]
    subnormal = [k * 5e-324 for k in range(1, 201)]
    integers = [float(2 ** 53 + k) for k in range(-1000, 1001)] + [0.0]
    values = np.array(near_powers + switch + subnormal + integers)
    values = values[np.isfinite(values)]
    return np.concatenate([values, -values])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_text_is_the_repr_of_every_special_value(n):
    values = special_values()
    block = values[:len(values) // n * n].reshape(-1, n)
    assert csv_bytes(block) == reference(block)


def test_blocks_longer_than_a_sub_block():
    # rows of 3 do not divide SUB_VALUES, and the last sub-block is short
    rng = np.random.default_rng(3)
    rows = csvtext.SUB_VALUES + 11
    block = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-30, 30, (rows, 3))
    assert csv_bytes(block) == reference(block)
    # sample_batch's values are column-major, and their text is the rows'
    by_column = np.asfortranarray(block)
    assert csv_bytes(by_column) == csv_bytes(np.ascontiguousarray(by_column))
    column = by_column[:, 1:2]
    assert csv_bytes(column) == reference(column)
    assert csv_bytes(block[:0]) == b""


def test_inf_and_nan_have_no_text():
    # a draw is finite, so a value that is not is a fault: csv_bytes raises,
    # in the first sub-block and in a later one
    for value in (math.inf, -math.inf, math.nan, -math.nan):
        block = np.ones((csvtext.SUB_VALUES, 2))
        for row in (0, -1):
            bad = block.copy()
            bad[row, 1] = value
            with pytest.raises(NumericalError, match=f"^{value!r} has no CSV text"):
                csv_bytes(bad)


def test_powers_of_ten_span_the_exponents():
    # Schubfach's g for each 10^-k a double can need: rounded up, four 32-bit limbs
    t = csvtext._tables()
    assert t.k.min() == -324 and t.k.max() == 292
    for i in range(-292, 325):
        beta = Fraction(10) ** i * Fraction(2) ** (127 - ((i * 1741647) >> 19))
        g = csvtext._power_of_ten(i)
        assert g == math.floor(beta) + 1 and 2 ** 127 < g < 2 ** 128
