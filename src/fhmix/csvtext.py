"""CSV text of float64 blocks: each value exactly as ``repr`` writes it.

``repr`` of a float is its shortest decimal that reads back to the same
double, the nearest such decimal where several are equally short.  This
module finds those digits for a whole block at once with Schubfach
(R. Giulietti, "The Schubfach way to render doubles", 2020).  For
x = c 2^q it picks k with 10^k close to 2^q, and scales 4c - 2, 4c and
4c + 2 (the ends of x's rounding interval, and x) by 2^q 10^-k with one
128-bit power of ten, rounding to odd.  Of the scaled value's floor s,
ceiling s + 1 and the multiples of ten next to them, the interval holds at
most one multiple of ten: that is the shortest text if it is inside, else
the nearer of s and s + 1 that is.  All of it is integer arithmetic on
``uint64`` arrays, with 64 x 64 -> 128-bit products built from 32-bit
limbs, so the text depends on the doubles alone, not on the CPU.

The text follows ``repr``'s layout: positional for 1e-4 <= |x| < 1e16, with
".0" on integers, else ``d.ddde+XX`` with at least two exponent digits.
Each value gets a 32-byte slot: its sign, the "0.000" of a small positional
value, 17 digit places with the decimal point between two of them, the
exponent and the separator.  What a value does not use is NUL, and one
boolean mask per sub-block drops the NULs.  A value's slot depends only
on its digits and on its class (sign, decimal exponent, one digit or more),
which picks a row of each layout table.

Only finite values have a text: a draw evaluates its monotone quantiles on
[2^-53, 1 - 2^-53], where every spec's are finite, so an inf or a nan is a
fault, and :func:`csv_bytes` raises :class:`NumericalError` on it.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import NumericalError

#: values formatted at a time, so that their temporaries stay in the CPU's caches
SUB_VALUES = 1 << 13

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_E_MIN, _E_MAX = -324, 308  # decimal exponents of 5e-324 and of the largest double
_E_COUNT = _E_MAX - _E_MIN + 1
_SLOT = 32  # bytes: sign 0, "0.000" 3-7, digits 8-25, exponent 26-30, separator 31
_DIGITS = 8  # byte of the first digit place; 17 places, and one more for the point
_EXPONENT = 26


def csv_bytes(block: np.ndarray) -> bytes:
    """The CSV lines of a 2-D float64 block: the ``repr`` of each value,
    ',' between the values of a row and '\\n' after each row.  Raises
    :class:`NumericalError` on an inf or a nan."""
    block = np.ascontiguousarray(block, dtype=np.float64)
    rows, n = block.shape
    flat = block.reshape(-1)
    step = max(1, SUB_VALUES // n) * n
    return b"".join(_text(flat[i:i + step], n) for i in range(0, rows * n, step))


def _text(x: np.ndarray, n: int) -> bytes:
    """The CSV text of ``x``, whole rows of ``n`` values."""
    t = _tables()
    bits = x.view(_U)
    sign = (bits >> _U(63)).view(np.intp)
    exp = ((bits >> _U(52)) & _U(0x7FF)).view(np.intp)
    frac = bits & _U((1 << 52) - 1)
    row = exp + exp
    row += frac == _U(0)  # a power of two's lower neighbour is closer
    c = frac | t.hidden[exp]
    m = _shortest(c, row, t)
    digits, e10 = _left_aligned(m, t.k[row], t)
    special = np.flatnonzero(((bits << _U(1)) == _U(0)) | (exp == 0x7FF))
    if len(special):  # +-0.0 shows the digits of 0, and inf and nan have no text
        nonfinite = x[special[exp[special] == 0x7FF]]
        if len(nonfinite):
            raise NumericalError(f"{float(nonfinite[0])!r} has no CSV text, only finite values do")
        digits[special] = 0
        e10[special] = 0

    slots = np.zeros((len(x), _SLOT // 8), dtype=_U)
    size = _put_digits(slots, digits, t)
    cls = e10 - _E_MIN
    cls += cls
    cls += size > 1
    cls += sign * (2 * _E_COUNT)
    np.maximum(size, t.keep_at_least[cls], out=size)
    slots &= np.take(t.keep, size, axis=0)
    shifted = np.empty_like(slots)  # the digits one place on, past the point
    moved, text = shifted.view(np.uint8).reshape(-1), slots.view(np.uint8).reshape(-1)
    moved[0] = 0
    moved[1:] = text[:-1]
    slots &= np.take(t.before_point, cls, axis=0)
    shifted &= np.take(t.after_point, cls, axis=0)
    slots |= shifted
    slots |= np.take(t.frame, cls, axis=0)
    text[_SLOT * n - 1::_SLOT * n] = ord("\n")
    return text[text != 0].tobytes()


def _shortest(c, row, t):
    """Digits m of the shortest decimal m 10^k that rounds to c 2^q, the
    nearest one if several are as short; m may end in zeros.  ``row`` picks
    q and k, and whether the lower neighbour is closer."""
    cp = c << t.shift[row]  # 4c 2^h
    a0 = cp & _M32
    a1 = cp >> _U(32)
    # P = g cp, three 64-bit words p2 p1 p0; Schubfach reads P / 2^128
    p0 = cp * t.glo[row]
    p1 = cp * t.ghi[row]
    p2 = _mulhi(a0, a1, t.g3[row], t.g2[row])
    carry = _mulhi(a0, a1, t.g1[row], t.g0[row])
    p1 += carry
    p2 += p1 < carry
    vb = p2 | (p1 > _U(1))
    odd = c & _U(1)
    lower = _bound(p0, p1, p2, [d[row] for d in t.lower], -1)
    lower += odd
    upper = _bound(p0, p1, p2, [d[row] for d in t.upper], 1)
    upper -= odd

    s = vb >> _U(2)
    tens = s // _U(10)
    t40 = tens * _U(40)
    u_in = lower <= t40
    t40 += _U(40)
    w_in = t40 <= upper
    shorter = u_in != w_in  # one multiple of ten is inside
    shorter &= s >= _U(10)
    four = vb & ~_U(3)
    u_in = lower <= four
    four += _U(4)
    up = four <= upper
    # both s and s + 1 inside: the nearer, or the even one at a tie
    # (vb's last three bits 011, 110 or 111)
    nearer_up = (_U(0b11001000) >> (vb & _U(7))) & _U(1) != _U(0)
    up &= nearer_up | ~u_in
    s += up
    tens += w_in
    tens *= _U(10)
    return np.where(shorter, tens, s)


def _mulhi(a0, a1, b1, b0):
    """The high 64 bits of (a1 2^32 + a0)(b1 2^32 + b0), for a1 < 2^31 and
    32-bit a0, b1, b0."""
    low = a0 * b0
    low >>= _U(32)
    mid = a0 * b1
    high = mid >> _U(32)
    mid &= _M32
    mid += low
    low = a1 * b0
    mid += low
    mid >>= _U(32)
    high += mid
    high += a1 * b1
    return high


def _bound(p0, p1, p2, d, sign):
    """(P + sign D) / 2^128 rounded to odd as Schubfach rounds: the floor,
    with its last bit set if the dropped bits from 2^64 up are more than 1.
    ``d`` holds D's three 64-bit words, low first; D's middle word is never
    all ones, so a carry into it does not carry on."""
    d0, d1, d2 = d
    if sign < 0:
        d1 = d1 + (p0 < d0)
        r2 = p2 - d2
        r2 -= p1 < d1
        r1 = p1 - d1
    else:
        d1 = d1 + ((p0 + d0) < p0)
        r1 = p1 + d1
        r2 = p2 + d2
        r2 += r1 < d1
    r2 |= r1 > _U(1)
    return r2


def _left_aligned(m, k, t):
    """The 17 digits of m from its first, m 10^(17 - len(m)), and the
    exponent of the first digit of m 10^k."""
    m |= m == _U(0)  # only +-0.0, whose digits are replaced
    # len(m) from its bit length: floor(bits log10(2)), plus one unless m is below
    size = (m.astype(np.float64).view(_U) >> _U(52)).view(np.intp)
    size -= 1022
    size *= 1233
    size >>= 12
    size += m >= t.pow10[size]
    m *= t.pow10[17 - size]
    size += k - 1
    return m, size


def _put_digits(slots, digits, t):
    """Write the 17 digits of each value into its slot; returns how many
    there are up to the last nonzero one."""
    hi = digits // _U(1_000_000_000)
    lo = digits - hi * _U(1_000_000_000)
    q0 = hi // _U(10_000)
    q1 = hi - q0 * _U(10_000)
    q2 = lo // _U(100_000)
    q4 = lo - q2 * _U(100_000)
    q3 = q4 // _U(10)
    q4 -= q3 * _U(10)
    quads = slots.view(np.uint32)
    start = _DIGITS // 4
    size = t.ends[4][q4.view(np.intp)]
    for j, q in enumerate((q0, q1, q2, q3)):
        q = q.view(np.intp)
        quads[:, start + j] = t.quad[q]
        np.maximum(size, t.ends[j][q], out=size)
    slots.view(np.uint8)[:, _DIGITS + 16] = q4 + _U(ord("0"))
    return size.astype(np.intp)


class _Tables:
    """Schubfach's powers of ten per binary exponent, and the text layout."""

    def __init__(self) -> None:
        # rows 2 e + closer, for the biased exponent e of a double (inf and
        # nan take any finite row) and whether its lower neighbour is closer
        e = np.repeat(np.arange(2048), 2)
        closer = np.tile([0, 1], 2048) * (e > 1)
        q = np.where(e > 0, np.minimum(e, 2046) - 1075, -1074)
        # k = floor(log10(2^q)), or floor(log10(3/4 2^q)) below a power of two
        k = (q * 315653 - closer * 131237) >> 20
        h = q + ((-k * 1741647) >> 19) + 1  # in 1..4
        self.k = k
        self.shift = (h + 2).astype(_U)
        self.hidden = np.where(np.arange(2048) > 0, 1 << 52, 0).astype(_U)
        # g for 10^-k as 32-bit limbs and 64-bit halves, and the half gaps to
        # the neighbours in its units: g 2^(h+1), or g 2^h below a power of two
        g = [_power_of_ten(i) for i in range(-k.max(), -k.min() + 1)]
        limbs = np.array([[x >> s & 0xFFFFFFFF for s in (0, 32, 64, 96)] for x in g], dtype=_U)
        self.g0, self.g1, self.g2, self.g3 = limbs[k.max() - k].T.copy()
        self.glo = self.g0 | (self.g1 << _U(32))
        self.ghi = self.g2 | (self.g3 << _U(32))
        self.lower = self._times_power_of_two((h + 1 - closer).astype(_U))
        self.upper = self._times_power_of_two((h + 1).astype(_U))
        self.pow10 = np.array([10 ** i for i in range(18)], dtype=_U)

        # the 4 characters of 0000..9999, and, per quad j of the 17 digit
        # places (the 17th alone), the count of places up to its last nonzero
        # digit (0 for 0000)
        quad = np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10
        self.quad = (quad + ord("0")).astype(np.uint8).view(np.uint32).ravel()
        last = ((quad > 0) * np.arange(1, 5)).max(axis=1)
        self.ends = [np.where(last > 0, 4 * j + last, 0).astype(np.uint8) for j in range(4)]
        self.ends.append(np.array([0] + [17] * 9, dtype=np.uint8))
        place = np.arange(_SLOT) - _DIGITS
        self.keep = ((place >= 0) & (place < np.arange(18)[:, None])) * np.uint8(0xFF)

        # per class: the fixed bytes, the digit places before the point, the
        # places after it (one byte on), and the digits every value shows
        cls = np.arange(4 * _E_COUNT)
        e10 = cls % (2 * _E_COUNT) // 2 + _E_MIN
        positional = (e10 >= 0) & (e10 < 16)
        scientific = (e10 < -4) | (e10 >= 16)
        point = np.where(positional, e10 + 1, np.where(scientific & (cls % 2 == 1), 1, 17))
        self.keep_at_least = np.where(positional, e10 + 2, 0)
        before = (place >= 0) & (place < point[:, None])
        after = (place > point[:, None]) & (place <= 17) & (point[:, None] < 17)
        decor = np.zeros((_E_COUNT, _SLOT), dtype=np.uint8)
        for i, x in enumerate(range(_E_MIN, _E_MAX + 1)):
            if -4 <= x < 0:  # "0.000" before the digits
                word = ("0." + "0" * (-x - 1)).encode()
                decor[i, _DIGITS - len(word):_DIGITS] = list(word)
            elif not 0 <= x < 16:  # "e-05" after them
                word = f"e{x:+03d}".encode()
                decor[i, _EXPONENT:_EXPONENT + len(word)] = list(word)
        frame = decor[e10 - _E_MIN]
        frame[:, 0] = np.where(cls >= 2 * _E_COUNT, ord("-"), 0)
        frame[(place == point[:, None]) & (point[:, None] < 17)] = ord(".")
        frame[:, _SLOT - 1] = ord(",")
        self.keep, self.frame = self.keep.view(_U), frame.view(_U)
        self.before_point, self.after_point = (
            (a * np.uint8(0xFF)).view(_U) for a in (before, after))

    def _times_power_of_two(self, s):
        """The three 64-bit words of g 2^s, low first, for 0 < s < 64."""
        words = [self.glo << s, (self.ghi << s) | (self.glo >> (_U(64) - s)),
                 self.ghi >> (_U(64) - s)]
        assert (words[1] != _U(2 ** 64 - 1)).all()  # what _bound relies on
        return words


def _power_of_ten(i: int) -> int:
    """Schubfach's g for 10^i: floor(10^i 2^-r) + 1 with 2^127 <= 10^i 2^-r < 2^128."""
    r = (i * 1741647 >> 19) - 127  # floor(log2(10^i)) - 127
    if i >= 0:
        return (10 ** i >> r if r >= 0 else 10 ** i << -r) + 1
    return (1 << -r) // 10 ** -i + 1


@functools.cache
def _tables() -> _Tables:
    return _Tables()
