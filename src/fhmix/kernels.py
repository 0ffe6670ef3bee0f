"""Portable in-place kernels: the natural log and the normal quantile.

Their bits do not depend on the CPU.  Numpy's ``exp``, ``log`` and
``log1p`` give different last bits on its AVX512 and AVX2 paths (the
environment variable ``NPY_DISABLE_CPU_FEATURES`` picks the path), but
+ - * / and ``sqrt`` are correctly rounded on every path, and integer
operations are exact.  So both kernels are built from those alone.

:func:`log_into` is fdlibm's ``__ieee754_log``: x = 2^k (1 + f) with
1 + f in [sqrt(2)/2, sqrt(2)), found from the bits of x, then
log(1 + f) = f - (f^2/2 - s (f^2/2 + R(s^2))) with s = f / (2 + f) and a
fixed polynomial R.  fdlibm takes the simpler f - s (f - R) where that is
accurate enough; this kernel takes the more accurate form everywhere, so it
has no branch.  On the tests' sweep (uniform values, subnormals, every power
of two, values near 1) it is within 1 ulp of the true log.

:func:`ndtri_into` is Wichura's AS241 (Applied Statistics 37(3), 1988), the
rational approximation ``statistics.NormalDist.inv_cdf`` ships.  Its central
branch, |u - 1/2| <= 0.425, runs over every value with the standard
library's operations in its order, so it equals ``inv_cdf`` bit for bit.
The tails, about 15% of uniform draws, are gathered by index and take
r = sqrt(-log min(u, 1 - u)) with :func:`log_into`, so they are within
4 ulp of ``inv_cdf``, whose libm ``log`` rounds differently.

Both work in arrays the caller lends them.  They allocate only the index of
the tails, and a few values where x is below 2^-1022 or r above 5, so a
worker thread drawing a piece leaves no column-sized block in its malloc
arena.
"""

from __future__ import annotations

import numpy as np

#: float rows a call of :func:`ndtri_into` uses from its ``tails`` work array
TAIL_ROWS = 7

_LN2_HI = 6.93147180369123816490e-01  # 0x3fe62e42fee00000
_LN2_LO = 1.90821492927058770002e-10  # 0x3dea39ef35793c76
_LG = (6.666666666666735130e-01, 3.999999999940941908e-01, 2.857142874366239149e-01,
       2.222219843214978396e-01, 1.818357216161805012e-01, 1.531383769920937332e-01,
       1.479819860511658591e-01)
_TWO54 = 2.0 ** 54
_TINY = 2.0 ** -1022
_MANTISSA = (1 << 52) - 1
_ONE_EXP = 0x3FF << 52
# (1 + fraction) >= sqrt(2) exactly when adding this carries into bit 52
_SQRT2_CARRY = 0x95F64 << 32

# AS241, highest degree first; each denominator's constant term is 1
_CENTRAL_NUM = (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
                4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
                1.3314166789178437745e+2, 3.3871328727963666080e+0)
_CENTRAL_DEN = (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
                2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
                4.2313330701600911252e+1, 1.0)
_TAIL_NUM = (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
             1.27045825245236838258e+0, 3.64784832476320460504e+0, 5.76949722146069140550e+0,
             4.63033784615654529590e+0, 1.42343711074968357734e+0)
_TAIL_DEN = (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
             1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e+0,
             2.05319162663775882187e+0, 1.0)
_FAR_NUM = (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
            2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e+0,
            5.46378491116411436990e+0, 6.65790464350110377720e+0)
_FAR_DEN = (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
            7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
            5.99832206555887937690e-1, 1.0)


def log_into(x: np.ndarray, work: np.ndarray) -> np.ndarray:
    """log(x) of positive finite float64 values, written over ``x``.

    ``work`` is a float64 array of shape (5, len(x)) or larger in its last
    axis.  Returns ``x``.
    """
    n = len(x)
    s, dk, z, w, t = (row[:n] for row in work[:5])
    if n and x.min() < _TINY:  # subnormal: scale into the normal range
        low = np.flatnonzero(x < _TINY)
        x[low] *= _TWO54
    else:
        low = None
    bits, k, i = x.view(np.int64), z.view(np.int64), w.view(np.int64)
    np.right_shift(bits, 52, out=k)
    bits &= _MANTISSA
    np.add(bits, _SQRT2_CARRY, out=i)
    i &= 1 << 52
    # 1 + f in [1, sqrt(2)), or (1 + f) / 2 in [sqrt(2)/2, 1) with k one more
    i ^= _ONE_EXP
    bits |= i
    i ^= _ONE_EXP
    i >>= 52
    k += i
    k -= 1023
    if low is not None:
        k[low] -= 54
    np.copyto(dk, k)
    x -= 1.0  # f
    np.add(x, 2.0, out=s)
    np.divide(x, s, out=s)
    np.multiply(s, s, out=z)
    np.multiply(z, z, out=w)
    # R = z (Lg1 + w (Lg3 + w (Lg5 + w Lg7))) + w (Lg2 + w (Lg4 + w Lg6))
    np.multiply(w, _LG[6], out=t)
    for c in (_LG[4], _LG[2]):
        t += c
        t *= w
    t += _LG[0]
    t *= z
    np.multiply(w, _LG[5], out=z)
    z += _LG[3]
    z *= w
    z += _LG[1]
    z *= w
    t += z
    # log = k ln2_hi - ((hfsq - (s (hfsq + R) + k ln2_lo)) - f), hfsq = f^2 / 2
    np.multiply(x, 0.5, out=z)
    z *= x
    t += z
    t *= s
    np.multiply(dk, _LN2_LO, out=w)
    t += w
    z -= t
    z -= x
    np.multiply(dk, _LN2_HI, out=x)
    x -= z
    return x


def ndtri_into(u: np.ndarray, out: np.ndarray, work) -> np.ndarray:
    """The standard normal quantile of ``u`` in (0, 1), written into ``out``.

    ``out`` may be ``u`` itself.  ``work`` is a triple of float64 arrays: two
    at least as long as ``u``, and one of shape (TAIL_ROWS, len(u)) or with
    longer rows.  Returns ``out``.
    """
    n = len(u)
    q, a, tails = work[0][:n], work[1][:n], work[2]
    np.subtract(u, 0.5, out=q)
    np.abs(q, out=a)
    tail = np.flatnonzero(np.greater(a, 0.425, out=tails[0].view(bool)[:n]))
    # the tails, from u gathered before out (which may be u) is written:
    # r = sqrt(-log p), p = min(u, 1 - u)
    m = len(tail)
    p, x = tails[0, :m], tails[1, :m]
    np.take(u, tail, out=x, mode="clip")
    np.subtract(1.0, x, out=p)
    np.minimum(x, p, out=p)
    x -= 0.5  # its sign is the quantile's
    log_into(p, tails[2:])
    np.negative(p, out=p)
    np.sqrt(p, out=p)
    far = np.flatnonzero(p > 5.0) if m and p.max() > 5.0 else None
    if far is not None:  # u below e^-25
        rf = p[far] - 5.0
        far_value = _horner(_FAR_NUM, rf) / _horner(_FAR_DEN, rf)
    p -= 1.6
    num, den = tails[2, :m], tails[3, :m]
    _horner_into(_TAIL_NUM, p, num)
    _horner_into(_TAIL_DEN, p, den)
    np.divide(num, den, out=num)
    if far is not None:
        num[far] = far_value
    np.copysign(num, x, out=num)
    # the central branch over every value: q num(r) / den(r), r = 0.180625 - q^2
    np.multiply(q, q, out=a)
    np.subtract(0.180625, a, out=a)
    _horner_into(_CENTRAL_NUM, a, out)
    out *= q
    _horner_into(_CENTRAL_DEN, a, q)
    out /= q
    np.put(out, tail, num, mode="clip")
    return out


def _horner_into(coef, r: np.ndarray, out: np.ndarray) -> None:
    """(...(c0 r + c1) r + ...) r + c_last into ``out``, in the standard
    library's order of operations."""
    np.multiply(r, coef[0], out=out)
    for c in coef[1:-1]:
        out += c
        out *= r
    out += coef[-1]


def _horner(coef, r: np.ndarray) -> np.ndarray:
    out = np.empty_like(r)
    _horner_into(coef, r, out)
    return out
