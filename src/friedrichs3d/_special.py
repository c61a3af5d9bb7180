"""The special functions of the Laplace-Bessel kernel, from numpy and math alone.

* `ive_orders(orders, x)`: e^{-x} I_n(x) for the integer orders
  n = 0 .. orders - 1 (at most 8, the orders of v^2) at every x >= 0.
  Below `_SWITCH` the ascending series (DLMF 10.25.2) gives the two
  highest orders and the backward recurrence
  I_{n-1} = I_{n+1} + (2n/x) I_n, stable for I_n, the rest; above it
  Hankel's expansion (DLMF 10.40.1) gives every order at once.
* `erfc(x)`: `math.erfc` elementwise; above `_ERFC_ZERO`, where
  `math.erfc` is exactly 0.0, it is not called.
* `exp1(x)`: E1(x) elementwise, by the power series for x <= 1 (DLMF
  6.6.2) and the continued fraction above (DLMF 6.9.1), summed from a
  fixed depth upward; 0.0 above `_EXP1_ZERO`, where E1 underflows, with
  no call.

Every value is computed elementwise, with a number of terms that depends
on its own argument alone, so an element's value does not depend on the
array around it: a batch of kernels is bit-identical to a batch of one.
Accurate to a few ulp against mpmath (tests/test_special.py).
"""

from __future__ import annotations

import math

import numpy as np

from .vfunction import MAX_HARMONIC

__all__ = ["ive_orders", "erfc", "exp1"]

# the highest harmonic order of v^2 per axis
MAX_ORDER = 2 * MAX_HARMONIC
# the ascending series below, Hankel's expansion above
_SWITCH = 40.0
# the series on [0, 2) and [2, _SWITCH), each with the terms its upper end
# needs: there, and at the lower end of Hankel's expansion, the first term
# left out is below 1e-18 of the sum at every order <= MAX_ORDER.  The
# count depends on x alone, so an element's arithmetic does not depend on
# the array around it.  Counts are multiples of _CHAINS
_SERIES_PIECES = ((2.0, 16), (_SWITCH, 56))
_HANKEL_TERMS = 20
_CHAINS = 4
_EULER_GAMMA = 0.57721566490153286061
# math.erfc(x) is exactly 0.0 from x ~ 27.2264 on
_ERFC_ZERO = 27.5
# E1(x) < e^{-x}/x is below half the least subnormal above this
_EXP1_ZERO = 746.0


def _hankel_coefficients():
    """Row n: (-1)^k prod_{j <= k} (4 n^2 - (2j - 1)^2) / (k! 8^k), k = 0 .. _HANKEL_TERMS - 1."""
    rows = []
    for n in range(MAX_ORDER + 1):
        num, den, row = 1, 1, []
        for k in range(_HANKEL_TERMS):
            row.append(num / den)  # int / int rounds once
            num *= (2 * k + 1) ** 2 - 4 * n * n
            den *= 8 * (k + 1)
        rows.append(row)
    return np.array(rows)


# row n: 1/(k! (n + k)!), the Taylor coefficients of S_n in q (see _ive_series)
_SERIES = np.array(
    [
        [1 / (math.factorial(k) * math.factorial(n + k)) for k in range(_SERIES_PIECES[-1][1])]
        for n in range(MAX_ORDER + 1)
    ]
)
_HANKEL = _hankel_coefficients()


def _polynomial(coefficients: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row r: sum_k coefficients[r, k] y^k, elementwise over y.

    Horner's rule in y^4 runs the chains of the terms k = j mod 4 side by
    side, then Horner's rule in y joins them: a quarter of the numpy calls
    of one chain, which is what a table of a few hundred nodes costs.
    """
    rows, terms = coefficients.shape
    blocks = coefficients.T.reshape(terms // _CHAINS, _CHAINS, rows, 1)  # [i, j]: term 4 i + j
    y2 = y * y
    y4 = y2 * y2
    acc = np.repeat(blocks[-1], y.size, axis=2)
    for block in blocks[-2::-1]:
        acc *= y4
        acc += block
    out = acc[-1]
    for chain in acc[-2::-1]:
        out *= y
        out += chain
    return out


def ive_orders(orders: int, x) -> np.ndarray:
    """The (orders, *x.shape) array of e^{-x} I_n(x), n = 0 .. orders - 1, for x >= 0."""
    if not 0 <= orders <= MAX_ORDER + 1:
        raise ValueError("orders must lie in 0..%d" % (MAX_ORDER + 1))
    x = np.asarray(x, dtype=float)
    out = np.empty((orders,) + x.shape)
    if not orders:
        return out
    lower = 0.0
    for upper, terms in _SERIES_PIECES:
        part = (x >= lower) & (x < upper)
        if part.any():
            out[:, part] = _ive_series(orders, x[part], terms)
        lower = upper
    part = x >= lower
    if part.any():
        out[:, part] = _ive_hankel(orders, x[part])
    return out


def _ive_series(orders: int, x: np.ndarray, terms: int) -> np.ndarray:
    """ive_orders for 0 <= x < _SWITCH by the first `terms` terms of the series, one row per order.

    With I_n(x) = (x/2)^n S_n(x), S_n = sum_k q^k / (k! (n + k)!) and
    q = x^2/4, the recurrence reads S_{n-1} = q S_{n+1} + n S_n: positive
    terms only, and nothing to divide by at x = 0.
    """
    top = orders - 1
    q = 0.25 * x * x
    s = np.empty((orders, x.size))
    s[max(top - 1, 0) :] = _polynomial(_SERIES[max(top - 1, 0) : top + 1, :terms], q)
    for n in range(top - 1, 0, -1):
        s[n - 1] = q * s[n + 1] + n * s[n]
    half = 0.5 * x
    scale = np.exp(-x)
    for n in range(orders):
        s[n] *= scale
        scale = scale * half
    return s


def _ive_hankel(orders: int, x: np.ndarray) -> np.ndarray:
    """ive_orders for x >= _SWITCH: e^{-x} I_n(x) = sum_k (-1)^k a_k(n) x^{-k} / sqrt(2 pi x).

    a_k(n) = prod_{j <= k} (4 n^2 - (2j - 1)^2) / (k! 8^k); the terms fall
    until k ~ 2x, far beyond the ones x >= 40 needs at n <= 8.
    """
    return _polynomial(_HANKEL[:orders], 1.0 / x) / np.sqrt(2.0 * math.pi * x)


def _below_zero_cut(fn, x, cut: float) -> np.ndarray:
    """fn elementwise over x, called only where x <= cut; 0.0 above it.

    NaN compares false with the cut and so goes to fn, as every other
    element that is not known to give 0.0.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    live = ~(x > cut)
    out[live] = [fn(t) for t in x[live].tolist()]
    return out


def erfc(x) -> np.ndarray:
    """The complementary error function, elementwise."""
    return _below_zero_cut(math.erfc, x, _ERFC_ZERO)


def _exp1(x: float) -> float:
    if x == 0.0:
        return math.inf
    if math.isnan(x):
        return x
    if x <= 1.0:
        # E1(x) = -gamma - ln x - sum_{k >= 1} (-x)^k / (k k!)
        total, term = 0.0, 1.0
        for k in range(1, 40):
            term *= -x / k
            part = term / k
            total += part
            if abs(part) < 2.0 ** -56 * abs(total):
                break
        return -_EULER_GAMMA - math.log(x) - total
    if x > _EXP1_ZERO:
        return 0.0
    # E1(x) = e^{-x} / (x + 1 - 1^2/(x + 3 - 2^2/(x + 5 - ...))), evaluated from
    # the bottom up: the forward (Lentz) recurrence needs about 7 + 81/x levels
    # for double precision, but its products lose a few ulp near x = 1
    tail = 0.0
    for i in range(int(12.0 + 100.0 / x), 0, -1):
        tail = i * i / (x + (2 * i + 1) - tail)
    return math.exp(-x) / (x + 1.0 - tail)


def exp1(x) -> np.ndarray:
    """The exponential integral E1(x) = int_x^inf e^{-t}/t dt, elementwise for x >= 0."""
    return _below_zero_cut(_exp1, x, _EXP1_ZERO)
