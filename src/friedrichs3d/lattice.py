"""Momentum-torus geometry and the lattice dispersion relations.

Momentum space is the cube (-pi, pi]^3 with mod-2pi arithmetic.  A
momentum is plain coordinates: a 3-sequence, or an (..., 3) array of
many, which `reduce_coords` maps to their canonical representatives.  The
one-particle dispersion eps(k) = sum_j (1 - cos k_j) ranges over [0, 6].
Every energy surface in the model is a trigonometric polynomial in the
integration variable, so the fiber band edges admit closed forms by
per-axis extremization; those closed forms live here.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import product

import numpy as np

TWO_PI = 2.0 * np.pi

__all__ = [
    "ORIGIN",
    "PI_POINT",
    "reduce_coords",
    "epsilon",
    "w0",
    "w1",
    "w1_on_grid",
    "band_endpoints",
    "lambda_points",
    "lambda_point",
    "threshold_point",
]


def reduce_coords(x):
    """Momenta reduced mod 2*pi into (-pi, pi]^3: a 3-sequence or an (..., 3) array.

    The one entry point for a momentum: raises ValueError for a shape other
    than (..., 3) or a non-finite coordinate.  Reduced coordinates reduce to
    themselves.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] != 3:
        raise ValueError("a momentum takes exactly 3 coordinates")
    if not np.all(np.isfinite(arr)):
        raise ValueError("torus coordinates must be finite")
    y = np.mod(arr, TWO_PI)
    return np.where(y > np.pi, y - TWO_PI, y)


ORIGIN = tuple(reduce_coords([0.0, 0.0, 0.0]).tolist())
PI_POINT = tuple(reduce_coords([np.pi, np.pi, np.pi]).tolist())


def epsilon(k):
    """Dispersion eps(k) = sum_j (1 - cos k_j) of a 3-sequence or an (..., 3) array."""
    return np.sum(1.0 - np.cos(np.asarray(k, dtype=float)), axis=-1)


def w0(k, gamma: float):
    """Free energy of the scalar channel, eps(k) + gamma."""
    return epsilon(k) + gamma


def w1(k, p):
    """Two-particle surface eps(k) + eps(k+p) + eps(p), broadcast over p."""
    kc = np.asarray(k, dtype=float)
    pc = np.asarray(p, dtype=float)
    return epsilon(kc) + epsilon(kc + pc) + epsilon(pc)


def w1_on_grid(k, px, py, pz):
    """w1 on separated coordinate arrays (broadcasting), avoids stacking."""
    k1, k2, k3 = k
    ek = 3.0 - np.cos(k1) - np.cos(k2) - np.cos(k3)
    return (
        ek
        + (2.0 - np.cos(k1 + px) - np.cos(px))
        + (2.0 - np.cos(k2 + py) - np.cos(py))
        + (2.0 - np.cos(k3 + pz) - np.cos(pz))
    )


def band_endpoints(k):
    """Closed-form fiber band edges (m(k), M(k)) of p -> w1(k, p).

    With c_j = cos(k_j/2) >= 0 on canonical representatives,
    m(k) = eps(k) + sum_j 2(1 - c_j) and M(k) = eps(k) + sum_j 2(1 + c_j).
    Accepts a 3-sequence or an (..., 3) array, which is reduced first, and
    returns numpy floats or arrays accordingly.
    """
    kc = reduce_coords(k)
    c = np.cos(kc / 2.0)
    ek = epsilon(kc)
    lo = ek + np.sum(2.0 * (1.0 - c), axis=-1)
    hi = ek + np.sum(2.0 * (1.0 + c), axis=-1)
    return lo, hi


@lru_cache(maxsize=1)
def lambda_points() -> tuple:
    """The eight momenta with all coordinates +-2pi/3, as reduced 3-tuples in lexicographic order.

    These are exactly the points where the fiber band maximum M attains its
    global value 27/2, and eps = 9/2 at each of them.
    """
    signs = np.array(list(product((-1.0, 1.0), repeat=3)))
    return tuple(map(tuple, reduce_coords(signs * (TWO_PI / 3.0)).tolist()))


def lambda_point(i: int) -> tuple:
    """The i-th point of `lambda_points()`, 1-based, i an integer in 1..8."""
    try:
        i = operator.index(i)
    except TypeError:
        raise ValueError("lambda index must be an integer, got %r" % (i,)) from None
    if not 1 <= i <= 8:
        raise ValueError("lambda index must be in 1..8, got %d" % i)
    return lambda_points()[i - 1]


def threshold_point(name: str):
    """Parse a threshold designator into (index, point).

    "origin" is index 0, the lower threshold z = 0 at k = 0; "lambda:<i>"
    is index i in 1..8, the upper threshold z = 27/2 at the i-th Lambda
    point.
    """
    if not isinstance(name, str):
        raise ValueError("threshold designator must be a string")
    text = name.strip().lower()
    if text == "origin":
        return 0, ORIGIN
    if text.startswith("lambda:"):
        try:
            idx = int(text.split(":", 1)[1])
        except ValueError:
            raise ValueError("malformed lambda index in %r" % name) from None
        return idx, lambda_point(idx)
    raise ValueError("unknown threshold designator %r (use 'origin' or 'lambda:<i>')" % name)
