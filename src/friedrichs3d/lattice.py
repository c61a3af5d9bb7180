"""Momentum-torus geometry and the lattice dispersion relations.

Momentum space is the cube (-pi, pi]^3 with mod-2pi arithmetic.  The
one-particle dispersion eps(k) = sum_j (1 - cos k_j) ranges over [0, 6].
Every energy surface in the model is a trigonometric polynomial in the
integration variable, so the fiber band edges admit closed forms by
per-axis extremization; those closed forms live here.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

TWO_PI = 2.0 * np.pi

__all__ = [
    "TorusPoint",
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
    """Reduce coordinates mod 2*pi to the canonical representative in (-pi, pi]."""
    y = np.mod(x, TWO_PI)
    return np.where(y > np.pi, y - TWO_PI, y)


class TorusPoint:
    """A point of the momentum torus, stored reduced to (-pi, pi]^3.

    Immutable and hashable so points can serve as cache keys.  Arithmetic
    returns new reduced points; `distance` is the geodesic (reduced
    Euclidean) metric.
    """

    __slots__ = ("coords",)

    def __init__(self, c1, c2=None, c3=None):
        if c2 is None and c3 is None:
            arr = np.asarray(c1, dtype=float)
        else:
            arr = np.array([c1, c2, c3], dtype=float)
        if arr.shape != (3,):
            raise ValueError("a torus point takes exactly 3 coordinates")
        if not np.all(np.isfinite(arr)):
            raise ValueError("torus coordinates must be finite")
        reduced = reduce_coords(arr)
        object.__setattr__(self, "coords", tuple(float(t) for t in reduced))

    def __setattr__(self, name, value):
        raise AttributeError("TorusPoint is immutable")

    def to_array(self) -> np.ndarray:
        return np.array(self.coords, dtype=float)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __len__(self):
        return 3

    def __add__(self, other):
        return TorusPoint(self.to_array() + _coords_of(other))

    def __sub__(self, other):
        return TorusPoint(self.to_array() - _coords_of(other))

    def __neg__(self):
        return TorusPoint(-self.to_array())

    def __mul__(self, scalar):
        return TorusPoint(self.to_array() * float(scalar))

    __rmul__ = __mul__

    def distance(self, other) -> float:
        d = reduce_coords(self.to_array() - _coords_of(other))
        return float(np.sqrt(np.sum(d * d)))

    def __eq__(self, other):
        if not isinstance(other, TorusPoint):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return "TorusPoint(%.12g, %.12g, %.12g)" % self.coords


def _coords_of(obj) -> np.ndarray:
    if isinstance(obj, TorusPoint):
        return obj.to_array()
    arr = np.asarray(obj, dtype=float)
    if arr.shape != (3,):
        raise ValueError("expected a 3-vector or TorusPoint")
    return arr


ORIGIN = TorusPoint(0.0, 0.0, 0.0)
PI_POINT = TorusPoint(np.pi, np.pi, np.pi)


def epsilon(k):
    """Dispersion eps(k) = sum_j (1 - cos k_j); accepts TorusPoint or array (...,3)."""
    if isinstance(k, TorusPoint):
        return float(sum(1.0 - np.cos(c) for c in k.coords))
    arr = np.asarray(k, dtype=float)
    return np.sum(1.0 - np.cos(arr), axis=-1)


def w0(k, gamma: float):
    """Free energy of the scalar channel, eps(k) + gamma."""
    return epsilon(k) + gamma


def w1(k, p):
    """Two-particle surface eps(k) + eps(k+p) + eps(p), broadcast over p."""
    kc = _coords_of(k)
    pc = np.asarray(p, dtype=float)
    return epsilon(kc) + epsilon(kc + pc) + epsilon(pc)


def w1_on_grid(k, px, py, pz):
    """w1 on separated coordinate arrays (broadcasting), avoids stacking."""
    k1, k2, k3 = _coords_of(k)
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
    Accepts a TorusPoint or an array of shape (..., 3); returns floats or
    arrays accordingly.
    """
    if isinstance(k, TorusPoint):
        kc = k.to_array()
        c = np.cos(kc / 2.0)
        ek = float(np.sum(1.0 - np.cos(kc)))
        lo = ek + float(np.sum(2.0 * (1.0 - c)))
        hi = ek + float(np.sum(2.0 * (1.0 + c)))
        return lo, hi
    arr = reduce_coords(np.asarray(k, dtype=float))
    c = np.cos(arr / 2.0)
    ek = np.sum(1.0 - np.cos(arr), axis=-1)
    lo = ek + np.sum(2.0 * (1.0 - c), axis=-1)
    hi = ek + np.sum(2.0 * (1.0 + c), axis=-1)
    return lo, hi


@lru_cache(maxsize=1)
def lambda_points() -> tuple:
    """The eight momenta with all coordinates +-2pi/3, in lexicographic order.

    These are exactly the points where the fiber band maximum M attains its
    global value 27/2, and eps = 9/2 at each of them.
    """
    third = TWO_PI / 3.0
    return tuple(
        TorusPoint(s1 * third, s2 * third, s3 * third)
        for s1, s2, s3 in product((-1.0, 1.0), repeat=3)
    )


def lambda_point(i: int) -> TorusPoint:
    """The i-th point of `lambda_points()`, 1-based, i in 1..8."""
    if not 1 <= i <= 8:
        raise ValueError("lambda index must be in 1..8")
    return lambda_points()[i - 1]


def threshold_point(name: str):
    """Parse a threshold designator into (label, index, point).

    Accepts "origin" (lower threshold z = 0 at k = 0) or "lambda:<i>" with
    i in 1..8 (upper threshold z = 27/2 at the i-th Lambda point).
    """
    if not isinstance(name, str):
        raise ValueError("threshold designator must be a string")
    text = name.strip().lower()
    if text == "origin":
        return "origin", None, ORIGIN
    if text.startswith("lambda:"):
        try:
            idx = int(text.split(":", 1)[1])
        except ValueError:
            raise ValueError("malformed lambda index in %r" % name) from None
        if not 1 <= idx <= 8:
            raise ValueError("lambda index must be in 1..8, got %d" % idx)
        return "lambda", idx, lambda_point(idx)
    raise ValueError("unknown threshold designator %r (use 'origin' or 'lambda:<i>')" % name)
