"""Finite-rank discretization of the fiber operator, for cross-validation.

Sampling the integral channel on an n^3 midpoint grid turns the fiber
operator into an arrowhead matrix: scalar entry w0(k), diagonal block
w1(k, t_j), and border mu v(t_j) h^{3/2}.  Its extreme eigenvalues
converge to the true discrete eigenvalues (when they exist) at the
quadrature rate, giving a solver check that shares no code with the
determinant route.  Stored as diagonal plus border; never densified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .determinant import ModelParams
from .lattice import TWO_PI, reduce_coords, w0, w1_on_grid
from .vfunction import VFunction

__all__ = ["DiscretizedOperator", "discretize", "extreme_eigenvalues"]


@dataclass(frozen=True, eq=False)
class DiscretizedOperator:
    """Arrowhead form of the fiber operator on an n^3 midpoint grid; k is reduced."""

    k: tuple
    grid_n: int
    scalar: float  # w0(k)
    diagonal: np.ndarray  # w1 at the grid nodes, length n^3
    border: np.ndarray  # mu v h^{3/2} at the grid nodes, length n^3


def discretize(params: ModelParams, v: VFunction, k, n: int) -> DiscretizedOperator:
    """Build the arrowhead discretization on the cell-centered n^3 grid."""
    if not (isinstance(n, int) and n >= 2):
        raise ValueError("grid size n must be an integer >= 2")
    k = tuple(reduce_coords(k).reshape(3).tolist())
    g = -np.pi + (np.arange(n) + 0.5) * (TWO_PI / n)
    px = g[:, None, None]
    py = g[None, :, None]
    pz = g[None, None, :]
    diag = np.broadcast_to(w1_on_grid(k, px, py, pz), (n, n, n)).ravel().copy()
    h = TWO_PI / n
    vals = np.broadcast_to(np.asarray(v.evaluate(px, py, pz), dtype=float), (n, n, n))
    border = (params.mu * h ** 1.5) * vals.ravel()
    return DiscretizedOperator(
        k=k, grid_n=n, scalar=float(w0(k, params.gamma)), diagonal=diag, border=border.copy()
    )


def _secular_root(scalar: float, d: np.ndarray, b2: np.ndarray, lowest: bool) -> float:
    """Extreme zero of f(z) = scalar - z - sum b2/(d - z) outside the hull of d."""
    edge = float(np.min(d)) if lowest else float(np.max(d))
    direction = -1.0 if lowest else 1.0
    # f -> -inf as z -> edge from outside when lowest (pole sign), +inf when highest;
    # and f -> +inf / -inf as z -> -inf / +inf. Bracket and bisect.
    scale = max(1.0, abs(edge), abs(scalar))
    eta = 1e-9 * scale
    near = edge + direction * eta

    def f(z):
        return scalar - z - float(np.sum(b2 / (d - z)))

    # push the near endpoint until the pole dominates (finite-precision guard)
    for _ in range(60):
        fn = f(near)
        if (fn < 0.0) if lowest else (fn > 0.0):
            break
        eta *= 0.5
        near = edge + direction * eta
    else:
        raise RuntimeError("pole-side sign never locked in the secular solve")

    width = 1.0
    far = edge + direction * (eta + width)
    while ((f(far) <= 0.0) if lowest else (f(far) >= 0.0)):
        width *= 2.0
        far = edge + direction * (eta + width)
        if width > 1e8:
            raise RuntimeError("failed to bracket the extreme secular root")

    lo, hi = (far, near) if lowest else (near, far)
    # f > 0 at lo in both orientations
    for _ in range(200):
        if hi - lo <= 1e-13 * scale:
            break
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def extreme_eigenvalues(op: DiscretizedOperator):
    """(lowest, highest) eigenvalue of the arrowhead matrix, via the secular equation.

    Grid nodes with zero border weight decouple and contribute their
    diagonal values directly.  The coupled part has simple extreme roots
    strictly outside the hull of its diagonal, found by bisection; repeated
    diagonal entries are harmless (they only stack poles).
    """
    d = op.diagonal
    b = op.border
    coupled = b != 0.0
    spectator_min = float(np.min(d[~coupled])) if np.any(~coupled) else math.inf
    spectator_max = float(np.max(d[~coupled])) if np.any(~coupled) else -math.inf
    if not np.any(coupled):
        return (
            min(op.scalar, spectator_min),
            max(op.scalar, spectator_max),
        )
    dc = d[coupled]
    b2 = b[coupled] ** 2
    low = _secular_root(op.scalar, dc, b2, lowest=True)
    high = _secular_root(op.scalar, dc, b2, lowest=False)
    return min(low, spectator_min), max(high, spectator_max)
