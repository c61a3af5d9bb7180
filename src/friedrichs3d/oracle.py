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
    h = TWO_PI / n
    # w1 on the grid is a fresh n^3 array; v may be a scalar or any broadcastable array
    diag = w1_on_grid(k, px, py, pz).reshape(-1)
    border = np.empty(n ** 3)
    np.multiply(params.mu * h ** 1.5, v.evaluate(px, py, pz), out=border.reshape(n, n, n))
    return DiscretizedOperator(
        k=k, grid_n=n, scalar=float(w0(k, params.gamma)), diagonal=diag, border=border
    )


_CERT_WIDTH = 1e-13  # relative width of the sign-change bracket a root is returned on
_MAX_EVALS = 200


def _secular_root(scalar: float, d: np.ndarray, b: np.ndarray, lowest: bool,
                  b_norm: float, t: np.ndarray):
    """Extreme zero of f(z) = scalar - z - sum b^2/(d - z) outside the hull of d.

    Returns the root and the number of evaluations of f it took.  Works in
    x = |z - edge| > 0, the distance beyond the hull edge, where
    g(x) = +-f(z) = gap + x - psi(x), psi(x) = sum b^2/|d - z|, increases
    from -inf at the pole x = 0.  Each step models psi as c + a/x, matching
    psi and psi' at the iterate, and moves to the positive root of the
    model (the one-pole rational iteration of Bunch, Nielsen and Sorensen,
    Numer. Math. 31 (1978); LAPACK dlaed4).  The model overestimates psi,
    by at most (x - x_k)^2 |psi'(x_k)| / x, so the steps close in from
    above, quadratically near the root.  A step that leaves the sign
    bracket [lo, hi] is replaced by bisection.  hi starts at the root of
    gap + x = |b|^2 / x, where psi may carry all its weight at the edge;
    that is within the Weyl bound max(0, -gap) + |b|.

    The root is returned only when g changes sign across a bracket of
    width at most tol = 1e-13 max(1, |edge|, |scalar|, |b|); the pole
    itself is the negative end of a root within tol of the edge.  t is a
    work buffer shaped like d; f is never evaluated at a pole.
    """
    sigma = 1.0 if lowest else -1.0
    edge = float(np.min(d)) if lowest else float(np.max(d))
    tol = _CERT_WIDTH * max(1.0, abs(edge), abs(scalar), b_norm)
    gap = sigma * (scalar - edge)
    evals = 0

    def g(x, slope=False):
        nonlocal evals
        evals += 1
        np.subtract(d, edge - sigma * x, out=t)
        np.divide(b, t, out=t)  # t = b/(d - z): psi = +-t.b and -psi' = t.t
        psi = sigma * float(np.dot(t, b))
        return (gap + x - psi, psi, float(np.dot(t, t))) if slope else gap + x - psi

    # the positive root of x^2 + p x - a, without cancellation
    def model_root(p, a):
        disc = math.hypot(p, 2.0 * math.sqrt(a))
        return 2.0 * a / (p + disc) if p > 0.0 else 0.5 * (disc - p)

    lo, hi = 0.0, model_root(gap, b_norm * b_norm) + tol
    x = hi
    while evals < _MAX_EVALS:
        gx, psi, dpsi = g(x, slope=True)
        if gx < 0.0:
            lo = x
        else:
            hi = x
        # psi ~ c + a/x with a = x^2 |psi'| and c = psi - a/x, so the model
        # root solves x^2 + (gap - c) x - a = 0
        step = model_root(gap - psi + x * dpsi, x * x * dpsi)
        # converged, before any safeguard: the next step would move by about
        # (step - x)^2 / step, here at most tol/10.  Certify: g < 0 at
        # step - tol/2 (or at the pole, for a root within tol of the edge)
        # and g >= 0 at step + tol/2.
        if step < tol or (step - x) ** 2 <= 0.1 * tol * step:
            step = max(step, 0.5 * tol)
            left, right = step - 0.5 * tol, step + 0.5 * tol
            g_left = g(left) if left > 0.0 else -math.inf
            g_right = g(right)
            if g_left < 0.0 <= g_right:
                return edge - sigma * step, evals
            if g_left >= 0.0:
                hi = min(hi, left)
            else:
                lo = max(lo, right)
        if hi - lo <= tol:
            return edge - sigma * 0.5 * (lo + hi), evals
        x = step if lo < step < hi else 0.5 * (lo + hi)
    raise RuntimeError("the secular solve did not converge")


def extreme_eigenvalues(op: DiscretizedOperator):
    """(lowest, highest) eigenvalue of the arrowhead matrix, via the secular equation.

    Grid nodes with zero border weight decouple and contribute their
    diagonal values directly.  The coupled part has simple extreme roots
    strictly outside the hull of its diagonal, found by a safeguarded
    one-pole rational iteration and returned on a sign-change bracket of
    relative width 1e-13 (see `_secular_root`); repeated diagonal entries
    are harmless (they only stack poles).
    """
    d, b = op.diagonal, op.border
    coupled = b != 0.0
    if coupled.all():
        spectator_min, spectator_max = math.inf, -math.inf
    else:
        spectators = d[~coupled]
        spectator_min, spectator_max = float(np.min(spectators)), float(np.max(spectators))
        if not coupled.any():
            return min(op.scalar, spectator_min), max(op.scalar, spectator_max)
        d, b = d[coupled], b[coupled]
    with np.errstate(over="ignore"):  # refused below, before the norm is formed
        b_squared = float(np.dot(b, b))
    if not math.isfinite(b_squared):
        raise RuntimeError("the squared norm of the border, mu^2 h^3 sum v^2, exceeds the float range")
    b_norm = math.sqrt(b_squared)
    work = np.empty_like(d)
    low, _ = _secular_root(op.scalar, d, b, True, b_norm, work)
    high, _ = _secular_root(op.scalar, d, b, False, b_norm, work)
    return min(low, spectator_min), max(high, spectator_max)
