"""Fredholm determinant of the fiber operator and the discrete-spectrum solver.

For coupling mu and scalar level w0(k) = eps(k) + gamma, the fiber at k
has essential spectrum [m(k), M(k)] and the determinant

    Delta(k, z) = w0(k) - z - mu^2 int v(t)^2 / (w1(k, t) - z) dt.

Its zeros outside the band are exactly the discrete eigenvalues.  Delta
is strictly decreasing in z with slope <= -1 outside the band, so each
side carries at most one simple zero, existence is decided by the sign
of the one-sided edge limits, and the z-error of a root is bounded by
the Delta-error.  Since 0 <= int v^2/|w1 - z| <= ||v||_2^2 / dist(z, band),
every root lies within mu ||v||_2 of [min(w0, m), max(w0, M)], which
brackets it at any coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import band_endpoints, reduce_coords, w0
from .quadrature import ResolventKernel, resolvent_integral_2d
from .vfunction import VFunction

__all__ = [
    "ModelParams",
    "SpectralWindow",
    "InsideEssentialSpectrum",
    "fredholm_delta",
    "find_discrete_spectrum",
    "EDGE_MARGIN",
]

# the audit's reach: `fredholm_delta` refuses z closer to the band than this
EDGE_MARGIN = 1e-6
_ROOT_TOL = 1e-10
_MAX_ITERATIONS = 200
# relative rounding of Delta = w0 - z -+ mu^2 J, the floor of its attainable |Delta|
_NOISE = 8.0 * np.finfo(float).eps
# (fiber, band edge) rows per lockstep group of the solver, one kernel each:
# bounds its memory, about 1.4 KB of G per row
_ROWS_PER_GROUP = 2048


class InsideEssentialSpectrum(ValueError):
    """z lies in (or hugs) the fiber band where the determinant is undefined."""


@dataclass(frozen=True)
class ModelParams:
    """Scalar-channel offset gamma and coupling strength mu (mu > 0)."""

    gamma: float
    mu: float

    def __post_init__(self):
        # mu^2 is finite only for a finite mu, and the determinant takes mu^2
        if not (math.isfinite(self.gamma) and math.isfinite(self.mu * self.mu)):
            raise ValueError("gamma and mu^2 must be finite, got gamma %r, mu %r" % (self.gamma, self.mu))
        if self.mu <= 0.0:
            raise ValueError("mu must be positive")
        # a mu^2 that underflows would meet an infinite edge limit as 0 * inf
        if self.mu * self.mu == 0.0:
            raise ValueError("mu^2 underflows to 0, got mu %r" % self.mu)


def _check_windows(m, M, below, above) -> None:
    """Raise ValueError unless m <= M, below < m and above > M, elementwise; NaN is no root."""
    if np.any(m > M):
        raise ValueError("band endpoints out of order")
    if np.any(below >= m):
        raise ValueError("eigen_below must lie strictly below the band")
    if np.any(above <= M):
        raise ValueError("eigen_above must lie strictly above the band")


@dataclass(frozen=True)
class SpectralWindow:
    """Discrete spectrum of one fiber: band edges plus optional eigenvalues.

    k is the reduced momentum, a 3-tuple of floats.
    """

    k: tuple
    m: float
    M: float
    eigen_below: float | None
    eigen_above: float | None

    def __post_init__(self):
        none_is_nan = (math.nan if z is None else z for z in (self.eigen_below, self.eigen_above))
        _check_windows(self.m, self.M, *none_is_nan)


def fredholm_delta(params: ModelParams, v: VFunction, k, z: float):
    """Determinant at spectral parameter z outside the fiber band, and its audit.

    Evaluates the integral with `resolvent_integral_2d` (t3 in closed form,
    a graded midpoint grid in (t1, t2)), a route independent of the
    solver's kernel, so it audits roots.  z must keep at least EDGE_MARGIN
    distance from [m(k), M(k)]; inside that guard band
    InsideEssentialSpectrum is raised.  Returns (value, IntegralResult).
    """
    k = reduce_coords(k).reshape(3)
    z = float(z)
    lo, hi = band_endpoints(k)
    if lo - EDGE_MARGIN <= z <= hi + EDGE_MARGIN:
        raise InsideEssentialSpectrum(
            "z = %.17g is within %g of the band [%.17g, %.17g]" % (z, EDGE_MARGIN, lo, hi)
        )
    result = resolvent_integral_2d(v, k, z)
    return w0(k, params.gamma) - z - params.mu ** 2 * result.value, result


def _solve_rows(params: ModelParams, kernel: ResolventKernel):
    """The root on each (fiber, band edge) row of `kernel`, or NaN where there is none.

    Each row is solved in its distance delta from its edge, where
    g(delta) = sign * Delta(edge + sign * delta) (sign -1 below, +1 above)
    decreases with slope -1 - mu^2 int s e^{-delta s} G(s) ds <= -1.  A root
    exists iff g(0+) > 0.  Its bracket starts at the float spacing of the
    edge, the least delta that moves z off it, and ends below g(0+) (the
    slope) and below max(sign (w0 - edge), 0) + mu ||v||_2 (the rank-one
    bound); g < 0 is checked just beyond the smaller one.  All open rows,
    however close their roots lie to the edge, then step together from
    there: Newton in sqrt(delta), which tames the sqrt(delta) edge
    behavior of the kernel, or, on a row with no free axis (the corner
    k = (pi, pi, pi), where J ~ 1/delta), Newton on delta g; either is
    replaced by a geometric bisection whenever it leaves the bracket.  A
    row stops when |g| <= 1e-10 (or the rounding noise at large |z|),
    which bounds its error by the same since |g'| >= 1, or when its
    bracket is 1e-10 wide.  For mu > 1 the rows step on g / mu^2, whose
    terms cannot overflow, with the tolerance and the slope bound scaled
    alike.  J is finite at every delta > 0 and can diverge only at the
    edge, so any other inf, or a NaN, means J left the float range:
    RuntimeError.
    Returns the roots and the number of lockstep iterations.
    """
    edge = kernel.edge
    n = edge.size
    sign = np.where(np.arange(n) % 2, 1.0, -1.0)  # row 2 fiber + side
    w0 = kernel.eps + params.gamma
    scale = max(1.0, params.mu ** 2)
    mu2 = params.mu ** 2 / scale

    def g(rows, delta, slope=False):
        out = kernel.integrals(rows, delta, slope)
        j, k = out if slope else (out, None)
        finite = np.isfinite(j)
        if not finite.all() and (~finite & ((j != math.inf) | (delta > 0.0))).any():
            raise RuntimeError("the resolvent integral exceeds the float range")
        z = edge[rows] + sign[rows] * delta
        value = sign[rows] * (w0[rows] - z) / scale + mu2 * j
        if not slope:
            return value
        # in halves, so that the sum stays in the float range wherever w0 does
        noise = 2.0 * _NOISE * ((0.5 * np.abs(w0[rows]) + 0.5 * np.abs(z)) / scale + 0.5 * mu2 * j)
        return value, -1.0 / scale - mu2 * k, noise

    roots = np.full(n, np.nan)
    at_edge = g(np.arange(n), np.zeros(n))
    open_ = np.flatnonzero(at_edge > 0.0)
    lo = np.spacing(np.abs(edge[open_]))  # the least delta that moves z off the edge
    rank_one = np.maximum(sign[open_] * (w0[open_] - edge[open_]), 0.0) + params.mu * kernel.v_norm
    bound = np.minimum(rank_one / scale, at_edge[open_]) * scale
    # the slack stops at the largest float, and adds nothing to an infinite bound
    hi = bound + np.minimum(1e-9 * (1.0 + bound), np.maximum(np.finfo(float).max - bound, 0.0))
    x = hi
    iterations = 0
    while open_.size:
        value, slope, noise = g(open_, x, slope=True)
        # g = 0 at hi is the root itself, where the slack is capped to 0 at the largest float
        if iterations == 0 and not np.all(value <= 0.0):
            raise RuntimeError("an eigenvalue lies beyond its rank-one bound")
        iterations += 1
        if iterations > _MAX_ITERATIONS:
            raise RuntimeError("root iteration did not converge in %d steps" % _MAX_ITERATIONS)
        beyond = value > 0.0
        lo = np.where(beyond, x, lo)
        hi = np.where(beyond, hi, x)
        mid = np.sqrt(lo) * np.sqrt(hi)
        small = np.abs(value) <= np.maximum(noise, _ROOT_TOL / scale)
        # a bracket with no float strictly inside has resolved its root to an ulp
        narrow = (hi - lo <= _ROOT_TOL) | (mid <= lo) | (mid >= hi)
        done = small | narrow
        if done.any():
            # the midpoint in halves: lo + hi overflows once both ends pass half the largest float
            final =np.where(small, np.minimum(np.maximum(x - value / slope, lo), hi), 0.5 * lo + 0.5 * hi)
            roots[open_[done]] = final[done]
            keep = ~done
            open_, lo, hi, x, value, slope, mid = (
                a[keep] for a in (open_, lo, hi, x, value, slope, mid)
            )
        u = np.sqrt(x)
        newton = np.maximum(u - value / (2.0 * u * slope), 0.0) ** 2
        # a row with no free axis has J ~ 1/delta: Newton on delta g, where
        # the sqrt(delta) step only about doubles delta.  A step past hi is
        # refused below, so its divisor may be cut there
        pole = kernel.d_free[open_] == 0
        if pole.any():
            xp = x[pole]
            newton[pole] = xp / np.maximum(1.0 + value[pole] / (xp * slope[pole]), xp / hi[pole])
        x = np.where((newton > lo) & (newton < hi), newton, mid)
    return edge + sign * roots, iterations


def _solve_fibers(params: ModelParams, v: VFunction, kc: np.ndarray):
    """The (n, 4) rows m, M, root below, root above at the reduced (n, 3) momenta `kc`, plus the iterations.

    A missing root is NaN.  The fibers step in lockstep groups of at most
    _ROWS_PER_GROUP (fiber, band edge) rows, both band edges of a fiber in
    one group, each group on its own `ResolventKernel`, released before
    the next.  Rows step on their own, so the iterations returned, the
    most of any group, do not depend on the grouping.
    """
    n = kc.shape[0]
    rows = np.empty((n, 4))
    iterations = 0
    per_group = max(1, _ROWS_PER_GROUP // 2)
    for start in range(0, n, per_group):
        kernel = ResolventKernel(v, kc[start : start + per_group])
        z, steps = _solve_rows(params, kernel)
        rows[start : start + per_group] = np.hstack([kernel.edge.reshape(-1, 2), z.reshape(-1, 2)])
        iterations = max(iterations, steps)
    return rows, iterations


def find_discrete_spectrum(params: ModelParams, v: VFunction, k) -> SpectralWindow:
    """Locate the (at most one per side) discrete eigenvalues of the fiber at k.

    Existence is decided by the sign of the one-sided determinant limits at
    the band edges, evaluated exactly by the Laplace-Bessel kernel; the
    roots are then solved by safeguarded Newton to 1e-10, down to the
    edge itself.  This is the solver of `bands` on a batch of one fiber.
    """
    kc = reduce_coords(k).reshape(1, 3)
    (row,), _ = _solve_fibers(params, v, kc)
    m, M, below, above = (None if math.isnan(x) else x for x in row.tolist())
    return SpectralWindow(tuple(kc[0].tolist()), m, M, below, above)
