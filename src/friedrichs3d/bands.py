"""Global band picture: essential band plus discrete-eigenvalue branches.

The fiber bands [m(k), M(k)] sweep out exactly [0, 27/2] as k runs over
the torus (per-axis algebra shows m <= 12 <= M pointwise, so the union
has no gap).  The discrete branches z(k) below and above the fiber band
are sampled on a k-grid, refined locally where a branch detaches, and
merged with the essential interval.  The result is between one and
three disjoint intervals: parts of a branch inside [0, 27/2] are real
spectrum all the same, so only the overhangs below 0 or above 27/2
produce separate components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .determinant import ModelParams, _solve_fibers
from .lattice import ORIGIN, PI_POINT, TWO_PI, lambda_points, reduce_coords
from .vfunction import VFunction

__all__ = ["BandStructure", "ESSENTIAL_BAND", "assemble_bands", "branch_extrema"]

ESSENTIAL_BAND = (0.0, 13.5)
_MERGE_TOL = 1e-6
# a momentum within this many grid steps of a node is that node
_ON_GRID_TOL = 1e-9


@dataclass(frozen=True)
class BandStructure:
    """Merged spectral intervals plus the sampled eigenvalue branches.

    root_iterations counts the lockstep root-solver iterations of both
    solver passes (grid, then refinement).
    """

    intervals: tuple
    k_grid_resolution: int
    eigen_branches: tuple  # SpectralWindow per sampled k, deterministic order
    root_iterations: int = 0

    def branch_values(self, side: str):
        if side not in ("below", "above"):
            raise ValueError("side must be 'below' or 'above'")
        pick = (lambda w: w.eigen_below) if side == "below" else (lambda w: w.eigen_above)
        return [(w.k, pick(w)) for w in self.eigen_branches if pick(w) is not None]


def _merge_intervals(intervals, tol=_MERGE_TOL):
    ivs = sorted((float(a), float(b)) for a, b in intervals)
    out = [list(ivs[0])]
    for a, b in ivs[1:]:
        if a <= out[-1][1] + tol:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return tuple((a, b) for a, b in out)


def _sample_points(resolution: int) -> np.ndarray:
    """The cell-centered resolution^3 grid plus the ten distinguished momenta.

    The grid comes first, in row-major (k1, k2, k3) index order.  A
    distinguished point that lies on the grid replaces its node under its
    exact coordinates; every other one is appended.
    """
    h = TWO_PI / resolution
    g = -np.pi + (np.arange(resolution) + 0.5) * h
    points = reduce_coords(np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3))
    extra = []
    for p in (ORIGIN, PI_POINT) + lambda_points():
        index = (p.to_array() + np.pi) / h - 0.5
        node = np.rint(index)
        if np.all(np.abs(index - node) < _ON_GRID_TOL):
            i, j, l = node.astype(int) % resolution
            points[(i * resolution + j) * resolution + l] = p.coords
        else:
            extra.append(p.coords)
    return np.vstack([points, extra]) if extra else points


def _refinement_points(has: np.ndarray, points: np.ndarray, h: float) -> np.ndarray:
    """Quarter points of every grid link where a branch appears or disappears.

    `has` is the (n, n, n, 2) existence below and above at the n^3 grid
    nodes `points`.  A link joins a node to its successor along one axis;
    the last node's successor is the first (the periodic wrap link).
    """
    shifts = np.array([0.25, 0.5, 0.75]) * h
    out = []
    for axis in range(3):
        flipped = np.any(has != np.roll(has, -1, axis=axis), axis=-1).ravel()
        step = np.zeros((3, 3))
        step[:, axis] = shifts
        out.append((points[flipped][:, None, :] + step).reshape(-1, 3))
    return reduce_coords(np.vstack(out))


def assemble_bands(
    params: ModelParams,
    v: VFunction,
    resolution: int = 8,
) -> BandStructure:
    """Sample both eigenvalue branches over a k-grid and merge the spectrum.

    Uses a cell-centered resolution^3 grid augmented with the ten
    distinguished momenta (origin, the pi corner, the eight Lambda
    points), each solved once: where one lies on the grid it takes the
    place of its node.  Then refines once, at quarter spacing, across every
    grid link where a branch appears or disappears (detachment crossings),
    the periodic wrap links included; links are found by grid index.  The
    merged interval list always contains the essential band [0, 27/2].
    Each pass solves all its fibers together, one band edge at a time.
    """
    if not (isinstance(resolution, int) and resolution >= 2):
        raise ValueError("resolution must be an integer >= 2")

    n = resolution
    points = _sample_points(n)
    windows, iterations = _solve_fibers(params, v, points)
    has = np.array(
        [(w.eigen_below is not None, w.eigen_above is not None) for w in windows[: n ** 3]]
    ).reshape(n, n, n, 2)
    refined, more = _solve_fibers(params, v, _refinement_points(has, points[: n ** 3], TWO_PI / n))
    iterations += more

    branches = tuple(sorted(windows + refined, key=lambda w: w.k.coords))
    intervals = [ESSENTIAL_BAND]
    for side in ("below", "above"):
        vals = [getattr(w, "eigen_" + side) for w in branches]
        vals = [z for z in vals if z is not None]
        if vals:
            intervals.append((min(vals), max(vals)))
    merged = _merge_intervals(intervals)
    return BandStructure(
        intervals=merged,
        k_grid_resolution=resolution,
        eigen_branches=branches,
        root_iterations=iterations,
    )


def branch_extrema(structure: BandStructure, side: str):
    """(min, max, argmin, argmax) of a sampled branch, or None when absent."""
    vals = structure.branch_values(side)
    if not vals:
        return None
    lo = min(vals, key=lambda kv: kv[1])
    hi = max(vals, key=lambda kv: kv[1])
    return lo[1], hi[1], lo[0], hi[0]
