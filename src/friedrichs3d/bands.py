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

__all__ = ["BandStructure", "BRANCH_COLUMNS", "ESSENTIAL_BAND", "assemble_bands", "branch_extrema"]

ESSENTIAL_BAND = (0.0, 13.5)
# the columns of BandStructure.eigen_branches
BRANCH_COLUMNS = ("k1", "k2", "k3", "m", "M", "eigen_below", "eigen_above")
_MERGE_TOL = 1e-6
# a momentum within this many grid steps of a node is that node
_ON_GRID_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class BandStructure:
    """Merged spectral intervals plus the sampled eigenvalue branches.

    eigen_branches is an (n, 7) float array, one row per sampled fiber in
    lexicographic k order, with the columns BRANCH_COLUMNS: k1, k2, k3, m,
    M, eigen_below, eigen_above; NaN marks a side without an eigenvalue.  root_iterations
    counts the lockstep root-solver iterations of both solver passes (grid,
    then refinement).
    """

    intervals: tuple
    k_grid_resolution: int
    eigen_branches: np.ndarray
    root_iterations: int = 0


def _merge_intervals(intervals):
    ivs = sorted((float(a), float(b)) for a, b in intervals)
    out = [list(ivs[0])]
    for a, b in ivs[1:]:
        if a <= out[-1][1] + _MERGE_TOL:
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
        index = (np.array(p) + np.pi) / h - 0.5
        node = np.rint(index)
        if np.all(np.abs(index - node) < _ON_GRID_TOL):
            i, j, l = node.astype(int) % resolution
            points[(i * resolution + j) * resolution + l] = p
        else:
            extra.append(p)
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
    rows, iterations = _solve_fibers(params, v, points)
    has = ~np.isnan(rows[: n ** 3, 2:]).reshape(n, n, n, 2)
    more_points = _refinement_points(has, points[: n ** 3], TWO_PI / n)
    more_rows, more = _solve_fibers(params, v, more_points)
    iterations += more

    branches = np.hstack([np.vstack([points, more_points]), np.vstack([rows, more_rows])])
    branches = branches[np.lexsort(branches[:, 2::-1].T)]
    intervals = [ESSENTIAL_BAND]
    for z in branches[:, 5:].T:
        z = z[~np.isnan(z)]
        if z.size:
            intervals.append((z.min(), z.max()))
    return BandStructure(
        intervals=_merge_intervals(intervals),
        k_grid_resolution=resolution,
        eigen_branches=branches,
        root_iterations=iterations,
    )


def branch_extrema(structure: BandStructure, side: str):
    """(min, max, argmin, argmax) of a sampled branch, or None when absent.

    The arguments are momenta as 3-tuples; on a tie the first row in k order wins.
    """
    if side not in ("below", "above"):
        raise ValueError("side must be 'below' or 'above'")
    table = structure.eigen_branches
    z = table[:, BRANCH_COLUMNS.index("eigen_" + side)]
    if np.isnan(z).all():
        return None
    lo, hi = np.nanargmin(z), np.nanargmax(z)
    return float(z[lo]), float(z[hi]), tuple(table[lo, :3].tolist()), tuple(table[hi, :3].tolist())
