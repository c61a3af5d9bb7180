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
from itertools import product

import numpy as np

from .determinant import ModelParams, _check_windows, _solve_fibers
from .lattice import ORIGIN, PI_POINT, TWO_PI, band_endpoints, lambda_points, reduce_coords
from .vfunction import VFunction

__all__ = ["BandStructure", "BRANCH_COLUMNS", "ESSENTIAL_BAND", "assemble_bands", "branch_extrema"]

ESSENTIAL_BAND = (0.0, 13.5)
# the columns of BandStructure.eigen_branches
BRANCH_COLUMNS = ("k1", "k2", "k3", "m", "M", "eigen_below", "eigen_above")
_MERGE_TOL = 1e-6
# a momentum within this many grid steps of a node is that node
_ON_GRID_TOL = 1e-9
# the sign flips of the three momentum axes, identity first
_FLIPS = tuple(product((1, -1), repeat=3))


@dataclass(frozen=True, eq=False)
class BandStructure:
    """Merged spectral intervals plus the sampled eigenvalue branches.

    eigen_branches is an (n, 7) float array, one row per sampled fiber in
    lexicographic k order, with the columns BRANCH_COLUMNS: k1, k2, k3, m,
    M, eigen_below, eigen_above; NaN marks a side without an eigenvalue.  root_iterations
    sums over both solver passes (grid, then refinement) the most lockstep
    root-solver iterations a (fiber, band edge) row of the pass needed, and
    fibers_solved counts the fibers they solved: one per orbit of the sign
    flips symmetry_flips that fix v^2 (see `_symmetry_flips`).
    """

    intervals: tuple
    k_grid_resolution: int
    eigen_branches: np.ndarray
    root_iterations: int = 0
    fibers_solved: int = 0
    symmetry_flips: tuple = ()


def _merge_intervals(intervals):
    ivs = sorted((float(a), float(b)) for a, b in intervals)
    out = [list(ivs[0])]
    for a, b in ivs[1:]:
        if a <= out[-1][1] + _MERGE_TOL:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return tuple((a, b) for a, b in out)


def _symmetry_flips(v: VFunction) -> tuple:
    """The sign flips s of the momentum axes that fix v^2, as sign triples in _FLIPS order.

    v(s p)^2 = v(p)^2 iff v is even or odd under s, which its exponential
    coefficients c decide exactly: c[s m] == c[m] for every mode m, or
    c[s m] == -c[m] for every mode m.  The fibers at k and s k then share
    eps, every c_j and the kernel weights, hence the determinant and the
    roots.  The identity is always among them.
    """
    c = v.exp_coeffs()

    def fixes(s, sign):
        return all(c.get((s[0] * m1, s[1] * m2, s[2] * m3)) == sign * cm for (m1, m2, m3), cm in c.items())

    return tuple(s for s in _FLIPS if fixes(s, 1) or fixes(s, -1))


def _sample_points(resolution: int):
    """The cell-centered resolution^3 grid plus the ten distinguished momenta.

    The grid comes first, in row-major (k1, k2, k3) index order.  A
    distinguished point that lies on the grid replaces its node under its
    exact coordinates; every other one is appended.  Returns the (rows, 3)
    points and the rows of the ten distinguished momenta.
    """
    h = TWO_PI / resolution
    g = -np.pi + (np.arange(resolution) + 0.5) * h
    points = reduce_coords(np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3))
    extra, special = [], []
    for p in (ORIGIN, PI_POINT) + lambda_points():
        index = (np.array(p) + np.pi) / h - 0.5
        node = np.rint(index)
        if np.all(np.abs(index - node) < _ON_GRID_TOL):
            i, j, l = node.astype(int) % resolution
            special.append((i * resolution + j) * resolution + l)
            points[special[-1]] = p
        else:
            special.append(resolution ** 3 + len(extra))
            extra.append(p)
    return (np.vstack([points, extra]) if extra else points), np.array(special)


def _orbit_keys(lattice: np.ndarray, resolution: int, flips) -> np.ndarray:
    """One integer per row of quarter-lattice coordinates, equal for rows that a flip maps to each other.

    Coordinate q stands for -pi + q h/4 with h = 2 pi/resolution, q mod
    4 resolution: node i sits at 4 i + 2 and the quarter points of its link
    at 4 i + 2 + t, t = 1, 2, 3.  The flip k_j -> -k_j maps q_j to
    (4 resolution - q_j) mod 4 resolution.  The key is the smallest encoded
    image over the group `flips`, the same for every member of an orbit.
    """
    size = 4 * resolution
    place = np.array([size * size, size, 1])
    return np.min([((lattice * s) % size) @ place for s in flips], axis=0)


def _refinement_points(has: np.ndarray, points: np.ndarray, lattice: np.ndarray, h: float):
    """Quarter points of every grid link where a branch appears or disappears.

    `has` is the (n, n, n, 2) existence below and above at the n^3 grid
    nodes `points`, whose quarter-lattice coordinates are `lattice`.  A link
    joins a node to its successor along one axis; the last node's successor
    is the first (the periodic wrap link).  Returns the points and their
    quarter-lattice coordinates.
    """
    size = 4 * has.shape[0]
    out, out_lattice = [], []
    for axis in range(3):
        flipped = np.any(has != np.roll(has, -1, axis=axis), axis=-1).ravel()
        step = np.zeros((3, 3), dtype=int)
        step[:, axis] = (1, 2, 3)
        out.append((points[flipped][:, None, :] + step * (0.25 * h)).reshape(-1, 3))
        out_lattice.append(((lattice[flipped][:, None, :] + step) % size).reshape(-1, 3))
    return reduce_coords(np.vstack(out)), np.vstack(out_lattice)


def _solve_orbits(params: ModelParams, v: VFunction, points: np.ndarray, keys: np.ndarray):
    """The `_solve_fibers` rows at `points`, one solve per distinct key, plus the iterations and solves.

    Rows with one key are fibers related by a sign flip that fixes v^2, so
    the first of them is solved on its own coordinates and its roots go to
    all of them.  Every row keeps its own band edges m and M.
    """
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    solved, iterations = _solve_fibers(params, v, points[first])
    rows = solved[inverse]
    rows[:, 0], rows[:, 1] = band_endpoints(points)
    _check_windows(*rows.T)
    return rows, iterations, first.size


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
    Each pass solves its fibers on one kernel, both band edges of a fiber
    in one lockstep group, and one fiber per orbit of the sign flips that
    fix v^2: grid nodes and quarter points are keyed by their quarter-
    lattice coordinates, and each distinguished momentum is solved alone.
    """
    if not (isinstance(resolution, int) and resolution >= 2):
        raise ValueError("resolution must be an integer >= 2")

    n = resolution
    flips = _symmetry_flips(v)
    points, special = _sample_points(n)
    q = 4 * np.arange(n) + 2  # the nodes on the quarter lattice of `_orbit_keys`
    lattice = np.stack(np.meshgrid(q, q, q, indexing="ij"), axis=-1).reshape(-1, 3)
    keys = np.empty(len(points), dtype=int)
    keys[: n ** 3] = _orbit_keys(lattice, n, flips)
    keys[special] = -1 - np.arange(special.size)  # off the lattice: an orbit each
    rows, iterations, solved = _solve_orbits(params, v, points, keys)
    has = ~np.isnan(rows[: n ** 3, 2:]).reshape(n, n, n, 2)
    more_points, more_lattice = _refinement_points(has, points[: n ** 3], lattice, TWO_PI / n)
    more_rows, more, more_solved = _solve_orbits(params, v, more_points, _orbit_keys(more_lattice, n, flips))

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
        root_iterations=iterations + more,
        fibers_solved=solved + more_solved,
        symmetry_flips=flips,
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
