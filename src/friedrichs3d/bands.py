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
from .lattice import ORIGIN, PI_POINT, TWO_PI, TorusPoint, lambda_points
from .vfunction import VFunction

__all__ = ["BandStructure", "ESSENTIAL_BAND", "assemble_bands", "branch_extrema"]

ESSENTIAL_BAND = (0.0, 13.5)
_MERGE_TOL = 1e-6


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


def _distinguished_points():
    return (ORIGIN, PI_POINT) + tuple(lambda_points())


def assemble_bands(
    params: ModelParams,
    v: VFunction,
    resolution: int = 8,
) -> BandStructure:
    """Sample both eigenvalue branches over a k-grid and merge the spectrum.

    Uses a cell-centered resolution^3 grid augmented with the ten
    distinguished momenta (origin, the pi corner, the eight Lambda
    points), then refines once, at quarter spacing, across grid links
    where a branch appears or disappears (detachment crossings).  The
    merged interval list always contains the essential band [0, 27/2].
    Each pass solves all its fibers together, one band edge at a time.
    """
    if not (isinstance(resolution, int) and resolution >= 2):
        raise ValueError("resolution must be an integer >= 2")

    g = -np.pi + (np.arange(resolution) + 0.5) * (TWO_PI / resolution)
    grid_pts = [
        TorusPoint(a, b, c) for a in g for b in g for c in g
    ]
    extra = list(_distinguished_points())
    points = grid_pts + [p for p in extra if p not in set(grid_pts)]

    windows, iterations = _solve_fibers(params, v, points)
    by_point = {w.k: w for w in windows}

    # one local refinement pass: where existence flips across an axis link,
    # insert quarter-spaced points along that link
    h = TWO_PI / resolution
    refine = set()
    for p in grid_pts:
        w = by_point[p]
        for axis in range(3):
            step = [0.0, 0.0, 0.0]
            step[axis] = h
            q = p + step
            wq = by_point.get(q)
            if wq is None:
                continue
            for side in ("below", "above"):
                has_p = getattr(w, "eigen_" + side) is not None
                has_q = getattr(wq, "eigen_" + side) is not None
                if has_p != has_q:
                    for frac in (0.25, 0.5, 0.75):
                        move = [0.0, 0.0, 0.0]
                        move[axis] = frac * h
                        refine.add(p + move)
    new_pts = [p for p in sorted(refine, key=lambda t: t.coords) if p not in by_point]
    refined, more = _solve_fibers(params, v, new_pts)
    iterations += more
    for w in refined:
        by_point[w.k] = w

    branches = tuple(sorted(by_point.values(), key=lambda w: w.k.coords))
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
