import numpy as np
import pytest

from friedrichs3d.bands import ESSENTIAL_BAND, BandStructure, assemble_bands, branch_extrema
from friedrichs3d.determinant import ModelParams, SpectralWindow, find_discrete_spectrum
from friedrichs3d.lattice import ORIGIN, PI_POINT, lambda_points
from friedrichs3d.vfunction import parse_v

from oracles import pi_point_roots


def test_essential_band_constant():
    assert ESSENTIAL_BAND == (0.0, 13.5)


def test_weak_coupling_reproduces_the_essential_band(v_one):
    structure = assemble_bands(ModelParams(gamma=6.0, mu=1e-6), v_one, resolution=4)
    assert structure.intervals == ((0.0, 13.5),)
    assert structure.k_grid_resolution == 4


def test_interval_count_and_ordering(v_one):
    structure = assemble_bands(ModelParams(gamma=-1.5, mu=0.5), v_one, resolution=4)
    assert 1 <= len(structure.intervals) <= 3
    flat = [x for pair in structure.intervals for x in pair]
    assert flat == sorted(flat)
    # the essential band is always covered
    covered = any(a <= 0.0 and b >= 13.5 for a, b in structure.intervals)
    assert covered


def test_visible_endpoints_sit_on_the_corner_closed_form(v_one):
    gamma, mu = -1.5, 0.5
    structure = assemble_bands(ModelParams(gamma=gamma, mu=mu), v_one, resolution=4)
    below, above = pi_point_roots(gamma, mu)
    assert len(structure.intervals) == 2
    # the detached piece below the band tops out at the corner root and the
    # merged band interval overhangs up to the corner root above
    assert structure.intervals[0][1] == pytest.approx(below, abs=2e-10)
    assert structure.intervals[-1][1] == pytest.approx(above, abs=2e-10)
    assert structure.intervals[0][0] == branch_extrema(structure, "below")[0]


def test_branch_extrema_locate_distinguished_points(v_one):
    structure = assemble_bands(ModelParams(gamma=-1.5, mu=0.5), v_one, resolution=4)
    lo, hi, argmin, argmax = branch_extrema(structure, "below")
    assert lo <= hi
    assert argmin == ORIGIN  # deepest level at the dispersion minimum
    assert argmax == PI_POINT
    lo_a, hi_a, argmin_a, argmax_a = branch_extrema(structure, "above")
    assert argmax_a == PI_POINT
    assert hi_a == pytest.approx(pi_point_roots(-1.5, 0.5)[1], abs=2e-10)


def test_refinement_adds_points_where_branches_detach(v_one):
    # gamma = 8 with weak mu: the state below the band exists near the
    # corner momentum but not near zero, so existence flips along the grid
    structure = assemble_bands(ModelParams(gamma=8.0, mu=0.3), v_one, resolution=4)
    base_count = 4 ** 3 + 10
    assert len(structure.eigen_branches) > base_count
    below = structure.branch_values("below")
    ks = {w.k for w in structure.eigen_branches}
    assert len(ks) == len(structure.eigen_branches)  # no duplicate fibers
    assert 0 < len(below) < len(structure.eigen_branches)


# both branches detach inside the torus for this v, gamma and mu
_DETACH_V = "0.9 + 0.2*cos(p1) + 0.3*cos(2*p2) - 0.2*cos(p2)*cos(p3)"
_DETACH = ModelParams(gamma=3.0, mu=0.1)


def _torus_gap(points, ks):
    """Largest per-axis torus distance from each row of `points` to its nearest row of `ks`."""
    diff = (points[:, None, :] - ks[None, :, :] + np.pi) % (2.0 * np.pi) - np.pi
    return np.abs(diff).max(axis=2).min(axis=1)


@pytest.mark.parametrize("resolution", [4, 8])
def test_every_flipped_grid_link_is_refined(resolution):
    structure = assemble_bands(_DETACH, parse_v(_DETACH_V), resolution=resolution)
    ks = np.array([w.k.coords for w in structure.eigen_branches])
    h = 2.0 * np.pi / resolution
    g = -np.pi + (np.arange(resolution) + 0.5) * h
    nodes = np.array([(a, b, c) for a in g for b in g for c in g])
    diff = (nodes[:, None, :] - ks[None, :, :] + np.pi) % (2.0 * np.pi) - np.pi
    at = np.abs(diff).max(axis=2).argmin(axis=1)
    assert np.all(_torus_gap(nodes, ks) < 1e-12)
    has = {}
    for (i, j, l), row in zip(np.ndindex(resolution, resolution, resolution), at):
        w = structure.eigen_branches[row]
        has[i, j, l] = (w.eigen_below is not None, w.eigen_above is not None)
    expected = []
    for (i, j, l), here in has.items():
        for axis in range(3):
            step = [i, j, l]
            step[axis] = (step[axis] + 1) % resolution  # the last link wraps to the first node
            if has[tuple(step)] != here:
                origin = np.array([g[i], g[j], g[l]])
                for frac in (0.25, 0.5, 0.75):
                    point = origin.copy()
                    point[axis] += frac * h
                    expected.append(point)
    assert expected  # existence flips somewhere on the grid
    assert np.all(_torus_gap(np.array(expected), ks) < 1e-12)
    # the refined fibers are exactly those quarter points
    assert len(ks) == resolution ** 3 + 10 + len(expected)


@pytest.mark.parametrize("resolution", [3, 9])
def test_each_fiber_is_solved_once(resolution):
    structure = assemble_bands(_DETACH, parse_v(_DETACH_V), resolution=resolution)
    ks = np.array([w.k.coords for w in structure.eigen_branches])
    for i in range(len(ks) - 1):
        assert _torus_gap(ks[i : i + 1], ks[i + 1 :])[0] > 1e-9
    # at these resolutions every Lambda point is a grid node
    for point in (ORIGIN, PI_POINT) + lambda_points():
        assert sum(w.k == point for w in structure.eigen_branches) == 1


def test_batched_fibers_match_single_fiber_solves(v_cos_half):
    params = ModelParams(gamma=-0.8, mu=0.45)
    structure = assemble_bands(params, v_cos_half, resolution=4)
    assert structure.root_iterations > 0
    for w in structure.eigen_branches:
        single = find_discrete_spectrum(params, v_cos_half, w.k)
        assert (w.m, w.M) == (single.m, single.M)
        for got, want in ((w.eigen_below, single.eigen_below), (w.eigen_above, single.eigen_above)):
            assert (got is None) == (want is None)
            if got is not None:
                assert got == pytest.approx(want, abs=1e-12)


def test_endpoints_stable_under_grid_refinement(v_one):
    params = ModelParams(gamma=-1.5, mu=0.5)
    coarse = assemble_bands(params, v_one, resolution=4)
    fine = assemble_bands(params, v_one, resolution=8)
    assert len(coarse.intervals) == len(fine.intervals)
    for (a1, b1), (a2, b2) in zip(coarse.intervals, fine.intervals):
        assert a1 == pytest.approx(a2, abs=1e-9)
        assert b1 == pytest.approx(b2, abs=1e-9)


def test_branch_values_validates_side(v_one):
    structure = assemble_bands(ModelParams(gamma=6.0, mu=1e-6), v_one, resolution=4)
    with pytest.raises(ValueError):
        structure.branch_values("left")


def test_branch_extrema_none_when_side_is_empty():
    window = SpectralWindow(k=ORIGIN, m=0.0, M=12.0, eigen_below=-1.0, eigen_above=None)
    structure = BandStructure(
        intervals=((-1.0, 13.5),), k_grid_resolution=1, eigen_branches=(window,)
    )
    assert branch_extrema(structure, "above") is None
    assert branch_extrema(structure, "below") == (-1.0, -1.0, ORIGIN, ORIGIN)
