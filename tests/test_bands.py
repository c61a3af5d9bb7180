import numpy as np
import pytest

from friedrichs3d.bands import ESSENTIAL_BAND, BandStructure, assemble_bands, branch_extrema
from friedrichs3d.determinant import ModelParams, SpectralWindow, find_discrete_spectrum
from friedrichs3d.lattice import ORIGIN, PI_POINT, TorusPoint

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
