from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friedrichs3d import determinant
from friedrichs3d.bands import (
    ESSENTIAL_BAND,
    BandStructure,
    _merge_intervals,
    _symmetry_flips,
    assemble_bands,
    branch_extrema,
)
from friedrichs3d.determinant import ModelParams, _solve_fibers, find_discrete_spectrum
from friedrichs3d.lattice import ORIGIN, PI_POINT, lambda_points
from friedrichs3d.vfunction import VFunction, parse_v

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
    below = structure.eigen_branches[~np.isnan(structure.eigen_branches[:, 5])]
    ks = {tuple(row[:3]) for row in structure.eigen_branches.tolist()}
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
    ks = structure.eigen_branches[:, :3]
    h = 2.0 * np.pi / resolution
    g = -np.pi + (np.arange(resolution) + 0.5) * h
    nodes = np.array([(a, b, c) for a in g for b in g for c in g])
    diff = (nodes[:, None, :] - ks[None, :, :] + np.pi) % (2.0 * np.pi) - np.pi
    at = np.abs(diff).max(axis=2).argmin(axis=1)
    assert np.all(_torus_gap(nodes, ks) < 1e-12)
    has = {}
    for (i, j, l), row in zip(np.ndindex(resolution, resolution, resolution), at):
        below, above = structure.eigen_branches[row, 5:]
        has[i, j, l] = (not np.isnan(below), not np.isnan(above))
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
    ks = structure.eigen_branches[:, :3]
    for i in range(len(ks) - 1):
        assert _torus_gap(ks[i : i + 1], ks[i + 1 :])[0] > 1e-9
    # at these resolutions every Lambda point is a grid node
    for point in (ORIGIN, PI_POINT) + lambda_points():
        assert sum(tuple(k) == point for k in ks.tolist()) == 1


def test_batched_fibers_match_single_fiber_solves(v_cos_half):
    params = ModelParams(gamma=-0.8, mu=0.45)
    structure = assemble_bands(params, v_cos_half, resolution=4)
    assert structure.root_iterations > 0
    for k1, k2, k3, m, M, below, above in structure.eigen_branches.tolist():
        single = find_discrete_spectrum(params, v_cos_half, (k1, k2, k3))
        assert (m, M) == (single.m, single.M)
        for got, want in ((below, single.eigen_below), (above, single.eigen_above)):
            got = None if np.isnan(got) else got
            assert (got is None) == (want is None)
            if got is not None:
                assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("cap", [2, 6, 40])
def test_lockstep_grouping_changes_neither_rows_nor_iterations(monkeypatch, cap):
    # rows step on their own and a fiber's rows do not depend on its kernel's
    # other fibers, so a group cap changes only how many rows share a step
    v = parse_v("0.9 + 0.3*sin(p1) + 0.2*sin(2*p2) + 0.25*cos(p2)*sin(p3) + 0.1*sin(p3)")
    params = ModelParams(gamma=3.0, mu=0.1)
    whole = assemble_bands(params, v, resolution=4)
    built = []
    init = determinant.ResolventKernel.__init__
    monkeypatch.setattr(
        determinant.ResolventKernel, "__init__", lambda self, *args: built.append(1) or init(self, *args)
    )
    monkeypatch.setattr(determinant, "_ROWS_PER_GROUP", cap)
    grouped = assemble_bands(params, v, resolution=4)
    assert len(built) > 2  # some pass takes several kernels
    assert np.array_equal(grouped.eigen_branches, whole.eigen_branches, equal_nan=True)
    assert grouped.root_iterations == whole.root_iterations


def test_endpoints_stable_under_grid_refinement(v_one):
    params = ModelParams(gamma=-1.5, mu=0.5)
    coarse = assemble_bands(params, v_one, resolution=4)
    fine = assemble_bands(params, v_one, resolution=8)
    assert len(coarse.intervals) == len(fine.intervals)
    for (a1, b1), (a2, b2) in zip(coarse.intervals, fine.intervals):
        assert a1 == pytest.approx(a2, abs=1e-9)
        assert b1 == pytest.approx(b2, abs=1e-9)


def test_branch_extrema_validates_side(v_one):
    structure = assemble_bands(ModelParams(gamma=6.0, mu=1e-6), v_one, resolution=4)
    with pytest.raises(ValueError):
        branch_extrema(structure, "left")


def test_branch_extrema_none_when_side_is_empty():
    row = np.array([[*ORIGIN, 0.0, 12.0, -1.0, np.nan]])
    structure = BandStructure(
        intervals=((-1.0, 13.5),), k_grid_resolution=1, eigen_branches=row
    )
    assert branch_extrema(structure, "above") is None
    assert branch_extrema(structure, "below") == (-1.0, -1.0, ORIGIN, ORIGIN)


def test_branch_extrema_take_the_first_row_in_k_order_on_a_tie():
    nan = np.nan
    rows = np.array([
        [-1.0, 0.0, 0.0, 1.0, 12.0, -2.0, 14.0],
        [0.0, 0.0, 0.0, 0.0, 12.0, nan, 14.0],
        [1.0, 0.0, 0.0, 1.0, 12.0, -2.0, nan],
        [2.0, 0.0, 0.0, 1.0, 12.0, -3.0, 13.0],
    ])
    structure = BandStructure(intervals=((-3.0, 14.0),), k_grid_resolution=1, eigen_branches=rows)
    assert branch_extrema(structure, "below") == (-3.0, -2.0, (2.0, 0.0, 0.0), (-1.0, 0.0, 0.0))
    assert branch_extrema(structure, "above") == (13.0, 14.0, (2.0, 0.0, 0.0), (-1.0, 0.0, 0.0))


# the fold: fibers related by a sign flip that fixes v^2 are solved once

_ALL_FLIPS = tuple(product((1, -1), repeat=3))
_FOLD_CASES = {
    "every flip": (_DETACH_V, _DETACH, _ALL_FLIPS),
    "benchmark-shaped, odd in p2": (
        "0.8 + 0.2*cos(p1) + 0.3*sin(2*p2) - 0.2*cos(p2)*cos(p3)",
        ModelParams(gamma=8.0, mu=0.3),
        ((1, 1, 1), (1, 1, -1), (-1, 1, 1), (-1, 1, -1)),
    ),
    "p1 and p2 jointly": (
        "sin(p1)*cos(p2) + cos(p1)*sin(p2)",
        ModelParams(gamma=3.0, mu=0.3),
        ((1, 1, 1), (1, 1, -1), (-1, -1, 1), (-1, -1, -1)),
    ),
    "no flip": ("1 + sin(p1) + sin(p2) + sin(p3)", ModelParams(gamma=3.0, mu=0.1), ((1, 1, 1),)),
}


def _unfolded_rows(params, v, structure):
    """Every row of `structure` solved on its own coordinates: the (n, 4) rows m, M, below, above."""
    rows, _ = _solve_fibers(params, v, np.ascontiguousarray(structure.eigen_branches[:, :3]))
    return rows


def _intervals(rows):
    spans = [ESSENTIAL_BAND]
    for z in rows[:, 2:].T:
        z = z[~np.isnan(z)]
        if z.size:
            spans.append((z.min(), z.max()))
    return _merge_intervals(spans)


@pytest.mark.parametrize("resolution", [8, 9])
@pytest.mark.parametrize("case", sorted(_FOLD_CASES))
def test_folded_rows_equal_the_unfolded_solve(case, resolution):
    text, params, flips = _FOLD_CASES[case]
    v = parse_v(text)
    structure = assemble_bands(params, v, resolution=resolution)
    assert structure.symmetry_flips == flips
    table = structure.eigen_branches
    want = _unfolded_rows(params, v, structure)
    assert np.array_equal(table[:, 3:5], want[:, :2])  # m and M bit-equal
    got, want = table[:, 5:], want[:, 2:]
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert 0 < np.count_nonzero(np.isnan(want)) < want.size  # both existence and absence occur
    present = ~np.isnan(want)
    assert np.all(np.abs(got[present] - want[present]) <= 1e-12 * np.maximum(1.0, np.abs(want[present])))
    if len(flips) == 1:
        assert structure.fibers_solved == len(table)
    else:
        assert structure.fibers_solved < len(table)


def test_every_fiber_of_a_grid_orbit_shares_one_solve(v_one):
    # no branch detaches, so the grid pass is the only one: 8^3 / 8 orbits
    # plus the ten distinguished momenta, none of them on this grid
    structure = assemble_bands(ModelParams(gamma=-1.5, mu=0.5), v_one, resolution=8)
    assert len(structure.eigen_branches) == 8 ** 3 + 10
    assert structure.fibers_solved == 8 ** 3 // 8 + 10


_TERMS = st.lists(
    st.tuples(
        st.tuples(*[st.integers(-2, 2)] * 3),
        st.floats(0.1, 1.0) | st.floats(-1.0, -0.1),
    ),
    min_size=1,
    max_size=4,
    unique_by=lambda term: term[0],
)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(terms=_TERMS)
def test_symmetry_flips_are_the_flips_that_fix_v_squared(terms):
    v = VFunction(terms)
    p = np.random.default_rng(7).uniform(-np.pi, np.pi, size=(16, 3))
    here = np.array([v(q) for q in p]) ** 2
    fixing = tuple(
        s for s in _ALL_FLIPS if np.allclose([v(q * s) ** 2 for q in p], here, rtol=0.0, atol=1e-12)
    )
    assert _symmetry_flips(v) == fixing


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    terms=_TERMS,
    gamma=st.floats(-2.0, 15.0),
    mu=st.floats(0.05, 1.0),
    resolution=st.sampled_from([3, 4]),
)
def test_folded_intervals_equal_the_unfolded_ones(terms, gamma, mu, resolution):
    v = VFunction(terms)
    params = ModelParams(gamma=gamma, mu=mu)
    structure = assemble_bands(params, v, resolution=resolution)
    want = _intervals(_unfolded_rows(params, v, structure))
    assert len(structure.intervals) == len(want)
    assert np.allclose(structure.intervals, want, rtol=0.0, atol=1e-12)
