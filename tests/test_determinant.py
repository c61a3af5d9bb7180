import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friedrichs3d.determinant import (
    EDGE_MARGIN,
    InsideEssentialSpectrum,
    ModelParams,
    SpectralWindow,
    _solve_fibers,
    find_discrete_spectrum,
    fredholm_delta,
)
from friedrichs3d.lattice import ORIGIN, PI_POINT, band_endpoints, lambda_point, reduce_coords, w0, w1
from friedrichs3d.quadrature import IntegralResult, ResolventKernel
from friedrichs3d.thresholds import fredholm_delta_threshold, mu_left, mu_right
from friedrichs3d.vfunction import VFunction, parse_v

from oracles import WATSON_HALF, WATSON_I_EPS, integrate_smooth, pi_point_roots

TWO_PI = 2.0 * np.pi


def test_model_params_validation():
    ModelParams(gamma=-2.0, mu=0.3)
    ModelParams(gamma=1.0, mu=1e154)
    # mu whose square overflows is refused with the non-finite ones
    for gamma, mu in ((1.0, 0.0), (1.0, -0.5), (np.nan, 0.5), (1.0, np.inf), (1.0, 2e154)):
        with pytest.raises(ValueError):
            ModelParams(gamma=gamma, mu=mu)


def test_spectral_window_orders_itself():
    with pytest.raises(ValueError):
        SpectralWindow(k=ORIGIN, m=3.0, M=2.0, eigen_below=None, eigen_above=None)
    with pytest.raises(ValueError):
        SpectralWindow(k=ORIGIN, m=0.0, M=12.0, eigen_below=1.0, eigen_above=None)
    with pytest.raises(ValueError):
        SpectralWindow(k=ORIGIN, m=0.0, M=12.0, eigen_below=None, eigen_above=11.0)


def test_determinant_closed_form_at_corner_momentum(v_one):
    # with the fiber dispersion pinned at 12 the integral term is exactly
    # volume / (12 - z)
    params = ModelParams(gamma=6.0, mu=0.7)
    for z in (-3.0, 2.5, 20.0, 30.0):
        expected = 12.0 - z - params.mu ** 2 * TWO_PI ** 3 / (12.0 - z)
        got, _ = fredholm_delta(params, v_one, PI_POINT, z)
        assert got == pytest.approx(expected, rel=1e-10, abs=1e-10)


def test_determinant_refuses_band_interior(v_one):
    params = ModelParams(gamma=1.0, mu=0.4)
    k = (0.7, -0.2, 0.1)
    lo, hi = band_endpoints(k)
    for z in (lo + 1e-9, 0.5 * (lo + hi), hi - 1e-9, lo - 1e-7, hi + 1e-7):
        with pytest.raises(InsideEssentialSpectrum):
            fredholm_delta(params, v_one, k, z)


def test_determinant_diagnostics_expose_quadrature(v_cos_half):
    params = ModelParams(gamma=2.0, mu=0.5)
    value, info = fredholm_delta(params, v_cos_half, ORIGIN, -4.0)
    assert isinstance(info, IntegralResult) and info.refinements_used > 0
    assert value == pytest.approx(
        params.gamma - (-4.0) - params.mu ** 2 * info.value, abs=1e-12
    )


def test_determinant_is_decreasing_below_the_band(v_cos_half):
    params = ModelParams(gamma=-1.0, mu=0.8)
    zs = [-8.0, -5.0, -2.0, -0.5]
    vals = [fredholm_delta(params, v_cos_half, ORIGIN, z)[0] for z in zs]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # slope at most -1: differences beat the z spacing
    for (z1, d1), (z2, d2) in zip(zip(zs, vals), zip(zs[1:], vals[1:])):
        assert d1 - d2 >= (z2 - z1) * (1.0 - 1e-9)


def test_threshold_determinant_values(v_one):
    params = ModelParams(gamma=3.0, mu=0.21)
    got = fredholm_delta_threshold(params, v_one, "origin")
    assert got == pytest.approx(3.0 - params.mu ** 2 * WATSON_HALF, rel=1e-9)
    got = fredholm_delta_threshold(params, v_one, "lambda:6")
    assert got == pytest.approx(3.0 - 9.0 + params.mu ** 2 * WATSON_I_EPS, rel=1e-9)


def test_discrete_spectrum_matches_corner_closed_form(v_one):
    for gamma, mu in ((6.0, 0.5), (-1.5, 0.5), (3.0, 1.1), (10.0, 0.25)):
        params = ModelParams(gamma=gamma, mu=mu)
        window = find_discrete_spectrum(params, v_one, PI_POINT)
        below, above = pi_point_roots(gamma, mu)
        assert window.m == pytest.approx(12.0, abs=1e-12)
        assert window.M == pytest.approx(12.0, abs=1e-12)
        assert window.eigen_below == pytest.approx(below, abs=2e-10)
        assert window.eigen_above == pytest.approx(above, abs=2e-10)


@pytest.mark.parametrize("gamma", [-1.5, 3.0, 14.0, 1e300])
@pytest.mark.parametrize("mu", [0.05, 0.2, 0.5, 30.0])
@pytest.mark.parametrize("vtext", ["1", "0.9 + 0.2*cos(p1) - 0.3*sin(2*p2) + 0.25*cos(p2)*cos(p3)"])
def test_corner_rows_converge_in_five_lockstep_steps(gamma, mu, vtext):
    # J ~ 1/delta at k = (pi, pi, pi): a step in sqrt(delta) only about
    # doubles delta there, up to 14 steps from the rank-one bound
    params = ModelParams(gamma=gamma, mu=mu)
    v = parse_v(vtext)
    (row,), iterations = _solve_fibers(params, v, np.array([PI_POINT]))
    assert iterations <= 5
    window = find_discrete_spectrum(params, v, PI_POINT)
    assert (window.eigen_below, window.eigen_above) == tuple(row[2:].tolist())
    assert window.eigen_below < 12.0 < window.eigen_above


def test_discrete_spectrum_existence_logic(v_cos_half):
    k = (0.8, -0.3, 0.2)
    # weak coupling at moderate gamma: no state detaches on either side
    window = find_discrete_spectrum(ModelParams(gamma=2.0, mu=0.05), v_cos_half, k)
    assert window.eigen_below is None and window.eigen_above is None
    # negative gamma pulls a state below the band
    window = find_discrete_spectrum(ModelParams(gamma=-1.0, mu=0.05), v_cos_half, k)
    assert window.eigen_below is not None and window.eigen_below < window.m
    assert window.eigen_above is None
    # large gamma pushes a state above the band
    window = find_discrete_spectrum(ModelParams(gamma=12.5, mu=0.05), v_cos_half, k)
    assert window.eigen_below is None
    assert window.eigen_above is not None and window.eigen_above > window.M


def test_a_leading_weight_that_vanishes_on_the_minimizer_line_keeps_the_edge_limits_finite():
    # v = sin(p2 + k2/2) vanishes on the whole line of edge minimizers of the
    # fiber k = (pi, k2, 0.7), where its weight leaves only rounding; an edge
    # limit taken as divergent there reports a root that does not exist
    for k2 in np.linspace(-3.0, 3.0, 13):
        v = parse_v("%r*sin(p2) + %r*cos(p2)" % (float(np.cos(k2 / 2.0)), float(np.sin(k2 / 2.0))))
        k = (np.pi, k2, 0.7)
        edge_limits = ResolventKernel(v, k).integrals(np.arange(2), np.zeros(2))
        assert np.isfinite(edge_limits).all()
        for params in (ModelParams(gamma=5.0, mu=0.1), ModelParams(gamma=2.0, mu=0.2)):
            window = find_discrete_spectrum(params, v, k)
            below = fredholm_delta(params, v, k, window.m - 2.0 * EDGE_MARGIN)[0] < 0.0
            above = fredholm_delta(params, v, k, window.M + 2.0 * EDGE_MARGIN)[0] > 0.0
            assert (window.eigen_below is not None, window.eigen_above is not None) == (below, above), k2


def test_discrete_spectrum_roots_zero_the_grid_determinant(v_cos_half, rng):
    # dual route: roots come from the transform kernel, the audit from the
    # closed-form t3 integral on a (t1, t2) grid
    for _ in range(3):
        k = rng.uniform(-np.pi, np.pi, 3)
        params = ModelParams(gamma=float(rng.uniform(-3.0, -0.5)), mu=float(rng.uniform(0.4, 0.9)))
        window = find_discrete_spectrum(params, v_cos_half, k)
        assert window.eigen_below is not None
        resid, _ = fredholm_delta(params, v_cos_half, k, window.eigen_below)
        # |d Delta / dz| >= 1 outside the band, so the residual bounds the root error
        assert abs(resid) < 5e-9


def test_near_edge_roots_are_solved_down_to_the_edge(v_one):
    # roots far inside EDGE_MARGIN: at the origin -delta = -mu^2 J(delta), with
    # J(delta) within 1e-8 of the edge limit J(0); at the corner the quadratic
    window = find_discrete_spectrum(ModelParams(gamma=0.0, mu=1e-9), v_one, ORIGIN)
    edge_limit = ResolventKernel(v_one, ORIGIN).integrals(np.arange(1), np.zeros(1))[0]
    assert window.eigen_below == pytest.approx(-1e-18 * edge_limit, rel=1e-5)
    window = find_discrete_spectrum(ModelParams(gamma=6.0, mu=1e-9), v_one, PI_POINT)
    below, above = pi_point_roots(6.0, 1e-9)
    assert window.eigen_below == pytest.approx(below, abs=1e-12)
    assert window.eigen_above == pytest.approx(above, abs=1e-12)


def _detached(vtext, point, gamma, eps):
    """The distance from its threshold of the root that mu = mu_c (1 + eps) detaches."""
    v = parse_v(vtext)
    if point == "origin":
        mu_c = mu_left(gamma, v)
        return mu_c, -find_discrete_spectrum(ModelParams(gamma, mu_c * (1.0 + eps)), v, ORIGIN).eigen_below
    mu_c = mu_right(gamma, 1, v)
    return mu_c, find_discrete_spectrum(ModelParams(gamma, mu_c * (1.0 + eps)), v, lambda_point(1)).eigen_above - 13.5


def test_a_root_detaches_from_a_virtual_level_by_the_leading_order_law():
    # v(0) = 1: J(delta) = J(0) - 2 pi^2 sqrt(delta) + O(delta) gives
    # sqrt(delta) = eps gamma / (pi^2 mu_c^2) to leading order
    for eps in (1e-4, 3e-5, 1e-5, 1e-6):
        mu_c, delta = _detached("1", "origin", 2.0, eps)
        law = (eps * 2.0 / (math.pi ** 2 * mu_c ** 2)) ** 2
        assert abs(delta / law - 1.0) <= 30.0 * eps, eps


@pytest.mark.parametrize(
    "vtext, point, gamma, exponent",
    [("1", "lambda:1", 4.0, 2.0), ("1 - cos(p1)", "origin", 2.0, 1.0), ("cos(p1) + 0.5", "lambda:1", 4.0, 1.0)],
)
def test_a_detached_root_moves_as_the_power_of_eps_the_threshold_dictates(vtext, point, gamma, exponent):
    # delta ~ eps^2 from a virtual level (v nonzero at the threshold point),
    # delta ~ eps from a threshold eigenvalue (v zero there)
    deltas = [_detached(vtext, point, gamma, eps)[1] for eps in (1e-4, 1e-5, 1e-6)]
    for near, far in zip(deltas, deltas[1:]):
        assert math.log10(near / far) == pytest.approx(exponent, abs=1e-2)


def test_zero_coupling_function_leaves_pure_shift(v_one):
    # v = 0 collapses the determinant to w0 - z
    zero = parse_v("0")
    params = ModelParams(gamma=-2.0, mu=0.5)
    window = find_discrete_spectrum(params, zero, (0.4, 0.4, -0.9))
    assert window.eigen_below == pytest.approx(
        params.gamma + 3.0 - np.cos(0.4) * 2.0 - np.cos(-0.9), abs=1e-9
    )
    # the audit of v = 0 is an exact zero on no grid
    level = w0(reduce_coords((0.4, 0.4, -0.9)), params.gamma)
    assert fredholm_delta(params, zero, (0.4, 0.4, -0.9), -3.0) == (level + 3.0, IntegralResult(0.0, 0.0, 0))


def test_huge_gamma_roots_at_corner_match_closed_form(v_one):
    # the analytic bracket reaches roots 1e8 from the band; the one below
    # sits 2.5e-6 under the edge
    window = find_discrete_spectrum(ModelParams(gamma=1e8, mu=1.0), v_one, PI_POINT)
    below, above = pi_point_roots(1e8, 1.0)
    assert window.eigen_below == pytest.approx(below, rel=1e-12)
    assert window.eigen_above == pytest.approx(above, rel=1e-12)


_MODES = [(a, b, c) for a in range(-2, 3) for b in range(-2, 3) for c in range(-2, 3)]
_TERMS = st.lists(
    st.tuples(st.sampled_from(_MODES), st.floats(-1.0, 1.0).filter(lambda c: abs(c) > 0.05)),
    min_size=1,
    max_size=4,
)
# root +- 1e-5 must stay outside the EDGE_MARGIN guard band
_AUDIT_GAP = 2e-5


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    terms=_TERMS,
    k=st.tuples(*[st.one_of(st.just(np.pi), st.floats(-np.pi, np.pi))] * 3),
    above=st.booleans(),
    delta=st.sampled_from([1e-2, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1e3]),
)
def test_audit_integral_matches_the_3d_grid_oracle(terms, k, above, delta):
    # the closed-form t3 route of fredholm_delta against a plain 3D midpoint grid
    v = VFunction(terms)
    k = reduce_coords(k)
    lo, hi = band_endpoints(k)
    z = hi + delta if above else lo - delta
    _, result = fredholm_delta(ModelParams(gamma=0.0, mu=1.0), v, k, z)

    def integrand(px, py, pz):
        vv = v.evaluate(px, py, pz)
        return vv * vv / (w1(k, px, py, pz) - z)

    assert result.value == pytest.approx(integrate_smooth(integrand).value, rel=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    terms=_TERMS,
    ks=st.lists(st.tuples(*[st.floats(-np.pi, np.pi)] * 3), min_size=1, max_size=3),
    gamma=st.floats(-4.0, 16.0),
    mu=st.floats(0.05, 1.5),
)
def test_batched_roots_are_the_single_roots_and_unique(terms, ks, gamma, mu):
    v = VFunction(terms)
    params = ModelParams(gamma=gamma, mu=mu)
    rows, _ = _solve_fibers(params, v, reduce_coords(ks))
    k = ks[0]
    m, M, below, above = (None if np.isnan(x) else x for x in rows[0].tolist())
    single = find_discrete_spectrum(params, v, k)
    for got, want in ((below, single.eigen_below), (above, single.eigen_above)):
        assert (got is None) == (want is None)
        if got is not None:
            assert got == want
    # Delta decreases outside the band, so with at most one root per side its
    # sign at sampled z is + left of the root (or everywhere below without
    # one) and - right of it (or everywhere above without one)
    for root, edge, outward in ((below, m, -1.0), (above, M, 1.0)):
        for dist in (0.2, 2.0, 20.0):
            z = edge + outward * dist
            if root is not None and abs(z - root) < 1e-6:
                continue
            left = z < root if root is not None else outward < 0.0
            assert (fredholm_delta(params, v, k, z)[0] > 0.0) == left
        if root is not None and abs(root - edge) > _AUDIT_GAP:
            assert fredholm_delta(params, v, k, root - 1e-5)[0] > 0.0
            assert fredholm_delta(params, v, k, root + 1e-5)[0] < 0.0
