import numpy as np
import pytest

from friedrichs3d.determinant import ModelParams, find_discrete_spectrum, fredholm_delta
from friedrichs3d.lattice import (
    ORIGIN,
    PI_POINT,
    band_endpoints,
    epsilon,
    lambda_point,
    lambda_points,
    reduce_coords,
    threshold_point,
    w0,
    w1,
    w1_on_grid,
)
from friedrichs3d.oracle import discretize
from friedrichs3d.quadrature import ResolventKernel, resolvent_integral_2d

from oracles import band_edge_argmax, band_edge_argmin, brute_band_endpoints

TWO_THIRDS_PI = 2.0 * np.pi / 3.0


def test_reduction_wraps_into_half_open_cell():
    p = reduce_coords([2.0 * np.pi + 0.3, -2.0 * np.pi - 0.4, 6.0 * np.pi])
    # wrapped coordinates agree up to rounding; equality itself is exact
    assert np.allclose(p, [0.3, -0.4, 0.0], rtol=0.0, atol=1e-12)
    # -pi is identified with +pi and the canonical representative is +pi
    q = reduce_coords([-np.pi, np.pi, 3.0 * np.pi])
    assert np.allclose(q, [np.pi, np.pi, np.pi])


def test_distinguished_points_are_reduced_float_tuples():
    for p in (ORIGIN, PI_POINT) + lambda_points():
        assert isinstance(p, tuple) and all(type(c) is float for c in p)
        assert tuple(reduce_coords(p).tolist()) == p
    # -2pi/3 reduced through (pi, 2pi], not -TWO_THIRDS_PI itself
    assert lambda_point(1) == (-2.094395102393195,) * 3
    assert PI_POINT == (np.pi,) * 3


_BAD_MOMENTA = {
    "nan": [np.nan, 0.0, 0.0],
    "inf": [0.0, np.inf, 0.0],
    "2-vector": [0.5, 0.1],
    "batch": [[0.5, 0.1, -0.8], [0.2, 0.3, 0.4]],
}
_PARAMS = ModelParams(gamma=-2.0, mu=0.6)
_MOMENTUM_TAKERS = {
    "reduce_coords": lambda v, k: reduce_coords(k),
    "band_endpoints": lambda v, k: band_endpoints(k),
    "find_discrete_spectrum": lambda v, k: find_discrete_spectrum(_PARAMS, v, k),
    "fredholm_delta": lambda v, k: fredholm_delta(_PARAMS, v, k, -5.0),
    "resolvent_integral_2d": lambda v, k: resolvent_integral_2d(v, k, -5.0),
    "discretize": lambda v, k: discretize(_PARAMS, v, k, 4),
    "ResolventKernel": lambda v, k: ResolventKernel(v, k),
}


# reduce_coords, band_endpoints and ResolventKernel take an (n, 3) batch by design
_REFUSALS = [
    (taker, bad)
    for taker in _MOMENTUM_TAKERS
    for bad in _BAD_MOMENTA
    if not (bad == "batch" and taker in ("reduce_coords", "band_endpoints", "ResolventKernel"))
]


@pytest.mark.parametrize("taker, bad", _REFUSALS)
def test_malformed_momentum_is_refused(v_one, taker, bad):
    with pytest.raises(ValueError):
        _MOMENTUM_TAKERS[taker](v_one, _BAD_MOMENTA[bad])


def test_dispersion_values_at_distinguished_points():
    assert epsilon(ORIGIN) == 0.0
    assert epsilon(PI_POINT) == 6.0
    for i in range(1, 9):
        assert epsilon(lambda_point(i)) == pytest.approx(4.5, abs=1e-14)
    assert w0(ORIGIN, gamma=2.5) == pytest.approx(2.5, abs=0.0)
    assert w0(PI_POINT, gamma=2.5) == pytest.approx(8.5, abs=1e-14)


def test_two_particle_dispersion_matches_explicit_sum(rng):
    for _ in range(20):
        k = reduce_coords(rng.uniform(-np.pi, np.pi, 3))
        p = reduce_coords(rng.uniform(-np.pi, np.pi, 3))
        expected = epsilon(k) + epsilon(k + p) + epsilon(p)
        assert w1(k, p) == pytest.approx(expected, abs=1e-12)


def test_grid_dispersion_broadcasts_like_scalar_calls(rng):
    k = reduce_coords(rng.uniform(-np.pi, np.pi, 3))
    g = np.linspace(-3.0, 3.0, 5)
    grid = w1_on_grid(k, g[:, None, None], g[None, :, None], g[None, None, :])
    grid = np.broadcast_to(grid, (5, 5, 5))
    for i in (0, 2, 4):
        for j in (1, 3):
            val = w1(k, reduce_coords([g[i], g[j], g[4 - i]]))
            assert grid[i, j, 4 - i] == pytest.approx(val, abs=1e-12)


def test_band_endpoints_at_distinguished_points():
    assert band_endpoints(ORIGIN) == pytest.approx((0.0, 12.0), abs=1e-14)
    assert band_endpoints(PI_POINT) == pytest.approx((12.0, 12.0), abs=1e-14)
    for i in range(1, 9):
        lo, hi = band_endpoints(lambda_point(i))
        assert lo == pytest.approx(7.5, abs=1e-13)
        assert hi == pytest.approx(13.5, abs=1e-13)


def test_band_endpoints_against_brute_grid_scan(rng):
    for _ in range(5):
        k = rng.uniform(-np.pi, np.pi, 3)
        lo_b, hi_b = brute_band_endpoints(k, n=121)
        lo, hi = band_endpoints(k)
        # brute midpoint grid sits O(h^2) above the true min / below the max
        assert lo <= lo_b + 1e-12 and abs(lo - lo_b) < 5e-3
        assert hi >= hi_b - 1e-12 and abs(hi - hi_b) < 5e-3


def test_edge_minimizers_attain_the_endpoints(rng):
    for _ in range(25):
        k = reduce_coords(rng.uniform(-np.pi, np.pi, 3))
        lo, hi = band_endpoints(k)
        assert w1(k, band_edge_argmin(k)) == pytest.approx(lo, abs=1e-12)
        assert w1(k, band_edge_argmax(k)) == pytest.approx(hi, abs=1e-12)


def test_band_endpoints_accepts_arrays(rng):
    ks = rng.uniform(-np.pi, np.pi, (7, 3))
    lo_arr, hi_arr = band_endpoints(ks)
    for row, lo, hi in zip(ks, lo_arr, hi_arr):
        lo_s, hi_s = band_endpoints(tuple(row))
        assert lo == pytest.approx(lo_s, abs=1e-14)
        assert hi == pytest.approx(hi_s, abs=1e-14)


def test_lambda_set_is_the_eight_sign_patterns():
    pts = lambda_points()
    assert isinstance(pts, tuple) and len(pts) == 8
    seen = set()
    for p in pts:
        signs = tuple(np.sign(p).astype(int))
        assert np.allclose(np.abs(p), TWO_THIRDS_PI, atol=1e-14)
        seen.add(signs)
    assert len(seen) == 8
    # 1-based indexing, lexicographic in the coordinates
    assert lambda_point(1) == tuple(reduce_coords([-TWO_THIRDS_PI] * 3).tolist())
    assert lambda_point(8) == tuple(reduce_coords([TWO_THIRDS_PI] * 3).tolist())
    with pytest.raises(ValueError):
        lambda_point(0)
    with pytest.raises(ValueError):
        lambda_point(9)


def test_threshold_point_parsing():
    index, pt = threshold_point("origin")
    assert index == 0 and pt == ORIGIN
    index, pt = threshold_point("lambda:3")
    assert index == 3 and pt == lambda_point(3)
    for bad in ("lambda:0", "lambda:9", "lambda:x", "corner", ""):
        with pytest.raises(ValueError):
            threshold_point(bad)
