import numpy as np
import pytest

from friedrichs3d.lattice import (
    ORIGIN,
    PI_POINT,
    TorusPoint,
    band_endpoints,
    epsilon,
    lambda_point,
    lambda_points,
    threshold_point,
    w0,
    w1,
    w1_on_grid,
)

from oracles import band_edge_argmax, band_edge_argmin, brute_band_endpoints

TWO_THIRDS_PI = 2.0 * np.pi / 3.0


def test_reduction_wraps_into_half_open_cell():
    p = TorusPoint(2.0 * np.pi + 0.3, -2.0 * np.pi - 0.4, 6.0 * np.pi)
    # wrapped coordinates agree up to rounding; equality itself is exact
    assert np.allclose(p.to_array(), [0.3, -0.4, 0.0], rtol=0.0, atol=1e-12)
    # -pi is identified with +pi and the canonical representative is +pi
    q = TorusPoint(-np.pi, np.pi, 3.0 * np.pi)
    assert np.allclose(q.to_array(), [np.pi, np.pi, np.pi])


def test_points_are_immutable_and_hashable():
    p = TorusPoint(1.0, 2.0, 3.0)
    with pytest.raises(AttributeError):
        p.coords = (0.0, 0.0, 0.0)
    assert len({p, TorusPoint(1.0, 2.0, 3.0)}) == 1


def test_dispersion_values_at_distinguished_points():
    assert epsilon(ORIGIN) == 0.0
    assert epsilon(PI_POINT) == 6.0
    for i in range(1, 9):
        assert epsilon(lambda_point(i)) == pytest.approx(4.5, abs=1e-14)
    assert w0(ORIGIN, gamma=2.5) == pytest.approx(2.5, abs=0.0)
    assert w0(PI_POINT, gamma=2.5) == pytest.approx(8.5, abs=1e-14)


def test_two_particle_dispersion_matches_explicit_sum(rng):
    for _ in range(20):
        k = TorusPoint(rng.uniform(-np.pi, np.pi, 3))
        p = TorusPoint(rng.uniform(-np.pi, np.pi, 3))
        expected = epsilon(k) + epsilon(k.to_array() + p.to_array()) + epsilon(p)
        assert w1(k, p) == pytest.approx(expected, abs=1e-12)


def test_grid_dispersion_broadcasts_like_scalar_calls(rng):
    k = TorusPoint(rng.uniform(-np.pi, np.pi, 3))
    g = np.linspace(-3.0, 3.0, 5)
    grid = w1_on_grid(k, g[:, None, None], g[None, :, None], g[None, None, :])
    grid = np.broadcast_to(grid, (5, 5, 5))
    for i in (0, 2, 4):
        for j in (1, 3):
            val = w1(k, TorusPoint(g[i], g[j], g[4 - i]))
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
        lo, hi = band_endpoints(TorusPoint(k))
        # brute midpoint grid sits O(h^2) above the true min / below the max
        assert lo <= lo_b + 1e-12 and abs(lo - lo_b) < 5e-3
        assert hi >= hi_b - 1e-12 and abs(hi - hi_b) < 5e-3


def test_edge_minimizers_attain_the_endpoints(rng):
    for _ in range(25):
        k = TorusPoint(rng.uniform(-np.pi, np.pi, 3))
        lo, hi = band_endpoints(k)
        assert w1(k, band_edge_argmin(k.coords)) == pytest.approx(lo, abs=1e-12)
        assert w1(k, band_edge_argmax(k.coords)) == pytest.approx(hi, abs=1e-12)


def test_band_endpoints_accepts_arrays(rng):
    ks = rng.uniform(-np.pi, np.pi, (7, 3))
    lo_arr, hi_arr = band_endpoints(ks)
    for row, lo, hi in zip(ks, lo_arr, hi_arr):
        lo_s, hi_s = band_endpoints(TorusPoint(row))
        assert lo == pytest.approx(lo_s, abs=1e-14)
        assert hi == pytest.approx(hi_s, abs=1e-14)


def test_lambda_set_is_the_eight_sign_patterns():
    pts = lambda_points()
    assert isinstance(pts, tuple) and len(pts) == 8
    seen = set()
    for p in pts:
        signs = tuple(np.sign(p.to_array()).astype(int))
        assert np.allclose(np.abs(p.to_array()), TWO_THIRDS_PI, atol=1e-14)
        seen.add(signs)
    assert len(seen) == 8
    # 1-based indexing, lexicographic in the coordinates
    assert lambda_point(1) == TorusPoint(-TWO_THIRDS_PI, -TWO_THIRDS_PI, -TWO_THIRDS_PI)
    assert lambda_point(8) == TorusPoint(TWO_THIRDS_PI, TWO_THIRDS_PI, TWO_THIRDS_PI)
    with pytest.raises(ValueError):
        lambda_point(0)
    with pytest.raises(ValueError):
        lambda_point(9)


def test_threshold_point_parsing():
    label, index, pt = threshold_point("origin")
    assert label == "origin" and index is None and pt == ORIGIN
    label, index, pt = threshold_point("lambda:3")
    assert label == "lambda" and index == 3 and pt == lambda_point(3)
    for bad in ("lambda:0", "lambda:9", "lambda:x", "corner", ""):
        with pytest.raises(ValueError):
            threshold_point(bad)
