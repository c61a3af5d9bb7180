import numpy as np
import pytest

from friedrichs3d.lattice import ORIGIN, PI_POINT, TorusPoint, lambda_point
from friedrichs3d.quadrature import (
    NonConvergence,
    QuadratureConfig,
    ResolventKernel,
    _KernelBatch,
    resolvent_integral_2d,
)
from friedrichs3d.thresholds import threshold_integral
from friedrichs3d.vfunction import VFunction, parse_v

from oracles import (
    WATSON_HALF,
    WATSON_I_EPS,
    DenominatorVanishesOutsideBall,
    integrate_smooth,
    integrate_threshold,
    left_riemann_integral,
    polar_cell_integral,
)

TWO_PI = 2.0 * np.pi
CELL_VOLUME = TWO_PI ** 3


def test_config_validation():
    QuadratureConfig(base_grid=4, target_rel_tol=1e-2, max_refinements=0)
    for kwargs in (
        dict(base_grid=3),
        dict(base_grid=16.0),
        dict(target_rel_tol=0.5),
        dict(target_rel_tol=1e-15),
        dict(max_refinements=11),
    ):
        with pytest.raises(ValueError):
            QuadratureConfig(**kwargs)


def test_smooth_quadrature_exact_on_trigonometric_polynomials():
    res = integrate_smooth(lambda px, py, pz: np.ones(np.broadcast_shapes(px.shape, py.shape, pz.shape)))
    assert res.value == pytest.approx(CELL_VOLUME, rel=1e-14)
    assert res.converged
    # int cos^2 over one axis picks up volume/2
    res = integrate_smooth(lambda px, py, pz: np.cos(px) ** 2 + 0.0 * (py + pz))
    assert res.value == pytest.approx(CELL_VOLUME / 2.0, rel=1e-13)
    # odd harmonics integrate to zero
    res = integrate_smooth(lambda px, py, pz: np.sin(px) * np.cos(py) + 0.0 * pz)
    assert abs(res.value) < 1e-10


def test_smooth_quadrature_matches_left_riemann_oracle():
    def f(px, py, pz):
        return np.exp(0.5 * np.cos(px)) * (1.0 + 0.25 * np.sin(py)) + 0.1 * np.cos(pz) ** 2

    ours = integrate_smooth(f)
    ref = left_riemann_integral(f, n=128)
    assert ours.converged
    assert ours.value == pytest.approx(ref, rel=1e-10)


def test_smooth_quadrature_reports_refinement_metadata():
    def f(px, py, pz):
        return np.exp(np.cos(px) * np.cos(py)) + 0.0 * pz

    res = integrate_smooth(f, QuadratureConfig(base_grid=8, target_rel_tol=1e-8))
    assert res.converged
    assert res.refinements_used >= 1
    assert res.est_error <= 1e-8 * abs(res.value) + 1e-12


def test_smooth_quadrature_raises_on_unattainable_tolerance():
    def f(px, py, pz):
        return np.exp(np.cos(px) * np.cos(py) * np.cos(pz))

    cfg = QuadratureConfig(base_grid=4, target_rel_tol=1e-13, max_refinements=1)
    with pytest.raises(RuntimeError, match="no convergence after 1 refinements"):
        integrate_smooth(f, cfg)


def test_smooth_quadrature_is_deterministic():
    def f(px, py, pz):
        return np.exp(0.3 * np.cos(px)) + np.sin(py) ** 2 + 0.0 * pz

    a = integrate_smooth(f)
    b = integrate_smooth(f)
    assert a.value == b.value and a.est_error == b.est_error


# ---------------------------------------------------------------------------
# the 2D audit route: t3 in closed form
# ---------------------------------------------------------------------------


def test_audit_route_closed_form_at_corner_momentum(v_one):
    # every c_j vanishes there (b = 0, rho = 0), and w1 = 12 identically
    for dz in (0.5, 2.0, 7.7):
        below = resolvent_integral_2d(v_one, PI_POINT, 12.0 - dz)
        above = resolvent_integral_2d(v_one, PI_POINT, 12.0 + dz)
        assert below.value == pytest.approx(CELL_VOLUME / dz, rel=1e-14)
        assert above.value == pytest.approx(-CELL_VOLUME / dz, rel=1e-14)


def test_audit_route_matches_the_kernel_next_to_the_band():
    # 1e-3 from either edge, where a 3D grid would need more than 1024^3 points
    v = parse_v("0.8681 - 0.3394*cos(p1) + 0.2634*sin(2*p2) + 0.3069*cos(p2)*cos(p3)")
    k = TorusPoint(0.7789, -2.4694, -0.1161)
    kernel = ResolventKernel(v, k)
    below = resolvent_integral_2d(v, k, kernel.m - 1e-3)
    above = resolvent_integral_2d(v, k, kernel.M + 1e-3)
    assert below.converged and above.converged
    assert below.value == pytest.approx(kernel.integral_below(kernel.m - 1e-3), rel=1e-12)
    assert above.value == pytest.approx(-kernel.integral_above(kernel.M + 1e-3), rel=1e-12)


def test_audit_route_refuses_the_band_and_reports_its_grid(v_cos_half):
    k = TorusPoint(0.9, 0.4, -1.2)
    kernel = ResolventKernel(v_cos_half, k)
    for z in (kernel.m, 0.5 * (kernel.m + kernel.M), kernel.M):
        with pytest.raises(ValueError):
            resolvent_integral_2d(v_cos_half, k, z)
    cfg = QuadratureConfig(base_grid=4, target_rel_tol=1e-13, max_refinements=2)
    with pytest.raises(NonConvergence, match=r"grid 16\^2"):
        resolvent_integral_2d(v_cos_half, k, kernel.m - 1e-2, cfg)


# ---------------------------------------------------------------------------
# threshold integrals: the kernel's edge limits against independent routes
# ---------------------------------------------------------------------------


def test_lower_threshold_integral_matches_watson_constant(v_one):
    # the singular-ball oracle against the closed form it is compared with below
    value, _ = integrate_threshold(v_one, ORIGIN, ORIGIN, "min")
    assert value == pytest.approx(WATSON_I_EPS, rel=1e-9)


def test_threshold_integrals_match_watson_at_every_threshold(v_one):
    # for v = 1 every threshold integral is the dispersion integral, whose
    # value oracles.py derives from the Glasser-Zucker Gamma product
    for which in ["origin"] + ["lambda:%d" % i for i in range(1, 9)]:
        assert threshold_integral(v_one, which) == pytest.approx(WATSON_I_EPS, rel=1e-13)


def test_threshold_integral_invariant_under_ball_radius(v_cos_half):
    # the oracle's own consistency: the ball radius is only a splitting choice
    lam = lambda_point(5)
    base, _ = integrate_threshold(v_cos_half, lam, lam, "max")
    for radius in (0.8, 1.4):
        other, _ = integrate_threshold(v_cos_half, lam, lam, "max", radius=radius)
        assert other == pytest.approx(base, rel=1e-8)


def test_threshold_integral_matches_polar_oracle(v_cos_half, v_one_minus_cos):
    res = threshold_integral(v_cos_half, "origin")
    ref, est = polar_cell_integral(
        lambda q: (np.cos(q[..., 0]) + 0.5) ** 2
        / np.maximum(np.sum(1.0 - np.cos(q), axis=-1), 1e-300),
        np.zeros(3),
    )
    assert res == pytest.approx(ref, rel=max(2e-3, 10.0 * est / abs(ref)))

    lam = lambda_point(1)
    res = threshold_integral(v_one_minus_cos, "lambda:1")
    c = lam.to_array()

    def integrand(q):
        den = 9.0 - np.sum(1.0 - np.cos(c + q), axis=-1) - np.sum(1.0 - np.cos(q), axis=-1)
        num = (1.0 - np.cos(q[..., 0])) ** 2
        return num / np.maximum(den, 1e-300)

    ref, est = polar_cell_integral(integrand, c)
    assert res == pytest.approx(ref, rel=max(2e-3, 10.0 * est / abs(ref)))


def test_threshold_integral_rejects_bad_pairings(v_one):
    lam = lambda_point(2)
    with pytest.raises(DenominatorVanishesOutsideBall):
        integrate_threshold(v_one, lam, lam, "min")
    with pytest.raises(DenominatorVanishesOutsideBall):
        integrate_threshold(v_one, ORIGIN, ORIGIN, "max")
    with pytest.raises(DenominatorVanishesOutsideBall):
        integrate_threshold(v_one, ORIGIN, lam, "min")
    with pytest.raises(DenominatorVanishesOutsideBall):
        integrate_threshold(v_one, lam, TorusPoint(0.1, 0.2, 0.3), "max")
    with pytest.raises(ValueError):
        integrate_threshold(v_one, ORIGIN, ORIGIN, "sideways")


def test_threshold_integral_zero_coupling_is_zero():
    assert integrate_threshold(VFunction.zero(), ORIGIN, ORIGIN, "min")[0] == 0.0
    assert threshold_integral(VFunction.zero(), "origin") == 0.0
    assert threshold_integral(VFunction.zero(), "lambda:4") == 0.0


# ---------------------------------------------------------------------------
# resolvent kernel
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("vtext", ["1", "cos(p1) + 0.5", "1 + 0.3 * sin(p2) * cos(2*p3)"])
@pytest.mark.parametrize("kcoords", [(0.0, 0.0, 0.0), (1.1, -2.3, 0.7), (np.pi, 1.0, -0.4)])
def test_kernel_matches_riemann_sum_away_from_band(vtext, kcoords):
    v = parse_v(vtext)
    k = TorusPoint(kcoords)
    kernel = ResolventKernel(v, k)

    for z, side in ((kernel.m - 1.7, "below"), (kernel.M + 2.4, "above")):
        def f(px, py, pz, _z=z):
            from friedrichs3d.lattice import w1_on_grid

            vv = np.asarray(v.evaluate(px, py, pz), dtype=float)
            return vv * vv / (w1_on_grid(k, px, py, pz) - _z)

        ref = left_riemann_integral(f, n=96)
        got = kernel.integral_below(z) if side == "below" else -kernel.integral_above(z)
        assert got == pytest.approx(ref, rel=2e-11)


def test_batched_kernel_build_is_bit_identical_to_a_batch_of_one(rng):
    v = parse_v("0.9 + 0.2 * cos(p1) - 0.3 * sin(2*p2) + 0.25 * cos(p2) * cos(p3)")
    points = [ORIGIN, PI_POINT, lambda_point(3), TorusPoint(np.pi, 0.3, -1.1)]
    points += [TorusPoint(rng.uniform(-np.pi, np.pi, 3)) for _ in range(8)]
    batch = _KernelBatch(v, points)
    kernels = batch.kernels((0, 1))
    rows = np.arange(2 * len(points))
    delta = np.linspace(0.0, 40.0, rows.size)
    values = kernels.integrals(rows, delta)
    for i, p in enumerate(points):
        one = ResolventKernel(v, p)
        for name in ("m", "M", "eps", "d_free"):
            assert getattr(batch, name)[i] == getattr(one._batch, name)[0]
        for side in (0, 1):
            r = side * len(points) + i
            for name in ("A", "B", "d_free"):
                assert getattr(kernels, name)[r] == getattr(one._kernels, name)[side]
            assert np.array_equal(kernels.dot[r], one._kernels.dot[side])
            alone = one._kernels.integrals(np.array([side]), delta[r : r + 1])
            assert alone[0] == values[r]


@pytest.mark.parametrize(
    "kcoords", [(0.4, -1.2, 2.0), (np.pi, -1.2, 2.0), (np.pi, np.pi, 2.0), (np.pi, np.pi, np.pi)]
)
def test_kernel_slope_is_the_derivative_of_the_integral(v_cos_half, kcoords):
    # the solver's Newton slope, for d = 3, 2, 1, 0 free axes
    kernels = ResolventKernel(v_cos_half, TorusPoint(kcoords))._kernels
    for side in (0, 1):
        for delta in (1e-3, 0.5, 5.0):
            h = 1e-4 * delta
            probe = np.array([delta, delta - h, delta + h])
            values, slopes = kernels.integrals(np.full(3, side), probe, slope=True)
            assert slopes[0] == pytest.approx((values[1] - values[2]) / (2.0 * h), rel=1e-6)


def test_kernel_closed_form_at_corner_momentum(v_one):
    # the fiber dispersion is constant 12 there, so J(z) = volume/(12 - z)
    kernel = ResolventKernel(v_one, PI_POINT)
    assert kernel.m == pytest.approx(12.0, abs=1e-12)
    assert kernel.M == pytest.approx(12.0, abs=1e-12)
    for dz in (0.5, 2.0, 7.7):
        assert kernel.integral_below(12.0 - dz) == pytest.approx(CELL_VOLUME / dz, rel=1e-12)
        assert kernel.integral_above(12.0 + dz) == pytest.approx(CELL_VOLUME / dz, rel=1e-12)


def test_kernel_edge_limits_match_watson(v_one):
    kernel = ResolventKernel(v_one, ORIGIN)
    # lower edge: int 1/(2 eps); upper edge maps to the same value by p -> pi - p
    assert kernel.integral_below(0.0) == pytest.approx(WATSON_HALF, rel=1e-9)
    assert kernel.integral_above(12.0) == pytest.approx(WATSON_HALF, rel=1e-9)


def test_kernel_edge_limit_diverges_at_corner(v_one):
    kernel = ResolventKernel(v_one, PI_POINT)
    assert kernel.integral_below(12.0) == np.inf
    assert kernel.integral_above(12.0) == np.inf


def test_kernel_edge_limit_and_threshold_quadrature_agree(v_cos_half, v_product):
    # dual route: Laplace-transform evaluation against the real-space ball split
    lam = lambda_point(4)
    for v in (v_cos_half, v_product):
        kernel = ResolventKernel(v, lam)
        quad, _ = integrate_threshold(v, lam, lam, "max")
        assert kernel.integral_above(13.5) == pytest.approx(quad, rel=1e-8)
        assert threshold_integral(v, "lambda:4") == pytest.approx(quad, rel=1e-8)
    kernel = ResolventKernel(v_product, ORIGIN)
    quad, _ = integrate_threshold(v_product, ORIGIN, ORIGIN, "min")
    # the lower edge integral carries the quadratic normal-form factor 1/2
    assert kernel.integral_below(0.0) == pytest.approx(0.5 * quad, rel=1e-8)
    assert threshold_integral(v_product, "origin") == pytest.approx(quad, rel=1e-8)


def test_kernel_rejects_band_interior(v_one):
    kernel = ResolventKernel(v_one, TorusPoint(0.9, 0.4, -1.2))
    with pytest.raises(ValueError):
        kernel.integral_below(kernel.m + 0.5)
    with pytest.raises(ValueError):
        kernel.integral_above(kernel.M - 0.5)


def test_kernel_monotone_in_z(v_cos_half):
    kernel = ResolventKernel(v_cos_half, TorusPoint(0.3, 0.3, 0.3))
    below = [kernel.integral_below(kernel.m - d) for d in (3.0, 1.0, 0.3, 0.0)]
    assert all(b > 0 for b in below)
    assert below == sorted(below)
    above = [kernel.integral_above(kernel.M + d) for d in (3.0, 1.0, 0.3, 0.0)]
    assert all(a > 0 for a in above)
    assert above == sorted(above)
