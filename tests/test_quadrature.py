import warnings

import numpy as np
import pytest

from friedrichs3d import bands, determinant, quadrature, thresholds
from friedrichs3d.bands import assemble_bands
from friedrichs3d.determinant import ModelParams, find_discrete_spectrum
from friedrichs3d.lattice import ORIGIN, PI_POINT, lambda_point, reduce_coords
from friedrichs3d.quadrature import NonConvergence, ResolventKernel, resolvent_integral_2d
from friedrichs3d.thresholds import critical_couplings, threshold_integral
from friedrichs3d.vfunction import VFunction, parse_v

from oracles import (
    WATSON_HALF,
    WATSON_I_EPS,
    DenominatorVanishesOutsideBall,
    GridSettings,
    integrate_smooth,
    integrate_threshold,
    left_riemann_integral,
    polar_cell_integral,
)

TWO_PI = 2.0 * np.pi
CELL_VOLUME = TWO_PI ** 3


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

    res = integrate_smooth(f, GridSettings(base_grid=8, target_rel_tol=1e-8, max_refinements=6))
    assert res.converged
    assert res.refinements_used >= 1
    assert res.est_error <= 1e-8 * abs(res.value) + 1e-12


def test_smooth_quadrature_raises_on_unattainable_tolerance():
    def f(px, py, pz):
        return np.exp(np.cos(px) * np.cos(py) * np.cos(pz))

    cfg = GridSettings(base_grid=4, target_rel_tol=1e-13, max_refinements=1)
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
    # down to the solver's edge margin from either edge, where a 3D grid would
    # need more than 1024^3 points and an ungraded (t1, t2) grid 4096^2 at 1e-4
    v = parse_v("0.8681 - 0.3394*cos(p1) + 0.2634*sin(2*p2) + 0.3069*cos(p2)*cos(p3)")
    k = (0.7789, -2.4694, -0.1161)
    kernel = ResolventKernel(v, k)
    for delta in (1e-3, 1e-4, 1e-6):
        below = resolvent_integral_2d(v, k, kernel.m - delta)
        above = resolvent_integral_2d(v, k, kernel.M + delta)
        assert below.value == pytest.approx(kernel.integral_below(kernel.m - delta), rel=1e-12)
        assert above.value == pytest.approx(-kernel.integral_above(kernel.M + delta), rel=1e-12)


def test_audit_route_refuses_the_band_and_reports_its_grid(v_cos_half, monkeypatch):
    k = (0.9, 0.4, -1.2)
    kernel = ResolventKernel(v_cos_half, k)
    for z in (kernel.m, 0.5 * (kernel.m + kernel.M), kernel.M):
        with pytest.raises(ValueError):
            resolvent_integral_2d(v_cos_half, k, z)
    monkeypatch.setattr(quadrature, "_MAX_REFINEMENTS", 0)
    with pytest.raises(NonConvergence, match=r"after 0 refinements \(grid 16\^2"):
        resolvent_integral_2d(v_cos_half, k, kernel.m - 1e-2)


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
    c = np.array(lam)

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
        integrate_threshold(v_one, lam, (0.1, 0.2, 0.3), "max")
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
    k = reduce_coords(kcoords)
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
    points = [ORIGIN, PI_POINT, lambda_point(3), (np.pi, 0.3, -1.1)]
    points += [rng.uniform(-np.pi, np.pi, 3) for _ in range(8)]
    n = len(points)
    batch = ResolventKernel(v, points)
    rows = np.arange(2 * n)  # row 2 fiber + side
    delta = np.linspace(0.0, 40.0, rows.size)
    values = batch.integrals(rows, delta)
    below = batch.integral_below(batch.m - delta[0::2])
    above = batch.integral_above(batch.M + delta[1::2])
    assert below.shape == above.shape == (n,)
    for i, p in enumerate(points):
        one = ResolventKernel(v, p)
        assert (batch.m[i], batch.M[i]) == (one.m, one.M)
        assert one.v_norm == batch.v_norm
        for side in (0, 1):
            r = 2 * i + side
            for name in ("edge", "eps", "A", "B", "d_free"):
                assert getattr(batch, name)[r] == getattr(one, name)[side]
            assert np.array_equal(batch.G[r], one.G[side])
            alone = one.integrals(np.array([side]), delta[r : r + 1])
            assert alone[0] == values[r]
        assert below[i] == one.integral_below(batch.m[i] - delta[2 * i])
        assert above[i] == one.integral_above(batch.M[i] + delta[2 * i + 1])


def test_kernel_follows_the_leading_shape_of_its_momenta(v_cos_half):
    grid = reduce_coords(np.linspace(-3.0, 3.0, 12).reshape(2, 2, 3))
    kernel = ResolventKernel(v_cos_half, grid)
    assert kernel.m.shape == kernel.M.shape == (2, 2)
    assert kernel.integral_below(kernel.m).shape == (2, 2)
    # z broadcasts to the leading shape
    assert np.array_equal(kernel.integral_above(14.0), kernel.integral_above(np.full((2, 2), 14.0)))
    one = ResolventKernel(v_cos_half, grid[1, 0])
    assert type(one.m) is float and type(one.integral_below(one.m - 1.0)) is float
    assert kernel.integral_below(kernel.m - 1.0)[1, 0] == one.integral_below(one.m - 1.0)
    with pytest.raises(ValueError):
        kernel.integral_below(np.full(3, -1.0))
    # an empty batch builds and evaluates nothing
    empty = ResolventKernel(v_cos_half, np.empty((0, 3)))
    assert empty.m.shape == empty.integral_above(empty.M).shape == (0,)
    assert empty.G.shape == (0, quadrature._laplace_nodes()[0].size)
    assert empty.integrals(np.arange(0), np.zeros(0)).shape == (0,)


def test_every_kernel_user_builds_one_kernel_per_batch(monkeypatch, v_one):
    built = []
    init = ResolventKernel.__init__

    def counted(self, v, k):
        built.append(np.shape(k))
        init(self, v, k)

    monkeypatch.setattr(ResolventKernel, "__init__", counted)
    params = ModelParams(gamma=-1.5, mu=0.5)
    find_discrete_spectrum(params, v_one, (0.5, 0.1, -0.8))
    assert built == [(1, 3)]
    # one kernel per lockstep group of each pass: none for the refinement pass, empty here
    built.clear()
    passes = []
    solve = bands._solve_fibers
    monkeypatch.setattr(bands, "_solve_fibers", lambda *args: passes.append(len(args[2])) or solve(*args))
    structure = assemble_bands(params, v_one, 8)
    assert len(structure.eigen_branches) == 8 ** 3 + 10
    assert passes == [structure.fibers_solved, 0]
    assert built == _group_shapes(structure.fibers_solved, determinant._ROWS_PER_GROUP // 2)
    # a pass of more fibers than a group holds takes several kernels
    built.clear()
    passes.clear()
    monkeypatch.setattr(determinant, "_ROWS_PER_GROUP", 8)
    structure = assemble_bands(ModelParams(gamma=8.0, mu=0.3), parse_v("1 - cos(p1)"), 4)
    assert sum(passes) == structure.fibers_solved and min(passes) > 4
    assert built == _group_shapes(passes[0], 4) + _group_shapes(passes[1], 4)
    # one for the nine threshold points of a v: its integrals are cached after that
    built.clear()
    thresholds._threshold_integrals.cache_clear()
    v = parse_v("1 + 0.25 * cos(p1) * sin(p2)")
    critical_couplings(2.0, v)
    critical_couplings(3.0, v)
    assert built == [(9, 3)]


def _group_shapes(fibers, per_group):
    """The k shapes of the kernels of `fibers` fibers in lockstep groups of `per_group`."""
    return [(min(per_group, fibers - start), 3) for start in range(0, fibers, per_group)]


@pytest.mark.parametrize(
    "kcoords", [(0.4, -1.2, 2.0), (np.pi, -1.2, 2.0), (np.pi, np.pi, 2.0), (np.pi, np.pi, np.pi)]
)
def test_kernel_slope_is_the_derivative_of_the_integral(v_cos_half, kcoords):
    # the solver's Newton slope, for d = 3, 2, 1, 0 free axes
    kernel = ResolventKernel(v_cos_half, kcoords)
    for side in (0, 1):
        for delta in (1e-3, 0.5, 5.0):
            h = 1e-4 * delta
            probe = np.array([delta, delta - h, delta + h])
            values, slopes = kernel.integrals(np.full(3, side), probe, slope=True)
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


def test_tails_at_the_edge_are_the_closed_form_limits():
    # T(q) = int_S^inf s^{-q} ds: S^{1-q}/(q-1) for q > 1, divergent otherwise
    S = quadrature._S_END
    for d in range(4):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = quadrature._tails(np.array([d]), np.zeros(1))[:, 0]
        for q, value in zip(0.5 * d + np.array([-1.0, 0.0, 1.0]), table):
            assert value == (S ** (1.0 - q) / (q - 1.0) if q > 1.0 else np.inf), (d, q)


_AGREEMENT_V = (
    "0.8681 + -0.3394*cos(p1) + 0.2634*sin(2*p2) + 0.3069*cos(p2)*cos(p3)",
    "1",
    "cos(p1) + 0.5",
    "1 - cos(p1)",
    "(1 - cos(p1)) * (cos(p1) + 0.5) + 0.3*sin(p2)*cos(2*p3)",
)


def test_kernel_agrees_with_the_audit_on_random_fibers():
    """The kernel against the 2D audit on 200 seeded draws: uniform k with
    every c_j = cos(k_j/2) >= 1e-2, delta = 10^U(-5, 2) on a random side.

    The two regimes left out are the far field (delta beyond the band width)
    and nearly frozen axes (0 < c_j << 1), where the kernel is known to be
    wrong (ROADMAP item 1).
    """
    rng = np.random.default_rng(20261020)
    vs = [parse_v(text) for text in _AGREEMENT_V]
    for draw in range(200):
        v = vs[draw % len(vs)]
        k = rng.uniform(-np.pi, np.pi, 3)
        while np.cos(k / 2.0).min() < 1e-2:
            k = rng.uniform(-np.pi, np.pi, 3)
        delta = 10.0 ** rng.uniform(-5.0, 2.0)
        kernel = ResolventKernel(v, k)
        if rng.uniform() < 0.5:
            got = kernel.integral_below(kernel.m - delta)
            audit = resolvent_integral_2d(v, k, kernel.m - delta).value
        else:
            got = kernel.integral_above(kernel.M + delta)
            audit = -resolvent_integral_2d(v, k, kernel.M + delta).value
        assert got == pytest.approx(audit, rel=1e-8), (draw, k.tolist(), delta)


def test_kernel_rejects_band_interior(v_one):
    kernel = ResolventKernel(v_one, (0.9, 0.4, -1.2))
    with pytest.raises(ValueError):
        kernel.integral_below(kernel.m + 0.5)
    with pytest.raises(ValueError):
        kernel.integral_above(kernel.M - 0.5)


def test_kernel_monotone_in_z(v_cos_half):
    kernel = ResolventKernel(v_cos_half, (0.3, 0.3, 0.3))
    below = [kernel.integral_below(kernel.m - d) for d in (3.0, 1.0, 0.3, 0.0)]
    assert all(b > 0 for b in below)
    assert below == sorted(below)
    above = [kernel.integral_above(kernel.M + d) for d in (3.0, 1.0, 0.3, 0.0)]
    assert all(a > 0 for a in above)
    assert above == sorted(above)
