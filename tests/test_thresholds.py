import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from friedrichs3d import thresholds, vfunction
from friedrichs3d.determinant import ModelParams
from friedrichs3d.lattice import lambda_point, threshold_point
from friedrichs3d.quadrature import ResolventKernel
from friedrichs3d.thresholds import (
    DomainError,
    ZeroCoupling,
    classify_threshold,
    critical_couplings,
    fredholm_delta_threshold,
    gamma_star,
    mu_left,
    mu_right,
    threshold_integral,
)
from friedrichs3d.vfunction import VFunction, parse_v

from oracles import WATSON_I_EPS, l2_membership_probe, polar_cell_integral


def test_threshold_integral_is_cached(v_one):
    a = threshold_integral(v_one, "origin")
    b = threshold_integral(v_one, "origin")
    assert a is b  # same float object back from the cache


def test_caches_hold_a_bounded_working_set(rng):
    # fresh v per request must not pile up: 300 of them leave the caches at their size
    for _ in range(300):
        c = rng.uniform(0.5, 1.5, 3)
        v = parse_v("%.17g + %.17g * cos(p1) + %.17g * sin(p2) * cos(p3)" % tuple(c))
        threshold_integral(v, "origin")
        threshold_integral(v, "lambda:%d" % rng.integers(1, 9))
    assert vfunction._exp_coeffs_cached.cache_info().currsize <= vfunction._CACHE_SIZE
    assert vfunction._squared_exp_cached.cache_info().currsize <= vfunction._CACHE_SIZE
    assert thresholds._threshold_integrals.cache_info().currsize <= thresholds._CACHE_SIZE


def test_critical_coupling_domains(v_one):
    with pytest.raises(DomainError):
        mu_left(0.0, v_one)
    with pytest.raises(DomainError):
        mu_left(-1.0, v_one)
    with pytest.raises(DomainError):
        mu_right(9.0, 1, v_one)
    with pytest.raises(DomainError):
        mu_right(10.0, 3, v_one)
    with pytest.raises(ZeroCoupling):
        mu_left(1.0, VFunction.zero())


def test_lambda_index_is_checked_not_truncated(v_one):
    # "lambda:%d" % 1.5 names Lambda_1: a fractional index is refused instead
    for call in (lambda: lambda_point(1.5), lambda: mu_right(2.0, 1.5, v_one), lambda: gamma_star(2.9, v_one)):
        with pytest.raises(ValueError, match="integer"):
            call()
    # the index is checked first, before gamma
    with pytest.raises(ValueError, match="1..8"):
        mu_right(float("nan"), 9, v_one)
    with pytest.raises(ValueError, match="1..8"):
        gamma_star(0, v_one)
    assert lambda_point(np.int64(4)) == lambda_point(4)
    assert mu_right(2.0, np.int64(4), v_one) == mu_right(2.0, 4, v_one)
    assert gamma_star(np.int64(4), v_one) == gamma_star(4, v_one)


def test_left_coupling_against_frozen_constant(v_one):
    # independent anchor: the dispersion integral is known in closed form
    for gamma in (0.5, 2.0, 7.0):
        expected = np.sqrt(2.0 * gamma / WATSON_I_EPS)
        assert mu_left(gamma, v_one) == pytest.approx(expected, rel=1e-9)


def test_right_coupling_against_frozen_constant(v_one):
    for gamma in (-2.0, 3.0, 8.5):
        expected = np.sqrt((9.0 - gamma) / WATSON_I_EPS)
        assert mu_right(gamma, 2, v_one) == pytest.approx(expected, rel=1e-9)


def test_defining_identities_hold(v_cos_half):
    # mu_l^2 int v^2/eps = 2 gamma and mu_r^2 I_max = 9 - gamma by definition
    i_min = threshold_integral(v_cos_half, "origin")
    i_max = threshold_integral(v_cos_half, "lambda:7")
    gamma = 1.7
    assert mu_left(gamma, v_cos_half) ** 2 * i_min == pytest.approx(2.0 * gamma, abs=1e-12)
    assert mu_right(gamma, 7, v_cos_half) ** 2 * i_max == pytest.approx(9.0 - gamma, abs=1e-12)


@pytest.mark.parametrize("gamma", [5e-324, 2.2250738585072014e-308])
def test_left_coupling_survives_subnormal_gamma(v_one, gamma):
    # mu_l^2 j = gamma with j = I_min/2; mu_l^2 itself underflows, so
    # compare mu_l sqrt(j) with sqrt(gamma)
    mu = mu_left(gamma, v_one)
    assert mu > 0.0
    j = 0.5 * threshold_integral(v_one, "origin")
    assert mu * np.sqrt(j) == pytest.approx(np.sqrt(gamma), rel=1e-12)


@pytest.mark.parametrize("c", [1e-150, 1e100])
def test_left_coupling_scales_inversely_with_v(v_one, v_cos_half, c):
    # j scales as v^2, so mu_left(gamma, c v) = mu_left(gamma, v)/c; at
    # c = 1e-150 the coefficients of v^2 are about 1e-300 and must be kept
    for v in (v_one, v_cos_half):
        assert mu_left(2.0, c * v) == pytest.approx(mu_left(2.0, v) / c, rel=1e-13)


def test_eightfold_symmetry_of_right_couplings(v_one, v_one_minus_cos):
    for v in (v_one, v_one_minus_cos):
        vals = [mu_right(4.0, i, v) for i in range(1, 9)]
        assert max(vals) - min(vals) <= 1e-10 * max(vals)


def test_gamma_star_is_three_for_flat_coupling(v_one):
    # I_min = I_max for v = 1, so 9 I/(2I + I) = 3 exactly
    for i in (1, 4, 8):
        assert gamma_star(i, v_one) == pytest.approx(3.0, abs=1e-8)


def test_gamma_star_stays_in_the_open_interval(v_cos_half, v_one_minus_cos, v_product):
    for v in (v_cos_half, v_one_minus_cos, v_product):
        for i in (1, 5):
            assert 0.0 < gamma_star(i, v) < 9.0


def test_critical_couplings_bundle(v_one):
    bundle = critical_couplings(2.0, v_one)
    assert bundle.mu_l == pytest.approx(mu_left(2.0, v_one), abs=0.0)
    assert len(bundle.mu_r) == 8 and len(bundle.gamma_star) == 8
    assert all(m is not None for m in bundle.mu_r)
    # outside the domains the entries degrade to None instead of raising
    assert critical_couplings(-0.5, v_one).mu_l is None
    assert all(m is None for m in critical_couplings(9.5, v_one).mu_r)


def _probe(v, which):
    return l2_membership_probe(v, np.array(threshold_point(which)[1]))


def test_probe_exponent_tracks_vanishing_order(v_one, v_cos_half, v_one_minus_cos, v_product):
    # the measured local exponent of f1 should match the exact vanishing
    # order from the derivative test, an entirely independent route
    cases = [
        (v_one, "origin", 0), (v_one, "lambda:3", 0),
        (v_cos_half, "origin", 0), (v_cos_half, "lambda:3", 1),
        (v_one_minus_cos, "origin", 2), (v_one_minus_cos, "lambda:3", 0),
        (v_product, "origin", 2), (v_product, "lambda:3", 1),
    ]
    # higher harmonics: the shells shrink with 1/H
    for text in (
        "cos(2*p1)*cos(2*p2)",
        "sin(3*p1)",
        "sin(2*p1)*sin(2*p2)*sin(2*p3)",
        "sin(4*p1)*cos(p2)",
        "1 + 0.5*cos(3*p1) + 0.3*sin(3*p2)",
    ):
        v = parse_v(text)
        for point in ("origin", "lambda:1", "lambda:5"):
            pt = threshold_point(point)[1]
            cases.append((v, point, v.vanishing_order(pt) if abs(v(pt)) < 1e-12 else 0))
    for v, point, theta in cases:
        exponent, in_l2 = _probe(v, point)
        assert exponent == pytest.approx(theta, abs=0.05), (v, point)
        assert in_l2 == (theta >= 1)


def test_probe_rejects_zero_coupling():
    with pytest.raises(ValueError):
        _probe(VFunction.zero(), "origin")


def test_probe_refuses_high_orders():
    # outside the probe's domain: at order 6 the expanded sum for v is
    # round-off on the inner shells, and the fit refuses
    with pytest.raises(RuntimeError, match="residual"):
        _probe(parse_v("(1-cos(p1))*(1-cos(p2))*(1-cos(p3))"), "origin")


def test_classification_verdicts(v_one, v_one_minus_cos):
    gamma = 2.0
    mu_c = mu_left(gamma, v_one)
    report = classify_threshold(ModelParams(gamma=gamma, mu=mu_c), v_one, "origin")
    assert report.verdict == "virtual_level"
    assert not report.in_l2
    assert report.local_exponent == 0.0
    report = classify_threshold(ModelParams(gamma=gamma, mu=mu_c * 1.01), v_one, "origin")
    assert report.verdict == "none"

    mu_c = mu_left(gamma, v_one_minus_cos)
    report = classify_threshold(ModelParams(gamma=gamma, mu=mu_c), v_one_minus_cos, "origin")
    assert report.verdict == "eigenvalue"
    assert report.in_l2
    assert report.local_exponent == 2.0


# the four v of demos/threshold_zoo.py: every (origin, Lambda) vanishing pattern
_ZOO = ["1", "cos(p1) + 0.5", "1 - cos(p1)", "(1 - cos(p1)) * (cos(p1) + 0.5)"]


def _verdicts(text):
    """(verdict, local_exponent) at the origin and at lambda:1, each at its critical coupling."""
    v = parse_v(text)
    out = []
    for which in ("origin", "lambda:1"):
        report = classify_threshold(ModelParams(gamma=2.0, mu=_critical(2.0, v, which)), v, which)
        out.append((report.verdict, report.local_exponent))
    return out


@settings(max_examples=25, deadline=None, derandomize=True)
@given(text=st.sampled_from(_ZOO), exponent=st.floats(-150.0, 100.0))
@example(text="1", exponent=-13.0)
@example(text="1", exponent=-20.0)
@example(text="cos(p1) + 0.5", exponent=100.0)
@example(text="(1 - cos(p1)) * (cos(p1) + 0.5)", exponent=-150.0)
def test_classification_does_not_depend_on_the_size_of_v(text, exponent):
    # whether v vanishes at the point is a property of v's shape, not its size
    c = 10.0 ** exponent
    assert _verdicts("%r * (%s)" % (c, text)) == _verdicts(text)


def test_classification_match_tolerance_boundary(v_one):
    gamma = 2.0
    mu_c = mu_left(gamma, v_one)
    inside = classify_threshold(ModelParams(gamma=gamma, mu=mu_c * (1.0 + 5e-9)), v_one, "origin")
    assert inside.verdict == "virtual_level"
    outside = classify_threshold(ModelParams(gamma=gamma, mu=mu_c * (1.0 + 1e-6)), v_one, "origin")
    assert outside.verdict == "none"


_MODES = [(a, b, c) for a in range(-2, 3) for b in range(-2, 3) for c in range(-2, 3)]


def _polar_threshold_integral(v, which):
    if which == "origin":
        center = np.zeros(3)

        def den(q):
            return np.sum(1.0 - np.cos(q), axis=-1)

    else:
        center = np.array(lambda_point(int(which.split(":")[1])))

        def den(q):
            return 9.0 - np.sum(1.0 - np.cos(center + q), axis=-1) - np.sum(1.0 - np.cos(q), axis=-1)

    def integrand(q):
        vv = np.asarray(v.evaluate(q[..., 0], q[..., 1], q[..., 2]), dtype=float)
        return vv * vv / np.maximum(den(q), 1e-300)

    return polar_cell_integral(integrand, center)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    terms=st.lists(
        st.tuples(st.sampled_from(_MODES), st.floats(-1.0, 1.0).filter(lambda c: abs(c) > 0.05)),
        min_size=1,
        max_size=4,
    ),
    lam=st.integers(1, 8),
    gamma=st.floats(0.05, 8.95),
)
def test_threshold_integrals_match_the_polar_oracle(terms, lam, gamma):
    v = VFunction(terms)
    i_min = threshold_integral(v, "origin")
    i_max = threshold_integral(v, "lambda:%d" % lam)
    for got, which in ((i_min, "origin"), (i_max, "lambda:%d" % lam)):
        ref, est = _polar_threshold_integral(v, which)
        assert got == pytest.approx(ref, rel=max(2e-3, 10.0 * est / abs(ref)))
    assert mu_left(gamma, v) ** 2 * i_min == pytest.approx(2.0 * gamma, rel=1e-12)
    assert mu_right(gamma, lam, v) ** 2 * i_max == pytest.approx(9.0 - gamma, rel=1e-12)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    terms=st.lists(
        st.tuples(st.sampled_from(_MODES), st.floats(-1.0, 1.0).filter(lambda c: abs(c) > 0.05)),
        min_size=1,
        max_size=4,
    ),
)
def test_threshold_integrals_are_the_single_momentum_edge_limits(terms):
    # the nine integrals come from one kernel row each; a wrong side or row
    # would show against a kernel over that one momentum
    v = VFunction(terms)
    for which in ["origin"] + ["lambda:%d" % i for i in range(1, 9)]:
        kernel = ResolventKernel(v, threshold_point(which)[1])
        if which == "origin":
            expected = 2.0 * kernel.integral_below(kernel.edge[0])[0]
        else:
            expected = kernel.integral_above(kernel.edge[1])[0]
        assert threshold_integral(v, which) == expected, which


def _critical(gamma, v, which):
    if which == "origin":
        return mu_left(gamma, v)
    return mu_right(gamma, int(which.split(":")[1]), v)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    # distinct modes, so v is never zero
    terms=st.lists(
        st.tuples(st.sampled_from(_MODES), st.floats(-1.0, 1.0).filter(lambda c: abs(c) > 0.05)),
        min_size=1,
        max_size=4,
        unique_by=lambda term: term[0],
    ),
    which=st.sampled_from(["origin"] + ["lambda:%d" % i for i in range(1, 9)]),
    depth=st.floats(0.05, 10.0),
    t=st.floats(0.25, 2.0),
)
def test_threshold_determinant_is_one_formula(terms, which, depth, t):
    # the domain is gamma > 0 at the origin and gamma < 9 on Lambda; with
    # g0 the threshold's end of it, Delta at t mu_c is (gamma - g0)(1 - t^2)
    g0, gamma = (0.0, depth) if which == "origin" else (9.0, 9.0 - depth)
    v = VFunction(terms)
    mu_c = _critical(gamma, v, which)
    got = fredholm_delta_threshold(ModelParams(gamma=gamma, mu=t * mu_c), v, which)
    scale = abs(gamma - g0)
    assert got == pytest.approx((gamma - g0) * (1.0 - t * t), rel=1e-12, abs=1e-12 * scale)
    # a gamma outside the domain is refused as such, before v = 0 is noticed
    with pytest.raises(DomainError):
        _critical(g0 - np.sign(gamma - g0) * depth, VFunction.zero(), which)
