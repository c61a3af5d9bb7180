"""End-to-end acceptance checks.

Each test covers one numbered guarantee of the library and prints a
single PASS/FAIL line with the measured numbers.  Slow full-resolution
band scans carry the `nightly` marker and run with --run-nightly.
"""

import time

import numpy as np
import pytest

from friedrichs3d.bands import assemble_bands
from friedrichs3d.determinant import ModelParams, find_discrete_spectrum
from friedrichs3d.lattice import (
    ORIGIN,
    PI_POINT,
    band_endpoints,
    lambda_point,
)
from friedrichs3d.oracle import discretize, extreme_eigenvalues
from friedrichs3d.thresholds import (
    classify_threshold,
    fredholm_delta_threshold,
    gamma_star,
    mu_left,
    mu_right,
    threshold_integral,
)
from friedrichs3d.vfunction import parse_v

from oracles import WATSON_I_EPS, brute_band_endpoints, l2_membership_probe

TWO_PI = 2.0 * np.pi


def _report(num: int, ok: bool, detail: str):
    print("criterion %02d: %s  (%s)" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %02d failed: %s" % (num, detail)


# ---------------------------------------------------------------------------
# 1: closed-form band endpoints at the distinguished momenta
# ---------------------------------------------------------------------------


def test_criterion_01_band_endpoints_at_distinguished_points():
    t0 = time.perf_counter()
    worst = 0.0
    lo, hi = band_endpoints(ORIGIN)
    worst = max(worst, abs(lo - 0.0), abs(hi - 12.0))
    lo, hi = band_endpoints(PI_POINT)
    worst = max(worst, abs(lo - 12.0), abs(hi - 12.0))
    for i in range(1, 9):
        lo, hi = band_endpoints(lambda_point(i))
        worst = max(worst, abs(lo - 7.5), abs(hi - 13.5))
    elapsed = time.perf_counter() - t0
    _report(1, worst <= 1e-12, "max deviation %.2e in %.1f ms" % (worst, 1e3 * elapsed))


# ---------------------------------------------------------------------------
# 2: global extremes of the band edges over a 33^3 momentum grid
# ---------------------------------------------------------------------------


def test_criterion_02_band_edge_extremes_over_coarse_grid():
    t0 = time.perf_counter()
    # symmetric grid {2 pi i / 33} contains the origin and the corner set
    vals = TWO_PI * np.arange(-16, 17) / 33.0
    kx, ky, kz = np.meshgrid(vals, vals, vals, indexing="ij")
    ks = np.stack([kx.ravel(), ky.ravel(), kz.ravel()], axis=-1)
    lo, hi = band_endpoints(ks)
    err_min = abs(float(np.min(lo)) - 0.0)
    err_max = abs(float(np.max(hi)) - 13.5)
    elapsed = time.perf_counter() - t0
    ok = err_min <= 1e-12 and err_max <= 1e-12 and elapsed < 1.0
    _report(
        2,
        ok,
        "min m err %.2e, max M err %.2e over %d momenta in %.0f ms"
        % (err_min, err_max, ks.shape[0], 1e3 * elapsed),
    )


# ---------------------------------------------------------------------------
# 3: analytic edges versus a blunt dense-grid minimization
# ---------------------------------------------------------------------------


def test_criterion_03_band_edges_match_dense_scan():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(50):
        k = rng.uniform(-np.pi, np.pi, 3)
        lo_ref, hi_ref = brute_band_endpoints(k, n=201)
        lo, hi = band_endpoints(k)
        worst = max(worst, abs(lo - lo_ref), abs(hi - hi_ref))
    elapsed = time.perf_counter() - t0
    _report(3, worst <= 1e-3, "worst deviation %.2e over 50 momenta in %.1f s" % (worst, elapsed))


# ---------------------------------------------------------------------------
# 4: determinant roots versus the arrowhead discretization oracle
# ---------------------------------------------------------------------------


def test_criterion_04_discretization_convergence_to_roots():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    pool = [
        parse_v("1"),
        parse_v("1 - 0.5 * cos(p1)"),
        parse_v("1 + 0.25 * sin(p2)"),
        parse_v("1 + 0.4 * cos(p1) + 0.3 * sin(2*p2)"),
    ]
    floor = 1e-8  # below this the n = 8 grid already sits at the solver tolerance
    worst_final, worst_rate, saturated = 0.0, np.inf, 0
    for trial in range(10):
        v = pool[trial % len(pool)]
        params = ModelParams(
            gamma=float(rng.uniform(-3.0, -0.5)), mu=float(rng.uniform(0.3, 0.9))
        )
        k = rng.uniform(-np.pi, np.pi, 3)
        window = find_discrete_spectrum(params, v, k)
        assert window.eigen_below is not None  # gamma < 0 always binds below
        errs = []
        for n in (8, 16, 32):
            low, _ = extreme_eigenvalues(discretize(params, v, k, n))
            errs.append(abs(low - window.eigen_below))
        worst_final = max(worst_final, errs[-1])
        if errs[0] <= floor:
            saturated += 1  # already converged at the coarse grid; rate is moot
        else:
            rate = np.log2(max(errs[0], 1e-300) / max(errs[-1], 1e-300)) / 2.0
            worst_rate = min(worst_rate, rate)
    elapsed = time.perf_counter() - t0
    rate_ok = worst_rate == np.inf or worst_rate >= 1.8
    ok = worst_final <= 1e-4 and rate_ok
    _report(
        4,
        ok,
        "worst n=32 error %.2e, slowest observed order %.2f (%d/10 saturated) in %.1f s"
        % (worst_final, worst_rate if worst_rate != np.inf else float("nan"), saturated, elapsed),
    )


# ---------------------------------------------------------------------------
# 5: defining identities of the critical couplings
# ---------------------------------------------------------------------------


def test_criterion_05_critical_coupling_identities(v_one, v_cos_half, v_one_minus_cos, v_product):
    t0 = time.perf_counter()
    gamma = 2.3
    worst_identity = 0.0
    for v in (v_one, v_cos_half, v_one_minus_cos):
        i_min = threshold_integral(v, "origin")
        worst_identity = max(
            worst_identity, abs(mu_left(gamma, v) ** 2 * i_min - 2.0 * gamma)
        )
        i_max = threshold_integral(v, "lambda:3")
        worst_identity = max(
            worst_identity, abs(mu_right(gamma, 3, v) ** 2 * i_max - (9.0 - gamma))
        )
    # non-circular anchor: for v = 1 both threshold integrals equal the
    # dispersion constant from its Gamma-product closed form
    worst_identity = max(
        worst_identity, abs(mu_left(gamma, v_one) ** 2 * WATSON_I_EPS - 2.0 * gamma)
    )
    worst_identity = max(
        worst_identity, abs(mu_right(gamma, 1, v_one) ** 2 * WATSON_I_EPS - (9.0 - gamma))
    )
    # corner exchange symmetry: all eight upper couplings coincide for
    # reflection-symmetric coupling functions
    worst_spread = 0.0
    for v in (v_one, v_one_minus_cos, v_product):
        vals = [mu_right(gamma, i, v) for i in range(1, 9)]
        worst_spread = max(worst_spread, max(vals) - min(vals))
    elapsed = time.perf_counter() - t0
    ok = worst_identity <= 1e-8 and worst_spread <= 1e-8
    _report(
        5,
        ok,
        "worst identity defect %.2e, corner spread %.2e in %.1f s"
        % (worst_identity, worst_spread, elapsed),
    )


# ---------------------------------------------------------------------------
# 6: the coupling trichotomy crosses exactly once, at gamma_star
# ---------------------------------------------------------------------------


def test_criterion_06_coupling_crossover(v_one):
    t0 = time.perf_counter()
    gammas = np.linspace(0.1, 8.9, 52)[1:-1]  # 50 interior samples

    def gap(g: float) -> float:
        return mu_left(g, v_one) - mu_right(g, 1, v_one)

    signs = np.sign([gap(float(g)) for g in gammas])
    flips = int(np.sum(signs[:-1] != signs[1:]))
    crossing = None
    for g0, g1, s0, s1 in zip(gammas[:-1], gammas[1:], signs[:-1], signs[1:]):
        if s0 != s1:
            a, b, fa = float(g0), float(g1), gap(float(g0))
            while b - a > 1e-7:
                mid = 0.5 * (a + b)
                fm = gap(mid)
                if (fm > 0.0) == (fa > 0.0):
                    a, fa = mid, fm
                else:
                    b = mid
            crossing = 0.5 * (a + b)
            break
    star = gamma_star(1, v_one)
    cross_err = np.inf if crossing is None else abs(crossing - star)
    balance = abs(mu_left(star, v_one) - mu_right(star, 1, v_one))
    elapsed = time.perf_counter() - t0
    ok = flips == 1 and cross_err <= 1e-4 and balance <= 1e-6
    _report(
        6,
        ok,
        "%d sign change(s), crossing off gamma_star by %.2e, coupling gap there %.2e in %.1f s"
        % (flips, cross_err, balance, elapsed),
    )


# ---------------------------------------------------------------------------
# 7-9: threshold classification matrix and its certificates
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def classification_matrix(v_one, v_cos_half, v_one_minus_cos, v_product):
    """Classify all four reference couplings at both thresholds at gamma = 2."""
    gamma = 2.0
    rows = []
    for v in (v_one, v_cos_half, v_one_minus_cos, v_product):
        p_origin = ModelParams(gamma=gamma, mu=mu_left(gamma, v))
        p_corner = ModelParams(gamma=gamma, mu=mu_right(gamma, 1, v))
        rows.append(
            (
                v,
                p_origin,
                classify_threshold(p_origin, v, "origin"),
                p_corner,
                classify_threshold(p_corner, v, "lambda:1"),
            )
        )
    return rows


def test_criterion_07_verdict_matrix(classification_matrix):
    t0 = time.perf_counter()
    expected = [
        ("virtual_level", "virtual_level"),
        ("virtual_level", "eigenvalue"),
        ("eigenvalue", "virtual_level"),
        ("eigenvalue", "eigenvalue"),
    ]
    got = [(row[2].verdict, row[4].verdict) for row in classification_matrix]
    elapsed = time.perf_counter() - t0
    _report(7, got == expected, "verdict pairs %s in %.1f s" % (got, elapsed))


def test_criterion_08_shell_slopes(classification_matrix):
    # the report's exponent is the exact vanishing order; the oracle's
    # shell integrals of |f1|^2 measure the slope independently
    t0 = time.perf_counter()
    ok = True
    details = []
    for v, _, rep_o, _, rep_c in classification_matrix:
        for rep, point in ((rep_o, ORIGIN), (rep_c, lambda_point(1))):
            exponent, _ = l2_membership_probe(v, np.array(point))
            slope = 2.0 * exponent - 1.0
            if rep.verdict == "virtual_level":
                ok = ok and abs(slope - (-1.0)) <= 0.1
            else:
                ok = ok and slope >= 0.9
            details.append("%.3f" % slope)
    elapsed = time.perf_counter() - t0
    _report(8, ok, "shell slopes [%s] in %.1f s" % (", ".join(details), elapsed))


def test_criterion_09_eigenvector_residuals(classification_matrix):
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for v, p_origin, rep_o, p_corner, rep_c in classification_matrix:
        if rep_o.verdict == "eigenvalue":
            worst = max(worst, abs(fredholm_delta_threshold(p_origin, v, "origin")))
            checked += 1
        if rep_c.verdict == "eigenvalue":
            worst = max(worst, abs(fredholm_delta_threshold(p_corner, v, "lambda:1")))
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 4 and worst < 1e-6
    _report(
        9, ok, "%d eigenvalue cases, worst residual %.2e in %.1f s" % (checked, worst, elapsed)
    )


# ---------------------------------------------------------------------------
# 10: band assembly over a parameter scan
# ---------------------------------------------------------------------------

SCAN_GAMMAS = np.linspace(-4.0, 12.0, 10)
SCAN_MUS = np.geomspace(1e-3, 2.0, 10)
STABILITY_CONFIGS = ((-2.0, 0.6), (4.0, 0.8))


def _scan_and_check(v, resolution: int):
    max_intervals = 0
    for gamma in SCAN_GAMMAS:
        for mu in SCAN_MUS:
            structure = assemble_bands(
                ModelParams(gamma=float(gamma), mu=float(mu)), v, resolution
            )
            max_intervals = max(max_intervals, len(structure.intervals))
    return max_intervals


def _stability_defect(v, configs, resolution: int) -> float:
    worst = 0.0
    for gamma, mu in configs:
        params = ModelParams(gamma=gamma, mu=mu)
        coarse = assemble_bands(params, v, resolution)
        fine = assemble_bands(params, v, 2 * resolution)
        assert len(coarse.intervals) == len(fine.intervals)
        for (a1, b1), (a2, b2) in zip(coarse.intervals, fine.intervals):
            worst = max(worst, abs(a1 - a2), abs(b1 - b2))
    return worst


def test_criterion_10_band_scan_smoke(v_one):
    t0 = time.perf_counter()
    weak = assemble_bands(ModelParams(gamma=6.0, mu=1e-6), v_one, 8)
    exact_band = weak.intervals == ((0.0, 13.5),)
    max_intervals = _scan_and_check(v_one, resolution=8)
    defect = _stability_defect(v_one, STABILITY_CONFIGS, resolution=8)
    elapsed = time.perf_counter() - t0
    ok = exact_band and max_intervals <= 3 and defect <= 5e-3 and elapsed < 120.0
    _report(
        10,
        ok,
        "weak-coupling band %s, max %d interval(s) over 10x10 scan, "
        "doubling defect %.2e, %.0f s"
        % ("exact" if exact_band else "WRONG", max_intervals, defect, elapsed),
    )


@pytest.mark.nightly
def test_criterion_10_band_scan_full_resolution(v_one):
    t0 = time.perf_counter()
    weak = assemble_bands(ModelParams(gamma=6.0, mu=1e-6), v_one, 16)
    exact_band = weak.intervals == ((0.0, 13.5),)
    max_intervals = _scan_and_check(v_one, resolution=16)
    defect = _stability_defect(v_one, STABILITY_CONFIGS, resolution=16)
    elapsed = time.perf_counter() - t0
    ok = exact_band and max_intervals <= 3 and defect <= 5e-3
    _report(
        10,
        ok,
        "full resolution: weak-coupling band %s, max %d interval(s), "
        "doubling defect %.2e, %.0f s"
        % ("exact" if exact_band else "WRONG", max_intervals, defect, elapsed),
    )
