"""Independent reference computations used by the test suite.

Everything here deliberately avoids the production quadrature and solver
code paths: brute tensor scans, the band-edge minimizers, a dense
eigensolver, bisection of the arrowhead secular equation, left-endpoint
Riemann sums, a 3D midpoint grid with doubling, a graded polar mesh with
Richardson extrapolation, a singular-ball split of threshold integrals, a
shell-slope fit of the local exponent at a threshold, and closed-form
constants.
Agreement between these routes and the library is what the tests
certify.  Nothing here imports friedrichs3d:
the benchmark loads this module without the package on its path.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

import mpmath
import numpy as np

TWO_PI = 2.0 * np.pi


def _watson_constant() -> float:
    """Glasser-Zucker (1977): the lattice Green's function of the simple cubic
    lattice at the origin, G = int_0^inf exp(-3s) I0(s)^3 ds, in closed form
    sqrt(6)/(32 pi^3) Gamma(1/24) Gamma(5/24) Gamma(7/24) Gamma(11/24)."""
    with mpmath.workdps(30):
        g = [mpmath.gamma(mpmath.mpf(n) / 24) for n in (1, 5, 7, 11)]
        return float(mpmath.sqrt(6) / (32 * mpmath.pi ** 3) * g[0] * g[1] * g[2] * g[3])


WATSON_G = _watson_constant()
# the dispersion integral over the torus: int 1/eps = (2pi)^3 * G / 3
WATSON_I_EPS = TWO_PI ** 3 * WATSON_G / 3.0

# Exact value of int v^2/eps at v = 1 restricted to the lower edge point:
# the edge integral carries the extra 1/2 from the quadratic normal form.
WATSON_HALF = WATSON_I_EPS / 2.0


def brute_band_endpoints(k, n: int = 201):
    """Tensor scan of the two-particle dispersion over an n^3 grid.

    Blunt on purpose: no separability tricks, no analytic minimizers.
    Chunked along the first axis to keep the transient arrays small.
    """
    k = np.asarray(k, dtype=float)
    g = -np.pi + (np.arange(n) + 0.5) * (TWO_PI / n)
    ek = float(np.sum(1.0 - np.cos(k)))
    lo, hi = np.inf, -np.inf
    for i0 in range(0, n, 32):
        px = g[i0:i0 + 32][:, None, None]
        py = g[None, :, None]
        pz = g[None, None, :]
        w = (ek
             + (2.0 - np.cos(k[0] + px) - np.cos(px))
             + (2.0 - np.cos(k[1] + py) - np.cos(py))
             + (2.0 - np.cos(k[2] + pz) - np.cos(pz)))
        lo = min(lo, float(w.min()))
        hi = max(hi, float(w.max()))
    return lo, hi


def band_edge_argmin(k) -> np.ndarray:
    """The p minimizing w1(k, .): p = -k/2 per axis, for k in (-pi, pi]^3."""
    return -0.5 * np.asarray(k, dtype=float)


def band_edge_argmax(k) -> np.ndarray:
    """The p maximizing w1(k, .): p = pi - k/2 per axis, for k in (-pi, pi]^3."""
    return np.pi - 0.5 * np.asarray(k, dtype=float)


_DENSE_CAP = 8


def dense_eigenvalues(op) -> np.ndarray:
    """Full spectrum of an arrowhead operator through numpy.linalg.eigvalsh.

    `op` carries `grid_n`, `scalar`, `diagonal` and `border` like
    friedrichs3d.oracle.DiscretizedOperator; only grids up to n = 8.
    """
    if op.grid_n > _DENSE_CAP:
        raise ValueError(
            "dense path is capped at n = %d (requested n = %d)" % (_DENSE_CAP, op.grid_n)
        )
    size = 1 + op.diagonal.size
    mat = np.zeros((size, size))
    mat[0, 0] = op.scalar
    mat[np.arange(1, size), np.arange(1, size)] = op.diagonal
    mat[0, 1:] = op.border
    mat[1:, 0] = op.border
    return np.linalg.eigvalsh(mat)


def bisect_secular_root(scalar: float, d: np.ndarray, b2: np.ndarray, lowest: bool) -> float:
    """Extreme zero of f(z) = scalar - z - sum b2/(d - z) outside the hull of d, by bisection.

    Plain bracket-and-bisect to 1e-13 max(1, |edge|, |scalar|): the near end
    halves its distance to the pole until f takes the pole's sign (or
    rounds onto the pole, when the root is the edge to working precision),
    the far end doubles its distance until f takes the other sign.
    """
    edge = float(np.min(d)) if lowest else float(np.max(d))
    direction = -1.0 if lowest else 1.0
    scale = max(1.0, abs(edge), abs(scalar))

    def f(z):
        return scalar - z - float(np.sum(b2 / (d - z)))

    # f -> -inf as z -> edge from outside when lowest, +inf when highest; a
    # root that f cannot separate from the pole in floating point is the edge
    eta = 1e-9 * scale
    while True:
        near = edge + direction * eta
        if near == edge:
            return edge
        fn = f(near)
        if (fn < 0.0) if lowest else (fn > 0.0):
            break
        eta *= 0.5
    width = 1.0
    far = edge + direction * (eta + width)
    while (f(far) <= 0.0) if lowest else (f(far) >= 0.0):
        width *= 2.0
        far = edge + direction * (eta + width)
    lo, hi = (far, near) if lowest else (near, far)
    # f > 0 at lo in both orientations; 200 halvings reach any width that rounding allows
    for _ in range(200):
        if hi - lo <= 1e-13 * scale:
            break
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bisect_extreme_eigenvalues(op):
    """(lowest, highest) eigenvalue of an arrowhead operator by bisection of its secular equation.

    Nodes with zero border weight are bare diagonal entries; the coupled
    nodes go through `bisect_secular_root`.  `op` is shaped like
    friedrichs3d.oracle.DiscretizedOperator.
    """
    b2 = op.border * op.border
    coupled = b2 != 0.0
    bare = op.diagonal[~coupled]
    low = min([op.scalar, *bare.tolist()])
    high = max([op.scalar, *bare.tolist()])
    if coupled.any():
        d, b2 = op.diagonal[coupled], b2[coupled]
        low = min(low, bisect_secular_root(op.scalar, d, b2, True))
        high = max(high, bisect_secular_root(op.scalar, d, b2, False))
    return low, high


def left_riemann_integral(f, n: int = 128) -> float:
    """Left-endpoint Riemann sum over the torus.

    For smooth periodic integrands this is the trapezoid rule, hence
    spectrally accurate, and it uses a node offset the production
    cell-centered rule never touches.
    """
    g = -np.pi + np.arange(n) * (TWO_PI / n)
    px = g[:, None, None]
    py = g[None, :, None]
    pz = g[None, None, :]
    h3 = (TWO_PI / n) ** 3
    total = 0.0
    for i0 in range(0, n, 16):
        total += float(np.sum(f(px[i0:i0 + 16], py, pz)))
    return total * h3


GridIntegral = namedtuple("GridIntegral", "value est_error refinements_used converged")
GridSettings = namedtuple("GridSettings", "base_grid target_rel_tol max_refinements")
DEFAULT_GRID = GridSettings(base_grid=16, target_rel_tol=1e-8, max_refinements=6)


@lru_cache(maxsize=64)
def _cell_nodes(n: int):
    # cell-centered nodes of (-pi, pi], never landing on 0 or pi for even n
    return -np.pi + (np.arange(n) + 0.5) * (TWO_PI / n)


def _midpoint_sum(f, n: int) -> float:
    g = _cell_nodes(n)
    h = TWO_PI / n
    chunk = max(1, (1 << 22) // (n * n))
    partials = []
    for i0 in range(0, n, chunk):
        px = g[i0 : i0 + chunk][:, None, None]
        py = g[None, :, None]
        pz = g[None, None, :]
        vals = np.asarray(f(px, py, pz), dtype=float)
        vals = np.broadcast_to(vals, (px.shape[0], n, n))
        partials.append(float(np.sum(vals)))
    return math.fsum(partials) * h ** 3


def integrate_smooth(f, cfg=DEFAULT_GRID):
    """Integrate a smooth periodic integrand over the torus on a 3D midpoint grid.

    `f(px, py, pz)` must broadcast over coordinate arrays.  Refines by
    doubling the per-axis grid until successive values agree to
    `target_rel_tol` (relative) or an absolute floor of 1e-12; raises
    RuntimeError when `max_refinements` doublings are exhausted.  Each
    refinement costs 8x the previous one.  `cfg` is any object with the
    attributes of `GridSettings`.
    """
    n = cfg.base_grid
    prev = _midpoint_sum(f, n)
    for r in range(1, cfg.max_refinements + 1):
        n *= 2
        cur = _midpoint_sum(f, n)
        diff = abs(cur - prev)
        if diff <= max(cfg.target_rel_tol * abs(cur), 1e-12):
            return GridIntegral(value=cur, est_error=diff, refinements_used=r, converged=True)
        prev = cur
    raise RuntimeError(
        "no convergence after %d refinements (grid %d^3, last value %.17g, last diff %.3g)"
        % (cfg.max_refinements, n, prev, diff if cfg.max_refinements else math.nan)
    )


def polar_cell_integral(integrand, center, base=(16, 32, 24)):
    """Graded polar quadrature over the periodic cube centered at a point.

    integrand(q) takes absolute points with shape (..., 3) and must be
    finite away from `center` with at worst a 1/|q - center|^2 blowup.
    The radial map r = R(omega) * y^2 clusters nodes at the singularity;
    two Richardson stages on the h^2 ladder sharpen the midpoint sums.

    Returns (value, error_estimate).  Expect ~1e-4 relative accuracy at
    the default base; this is a route check, not a precision oracle.
    """
    center = np.asarray(center, dtype=float)

    def one_level(n_mu, n_phi, n_y):
        mu = -1.0 + (np.arange(n_mu) + 0.5) * (2.0 / n_mu)
        phi = (np.arange(n_phi) + 0.5) * (TWO_PI / n_phi)
        y = (np.arange(n_y) + 0.5) * (1.0 / n_y)
        st = np.sqrt(np.clip(1.0 - mu * mu, 0.0, None))
        om = np.empty((n_mu, n_phi, 3))
        om[..., 0] = st[:, None] * np.cos(phi)[None, :]
        om[..., 1] = st[:, None] * np.sin(phi)[None, :]
        om[..., 2] = np.broadcast_to(mu[:, None], (n_mu, n_phi))
        # distance from the center to the cube face along each direction
        R = np.pi / np.max(np.abs(om), axis=-1)
        r = R[..., None] * y[None, None, :] ** 2
        dr = R[..., None] * 2.0 * y[None, None, :] / n_y
        q = center[None, None, None, :] + om[:, :, None, :] * r[..., None]
        vals = integrand(q)
        w = vals * r * r * dr * (2.0 / n_mu) * (TWO_PI / n_phi)
        return float(np.sum(w))

    n_mu, n_phi, n_y = base
    levels = [one_level(n_mu * s, n_phi * s, n_y * s) for s in (1, 2, 4)]
    a = (4.0 * levels[1] - levels[0]) / 3.0
    b = (4.0 * levels[2] - levels[1]) / 3.0
    return (16.0 * b - a) / 15.0, abs(b - a)


def pi_point_roots(gamma: float, mu: float):
    """Exact shifted eigenvalues at the corner momentum for v = 1.

    There the fiber dispersion is identically 12, so the determinant
    condition collapses to the quadratic (w0 - z)(12 - z) = mu^2 (2pi)^3
    with w0 = gamma + 6.  Returns (below, above).  The root of smaller
    magnitude comes from the product of the roots, so neither cancels at
    large |gamma|."""
    w0 = gamma + 6.0
    s = w0 + 12.0
    product = 12.0 * w0 - mu * mu * TWO_PI ** 3
    root = np.sqrt((w0 - 12.0) ** 2 + 4.0 * mu * mu * TWO_PI ** 3)
    if s >= 0.0:
        above = 0.5 * (s + root)
        return product / above, above
    below = 0.5 * (s - root)
    return below, product / below


# ---------------------------------------------------------------------------
# Singular-ball quadrature of threshold integrals
# ---------------------------------------------------------------------------

BALL_RADIUS = 1.2
_PAIRING_TOL = 1e-9
_LAMBDA_COORD = TWO_PI / 3.0


class DenominatorVanishesOutsideBall(ValueError):
    """The threshold integrand's denominator has zeros beyond the singular ball."""


def _reduce(x):
    y = np.mod(x, TWO_PI)
    return np.where(y > np.pi, y - TWO_PI, y)


def _distance(a, b) -> float:
    return float(np.linalg.norm(_reduce(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))))


def _settled_riemann_integral(f, tol: float, n: int = 16, max_n: int = 512):
    """`left_riemann_integral` on grids doubled until two values agree to `tol`."""
    prev = left_riemann_integral(f, n)
    while n < max_n:
        n *= 2
        cur = left_riemann_integral(f, n)
        if abs(cur - prev) <= max(tol * abs(cur), 1e-12):
            return cur, abs(cur - prev)
        prev = cur
    raise RuntimeError("Riemann sums did not settle by a %d^3 grid" % n)


def _radial_bump(r, delta: float):
    """C-infinity cutoff: 1 for r <= delta/2, 0 for r >= delta, monotone between."""
    u = (delta - np.asarray(r, dtype=float)) / (0.5 * delta)
    with np.errstate(over="ignore", under="ignore"):
        a = np.where(u > 0.0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
        b = np.where(u < 1.0, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
    return a / (a + b)


def _ball_quadrature(v, den, t0, delta: float, n_r: int, n_mu: int, n_phi: int) -> float:
    # radial integration split at delta/2 where the cutoff starts; on the
    # inner panel the integrand is analytic in r (the r^2 volume factor
    # cancels the quadratic denominator zero), so Gauss converges fast
    mu, wmu = np.polynomial.legendre.leggauss(n_mu)
    phi = (np.arange(n_phi) + 0.5) * (TWO_PI / n_phi)
    wphi = TWO_PI / n_phi
    st = np.sqrt(np.maximum(0.0, 1.0 - mu * mu))
    ux = st[:, None] * np.cos(phi)[None, :]
    uy = st[:, None] * np.sin(phi)[None, :]
    uz = np.broadcast_to(mu[:, None], ux.shape)

    xr, wr = np.polynomial.legendre.leggauss(n_r)
    total = 0.0
    for a, b in ((0.0, 0.5 * delta), (0.5 * delta, delta)):
        r = 0.5 * (b - a) * xr + 0.5 * (a + b)
        wr_scaled = 0.5 * (b - a) * wr
        px = t0[0] + r[:, None, None] * ux[None, :, :]
        py = t0[1] + r[:, None, None] * uy[None, :, :]
        pz = t0[2] + r[:, None, None] * uz[None, :, :]
        d = np.asarray(den(px, py, pz), dtype=float)
        vv = np.broadcast_to(np.asarray(v.evaluate(px, py, pz), dtype=float), px.shape)
        chi = _radial_bump(r, delta)
        weight = (wr_scaled * chi * r * r)[:, None, None] * wmu[None, :, None] * wphi
        total += float(np.sum(vv * vv / d * weight))
    return total


def integrate_threshold(v, k, singular_point, sign: str, radius: float = BALL_RADIUS, tol: float = 1e-8):
    """Threshold integral of v^2 over a denominator with one quadratic zero.

    sign="min" computes int v(t)^2 / eps(t) dt (lower threshold; requires
    k and singular point at the origin).  sign="max" computes
    int v(t)^2 / (9 - eps(k+t) - eps(t)) dt (upper threshold; requires k
    equal to the singular point and equal to one of the eight Lambda
    momenta).  Any other pairing has denominator zeros outside the
    singular ball and raises DenominatorVanishesOutsideBall.

    The ball of `radius` around the singular point is integrated in
    spherical coordinates (the volume element cancels the singularity);
    its complement, smoothed by a radial partition of unity, by Riemann
    sums.  `v` needs only `evaluate(px, py, pz)` on arrays.
    Returns (value, error_estimate); raises RuntimeError when either
    part misses `tol`.
    """
    if sign not in ("min", "max"):
        raise ValueError("sign must be 'min' or 'max'")
    k = np.asarray(k, dtype=float)
    t0 = np.asarray(singular_point, dtype=float)
    origin = np.zeros(3)

    if sign == "min":
        if _distance(k, origin) > _PAIRING_TOL or _distance(t0, origin) > _PAIRING_TOL:
            raise DenominatorVanishesOutsideBall(
                "sign='min' is only singular-ball-clean for k = 0 with the singular "
                "point at the origin"
            )

        def den(px, py, pz):
            return 3.0 - np.cos(px) - np.cos(py) - np.cos(pz)

    else:
        on_lambda = all(abs(abs(float(c)) - _LAMBDA_COORD) <= _PAIRING_TOL for c in _reduce(k))
        if not on_lambda or _distance(t0, k) > _PAIRING_TOL:
            raise DenominatorVanishesOutsideBall(
                "sign='max' is only singular-ball-clean for k on the Lambda set "
                "with the singular point at k itself"
            )
        k1, k2, k3 = k

        def den(px, py, pz):
            return (
                3.0
                + np.cos(k1 + px)
                + np.cos(px)
                + np.cos(k2 + py)
                + np.cos(py)
                + np.cos(k3 + pz)
                + np.cos(pz)
            )

    seen_min_den = [math.inf]

    def f_complement(px, py, pz):
        r = np.sqrt(_reduce(px - t0[0]) ** 2 + _reduce(py - t0[1]) ** 2 + _reduce(pz - t0[2]) ** 2)
        w = 1.0 - _radial_bump(r, radius)
        live = w > 1e-12
        d = np.asarray(den(px, py, pz), dtype=float)
        if np.any(live):
            seen_min_den[0] = min(seen_min_den[0], float(np.min(np.where(live, np.abs(d), math.inf))))
        vv = np.asarray(v.evaluate(px, py, pz), dtype=float)
        return np.where(live, w * vv * vv / np.where(live, d, 1.0), 0.0)

    complement, complement_err = _settled_riemann_integral(f_complement, tol)
    if seen_min_den[0] < 1e-10:
        raise DenominatorVanishesOutsideBall(
            "denominator reaches %.3g outside the singular ball" % seen_min_den[0]
        )

    ball_coarse = _ball_quadrature(v, den, t0, radius, 24, 24, 48)
    ball_fine = _ball_quadrature(v, den, t0, radius, 32, 32, 64)
    ball_err = abs(ball_fine - ball_coarse)
    value = complement + ball_fine
    if ball_err > max(tol * abs(value), 1e-12):
        raise RuntimeError("ball quadrature moved by %.3g between its two rules" % ball_err)
    return value, complement_err + ball_err


# ---------------------------------------------------------------------------
# Shell-slope probe of the local exponent at a threshold
# ---------------------------------------------------------------------------


def l2_membership_probe(v, point):
    """Estimate whether f1 = v / (w1(k, .) - w1(k, k)) is square-integrable near k.

    `point` is the singular momentum k: the origin (lower threshold) or a
    Lambda momentum (upper threshold), where w1(k, q) - w1(k, k) has its
    quadratic zero at q = k.  Integrates |f1|^2 over 11 dyadic shells around
    k with outer radii (1.2 / H) 2^{-j}, H the highest harmonic of v (at
    least 1), and fits the log-log slope s of shell integral against outer
    radius.  A local power law |f1| ~ r^{theta - 2} gives s = 2 theta - 1,
    so s = -1 / +1 / +3 for theta = 0 / 1 / 2; membership in L^2 is s > 0.1
    (divergent harmonic sum exactly at s = 0).  Returns (theta, in_l2) with
    theta = (s + 1)/2.  Raises ValueError for v = 0 and RuntimeError when
    the fit residual shows no clean power law (high orders, where the
    expanded sum for v loses its small values to round-off).  `v` needs
    `terms` and `evaluate(px, py, pz)` on arrays.
    """
    if not v.terms:
        raise ValueError("the coupling function vanishes identically")
    k = np.asarray(point, dtype=float)
    harmonic = max(1, max(abs(n) for mode, _ in v.terms for n in mode))

    def den(qx, qy, qz):
        # w1(k, q) - w1(k, k) = sum_j cos 2k_j + cos k_j - cos(k_j + q_j) - cos q_j
        return sum(
            np.cos(2.0 * kj) + np.cos(kj) - np.cos(kj + qj) - np.cos(qj)
            for kj, qj in zip(k, (qx, qy, qz))
        )

    radii = (1.2 / harmonic) * 0.5 ** np.arange(12)
    n_r, n_mu, n_phi = 12, 16, 32
    xr, wr = np.polynomial.legendre.leggauss(n_r)
    xm, wm = np.polynomial.legendre.leggauss(n_mu)
    phi = (np.arange(n_phi) + 0.5) * (TWO_PI / n_phi)
    wphi = TWO_PI / n_phi
    st = np.sqrt(np.maximum(0.0, 1.0 - xm * xm))
    ux = st[:, None] * np.cos(phi)[None, :]
    uy = st[:, None] * np.sin(phi)[None, :]
    uz = np.broadcast_to(xm[:, None], ux.shape)

    shells = []
    for r_out, r_in in zip(radii[:-1], radii[1:]):
        r = 0.5 * (r_out - r_in) * xr + 0.5 * (r_out + r_in)
        wr_s = 0.5 * (r_out - r_in) * wr
        qx = k[0] + r[:, None, None] * ux[None, :, :]
        qy = k[1] + r[:, None, None] * uy[None, :, :]
        qz = k[2] + r[:, None, None] * uz[None, :, :]
        vv = np.broadcast_to(np.asarray(v.evaluate(qx, qy, qz), dtype=float), qx.shape)
        f1_sq = (vv / den(qx, qy, qz)) ** 2
        weight = (wr_s * r * r)[:, None, None] * wm[None, :, None] * wphi
        shells.append(float(np.sum(f1_sq * weight)))

    shells = np.array(shells)
    if np.any(shells <= 0.0):
        raise RuntimeError("shell integrals are not positive; no power law to fit")
    x = np.log(radii[:-1])
    y = np.log(shells)
    slope, intercept = np.polyfit(x, y, 1)
    rms = float(np.sqrt(np.mean((slope * x + intercept - y) ** 2)))
    if rms > 0.2:
        raise RuntimeError("log-log shell fit residual %.3g exceeds 0.2" % rms)
    return 0.5 * (float(slope) + 1.0), bool(slope > 0.1)
