"""Critical couplings and threshold classification.

The lower threshold z = 0 (at k = 0) and the upper threshold z = 27/2
(at the eight Lambda momenta) each carry a critical coupling where the
determinant vanishes exactly at the threshold.  At every threshold that
determinant is one expression,

    Delta_thr = (gamma - g0) - mu^2 j,

with g0 = 0 and j = I_min/2 (I_min = int v^2/eps) at the origin, and
g0 = 9 and j = -I_max (I_max = int v^2/(9 - eps(k+t) - eps(t))) at a
Lambda point.  Both integrals are edge limits of the fiber's resolvent
kernel.  The critical coupling mu_c = sqrt((gamma - g0)/j) exists for
gamma > 0 at the origin and gamma < 9 at a Lambda point, and the
crossover gamma_star is where two of them coincide.

At the critical coupling the threshold solution psi = (1, f1) with
f1(q) = -mu v(q) / (w1(k, q) - z0) is square-integrable iff v vanishes
at the singular point.  The verdict reads that dichotomy off |v| at the
point (below 1e-12); the report adds an independent numerical estimate,
shell integrals of |f1|^2 against dyadic radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .determinant import ModelParams
from .lattice import ORIGIN, TorusPoint, lambda_point, reduce_coords, threshold_point
from .quadrature import ResolventKernel
from .vfunction import VFunction

__all__ = [
    "DomainError",
    "ZeroCoupling",
    "FitUnstable",
    "CriticalCouplings",
    "ThresholdReport",
    "fredholm_delta_threshold",
    "mu_left",
    "mu_right",
    "gamma_star",
    "critical_couplings",
    "classify_threshold",
    "l2_membership_probe",
]

_MATCH_RTOL = 1e-8
_VANISH_TOL = 1e-12
# outer radius of the shells of `l2_membership_probe`
_PROBE_RADIUS = 1.2
# one request works on one v, which has nine threshold integrals
_CACHE_SIZE = 9
# per threshold label: the side's name, g0, and the factor j / threshold_integral
_CONVENTION = {"origin": ("lower", 0.0, 0.5), "lambda": ("upper", 9.0, -1.0)}


class DomainError(ValueError):
    """The requested critical coupling does not exist for this gamma."""


class ZeroCoupling(ValueError):
    """The threshold integral vanishes (v is trivial), no critical coupling."""


class FitUnstable(RuntimeError):
    """The shell-integral log-log fit is too far from a power law."""


@lru_cache(maxsize=_CACHE_SIZE)
def _threshold_integral_cached(v: VFunction, label: str, index) -> float:
    if label == "origin":
        # w1(0, .) = 2 eps, so int v^2/eps is twice the lower edge limit
        kernel = ResolventKernel(v, ORIGIN)
        return 2.0 * kernel.integral_below(kernel.m)
    kernel = ResolventKernel(v, lambda_point(index))
    return kernel.integral_above(kernel.M)


def threshold_integral(v: VFunction, which: str) -> float:
    """Cached threshold integral for 'origin' or 'lambda:<i>'.

    I_min = int v^2/eps at the origin and I_max = int v^2/(9 - eps(k+t) -
    eps(t)) at a Lambda point k, both exact edge limits of the fiber's
    resolvent kernel (z = 0 at k = 0, z = 27/2 on Lambda).
    """
    label, index, _ = threshold_point(which)
    return _threshold_integral_cached(v, label, index)


def _threshold_terms(v: VFunction, which: str):
    """(g0, j) of Delta_thr = (gamma - g0) - mu^2 j at a threshold."""
    _, g0, scale = _CONVENTION[threshold_point(which)[0]]
    return g0, scale * threshold_integral(v, which)


def fredholm_delta_threshold(params: ModelParams, v: VFunction, which: str) -> float:
    """Determinant exactly at a threshold: z = 0 at k = 0, or z = 27/2 at k in Lambda.

    gamma - (mu^2/2) int v^2/eps at the origin and gamma - 9 +
    mu^2 int v^2/(9 - eps(k+t) - eps(t)) at a Lambda point.
    """
    g0, j = _threshold_terms(v, which)
    return (params.gamma - g0) - params.mu ** 2 * j


def _mu_critical(gamma: float, v: VFunction, which: str) -> float:
    """The mu = sqrt((gamma - g0)/j) where Delta_thr vanishes.

    Raises DomainError when gamma lies on the wrong side of g0 (decided
    before any integral), then ZeroCoupling when j vanishes.
    """
    side, g0, scale = _CONVENTION[threshold_point(which)[0]]
    sign = math.copysign(1.0, scale)
    if not sign * (gamma - g0) > 0.0:
        raise DomainError(
            "the %s critical coupling needs gamma %s %g, got %.17g"
            % (side, ">" if sign > 0.0 else "<", g0, gamma)
        )
    _, j = _threshold_terms(v, which)
    if not sign * j > 0.0:
        raise ZeroCoupling("the %s threshold integral vanishes; no critical coupling" % side)
    return math.sqrt((gamma - g0) / j)


def mu_left(gamma: float, v: VFunction) -> float:
    """Critical coupling for the lower threshold; needs gamma > 0."""
    return _mu_critical(gamma, v, "origin")


def mu_right(gamma: float, i: int, v: VFunction) -> float:
    """Critical coupling for the upper threshold at the i-th Lambda point; gamma < 9."""
    return _mu_critical(gamma, v, "lambda:%d" % i)


def gamma_star(i: int, v: VFunction) -> float:
    """The gamma where mu_left and mu_right coincide: 9 I_min / (2 I_max + I_min)."""
    g_lo, j_lo = _threshold_terms(v, "origin")
    g_hi, j_hi = _threshold_terms(v, "lambda:%d" % i)
    if not (j_lo > 0.0 and j_hi < 0.0):
        raise ZeroCoupling("threshold integrals vanish; no coupling crossover")
    return (g_hi * j_lo - g_lo * j_hi) / (j_lo - j_hi)


@dataclass(frozen=True)
class CriticalCouplings:
    """All critical data at one gamma; entries are None outside their domain."""

    gamma: float
    mu_l: float | None
    mu_r: tuple
    gamma_star: tuple


def critical_couplings(gamma: float, v: VFunction) -> CriticalCouplings:
    def coupling(which):
        try:
            return _mu_critical(gamma, v, which)
        except DomainError:
            return None

    mu_l = coupling("origin")
    mu_r = tuple(coupling("lambda:%d" % i) for i in range(1, 9))
    stars = tuple(gamma_star(i, v) for i in range(1, 9))
    return CriticalCouplings(gamma=gamma, mu_l=mu_l, mu_r=mu_r, gamma_star=stars)


# ---------------------------------------------------------------------------
# classification at a threshold
# ---------------------------------------------------------------------------


def _denominator_for(label: str, point: TorusPoint):
    """The operator denominator w1 - z0 at the threshold, with its quadratic zero."""
    if label == "origin":

        def den(qx, qy, qz):
            return 2.0 * (3.0 - np.cos(qx) - np.cos(qy) - np.cos(qz))

        return den
    k1, k2, k3 = point.coords

    def den(qx, qy, qz):
        # w1 - 27/2 = eps(k+q) + eps(q) - 9: nonpositive, quadratic zero at q = k
        return -(
            3.0
            + np.cos(k1 + qx)
            + np.cos(qx)
            + np.cos(k2 + qy)
            + np.cos(qy)
            + np.cos(k3 + qz)
            + np.cos(qz)
        )

    return den


def _samples_off_zero_set(v: VFunction, label: str, point: TorusPoint, seed: int, n: int):
    """The first n uniform momenta q with |w1 - z0| >= 1e-6, drawn from `seed`.

    Rows come in blocks from one stream, so they are the momenta a loop
    drawing one q at a time from the same seed would keep.  Returns the
    raw draws (rows), v at their reduced coordinates, and w1 - z0 there.
    """
    den = _denominator_for(label, point)
    rng = np.random.default_rng(seed)
    qs, ds = [np.empty((0, 3))], [np.empty(0)]
    while sum(len(d) for d in ds) < n:
        q = rng.uniform(-np.pi, np.pi, size=(n, 3))
        d = den(q[:, 0], q[:, 1], q[:, 2])
        keep = np.abs(d) >= 1e-6  # skip the measure-zero-ish neighborhood of the zero set
        qs.append(q[keep])
        ds.append(d[keep])
    q = np.concatenate(qs)[:n]
    d = np.concatenate(ds)[:n]
    p = reduce_coords(q)
    vv = np.broadcast_to(np.asarray(v.evaluate(p[:, 0], p[:, 1], p[:, 2]), dtype=float), (n,))
    return q, vv, d


@dataclass(frozen=True)
class ThresholdReport:
    """Outcome of classifying one threshold at given model parameters."""

    point: str
    verdict: str  # "eigenvalue" | "virtual_level" | "none"
    mu_critical: float
    v_at_point: float
    local_exponent: float
    in_l2: bool
    f0: float
    f1_samples: tuple


def l2_membership_probe(v: VFunction, point: str):
    """Estimate whether f1 = -mu v / (w1 - z0) is square-integrable near the threshold.

    mu only scales every shell integral by mu^2, so the probe drops it.
    Integrates |v / (w1 - z0)|^2 over 11 dyadic shells with outer radii
    1.2 * 2^{-j} and fits the log-log slope s of shell integral against
    outer radius.  A power-law local behavior |f1| ~ r^{theta - 1} gives
    s = 2 theta - 1, so s = -1 / +1 / +3 for theta = 0 / 1 / 2; membership
    in L^2 is s > 0.1 (divergent harmonic sum exactly at s = 0).  Returns
    (local_exponent, in_l2) with local_exponent = (s + 1)/2.  Raises
    FitUnstable when the fit residual shows no clean power law.
    """
    label, _, pt = threshold_point(point)
    if v.is_zero:
        raise ZeroCoupling("the coupling function vanishes identically")
    den = _denominator_for(label, pt)
    t0 = pt.to_array()

    radii = _PROBE_RADIUS * 0.5 ** np.arange(12)
    n_r, n_mu, n_phi = 12, 16, 32
    xr, wr = np.polynomial.legendre.leggauss(n_r)
    xm, wm = np.polynomial.legendre.leggauss(n_mu)
    phi = (np.arange(n_phi) + 0.5) * (2.0 * np.pi / n_phi)
    wphi = 2.0 * np.pi / n_phi
    st = np.sqrt(np.maximum(0.0, 1.0 - xm * xm))
    ux = st[:, None] * np.cos(phi)[None, :]
    uy = st[:, None] * np.sin(phi)[None, :]
    uz = np.broadcast_to(xm[:, None], ux.shape)

    shells = []
    for r_out, r_in in zip(radii[:-1], radii[1:]):
        r = 0.5 * (r_out - r_in) * xr + 0.5 * (r_out + r_in)
        wr_s = 0.5 * (r_out - r_in) * wr
        qx = t0[0] + r[:, None, None] * ux[None, :, :]
        qy = t0[1] + r[:, None, None] * uy[None, :, :]
        qz = t0[2] + r[:, None, None] * uz[None, :, :]
        d = np.asarray(den(qx, qy, qz), dtype=float)
        vv = np.broadcast_to(np.asarray(v.evaluate(qx, qy, qz), dtype=float), qx.shape)
        f1_sq = (vv / d) ** 2
        weight = (wr_s * r * r)[:, None, None] * wm[None, :, None] * wphi
        shells.append(float(np.sum(f1_sq * weight)))

    shells = np.array(shells)
    if np.any(shells <= 0.0):
        raise FitUnstable("shell integrals are not positive; no power law to fit")
    x = np.log(radii[:-1])
    y = np.log(shells)
    slope, intercept = np.polyfit(x, y, 1)
    rms = float(np.sqrt(np.mean((slope * x + intercept - y) ** 2)))
    if rms > 0.2:
        raise FitUnstable("log-log shell fit residual %.3g exceeds 0.2" % rms)
    local_exponent = 0.5 * (float(slope) + 1.0)
    return local_exponent, bool(slope > 0.1)


def classify_threshold(params: ModelParams, v: VFunction, point: str) -> ThresholdReport:
    """Decide eigenvalue / virtual level / nothing at a threshold.

    At mu equal (to 1e-8 relative) to the matched critical coupling, the
    threshold carries an eigenvalue when v vanishes at the singular point
    and a virtual level (resonance) otherwise; away from criticality the
    verdict is "none".  The report carries the candidate solution data:
    f0 = 1 and pointwise samples of f1 = -mu v / (w1 - z0).
    """
    label, _, pt = threshold_point(point)
    mu_c = _mu_critical(params.gamma, v, point)
    matched = abs(params.mu - mu_c) <= _MATCH_RTOL * mu_c
    v_at = v(pt)
    local_exponent, in_l2 = l2_membership_probe(v, point)

    if not matched:
        verdict = "none"
    elif abs(v_at) < _VANISH_TOL:
        verdict = "eigenvalue"
    else:
        verdict = "virtual_level"

    q, vv, d = _samples_off_zero_set(v, label, pt, 12345, 100)
    f1 = -params.mu * vv / d
    samples = [(TorusPoint(row), float(f)) for row, f in zip(q, f1)]

    return ThresholdReport(
        point=point,
        verdict=verdict,
        mu_critical=mu_c,
        v_at_point=v_at,
        local_exponent=local_exponent,
        in_l2=in_l2,
        f0=1.0,
        f1_samples=tuple(samples),
    )
