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
point (below 1e-12).  The report's local exponent is the exact vanishing
order q of v there, read from exact derivatives of the trigonometric
polynomial: |f1| ~ r^{q-2} near the point, so f1 is in L^2 iff q >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .determinant import ModelParams
from .lattice import ORIGIN, lambda_point, reduce_coords, threshold_point
from .quadrature import ResolventKernel
from .vfunction import VFunction

__all__ = [
    "DomainError",
    "ZeroCoupling",
    "CriticalCouplings",
    "ThresholdReport",
    "fredholm_delta_threshold",
    "mu_left",
    "mu_right",
    "gamma_star",
    "critical_couplings",
    "classify_threshold",
]

_MATCH_RTOL = 1e-8
_VANISH_TOL = 1e-12
# one request works on one v, which has nine threshold integrals
_CACHE_SIZE = 9
# per threshold label: the side's name, g0, and the factor j / threshold_integral
_CONVENTION = {"origin": ("lower", 0.0, 0.5), "lambda": ("upper", 9.0, -1.0)}


class DomainError(ValueError):
    """The requested critical coupling does not exist for this gamma."""


class ZeroCoupling(ValueError):
    """The threshold integral vanishes (v is trivial), no critical coupling."""


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
    # the signs agree (checked above); a quotient of roots does not underflow
    return math.sqrt(abs(gamma - g0)) / math.sqrt(abs(j))


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


def _denominator_for(label: str, point: tuple):
    """The operator denominator w1 - z0 at the threshold, with its quadratic zero."""
    if label == "origin":

        def den(qx, qy, qz):
            return 2.0 * (3.0 - np.cos(qx) - np.cos(qy) - np.cos(qz))

        return den
    k1, k2, k3 = point

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


def _samples_off_zero_set(v: VFunction, label: str, point: tuple, seed: int, n: int):
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
    f1_samples: tuple  # (reduced momentum as a 3-tuple, f1 there) pairs


def classify_threshold(params: ModelParams, v: VFunction, point: str) -> ThresholdReport:
    """Decide eigenvalue / virtual level / nothing at a threshold.

    At mu equal (to 1e-8 relative) to the matched critical coupling, the
    threshold carries an eigenvalue when v vanishes at the singular point
    and a virtual level (resonance) otherwise; away from criticality the
    verdict is "none".  The local exponent is the exact vanishing order q
    of v at the point (0 when |v| there is not below 1e-12): f1 ~ r^{q-2},
    so f1 is square-integrable near the point iff q >= 1.  The report
    carries the candidate solution data: f0 = 1 and pointwise samples of
    f1 = -mu v / (w1 - z0).
    """
    label, _, pt = threshold_point(point)
    mu_c = _mu_critical(params.gamma, v, point)
    matched = abs(params.mu - mu_c) <= _MATCH_RTOL * mu_c
    v_at = v(pt)
    vanishes = abs(v_at) < _VANISH_TOL
    # the q = 0 test of `vanishing_order` is looser, so a vanishing v has order >= 1
    order = v.vanishing_order(pt) if vanishes else 0
    if order is None:
        raise ZeroCoupling("v vanishes to every order at %s; it is zero to round-off" % point)

    if not matched:
        verdict = "none"
    elif vanishes:
        verdict = "eigenvalue"
    else:
        verdict = "virtual_level"

    q, vv, d = _samples_off_zero_set(v, label, pt, 12345, 100)
    f1 = -params.mu * vv / d
    samples = [(tuple(k), f) for k, f in zip(reduce_coords(q).tolist(), f1.tolist())]

    return ThresholdReport(
        point=point,
        verdict=verdict,
        mu_critical=mu_c,
        v_at_point=v_at,
        local_exponent=float(order),
        in_l2=order >= 1,
        f0=1.0,
        f1_samples=tuple(samples),
    )
