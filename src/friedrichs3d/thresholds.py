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

The nine thresholds are indexed by t: 0 is the origin and i in 1..8 the
i-th Lambda point.  All nine integrals come from one cached kernel, and
everything below works on t.  The public functions check a Lambda index
i, or parse a designator 'origin' / 'lambda:<i>', once on entry.

At the critical coupling the threshold solution psi = (1, f1) with
f1(q) = -mu v(q) / (w1(k, q) - z0) is square-integrable iff v vanishes
at the singular point.  The verdict reads that dichotomy off |v| at the
point, which counts as zero below 1e-12 times the sum of |coefficients|
of v, so the verdict does not change when v is scaled.  The report's
local exponent is the exact vanishing order q of v there, read from
exact derivatives of the trigonometric polynomial: |f1| ~ r^{q-2} near
the point, so f1 is in L^2 iff q >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .determinant import ModelParams
from .lattice import ORIGIN, lambda_point, lambda_points, threshold_point
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
# one request works on one v: fresh v must not pile up in the cache
_CACHE_SIZE = 4
# per threshold index t (0 the origin, i the i-th Lambda point): the
# side's name, g0, and the factor j / threshold integral
_CONVENTION = (("lower", 0.0, 0.5),) + (("upper", 9.0, -1.0),) * 8


class DomainError(ValueError):
    """The requested critical coupling does not exist for this gamma."""


class ZeroCoupling(ValueError):
    """The threshold integral vanishes (v is trivial), no critical coupling."""


def _finite(value: float, what: str) -> float:
    """value, or RuntimeError when it is not finite.

    All three axes are free at k = 0 and on Lambda, so every threshold
    quantity is finite in exact arithmetic: a non-finite one overflowed.
    """
    if not math.isfinite(value):
        raise RuntimeError("the %s is %r in floating point" % (what, value))
    return value


@lru_cache(maxsize=_CACHE_SIZE)
def _threshold_integrals(v: VFunction) -> tuple:
    """The nine threshold integrals by index t, from one kernel over the nine momenta."""
    kernel = ResolventKernel(v, (ORIGIN,) + lambda_points())
    # one row per momentum at its threshold: the lower edge at the origin,
    # the upper edge on Lambda; both edge limits sit at delta = 0.  An
    # overflow comes out non-finite and is refused below
    fiber = np.arange(9)
    values = kernel.integrals(2 * fiber + (fiber > 0), np.zeros(9)).tolist()
    values[0] *= 2.0  # w1(0, .) = 2 eps, so int v^2/eps is twice the lower edge limit
    return tuple(
        _finite(x, "%s threshold integral" % ("lambda" if t else "origin")) for t, x in enumerate(values)
    )


def threshold_integral(v: VFunction, which: str) -> float:
    """Cached threshold integral for 'origin' or 'lambda:<i>'.

    I_min = int v^2/eps at the origin and I_max = int v^2/(9 - eps(k+t) -
    eps(t)) at a Lambda point k, both exact edge limits of the fiber's
    resolvent kernel (z = 0 at k = 0, z = 27/2 on Lambda).
    """
    return _threshold_integrals(v)[threshold_point(which)[0]]


def _threshold_terms(v: VFunction, t: int):
    """(g0, j) of Delta_thr = (gamma - g0) - mu^2 j at threshold index t."""
    _, g0, scale = _CONVENTION[t]
    return g0, scale * _threshold_integrals(v)[t]


def fredholm_delta_threshold(params: ModelParams, v: VFunction, which: str) -> float:
    """Determinant exactly at a threshold: z = 0 at k = 0, or z = 27/2 at k in Lambda.

    gamma - (mu^2/2) int v^2/eps at the origin and gamma - 9 +
    mu^2 int v^2/(9 - eps(k+t) - eps(t)) at a Lambda point.
    """
    g0, j = _threshold_terms(v, threshold_point(which)[0])
    return (params.gamma - g0) - params.mu ** 2 * j


def _mu_critical(gamma: float, v: VFunction, t: int) -> float:
    """The mu = sqrt((gamma - g0)/j) where Delta_thr vanishes at threshold index t.

    Raises ValueError for a non-finite gamma and DomainError when gamma
    lies on the wrong side of g0 (both decided before any integral), then
    ZeroCoupling when j vanishes.
    """
    side, g0, scale = _CONVENTION[t]
    if not math.isfinite(gamma):
        raise ValueError("gamma must be finite, got %r" % gamma)
    sign = math.copysign(1.0, scale)
    if not sign * (gamma - g0) > 0.0:
        raise DomainError(
            "the %s critical coupling needs gamma %s %g, got %.17g"
            % (side, ">" if sign > 0.0 else "<", g0, gamma)
        )
    _, j = _threshold_terms(v, t)
    if not sign * j > 0.0:
        raise ZeroCoupling("the %s threshold integral vanishes; no critical coupling" % side)
    # the signs agree (checked above); a quotient of roots does not underflow
    return _finite(math.sqrt(abs(gamma - g0)) / math.sqrt(abs(j)), "%s critical coupling" % side)


def mu_left(gamma: float, v: VFunction) -> float:
    """Critical coupling for the lower threshold; needs gamma > 0."""
    return _mu_critical(gamma, v, 0)


def mu_right(gamma: float, i: int, v: VFunction) -> float:
    """Critical coupling for the upper threshold at the i-th Lambda point; gamma < 9."""
    lambda_point(i)  # refuses an i that is not an integer in 1..8
    return _mu_critical(gamma, v, i)


def gamma_star(i: int, v: VFunction) -> float:
    """The gamma where mu_left and mu_right coincide: 9 I_min / (2 I_max + I_min)."""
    lambda_point(i)  # refuses an i that is not an integer in 1..8
    g_lo, j_lo = _threshold_terms(v, 0)
    g_hi, j_hi = _threshold_terms(v, i)
    if not (j_lo > 0.0 and j_hi < 0.0):
        raise ZeroCoupling("threshold integrals vanish; no coupling crossover")
    return _finite((g_hi * j_lo - g_lo * j_hi) / (j_lo - j_hi), "coupling crossover gamma_star")


@dataclass(frozen=True)
class CriticalCouplings:
    """All critical data at one gamma; entries are None outside their domain."""

    gamma: float
    mu_l: float | None
    mu_r: tuple
    gamma_star: tuple


def critical_couplings(gamma: float, v: VFunction) -> CriticalCouplings:
    def coupling(t):
        try:
            return _mu_critical(gamma, v, t)
        except DomainError:
            return None

    mu_l = coupling(0)
    mu_r = tuple(coupling(i) for i in range(1, 9))
    stars = tuple(gamma_star(i, v) for i in range(1, 9))
    return CriticalCouplings(gamma=gamma, mu_l=mu_l, mu_r=mu_r, gamma_star=stars)


# ---------------------------------------------------------------------------
# classification at a threshold
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdReport:
    """Outcome of classifying one threshold at given model parameters."""

    point: str
    verdict: str  # "eigenvalue" | "virtual_level" | "none"
    mu_critical: float
    v_at_point: float
    local_exponent: float
    in_l2: bool


def classify_threshold(params: ModelParams, v: VFunction, point: str) -> ThresholdReport:
    """Decide eigenvalue / virtual level / nothing at a threshold.

    At mu equal (to 1e-8 relative) to the matched critical coupling, the
    threshold carries an eigenvalue when v vanishes at the singular point
    and a virtual level (resonance) otherwise; away from criticality the
    verdict is "none".  The local exponent is the exact vanishing order q
    of v at the point (0 when |v| there is not below 1e-12 times the sum
    of |coefficients| of v): f1 = -mu v / (w1 - z0) ~ r^{q-2}, so f1 is
    square-integrable near the point iff q >= 1.
    """
    t, pt = threshold_point(point)
    mu_c = _mu_critical(params.gamma, v, t)
    matched = abs(params.mu - mu_c) <= _MATCH_RTOL * mu_c
    v_at = v(pt)
    vanishes = abs(v_at) < _VANISH_TOL * v._coefficient_bound()
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

    return ThresholdReport(
        point=point,
        verdict=verdict,
        mu_critical=mu_c,
        v_at_point=v_at,
        local_exponent=float(order),
        in_l2=order >= 1,
    )
