"""Independent reference computations for the benchmark's output checks.

Nothing here calls into the friedrichs3d solver, kernel or quadrature
code.  The closed forms are re-derived from the model's definitions:

* fiber band edges m(k), M(k) by per-axis extremisation of
  w1(k, p) = eps(k) + sum_j [2 - 2 cos(k_j/2) cos(p_j + k_j/2)];
* the determinant Delta(k, z) = w0 - z - mu^2 int v^2/(w1 - z) by a plain
  periodic trapezoid sum on a left-endpoint grid, used only at distances
  from the band where that sum is accurate to about 1e-12;
* Watson's constant from the Glasser-Zucker Gamma-product closed form
  (mpmath), which gives int 1/eps exactly;
* threshold integrals int v^2/den as a finite sum of lattice Green
  function values g(m), each a one-dimensional Laplace-Bessel integral
  done by Gauss-Legendre in log s (about 1e-12), and, as a coarse second
  route, the test suite's graded polar quadrature (about 1e-4).

The test suite's ``tests/oracles.py`` supplies ``pi_point_roots`` and
``polar_cell_integral``; it is read from the checkout being measured.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi
ROOT = Path(__file__).resolve().parent.parent
_TESTS = ROOT / "tests"
if str(_TESTS) not in sys.path:
    sys.path.append(str(_TESTS))

import oracles  # noqa: E402  (tests/oracles.py of the checkout)

LAMBDA_COORD = TWO_PI / 3.0


# ---------------------------------------------------------------------------
# form factors: the benchmark writes v as a sum of products of per-axis
# factors, so it can evaluate v without the package's parser
# ---------------------------------------------------------------------------

class FormFactor:
    """v = sum_t coeff_t * prod_j f_tj(p_j) with f in {1, cos(n p), sin(n p)}.

    `terms` is a list of (coeff, ((kind, n, axis), ...)); `expression()`
    prints it in the CLI's syntax.  Kept separate from the package's
    VFunction so the checks share no code with the parser.
    """

    def __init__(self, terms):
        self.terms = [(float(c), tuple(f)) for c, f in terms]

    def expression(self) -> str:
        parts = []
        for c, factors in self.terms:
            text = "%.17g" % c
            for kind, n, axis in factors:
                arg = "p%d" % (axis + 1) if n == 1 else "%d*p%d" % (n, axis + 1)
                text += "*%s(%s)" % (kind, arg)
            parts.append(text)
        return " + ".join(parts).replace("+ -", "- ")

    def evaluate(self, p1, p2, p3):
        coords = (p1, p2, p3)
        total = 0.0
        for c, factors in self.terms:
            term = c
            for kind, n, axis in factors:
                x = coords[axis]
                term = term * (np.cos(n * x) if kind == "cos" else np.sin(n * x))
            total = total + term
        return total

    def at(self, point) -> float:
        return float(self.evaluate(*[float(x) for x in point]))

    @property
    def is_constant(self) -> bool:
        return all(not factors for _, factors in self.terms)


# ---------------------------------------------------------------------------
# closed-form band edges and the trapezoid determinant
# ---------------------------------------------------------------------------


def reduce(x: float) -> float:
    y = math.fmod(x, TWO_PI)
    if y <= -math.pi:
        y += TWO_PI
    elif y > math.pi:
        y -= TWO_PI
    return y


def eps(k) -> float:
    return sum(1.0 - math.cos(x) for x in k)


def band_edges(k):
    """(m, M): eps(k) + sum_j 2 (1 -/+ cos(k_j/2)) with k_j reduced to (-pi, pi]."""
    c = [math.cos(reduce(x) / 2.0) for x in k]
    e = eps(k)
    return e + sum(2.0 * (1.0 - cj) for cj in c), e + sum(2.0 * (1.0 + cj) for cj in c)


def strip_width(k, dist: float) -> float:
    """Analyticity half-width of p -> 1/(w1(k, p) - z) at distance `dist` from the band."""
    cmax = max(abs(math.cos(reduce(x) / 2.0)) for x in k)
    if cmax < 1e-12:
        return math.inf
    return math.acosh(1.0 + dist / (2.0 * cmax))


def trapezoid_points(k, dist: float, digits: float = 30.0) -> int:
    """Points per axis so the trapezoid error e^{-n sigma} stays below e^{-digits}."""
    sigma = strip_width(k, dist)
    n = 16 if math.isinf(sigma) else int(math.ceil(digits / sigma))
    return max(16, min(160, n + (n % 2)))


class TrapezoidDeterminant:
    """Delta(k, z) by a left-endpoint trapezoid sum over an n^3 grid.

    Shares no code with the package: it tabulates v^2 and w1 on the grid
    once and sums v^2/(w1 - z) per z.  Accurate where z keeps a distance
    `dist` from the band that `trapezoid_points` was sized for.
    """

    def __init__(self, v: FormFactor, k, gamma: float, mu: float, n: int):
        self.k = tuple(float(x) for x in k)
        self.w0 = eps(self.k) + gamma
        self.mu2 = mu * mu
        g = -math.pi + np.arange(n) * (TWO_PI / n)
        px, py, pz = g[:, None, None], g[None, :, None], g[None, None, :]
        vv = np.broadcast_to(v.evaluate(px, py, pz), (n, n, n))
        self.v2 = np.ascontiguousarray(vv * vv)
        axes = [2.0 - np.cos(kj + g) - np.cos(g) for kj in self.k]
        self.w1 = eps(self.k) + axes[0][:, None, None] + axes[1][None, :, None] + axes[2][None, None, :]
        self.h3 = (TWO_PI / n) ** 3

    def integral(self, z: float) -> float:
        return float(np.sum(self.v2 / (self.w1 - z))) * self.h3

    def delta(self, z: float) -> float:
        return self.w0 - z - self.mu2 * self.integral(z)


def brackets_root(det: TrapezoidDeterminant, z: float) -> bool:
    """Delta is strictly decreasing outside the band: + just below a root, - just above.

    The probes sit 1e-7 max(1, |z|) either side, so a root off by 1e-6
    relative is rejected.
    """
    eta = 1e-7 * max(1.0, abs(z))
    return det.delta(z - eta) > 0.0 and det.delta(z + eta) < 0.0


def pi_point_roots(gamma: float, mu: float, c: float):
    """Exact roots at k = (pi, pi, pi) for constant v = c (the test oracle at mu |c|)."""
    return tuple(float(r) for r in oracles.pi_point_roots(gamma, mu * abs(c)))


# ---------------------------------------------------------------------------
# threshold integrals
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def watson_constant() -> float:
    """Glasser-Zucker: sqrt(6)/(32 pi^3) Gamma(1/24) Gamma(5/24) Gamma(7/24) Gamma(11/24)."""
    import mpmath as mp

    mp.mp.dps = 30
    g = mp.gamma
    value = mp.sqrt(6) / (32 * mp.pi ** 3) * g(mp.mpf(1) / 24) * g(mp.mpf(5) / 24)
    value *= g(mp.mpf(7) / 24) * g(mp.mpf(11) / 24)
    return float(value)


def inverse_eps_integral() -> float:
    """int over the torus of 1/eps = (2pi)^3 W / 3; the same value at every Lambda point."""
    return TWO_PI ** 3 * watson_constant() / 3.0


def lambda_point(i: int):
    """The i-th of the eight points (+-2pi/3)^3, lexicographic in the signs (- before +)."""
    signs = [(s1, s2, s3) for s1 in (-1.0, 1.0) for s2 in (-1.0, 1.0) for s3 in (-1.0, 1.0)]
    return tuple(s * LAMBDA_COORD for s in signs[i - 1])


def _threshold_denominator(point):
    """den(q) with a quadratic zero at `point`: eps(q) at the origin, 9 - eps(k+q) - eps(q) on Lambda."""
    if all(x == 0.0 for x in point):
        return lambda q: 3.0 - np.cos(q[..., 0]) - np.cos(q[..., 1]) - np.cos(q[..., 2])
    k = point

    def den(q):
        return 3.0 + sum(np.cos(k[j] + q[..., j]) + np.cos(q[..., j]) for j in range(3))

    return den


_GREEN_S_END = 1.0e6


def _green_function(m) -> float:
    """g(m) = (2pi)^-3 int cos(m.t)/eps(t) dt = int_0^inf prod_j ive(|m_j|, s) ds.

    Gauss-Legendre in u = log s on unit panels over [-40, log 1e6], where
    the integrand is analytic, plus the two-term asymptotic tail
    (2 pi s)^{-3/2} (1 - a/s), a = sum_j (4 m_j^2 - 1)/8, beyond s = 1e6.
    """
    from scipy.special import ive

    x, w = np.polynomial.legendre.leggauss(24)
    edges = np.arange(-40.0, math.log(_GREEN_S_END) + 1.0, 1.0)
    edges[-1] = math.log(_GREEN_S_END)
    a, b = edges[:-1, None], edges[1:, None]
    u = (0.5 * (b - a) * x + 0.5 * (a + b)).ravel()
    weights = (0.5 * (b - a) * w).ravel()
    s = np.exp(u)
    f = np.ones_like(s)
    for mj in m:
        f = f * ive(abs(int(mj)), s)
    body = float(np.sum(f * s * weights))
    lead = TWO_PI ** -1.5
    coef = sum(4.0 * mj * mj - 1.0 for mj in m) / 8.0
    tail = lead * (2.0 * _GREEN_S_END ** -0.5 - coef * (2.0 / 3.0) * _GREEN_S_END ** -1.5)
    return body + tail


def threshold_integral(v: FormFactor, point) -> float:
    """int v^2/den over the torus, den vanishing quadratically at `point`.

    With den = eps(t - point) (true at the origin and on Lambda), this is
    (2pi)^3 sum_m Re(beta_m e^{i m.point}) g(m), beta the exact Fourier
    coefficients of v^2 (FFT on a 16^3 grid, alias-free for harmonics up
    to 7) and g the lattice Green function of `_green_function`.
    """
    n = 16
    g = np.arange(n) * (TWO_PI / n)
    vals = np.broadcast_to(v.evaluate(g[:, None, None], g[None, :, None], g[None, None, :]), (n, n, n))
    beta = np.fft.fftn(vals * vals) / n ** 3
    freqs = np.fft.fftfreq(n, 1.0 / n).astype(int)
    total = 0.0
    for idx in zip(*np.nonzero(np.abs(beta) > 1e-14)):
        m = tuple(int(freqs[i]) for i in idx)
        phase = complex(beta[idx]) * complex(math.cos(sum(a * b for a, b in zip(m, point))),
                                             math.sin(sum(a * b for a, b in zip(m, point))))
        total += phase.real * _green_function(m)
    return TWO_PI ** 3 * total


def polar_threshold_integral(v: FormFactor, point) -> float:
    """The same integral by the test suite's graded polar quadrature (about 1e-4)."""
    den = _threshold_denominator(point)

    def integrand(q):
        vv = v.evaluate(q[..., 0], q[..., 1], q[..., 2])
        return vv * vv / den(q)

    return oracles.polar_cell_integral(integrand, point)[0]
