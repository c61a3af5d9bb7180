"""Integration on the momentum torus.

Two production routes for the resolvent integral v^2/(w1(k, .) - z),
z outside the fiber band:

* `ResolventKernel`: exact reduction to a 1d Laplace transform of
  modified Bessel products, accurate to machine precision uniformly down
  to the band edge, including the edge limit itself.  The one kernel
  class, for one momentum or many, with one evaluation entry,
  `integrals`, on its (fiber, band edge) rows: the discrete-spectrum
  solver runs on them, since root-finding needs evaluations exactly at
  the edges, and the threshold integrals are their edge limits at k = 0
  and on Lambda.  Every row is one formula: the closed-form tails give
  the edge limits, and the build decides which leading weights vanish.
  Its Bessel functions, and the erfc and E1 of its tails, come from
  `_special`, which needs numpy and math only.  Each fiber's Bessel
  products are formed once, on construction, and serve both of its band
  edges.
* `resolvent_integral_2d`: the t3 integral in closed form, the
  remainder on a midpoint grid in (t1, t2) graded toward the band edge,
  with grid doubling.  It shares nothing with the kernel, so it audits
  the solver's roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _special
from .lattice import TWO_PI, band_endpoints, epsilon, reduce_coords
from .vfunction import VFunction

__all__ = [
    "IntegralResult",
    "NonConvergence",
    "resolvent_integral_2d",
    "ResolventKernel",
]


class NonConvergence(RuntimeError):
    """Grid refinement exhausted its doublings without meeting tolerance."""


# the audit grid: points per axis of the coarsest level, the successive-
# refinement relative tolerance, and the number of doublings allowed
_BASE_GRID = 16
_REL_TOL = 1e-8
_MAX_REFINEMENTS = 6
# successive-difference floor treated as converged regardless of scale
_ABS_FLOOR = 1e-12


@dataclass(frozen=True)
class IntegralResult:
    value: float
    est_error: float
    refinements_used: int


# ---------------------------------------------------------------------------
# The 2D audit route: t3 in closed form, a graded midpoint grid in (t1, t2)
# ---------------------------------------------------------------------------

# grid values per block of rows: bounds the work arrays of one grid level
_BLOCK_VALUES = 1 << 18


class _AuditIntegrand:
    """The (t1, t2) integrand left after integrating t3 in closed form.

    Per axis cos(k_j + t) + cos(t) = 2 c_j cos(t + phi_j) with c_j =
    |cos(k_j/2)| and phi_j = k_j/2, plus pi where cos(k_j/2) < 0.  Below
    the band, w1 - z = a - b cos(t3 + phi_3) with b = 2 c_3 and a - b =
    delta + sum_{j=1,2} 4 c_j sin^2((t_j + phi_j)/2), free of cancellation
    next to the edge.  Above it, z - w1 takes the same form with every
    phi_j shifted by pi, and the integral changes sign.  Then

        int e^{i m t}/(a - b cos(t + phi)) dt = 2 pi e^{-i m phi} rho^{|m|} / s,

    s = sqrt(a^2 - b^2), rho = b/(a + s), and since beta_{-m} is the
    conjugate of beta_m the modes of v^2 enter as Horner coefficients in
    rho, one per m3 >= 0: Q_m3 = w Re(e^{-i m3 phi_3} P_m3(t1, t2)) with
    w = 1 at m3 = 0 and 2 beyond, P_m3 the (m1, m2) block of the m3 modes.

    Next to the edge the remainder peaks at the minimizer t_j = -phi_j,
    sqrt(delta) wide with a 1/r tail, which a uniform grid resolves only
    at millions of points per level.  `grid_sum` grades each free axis
    toward it by a periodic conformal map (Hale & Trefethen, SIAM J.
    Numer. Anal. 2008) of strength lam_j = min(1, (delta/c_j)^(1/4)),
    which balances the peak's width against the map's own singularity; the
    map is analytic and periodic, so the midpoint rule keeps its geometric
    convergence, and lam_j = 1 (a plain grid) wherever delta >= c_j.
    """

    def __init__(self, v: VFunction, kc: np.ndarray, side: int, delta: float):
        half = np.cos(kc / 2.0)
        self.c = np.abs(half)
        self.phase = kc / 2.0 + np.where(half < 0.0, math.pi, 0.0) + side * math.pi
        self.sign = -1.0 if side else 1.0
        self.delta = delta
        self.b = 2.0 * self.c[2]

        sq = v.squared_exp_coeffs()
        modes = [m for m in sq if m[2] >= 0]
        keys = np.array(modes, dtype=int).reshape(-1, 3)
        beta = np.array([sq[m] for m in modes], dtype=complex)
        self.m1, i1 = np.unique(keys[:, 0], return_inverse=True)
        self.m2, i2 = np.unique(keys[:, 1], return_inverse=True)
        levels = int(keys[:, 2].max()) + 1 if keys.size else 1
        weight = np.where(keys[:, 2] == 0, 1.0, 2.0) * np.exp(-1j * keys[:, 2] * self.phase[2])
        # blocks[m3, i, j]: the coefficient of e^{i (m1_i t1 + m2_j t2)} in Q_m3
        self.blocks = np.zeros((levels, self.m1.size, self.m2.size), dtype=complex)
        np.add.at(self.blocks, (keys[:, 2], i1, i2), weight * beta)

    def grid_sum(self, n: int) -> float:
        """Graded midpoint sum of the closed-form t3 integral over an n x n grid in (t1, t2).

        Per free axis, tan((t + phi_j)/2) = lam_j tan(tau/2) maps midpoints
        tau of (-pi, pi] onto nodes clustered at the edge minimizer t = -phi_j,
        with weight dt/dtau = lam_j / (cos^2(tau/2) + lam_j^2 sin^2(tau/2)).
        """
        tau = -np.pi + (np.arange(n) + 0.5) * (TWO_PI / n)
        c, phi = self.c[:2, None], self.phase[:2, None]  # rows: the free axes 1 and 2
        lam = (self.delta / np.maximum(c, self.delta)) ** 0.25  # min(1, (delta/c_j)^(1/4))
        half = 0.5 * tau
        cos2, sin2 = np.cos(half) ** 2, np.sin(half) ** 2
        den = cos2 + lam * lam * sin2
        t1, t2 = 2.0 * np.arctan(lam * np.tan(half)) - phi
        w1, w2 = lam / den
        # a - b and b in units of a power of two near delta, an exact scaling
        # under which gap (gap + 2 b) below cannot overflow
        unit = math.ldexp(1.0, max(0, math.frexp(self.delta)[1] - 1))
        b = self.b / unit
        p1, p2 = 4.0 * c * lam * lam * sin2 / den / unit  # 4 c_j sin^2((t_j + phi_j)/2), free of cancellation
        # the weights ride on the mode factors: every Q_m3, hence the sum, is linear in them
        rows_exp = w1[:, None] * np.exp(1j * np.outer(t1, self.m1))  # (n, modes in m1)
        arg = np.outer(self.m2, t2)
        cols_trig = np.concatenate([np.cos(arg), np.sin(arg)]) * w2  # (2 x modes in m2, n)
        levels = self.blocks.shape[0]
        step = max(1, _BLOCK_VALUES // (n * levels))
        partials = []
        for i0 in range(0, n, step):
            rows = slice(i0, i0 + step)
            inner = rows_exp[rows] @ self.blocks  # (levels, rows, modes in m2)
            q = np.concatenate([inner.real, -inner.imag], axis=2) @ cols_trig  # Q_m3 on the rows
            gap = self.delta / unit + p1[rows, None] + p2  # a - b
            s = np.sqrt(gap * (gap + 2.0 * b))
            rho = b / (gap + b + s)
            acc = q[-1]  # Horner in rho, in place on the spent blocks
            for q_m3 in q[-2::-1]:
                acc *= rho
                acc += q_m3
            acc /= s
            partials.append(float(np.sum(acc)))
        return self.sign * TWO_PI * (math.fsum(partials) / unit) * (TWO_PI / n) ** 2


def resolvent_integral_2d(v: VFunction, k, z: float) -> IntegralResult:
    """Signed integral int v^2/(w1(k, .) - z) dt for z strictly outside [m(k), M(k)].

    The t3 integral is exact (see `_AuditIntegrand`); the periodic
    remainder in (t1, t2) is summed on a midpoint grid graded toward the
    band-edge minimizer, 16^2 points doubled per axis until successive
    values agree to 1e-8 (relative) or an absolute floor of 1e-12; raises
    NonConvergence when 6 doublings are exhausted.  v = 0 gives an exact
    0 on no grid, with 0 refinements.  With the grading they suffice down
    to the solver's edge margin 1e-6 from the band, except right at it
    for v with harmonics of order 3 or 4.  Each refinement costs 4x the
    previous one.  Independent of the Laplace-Bessel kernel, so it audits
    the solver's roots.
    """
    k = reduce_coords(k).reshape(3)
    z = float(z)
    lo, hi = band_endpoints(k)
    if lo <= z <= hi:
        raise ValueError("z = %.17g lies in the band [%.17g, %.17g]" % (z, lo, hi))
    if v.is_zero:
        return IntegralResult(value=0.0, est_error=0.0, refinements_used=0)
    side = int(z > hi)
    f = _AuditIntegrand(v, k, side, z - hi if side else lo - z)
    n = _BASE_GRID
    prev, diff = f.grid_sum(n), math.nan
    for r in range(1, _MAX_REFINEMENTS + 1):
        n *= 2
        cur = f.grid_sum(n)
        diff = abs(cur - prev)
        if diff <= max(_REL_TOL * abs(cur), _ABS_FLOOR):
            return IntegralResult(value=cur, est_error=diff, refinements_used=r)
        prev = cur
    raise NonConvergence(
        "no convergence after %d refinements (grid %d^2, last value %.17g, last diff %.3g)"
        % (_MAX_REFINEMENTS, n, prev, diff)
    )


# ---------------------------------------------------------------------------
# Resolvent-type integrals via the 1d Laplace reduction
# ---------------------------------------------------------------------------


_S_PANEL_EDGES = (
    0.0,
    1.0,
    4.0,
    16.0,
    64.0,
    256.0,
    1024.0,
    4096.0,
    16384.0,
    65536.0,
    262144.0,
)
_GL_PER_PANEL = 32
_S_END = _S_PANEL_EDGES[-1]
_ACTIVE_TOL = 1e-9
# rows per block of (rows x nodes) work arrays in `ResolventKernel.integrals`: bounds their memory
_ROWS_PER_CHUNK = 32
# Bessel products per block of the `ResolventKernel` build (64 K doubles, 0.5 MB):
# 18 fibers for the 11 order triples of a typical v; larger blocks ran slower
_PRODUCTS_PER_CHUNK = 1 << 16
# on a row with d <= 2 free axes, a leading tail weight at most this fraction
# of the mean of v^2 is exactly 0.  No mode weight of v^2 exceeds the mean
# (Cauchy-Schwarz), so rounding over at most 729 modes stays near 2e-13 of it.
# A genuine weight below the cut matters only where its tail is comparable to
# J, at delta ~ 1e-24 for d = 1 and log(1/delta) ~ 1e12 for d = 2: closer to
# the band than the float spacing of z, since fibers with d <= 2 have m >= 4
_VANISHING = 1e-12


@lru_cache(maxsize=1)
def _laplace_nodes():
    x, w = np.polynomial.legendre.leggauss(_GL_PER_PANEL)
    nodes, weights = [], []
    for a, b in zip(_S_PANEL_EDGES[:-1], _S_PANEL_EDGES[1:]):
        nodes.append(0.5 * (b - a) * x + 0.5 * (a + b))
        weights.append(0.5 * (b - a) * w)
    return np.concatenate(nodes), np.concatenate(weights)


def _tails(d_free, delta):
    """T(q - 1), T(q), T(q + 1) for q = d_free / 2 per element, as rows, for delta >= 0.

    T(q) = int_S^inf s^{-q} e^{-delta s} ds in closed form; a fiber with d
    free axes has an algebraic tail A T(d/2) + B T(d/2 + 1) and a slope
    tail one order down.  The closed forms give the edge limits too: at
    delta = 0 they are S^{1-q}/(q-1) for q > 1 and +inf otherwise.
    """
    S = _S_END
    table = np.empty((3, delta.size))
    with np.errstate(divide="ignore", invalid="ignore"):
        for d in set(d_free.tolist()):
            sel = d_free == d
            dl = delta[sel]
            x = dl * S
            e = np.exp(-x)
            if d % 2:  # T(-1/2) .. T(5/2)
                erfc = _special.erfc(np.sqrt(x))
                half = np.sqrt(math.pi / dl) * erfc
                three_halves = 2.0 * e / math.sqrt(S) - 2.0 * np.sqrt(math.pi * dl) * erfc
                five_halves = (2.0 / 3.0) * (e * S ** -1.5 - dl * three_halves)
                t = (math.sqrt(S) * e + 0.5 * half) / dl, half, three_halves, five_halves
            else:  # T(-1) .. T(2), where delta E1(delta S) tends to 0 at the edge
                one = _special.exp1(x)
                t = e * (S + 1.0 / dl) / dl, e / dl, one, e / S - np.where(dl == 0.0, 0.0, dl * one)
            table[:, sel] = t[d // 2 : d // 2 + 3]
    return table


class ResolventKernel:
    """Fast evaluator of J(z) = int v^2 / |w1(k, .) - z| for z outside the band, per fiber.

    Writing 1/(w1 - z) as a Laplace integral factorizes the torus
    integral into per-axis modified Bessel functions:

        int v^2/(w1 - z) dt = int_0^inf e^{-(m - z) s} G(s) ds,
        G(s) = (2 pi)^3 sum_m Re(beta_m e^{-i m.k/2}) prod_j ive(|m_j|, 2 c_j s),

    with c_j = cos(k_j/2) >= 0 and beta_m the exponential coefficients of
    v^2; the upper side carries an extra (-1)^(m1+m2+m3).  G is sampled
    on fixed Gauss panels covering [0, 262144], its ive(n, x) for
    n <= 8 by `_special.ive_orders` (the ascending series, backward
    recurrence and Hankel's expansion, elementwise), tabulated once per
    distinct c_j of the kernel.  The modes enter G through their order
    triples (|m1|, |m2|, |m3|) only, and so do the tail coefficients;
    each z evaluation is then a weighted dot product plus a closed-form
    algebraic tail A T(d/2) + B T(d/2 + 1), where d counts the axes with
    c_j away from zero.  Edge limits (z at m or M) are the same formula
    at delta = 0, with 0 * inf taken as 0: a row with d = 3 stays finite,
    and one with d <= 2 diverges unless its leading weight A (v^2 at the
    edge minimizer, averaged over the frozen axes) vanishes, which the
    build decides once per row (`_VANISHING`).

    k is one momentum or an (..., 3) array of them.  The kernel holds
    both band edges of every fiber as rows numbered 2 fiber + side (side 0
    below the band, 1 above; fibers in the row-major order of k's leading
    shape).  Per row, `edge` is the band edge, `eps` is eps(k) of the
    fiber, `G` holds G times its quadrature weights at the Laplace nodes,
    and A, B and `d_free` give the algebraic tail; `v_norm` is ||v||_2.
    `integrals` evaluates any list of rows.  A fiber's rows do not depend
    on the batch around it.  Values beyond the float range come out inf
    or NaN without a warning, for the caller to refuse.
    """

    def __init__(self, v: VFunction, k):
        kc = reduce_coords(k).reshape(-1, 3)
        n = kc.shape[0]
        self.edge = np.stack(band_endpoints(kc), axis=1).reshape(-1)
        self.eps = np.repeat(epsilon(kc), 2)

        sq = v.squared_exp_coeffs()
        modes = sorted(sq)
        keys = np.array(modes, dtype=int).reshape(-1, 3)
        beta = np.array([sq[m] for m in modes], dtype=complex)
        mean = float(np.real(sq.get((0, 0, 0), 0.0)))  # the mean of v^2
        self.v_norm = math.sqrt(max(TWO_PI ** 3 * mean, 0.0))

        theta = kc[:, 0, None] * keys[:, 0] + kc[:, 1, None] * keys[:, 1] + kc[:, 2, None] * keys[:, 2]
        w_below = np.real(beta * np.exp(-0.5j * theta))
        parity = np.where(np.abs(keys).sum(axis=1) % 2 == 0, 1.0, -1.0)
        weights = (w_below, w_below * parity)

        c = np.cos(kc / 2.0)  # at least cos(pi/2) > 0 on reduced coordinates
        active = c > _ACTIVE_TOL
        self.d_free = np.repeat(np.sum(active, axis=1), 2)

        # the Bessel product of a mode depends on its orders |m_j| only: sum
        # the mode weights per order triple, mode by mode in key order
        index = {}
        triple_of = [index.setdefault(t, len(index)) for t in map(tuple, np.abs(keys).tolist())]
        triples = np.array(list(index), dtype=int).reshape(-1, 3)
        summed = np.zeros((2, len(index), n))  # (side, triple, fiber)
        for out, w in zip(summed, weights):
            np.add.at(out, triple_of, w.T)
        triple_weights = np.ascontiguousarray(summed.transpose(2, 0, 1))  # (fiber, side, triple)

        # algebraic tail coefficients, per order triple; triples with
        # harmonics on a frozen axis are suppressed there (ive(n, ~0) ~ 0 for n > 0)
        vol = TWO_PI ** 3
        inv_sqrt = np.ones(n)
        corr = np.zeros((n, len(index)))
        keep = np.ones((n, len(index)), dtype=bool)
        safe_c = np.where(active, c, 1.0)
        for j in range(3):
            on = active[:, j]
            cj = safe_c[:, j]
            oj = triples[:, j].astype(float)
            inv_sqrt = np.where(on, inv_sqrt / np.sqrt(4.0 * math.pi * cj), inv_sqrt)
            corr = np.where(on[:, None], corr + (4.0 * oj * oj - 1.0) / (16.0 * cj[:, None]), corr)
            keep &= on[:, None] | (triples[:, j] == 0)
        kept = np.where(keep[:, None, :], triple_weights, 0.0)  # (fiber, side, triple)
        lead = np.sum(kept, axis=2)
        lead[(self.d_free[0::2] <= 2)[:, None] & (lead <= _VANISHING * mean)] = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            self.A = (vol * inv_sqrt[:, None] * lead).reshape(-1)
            self.B = (-vol * inv_sqrt[:, None] * np.sum(kept * corr[:, None, :], axis=2)).reshape(-1)

        # ive tables by harmonic order over the distinct c_j of all fibers
        self._s_nodes, s_weights = _laplace_nodes()
        nodes = self._s_nodes.size
        c_unique, c_index = np.unique(c, return_inverse=True)
        c_index = c_index.reshape(n, 3)
        orders = 1 + int(triples.max(initial=-1))
        tables = _special.ive_orders(orders, 2.0 * c_unique[:, None] * self._s_nodes)
        tables = tables.transpose(1, 0, 2).reshape(-1, nodes)  # row c * orders + order

        # G on both edges: each fiber forms its Bessel products prod_j
        # ive(o_j, 2 c_j s) once per order triple, gathered from the tables,
        # and one matrix product with its (side, triple) weights; a block
        # holds at most 64 K products (0.5 MB), and the product has the
        # same shape for a fiber in any batch
        G = np.empty((n, 2, nodes))  # (fiber, side, node)
        step = max(1, _PRODUCTS_PER_CHUNK // max(1, len(triples) * nodes))
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, step):
                part = slice(start, start + step)
                at = c_index[part, :, None] * orders + triples.T  # (fiber, axis, triple)
                products = tables[at[:, 0]]  # (fiber, triple, node)
                products *= tables[at[:, 1]]
                products *= tables[at[:, 2]]
                np.matmul(triple_weights[part], products, out=G[part])
            G *= vol * s_weights
        self.G = G.reshape(-1, nodes)

    def integrals(self, rows, delta, slope: bool = False):
        """J = int v^2/|w1 - z| on kernel `rows` at distances delta >= 0 from their edges.

        rows and delta are 1d arrays of one length.  With `slope`, also
        returns -dJ/d(delta) = int_0^inf s e^{-delta s} G(s) ds, whose
        algebraic tail is the closed form one order down.
        """
        tails = _tails(self.d_free[rows], delta)  # T(q - 1), T(q), T(q + 1)
        body, moment = np.empty((2, delta.size))
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, delta.size, _ROWS_PER_CHUNK):
                part = slice(start, start + _ROWS_PER_CHUNK)
                terms = self.G[rows[part]]
                if delta[part].any():  # a block of edge rows needs no damping: e^0 = 1
                    terms *= np.exp(-delta[part, None] * self._s_nodes)
                body[part] = np.sum(terms, axis=1)
                if slope:
                    moment[part] = np.sum(terms * self._s_nodes, axis=1)
            # A T and B T, with 0 * inf taken as 0: a vanishing weight on a divergent edge tail
            A, B = self.A[rows], self.B[rows]
            a_tails = np.where(A == 0.0, 0.0, A * tails)
            b_tails = np.where(B == 0.0, 0.0, B * tails)
            value = body + a_tails[1] + b_tails[2]
            if not slope:
                return value
            return value, moment + a_tails[0] + b_tails[1]

    def integral_below(self, z):
        """J(z) = int v^2/(w1 - z) dt per fiber, for z <= m(k); z = m gives the edge limit.

        A flat view of `integrals` on the rows below the band, z one value
        or one per fiber.  Kept only because perfbench/spans.py wraps it by
        name.
        """
        return self.integrals(np.arange(0, self.edge.size, 2), self.edge[0::2] - z)

    def integral_above(self, z):
        """J(z) = int v^2/(z - w1) dt per fiber, for z >= M(k); z = M gives the edge limit.

        A flat view of `integrals` on the rows above the band, z one value
        or one per fiber.  Kept only because perfbench/spans.py wraps it by
        name.
        """
        return self.integrals(np.arange(1, self.edge.size, 2), z - self.edge[1::2])
