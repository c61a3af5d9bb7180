"""Integration on the momentum torus.

Two production routes for the resolvent integral v^2/(w1(k, .) - z),
z outside the fiber band:

* `ResolventKernel`: exact reduction to a 1d Laplace transform of
  modified Bessel products, accurate to machine precision uniformly down
  to the band edge, including the edge limit itself.  This is what the
  discrete-spectrum solver runs on, since root-finding needs evaluations
  exactly at the edges, and the threshold integrals are its edge limits
  at k = 0 and on Lambda.
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
from scipy import special as _sc

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
        p1, p2 = 4.0 * c * lam * lam * sin2 / den  # 4 c_j sin^2((t_j + phi_j)/2), free of cancellation
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
            gap = self.delta + p1[rows, None] + p2  # a - b
            s = np.sqrt(gap * (gap + 2.0 * self.b))
            rho = self.b / (gap + self.b + s)
            acc = q[-1]  # Horner in rho, in place on the spent blocks
            for q_m3 in q[-2::-1]:
                acc *= rho
                acc += q_m3
            acc /= s
            partials.append(float(np.sum(acc)))
        return self.sign * TWO_PI * math.fsum(partials) * (TWO_PI / n) ** 2


def resolvent_integral_2d(v: VFunction, k, z: float) -> IntegralResult:
    """Signed integral int v^2/(w1(k, .) - z) dt for z strictly outside [m(k), M(k)].

    The t3 integral is exact (see `_AuditIntegrand`); the periodic
    remainder in (t1, t2) is summed on a midpoint grid graded toward the
    band-edge minimizer, 16^2 points doubled per axis until successive
    values agree to 1e-8 (relative) or an absolute floor of 1e-12; raises
    NonConvergence when 6 doublings are exhausted.  With the grading they
    suffice down to the solver's edge margin 1e-6 from the band, except
    right at it for v with harmonics of order 3 or 4.  Each refinement
    costs 4x the previous one.  Independent of the
    Laplace-Bessel kernel, so it audits the solver's roots.
    """
    k = reduce_coords(k).reshape(3)
    z = float(z)
    lo, hi = band_endpoints(k)
    if lo <= z <= hi:
        raise ValueError("z = %.17g lies in the band [%.17g, %.17g]" % (z, lo, hi))
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
# fibers per block of (fibers x nodes) work arrays: bounds the memory of a batch
_ROWS_PER_CHUNK = 32


@lru_cache(maxsize=1)
def _laplace_nodes():
    x, w = np.polynomial.legendre.leggauss(_GL_PER_PANEL)
    nodes, weights = [], []
    for a, b in zip(_S_PANEL_EDGES[:-1], _S_PANEL_EDGES[1:]):
        nodes.append(0.5 * (b - a) * x + 0.5 * (a + b))
        weights.append(0.5 * (b - a) * w)
    return np.concatenate(nodes), np.concatenate(weights)


def _tails(d_free: int, delta):
    """T(q - 1), T(q), T(q + 1) for q = d_free / 2, elementwise over delta > 0.

    T(q) = int_S^inf s^{-q} e^{-delta s} ds in closed form; a fiber with d
    free axes has an algebraic tail A T(d/2) + B T(d/2 + 1) and a slope
    tail one order down.
    """
    S = _S_END
    x = delta * S
    e = np.exp(-x)
    if d_free % 2:
        erfc = _sc.erfc(np.sqrt(x))
        t_half = np.sqrt(math.pi / delta) * erfc
        t_three_halves = 2.0 * e / math.sqrt(S) - 2.0 * np.sqrt(math.pi * delta) * erfc
        if d_free == 1:
            return (math.sqrt(S) * e + 0.5 * t_half) / delta, t_half, t_three_halves
        return t_half, t_three_halves, (2.0 / 3.0) * (e * S ** -1.5 - delta * t_three_halves)
    t_zero = e / delta
    t_one = _sc.exp1(x)
    if d_free == 0:
        return e * (S / delta + 1.0 / (delta * delta)), t_zero, t_one
    return t_zero, t_one, e / S - delta * t_one


def _tail_table(delta, d_free):
    """T(q - 1), T(q), T(q + 1) for q = d_free / 2 per element, as rows, for delta >= 0.

    At delta = 0, T(q) diverges for q <= 1 and is S^{1-q}/(q-1) otherwise.
    """
    at_edge = delta == 0.0
    safe = np.where(at_edge, 1.0, delta)
    table = np.empty((3, delta.size))
    for d in set(d_free.tolist()):
        sel = d_free == d
        table[:, sel] = _tails(d, safe[sel])
    if at_edge.any():
        q = 0.5 * d_free[at_edge] + np.array([-1.0, 0.0, 1.0])[:, None]
        with np.errstate(divide="ignore"):
            table[:, at_edge] = np.where(q > 1.0, _S_END ** (1.0 - q) / (q - 1.0), math.inf)
    return table


class _Kernels:
    """Laplace-Bessel kernels of a list of (fiber, band edge) rows of a batch.

    Row r belongs to fiber `fiber[r]` at band edge `side[r]` (0 below, 1
    above).  `dot` holds G times its quadrature weights at the Laplace
    nodes; A, B and d_free give the row's algebraic tail.
    """

    def __init__(self, fiber, side, dot, A, B, d_free, s_nodes):
        self.fiber = fiber
        self.side = side
        self.dot = dot
        self.A = A
        self.B = B
        self.d_free = d_free
        self.s_nodes = s_nodes

    def integrals(self, rows, delta, slope: bool = False):
        """J = int v^2/|w1 - z| at distance delta >= 0 from the edge, for kernel `rows`.

        With `slope`, also returns -dJ/d(delta) = int_0^inf s e^{-delta s} G(s) ds,
        whose algebraic tail is the closed form one order down.
        """
        d_free = self.d_free[rows]
        A = self.A[rows]
        B = self.B[rows]
        below, lead, sub = _tail_table(delta, d_free)
        body = np.empty(delta.size)
        moment = np.empty(delta.size)
        for start in range(0, delta.size, _ROWS_PER_CHUNK):
            part = slice(start, start + _ROWS_PER_CHUNK)
            terms = self.dot[rows[part]] * np.exp(-delta[part, None] * self.s_nodes)
            body[part] = np.sum(terms, axis=1)
            if slope:
                moment[part] = np.sum(terms * self.s_nodes, axis=1)
        finite = np.isfinite(lead)
        if finite.all():
            value = body + A * lead + B * sub
        else:
            # the edge limit with d <= 2 diverges unless the leading weight
            # vanishes (v^2 zero at the edge minimizer); then the subleading
            # term decides when it converges
            with np.errstate(invalid="ignore"):
                edge = body + np.where(np.isfinite(sub), B * sub, 0.0)
                value = np.where(
                    finite, body + A * lead + B * sub, np.where(A > 1e-300, math.inf, edge)
                )
        if not slope:
            return value
        return value, moment + A * below + B * lead


class _KernelBatch:
    """The Laplace-Bessel kernels of the fibers at an (n, 3) array of reduced momenta.

    Fiber i is the one at row i of `kc`.  The ive tables are built once over
    the distinct c_j = cos(k_j/2) of the whole batch.  `kernels` samples G
    for the requested band edges one order triple and one block of rows at
    a time, so memory holds one (rows x nodes) array per call, and every
    row is the same arithmetic a batch of one would do.
    """

    def __init__(self, v: VFunction, kc: np.ndarray):
        n = kc.shape[0]
        self.m, self.M = band_endpoints(kc)
        self.eps = epsilon(kc)

        sq = v.squared_exp_coeffs()
        modes = sorted(sq)
        keys = np.array(modes, dtype=int).reshape(-1, 3)
        beta = np.array([sq[m] for m in modes], dtype=complex)
        # ||v||_2^2 = (2 pi)^3 times the mean of v^2
        self.v_norm = math.sqrt(max(TWO_PI ** 3 * float(np.real(sq.get((0, 0, 0), 0.0))), 0.0))

        theta = kc[:, 0, None] * keys[:, 0] + kc[:, 1, None] * keys[:, 1] + kc[:, 2, None] * keys[:, 2]
        w_below = np.real(beta * np.exp(-0.5j * theta))
        parity = np.where(np.abs(keys).sum(axis=1) % 2 == 0, 1.0, -1.0)
        weights = (w_below, w_below * parity)

        c = np.cos(kc / 2.0)
        c = np.where(c < 0.0, 0.0, c)  # guard roundoff at k_j = pi
        active = c > _ACTIVE_TOL
        self.d_free = np.sum(active, axis=1)

        # algebraic tail coefficients; terms with harmonics on a frozen axis
        # are suppressed there (ive(n, ~0) ~ 0 for n > 0)
        vol = TWO_PI ** 3
        inv_sqrt = np.ones((n, len(keys)))
        corr = np.zeros((n, len(keys)))
        keep = np.ones((n, len(keys)), dtype=bool)
        safe_c = np.where(active, c, 1.0)
        for j in range(3):
            on = active[:, j, None]
            cj = safe_c[:, j, None]
            mj = keys[:, j].astype(float)
            inv_sqrt = np.where(on, inv_sqrt / np.sqrt(4.0 * math.pi * cj), inv_sqrt)
            corr = np.where(on, corr + (4.0 * mj * mj - 1.0) / (16.0 * cj), corr)
            keep &= on | (keys[:, j] == 0)
        kept = [np.where(keep, w, 0.0) for w in weights]
        self._A = np.stack([vol * np.sum(w * inv_sqrt, axis=1) for w in kept])
        self._B = np.stack([-vol * np.sum(w * inv_sqrt * corr, axis=1) for w in kept])

        # the Bessel product of a mode depends on its orders |m_j| only: sum
        # the mode weights per order triple, mode by mode in key order
        index = {}
        triple_of = [index.setdefault(t, len(index)) for t in map(tuple, np.abs(keys).tolist())]
        self._triples = list(index)
        self._triple_weights = np.zeros((2, n, len(index)))  # (side, fiber, triple)
        for summed, w in zip(self._triple_weights, weights):
            np.add.at(summed.T, triple_of, w.T)

        # ive tables by harmonic order over the distinct c_j of the batch
        self._s_nodes, s_weights = _laplace_nodes()
        self._scale = vol * s_weights
        c_unique, c_index = np.unique(c, return_inverse=True)
        self._c_index = c_index.reshape(n, 3)
        orders = 1 + max((max(t) for t in self._triples), default=-1)
        self._tables = _sc.ive(
            np.arange(orders, dtype=float)[:, None, None],
            (2.0 * c_unique)[None, :, None] * self._s_nodes[None, None, :],
        )

    def kernels(self, sides) -> _Kernels:
        """Kernels of every fiber at each band edge in `sides`, one edge after the other."""
        n = self.m.size
        fiber = np.tile(np.arange(n), len(sides))
        side = np.repeat(np.asarray(sides, dtype=int), n)
        tables = self._tables
        dot = np.empty((fiber.size, self._s_nodes.size))
        for start in range(0, fiber.size, _ROWS_PER_CHUNK):
            part = slice(start, start + _ROWS_PER_CHUNK)
            c_index = self._c_index[fiber[part]]
            weights = self._triple_weights[side[part], fiber[part]]
            g = np.zeros((c_index.shape[0], self._s_nodes.size))
            for (o1, o2, o3), w in zip(self._triples, weights.T):
                if w.any():
                    g += w[:, None] * (
                        tables[o1][c_index[:, 0]] * tables[o2][c_index[:, 1]] * tables[o3][c_index[:, 2]]
                    )
            dot[part] = g * self._scale
        return _Kernels(
            fiber, side, dot, self._A[side, fiber], self._B[side, fiber], self.d_free[fiber], self._s_nodes
        )


class ResolventKernel:
    """Fast evaluator of J(z) = int v^2 / |w1(k, .) - z| for z outside the band.

    Writing 1/(w1 - z) as a Laplace integral factorizes the torus
    integral into per-axis modified Bessel functions:

        int v^2/(w1 - z) dt = int_0^inf e^{-(m - z) s} G(s) ds,
        G(s) = (2 pi)^3 sum_m Re(beta_m e^{-i m.k/2}) prod_j ive(|m_j|, 2 c_j s),

    with c_j = cos(k_j/2) >= 0 and beta_m the exponential coefficients of
    v^2; the upper side carries an extra (-1)^(m1+m2+m3).  G is sampled
    once on fixed Gauss panels covering [0, 262144]; each z evaluation is
    then a weighted dot product plus a closed-form algebraic tail
    A T(d/2) + B T(d/2 + 1), where d counts the axes with c_j away from
    zero.  Edge limits (z at m or M) are exact: the tail term correctly
    diverges when d <= 2 and stays finite for d = 3.  This is a batch of
    one of the kernels the discrete-spectrum solver builds for many fibers.
    """

    def __init__(self, v: VFunction, k):
        kc = reduce_coords(k).reshape(1, 3)
        self._batch = _KernelBatch(v, kc)
        self._kernels = self._batch.kernels((0, 1))
        self.k = tuple(kc[0].tolist())
        self.m = float(self._batch.m[0])
        self.M = float(self._batch.M[0])

    def _evaluate(self, side: int, delta: float) -> float:
        return float(self._kernels.integrals(np.array([side]), np.array([delta]))[0])

    def integral_below(self, z: float) -> float:
        """J(z) = int v^2/(w1 - z) dt for z <= m(k); z = m gives the edge limit."""
        delta = self.m - float(z)
        if delta < -1e-9:
            raise ValueError("z = %.17g lies above the lower band edge %.17g" % (z, self.m))
        return self._evaluate(0, max(delta, 0.0))

    def integral_above(self, z: float) -> float:
        """J(z) = int v^2/(z - w1) dt for z >= M(k); z = M gives the edge limit."""
        delta = float(z) - self.M
        if delta < -1e-9:
            raise ValueError("z = %.17g lies below the upper band edge %.17g" % (z, self.M))
        return self._evaluate(1, max(delta, 0.0))
