import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friedrichs3d.determinant import ModelParams, find_discrete_spectrum
from friedrichs3d.lattice import band_endpoints
from friedrichs3d.oracle import DiscretizedOperator, _secular_root, discretize, extreme_eigenvalues
from friedrichs3d.vfunction import VFunction, parse_v

from oracles import bisect_extreme_eigenvalues, dense_eigenvalues


def _arrow(scalar, diagonal, border):
    return DiscretizedOperator(
        k=(0.0, 0.0, 0.0), grid_n=2, scalar=scalar,
        diagonal=np.array(diagonal, dtype=float), border=np.array(border, dtype=float),
    )


def _cert_width(op):
    """The relative 1e-13 width of the bracket each extreme root is returned on."""
    b_norm = float(np.linalg.norm(op.border))
    return 1e-13 * max(1.0, abs(op.scalar), float(np.max(np.abs(op.diagonal))), b_norm)


def _two_by_two(s, d, b):
    """Eigenvalues of [[s, b], [b, d]], the small one from the product, without cancellation."""
    mean, half = 0.5 * (s + d), 0.5 * (s - d)
    r = math.hypot(half, b)
    big = mean + math.copysign(r, mean)
    small = (s * d - b * b) / big
    return min(big, small), max(big, small)


def test_discretize_shapes_and_values(v_cos_half):
    params = ModelParams(gamma=1.5, mu=0.4)
    k = (0.3, -1.1, 2.0)
    op = discretize(params, v_cos_half, k, 5)
    assert op.grid_n == 5
    assert op.diagonal.shape == (125,)
    assert op.border.shape == (125,)
    # scalar entry is the one-particle level
    eps_k = float(np.sum(1.0 - np.cos(k)))
    assert op.scalar == pytest.approx(1.5 + eps_k, abs=1e-12)
    # border entries scale like mu h^{3/2} v
    h = 2.0 * np.pi / 5
    g = -np.pi + (np.arange(5) + 0.5) * h
    expected = 0.4 * h ** 1.5 * (np.cos(g[0]) + 0.5)
    assert op.border[0] == pytest.approx(expected, abs=1e-12)
    with pytest.raises(ValueError):
        discretize(params, v_cos_half, k, 1)
    with pytest.raises(ValueError):
        discretize(params, v_cos_half, k, 4.0)


def test_secular_extremes_match_dense_solver(rng):
    vs = [parse_v("1"), parse_v("cos(p1) + 0.5"), parse_v("1 + 0.3 * sin(p2)")]
    for trial in range(6):
        v = vs[trial % len(vs)]
        params = ModelParams(
            gamma=float(rng.uniform(-4.0, 10.0)), mu=float(rng.uniform(0.1, 1.2))
        )
        k = rng.uniform(-np.pi, np.pi, 3)
        op = discretize(params, v, k, int(rng.integers(3, 9)))
        lo, hi = extreme_eigenvalues(op)
        dense = dense_eigenvalues(op)
        assert lo == pytest.approx(float(dense[0]), abs=1e-10)
        assert hi == pytest.approx(float(dense[-1]), abs=1e-10)


def test_zero_borders_decouple_as_spectators():
    # nodes where v vanishes contribute bare diagonal entries; the secular
    # solver must treat them as plain spectrum, not poles
    diag = np.array([1.0, 2.0, 3.0, 4.0])
    border = np.array([0.5, 0.0, 0.2, 0.0])
    op = DiscretizedOperator(
        k=(0.0, 0.0, 0.0), grid_n=2, scalar=-1.0, diagonal=diag, border=border
    )
    lo, hi = extreme_eigenvalues(op)
    dense = dense_eigenvalues(op)
    assert lo == pytest.approx(float(dense[0]), abs=1e-12)
    assert hi == pytest.approx(float(dense[-1]), abs=1e-12)
    # fully decoupled arrow: pure diagonal plus isolated scalar
    op = DiscretizedOperator(
        k=(0.0, 0.0, 0.0),
        grid_n=2,
        scalar=10.0,
        diagonal=diag,
        border=np.zeros(4),
    )
    lo, hi = extreme_eigenvalues(op)
    assert lo == pytest.approx(1.0, abs=1e-12)
    assert hi == pytest.approx(10.0, abs=1e-12)


def test_dense_solver_refuses_large_grids(v_one):
    params = ModelParams(gamma=0.5, mu=0.3)
    op = discretize(params, v_one, (0.0, 0.0, 0.0), 10)
    with pytest.raises(ValueError):
        dense_eigenvalues(op)


def test_discretization_converges_to_the_determinant_root(v_cos_half):
    params = ModelParams(gamma=-2.0, mu=0.6)
    k = (0.5, 0.1, -0.8)
    window = find_discrete_spectrum(params, v_cos_half, k)
    assert window.eigen_below is not None
    errors = []
    for n in (8, 16, 32):
        lo, _ = extreme_eigenvalues(discretize(params, v_cos_half, k, n))
        errors.append(abs(lo - window.eigen_below))
    assert errors[-1] < 1e-4
    assert errors[0] > errors[-1]


@pytest.mark.parametrize("s", [1e12, -1e12])
def test_one_node_roots_far_beyond_the_hull_match_the_closed_form(s):
    # one root lies 1e12 from the pole at d = 0, beyond any fixed bracket cap
    op = _arrow(s, [0.0], [1.0])
    want = _two_by_two(s, 0.0, 1.0)
    got = extreme_eigenvalues(op)
    tol = _cert_width(op)
    assert abs(got[0] - want[0]) <= tol
    assert abs(got[1] - want[1]) <= tol


def test_root_within_rounding_of_the_pole_is_certified_without_dividing_by_zero():
    # the lowest root sits 1e-24 below d = 1, far below one ulp: it is returned
    # within the certificate width of the edge, and f is never taken at the pole
    # (a division by zero would be a RuntimeWarning, an error in this suite)
    op = _arrow(2.0, [1.0], [1e-12])
    want = _two_by_two(2.0, 1.0, 1e-12)
    low, high = extreme_eigenvalues(op)
    tol = _cert_width(op)
    assert 1.0 - tol <= low < 1.0
    assert abs(low - want[0]) <= tol
    assert abs(high - want[1]) <= tol


_MODES = [(a, b, c) for a in range(-2, 3) for b in range(-2, 3) for c in range(-2, 3)]
_TERMS = st.lists(
    st.tuples(st.sampled_from(_MODES), st.floats(-1.0, 1.0).filter(lambda c: abs(c) > 0.05)),
    min_size=1,
    max_size=4,
)


class _Probe(np.ndarray):
    """A diagonal that records each z at which the secular solver forms d - z."""

    def __array_finalize__(self, obj):
        self.points = getattr(obj, "points", None)

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if ufunc is np.subtract and isinstance(inputs[0], _Probe) and np.ndim(inputs[1]) == 0:
            inputs[0].points.append(float(inputs[1]))
        inputs = [x.view(np.ndarray) if isinstance(x, _Probe) else x for x in inputs]
        if out is not None:
            kwargs["out"] = tuple(x.view(np.ndarray) if isinstance(x, _Probe) else x for x in out)
        return getattr(ufunc, method)(*inputs, **kwargs)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    terms=_TERMS,
    k=st.tuples(*[st.floats(-np.pi, np.pi)] * 3),
    gamma=st.floats(-20.0, 30.0),
    log_mu=st.floats(math.log(0.01), math.log(30.0)),
    n=st.integers(2, 16),
)
def test_extreme_eigenvalues_are_certified_and_match_bisection(terms, k, gamma, log_mu, n):
    op = discretize(ModelParams(gamma=gamma, mu=math.exp(log_mu)), VFunction(terms), k, n)
    probe = op.diagonal.view(_Probe)
    probe.points = []
    low, high = extreme_eigenvalues(dataclasses.replace(op, diagonal=probe))
    tol = _cert_width(op)
    want = bisect_extreme_eigenvalues(op)
    assert abs(low - want[0]) <= tol
    assert abs(high - want[1]) <= tol
    if n <= 8:
        dense = dense_eigenvalues(op)
        assert low == pytest.approx(float(dense[0]), abs=1e-10)
        assert high == pytest.approx(float(dense[-1]), abs=1e-10)

    # the solver evaluated f within tol on both sides of each root (only
    # beyond it, for a root within tol of the pole) and saw it change sign:
    # beyond the root f has the sign of z -> -+inf, toward the hull the sign
    # of the pole
    b2 = op.border * op.border
    d, b2, bare = op.diagonal[b2 != 0.0], b2[b2 != 0.0], op.diagonal[b2 == 0.0]

    def f(z):
        return op.scalar - z - float(np.sum(b2 / (d - z)))

    for root, edge, sign in ((low, float(np.min(d)), 1.0), (high, float(np.max(d)), -1.0)):
        if root in bare:
            continue  # an uncoupled node, not a secular root
        assert sign * (edge - root) > 0.0
        near = [z for z in probe.points if abs(z - root) <= tol]
        assert any(sign * (root - z) > 0.0 and sign * f(z) >= 0.0 for z in near)
        assert sign * (edge - root) <= tol or any(
            sign * (z - root) > 0.0 and sign * f(z) < 0.0 for z in near
        )


def test_secular_solve_takes_few_evaluations_on_the_verify_shape():
    # the benchmark's verify op: n = 32, a root 1 to 20 from the band and w0 1
    # to 5 beyond the other band edge.  mu is solved so that the grid root
    # lands exactly at the drawn distance.
    rng = np.random.default_rng(8)
    counts = []
    for trial in range(8):
        a = rng.uniform(0.1, 0.35, size=3) * rng.choice([-1.0, 1.0], size=3)
        e = np.eye(3, dtype=int)[rng.permutation(3)]  # a random order of the axes
        v = VFunction([
            ((0, 0, 0), rng.uniform(0.6, 1.1)),
            (tuple(e[0].tolist()), a[0]),
            (tuple((2 * e[1]).tolist()), a[1]),
            (tuple((e[1] + e[2]).tolist()), a[2]),
        ])
        k = tuple(rng.uniform(-np.pi, np.pi, size=3))
        m, M = (float(e) for e in band_endpoints(k))
        dist, gap = math.exp(rng.uniform(0.0, math.log(20.0))), rng.uniform(1.0, 5.0)
        z, w0 = (m - dist, M + gap) if trial % 2 else (M + dist, m - gap)
        unit = discretize(ModelParams(gamma=0.0, mu=1.0), v, k, 32)
        mu = math.sqrt((w0 - z) / float(np.sum(unit.border ** 2 / (unit.diagonal - z))))
        border = mu * unit.border
        b_norm = float(np.linalg.norm(border))
        for lowest in (True, False):
            root, evals = _secular_root(w0, unit.diagonal, border, lowest, b_norm, np.empty(32 ** 3))
            counts.append(evals)
            if lowest == bool(trial % 2):
                assert root == pytest.approx(z, abs=1e-9)
    assert max(counts) <= 12
