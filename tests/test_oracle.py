import numpy as np
import pytest

from friedrichs3d.determinant import ModelParams, find_discrete_spectrum
from friedrichs3d.oracle import DiscretizedOperator, discretize, extreme_eigenvalues
from friedrichs3d.vfunction import parse_v

from oracles import dense_eigenvalues


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
