import math

import mpmath
import numpy as np
import pytest

from friedrichs3d import _special
from friedrichs3d._special import MAX_ORDER, erfc, exp1, ive_orders
from friedrichs3d.quadrature import _S_END, _laplace_nodes

ORDERS = MAX_ORDER + 1
REL_TOL = 1e-14
# below this a double is subnormal and carries no relative accuracy
NORMAL = 1e-300


def _ive_reference(n, x):
    with mpmath.workdps(30):
        x = mpmath.mpf(x)
        return float(mpmath.besseli(n, x) * mpmath.exp(-x))


def _assert_ive_matches_mpmath(x):
    got = ive_orders(ORDERS, x)
    assert got.shape == (ORDERS,) + x.shape
    for n in range(ORDERS):
        for xi, value in zip(x.tolist(), got[n].tolist()):
            ref = _ive_reference(n, xi)
            assert value == pytest.approx(ref, rel=REL_TOL, abs=NORMAL), (n, xi)


def _around(point):
    return [np.nextafter(point, 0.0), point, np.nextafter(point, math.inf)]


def test_ive_at_zero_is_exact():
    assert ive_orders(ORDERS, np.zeros(3)).tolist() == [[1.0] * 3] + [[0.0] * 3] * MAX_ORDER


def test_ive_on_both_sides_of_every_switch():
    bounds = [upper for upper, _ in _special._SERIES_PIECES]
    x = np.array([t for b in bounds for t in _around(b)] + [1e-300, 1e-20, 0.5, 10.0, 39.0, 41.0, 80.0])
    _assert_ive_matches_mpmath(x)


@pytest.mark.parametrize("c", [0.0, 1e-9, 1e-6, 1e-3, 0.1, 0.5, 1.0])
def test_ive_at_the_kernel_arguments(c):
    s_nodes, _ = _laplace_nodes()
    _assert_ive_matches_mpmath(2.0 * c * s_nodes)


def test_ive_at_random_arguments(rng):
    _assert_ive_matches_mpmath(10.0 ** rng.uniform(-6.0, 6.0, 150))


def test_ive_of_an_element_does_not_depend_on_its_array(rng):
    x = np.concatenate([[0.0, 2.0, 40.0], 10.0 ** rng.uniform(-6.0, 6.0, 200)])
    whole = ive_orders(ORDERS, x.reshape(-1, 1))
    for i in rng.permutation(x.size)[:20]:
        alone = ive_orders(ORDERS, x[i : i + 1])
        assert np.array_equal(alone[:, 0], whole[:, i, 0])


@pytest.mark.parametrize("orders", range(1, ORDERS))
def test_ive_with_fewer_orders(orders):
    # the recurrence starts from the highest order asked for
    x = np.concatenate([[0.0, 1e-8], np.geomspace(0.01, 1e3, 30)])
    got = ive_orders(orders, x)
    for n in range(orders):
        for xi, value in zip(x.tolist(), got[n].tolist()):
            assert value == pytest.approx(_ive_reference(n, xi), rel=REL_TOL, abs=NORMAL), (n, xi)


def test_ive_refuses_orders_beyond_v_squared():
    with pytest.raises(ValueError):
        ive_orders(ORDERS + 1, np.ones(2))


def test_expansions_truncate_below_double_precision():
    # the first term each piece leaves out, at the end of the piece where it is largest
    lower = 0.0
    for upper, terms in _special._SERIES_PIECES:
        q = 0.25 * upper * upper
        for n in range(ORDERS):
            series = [q ** k / (math.factorial(k) * math.factorial(n + k)) for k in range(terms + 1)]
            assert series[-1] < 1e-18 * sum(series[:-1])
        lower = upper
    terms = _special._HANKEL_TERMS
    for n in range(ORDERS):
        hankel = _special._HANKEL[n] / lower ** np.arange(terms)
        left_out = hankel[-1] * (4 * n * n - (2 * terms - 1) ** 2) / (8 * terms * lower)
        assert abs(left_out) < 1e-18 * abs(hankel.sum())


DELTAS = np.geomspace(1e-12, 1e3, 300)


def test_erfc_of_the_tail_argument_matches_mpmath():
    t = np.sqrt(DELTAS * _S_END)
    got = erfc(t)
    for ti, value in zip(t.tolist(), got.tolist()):
        with mpmath.workdps(40):
            ref = float(mpmath.erfc(mpmath.mpf(ti)))
        assert value == pytest.approx(ref, rel=REL_TOL, abs=NORMAL), ti


def test_exp1_of_the_tail_argument_matches_mpmath():
    x = np.concatenate([DELTAS * _S_END, _around(1.0), [0.3, 3.0, 30.0, 745.0, 746.0, 747.0]])
    got = exp1(x)
    for xi, value in zip(x.tolist(), got.tolist()):
        with mpmath.workdps(40):
            ref = float(mpmath.e1(mpmath.mpf(xi)))
        assert value == pytest.approx(ref, rel=REL_TOL, abs=NORMAL), xi


def test_exp1_and_erfc_keep_the_shape_and_the_limits():
    assert exp1(np.zeros((2, 1))).tolist() == [[math.inf], [math.inf]]
    assert erfc(np.array([[0.0, math.inf]])).tolist() == [[1.0, 0.0]]


@pytest.mark.parametrize(
    "fn, element, zero_from, cut",
    [(erfc, math.erfc, 27.2264, _special._ERFC_ZERO), (exp1, _special._exp1, 746.0, _special._EXP1_ZERO)],
    ids=["erfc", "exp1"],
)
def test_erfc_and_exp1_skip_only_elements_that_are_zero(fn, element, zero_from, cut):
    # a dense grid from below where the element function becomes 0.0 to
    # beyond the cut, from where it is not called
    x = np.concatenate([
        np.linspace(0.98 * zero_from, 1.02 * cut, 40002), _around(zero_from), _around(cut),
        [0.0, math.inf, math.nan, -math.nan],
    ]).reshape(2, 2, -1)
    got = fn(x)
    want = np.array([element(t) for t in x.ravel().tolist()]).reshape(x.shape)
    assert got.shape == x.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
