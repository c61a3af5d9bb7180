import numpy as np
import pytest

from friedrichs3d.lattice import ORIGIN, lambda_point, reduce_coords
from friedrichs3d.vfunction import MAX_HARMONIC, VFunction, VParseError, parse_v


def _random_points(rng, n=40):
    return rng.uniform(-np.pi, np.pi, (n, 3))


@pytest.mark.parametrize(
    "text,reference",
    [
        ("1", lambda q: np.ones(q.shape[0])),
        ("cos(p1) + 0.5", lambda q: np.cos(q[:, 0]) + 0.5),
        ("1 - cos(p1)", lambda q: 1.0 - np.cos(q[:, 0])),
        (
            "(1 - cos(p1)) * (cos(p1) + 0.5)",
            lambda q: (1.0 - np.cos(q[:, 0])) * (np.cos(q[:, 0]) + 0.5),
        ),
        (
            "sin(p2) * cos(2*p3) - 0.25 * sin(3*p1)",
            lambda q: np.sin(q[:, 1]) * np.cos(2 * q[:, 2]) - 0.25 * np.sin(3 * q[:, 0]),
        ),
        ("2 * (1 + cos(p1) * cos(p2))", lambda q: 2.0 * (1.0 + np.cos(q[:, 0]) * np.cos(q[:, 1]))),
        ("-cos(p1) * cos(p1)", lambda q: -np.cos(q[:, 0]) ** 2),
        ("1e-2 + 2.5e1 * sin(4*p3)", lambda q: 0.01 + 25.0 * np.sin(4 * q[:, 2])),
    ],
)
def test_parse_matches_direct_evaluation(text, reference, rng):
    v = parse_v(text)
    q = _random_points(rng)
    got = np.array([v(reduce_coords(row)) for row in q])
    assert np.allclose(got, reference(q), atol=1e-12)
    # grid evaluation agrees with pointwise calls
    grid = v.evaluate(q[:, 0], q[:, 1], q[:, 2])
    assert np.allclose(np.broadcast_to(grid, (q.shape[0],)), reference(q), atol=1e-12)


def test_product_expansion_is_exact():
    v = parse_v("(1 - cos(p1)) * (cos(p1) + 0.5)")
    # (1 - c)(c + 1/2) = 1/2c - 1/2 cos(2p)/... expand: c/2 - c^2 + 1/2... keep numeric:
    w = parse_v("0.5 * cos(p1) - 0.5 * cos(2*p1)")
    diff = v - w
    assert diff.is_zero


def test_algebra_matches_numeric_composition(rng):
    a = parse_v("1 + 0.3 * sin(p1)")
    b = parse_v("cos(p2) - 0.5 * cos(p3)")
    q = _random_points(rng, 25)
    for row in q:
        p = reduce_coords(row)
        assert (a + b)(p) == pytest.approx(a(p) + b(p), abs=1e-12)
        assert (a - b)(p) == pytest.approx(a(p) - b(p), abs=1e-12)
        assert (a * b)(p) == pytest.approx(a(p) * b(p), abs=1e-12)
        assert (2.0 * a)(p) == pytest.approx(2.0 * a(p), abs=1e-12)


def test_vanishing_orders_at_thresholds():
    lam = lambda_point(2)
    assert parse_v("1").vanishing_order(ORIGIN) == 0
    assert parse_v("1").vanishing_order(lam) == 0
    assert parse_v("cos(p1) + 0.5").vanishing_order(ORIGIN) == 0
    assert parse_v("cos(p1) + 0.5").vanishing_order(lam) == 1
    assert parse_v("1 - cos(p1)").vanishing_order(ORIGIN) == 2
    assert parse_v("1 - cos(p1)").vanishing_order(lam) == 0
    prod = parse_v("(1 - cos(p1)) * (cos(p1) + 0.5)")
    assert prod.vanishing_order(ORIGIN) == 2
    assert prod.vanishing_order(lam) == 1
    # high orders: a nonzero v vanishes to order at most 6 * MAX_HARMONIC
    assert parse_v("(1-cos(p1))*(1-cos(p2))*(1-cos(p3))").vanishing_order(ORIGIN) == 6
    assert parse_v("sin(p1)*sin(p1)*sin(p2)*sin(p2)*sin(p3)*sin(p3)").vanishing_order(ORIGIN) == 6
    assert parse_v("(1-cos(p1))*(1-cos(p1))*(1-cos(p2))*(1-cos(p2))").vanishing_order(ORIGIN) == 8
    # the maximal order: (1 - cos p_j)^4 on every axis
    maximal = parse_v("*".join("(1-cos(p%d))" % (j // 4 + 1) for j in range(12)))
    assert maximal.vanishing_order(ORIGIN) == 6 * MAX_HARMONIC
    assert maximal.vanishing_order(lam) == 0
    assert VFunction.zero().vanishing_order(ORIGIN) is None


def test_exponential_coefficients_reconstruct_function(rng):
    v = parse_v("1 - cos(p1) + 0.5 * sin(2*p2) * cos(p3)")
    q = _random_points(rng, 15)
    for row in q:
        total = 0.0 + 0.0j
        for mode, coeff in v.exp_coeffs().items():
            total += coeff * np.exp(1j * np.dot(mode, row))
        assert abs(total.imag) < 1e-12
        assert total.real == pytest.approx(v(reduce_coords(row)), abs=1e-12)


def test_squared_coefficients_reconstruct_square(rng):
    v = parse_v("cos(p1) + 0.5")
    q = _random_points(rng, 15)
    for row in q:
        total = 0.0 + 0.0j
        for mode, coeff in v.squared_exp_coeffs().items():
            total += coeff * np.exp(1j * np.dot(mode, row))
        assert total.real == pytest.approx(v(reduce_coords(row)) ** 2, abs=1e-12)


def test_squaring_may_exceed_the_parse_cap():
    v = parse_v("cos(4*p1)")
    # the square holds harmonic 8 internally even though 8 is not parseable
    modes = {m[0] for m in v.squared_exp_coeffs()}
    assert 8 in modes


def test_harmonic_cap_enforced():
    with pytest.raises(VParseError):
        parse_v("cos(5*p1)")
    with pytest.raises(VParseError):
        parse_v("cos(4*p1) * cos(p1)")  # product reaches harmonic 5
    assert MAX_HARMONIC == 4


@pytest.mark.parametrize(
    "bad",
    ["", "cos(p1", "cos(q1)", "1 +", "* cos(p1)", "cos(p1) cos(p2)", "2 ** 3", "sin()", "cos(0*p1)"],
)
def test_parser_rejects_malformed_input(bad):
    with pytest.raises(VParseError):
        parse_v(bad)


def test_round_trip_serialization():
    v = parse_v("0.5 - cos(p1) * sin(p3)")
    w = VFunction([(tuple(m), c) for m, c in v.to_terms()])
    assert v == w and hash(v) == hash(w)
    assert (v - w).is_zero


def test_zero_detection():
    assert VFunction.zero().is_zero
    assert (parse_v("cos(p1)") - parse_v("cos(p1)")).is_zero
    assert not parse_v("1e-30").is_zero  # exact coefficients, no magnitude snapping
