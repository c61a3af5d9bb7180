import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from friedrichs3d.lattice import ORIGIN, lambda_point, reduce_coords
from friedrichs3d.vfunction import (
    MAX_HARMONIC,
    VFunction,
    VParseError,
    _difference,
    _negation,
    _product,
    _sum,
    parse_v,
)


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
    assert v == w


def test_algebra_matches_numeric_composition(rng):
    a_text, b_text = "1 + 0.3 * sin(p1)", "cos(p2) - 0.5 * cos(p3)"
    a, b = parse_v(a_text), parse_v(b_text)
    compose = {op: parse_v("(%s) %s (%s)" % (a_text, op, b_text)) for op in "+-*"}
    scaled = parse_v("%r*(%s)" % (2.0, a_text))
    q = _random_points(rng, 25)
    for row in q:
        p = reduce_coords(row)
        assert compose["+"](p) == pytest.approx(a(p) + b(p), abs=1e-12)
        assert compose["-"](p) == pytest.approx(a(p) - b(p), abs=1e-12)
        assert compose["*"](p) == pytest.approx(a(p) * b(p), abs=1e-12)
        assert scaled(p) == pytest.approx(2.0 * a(p), abs=1e-12)


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
    assert VFunction().vanishing_order(ORIGIN) is None


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
    [
        "", "cos(p1", "cos(q1)", "1 +", "* cos(p1)", "cos(p1) cos(p2)", "2 ** 3", "sin()", "cos(0*p1)",
        "p1", "1_0", "0x1", "1j", "2**3", "1/2", "True", "...", "cos(p1,)", "cos(p1*2)", "cos(5*p1)",
        "cos(2.5*p1)", "1(2)", "cos(1e999*p1)", "1e999",
        # sums and products of finite coefficients that overflow
        "1e308 + 1e308", "-1e308 - 1e308", "1e308*cos(p1) + 1e308*cos(p1)", "1e308 * 10",
        pytest.param("(" * 250 + "1" + ")" * 250, id="250 nested parentheses"),
        pytest.param("-" * 5000 + "1", id="5000 minus signs"),
        pytest.param("-" * 100000 + "1", id="100000 minus signs"),
    ],
)
def test_parser_rejects_malformed_input(bad):
    with pytest.raises(VParseError):
        parse_v(bad)


def test_parser_takes_trailing_whitespace_and_redundant_parentheses():
    assert parse_v("1 - cos(p1) ") == parse_v("1 - cos(p1)")
    assert parse_v("cos((2*p1)) * sin((p3))") == parse_v("cos(2*p1) * sin(p3)")


_WS = st.sampled_from(["", " ", "  ", "\t", "\n", " \n\t", "\r\n"])
_PREC = {"+": 1, "-": 1, "*": 2}  # unary signs bind at 3, atoms at 4
_OPS = {"+": _sum, "-": _difference, "*": _product}
_MULTIPLIERS = ("%d", "0%d", "%d.0", "%d.", "%de0", "%d.00E+00")


def _apply(op, *args):
    """op(*args) on {mode: coefficient} dicts, or None (the parser must refuse)
    when an argument is None or op refuses."""
    if any(a is None for a in args):
        return None
    try:
        return op(*args)
    except ValueError:  # a harmonic beyond the cap
        return None


@st.composite
def _numbers(draw):
    text = draw(st.from_regex(r"(0*[0-9]{1,3}(\.[0-9]{0,3})?|\.[0-9]{1,3})([eE][+-]?0?[0-9])?", fullmatch=True))
    return text, 4, {(0, 0, 0): float(text)}


@st.composite
def _trig_terms(draw):
    name, axis = draw(st.sampled_from(["cos", "sin"])), draw(st.integers(1, 3))
    n = draw(st.integers(1, MAX_HARMONIC))
    form = draw(st.sampled_from(_MULTIPLIERS + ((None,) if n == 1 else ())))
    ws = [draw(_WS) for _ in range(5)]
    arg = "p%d" % axis if form is None else (form % n) + ws[0] + "*" + ws[1] + "p%d" % axis
    mode = tuple((n if name == "cos" else -n) if j == axis else 0 for j in (1, 2, 3))
    return name + ws[2] + "(" + ws[3] + arg + ws[4] + ")", 4, {mode: 1.0}


@st.composite
def _compound(draw, children):
    kind = draw(st.sampled_from(["binary", "unary", "parens"]))
    text, prec, value = draw(children)
    if kind == "parens":
        return "(" + draw(_WS) + text + draw(_WS) + ")", 4, value
    if kind == "unary":
        sign = draw(st.sampled_from("+-"))
        text = text if prec >= 3 else "(" + text + ")"
        return sign + draw(_WS) + text, 3, _apply(_negation if sign == "-" else (lambda x: x), value)
    op = draw(st.sampled_from("+-*"))
    right, right_prec, right_value = draw(children)
    left = text if prec >= _PREC[op] else "(" + text + ")"  # + - * associate to the left
    right = right if right_prec > _PREC[op] else "(" + right + ")"
    return left + draw(_WS) + op + draw(_WS) + right, _PREC[op], _apply(_OPS[op], value, right_value)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.recursive(_numbers() | _trig_terms(), _compound, max_leaves=12), _WS, _WS)
def test_parser_builds_the_expression_it_reads(expression, lead, trail):
    # the expected v applies the same dict operations to the same operands,
    # so the terms must agree exactly, coefficients bit for bit
    text, _, expected = expression
    if expected is None:
        with pytest.raises(VParseError):
            parse_v(lead + text + trail)
    else:
        assert parse_v(lead + text + trail) == VFunction(expected.items())


def test_algebra_refuses_a_sum_that_overflows():
    with pytest.raises(ValueError, match="coefficients must be finite"):
        VFunction([((0, 0, 0), 1e308), ((0, 0, 0), 1e308)])
    for text in ("1e308 + 1e308", "1e308 - (-1e308)"):
        with pytest.raises(VParseError, match="coefficients must be finite"):
            parse_v(text)


def test_round_trip_serialization():
    v = parse_v("0.5 - cos(p1) * sin(p3)")
    w = VFunction([(tuple(m), c) for m, c in v.to_terms()])
    assert v == w and hash(v) == hash(w)


def test_zero_detection():
    assert VFunction().is_zero
    assert parse_v("cos(p1) - cos(p1)").is_zero
    assert not parse_v("1e-30").is_zero  # exact coefficients, no magnitude snapping
