"""Coupling functions: finite real trigonometric polynomials on the torus.

A coupling function is stored as a sparse sum

    v(p) = sum_m  c_m * b(m1, p1) * b(m2, p2) * b(m3, p3)

with the per-axis basis b(0, x) = 1, b(n, x) = cos(n x) for n > 0 and
b(n, x) = sin(|n| x) for n < 0.  Harmonic orders are capped at 4 so that
parsed expressions stay small; products use exact product-to-sum
identities, so all algebra (and differentiation) is closed and exact.

The algebra works on plain {mode: coefficient} dicts: a sum adds the
second operand's coefficients to the first's, and a product expands the
pairs of terms, in sorted mode order, by product-to-sum rules.  Each sum
and product drops its zero terms and refuses a coefficient that is not
finite, also one that overflows when finite ones are added; a product
also refuses a harmonic beyond the cap, which sums and negation keep.
The parser applies these operations, one per node of its tree.  A v is
otherwise built from its terms by `VFunction(terms)`, the inverse of
`to_terms()`; v = 0 is `VFunction()`.

`parse_v` reads int and float literals, binary + - *, unary signs,
parentheses and cos(pj), sin(pj), cos(n*pj), sin(n*pj) with j in 1..3 and
n an integer in 1..4.  It checks the characters, then walks the tree of
Python's own `ast` parser and applies one dict operation per node, left
to right; one VFunction is built at the end.
"""

from __future__ import annotations

import ast
import cmath
import math
import re
from functools import lru_cache

import numpy as np

MAX_HARMONIC = 4
# one request works on one v: fresh v must not pile up in the coefficient caches
_CACHE_SIZE = 4

__all__ = ["VFunction", "VParseError", "parse_v"]


class VParseError(ValueError):
    """Raised when a coupling-function expression cannot be parsed."""


def _basis_eval(n: int, x):
    if n == 0:
        return 1.0 if np.isscalar(x) else np.ones_like(np.asarray(x, dtype=float))
    if n > 0:
        return np.cos(n * x)
    return np.sin(-n * x)


def _checked(acc: dict) -> dict:
    """acc without its zero terms; refuses a coefficient that is not finite."""
    out = {m: c for m, c in acc.items() if c != 0.0}
    if not all(map(math.isfinite, out.values())):
        raise ValueError("coefficients must be finite")
    return out


def _capped(coefficients: dict) -> dict:
    """coefficients, once every harmonic is within the cap; sums and negation keep it."""
    if any(max(map(abs, m)) > MAX_HARMONIC for m in coefficients):
        raise ValueError("harmonic order exceeds the cap of %d per axis" % MAX_HARMONIC)
    return coefficients


def _normalize(terms) -> dict:
    acc = {}
    for m, c in terms:
        m = (int(m[0]), int(m[1]), int(m[2]))
        acc[m] = acc.get(m, 0.0) + float(c)
    return _capped(_checked(acc))


def _axis_product(a: int, b: int):
    """Expand b(a, x) * b(b, x) into [(index, factor)] by product-to-sum rules."""
    if a == 0:
        return [(b, 1.0)]
    if b == 0:
        return [(a, 1.0)]
    if a > 0 and b > 0:
        # cos cos
        return [(a + b, 0.5), (abs(a - b), 0.5)]
    if a < 0 and b < 0:
        # sin sin
        m, n = -a, -b
        return [(abs(m - n), 0.5), (m + n, -0.5)]
    # mixed: cos(m x) * sin(n x) = (sin((n+m)x) + sin((n-m)x)) / 2
    m = a if a > 0 else b
    n = -(b if a > 0 else a)
    out = [(-(n + m), 0.5)]
    d = n - m
    if d > 0:
        out.append((-d, 0.5))
    elif d < 0:
        out.append((d, -0.5))  # sin(d x) with d < 0 is -sin(|d| x)
    return out


def _sum(a: dict, b: dict) -> dict:
    acc = dict(a)
    for m, c in b.items():
        acc[m] = acc.get(m, 0.0) + c
    return _checked(acc)


def _negation(a: dict) -> dict:
    return {m: -c for m, c in a.items()}


def _difference(a: dict, b: dict) -> dict:
    return _sum(a, _negation(b))


def _product(a: dict, b: dict) -> dict:
    """a * b by product-to-sum rules, the pairs of terms taken in sorted mode order."""
    acc = {}
    right = sorted(b.items())
    for ma, ca in sorted(a.items()):
        for mb, cb in right:
            base = ca * cb
            for i1, f1 in _axis_product(ma[0], mb[0]):
                for i2, f2 in _axis_product(ma[1], mb[1]):
                    for i3, f3 in _axis_product(ma[2], mb[2]):
                        m = (i1, i2, i3)
                        acc[m] = acc.get(m, 0.0) + base * f1 * f2 * f3
    return _capped(_checked(acc))


def _axis_exp(n: int) -> dict:
    """Complex-exponential expansion of one basis factor: {freq: coeff}."""
    if n == 0:
        return {0: 1.0 + 0.0j}
    if n > 0:
        return {n: 0.5 + 0.0j, -n: 0.5 + 0.0j}
    m = -n
    return {m: -0.5j, -m: 0.5j}


class VFunction:
    """Immutable, hashable trigonometric polynomial in three angles."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        object.__setattr__(self, "terms", tuple(sorted(_normalize(terms).items())))

    def __setattr__(self, name, value):
        raise AttributeError("VFunction is immutable")

    # ---- basic queries -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _coefficient_bound(self) -> float:
        return float(sum(abs(c) for _, c in self.terms))

    # ---- evaluation ----------------------------------------------------

    def evaluate(self, px, py, pz):
        """Evaluate on broadcastable coordinate arrays."""
        total = 0.0
        for (m1, m2, m3), c in self.terms:
            total = total + c * _basis_eval(m1, px) * _basis_eval(m2, py) * _basis_eval(m3, pz)
        return total

    def __call__(self, p) -> float:
        c1, c2, c3 = np.asarray(p, dtype=float)
        return float(self.evaluate(c1, c2, c3))

    # ---- calculus --------------------------------------------------------

    def vanishing_order(self, point):
        """Smallest q with some order-q partial nonzero at `point`; None iff v = 0.

        Uses exact derivatives, so the answer is free of finite differencing:
        with v = sum_n c_n e^{i n.p}, the order-q partial d^alpha v(p) is
        i^q sum_n c_n n^alpha e^{i n.p}.  In u_j = e^{i p_j}, (u1 u2 u3)^4 v
        is a polynomial of degree <= 8 per variable, so a nonzero v vanishes
        to order at most 24.
        """
        coords = np.asarray(point, dtype=float)
        coeffs = _exp_coeffs_cached(self)
        if not coeffs:
            return None
        modes = np.array([n for n, _ in coeffs], dtype=float)
        # one row per alpha with |alpha| = q, holding c_n e^{i n.point} n^alpha;
        # the rows with alpha1 = 0 come last, and among them (0, 0, q)
        rows = (np.array([c for _, c in coeffs]) * np.exp(1j * (modes @ coords)))[None]
        no_1 = no_12 = rows
        bound = self._coefficient_bound()
        for q in range(6 * MAX_HARMONIC + 1):
            if q:
                no_12 = no_12 * modes[:, 2]
                no_1 = np.vstack([no_1 * modes[:, 1], no_12])
                rows = np.vstack([rows * modes[:, 0], no_1])
            # the row sums are d^alpha v(point) / i^q, bounded by bound * 4^q:
            # the test is relative, so scaling v leaves the order unchanged
            scale = bound * MAX_HARMONIC ** q
            if np.max(np.abs(rows.sum(axis=1))) > 1e-9 * scale:
                return q
        return None

    # ---- spectral data ---------------------------------------------------

    def exp_coeffs(self) -> dict:
        """Complex-exponential coefficients {(n1,n2,n3): c} with v = sum c e^{i n.p}."""
        return dict(_exp_coeffs_cached(self))

    def squared_exp_coeffs(self) -> dict:
        """Exponential coefficients of v^2 (plain convolution, bypasses the cap)."""
        return dict(_squared_exp_cached(self))

    # ---- serialization and dunders ----------------------------------------

    def to_terms(self):
        return [[list(m), c] for m, c in self.terms]

    def __eq__(self, other):
        if not isinstance(other, VFunction):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        if self.is_zero:
            return "VFunction()"
        bits = []
        for (m1, m2, m3), c in self.terms:
            fac = []
            for axis, n in enumerate((m1, m2, m3)):
                if n > 0:
                    fac.append("cos(%dp%d)" % (n, axis + 1))
                elif n < 0:
                    fac.append("sin(%dp%d)" % (-n, axis + 1))
            bits.append("%g%s" % (c, ("*" + "*".join(fac)) if fac else ""))
        return "VFunction<%s>" % " + ".join(bits)


@lru_cache(maxsize=_CACHE_SIZE)
def _exp_coeffs_cached(v: VFunction):
    acc = {}
    for m, c in v.terms:
        partial = {(): c + 0.0j}
        for axis in range(3):
            ax = _axis_exp(m[axis])
            nxt = {}
            for key, val in partial.items():
                for n, w in ax.items():
                    kk = key + (n,)
                    nxt[kk] = nxt.get(kk, 0.0j) + val * w
            partial = nxt
        for key, val in partial.items():
            acc[key] = acc.get(key, 0.0j) + val
    return tuple(sorted((k, c) for k, c in acc.items() if abs(c) > 0.0))


@lru_cache(maxsize=_CACHE_SIZE)
def _squared_exp_cached(v: VFunction):
    base = _exp_coeffs_cached(v)
    acc = {}
    for ka, ca in base:
        for kb, cb in base:
            kk = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
            acc[kk] = acc.get(kk, 0.0j) + ca * cb
    if not all(map(cmath.isfinite, acc.values())):
        raise ValueError("the coefficients of v^2 overflow")
    return tuple(sorted((k, c) for k, c in acc.items() if c != 0.0))


# ---------------------------------------------------------------------------
# Expression parser: numbers, + - *, cos(n*pj)/sin(n*pj), parentheses.
# ---------------------------------------------------------------------------

# anything else (`_`, hex, `j`, `/`, commas, other names) is refused up front
_ALPHABET = re.compile(r"(?:[\s0-9.eE+\-*()]|cos|sin|p[123])*")
# Python refuses leading zeros on integer literals, but "01" reads as 1
_LEADING_ZEROS = re.compile(r"(?<![\w.])0+(?=[0-9])")
_BINARY = {ast.Add: _sum, ast.Sub: _difference, ast.Mult: _product}
_SIGN = {ast.UAdd: lambda a: a, ast.USub: _negation}


def _number(node):
    """The value of an int or float literal, else None."""
    return float(node.value) if isinstance(node, ast.Constant) and type(node.value) in (int, float) else None


def _trig(node: ast.Call) -> dict:
    """cos(pj), sin(pj), cos(n*pj) or sin(n*pj) with n in 1..MAX_HARMONIC."""
    arg = node.args[0] if len(node.args) == 1 else None
    n = 1.0
    if isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Mult) and _number(arg.left) is not None:
        n, arg = _number(arg.left), arg.right
        if n not in range(1, MAX_HARMONIC + 1):
            raise VParseError("harmonic multiplier must be an integer in 1..%d, got %r" % (MAX_HARMONIC, n))
    if not (isinstance(arg, ast.Name) and arg.id in ("p1", "p2", "p3")):
        raise VParseError("expected p1, p2, p3 or n*pj inside %s(...)" % node.func.id)
    mode = [0, 0, 0]
    mode[int(arg.id[1]) - 1] = int(n) if node.func.id == "cos" else -int(n)
    return {tuple(mode): 1.0}


def _build(node) -> dict:
    """The {mode: coefficient} dict of an expression tree, one operation per node, left to right."""
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](_build(node.left), _build(node.right))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _SIGN:
        return _SIGN[type(node.op)](_build(node.operand))
    if (value := _number(node)) is not None:
        return _checked({(0, 0, 0): value})
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("cos", "sin"):
        return _trig(node)
    raise VParseError("unsupported term %r" % ast.unparse(node))


def parse_v(text: str) -> VFunction:
    """Parse an expression like "1 - 0.5*cos(p1) + 0.25*sin(2*p3)" into a VFunction."""
    if not isinstance(text, str) or not text.strip():
        raise VParseError("empty coupling-function expression")
    end = _ALPHABET.match(text).end()
    if end < len(text):
        raise VParseError("unexpected character %r at position %d" % (text[end], end))
    try:
        return VFunction(_build(ast.parse(_LEADING_ZEROS.sub("", " ".join(text.split())), mode="eval").body).items())
    except SyntaxError as exc:
        raise VParseError("malformed expression: %s" % exc.msg) from None
    except (RecursionError, MemoryError):  # past its depth limit, CPython's parser raises MemoryError
        raise VParseError("expression nested too deeply") from None
    except (ValueError, OverflowError) as exc:  # a coefficient or harmonic out of range
        raise VParseError(str(exc)) from None
