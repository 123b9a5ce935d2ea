"""Small exact-integer polynomial helpers shared across modules.

Univariate integer polynomials are plain tuples of coefficients in
*ascending* order: ``poly[k]`` is the coefficient of x^k.  The zero
polynomial is the empty tuple.  Anything heavier (factorization mod p,
resultants, squarefree decomposition) is delegated to sympy.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import sympy
from sympy import Poly, Symbol

_X = Symbol("x")

IntPoly = tuple[int, ...]


def trim(coeffs) -> IntPoly:
    """Drop trailing (high-degree) zeros."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def degree(f: IntPoly) -> int:
    """Degree of f; -1 for the zero polynomial."""
    return len(trim(f)) - 1


def evaluate(f, x: int) -> int:
    """Horner evaluation at an integer point."""
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def derivative(f) -> IntPoly:
    return trim(tuple(k * c for k, c in enumerate(f) if k >= 1))


def add(f, g) -> IntPoly:
    n = max(len(f), len(g))
    return trim(tuple((f[k] if k < len(f) else 0) + (g[k] if k < len(g) else 0) for k in range(n)))


def mul(f, g) -> IntPoly:
    f, g = trim(f), trim(g)
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] += a * b
    return tuple(out)


def scale(f, c: int) -> IntPoly:
    return trim(tuple(c * a for a in f))


def divmod_monic(f, g) -> tuple[IntPoly, IntPoly]:
    """Quotient and remainder of f by a monic g over the integers.

    Division by a monic polynomial commutes with reduction mod any m, so
    callers working mod m reduce both results with poly_mod.
    """
    assert g and g[-1] == 1
    r = list(trim(f))
    dg = len(g) - 1
    q = [0] * max(len(r) - dg, 0)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + dg]
        if c:
            q[k] = c
            for i, gc in enumerate(g):
                r[k + i] -= c * gc
    return trim(q), trim(r[:dg])


def content(f) -> int:
    """gcd of the coefficients (0 for the zero polynomial)."""
    g = 0
    for c in f:
        g = gcd(g, c)
    return g


def primitive(f) -> IntPoly:
    """Primitive part with positive leading coefficient."""
    f = trim(f)
    if not f:
        return ()
    g = content(f)
    if f[-1] < 0:
        g = -g
    return tuple(c // g for c in f)


def compose_linear(f, a0: int, a1: int) -> IntPoly:
    """f(a0 + a1*x), expanded with exact integer arithmetic."""
    res: IntPoly = ()
    pw: IntPoly = (1,)
    lin = trim((a0, a1))
    for c in f:
        if c:
            res = add(res, scale(pw, c))
        pw = mul(pw, lin)
    return res


def vp(x: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if x == 0:
        raise ValueError("valuation of 0 requested")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def vp_frac(x: Fraction | int, p: int) -> int:
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation of 0 requested")
    return vp(x.numerator, p) - vp(x.denominator, p)


def to_sympy(f) -> Poly:
    return Poly(list(reversed(trim(f) or (0,))), _X)


def from_sympy(poly: Poly) -> IntPoly:
    return trim(tuple(int(c) for c in reversed(poly.all_coeffs())))


def sqf_parts(f) -> list[tuple[int, IntPoly]]:
    """Squarefree decomposition f = unit * prod w_k^k over Q.

    Returns [(k, w_k)] with each w_k a primitive integer polynomial with
    positive leading coefficient, pairwise coprime and squarefree.
    Multiplicity structure is Galois-stable, so this determines the
    multiplicities of the roots without materializing any root.
    """
    _, parts = to_sympy(f).sqf_list()
    out = []
    for poly, k in parts:
        w = primitive(from_sympy(poly))
        if degree(w) >= 1:
            out.append((int(k), w))
    out.sort(key=lambda t: (t[0], t[1]))
    return out


def radical(f) -> IntPoly:
    """Product of the distinct irreducible factors (squarefree part)."""
    acc: IntPoly = (1,)
    for _, w in sqf_parts(f):
        acc = mul(acc, w)
    return primitive(acc)


def discriminant(f) -> int:
    d = sympy.discriminant(to_sympy(f).as_expr(), _X)
    return int(d)


def factor_mod_p(f, p: int) -> list[tuple[IntPoly, int]]:
    """Monic irreducible factorization of f mod p as [(factor, exponent)].

    Factors are ascending-coefficient tuples reduced into [0, p).  The
    leading-coefficient unit is dropped.
    """
    import warnings

    expr = to_sympy(f).as_expr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, factors = sympy.factor_list(expr, _X, modulus=p)
    out = []
    for poly, k in factors:
        g = Poly(poly, _X, modulus=p)
        coeffs = [int(c) % p for c in reversed(g.all_coeffs())]
        out.append((trim(tuple(coeffs)), int(k)))
    out.sort(key=lambda t: (degree(t[0]), t[0]))
    return out


def poly_mod(f, m: int) -> IntPoly:
    return trim(tuple(c % m for c in f))
