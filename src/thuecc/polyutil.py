"""The integer and polynomial kernels, and the package's only sympy client.

Univariate integer polynomials are plain tuples of coefficients in
*ascending* order: ``poly[k]`` is the coefficient of x^k.  The zero
polynomial is the empty tuple.  Discriminants are computed here in
plain integers, by the subresultant PRS.  No other module imports
sympy.  Its dense kernels on descending coefficient lists,
``dmp_resultant`` (the difference resolvent), ``dup_sqf_list``,
``dup_factor_list``, ``gf_factor`` and ``dup_zz_hensel_lift``, are
called behind ascending-tuple functions here; its integer functions
``isprime``, ``nextprime`` and ``integer_nthroot`` are imported here
and reached as ``polyutil.<name>``.  No ``Poly`` or expression is built
anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd

from sympy import ZZ, integer_nthroot, isprime, nextprime  # noqa: F401
from sympy.polys.euclidtools import dmp_resultant
from sympy.polys.factortools import dup_factor_list, dup_zz_hensel_lift
from sympy.polys.galoistools import gf_factor, gf_from_int_poly
from sympy.polys.sqfreetools import dup_sqf_list

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


def content(f) -> int:
    """gcd of the coefficients (0 for the zero polynomial)."""
    return gcd(*f)


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
    """f(a0 + a1*x) in exact integers, by Taylor's formula at a0: the
    x^j coefficient is a1^j sum_k f_k C(k, j) a0^(k-j)."""
    n = len(f) - 1
    return trim(
        a1**j * sum(f[k] * comb(k, j) * a0 ** (k - j) for k in range(j, n + 1))
        for j in range(n + 1)
    )


def vp(x: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if p < 2:
        raise ValueError(f"valuation at p={p} requested; p must be at least 2")
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


def to_dense(f) -> list[int]:
    """Descending coefficient list, the dense form of sympy's dup_*/gf_*."""
    return list(reversed(trim(f)))


def from_dense(coeffs) -> IntPoly:
    return trim(tuple(int(c) for c in reversed(coeffs)))


def sqf_parts(f) -> list[tuple[int, IntPoly]]:
    """Squarefree decomposition f = unit * prod w_k^k over Q.

    Returns [(k, w_k)] with each w_k a primitive integer polynomial with
    positive leading coefficient, pairwise coprime and squarefree.
    Multiplicity structure is Galois-stable, so this determines the
    multiplicities of the roots without materializing any root.
    """
    parts = [(int(k), primitive(from_dense(w))) for w, k in dup_sqf_list(to_dense(f), ZZ)[1]]
    return sorted(t for t in parts if degree(t[1]) >= 1)


def discriminant(f) -> int:
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f) for f of degree n >= 1,
    and 0 for a constant f.

    Res(f, f') comes from the subresultant pseudo-remainder sequence on
    the primitive parts of f and f' (Collins; Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 3.3.7), whose divisions
    by g h^delta are exact, so every intermediate value is an integer.
    """
    a = to_dense(f)
    n = len(a) - 1
    if n < 1:
        return 0
    lc = a[0]
    b = [(n - i) * c for i, c in enumerate(a[:-1])]
    ca, cb = content(a), content(b)
    t = ca ** (n - 1) * cb**n  # Res(ca A, cb B) = ca^deg B cb^deg A Res(A, B)
    a, b = [c // ca for c in a], [c // cb for c in b]
    s, g, h = 1, 1, 1
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 and db % 2:
            s = -s
        r = _prem(a, b)
        a, b = b, [c // (g * h**delta) for c in r]
        g = a[0]
        h = g**delta // h ** (delta - 1)  # delta >= 1: degrees fall
    if not b:
        return 0
    da = len(a) - 1
    res = s * t * (b[0] ** da // h ** (da - 1))
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * res // lc


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of descending lists, deg a >= deg b >= 1: the
    remainder of lc(b)^(deg a - deg b + 1) a by b, leading zeros dropped.

    Each step clears the lead r[i] in place: the window r[i+1 .. i+m-1]
    becomes lc(b) r - r[i] b, and the rest of r is scaled by lc(b)."""
    lb, m, n = b[0], len(b), len(a)
    r = list(a)
    for i in range(n - m + 1):
        lr = r[i]
        for k in range(1, m):
            r[i + k] = lb * r[i + k] - lr * b[k]
        for k in range(i + m, n):
            r[k] *= lb
    i = n - m + 1
    while i < n and r[i] == 0:
        i += 1
    return r[i:]


def difference_resolvent(f) -> IntPoly:
    """Res_y(f(y), f(x+y)) as a polynomial in x, from sympy's dense
    resultant over ZZ[x][y].  Its roots are the differences of the roots
    of f, each ordered pair once.

    The y^j coefficient of f(x+y) is sum_k f_k C(k,j) x^(k-j).
    """
    f = trim(f)
    n = len(f) - 1
    fy = [[c] if c else [] for c in reversed(f)]
    fxy = [[f[j + d] * comb(j + d, j) for d in range(n - j, -1, -1)] for j in range(n, -1, -1)]
    return from_dense(dmp_resultant(fy, fxy, 1, ZZ))


def factor_mod_p(f, p: int) -> list[tuple[IntPoly, int]]:
    """Monic irreducible factorization of f mod p as [(factor, exponent)].

    Factors are ascending-coefficient tuples reduced into [0, p).  The
    leading-coefficient unit is dropped, and f = 0 mod p gives [].
    """
    _, factors = gf_factor(gf_from_int_poly(to_dense(f), p), p, ZZ)
    out = [(from_dense(g), int(k)) for g, k in factors]
    return sorted(out, key=lambda t: (degree(t[0]), t[0]))


def factor_over_q(f) -> list[IntPoly]:
    """The irreducible factors of f over Q, in sympy's order, without
    multiplicities."""
    return [from_dense(g) for g, _ in dup_factor_list(to_dense(f), ZZ)[1]]


def hensel_lift(f, factors, p: int, k: int) -> list[IntPoly]:
    """The monic factors of f / lc(f) mod p^k lifting the monic factors
    of f mod p, which must be pairwise coprime, reduced into [0, p^k)."""
    lifted = dup_zz_hensel_lift(p, to_dense(f), [to_dense(g) for g in factors], k, ZZ)
    return [poly_mod(g[::-1], p**k) for g in lifted]


def poly_mod(f, m: int) -> IntPoly:
    return trim(tuple(c % m for c in f))


def prime_not_dividing(h: int, start: int) -> int:
    """The least prime above start that does not divide h."""
    q = nextprime(start)
    while h % q == 0:
        q = nextprime(q)
    return q


def prime_one_mod(n: int) -> int:
    """The least prime q = 1 (mod n)."""
    q = n + 1
    while not isprime(q):
        q += n
    return q
