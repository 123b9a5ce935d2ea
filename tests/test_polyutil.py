"""Properties of the polynomial kernels in polyutil (the integer
discriminant, and the dense sympy kernels for the difference resolvent,
the squarefree split and factorization mod p) and the search for a
prime = 1 (mod n), each checked against an oracle that shares no code
with the kernel: products of root differences, Sylvester determinants
over Fraction, sympy's dup_discriminant, brute force over F_p and trial
division."""

from collections import Counter
from itertools import combinations, permutations
from math import gcd, isqrt, prod

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import derivative, difference_product, sylvester_resultant, sympy_discriminant
from thuecc import polyutil
from thuecc.forms import FormShape
from thuecc.padic import difference_valuations

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def _trim(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return tuple(f)


def _mul(f, g, m=None):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return _trim(c % m for c in out) if m else _trim(out)


def _value_mod(f, x, p):
    return sum(c * pow(x, k, p) for k, c in enumerate(f)) % p


def _root_multiplicity(f, r, p):
    """How often (x - r) divides f over F_p, by repeated synthetic division."""
    k = 0
    while len(f) > 1 and _value_mod(f, r, p) == 0:
        quotient, acc = [], 0
        for c in reversed(f[1:]):
            acc = (acc * r + c) % p
            quotient.append(acc)
        f = tuple(reversed(quotient))
        k += 1
    return k


@st.composite
def factored_polys(draw):
    """c * prod g_i^e_i of degree 1..10, so repeated factors are common."""
    f = (draw(st.integers(-6, 6).filter(bool)),)
    for _ in range(draw(st.integers(1, 4))):
        g = tuple(draw(st.lists(st.integers(-4, 4), min_size=2, max_size=4)))
        if not _trim(g)[1:]:
            continue
        for _ in range(draw(st.integers(1, 3))):
            f = _mul(f, _trim(g))
    assume(2 <= len(f) <= 11)
    return f


@given(
    st.integers(-5, 5).filter(bool),
    st.lists(st.integers(-15, 15), min_size=1, max_size=10, unique=True),
)
@settings(max_examples=100, deadline=None)
def test_discriminant_is_product_of_root_differences(lc, roots):
    f = (lc,)
    for a in roots:
        f = _mul(f, (-a, 1))
    n = len(roots)
    expected = lc ** (2 * n - 2) * prod((a - b) ** 2 for a, b in combinations(roots, 2))
    assert polyutil.discriminant(f) == expected


@st.composite
def discriminant_polys(draw):
    """c x^k g^2 b of degree 1..12: g^2 gives repeated roots (disc 0),
    x^k a root at 0, c a negative or non-primitive leading coefficient.
    Two thirds of the b of degree 3 or more have two terms below the top, like
    x^4 + x + 1 and x^6 + x^3 + 1, whose remainder sequences skip
    degrees."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(0, min(3, n)))
    r = draw(st.integers(0, (n - k) // 2))
    m = n - k - 2 * r
    lead = st.integers(-9, 9).filter(bool)
    if m < 3 or draw(st.integers(0, 2)) == 0:
        b = draw(st.lists(st.integers(-9, 9), min_size=m, max_size=m))
    else:
        b = [0] * m
        for i in draw(st.sets(st.integers(0, m - 1), min_size=2, max_size=2)):
            b[i] = draw(lead)
    g = tuple(draw(st.lists(st.integers(-4, 4), min_size=r, max_size=r)))
    f = (0,) * k + _mul(tuple(b) + (draw(lead),), (draw(st.sampled_from([1, -1, 2, -3, 6])),))
    g += (draw(lead),)
    return _mul(_mul(f, g), g)


@given(discriminant_polys())
@example((1, 1, 0, 0, 1))  # x^4 + x + 1: degrees 4, 3, 1, 0
@example((1, 0, 0, 1, 0, 0, 1))  # x^6 + x^3 + 1: degrees 6, 5, 3, 2, 0
@settings(max_examples=300, deadline=None)
def test_discriminant_matches_sympy(f):
    assert polyutil.discriminant(f) == sympy_discriminant(f)
    if len(f) == 2:
        assert polyutil.discriminant(f) == 1


@st.composite
def distinct_roots(draw):
    """1 to 10 distinct integers; the size is drawn first, so that the
    costly degrees near 10 come no more often than the others."""
    n = draw(st.integers(1, 10))
    return draw(st.lists(st.integers(-15, 15), min_size=n, max_size=n, unique=True))


@given(
    st.one_of(st.sampled_from([-1, 1]), st.integers(-12, 12).filter(lambda c: abs(c) > 1)),
    distinct_roots(),
    st.sampled_from(PRIMES),
)
@settings(max_examples=20, deadline=None)
def test_difference_resolvent_is_product_of_root_differences(lc, roots, p):
    """Res_y(f(y), f(x+y)) = lc^(2s) prod_{i,j} (x - (a_i - a_j)), and the
    difference valuations are the v_p(a_i - a_j) over i != j."""
    f = (lc,)
    for a in roots:
        f = _mul(f, (-a, 1))
    assert polyutil.difference_resolvent(f) == difference_product(lc, roots)
    if len(roots) >= 2:
        shape = FormShape(len(roots), (1,) * len(roots), lc, f, 0, polyutil.discriminant(f))
        got = Counter()
        for v, m in difference_valuations(shape, p):
            got[v] += m
        expected = Counter(polyutil.vp(a - b, p) for a, b in permutations(roots, 2))
        assert got == expected


@given(st.lists(st.integers(-20, 20), min_size=2, max_size=11).filter(lambda c: c[-1] != 0))
@settings(max_examples=100, deadline=None)
def test_discriminant_is_sylvester_resultant(f):
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f)."""
    n = len(f) - 1
    res = sylvester_resultant(f, derivative(f))
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    assert res % f[-1] == 0
    assert polyutil.discriminant(f) == sign * res // f[-1]


@given(factored_polys())
@settings(max_examples=100, deadline=None)
def test_sqf_parts_properties(f):
    parts = polyutil.sqf_parts(f)
    ks = [k for k, _ in parts]
    assert ks == sorted(set(ks)) and all(k >= 1 for k in ks)
    product = (1,)
    for k, w in parts:
        assert len(w) >= 2 and w[-1] > 0 and gcd(*w) == 1
        if len(w) > 2:
            assert sylvester_resultant(w, derivative(w)) != 0  # squarefree
        for _ in range(k):
            product = _mul(product, w)
    for (_, v), (_, w) in combinations(parts, 2):
        assert sylvester_resultant(v, w) != 0  # coprime
    # f equals the product up to a rational unit
    assert _mul(f, (product[-1],)) == _mul(product, (f[-1],))


@given(factored_polys(), st.sampled_from(PRIMES))
@settings(max_examples=150, deadline=None)
def test_factor_mod_p_properties(f, p):
    fp = _trim(c % p for c in f)
    assume(fp)
    factors = polyutil.factor_mod_p(f, p)
    product = (1,)
    for g, k in factors:
        assert len(g) >= 2 and g[-1] == 1 and all(0 <= c < p for c in g) and k >= 1
        for _ in range(k):
            product = _mul(product, g, p)
    lc_inv = pow(fp[-1], -1, p)
    assert product == _trim(c * lc_inv % p for c in fp)
    # linear factors are the F_p roots with their multiplicities
    linear = sorted((-g[0] % p, k) for g, k in factors if len(g) == 2)
    roots = [r for r in range(p) if _value_mod(fp, r, p) == 0]
    assert linear == [(r, _root_multiplicity(fp, r, p)) for r in roots]
    for g, _ in factors:
        if len(g) > 2:
            assert all(_value_mod(g, r, p) for r in range(p))


@given(st.integers(2, 40))
@settings(max_examples=150, deadline=None)
def test_prime_one_mod_is_the_least_admissible_prime(n):
    def is_prime(q):
        return q > 1 and all(q % d for d in range(2, isqrt(q) + 1))

    q = polyutil.prime_one_mod(n)
    assert q % n == 1 and is_prime(q)
    assert not any(is_prime(r) for r in range(n + 1, q, n))
