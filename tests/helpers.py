"""Shared test utilities: random instance generators and independent
oracles (brute-force Z_p root counting, partition enumeration, Sylvester
resultants, products over root differences, factoring over Q, sympy's
discriminant and squarefree split, the jacobian decomposition under the
order-n automorphism, the swapped form, v_p(F(a, b)) from a valuation
profile, a bound report's entry by name, Fermat-twist scaling orbits
materialized over a finite field, the records of a CSV report)."""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from math import gcd, lcm

import sympy
from sympy import ZZ
from sympy.polys.densearith import dup_div
from sympy.polys.euclidtools import dup_discriminant
from sympy.polys.sqfreetools import dup_sqf_list

from thuecc import polyutil
from thuecc.fermat import SolutionTriple
from thuecc.forms import BinaryForm, ThueInstance
from thuecc.newton_zero import CoeffValuationSeq
from thuecc.padic import INF


def random_form(rng, n: int, lo=-9, hi=9) -> BinaryForm:
    while True:
        coeffs = [rng.randint(lo, hi) for _ in range(n + 1)]
        if any(coeffs):
            try:
                return BinaryForm.from_coeffs(coeffs)
            except ValueError:
                continue


def product_form(roots, mults) -> BinaryForm:
    """prod (x - a_i y)^{m_i}, expanded exactly: the coefficient of
    x^(n-i) y^i is (-1)^i e_i, e_i the elementary symmetric functions
    of the a_i repeated m_i times."""
    flat = []
    for a, m in zip(roots, mults):
        flat.extend([a] * m)
    n = len(flat)
    e = [1] + [0] * n
    for a in flat:
        for i in range(n, 0, -1):
            e[i] += a * e[i - 1]
    return BinaryForm.from_coeffs([(-1) ** i * e[i] for i in range(n + 1)])


def random_tracked_instance(rng, p: int):
    """Instance with integer roots and a certified solution (x0, y0)
    such that p | h; fully trackable at p.  Returns (instance, (x0,y0))."""
    patterns = {
        4: [(1, 1, 1, 1), (3, 1)],
        5: [(1, 1, 1, 1, 1), (2, 1, 1, 1), (4, 1)],
        6: [(1, 1, 1, 1, 1, 1), (1, 1, 1, 3), (5, 1)],
    }
    while True:
        n = rng.choice([m for m in (4, 5, 6) if m % p != 0 and m < p])
        mults = list(rng.choice(patterns[n]))
        rng.shuffle(mults)
        k = len(mults)
        roots = rng.sample(range(-12, 13), k)
        y0 = rng.randint(1, 4)
        x0 = roots[0] * y0 + p * rng.randint(-2, 2)
        if abs(x0) > 40 or gcd(x0, y0) != 1:
            continue
        form = product_form(roots, mults)
        h = form_value(form.coeffs, x0, y0)
        if h == 0 or h % p != 0:
            continue
        inst = ThueInstance.build(form, h)
        if not inst.irreducible:
            continue
        return inst, (x0, y0)


def random_valuation_seq(rng, p: int) -> CoeffValuationSeq:
    """Sequence with a forced first unit index strictly below p^2 - 2."""
    iu = rng.randint(0, min(18, p * p - 3))
    length = iu + rng.randint(2, 6)
    vals = []
    for m in range(length):
        if m < iu:
            vals.append(rng.choice([1, 1, 2, 3, INF]))
        elif m == iu:
            vals.append(0)
        else:
            vals.append(rng.choice([0, 0, 1, 2, INF]))
    return CoeffValuationSeq(p, tuple(vals))


def realize_series(seq: CoeffValuationSeq, rng):
    """Integer polynomial D * (a_0 + sum a_m p^m z^m / m) with
    v(a_m) = seq.vals[m] and random p-unit parts; zero beyond the
    truncation."""
    p = seq.p
    M = len(seq.vals) - 1
    d = lcm(*range(1, M + 1)) if M >= 1 else 1
    coeffs = []
    for m, v in enumerate(seq.vals):
        if v == INF:
            coeffs.append(0)
            continue
        unit = rng.randint(1, p - 1) * rng.choice([1, -1])
        a_m = unit * p ** int(v)
        if m == 0:
            coeffs.append(d * a_m)
        else:
            coeffs.append((d // m) * a_m * p**m)
    return polyutil.trim(tuple(coeffs))


def form_value(coeffs, x: int, y: int) -> int:
    """The defining sum sum_i coeffs[i] x^(n-i) y^i of a binary form,
    coeffs in BinaryForm order; it shares no code with BinaryForm."""
    n = len(coeffs) - 1
    return sum(c * x ** (n - i) * y**i for i, c in enumerate(coeffs))


def swapped(form: BinaryForm) -> BinaryForm:
    """F(y, x)."""
    return BinaryForm(tuple(reversed(form.coeffs)))


def form_valuation(prof, shape):
    """v_p(F(a, b)) reconstructed from the valuation profile of (a, b):
    v_p of the leading coefficient, each root's valuation times its
    multiplicity, and v_p(b) for each root at infinity."""
    total = Fraction(polyutil.vp(shape.lead, prof.p)) if shape.lead % prof.p == 0 else Fraction(0)
    for e in prof.per_root:
        if e.value == INF:
            return INF
        total += e.multiplicity * e.value
    if shape.degree_deficit:
        if prof.b == 0:
            return INF
        total += shape.degree_deficit * polyutil.vp(prof.b, prof.p)
    return total


def bound_entry(report, name: str):
    """The entry of a bounds.BoundReport with the given name."""
    (entry,) = [e for e in report.entries if e.name == name]
    return entry


def evaluate(f, x: int) -> int:
    """Horner evaluation of an ascending integer polynomial."""
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def derivative(f) -> tuple[int, ...]:
    return polyutil.trim(tuple(k * c for k, c in enumerate(f) if k >= 1))


def taylor_shift(f, r: int) -> tuple[int, ...]:
    """f(r + x), ascending: its x^j coefficient is the remainder of the
    j-th repeated synthetic division of f by x - r."""
    out = []
    q = list(f)
    while q:
        acc, quotient = 0, []
        for c in reversed(q):
            acc = acc * r + c
            quotient.append(acc)
        out.append(quotient.pop())
        q = quotient[::-1]
    return tuple(out)


def certified_zp_roots(f, p: int, depth: int = 6) -> tuple[int, int]:
    """(certified, ambiguous): distinct Z_p roots certified by Hensel
    refinement down to the given depth, plus the residue classes left
    unresolved.  certified is a lower bound for the true root count."""
    f = polyutil.trim(f)
    if not f:
        raise ValueError("zero polynomial")
    mv = min(polyutil.vp(c, p) for c in f if c != 0)
    f = tuple(c // p**mv for c in f)
    fd = derivative(f)
    certified = 0
    ambiguous = 0
    for r in range(p):
        if evaluate(f, r) % p != 0:
            continue
        if evaluate(fd, r) % p != 0:
            certified += 1
        elif depth > 0:
            g = tuple(c * p**j for j, c in enumerate(taylor_shift(f, r)))  # f(r + p x)
            c, a = certified_zp_roots(g, p, depth - 1)
            certified += c
            ambiguous += a
        else:
            ambiguous += 1
    return certified, ambiguous


def partitions(n: int, max_part: int | None = None):
    """All partitions of n as nonincreasing tuples."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def sylvester_resultant(f, g) -> int:
    """Res(f, g) of two nonzero ascending integer polynomials, as the
    determinant of their Sylvester matrix by Fraction elimination."""
    f, g = polyutil.trim(f), polyutil.trim(g)
    m, n = len(f) - 1, len(g) - 1
    size = m + n
    if size == 0:
        return 1
    rows = [[0] * i + list(reversed(f)) + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + list(reversed(g)) + [0] * (m - 1 - i) for i in range(m)]
    a = [[Fraction(c) for c in row] for row in rows]
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if a[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, size):
            ratio = a[r][col] / a[col][col]
            if ratio:
                for k in range(col, size):
                    a[r][k] -= ratio * a[col][k]
    assert det.denominator == 1
    return int(det)


def difference_product(lead: int, roots) -> tuple[int, ...]:
    """lead^(2s) prod_{i,j} (x - (a_i - a_j)) over ordered pairs of the s
    given roots, i = j included, expanded one linear factor at a time."""
    out = [lead ** (2 * len(roots))]
    for a in roots:
        for b in roots:
            d = a - b
            # multiply by (x - d): shift up and subtract d times the old list
            out = [-d * out[0]] + [out[k - 1] - d * out[k] for k in range(1, len(out))] + [out[-1]]
    return tuple(out)


def sympy_discriminant(f) -> int:
    """disc(f) of an ascending integer polynomial, from sympy's dense
    dup_discriminant (1 in degree 1, 0 for a constant)."""
    return int(dup_discriminant(polyutil.to_dense(f), ZZ))


def sympy_shape(form: BinaryForm) -> tuple:
    """(s, multiplicities, lead, radical, degree_deficit, sqf_parts, d*)
    of F(x,1), from sympy's full squarefree split dup_sqf_list and its
    dup_discriminant of the radical: d* = lead (-1)^(s(s-1)/2)
    disc(radical) / lc(radical)^(2s-2), or lead when s <= 1."""
    f = form.dehomogenized()
    _, split = dup_sqf_list(polyutil.to_dense(f), ZZ)
    parts = sorted((int(k), polyutil.primitive(polyutil.from_dense(w))) for w, k in split)
    parts = [(k, w) for k, w in parts if len(w) >= 2]
    mults = tuple(k for k, w in parts for _ in range(len(w) - 1))
    rad = (1,)
    for _, w in parts:
        rad = polyutil.mul(rad, w)
    rad = polyutil.primitive(rad)
    s = len(mults)
    d = Fraction(f[-1])
    if s >= 2:
        sign = -1 if (s * (s - 1) // 2) % 2 else 1
        d *= sign * Fraction(sympy_discriminant(rad), rad[-1] ** (2 * s - 2))
    deficit = form.degree - (len(f) - 1)
    return (s, mults, f[-1], rad, deficit, tuple(parts), d)


def rational_factors(f) -> list[tuple[int, ...]]:
    """Irreducible factors over Q of an ascending integer polynomial, each
    as an ascending tuple, from sympy's ``Poly.factor_list``."""
    _, factors = sympy.Poly(list(reversed(f)), sympy.Symbol("x")).factor_list()
    return [tuple(int(c) for c in reversed(q.all_coeffs())) for q, _ in factors]


def divmod_monic(f, g) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Quotient and remainder of ascending integer polynomials by a monic
    g, from sympy's dense dup_div."""
    q, r = dup_div(polyutil.to_dense(f), polyutil.to_dense(g), ZZ)
    return polyutil.from_dense(q), polyutil.from_dense(r)


def automorphism_char_poly(n: int, multiplicities) -> tuple[int, ...]:
    """Characteristic polynomial of the order-n automorphism on homology.

    For the smooth model of y^n = f(x) with n | deg f and multiplicity
    vector (n_1..n_s): phi(t)^(s-2) divided exactly by the product of
    (t^gcd(n,n_i) - 1)/(t - 1); phi(t) = (t^n - 1)/(t - 1).  Its degree
    is 2g.  Ascending coefficients.
    """
    mults = tuple(multiplicities)
    s = len(mults)
    if s < 2:
        raise ValueError("need at least two roots")
    if sum(mults) % n != 0:
        raise ValueError("multiplicities must sum to a multiple of n")
    phi = (1,) * n  # (t^n - 1)/(t - 1)
    num = (1,)
    for _ in range(s - 2):
        num = polyutil.mul(num, phi)
    for m in mults:
        d = gcd(n, m)
        if d > 1:
            num, rem = divmod_monic(num, (1,) * d)
            if rem:
                raise ValueError("division leaves a remainder: input outside the hypotheses")
    return num


def isotypic_dimension(n: int, d: int, s: int, multiplicities=None) -> int:
    """Dimension phi(d)(s-2)/2 of the level-d isotypic piece of the
    jacobian; it must be an integer.

    Requires d | n and, when multiplicities are supplied, d > gcd(n,n_i)
    for every i (the piece can degenerate below that threshold).
    """
    if d <= 1 or n % d != 0:
        raise ValueError("need d | n with d > 1")
    if multiplicities is not None:
        for m in multiplicities:
            if d <= gcd(n, m):
                raise ValueError(f"d={d} not above gcd(n,{m})")
    val = Fraction(int(sympy.totient(d)) * (s - 2), 2)
    if val.denominator != 1:
        raise ValueError(f"non-integral dimension {val}: hypotheses violated")
    return int(val)


def orbit_field_prime(t: SolutionTriple, n: int) -> int:
    """The least prime q = 1 (mod n) dividing neither xyz nor, when it is
    nonzero, x^n - y^n: over F_q the orbit of t keeps the size it has in
    characteristic zero."""
    bad = t.x * t.y * t.z * ((t.x**n - t.y**n) or 1)
    q = n + 1
    while not (sympy.isprime(q) and bad % q):
        q += n
    return q


def materialize_orbit(
    t: SolutionTriple, symmetric: bool, n: int, q: int
) -> set[tuple[int, int]]:
    """Orbit of the reduced point under the two root-of-unity scalings
    over F_q (with n | q - 1), as projective points normalized to z = 1.

    With symmetric=True the coordinate swap is applied too.
    """
    if (q - 1) % n != 0 or not sympy.isprime(q):
        raise ValueError(f"q={q} is not a prime with n | q-1")
    if (t.x * t.y * t.z) % q == 0:
        raise ValueError("triple degenerates mod q")
    xi = pow(sympy.primitive_root(q), (q - 1) // n, q)
    zinv = pow(t.z % q, -1, q)
    x0, y0 = t.x % q * zinv % q, t.y % q * zinv % q
    pts = set()
    reps = [(x0, y0)] + ([(y0, x0)] if symmetric else [])
    for rx, ry in reps:
        for a in range(n):
            for b in range(n):
                pts.add((pow(xi, a, q) * rx % q, pow(xi, b, q) * ry % q))
    return pts


def csv_records(text: str) -> tuple[list[str], list[dict]]:
    """The header and records of a CLI CSV report.  Each record holds
    exactly the header's fields: no surplus cell (DictReader's restkey
    None), no missing one (its restval None) and no blank line."""
    assert [] not in list(csv.reader(io.StringIO(text))), text
    reader = csv.DictReader(io.StringIO(text))
    records = list(reader)
    assert reader.fieldnames, text
    for record in records:
        assert list(record) == reader.fieldnames and None not in record.values(), record
    return reader.fieldnames, records
