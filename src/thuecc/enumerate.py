"""Brute-force oracles: box enumeration and finite-field point counts.

The box search is the ground truth everything else is checked against:
it finds every coprime pair with max(|x|, |y|) <= B and F(x, y) = h.
For even n it scans only the half box x >= 0 and mirrors the x > 0
solutions through (x, y) -> (-x, -y); for odd n it scans the full box.
Every scan goes through one exact residue sieve, which provably discards
no solution: a true solution satisfies the congruence at every modulus,
and every surviving candidate is verified with exact integer arithmetic.
Two prime moduli q1 < q2 whose product exceeds the box diameter give
the candidate y by CRT; a third prime q3 > q2 drops the candidates that
are not roots mod q3 before the exact check.  None of the three divides
h.  A column x whose row of roots is empty mod q1, q2 or q3 holds no
solution and is skipped before any candidate is built.

Every evaluation of a binary form over F_q (the sieve tables, the
affine and projective point counts) goes through one Horner sweep of
F(1, t), _value_buckets, which groups the t by the value F(1, t).  The
sieve tables read from it the roots in y for every x mod q (_rows,
sorted by root_table).  The point counts read it line by line: the
affine points off the origin lie on the lines (l, l t) and (0, l), and
on a line of F-value v != 0 the equation l^n v = h has d = gcd(n, q - 1)
solutions when v / h is a d-th power and none otherwise, so one table of
the d-th powers mod q replaces a pass over the rows (_line_counts).

Results are plain values: primitive_solutions returns the tuple of
solution pairs and residue_class_census the sorted tuple of classes.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd, isqrt

import sympy

from thuecc import polyutil
from thuecc.forms import BinaryForm, ThueInstance
from thuecc.padic import SolutionValuationProfile, TrackedRoots


def default_box(n: int) -> int:
    return 10**4 if n <= 6 else 10**3


def scan_stripe(
    instance: ThueInstance, box: int, x_lo: int, x_hi: int
) -> list[tuple[int, int]]:
    """Primitive solutions with x in [x_lo, x_hi] and |y| <= box, in
    lexicographic order.  A column x is skipped when F(x, y) = h has no
    root y mod q1, mod q2 or mod q3.  Otherwise the y that are roots
    both mod q1 and mod q2 (q1 q2 > 2 box + 1) are lifted by CRT, and
    only those that are also roots mod q3 are tested exactly."""
    form, h = instance.form, instance.h
    out: list[tuple[int, int]] = []
    q1, q2, q3 = _filter_primes(h, box)
    t1 = root_table(form.coeffs, h, q1)
    t2 = root_table(form.coeffs, h, q2)
    t3 = root_table(form.coeffs, h, q3)
    m = q1 * q2
    c1 = q2 * pow(q2, -1, q1)  # CRT basis: 1 mod q1, 0 mod q2
    c2 = q1 * pow(q1, -1, q2)
    for x in range(x_lo, x_hi + 1):
        rs1 = t1[x % q1]
        rs2 = t2[x % q2]
        rs3 = t3[x % q3]
        if not rs1 or not rs2 or not rs3:
            continue
        cands = set()
        for r1 in rs1:
            for r2 in rs2:
                y0 = (r1 * c1 + r2 * c2) % m
                if y0 <= box:
                    cands.add(y0)
                if y0 - m >= -box:
                    cands.add(y0 - m)
        for y in sorted(cands):
            if y % q3 in rs3 and gcd(x, y) == 1 and form(x, y) == h:
                out.append((x, y))
    return out


def _filter_primes(h: int, box: int) -> tuple[int, int, int]:
    """The sieve moduli q1 < q2 < q3: consecutive primes above
    isqrt(2 box + 1), skipping those that divide h."""
    q1 = _prime_not_dividing(h, isqrt(2 * box + 1))
    q2 = _prime_not_dividing(h, q1)
    return q1, q2, _prime_not_dividing(h, q2)


def _prime_not_dividing(h: int, start: int) -> int:
    """The least prime above start that does not divide h."""
    q = int(sympy.nextprime(start))
    while h % q == 0:
        q = int(sympy.nextprime(q))
    return q


def root_table(coeffs, h: int, q: int) -> list[list[int]]:
    """Row x in F_q (q prime): the y, ascending, with sum_i coeffs[i]
    x^(n-i) y^i = h mod q, coeffs in BinaryForm order."""
    rows = _rows(coeffs, h, q, _value_buckets(coeffs, q))
    table = [next(rows)]
    table += [sorted(x * t % q for t in ts) for x, ts in enumerate(rows, 1)]
    return table


def affine_point_count(coeffs, h: int, q: int) -> int:
    """Number of (x, y) in F_q^2 with sum_i coeffs[i] x^(n-i) y^i = h mod q."""
    return _line_counts(coeffs, h, q)[0]


def _line_counts(coeffs, h: int, q: int) -> tuple[int, int]:
    """(affine, zeros) from one sweep of F(1, t), q prime: the points of
    F(x, y) = h in F_q^2, and the points of F = 0 on the projective line,
    (1:t) for F(1, t) = 0 plus (0:1) when q | c_n.

    Every affine point other than the origin is (l, l t) or (0, l) for
    one l != 0, and F takes the value l^n v there, v = F(1, t) or c_n.
    For q | h a line of value 0 holds q - 1 points and any other line
    none; the origin adds one.  Otherwise l^n = h / v has d = gcd(n,
    q - 1) roots when v / h is a nonzero d-th power and none otherwise.
    """
    n = len(coeffs) - 1
    buckets = _value_buckets(coeffs, q)
    zeros = len(buckets.get(0, ())) + (coeffs[-1] % q == 0)
    if h % q == 0:
        return 1 + (q - 1) * zeros, zeros
    d = gcd(n, q - 1)
    power = bytearray(q)  # power[r] = 1 iff r is a nonzero d-th power
    for x in range(1, q):
        power[x**d % q] = 1
    h_inv = pow(h, -1, q)
    lines = sum(len(ts) for v, ts in buckets.items() if power[v * h_inv % q])
    lines += power[coeffs[-1] * h_inv % q]
    return d * lines, zeros


def _rows(coeffs, h: int, q: int, buckets):
    """The rows of root_table, unsorted, for x = 0, 1, ..., q - 1.

    Row 0 solves coeffs[n] y^n = h directly.  For x != 0, F(x, x t) =
    x^n f(t) with f(t) = F(1, t), so the bucket of f-values h x^(-n)
    holds the t with row x = x * t; it is yielded unscaled.
    """
    n = len(coeffs) - 1
    target = h % q
    yield [y for y in range(q) if (coeffs[-1] * pow(y, n, q) - target) % q == 0]
    for x in range(1, q):
        yield buckets.get(target * pow(x, -n, q) % q, ())


def _value_buckets(coeffs, q: int) -> dict[int, list[int]]:
    """The t in F_q, ascending, grouped by the value F(1, t) mod q."""
    cs = [c % q for c in reversed(coeffs)]
    buckets: dict[int, list[int]] = {}
    for t in range(q):
        acc = 0
        for c in cs:
            acc = (acc * t + c) % q
        buckets.setdefault(acc, []).append(t)
    return buckets


def primitive_solutions(instance: ThueInstance, box: int) -> tuple[tuple[int, int], ...]:
    """Exhaustive primitive-solution scan over max(|x|,|y|) <= box >= 1,
    as a tuple of pairs in lexicographic order.  Odd n scans the full
    box.  Even n scans only x >= 0: F(-x, -y) = F(x, y), so the
    solutions with x < 0 are the negatives of those with x > 0, in
    reverse order."""
    if box < 1:
        raise ValueError("box bound must be >= 1")
    if instance.n % 2:
        return tuple(scan_stripe(instance, box, -box, box))
    half = scan_stripe(instance, box, 0, box)
    return tuple([(-x, -y) for x, y in reversed(half) if x] + half)


# ---------------------------------------------------------------------------
# Finite-field point counts


def count_affine_points_mod_p(instance: ThueInstance, p: int) -> int:
    """Number of (x, y) in F_p^2 with F(x,y) = h mod p."""
    return affine_point_count(instance.form.coeffs, instance.h, p)


def count_projective_smooth(instance: ThueInstance, p: int) -> int:
    """Projective F_p-points of h z^n = F(x,y) when that plane curve is
    smooth: requires s = n (distinct roots, none at infinity) and p not
    dividing h*d*(F).  Cross-checked against the projection bound
    (n-1)(p+1) and the Weil interval |N - (p+1)| <= 2g sqrt(p).
    """
    shape = instance.shape
    n = instance.n
    if shape.s != n or shape.degree_deficit != 0:
        raise ValueError("smooth count requires n distinct finite roots")
    if instance.h % p == 0 or polyutil.vp_frac(instance.dstar, p) != 0:
        raise ValueError("smooth count requires p coprime to h*d*(F)")
    # the points at infinity (z = 0) are the zeros of F on the projective line
    affine, at_infinity = _line_counts(instance.form.coeffs, instance.h, p)
    count = affine + at_infinity
    g = instance.genus
    if count > 0 and count > (n - 1) * (p + 1):
        raise AssertionError("projective count exceeds the projection bound")
    if g is not None and (count - p - 1) ** 2 > 4 * g * g * p:
        raise AssertionError("projective count violates the Weil interval")
    return count


# ---------------------------------------------------------------------------
# Residue-class census


def residue_class_census(
    profiles: Sequence[SolutionValuationProfile],
    instance: ThueInstance,
    p: int,
    tracked: TrackedRoots | None,
) -> tuple[tuple, ...]:
    """The distinct reduction classes of primitive solutions at p | h,
    sorted, read off their valuation profiles at p (solution_valuations
    with the same tracked roots, or none).

    With tracked roots a class is (root index, depth t, unit (a - alpha
    b)/p^t mod p, b mod p); without them the census degrades to depth
    granularity and a class is (t,)."""
    if instance.h % p != 0:
        raise ValueError("census requires p | h")
    if any(prof.p != p or prof.tracked != (tracked is not None) for prof in profiles):
        raise ValueError("census profiles must be taken at p, in the census's mode")
    if tracked is None:
        return tuple(sorted({(prof.t,) for prof in profiles}))
    keys = set()
    pn = p**tracked.precision
    by_index = {r.index: r for r in tracked.roots}
    for prof in profiles:
        root = by_index[prof.argmax_index]
        r = tracked.residue(root)
        t = int(prof.t)
        mres = (prof.a - r * prof.b) % pn
        unit = (mres // p**t) % p
        keys.add((root.index, t, unit, prof.b % p))
    return tuple(sorted(keys))


# ---------------------------------------------------------------------------
# Certified instance families


def product_form_family(a_list, h: int) -> tuple[ThueInstance, list[tuple[int, int]]]:
    """The form prod_i (x - a_i y) + h y^n with its certified solutions.

    Every (a_i, 1) solves the equation with value h; for even n the
    negated pairs (-a_i, -1) solve it as well.
    """
    a_list = [int(a) for a in a_list]
    n = len(a_list)
    if len(set(a_list)) != n:
        raise ValueError("the a_i must be distinct")
    coeffs = (1,)  # prod (x - a_i y) at x = 1, ascending in y
    for a in a_list:
        coeffs = polyutil.mul(coeffs, (1, -a))
    # mul drops the zero top terms when some a_i is 0; pad back to n + 1
    coeffs = [*coeffs] + [0] * (n + 1 - len(coeffs))
    coeffs[n] += h
    form = BinaryForm(n, tuple(coeffs))
    certified = [(a, 1) for a in a_list]
    if n % 2 == 0:
        certified += [(-a, -1) for a in a_list]
    for x, y in certified:
        if form(x, y) != h or gcd(x, y) != 1:
            raise AssertionError("certified solution fails")
    instance = ThueInstance.build(form, h)
    assert instance.content_removed == 1  # the x^n coefficient is 1
    return instance, sorted(set(certified))
