"""Brute-force oracles: box enumeration and finite-field point counts.

The box search is the ground truth everything else is checked against:
it finds every coprime pair with max(|x|, |y|) <= B and F(x, y) = h.
For even n it scans only the half box x >= 0 and mirrors the x > 0
solutions through (x, y) -> (-x, -y); for odd n it scans the full box.
Every scan goes through one exact residue sieve (two prime moduli whose
product exceeds the box diameter, combined by CRT), which provably
discards no solution: a true solution satisfies the congruence at every
modulus, and every surviving candidate is verified with exact integer
arithmetic.

Every evaluation of a binary form over F_q (the sieve tables, the
affine and projective point counts) goes through one Horner sweep of
F(1, t), _value_buckets, which groups the t by the value F(1, t).  The
sieve tables read from it the roots in y for every x mod q (_rows,
sorted by root_table).  The point counts read it line by line: the
affine points off the origin lie on the lines (l, l t) and (0, l), and
on a line of F-value v != 0 the equation l^n v = h has d = gcd(n, q - 1)
solutions when v / h is a d-th power and none otherwise, so one table of
the d-th powers mod q replaces a pass over the rows (_line_counts).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import gcd, isqrt

import sympy

from thuecc import polyutil
from thuecc.forms import BinaryForm, ThueInstance
from thuecc.padic import SolutionValuationProfile, TrackedRoots


@dataclass(frozen=True)
class SearchBox:
    bound: int

    def __post_init__(self):
        if self.bound < 1:
            raise ValueError("box bound must be >= 1")


def default_box(n: int) -> SearchBox:
    return SearchBox(10**4 if n <= 6 else 10**3)


@dataclass(frozen=True)
class SolutionSet:
    instance_id: str
    solutions: tuple[tuple[int, int], ...]
    box: int

    def __len__(self) -> int:
        return len(self.solutions)


def scan_stripe(
    instance: ThueInstance, box: int, x_lo: int, x_hi: int
) -> list[tuple[int, int]]:
    """Primitive solutions with x in [x_lo, x_hi] and |y| <= box, in
    lexicographic order.  For each x only the y that are roots of F(x, y)
    = h both mod q1 and mod q2 (q1 q2 > 2 box + 1) are tested exactly."""
    form, h = instance.form, instance.h
    out: list[tuple[int, int]] = []
    q1, q2 = _filter_primes(h, box)
    t1 = root_table(form.coeffs, h, q1)
    t2 = root_table(form.coeffs, h, q2)
    m = q1 * q2
    c1 = q2 * pow(q2, -1, q1)  # CRT basis: 1 mod q1, 0 mod q2
    c2 = q1 * pow(q1, -1, q2)
    for x in range(x_lo, x_hi + 1):
        rs1 = t1[x % q1]
        rs2 = t2[x % q2]
        if not rs1 or not rs2:
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
            if gcd(x, y) == 1 and form(x, y) == h:
                out.append((x, y))
    return out


def _filter_primes(h: int, box: int) -> tuple[int, int]:
    q1 = int(sympy.nextprime(isqrt(2 * box + 1)))
    while h % q1 == 0:
        q1 = int(sympy.nextprime(q1))
    q2 = int(sympy.nextprime(q1))
    while h % q2 == 0:
        q2 = int(sympy.nextprime(q2))
    return q1, q2


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


def primitive_solutions(instance: ThueInstance, box: SearchBox | int) -> SolutionSet:
    """Exhaustive primitive-solution scan over max(|x|,|y|) <= B, in
    lexicographic order.  Odd n scans the full box.  Even n scans only
    x >= 0: F(-x, -y) = F(x, y), so the solutions with x < 0 are the
    negatives of those with x > 0, in reverse order."""
    b = (box if isinstance(box, SearchBox) else SearchBox(int(box))).bound
    if instance.n % 2:
        sols = scan_stripe(instance, b, -b, b)
    else:
        half = scan_stripe(instance, b, 0, b)
        sols = [(-x, -y) for x, y in reversed(half) if x] + half
    return SolutionSet(instance.instance_id(), tuple(sols), b)


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


@dataclass(frozen=True)
class Census:
    """Distinct reduction data of a solution set at p.

    Full granularity (tracked mode): classes are (root index, depth t,
    unit (a - alpha b)/p^t mod p, b mod p).  Without tracked data the
    census degrades to depth granularity only.
    """

    instance_id: str
    p: int
    classes: tuple[tuple, ...]
    granularity: str  # "full" or "depth"

    @property
    def count(self) -> int:
        return len(self.classes)


def residue_class_census(
    profiles: Sequence[SolutionValuationProfile],
    instance: ThueInstance,
    p: int,
    tracked: TrackedRoots | None,
) -> Census:
    """Census of reduction classes of primitive solutions, p | h, read
    off their valuation profiles at p (solution_valuations with the same
    tracked roots, or none)."""
    if instance.h % p != 0:
        raise ValueError("census requires p | h")
    if any(prof.p != p or prof.tracked != (tracked is not None) for prof in profiles):
        raise ValueError("census profiles must be taken at p, in the census's mode")
    if tracked is None:
        keys = {(prof.t,) for prof in profiles}
        return Census(instance.instance_id(), p, tuple(sorted(keys)), "depth")
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
    return Census(instance.instance_id(), p, tuple(sorted(keys)), "full")


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
    coeffs = _product_form_coeffs(a_list)
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


def _product_form_coeffs(a_list) -> list[int]:
    # prod (x - a_i y): elementary symmetric expansion, sign (-1)^i e_i
    n = len(a_list)
    e = [1] + [0] * n
    for a in a_list:
        for i in range(n, 0, -1):
            e[i] = e[i] + a * e[i - 1]
    return [(-1) ** i * e[i] for i in range(n + 1)]
