"""Brute-force oracles: box enumeration and finite-field point counts.

The box search is the ground truth everything else is checked against:
it finds every coprime pair with max(|x|, |y|) <= B and F(x, y) = h.
For even n it scans only the half box x >= 0 and mirrors the x > 0
solutions through (x, y) -> (-x, -y); for odd n it scans the full box.
Every scan goes through one exact residue sieve, which provably discards
no solution: a true solution satisfies the congruence at every modulus,
and every surviving candidate is verified with exact integer arithmetic.
Two prime moduli q1 < q2 whose product exceeds the box diameter give the
candidate y by CRT; a third prime q3 > q2 filters each CRT value as it
is formed, keeping only the roots mod q3, and only those hits are
sorted before the exact check.  None of the three divides h.
No candidate repeats: root rows hold distinct residues, so distinct root
pairs give distinct y mod q1 q2, and q1 q2 > 2B + 1 leaves at most one
lift of each in [-B, B].  A column x whose row of roots is empty mod q1,
q2 or q3 holds no solution.  The columns are taken in blocks of at most
_BLOCK; in each block the 0/1 pattern of non-empty rows of each table,
tiled from the block's first column, is read as an integer, and the AND
of the three is the block's bitmask of live columns, so only those are
visited in Python and memory stays O(q + _BLOCK).

Every evaluation of a binary form over F_q (the sieve tables, the
affine and projective point counts) goes through one kernel, _values,
which tabulates f(t) = F(1, t) on every t in F_q at once from its
forward differences: f is evaluated exactly at t = 0..n only, and
running sums of the differences, n additions per point, carry it
through the rest of F_q.  The sieve tables group its list by value and
read the roots in y for every x mod q off those buckets; row 0 and the
bucket of every other row come from one list of n-th powers mod q
(root_table).  The point counts count the values of g = h^-1 F (q not
dividing h) line by line: the affine points off the origin lie on the
lines (l, l t) and (0, l), and on a line of g-value w != 0 the equation
l^n w = 1 has d = gcd(n, q - 1) solutions when w lies in the subgroup
(F_q^*)^d and none otherwise, so one membership test per value replaces
a pass over the rows (_line_counts).  The smooth projective count takes
a model when F is squarefree as a binary form and p divides neither
h Disc(F) nor, for n > 2, n; a root at infinity is allowed.  For d = 1
it sweeps nothing: z -> z^n is a bijection of F_p, so each of the p + 1
points of the projective line carries one point of the curve.

Results are plain values: primitive_solutions returns the tuple of
solution pairs and residue_class_census the sorted tuple of classes.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import accumulate, compress, islice, repeat
from math import gcd, isqrt

from thuecc import polyutil
from thuecc.forms import BinaryForm, ThueInstance
from thuecc.padic import SolutionValuationProfile, TrackedRoots


# the most columns one bitmask of live columns covers
_BLOCK = 1 << 16


def default_box(n: int) -> int:
    return 10**4 if n <= 6 else 10**3


def scan_stripe(
    instance: ThueInstance, box: int, x_lo: int, x_hi: int
) -> list[tuple[int, int]]:
    """Primitive solutions with x in [x_lo, x_hi] and |y| <= box, in
    lexicographic order (none when x_hi < x_lo).  A column x is live
    when F(x, y) = h has a root y mod q1, mod q2 and mod q3; the live
    columns come from one bitmask per block of at most _BLOCK columns.
    In a live column each pair of roots mod q1 and mod q2 gives at most
    one CRT candidate in [-box, box], none repeated (see above); each
    is kept only when it is a root mod q3, and only those hits are
    sorted and tested exactly."""
    form, h = instance.form, instance.h
    out: list[tuple[int, int]] = []
    q1, q2, q3 = _filter_primes(h, box)
    t1 = root_table(form.coeffs, h, q1)
    t2 = root_table(form.coeffs, h, q2)
    t3 = root_table(form.coeffs, h, q3)
    nonempty = [bytes(map(bool, t)) for t in (t1, t2, t3)]
    m = q1 * q2
    c1 = q2 * pow(q2, -1, q1)  # CRT basis: 1 mod q1, 0 mod q2
    c2 = q1 * pow(q1, -1, q2)
    for lo in range(x_lo, x_hi + 1, _BLOCK):
        hi = min(lo + _BLOCK - 1, x_hi)
        width = hi - lo + 1
        live = -1
        for pattern in nonempty:
            live &= int.from_bytes(_tile(pattern, lo, width), "little")
        for x in compress(range(lo, hi + 1), live.to_bytes(width, "little")):
            rs1 = t1[x % q1]
            rs2 = t2[x % q2]
            rs3 = t3[x % q3]
            hits = []
            for r1 in rs1:
                for r2 in rs2:
                    y = (r1 * c1 + r2 * c2) % m
                    if y > box:
                        y -= m
                    if y >= -box and y % q3 in rs3:
                        hits.append(y)
            hits.sort()
            for y in hits:
                if gcd(x, y) == 1 and form(x, y) == h:
                    out.append((x, y))
    return out


def _tile(pattern: bytes, lo: int, width: int) -> bytes:
    """pattern, one byte per residue mod q = len(pattern), repeated over
    the columns lo, lo + 1, ..., lo + width - 1."""
    q = len(pattern)
    start = lo % q
    return ((pattern[start:] + pattern[:start]) * (width // q + 1))[:width]


def _filter_primes(h: int, box: int) -> tuple[int, int, int]:
    """The sieve moduli q1 < q2 < q3: consecutive primes above
    isqrt(2 box + 1), skipping those that divide h."""
    q1 = polyutil.prime_not_dividing(h, isqrt(2 * box + 1))
    q2 = polyutil.prime_not_dividing(h, q1)
    return q1, q2, polyutil.prime_not_dividing(h, q2)


def root_table(coeffs, h: int, q: int) -> list[list[int]]:
    """Row x in F_q (q prime): the y, ascending, with sum_i coeffs[i]
    x^(n-i) y^i = h mod q, coeffs in BinaryForm order.

    Both kinds of row read one table powers[u] = u^n.  Row 0 solves
    coeffs[n] y^n = h: the y with coeffs[n] powers[y] = h.  For x != 0,
    F(x, x t) = x^n f(t) with f(t) = F(1, t), so row x is x t over the
    bucket of f-values h x^(-n); with u = x^(-1) that bucket is keyed by
    h powers[u].
    """
    n = len(coeffs) - 1
    target = h % q
    buckets: dict[int, list[int]] = {}
    for t, v in enumerate(_values(coeffs, q)):
        buckets.setdefault(v, []).append(t)
    powers = list(map(pow, range(q), repeat(n), repeat(q)))
    top = coeffs[-1]
    # row 0, in every slot until the loop below fills rows 1..q-1
    table = [[y for y, v in enumerate(powers) if top * v % q == target]] * q
    for u in range(1, q):
        x = pow(u, -1, q)
        ts = buckets.get(target * powers[u] % q)
        table[x] = sorted([x * t % q for t in ts]) if ts else []
    return table


def _line_counts(coeffs, h: int, q: int) -> tuple[int, int]:
    """(affine, zeros) from one sweep of F(1, t) or a multiple, q prime:
    the points of F(x, y) = h in F_q^2, and the points of F = 0 on the
    projective line, (1:t) for F(1, t) = 0 plus (0:1) when q | c_n.

    Every affine point other than the origin is (l, l t) or (0, l) for
    one l != 0, and F takes the value l^n v there, v = F(1, t) or c_n.
    For q | h a line of value 0 holds q - 1 points and any other line
    none; the origin adds one.  Otherwise l^n = h / v = 1 / w, with w
    the value of g = h^-1 F on the line, has d = gcd(n, q - 1) roots when
    w lies in the subgroup D = (F_q^*)^d and none otherwise, so for d > 1
    the sweep runs over g, whose zeros are those of F.  For d = 1, D is
    all of F_q^*, so each of the q + 1 lines that is not a zero of F
    holds one point.
    """
    n = len(coeffs) - 1
    d = gcd(n, q - 1)
    if h % q and d > 1:
        h_inv = pow(h, -1, q)
        coeffs = [c * h_inv % q for c in coeffs]
    values = _values(coeffs, q)
    top = coeffs[-1] % q
    zeros = values.count(0) + (top == 0)
    if h % q == 0:
        return 1 + (q - 1) * zeros, zeros
    if d == 1:
        return q + 1 - zeros, zeros
    # x and q - x have the same d-th power up to the sign (-1)^d, so half
    # of F_q^* gives D, or half of it closed under negation
    powers = set(map(pow, range(1, (q + 1) // 2), repeat(d), repeat(q)))
    if d % 2:
        powers |= {q - v for v in powers}
    lines = sum(map(powers.__contains__, values)) + (top in powers)
    return d * lines, zeros


def _values(coeffs, q: int) -> list[int]:
    """F(1, t) mod q for t = 0, 1, ..., q - 1, from the forward
    differences of f(t) = F(1, t) at 0.

    f is evaluated at t = 0..n by Horner's rule; its k-th differences
    at 0 seed n running sums, each summing the next one's output, over
    the constant n-th difference.  Every point past t = n costs n
    additions, run in C by accumulate, and one reduction mod q.
    """
    n = len(coeffs) - 1
    row = [coeffs[-1] % q] * (n + 1)
    for c in reversed(coeffs[:-1]):
        row = [(v * t + c) % q for v, t in zip(row, range(n + 1))]
    starts = []
    for _ in range(n):
        starts.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    seq = repeat(row[0], q)
    for s0 in reversed(starts):
        seq = accumulate(seq, initial=s0)
    return [v % q for v in islice(seq, q)]


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
    """Number of (x, y) in F_p^2 with F(x,y) = h mod p, for p prime."""
    if not polyutil.isprime(p):
        raise ValueError(f"point count requires a prime modulus, got {p}")
    return _line_counts(instance.form.coeffs, instance.h, p)[0]


def count_projective_smooth(instance: ThueInstance, p: int) -> int:
    """Projective F_p-points of h z^n = F(x,y) when that plane curve is
    smooth: requires p prime, F squarefree as a binary form (simple
    roots, at most one of them at infinity), p not dividing h*Disc(F),
    and p not dividing n when n > 2.

    Disc(F) is the discriminant of F(x, 1), times the square of its
    leading coefficient when y | F, and 1 for n = 1, where F(x, 1) may
    be constant; p does not divide it exactly when F mod p keeps n
    distinct roots on the projective line.  For n > 2,
    p | n makes F_x and F_y share a zero, since their resultant is
    +-n^(n-2) Disc(F), and the curve is singular over it.

    For d = gcd(n, p - 1) = 1, z -> z^n is a bijection of F_p, so each
    of the p + 1 points (x:y) of the projective line carries exactly one
    point, and the count is p + 1 without a sweep; otherwise it is the
    affine count plus the zeros of F on the line z = 0 (_line_counts).
    Cross-checked against the projection bound max(n-1, 1)(p+1), which
    for n = 1 is the line's own p + 1 points, and the Weil interval
    |N - (p+1)| <= 2g sqrt(p).
    """
    if not polyutil.isprime(p):
        raise ValueError(f"smooth count requires a prime modulus, got {p}")
    shape = instance.shape
    n = instance.n
    deficit = shape.degree_deficit
    if deficit > 1 or shape.s + deficit != n:
        raise ValueError("smooth count requires F squarefree as a binary form")
    disc = shape.discriminant * shape.lead**2 if deficit else shape.discriminant
    if n == 1:
        disc = 1
    if instance.h % p == 0 or disc % p == 0:
        raise ValueError("smooth count requires p coprime to h*Disc(F)")
    if n > 2 and n % p == 0:
        raise ValueError("smooth count requires p coprime to n")
    if gcd(n, p - 1) == 1:
        count = p + 1
    else:
        # the points at infinity (z = 0) are the zeros of F on the projective line
        affine, at_infinity = _line_counts(instance.form.coeffs, instance.h, p)
        count = affine + at_infinity
    g = instance.genus
    if count > max(n - 1, 1) * (p + 1):
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
    b)/p^t mod p, b mod p), the index being the deepest root's position
    in tracked.roots; without them the census degrades to depth
    granularity and a class is (t,)."""
    if instance.h % p != 0:
        raise ValueError("census requires p | h")
    if any(prof.p != p or (prof.argmax_index is None) != (tracked is None)
           for prof in profiles):
        raise ValueError("census profiles must be taken at p, in the census's mode")
    if tracked is None:
        return tuple(sorted({(prof.t,) for prof in profiles}))
    keys = set()
    pn = p**tracked.precision
    for prof in profiles:
        r = tracked.residue(tracked.roots[prof.argmax_index])
        t = int(prof.t)
        mres = (prof.a - r * prof.b) % pn
        unit = (mres // p**t) % p
        keys.add((prof.argmax_index, t, unit, prof.b % p))
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
    form = BinaryForm(tuple(coeffs))
    certified = [(a, 1) for a in a_list]
    if n % 2 == 0:
        certified += [(-a, -1) for a in a_list]
    for x, y in certified:
        if form(x, y) != h or gcd(x, y) != 1:
            raise AssertionError("certified solution fails")
    instance = ThueInstance.build(form, h)
    assert instance.content_removed == 1  # the x^n coefficient is 1
    return instance, sorted(set(certified))
