"""Generalized Fermat twists A x^n + B y^n = C z^n.

Constructions: recovering (A,B,C) from two solution triples by solving
the 2x3 linear system, the equivalence relation comparing n-th power
vectors projectively, scaling-orbit counts over cyclotomic fields
(verified concretely over a finite field containing the n-th roots of
unity), and the at-most-one-triple consequence with its contrapositive
rank conclusion.

Everything is exact integer / rational arithmetic; finite-field orbit
materialization replaces any appeal to complex roots of unity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import sympy

from thuecc.bounds import RankHypothesis


class FermatError(ValueError):
    pass


@dataclass(frozen=True)
class SolutionTriple:
    x: int
    y: int
    z: int

    @property
    def nontrivial(self) -> bool:
        return self.x * self.y * self.z != 0

    def power_vector(self, n: int) -> tuple[int, int, int]:
        return (self.x**n, self.y**n, self.z**n)


@dataclass(frozen=True)
class FermatTwist:
    A: int
    B: int
    C: int
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise FermatError("need n >= 2")
        g = gcd(gcd(self.A, self.B), self.C)
        if g != 1:
            raise FermatError(f"gcd(A,B,C) = {g} != 1")

    def satisfied_by(self, t: SolutionTriple) -> bool:
        return self.A * t.x**self.n + self.B * t.y**self.n == self.C * t.z**self.n

    def to_dict(self) -> dict:
        return {"A": self.A, "B": self.B, "C": self.C, "n": self.n}


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def solve_coefficients(t1: SolutionTriple, t2: SolutionTriple, n: int) -> FermatTwist:
    """Primitive (A,B,C) with A x_i^n + B y_i^n = C z_i^n for both triples.

    The kernel of the 2x3 system with rows (x_i^n, y_i^n, -z_i^n) is the
    cross product of the rows; it is divided by its gcd and the sign is
    fixed by C >= 0, then A >= 0, then B >= 0.  Rank below 2 (equivalent
    triples) is an error.
    """
    if n < 2:
        raise FermatError("need n >= 2")
    r1 = (t1.x**n, t1.y**n, -(t1.z**n))
    r2 = (t2.x**n, t2.y**n, -(t2.z**n))
    w = _cross(r1, r2)
    if w == (0, 0, 0):
        raise FermatError("power vectors are proportional: triples are equivalent")
    g = gcd(gcd(w[0], w[1]), w[2])
    w = tuple(c // g for c in w)
    if w[2] < 0 or (w[2] == 0 and (w[0] < 0 or (w[0] == 0 and w[1] < 0))):
        w = tuple(-c for c in w)
    twist = FermatTwist(w[0], w[1], w[2], n)
    for t in (t1, t2):
        if not twist.satisfied_by(t):
            raise AssertionError("kernel vector fails the defining equations")
    return twist


def equivalence(t1: SolutionTriple, t2: SolutionTriple, n: int) -> bool:
    """Whether the n-th power vectors are projectively proportional."""
    return _cross(t1.power_vector(n), t2.power_vector(n)) == (0, 0, 0)


def _orbit_field_prime(t: SolutionTriple, n: int, need_power_split: bool) -> int:
    """Smallest prime q = 1 mod n with q not dividing xyz (and not
    dividing x^n - y^n when the doubled orbit must stay distinct)."""
    q = n + 1
    while True:
        q = int(sympy.nextprime(q - 1))
        while q % n != 1:
            q = int(sympy.nextprime(q))
        bad = t.x * t.y * t.z
        if need_power_split:
            bad *= t.x**n - t.y**n
        if bad % q != 0:
            return q
        q += 1


def materialize_orbit(
    t: SolutionTriple, symmetric: bool, n: int, q: int
) -> set[tuple[int, int]]:
    """Orbit of the reduced point under the two root-of-unity scalings
    over F_q (with n | q - 1), as projective points normalized to z = 1.

    With symmetric=True the coordinate swap doubles the orbit.
    """
    if (q - 1) % n != 0 or not sympy.isprime(q):
        raise FermatError(f"q={q} is not a prime with n | q-1")
    if (t.x * t.y * t.z) % q == 0:
        raise FermatError("triple degenerates mod q")
    g = int(sympy.primitive_root(q))
    xi = pow(g, (q - 1) // n, q)
    zinv = pow(t.z % q, -1, q)
    x0, y0 = t.x % q * zinv % q, t.y % q * zinv % q
    pts = set()
    reps = [(x0, y0)] + ([(y0, x0)] if symmetric else [])
    for rx, ry in reps:
        for a in range(n):
            for b in range(n):
                pts.add((pow(xi, a, q) * rx % q, pow(xi, b, q) * ry % q))
    return pts


def orbit_count(t: SolutionTriple, symmetric: bool, n: int) -> int:
    """n^2 scaled copies of a nontrivial point; 2n^2 with the coordinate
    swap when A = B and the n-th powers of x and y differ.

    Distinctness is verified by materializing the orbit over a suitable
    finite field; distinctness mod q implies distinctness in
    characteristic zero.
    """
    if n < 2:
        raise FermatError("need n >= 2")
    if not t.nontrivial:
        raise FermatError("orbit needs a nontrivial triple")
    double = symmetric and t.x**n != t.y**n
    q = _orbit_field_prime(t, n, double)
    pts = materialize_orbit(t, double, n, q)
    expected = 2 * n * n if double else n * n
    if len(pts) != expected:
        raise AssertionError(f"orbit mod {q} has {len(pts)} points, expected {expected}")
    return expected


def search_triples(twist: FermatTwist, box: int) -> list[SolutionTriple]:
    """All nontrivial integer solutions with |x|, |y| <= box (exhaustive
    in x, y; z recovered exactly as an n-th root)."""
    if twist.C == 0:
        raise FermatError("search needs C != 0")
    n = twist.n
    out = []
    for x in range(-box, box + 1):
        if x == 0:
            continue
        for y in range(-box, box + 1):
            if y == 0:
                continue
            w = twist.A * x**n + twist.B * y**n
            if w % twist.C != 0:
                continue
            target = w // twist.C
            for z in _nth_roots(target, n):
                if z != 0:
                    out.append(SolutionTriple(x, y, z))
    out.sort(key=lambda t: (t.x, t.y, t.z))
    return out


def _nth_roots(target: int, n: int) -> list[int]:
    if target == 0:
        return [0]
    if n % 2 == 0:
        if target < 0:
            return []
        r, exact = sympy.integer_nthroot(target, n)
        return [int(r), -int(r)] if exact else []
    sign = 1 if target > 0 else -1
    r, exact = sympy.integer_nthroot(abs(target), n)
    return [sign * int(r)] if exact else []


def nonequivalent_classes(triples: list[SolutionTriple], n: int) -> list[SolutionTriple]:
    """Representatives of the triples up to power-vector proportionality."""
    reps: list[SolutionTriple] = []
    for t in triples:
        if not any(equivalence(t, r, n) for r in reps):
            reps.append(t)
    return reps


@dataclass(frozen=True)
class UniqueTripleReport:
    classes: tuple[SolutionTriple, ...]
    consistent: bool
    conclusion: str


def unique_triple_check(
    twist: FermatTwist,
    p: int,
    hypothesis: RankHypothesis | None,
    box: int = 20,
    triples: list[SolutionTriple] | None = None,
) -> UniqueTripleReport:
    """At most one nonequivalent nontrivial triple under the rank
    hypothesis for n = p - 1.

    Each class contributes (p-1)^2 scaled points over the cyclotomic
    field of level p-1, against the bound < 2(p-1)^2; two classes
    therefore yield the contrapositive: MW rank over Q >= (p-3)/2.
    Requires p not dividing A*B (normalize the twist first so that at
    most one coefficient is divisible by p).
    """
    if twist.n != p - 1 or not sympy.isprime(p):
        raise FermatError("requires n = p - 1 with p prime")
    if (twist.A * twist.B) % p == 0:
        raise FermatError(
            "p divides A*B: move the p-divisible coefficient to C before checking"
        )
    found = triples if triples is not None else search_triples(twist, box)
    classes = nonequivalent_classes([t for t in found if t.nontrivial], twist.n)
    threshold = Fraction(p - 3, 2)
    asserted = hypothesis is not None and hypothesis.implies_mw_lt(threshold)
    if len(classes) >= 2:
        conclusion = (
            f"{len(classes)} nonequivalent classes found: MW rank over Q >= {threshold}"
            + ("; asserted hypothesis is false" if asserted else "")
        )
        consistent = not asserted
    elif asserted:
        conclusion = f"at most one class, consistent with MW rank < {threshold}"
        consistent = True
    else:
        conclusion = "at most one class found; no hypothesis asserted, no conclusion"
        consistent = True
    return UniqueTripleReport(tuple(classes), consistent, conclusion)
