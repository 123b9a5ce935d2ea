"""The catalogue of conditional point bounds for Thue instances.

Every bound here is an exact rational plus its floor, tagged with the
quantity it constrains: |X(Q)| (all rational points of the smooth
model), N(F,h,Q,p) (primitive p-integral solutions), or N(F,h)
(primitive integer solutions).  Rank hypotheses are never computed; they
are caller assertions echoed verbatim into every report.

The prime classification splits on p | h and p | d*(F):

    case a: p divides neither     case b: p | h only
    case c: p | d*(F) only        case d: p divides both

For n < p < 2n the per-case formulas depend only on (n, g, s) and are
majorized by the global cubic bound 2n^3 - 2n - 3.  Two refinements
apply over cyclotomic fields: degree n prime with p = a*n + 1 prime, and
degree n = p - 1; both convert a Mordell-Weil rank assertion over Q into
the needed condition via rank transfer or the isotypic decomposition of
the jacobian under the order-n automorphism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import sympy

from thuecc import polyutil
from thuecc.forms import ThueInstance

QTY_RATIONAL_POINTS = "|X(Q)|"
QTY_PRIMITIVE_LOCAL = "N(F,h,Q,p)"
QTY_PRIMITIVE_GLOBAL = "N(F,h)"


class BoundError(ValueError):
    pass


@dataclass(frozen=True)
class PrimeCase:
    p: int
    divides_h: bool
    divides_dstar: bool

    @property
    def case_tag(self) -> str:
        return {
            (False, False): "a",
            (True, False): "b",
            (False, True): "c",
            (True, True): "d",
        }[(self.divides_h, self.divides_dstar)]


def classify_prime(instance: ThueInstance, p: int) -> PrimeCase:
    """Split a prime p > n on exact divisibility: p | h and v_p(d*(F)) > 0."""
    if p <= instance.n or not sympy.isprime(p):
        raise BoundError(f"classification requires a prime p > n (got p={p}, n={instance.n})")
    divides_h = instance.h % p == 0
    divides_dstar = polyutil.vp_frac(instance.dstar, p) > 0
    return PrimeCase(p, divides_h, divides_dstar)


def bertrand_prime(n: int) -> int:
    """Smallest prime p with n < p < 2n (exists for n >= 2)."""
    if n < 2:
        raise BoundError("need n >= 2")
    p = int(sympy.nextprime(n))
    if p >= 2 * n:
        raise BoundError("unreachable: Bertrand's postulate")
    return p


@dataclass(frozen=True)
class RankHypothesis:
    """A caller-asserted rank statement, never verified.

    kind "chabauty_lt_g": the Chabauty rank at the relevant place is
    less than g.  kind "mw_rank_value": the Mordell-Weil rank over Q
    equals value.  kind "mw_lt_threshold": the Mordell-Weil rank over Q
    is less than value.
    """

    kind: str
    value: int | None = None
    source: str = ""

    def __post_init__(self):
        if self.kind not in ("chabauty_lt_g", "mw_rank_value", "mw_lt_threshold"):
            raise BoundError(f"unknown hypothesis kind {self.kind!r}")
        if self.kind != "chabauty_lt_g" and self.value is None:
            raise BoundError(f"hypothesis {self.kind} needs a value")
        least = 1 if self.kind == "mw_lt_threshold" else 0  # ranks are >= 0
        if self.value is not None and self.value < least:
            raise BoundError(f"hypothesis {self.kind}:{self.value} cannot hold for a rank")

    def implies_chabauty_lt(self, g: int) -> bool:
        """Whether the assertion implies Chabauty rank < g (Chab <= MW)."""
        if self.kind == "chabauty_lt_g":
            return True
        if self.kind == "mw_rank_value":
            return self.value < g
        return self.value <= g  # rank < value <= g

    def implies_mw_lt(self, threshold: Fraction) -> bool:
        if self.kind == "mw_rank_value":
            return Fraction(self.value) < threshold
        if self.kind == "mw_lt_threshold":
            return Fraction(self.value) <= threshold
        return False

    def describe(self) -> str:
        core = {
            "chabauty_lt_g": "Chabauty rank < g",
            "mw_rank_value": f"MW rank over Q = {self.value}",
            "mw_lt_threshold": f"MW rank over Q < {self.value}",
        }[self.kind]
        return f"{core}" + (f" [{self.source}]" if self.source else "")


@dataclass(frozen=True)
class BoundEntry:
    name: str
    quantity: str
    exact: Fraction
    floor: int
    conditional: bool = False

    @classmethod
    def make(cls, name, quantity, exact, conditional=False):
        exact = Fraction(exact)
        return cls(name, quantity, exact, math.floor(exact), conditional)


@dataclass(frozen=True)
class BoundReport:
    instance_id: str
    p: int
    case: PrimeCase
    entries: tuple[BoundEntry, ...]
    notes: tuple[str, ...]


# ---------------------------------------------------------------------------
# The Chabauty residue term


def chabauty_residue_bound(g: int, p: int, classes) -> Fraction:
    """(2g-2)(p-1)/(p-2) + classes, the aggregate over residue classes."""
    if p <= 2:
        raise BoundError("requires p > 2")
    return Fraction((2 * g - 2) * (p - 1), p - 2) + Fraction(classes)


# ---------------------------------------------------------------------------
# Degree-only bounds for a prime in (n, 2n)


def global_bound(n: int) -> int:
    """2n^3 - 2n - 3, the degree-only majorant over all four cases."""
    return 2 * n**3 - 2 * n - 3


_CASE_QUANTITY = {
    "a": QTY_RATIONAL_POINTS,
    "b": QTY_RATIONAL_POINTS,
    "c": QTY_PRIMITIVE_LOCAL,
    "d": QTY_PRIMITIVE_LOCAL,
}


def case_bound(tag: str, n: int, g: int, s: int) -> int:
    """Per-case closed form for n < p < 2n (p eliminated via p <= 2n-1)."""
    if tag == "a":
        return 2 * g + s - 5 + 2 * n * (n - 1)
    if tag == "b":
        return 2 * g - 5 + 2 * s * n
    if tag == "c":
        return 2 * g + s - 5 + n * (2 * n - 1)
    if tag == "d":
        return 2 * g + s - 5 + s * n * (2 * n - 1)
    raise BoundError(f"unknown case {tag!r}")


def main_bounds(
    instance: ThueInstance, p: int, hypothesis: RankHypothesis | None
) -> BoundReport:
    """Case bound at p plus the global cubic bound.

    Requires n < p < 2n and an irreducible model with g >= 2.  The
    closed forms rely on the majorization (2g-2)(p-1)/(p-2) <= 2g+s-5,
    which is checked numerically and surfaced as a note when violated
    rather than silently assumed.
    """
    n = instance.n
    if not n < p < 2 * n:
        raise BoundError(f"need n < p < 2n (n={n}, p={p})")
    if not instance.irreducible or instance.genus is None:
        raise BoundError("bounds require an irreducible model")
    g = instance.genus
    s = len(instance.shape.all_multiplicities())
    case = classify_prime(instance, p)
    conditional = hypothesis is None or not hypothesis.implies_chabauty_lt(g)
    notes = []
    if g < 2:
        notes.append(f"genus {g} < 2: bounds formally evaluated but out of scope")
    cb = case_bound(case.case_tag, n, g, s)
    gb = global_bound(n)
    if cb > gb:
        raise AssertionError(f"case bound {cb} exceeds global bound {gb}")
    lhs = chabauty_residue_bound(g, p, 0)
    if lhs > 2 * g + s - 5:
        notes.append(
            f"majorization violated: (2g-2)(p-1)/(p-2) = {lhs} > 2g+s-5 = {2 * g + s - 5}"
        )
    entries = (
        BoundEntry.make(
            f"case_{case.case_tag}", _CASE_QUANTITY[case.case_tag], cb, conditional
        ),
        BoundEntry.make("global_cubic", QTY_PRIMITIVE_GLOBAL, gb, conditional),
    )
    return BoundReport(instance.instance_id(), p, case, entries, tuple(notes))


# ---------------------------------------------------------------------------
# Refinements over cyclotomic fields


def refined_bounds_prime_degree(
    n: int, a: int, case: PrimeCase, hypothesis: RankHypothesis | None
) -> BoundReport:
    """Bounds for prime degree n >= 5 at p = a*n + 1 prime, a > 1.

    Hypothesis route: MW rank over Q below (n-3)/2; rank transfer
    multiplies the rank by n - 1 over the degree-n cyclotomic field,
    pushing the Chabauty condition over that field.
    """
    if n < 5 or not sympy.isprime(n):
        raise BoundError("requires prime n >= 5")
    p = a * n + 1
    if a <= 1 or not sympy.isprime(p):
        raise BoundError(f"requires a > 1 with a*n+1 prime (a={a}, p={p})")
    if case.p != p:
        raise BoundError("prime case does not match p = a*n + 1")
    threshold = Fraction(n - 3, 2)
    conditional = hypothesis is None or not hypothesis.implies_mw_lt(threshold)
    values = {
        "a": ((a + 2) * n - (a + 1), QTY_RATIONAL_POINTS),
        "b": ((a + 2) * n - 2, QTY_RATIONAL_POINTS),
        "c": ((a + 1) * (n - 1), QTY_PRIMITIVE_LOCAL),
        "d": (a * n**2 + 2 * n - 3, QTY_PRIMITIVE_LOCAL),
    }
    val, qty = values[case.case_tag]
    entries = (
        BoundEntry.make(f"prime_degree_case_{case.case_tag}", qty, val, conditional),
    )
    notes = (
        f"rank transfer: rank over Q times (n-1) = rank over the degree-{n} "
        f"cyclotomic field",
        f"hypothesis threshold: MW rank over Q < {threshold}",
    )
    return BoundReport(f"n={n};a={a}", p, case, entries, notes)


def refined_bounds_degree_pm1(
    p: int, case: PrimeCase, hypothesis: RankHypothesis | None, s: int
) -> BoundReport:
    """Bounds for degree n = p - 1 at the prime p >= 5.

    Two accepted hypothesis routes: the Chabauty rank over the
    cyclotomic field of level p - 1 is below g, or the MW rank over Q is
    below (s-2)/2 (which forces the former through the isotypic
    decomposition).  The route actually asserted is echoed in the notes.
    """
    if p < 5 or not sympy.isprime(p):
        raise BoundError("requires prime p >= 5")
    if case.p != p:
        raise BoundError("prime case does not match p")
    n = p - 1
    route = "unset"
    conditional = True
    if hypothesis is not None:
        if hypothesis.kind == "chabauty_lt_g":
            conditional = False
            route = "chabauty over cyclotomic field asserted"
        elif hypothesis.implies_mw_lt(rank_threshold(s)):
            conditional = False
            route = f"MW rank over Q < (s-2)/2 = {rank_threshold(s)}"
    entries: list[BoundEntry] = []
    if not case.divides_dstar:
        entries.append(
            BoundEntry.make("pm1_local", QTY_PRIMITIVE_LOCAL, 4 * n - 3, conditional)
        )
        entries.append(
            BoundEntry.make("pm1_rational", QTY_RATIONAL_POINTS, 5 * n - 3, conditional)
        )
    elif not case.divides_h:
        entries.append(
            BoundEntry.make("pm1_local", QTY_PRIMITIVE_LOCAL, 4 * n - 3, conditional)
        )
    else:
        entries.append(
            BoundEntry.make(
                "pm1_local", QTY_PRIMITIVE_LOCAL, 2 * n**2 + 4 * n - 5, conditional
            )
        )
    return BoundReport(f"n={n}", p, case, tuple(entries), (f"route: {route}",))


def refined_bounds(
    instance: ThueInstance, hypothesis: RankHypothesis | None
) -> list[BoundReport]:
    """The refinements that apply to the instance's degree n: prime
    n >= 5 at p = a*n + 1 for the smallest a >= 2 making p prime, and
    n + 1 prime and at least 5."""
    n = instance.n
    reports = []
    if sympy.isprime(n) and n >= 5:
        a = 2
        while not sympy.isprime(a * n + 1):
            a += 1
        case = classify_prime(instance, a * n + 1)
        reports.append(refined_bounds_prime_degree(n, a, case, hypothesis))
    if sympy.isprime(n + 1) and n + 1 >= 5:
        s_eff = len(instance.shape.all_multiplicities())
        case = classify_prime(instance, n + 1)
        reports.append(refined_bounds_degree_pm1(n + 1, case, hypothesis, s=s_eff))
    return reports


def rank_threshold(s: int) -> Fraction:
    """(s-2)/2: an MW rank over Q below this forces the cyclotomic
    Chabauty condition (contrapositive of the isotypic decomposition)."""
    if s < 2:
        raise BoundError("need s >= 2")
    return Fraction(s - 2, 2)
