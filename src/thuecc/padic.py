"""Exact p-adic valuation computations.

Valuations are normalized so v(p) = 1 and represented as exact
``fractions.Fraction`` values; +infinity (the valuation of 0) is the
float ``INF``, which compares correctly against Fractions.  No floating
point enters any finite value.

Three layers live here:

* Newton polygons of integer polynomials, giving root valuations with
  multiplicity, and the multiset of pairwise root differences
  v(alpha_i - alpha_j), read off the Newton polygon of the resolvent
  Res_y(f0(y), f0(x+y)), a dense resultant over ZZ[x][y].
* Hensel-lifted root tracking in unramified extensions: roots of the
  squarefree parts of F(x,1) are carried either exactly (rational
  roots), as integers mod p^N (Z_p roots of higher-degree rational
  factors), or as opaque monic factors mod p^N (roots generating a
  residue extension, whose distances to everything tracked are 0).
* Per-solution valuation profiles {v(a - alpha_j b)} for coprime (a,b),
  in profile mode (multisets off a Newton polygon, possibly fractional,
  naming no deepest root) or tracked mode (one integer valuation per
  tracked root, in the roots' order, and the index of a deepest root,
  from which charts builds the ledger).  In either mode the sum of the
  valuations weighted by multiplicity is v_p(F(a,b)) when the x^n
  coefficient is a p-unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from thuecc import polyutil
from thuecc.forms import FormShape, ThueInstance
from thuecc.polyutil import IntPoly, vp

INF = float("inf")

Val = Fraction | float  # finite valuations are Fractions; INF only for 0


class RamifiedCase(ValueError):
    """Tracked mode unavailable: root data cannot be separated into
    unramified residue towers at this prime (fall back to profile mode)."""


class PrecisionError(ValueError):
    """A valuation reached the tracking precision; re-track with larger N."""


# ---------------------------------------------------------------------------
# Newton polygons


def newton_polygon(f, p: int) -> list[tuple[Fraction, int]]:
    """Lower-convex-hull slopes of {(k, v_p(c_k))} with multiplicities.

    f is an ascending-coefficient integer polynomial.  Zero coefficients
    contribute no point.  The negatives of the slopes are the valuations
    of the nonzero roots of f, with multiplicity equal to the horizontal
    length of each segment.  Factors of x (zero roots) are skipped here;
    root_valuations accounts for them as +infinity entries.
    """
    f = polyutil.trim(f)
    if not f:
        raise ValueError("newton polygon of the zero polynomial")
    pts = [(k, vp(c, p)) for k, c in enumerate(f) if c != 0]
    if len(pts) == 1:
        return []
    # lower hull, left to right (monotone chain on the valuation points)
    hull: list[tuple[int, int]] = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # keep only right turns: drop x2 if it is above segment x1->pt
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    out = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        out.append((Fraction(y2 - y1, x2 - x1), x2 - x1))
    return out


def root_valuations(f, p: int) -> list[tuple[Val, int]]:
    """Valuations of all roots of f with multiplicity, largest first.

    Zero roots (factors of x) appear as (+inf, k).
    """
    f = polyutil.trim(f)
    if not f:
        raise ValueError("zero polynomial")
    k0 = next(i for i, c in enumerate(f) if c != 0)
    out: list[tuple[Val, int]] = [(INF, k0)] if k0 else []
    # the hull's slopes strictly increase, so their negatives decrease
    out.extend((-slope, mult) for slope, mult in newton_polygon(f[k0:], p))
    return out


def difference_valuations(shape: FormShape, p: int) -> list[tuple[Fraction, int]]:
    """Multiset {v(alpha_i - alpha_j) : i != j} over the distinct roots.

    Computed as the root valuations of the resolvent
    Res_y(f0(y), f0(x+y)) / x^s where f0 is the squarefree part, taken
    as a dense resultant by polyutil.difference_resolvent; the sum of
    the multiset equals v_p(d*(F)/c).
    """
    s = shape.s
    if s < 2:
        raise ValueError("difference valuations need at least two distinct roots")
    rpoly = polyutil.difference_resolvent(shape.radical)
    if rpoly[s] == 0:
        raise ValueError("resolvent divisible by x^(s+1): radical was not squarefree")
    return root_valuations(rpoly[s:], p)


# ---------------------------------------------------------------------------
# Hensel-lifted root tracking


@dataclass(frozen=True)
class TrackedRoot:
    """One distinct root of F(x,1), tracked to precision p^N.

    kind is "rational" (value is the exact Fraction root), "lifted" (an
    irrational Z_p root; value is its integer approximation mod p^N), or
    "inert" (a root generating a residue-field extension, carried only
    through its monic factor mod p^N; value is None, and every tracked
    distance from an inert root to a rational or lifted root is 0
    because their residues differ).  A root's index is its position in
    TrackedRoots.roots.
    """

    multiplicity: int
    kind: str
    value: Fraction | int | None = None
    factor: IntPoly = ()


@dataclass(frozen=True)
class TrackedRoots:
    p: int
    precision: int
    roots: tuple[TrackedRoot, ...]

    def residue(self, root: TrackedRoot) -> int:
        """The p-adic integer root as an integer mod p^N."""
        if root.kind == "inert":
            raise ValueError("inert root has no residue in Z/p^N")
        pn = self.p**self.precision
        if root.value.denominator % self.p == 0:
            raise ValueError("root not integral at p")
        return root.value.numerator * pow(root.value.denominator, -1, pn) % pn

    def root_minus_point(self, root: TrackedRoot, a: int, b: int) -> Val:
        """v(a - alpha*b) for the tracked root alpha and integers a, b.

        For an inert root, (a, b) must be coprime: then a - alpha*b is a
        unit, since the residue of alpha lies outside F_p."""
        if root.kind == "inert":
            return Fraction(0)
        p, N = self.p, self.precision
        nu, de = root.value.numerator, root.value.denominator
        m = a * de - nu * b
        if root.kind == "lifted":
            m %= p**N
            if m == 0:
                # saturated; genuine when a/b is an exact root of the factor's
                # minimal polynomial, impossible for an irrational root
                raise PrecisionError(
                    f"v(a - alpha b) >= {N} at tracked precision; raise N"
                )
        elif m == 0:
            return INF
        return Fraction(vp(m, p) - vp(de, p))

    def root_difference(self, r1: TrackedRoot, r2: TrackedRoot) -> Val:
        """v(alpha_1 - alpha_2) for two distinct tracked roots."""
        if r1 is r2:
            return INF
        kinds = {r1.kind, r2.kind}
        if "inert" in kinds:
            if kinds == {"inert"}:
                raise ValueError("difference of two inert roots is not tracked")
            return Fraction(0)
        p = self.p
        n1, d1 = r1.value.numerator, r1.value.denominator
        n2, d2 = r2.value.numerator, r2.value.denominator
        m = n1 * d2 - n2 * d1
        if "lifted" in kinds:
            m %= p**self.precision
            if m == 0:
                raise PrecisionError("tracked roots collide mod p^N; raise N")
        return Fraction(vp(m, p) - vp(d1 * d2, p))


def default_precision(instance: ThueInstance, p: int) -> int:
    """Precision separating all roots and certifying every valuation in a
    primitive solution's profile: v_p(h) + v_p(disc(radical)) + 5, the
    discriminant term 0 for s <= 1."""
    sh = instance.shape
    return vp(instance.h, p) + (vp(sh.discriminant, p) if sh.s >= 2 else 0) + 5


def hensel_track_roots(shape: FormShape, p: int, precision: int) -> TrackedRoots:
    """Track the distinct roots of F(x,1) in unramified residue towers.

    Each squarefree part w_k is factored over Q; rational roots are kept
    exact, and every higher-degree rational factor whose reduction mod p
    is squarefree is Hensel-lifted to mod p^precision, yielding integer
    approximations of its Z_p roots and opaque factors for the rest.

    Raises RamifiedCase when some factor cannot be separated this way
    (genuinely ramified data, or clustered roots inside one irreducible
    rational factor).
    """
    n = sum(shape.multiplicities) + shape.degree_deficit
    if n % p == 0:
        raise ValueError(f"tracking requires p not dividing the degree n={n}")
    entries: list[TrackedRoot] = []
    for mult, w in shape.sqf_parts:
        for qc in polyutil.factor_over_q(w):
            if polyutil.degree(qc) == 1:
                root = Fraction(-qc[0], qc[1])
                entries.append(TrackedRoot(mult, "rational", root))
                continue
            if qc[-1] % p == 0:
                raise RamifiedCase(
                    f"factor {qc} has p-divisible leading coefficient; monicize first"
                )
            modular = polyutil.factor_mod_p(qc, p)
            if any(e > 1 for _, e in modular):
                raise RamifiedCase(
                    f"factor {qc} is not squarefree mod {p}: roots cannot be "
                    "separated in unramified towers (profile mode still applies)"
                )
            for fac in polyutil.hensel_lift(qc, [f for f, _ in modular], p, precision):
                if polyutil.degree(fac) == 1:
                    approx = (-fac[0]) % p**precision
                    entries.append(TrackedRoot(mult, "lifted", approx, fac))
                else:
                    entries.append(TrackedRoot(mult, "inert", factor=fac))
    # deterministic indexing: rational roots by value, then lifted by
    # approximation, then inert by factor
    rank = {"rational": 0, "lifted": 1, "inert": 2}
    entries.sort(key=lambda r: (rank[r.kind], r.factor if r.kind == "inert" else r.value))
    return TrackedRoots(p=p, precision=precision, roots=tuple(entries))


# ---------------------------------------------------------------------------
# Per-solution valuation profiles


@dataclass(frozen=True)
class RootValuationEntry:
    value: Val
    multiplicity: int


@dataclass(frozen=True)
class SolutionValuationProfile:
    """Valuations {v(a - alpha_j b)} over the distinct roots of F(x,1).

    t is the maximum.  In tracked mode per_root[i] belongs to
    tracked.roots[i] and argmax_index is the achieving root (smallest
    index on ties); in profile mode argmax_index is None.  The
    degree_deficit roots at infinity contribute v_p(b) each to
    v_p(F(a,b)) but are not part of per_root.
    """

    a: int
    b: int
    p: int
    per_root: tuple[RootValuationEntry, ...]
    t: Val
    argmax_index: int | None = None


def solution_valuations(
    a: int,
    b: int,
    instance: ThueInstance,
    p: int,
    tracked: TrackedRoots | None = None,
) -> SolutionValuationProfile:
    """Profile of v(a - alpha_j b) for a coprime integer pair.

    Profile mode reads the multiset off the Newton polygon of
    b^deg(w) * w((a-T)/b) for each squarefree part w; tracked mode
    lists one valuation per tracked root, in the roots' order.
    """
    if gcd(a, b) != 1:
        raise ValueError(f"({a},{b}) is not coprime")
    shape = instance.shape
    entries: list[RootValuationEntry] = []
    if tracked is not None:
        for root in tracked.roots:
            v = tracked.root_minus_point(root, a, b)
            entries.append(RootValuationEntry(v, root.multiplicity))
    else:
        for mult, w in shape.sqf_parts:
            d = polyutil.degree(w)
            if b == 0:
                # a = +-1, so v(a - alpha*0) = 0 for every root
                entries.extend([RootValuationEntry(Fraction(0), mult)] * d)
                continue
            # g(T) = b^d w((a-T)/b) has roots T_j = a - alpha_j b
            g = polyutil.compose_linear(
                [wc * b ** (d - j) for j, wc in enumerate(w)], a, -1
            )
            for v, m in root_valuations(g, p):
                entries.extend([RootValuationEntry(v, mult)] * m)
    t: Val = max((e.value for e in entries), default=Fraction(0))
    argmax = None
    if tracked is not None:
        argmax = next((i for i, e in enumerate(entries) if e.value == t), None)
    return SolutionValuationProfile(
        a=a,
        b=b,
        p=p,
        per_root=tuple(entries),
        t=t,
        argmax_index=argmax,
    )


def check_vb_zero(a: int, b: int, instance: ThueInstance, p: int) -> bool:
    """v_p(b) == 0 for a primitive solution of F(x,y) = h with p | h.

    Always true when the x^n coefficient of F is a p-unit (monicize
    first otherwise): v(b) > 0 would force every v(a - alpha_j b) to be
    0, contradicting v(F(a,b)) = v(h) > 0.
    """
    if gcd(a, b) != 1:
        raise ValueError(f"({a},{b}) is not coprime")
    if instance.h % p != 0:
        raise ValueError(f"p={p} does not divide h={instance.h}")
    if instance.form(a, b) != instance.h:
        raise ValueError(f"({a},{b}) does not solve F(x,y)={instance.h}")
    return b % p != 0
