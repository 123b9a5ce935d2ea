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
  in profile mode (multisets off a Newton polygon) or tracked mode
  (valuations paired with root identities).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd

from sympy import ZZ
from sympy.polys.factortools import dup_factor_list, dup_zz_hensel_lift

from thuecc import polyutil
from thuecc.forms import FormShape, ThueInstance
from thuecc.polyutil import IntPoly, poly_mod, vp

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
    out.extend((-slope, mult) for slope, mult in newton_polygon(f[k0:], p))
    out.sort(key=lambda t: (t[0] != INF, -t[0] if t[0] != INF else 0))
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
    vals = root_valuations(rpoly[s:], p)
    return [(Fraction(v), m) for v, m in vals]


# ---------------------------------------------------------------------------
# Hensel-lifted root tracking


@dataclass(frozen=True)
class TrackedRoot:
    """One distinct root of F(x,1), tracked to precision p^N.

    kind is "rational" (root is the exact Fraction `rational`),
    "lifted" (an irrational Z_p root, approximated by the integer
    `approx` mod p^N), or "inert" (a root generating a residue-field
    extension, carried only through its monic factor mod p^N; every
    tracked distance from an inert root to a rational or lifted root
    is 0 because their residues differ).
    """

    index: int
    multiplicity: int
    kind: str
    rational: Fraction | None = None
    approx: int | None = None
    factor: IntPoly = ()
    minpoly: IntPoly = ()  # exact integer polynomial this root satisfies


@dataclass(frozen=True)
class TrackedRoots:
    p: int
    precision: int
    roots: tuple[TrackedRoot, ...]
    partial: bool = False

    def residue(self, root: TrackedRoot) -> int:
        """The p-adic integer root as an integer mod p^N."""
        pn = self.p**self.precision
        if root.kind == "rational":
            if root.rational.denominator % self.p == 0:
                raise ValueError("root not integral at p")
            return root.rational.numerator * pow(root.rational.denominator, -1, pn) % pn
        if root.kind == "lifted":
            return root.approx
        raise ValueError("inert root has no residue in Z/p^N")

    def root_minus_point(self, root: TrackedRoot, a: int, b: int) -> Val:
        """v(a - alpha*b) for the tracked root alpha and integers a, b."""
        p, N = self.p, self.precision
        if root.kind == "rational":
            nu, de = root.rational.numerator, root.rational.denominator
            m = a * de - nu * b
            if m == 0:
                return INF
            return Fraction(vp(m, p) - vp(de, p))
        if root.kind == "lifted":
            m = (a - root.approx * b) % p**N
            if m == 0:
                # saturated; genuine when a/b is an exact root of the factor's
                # minimal polynomial, impossible for an irrational root
                raise PrecisionError(
                    f"v(a - alpha b) >= {N} at tracked precision; raise N"
                )
            return Fraction(vp(m, p))
        # inert: residue of alpha generates an extension of F_p, while a - 0*b
        # reduces into F_p, so v = min(v(a), v(b))
        if a == 0:
            return Fraction(vp(b, p))
        if b == 0:
            return Fraction(vp(a, p))
        return Fraction(min(vp(a, p), vp(b, p)))

    def root_difference(self, r1: TrackedRoot, r2: TrackedRoot) -> Val:
        """v(alpha_1 - alpha_2) for two distinct tracked roots."""
        p, N = self.p, self.precision
        if r1.index == r2.index:
            return INF
        kinds = {r1.kind, r2.kind}
        if "inert" in kinds:
            if kinds == {"inert"}:
                raise ValueError("difference of two inert roots is not tracked")
            return Fraction(0)
        if kinds == {"rational"}:
            d = r1.rational - r2.rational
            return Fraction(vp(d.numerator, p) - vp(d.denominator, p))
        # at least one lifted root: work mod p^N
        def as_pair(r):
            if r.kind == "rational":
                return r.rational.numerator, r.rational.denominator
            return r.approx, 1

        n1, d1 = as_pair(r1)
        n2, d2 = as_pair(r2)
        m = (n1 * d2 - n2 * d1) % p**N
        if m == 0:
            raise PrecisionError("tracked roots collide mod p^N; raise N")
        return Fraction(vp(m, p) - vp(d1 * d2, p))


def default_precision(instance: ThueInstance, p: int) -> int:
    """Precision separating all roots and certifying every valuation in a
    primitive solution's profile: v_p(h) + v_p(disc(radical)) + 5, with
    v_p(disc) read off d* = +-c disc / lc(radical)^(2s-2) (0 for s <= 1)."""
    sh = instance.shape
    v_disc = polyutil.vp_frac(instance.dstar / sh.lead, p) + (2 * sh.s - 2) * vp(sh.radical[-1], p)
    return vp(instance.h, p) + (v_disc if sh.s >= 2 else 0) + 5


def hensel_track_roots(
    shape: FormShape, p: int, precision: int, partial: bool = False
) -> TrackedRoots:
    """Track the distinct roots of F(x,1) in unramified residue towers.

    Each squarefree part w_k is factored over Q; rational roots are kept
    exact, and every higher-degree rational factor whose reduction mod p
    is squarefree is Hensel-lifted to mod p^precision, yielding integer
    approximations of its Z_p roots and opaque factors for the rest.

    Raises RamifiedCase when some factor cannot be separated this way
    (genuinely ramified data, or clustered roots inside one irreducible
    rational factor).  With partial=True such factors are skipped and the
    result is flagged partial.
    """
    n = sum(shape.multiplicities) + shape.degree_deficit
    if n % p == 0:
        raise ValueError(f"tracking requires p not dividing the degree n={n}")
    entries: list[TrackedRoot] = []
    skipped = False
    for mult, w in shape.sqf_parts:
        for q, _e in dup_factor_list(polyutil.to_dense(w), ZZ)[1]:
            qc = polyutil.from_dense(q)
            deg = polyutil.degree(qc)
            if deg == 1:
                root = Fraction(-qc[0], qc[1])
                entries.append(
                    TrackedRoot(0, mult, "rational", rational=root, minpoly=qc)
                )
                continue
            if qc[-1] % p == 0:
                if partial:
                    skipped = True
                    continue
                raise RamifiedCase(
                    f"factor {qc} has p-divisible leading coefficient; monicize first"
                )
            modular = polyutil.factor_mod_p(qc, p)
            if any(e > 1 for _, e in modular):
                if partial:
                    skipped = True
                    continue
                raise RamifiedCase(
                    f"factor {qc} is not squarefree mod {p}: roots cannot be "
                    "separated in unramified towers (profile mode still applies)"
                )
            # sympy works on descending coefficient lists and returns
            # symmetric residues; the lifts are the monic factors of
            # qc / lc(qc) mod p^precision
            desc = [polyutil.to_dense(f) for f in [qc] + [f for f, _ in modular]]
            lifted = dup_zz_hensel_lift(p, desc[0], desc[1:], precision, ZZ)
            for fac in (poly_mod(f[::-1], p**precision) for f in lifted):
                if polyutil.degree(fac) == 1:
                    entries.append(
                        TrackedRoot(
                            0,
                            mult,
                            "lifted",
                            approx=(-fac[0]) % p**precision,
                            factor=fac,
                            minpoly=qc,
                        )
                    )
                else:
                    entries.append(TrackedRoot(0, mult, "inert", factor=fac, minpoly=qc))
    # deterministic indexing: rational roots by value, then lifted by
    # approximation, then inert by factor
    def sort_key(r: TrackedRoot):
        rank = {"rational": 0, "lifted": 1, "inert": 2}[r.kind]
        key = r.rational if r.kind == "rational" else (r.approx if r.kind == "lifted" else r.factor)
        return (rank, key)

    entries.sort(key=sort_key)
    roots = tuple(replace(r, index=i) for i, r in enumerate(entries))
    return TrackedRoots(p=p, precision=precision, roots=roots, partial=skipped)


# ---------------------------------------------------------------------------
# Per-solution valuation profiles


@dataclass(frozen=True)
class RootValuationEntry:
    value: Val
    multiplicity: int
    root_index: int | None = None  # tracked mode only


@dataclass(frozen=True)
class SolutionValuationProfile:
    """Valuations {v(a - alpha_j b)} over the distinct roots of F(x,1).

    t is the maximum; argmax_index identifies the achieving root in
    tracked mode (smallest index on ties).  The degree_deficit roots at
    infinity contribute v_p(b) each to v_p(F(a,b)) but are not part of
    per_root.
    """

    a: int
    b: int
    p: int
    per_root: tuple[RootValuationEntry, ...]
    t: Val
    argmax_index: int | None = None
    tracked: bool = False


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
    additionally pairs each valuation with its root.
    """
    if gcd(a, b) != 1:
        raise ValueError(f"({a},{b}) is not coprime")
    shape = instance.shape
    entries: list[RootValuationEntry] = []
    if tracked is not None:
        for root in tracked.roots:
            v = tracked.root_minus_point(root, a, b)
            entries.append(RootValuationEntry(v, root.multiplicity, root.index))
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
        hits = [e.root_index for e in entries if e.value == t]
        argmax = min(hits) if hits else None
    return SolutionValuationProfile(
        a=a,
        b=b,
        p=p,
        per_root=tuple(entries),
        t=t,
        argmax_index=argmax,
        tracked=tracked is not None,
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
