"""Exact arithmetic on integer binary forms.

A binary form F(x,y) of degree n is stored by its coefficient sequence
c_0..c_n where c_i multiplies x^(n-i) y^i.  The module computes the
factorization shape of F(x,1) (count of distinct roots, multiplicities,
root at infinity), the genus of the smooth model of h z^n = F(x,y), the
pairwise root-difference product d*(F), irreducibility of that model,
and a unimodular change of variables making the leading coefficient a
p-adic unit.

Roots are never materialized.  The integer discriminant of F(x,1)
decides first: when it is nonzero every root is simple, and F(x,1) is
its own squarefree part.  Only when it is 0 do the multiplicities come
from the squarefree decomposition over Q (gcd chains).  d* comes from
the discriminant of the squarefree part; all of these are Galois-stable
computations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from thuecc import polyutil
from thuecc.polyutil import IntPoly


class FormError(ValueError):
    """Invalid form or shape input."""


@dataclass(frozen=True)
class BinaryForm:
    """Integer binary form of degree n = len(coeffs) - 1.

    coeffs[i] is the coefficient of x^(n-i) y^i, so coeffs[0] multiplies
    x^n.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.degree < 1:
            raise FormError("degree must be positive")
        if not any(self.coeffs):
            raise FormError("zero form")

    @classmethod
    def from_coeffs(cls, coeffs) -> "BinaryForm":
        return cls(tuple(map(int, coeffs)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: int, y: int) -> int:
        """F(x, y) as an exact integer, by Horner's rule in x that carries
        the power of y: acc = acc * x + c_i y^i for i = 0..n."""
        acc = 0
        y_i = 1
        for c in self.coeffs:
            acc = acc * x + c * y_i
            y_i *= y
        return acc

    def dehomogenized(self) -> IntPoly:
        """F(x,1) as an ascending-coefficient integer polynomial."""
        return polyutil.trim(tuple(reversed(self.coeffs)))


@dataclass(frozen=True)
class FormShape:
    """Factorization shape of F(x,1) = c * prod (x - alpha_i)^{n_i}.

    s counts the distinct roots in the algebraic closure; degree_deficit
    is the multiplicity of the root at infinity (the power of y dividing
    F).  discriminant is disc(radical), 0 when s = 0.  sqf_parts pairs
    each multiplicity k with the primitive integer polynomial whose
    roots are exactly the multiplicity-k roots.
    """

    s: int
    multiplicities: tuple[int, ...]
    lead: int
    radical: IntPoly
    degree_deficit: int
    discriminant: int
    sqf_parts: tuple[tuple[int, IntPoly], ...] = field(default=())

    def all_multiplicities(self) -> tuple[int, ...]:
        """Multiplicities of every root including the one at infinity."""
        extra = (self.degree_deficit,) if self.degree_deficit > 0 else ()
        return self.multiplicities + extra


def factor_shape(form: BinaryForm) -> FormShape:
    """Compute the factorization shape of F(x,1).

    A nonzero discriminant of primitive(F(x,1)) means every root is
    simple, and F(x,1) is its own squarefree part.  Otherwise the
    multiplicities come from the squarefree decomposition over the
    rationals: the part of multiplicity k contributes deg(w_k) roots of
    multiplicity k each.
    """
    f = form.dehomogenized()
    n = form.degree
    deficit = n - polyutil.degree(f)
    rad = polyutil.primitive(f)
    disc = polyutil.discriminant(rad)
    if disc:
        parts = [(1, rad)]
        mults = [1] * polyutil.degree(rad)
    else:
        parts = polyutil.sqf_parts(f)
        mults = []
        rad = (1,)
        for k, w in parts:
            mults.extend([k] * polyutil.degree(w))
            rad = polyutil.mul(rad, w)
        rad = polyutil.primitive(rad)
        disc = polyutil.discriminant(rad)
    return FormShape(
        s=len(mults),
        multiplicities=tuple(mults),
        lead=f[-1],
        radical=rad,
        degree_deficit=deficit,
        discriminant=disc,
        sqf_parts=tuple(parts),
    )


def genus(shape: FormShape, n: int) -> int:
    """Genus of the smooth model of h z^n = F(x,y).

    2g - 2 = n(s - 2) - sum_i gcd(n, n_i), where the sum runs over all
    distinct roots including the root at infinity with multiplicity
    degree_deficit.  Raises if the formula yields an odd value of 2g-2
    or a negative genus (shape inconsistent with an irreducible model).
    """
    mults = shape.all_multiplicities()
    s_eff = len(mults)
    total = n * (s_eff - 2) - sum(gcd(n, m) for m in mults)
    if total % 2 != 0:
        raise FormError(f"2g-2 = {total} is odd: shape invalid for this model")
    g = (total + 2) // 2
    if g < 0:
        raise FormError(f"negative genus {g}: shape invalid for this model")
    return g


def dstar(shape: FormShape) -> Fraction:
    """d*(F) = c * prod over ordered pairs of distinct roots of (a_i - a_j).

    Computed through the discriminant of the squarefree part: the product
    is symmetric in the roots, hence rational.  Sign convention
    (-1)^(s(s-1)/2) * disc(radical) / lc(radical)^(2s-2), times c.  Only
    p-adic valuations of d* matter downstream.
    """
    s = shape.s
    if s <= 1:
        return Fraction(shape.lead)
    lc = shape.radical[-1]
    sign = -1 if (s * (s - 1) // 2) % 2 else 1
    return Fraction(sign * shape.lead * shape.discriminant, lc ** (2 * s - 2))


def power_gcd(shape: FormShape, n: int) -> int:
    """gcd(n, n_1, ..., n_s, degree_deficit): F is a constant times a
    perfect power of this exponent.  The model h z^n - F(x,y), h != 0,
    factors over the algebraic closure exactly when F is a constant
    times a proper power, i.e. when this gcd exceeds 1."""
    return gcd(n, shape.degree_deficit, *shape.multiplicities)


def monicize(form: BinaryForm, p: int) -> tuple[int, BinaryForm]:
    """Substitute y -> y + u*x so the x^n coefficient becomes a p-unit.

    The new leading coefficient is F(1,u); at most n residue classes must
    be avoided, so for p > n the smallest admissible u in [0, p) exists.
    The substitution is unimodular, hence preserves primitive solutions.
    """
    n = form.degree
    if p <= n:
        raise FormError(f"monicize requires p > n (got p={p}, n={n})")
    for u in range(p):
        if form(1, u) % p != 0:
            return u, substitute_y_shift(form, u)
    raise FormError("unreachable: pigeonhole guarantees an admissible u")


def substitute_y_shift(form: BinaryForm, u: int) -> BinaryForm:
    """Expand F(x, y + u*x) exactly."""
    # coeffs ascend in y, so F(1, y + u) is their composition with u + y
    n = form.degree
    new = polyutil.compose_linear(form.coeffs, u, 1)
    return BinaryForm(new + (0,) * (n + 1 - len(new)))


@dataclass(frozen=True)
class ThueInstance:
    """A Thue equation F(x,y) = h with unit-content F.

    genus is None when the genus formula rejects the shape (which can
    only happen for reducible models); every bound operation requires
    irreducible = True.
    """

    form: BinaryForm
    h: int
    shape: FormShape
    genus: int | None
    dstar: Fraction
    irreducible: bool
    content_removed: int = 1

    @classmethod
    def build(cls, form: BinaryForm, h: int) -> "ThueInstance":
        if h == 0:
            raise FormError("h must be nonzero")
        content = polyutil.content(form.coeffs)
        removed = 1
        if content > 1:
            # normalize by content; meaningful only when it divides h
            if h % content != 0:
                raise FormError(
                    f"form has content {content} not dividing h={h}: no primitive solutions"
                )
            form = BinaryForm(tuple(c // content for c in form.coeffs))
            h //= content
            removed = content
        shape = factor_shape(form)
        try:
            g = genus(shape, form.degree)
        except FormError:
            g = None
        return cls(
            form=form,
            h=h,
            shape=shape,
            genus=g,
            dstar=dstar(shape),
            irreducible=power_gcd(shape, form.degree) == 1,
            content_removed=removed,
        )

    @property
    def n(self) -> int:
        return self.form.degree

    def instance_id(self) -> str:
        coeffs = " ".join(str(c) for c in self.form.coeffs)
        return f"F=[{coeffs}];h={self.h}"
