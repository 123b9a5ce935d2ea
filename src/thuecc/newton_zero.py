"""Zero counting for p-adic power series on a residue disk.

A function admitting an expansion a_0 + sum_{m>=1} (a_m/m) u^m with all
a_m integral, restricted to the disk |u| <= |p|, becomes after u = p*z a
series converging on the whole ring of integers.  Two indices of the
coefficient-valuation sequence control its zeros through Weierstrass
preparation:

* the first index with a unit coefficient (first_unit_index), and
* the last index achieving the minimal term valuation
  v(a_m p^m / m) = m + v(a_m) - v(m) (zero_count_index), which bounds
  the number of zeros on the closed unit disk.

The tail of the infinite quantifier is closed by the increasing function
x - log_p(x), compared exactly in integer arithmetic (p^(x-c) vs x).
zero_bound turns the two indices into the branch bound on the zero count.
"""

from __future__ import annotations

from dataclasses import dataclass

from thuecc.padic import INF
from thuecc.polyutil import vp


class TruncationError(ValueError):
    """The truncated sequence does not determine the requested index."""


@dataclass(frozen=True)
class CoeffValuationSeq:
    """Valuations (v(a_0), ..., v(a_M)) of an integral coefficient sequence.

    Entries are nonnegative integers or INF (for a_m = 0).  tail_floor
    records the guarantee v(a_m) >= 0 for every m beyond the truncation,
    which holds whenever the series comes from an integral expansion.
    """

    p: int
    vals: tuple
    tail_floor: bool = True

    def __post_init__(self):
        if not self.vals:
            raise ValueError("empty valuation sequence")
        if any(v != INF and (v < 0 or v != int(v)) for v in self.vals):
            raise ValueError("valuations must be nonnegative integers or inf")
        if all(v == INF for v in self.vals):
            raise ValueError("at least one coefficient must be nonzero")


def compare_rho_gt(x: int, c: int, p: int) -> bool:
    """Decide x - log_p(x) > c exactly: equivalent to p^(x-c) > x."""
    if x < 1:
        raise ValueError("x must be >= 1")
    if x <= c:
        return False
    return p ** (x - c) > x


def term_valuation(m: int, v_am, p: int):
    """v(a_m p^m / m) = m + v(a_m) - v(m); for m = 0 it is v(a_0)."""
    if v_am == INF:
        return INF
    if m == 0:
        return v_am
    return m + v_am - vp(m, p)


def first_unit_index(seq: CoeffValuationSeq) -> int:
    """Least m with v(a_m) = 0 within the truncation."""
    for m, v in enumerate(seq.vals):
        if v == 0:
            return m
    raise TruncationError("no unit coefficient within the truncation; extend M")


def zero_count_index(seq: CoeffValuationSeq) -> int:
    """Least m whose term valuation is strictly below all later ones.

    Weierstrass preparation bounds the zeros of the series on the closed
    unit disk by this index.  Requires p > 2 and first_unit_index <
    p^2 - 2 so the tail beyond the truncation is dominated via
    term_valuation(m, 0) >= m - log_p(m), an increasing lower bound.
    """
    p = seq.p
    if p <= 2:
        raise ValueError("requires p > 2")
    iu = first_unit_index(seq)
    if not iu < p * p - 2:
        raise ValueError(f"first unit index {iu} >= p^2 - 2 = {p * p - 2}")
    if not seq.tail_floor:
        raise ValueError("tail guarantee required to close the quantifier")
    M = len(seq.vals) - 1
    horizon = max(M, p * p)

    def term_lower(ell: int):
        # exact within the truncation, floor bound beyond it
        if ell <= M:
            return term_valuation(ell, seq.vals[ell], p)
        return ell - vp(ell, p)

    for m in range(0, min(iu + 1, M) + 1):
        c = term_valuation(m, seq.vals[m], p)
        if c == INF:
            continue
        if any(term_lower(ell) <= c for ell in range(m + 1, horizon + 1)):
            continue
        if not compare_rho_gt(horizon + 1, int(c), p):
            raise TruncationError("tail bound does not close; extend the sequence")
        return m
    raise TruncationError("no admissible index found within first_unit_index + 1")


@dataclass(frozen=True)
class ZeroBoundReport:
    first_unit_index: int
    zero_index: int
    bound: int
    branch: str  # "p_divides_I_plus_1" or "p_not_divides"


def zero_bound(seq: CoeffValuationSeq) -> ZeroBoundReport:
    """Branch bound on the zero count: I+1 when p | I+1, else I.

    The report's zero_index always satisfies zero_index <= bound.
    """
    p = seq.p
    iu = first_unit_index(seq)
    zi = zero_count_index(seq)
    if (iu + 1) % p == 0:
        branch, bound = "p_divides_I_plus_1", iu + 1
    else:
        branch, bound = "p_not_divides", iu
    if zi > bound:
        raise AssertionError(
            f"zero index {zi} exceeds branch bound {bound}: input violates integrality"
        )
    return ZeroBoundReport(iu, zi, bound, branch)
