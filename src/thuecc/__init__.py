"""Exact toolkit for Thue equations F(x,y) = h.

Computes curve invariants (factorization shape, genus, root-difference
discriminant d*), p-adic valuation data (Newton polygons, Hensel-tracked
roots, per-solution valuation profiles), the chart ledger attached to a
primitive solution, the full catalogue of conditional point bounds, and
brute-force oracles (box enumeration, finite-field point counts) used to
cross-check every identity at desk scale.

All arithmetic is exact: integers, fractions.Fraction, and residue towers
mod p^N.  No floating point enters any computed value.
"""

from thuecc.forms import BinaryForm, FormShape, ThueInstance, factor_shape, genus, dstar
from thuecc.padic import (
    INF,
    newton_polygon,
    root_valuations,
    difference_valuations,
    hensel_track_roots,
    solution_valuations,
)
from thuecc.enumerate import primitive_solutions

__all__ = [
    "BinaryForm",
    "FormShape",
    "ThueInstance",
    "factor_shape",
    "genus",
    "dstar",
    "INF",
    "newton_polygon",
    "root_valuations",
    "difference_valuations",
    "hensel_track_roots",
    "solution_valuations",
    "primitive_solutions",
]
