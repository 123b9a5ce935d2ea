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
