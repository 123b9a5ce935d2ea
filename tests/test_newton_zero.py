import math
import random

import pytest

from helpers import certified_zp_roots, random_valuation_seq, realize_series
from thuecc.bounds import chabauty_residue_bound
from thuecc.newton_zero import (
    INF,
    CoeffValuationSeq,
    TruncationError,
    compare_rho_gt,
    first_unit_index,
    term_valuation,
    zero_bound,
    zero_count_index,
)


def test_term_valuation():
    assert term_valuation(5, 0, 5) == 4
    assert term_valuation(1, 0, 5) == 1
    assert term_valuation(25, 0, 5) == 23
    assert term_valuation(0, 2, 5) == 2
    assert term_valuation(3, INF, 5) == INF


def test_rho_comparisons():
    # equality at x = p, c = p - 1
    assert not compare_rho_gt(5, 4, 5)
    assert compare_rho_gt(6, 4, 5)
    assert not compare_rho_gt(1, 1, 5)
    # increasing for x >= 1: check the exact comparator is monotone in x
    for p in (3, 5, 7):
        for c in range(0, 8):
            hits = [x for x in range(1, 60) if compare_rho_gt(x, c, p)]
            if hits:
                lo = hits[0]
                assert all(compare_rho_gt(x, c, p) for x in range(lo, 60))


def test_first_unit_index():
    assert first_unit_index(CoeffValuationSeq(5, (1, 0))) == 1
    assert first_unit_index(CoeffValuationSeq(5, (0, 2))) == 0
    assert first_unit_index(CoeffValuationSeq(5, (2, 3, 1, 0))) == 3
    with pytest.raises(TruncationError):
        first_unit_index(CoeffValuationSeq(5, (1, 2, 3)))


def test_zero_count_index_examples():
    assert zero_count_index(CoeffValuationSeq(5, (1, 0))) == 1
    assert zero_count_index(CoeffValuationSeq(5, (0, 1))) == 0
    # tie between indices 4 and 5 at term valuation 4: last one wins
    assert zero_count_index(CoeffValuationSeq(5, (9, 9, 9, 9, 0, 0))) == 5


def test_zero_bound_branches():
    r = zero_bound(CoeffValuationSeq(5, (9, 9, 9, 9, 0, 0)))
    assert r.branch == "p_divides_I_plus_1" and r.bound == 5 and r.zero_index == 5
    r2 = zero_bound(CoeffValuationSeq(5, (2, 3, 1, 0)))
    assert r2.branch == "p_not_divides" and r2.bound == 3
    r3 = zero_bound(CoeffValuationSeq(5, (0, 1, 2)))
    assert r3.bound == 0 and r3.zero_index == 0


def test_zero_count_index_requires_tail():
    with pytest.raises(ValueError):
        zero_count_index(CoeffValuationSeq(5, (1, 0), tail_floor=False))


def test_branch_bound_randomized():
    rng = random.Random(99)
    for p in (5, 7, 11):
        for _ in range(120):
            seq = random_valuation_seq(rng, p)
            rep = zero_bound(seq)
            assert rep.zero_index <= rep.bound
            assert rep.bound in (rep.first_unit_index, rep.first_unit_index + 1)


def test_realized_series_roots_le_zero_index():
    rng = random.Random(2024)
    for p in (5, 7):
        for _ in range(40):
            seq = random_valuation_seq(rng, p)
            rep = zero_bound(seq)
            poly = realize_series(seq, rng)
            certified, _ambiguous = certified_zp_roots(poly, p, depth=6)
            assert certified <= rep.zero_index <= rep.bound


def test_zero_index_equals_last_argmin_and_polygon_count():
    # two independent routes to the same quantity: the last index at the
    # minimal coefficient valuation of the realized polynomial, and the
    # number of its roots with nonnegative valuation (Newton polygon)
    from thuecc import polyutil
    from thuecc.padic import root_valuations

    rng = random.Random(404)
    for p in (5, 7, 11):
        for _ in range(40):
            seq = random_valuation_seq(rng, p)
            zi = zero_count_index(seq)
            poly = realize_series(seq, rng)
            vals = [
                polyutil.vp(c, p) if c else None for c in poly
            ]
            finite = [v for v in vals if v is not None]
            mv = min(finite)
            last_argmin = max(i for i, v in enumerate(vals) if v == mv)
            assert zi == last_argmin, (seq.vals, p)
            in_disk = sum(
                m for v, m in root_valuations(poly, p) if v == float("inf") or v >= 0
            )
            assert zi == in_disk, (seq.vals, p)


def aggregate(u_size, g, p):
    # point counts are whole numbers: the floor of |U| + (p-1)(2g-2)/(p-2)
    return math.floor(chabauty_residue_bound(g, p, u_size))


def test_chabauty_aggregate_bound():
    assert aggregate(10, 2, 5) == 12
    assert aggregate(0, 3, 7) == 4
    # p > 2g: the floor adds at most 2g - 2
    for g, p in ((2, 5), (3, 7), (5, 11)):
        assert aggregate(0, g, p) <= 2 * g - 2


def test_chabauty_aggregate_monotonicity():
    for g in range(2, 6):
        for p in (7, 11, 13):
            assert aggregate(5, g, p) <= aggregate(6, g, p)
            assert aggregate(5, g, p) <= aggregate(5, g + 1, p)
            assert aggregate(5, g, 13) <= aggregate(5, g, 7)


def test_term_valuation_floor_inequality():
    # term_valuation(m, 0, p) >= m - floor(log_p m), integer statement
    import math

    for p in (3, 5, 7, 11):
        for m in range(1, 400):
            assert term_valuation(m, 0, p) >= m - math.floor(math.log(m, p) + 1e-12)
