import csv
import io
import math
import random
from fractions import Fraction
from math import gcd

import pytest
import sympy

from helpers import (
    automorphism_char_poly,
    bound_entry,
    isotypic_dimension,
    partitions,
    product_form,
)
from thuecc import cli, fermat, polyutil
from thuecc.bounds import (
    BoundError,
    PrimeCase,
    RankHypothesis,
    bertrand_prime,
    case_bound,
    chabauty_residue_bound,
    classify_prime,
    global_bound,
    main_bounds,
    rank_threshold,
    refined_bounds,
    refined_bounds_degree_pm1,
    refined_bounds_prime_degree,
)
from thuecc.fermat import FermatTwist, SolutionTriple, unique_triple_check
from thuecc.forms import BinaryForm, ThueInstance, factor_shape, genus


def test_classify_prime():
    inst = ThueInstance.build(BinaryForm.from_coeffs([1, 0, 0, 0, 1]), 17)
    assert classify_prime(inst, 5).case_tag == "a"
    inst_b = ThueInstance.build(BinaryForm.from_coeffs([1, 0, 0, 0, 1]), 25)
    assert classify_prime(inst_b, 5).case_tag == "b"
    # roots {0, 5, 1, 2}: 5 | d*, h = 3 coprime to both primes
    inst_c = ThueInstance.build(product_form([0, 5, 1, 2], [1, 1, 1, 1]), 3)
    assert classify_prime(inst_c, 7).case_tag == "a"
    assert classify_prime(inst_c, 5).case_tag == "c"
    inst_d = ThueInstance.build(product_form([0, 5, 1, 2], [1, 1, 1, 1]), 5)
    assert classify_prime(inst_d, 5).case_tag == "d"
    with pytest.raises(BoundError):
        classify_prime(inst, 3)
    with pytest.raises(BoundError, match="requires a prime"):
        classify_prime(inst, 6)


def test_bertrand_prime():
    assert bertrand_prime(4) == 5
    assert bertrand_prime(6) == 7
    assert bertrand_prime(10) == 11
    for n in range(2, 60):
        p = bertrand_prime(n)
        assert n < p < 2 * n and sympy.isprime(p)


def test_residue_bounds():
    # g = 3, p = 5, s = 4: the classes s*p of case b, s*n*p of case d
    # and an affine count of 16 in case c
    assert chabauty_residue_bound(3, 5, 4 * 5) == Fraction(16, 3) + 20
    assert math.floor(chabauty_residue_bound(3, 5, 4 * 5)) == 25
    assert math.floor(chabauty_residue_bound(3, 5, 4 * 4 * 5)) == 85
    assert math.floor(chabauty_residue_bound(3, 5, 16)) == 21
    with pytest.raises(BoundError):
        chabauty_residue_bound(2, 2, 0)


def test_residue_bound_monotonicity():
    for g in (2, 3, 4):
        for p in (5, 7, 11):
            prev = -1
            for count in range(0, 30, 3):
                b = math.floor(chabauty_residue_bound(g, p, count))
                assert b >= prev
                prev = b


def test_global_and_case_formulas():
    assert global_bound(4) == 117
    assert global_bound(6) == 417
    assert case_bound("a", 4, 3, 4) == 29


def test_main_bounds_desk_instance():
    inst = ThueInstance.build(BinaryForm.from_coeffs([1, 0, 0, 0, 1]), 17)
    rep = main_bounds(inst, 5, RankHypothesis("chabauty_lt_g"))
    assert rep.case.case_tag == "a"
    assert bound_entry(rep, "case_a").floor == 29
    assert bound_entry(rep, "global_cubic").floor == 117
    assert not bound_entry(rep, "case_a").conditional


def test_main_bounds_requires_bertrand_range():
    inst = ThueInstance.build(BinaryForm.from_coeffs([1, 0, 0, 0, 1]), 17)
    with pytest.raises(BoundError):
        main_bounds(inst, 11, None)


def test_main_bounds_conditional_without_hypothesis():
    inst = ThueInstance.build(BinaryForm.from_coeffs([1, 0, 0, 0, 1]), 17)
    rep = main_bounds(inst, 5, None)
    assert all(e.conditional for e in rep.entries)


def test_case_formulas_below_global_exhaustive():
    # every admissible shape for n in 4..12: case bound <= global bound
    for n in range(4, 13):
        gb = global_bound(n)
        for parts in partitions(n):
            g_all = gcd(n, gcd(*parts) if len(parts) > 1 else parts[0])
            if g_all != 1:
                continue
            s = len(parts)
            total = n * (s - 2) - sum(gcd(n, m) for m in parts)
            if total % 2 or total < -2:
                continue
            g = (total + 2) // 2
            for tag in "abcd":
                assert case_bound(tag, n, g, s) <= gb, (n, parts, tag)


def test_majorization_is_surfaced_not_assumed():
    # n=4, s=4, g=3, p=5: the per-term majorization is genuinely loose
    inst = ThueInstance.build(BinaryForm.from_coeffs([1, 0, 0, 0, 1]), 17)
    rep = main_bounds(inst, 5, None)
    assert any("majorization" in note for note in rep.notes)
    # but at p = 7 it holds
    rep7 = main_bounds(inst, 7, None)
    assert not any("majorization" in note for note in rep7.notes)


def test_refined_prime_degree_values():
    hyp = RankHypothesis("mw_lt_threshold", 1)
    r = refined_bounds_prime_degree(5, PrimeCase(11, False, False), hyp)
    assert r.entries[0].floor == 17
    rd = refined_bounds_prime_degree(5, PrimeCase(11, True, True), hyp)
    assert rd.entries[0].floor == 57
    rb = refined_bounds_prime_degree(7, PrimeCase(29, True, False), hyp)
    assert rb.entries[0].floor == 40
    assert any("rank transfer" in note for note in r.notes)
    with pytest.raises(BoundError):
        refined_bounds_prime_degree(6, PrimeCase(13, False, False), hyp)
    with pytest.raises(BoundError):
        refined_bounds_prime_degree(5, PrimeCase(16, False, False), hyp)
    with pytest.raises(BoundError):  # 13 is prime, but 13 - 1 is not a multiple of 5
        refined_bounds_prime_degree(5, PrimeCase(13, False, False), hyp)


def test_refined_pm1_values():
    r = refined_bounds_degree_pm1(PrimeCase(5, False, False), None, s=4)
    by_name = {e.name: e.floor for e in r.entries}
    assert by_name == {"pm1_local": 13, "pm1_rational": 17}
    rb = refined_bounds_degree_pm1(PrimeCase(5, True, False), None, s=4)
    assert {e.name: e.floor for e in rb.entries} == {
        "pm1_local": 13,
        "pm1_rational": 17,
    }
    rc = refined_bounds_degree_pm1(PrimeCase(7, False, True), None, s=6)
    assert {e.name: e.floor for e in rc.entries} == {"pm1_local": 21}
    rd = refined_bounds_degree_pm1(PrimeCase(7, True, True), None, s=6)
    assert {e.name: e.floor for e in rd.entries} == {"pm1_local": 91}


def test_refined_pm1_hypothesis_routes():
    hyp_c = RankHypothesis("chabauty_lt_g", source="over the cyclotomic field")
    r = refined_bounds_degree_pm1(PrimeCase(5, False, False), hyp_c, s=4)
    assert not r.entries[0].conditional
    hyp_m = RankHypothesis("mw_rank_value", 0)
    r2 = refined_bounds_degree_pm1(PrimeCase(5, False, False), hyp_m, s=4)
    assert not r2.entries[0].conditional
    hyp_big = RankHypothesis("mw_rank_value", 5)
    r3 = refined_bounds_degree_pm1(PrimeCase(5, False, False), hyp_big, s=4)
    assert r3.entries[0].conditional


def test_char_poly_examples():
    phi5 = automorphism_char_poly(5, (1, 1, 3))
    assert phi5 == (1, 1, 1, 1, 1)
    phi4 = automorphism_char_poly(4, (1, 1, 1, 1))
    assert polyutil.degree(phi4) == 6
    # s = 2 degenerate: char = 1, degree 0 = 2g
    assert automorphism_char_poly(4, (1, 3)) == (1,)
    # perfect-power multiplicities fall outside the hypotheses
    with pytest.raises(ValueError):
        automorphism_char_poly(4, (2, 2))


def test_char_poly_degree_matches_genus():
    rng = random.Random(71)
    checked = 0
    while checked < 60:
        n = rng.randint(3, 12)
        parts = []
        total = 0
        while total < n:
            m = rng.randint(1, n - total)
            parts.append(m)
            total += m
        if len(parts) < 2:
            continue
        shape = product_form(
            random.Random(checked).sample(range(-40, 41), len(parts)), parts
        )
        sh = factor_shape(shape)
        try:
            g = genus(sh, n)
        except Exception:
            continue
        try:
            cp = automorphism_char_poly(n, parts)
        except ValueError:
            continue
        assert polyutil.degree(cp) == 2 * g, (n, parts)
        checked += 1


def test_char_poly_rejects_bad_sum():
    with pytest.raises(ValueError):
        automorphism_char_poly(4, (1, 1, 1))


def test_isotypic_dimensions():
    assert isotypic_dimension(5, 5, 3) == 2
    assert isotypic_dimension(4, 4, 4) == 2
    assert isotypic_dimension(4, 2, 4) == 1
    assert isotypic_dimension(7, 7, 3) == 3
    with pytest.raises(ValueError):
        isotypic_dimension(4, 3, 4)  # 3 does not divide 4
    with pytest.raises(ValueError):
        isotypic_dimension(5, 5, 3, multiplicities=(5, 5))
    with pytest.raises(ValueError):
        isotypic_dimension(4, 2, 3)  # phi(2)(s-2)/2 = 1/2 non-integral


def test_isotypic_decomposition_sums_to_genus():
    # all gcd(n, n_i) = 1: sum over d | n, d != 1 of phi(d)(s-2)/2 = g
    rng = random.Random(73)
    checked = 0
    while checked < 40:
        n = rng.randint(3, 12)
        coprime_parts = [m for m in range(1, n) if gcd(n, m) == 1]
        parts = []
        total = 0
        while total < n:
            opts = [m for m in coprime_parts if m <= n - total]
            if not opts:
                break
            m = rng.choice(opts)
            parts.append(m)
            total += m
        if total != n or len(parts) < 3:
            continue
        s = len(parts)
        g = genus(factor_shape(product_form(list(range(s)), parts)), n)
        dims = sum(
            isotypic_dimension(n, d, s, multiplicities=parts)
            for d in sympy.divisors(n)
            if d != 1
        )
        assert dims == g, (n, parts)
        checked += 1


def test_rank_threshold():
    assert rank_threshold(3) == Fraction(1, 2)
    assert rank_threshold(4) == 1
    assert rank_threshold(2) == 0


def test_hypothesis_validation():
    with pytest.raises(BoundError):
        RankHypothesis("bogus")
    with pytest.raises(BoundError):
        RankHypothesis("mw_rank_value")
    # a rank is never negative, so these would make every bound unconditional
    for kind, value in [("mw_rank_value", -1), ("mw_lt_threshold", 0), ("mw_lt_threshold", -3)]:
        with pytest.raises(BoundError):
            RankHypothesis(kind, value)
    assert RankHypothesis("mw_lt_threshold", 1).implies_chabauty_lt(2)
    h = RankHypothesis("mw_rank_value", 2, source="assumed")
    assert h.implies_chabauty_lt(3)
    assert not h.implies_chabauty_lt(2)
    assert "assumed" in h.describe()


@pytest.mark.parametrize("r", range(4))
def test_rank_value_and_threshold_read_alike(r, monkeypatch, capsys):
    """Ranks are integers, so "MW rank = r" and "MW rank < r + 1" make
    the same claim about every threshold, half-integers included."""

    def readings(hyp):
        pm1 = [
            [e.conditional for e in refined_bounds_degree_pm1(PrimeCase(5, h, d), hyp, s).entries]
            for s in range(2, 10)  # thresholds (s - 2)/2 = 0, 1/2, ..., 7/2
            for h, d in ((False, False), (True, True))
        ]
        prime = [
            refined_bounds_prime_degree(n, PrimeCase(p, False, False), hyp).entries[0].conditional
            for n, p in ((5, 11), (7, 29), (11, 23), (13, 53))
        ]
        checks = [
            unique_triple_check(FermatTwist(1, 1, 2, p - 1), p, hyp).consistent
            for p in (5, 7, 11, 13)
        ]
        return pm1, prime, checks

    # two nonequivalent classes, so consistency turns on the hypothesis
    triples = [SolutionTriple(1, 2, 1), SolutionTriple(2, 1, 1)]
    monkeypatch.setattr(fermat, "search_triples", lambda twist, box: triples)
    exact = readings(RankHypothesis("mw_rank_value", r))
    assert exact == readings(RankHypothesis("mw_lt_threshold", r + 1))
    assert exact != readings(None)
    argv = ["bound", "--F=1,0,-1,0,0", "--h", "3", "--format", "csv", "--hypothesis"]
    flags = []
    for hyp in (f"mw_rank_value:{r}", f"mw_lt_threshold:{r + 1}"):
        assert cli.main([*argv, hyp]) == 0
        flags.append([row[8] for row in csv.reader(io.StringIO(capsys.readouterr().out))])
    assert flags[0] == flags[1]


def test_csv_rows(capsys):
    code = cli.main(
        ["bound", "--F", "1,0,0,0,1", "--h", "17", "--p", "5",
         "--hypothesis", "chabauty_lt_g", "--format", "csv"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    # a header, then main_bounds gives case_a and global_cubic; the
    # n = p - 1 block adds pm1_local and pm1_rational
    assert len(lines) == 5
    assert lines[0] == "instance,p,case,name,quantity,exact,floor,hypothesis,conditional,error"
    assert lines[1] == (
        "F=[1 0 0 0 1];h=17,5,a,case_a,|X(Q)|,29,29,Chabauty rank < g [cli flag],False,"
    )
    # quantities such as N(F,h,Q,p) contain commas and must be quoted
    assert cli.main(["bound", "--F", "1,0,0,0,1", "--h", "17", "--format", "csv"]) == 0
    parsed = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(parsed) == 5
    assert all(len(row) == 10 for row in parsed)
    assert {row[4] for row in parsed[1:]} == {"|X(Q)|", "N(F,h)", "N(F,h,Q,p)"}


def test_refined_bounds_by_degree():
    def blocks(coeffs, h):
        inst = ThueInstance.build(BinaryForm.from_coeffs(coeffs), h)
        return [(rep.case.p, rep.entries[0].name) for rep in refined_bounds(inst, None)]

    # n = 4: n + 1 = 5 is prime
    assert blocks([1, 0, 0, 0, 1], 17) == [(5, "pm1_local")]
    # n = 5: prime degree at p = 2*5 + 1 = 11; n + 1 = 6 is not prime
    assert [p for p, _ in blocks([1, 0, 0, 0, 0, 2], 7)] == [11]
    # n = 7: 15 and 22 are composite, so a = 4 and p = 29
    assert [p for p, _ in blocks([1, 0, 0, 0, 0, 0, 0, 3], 5)] == [29]
    # n = 8: neither 8 nor 9 is prime
    assert blocks([1, 0, 0, 0, 0, 0, 0, 0, 3], 5) == []
