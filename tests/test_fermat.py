import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import materialize_orbit, orbit_field_prime
from thuecc import fermat
from thuecc.bounds import RankHypothesis
from thuecc.fermat import (
    FermatError,
    FermatTwist,
    SolutionTriple,
    equivalence,
    nonequivalent_classes,
    orbit_count,
    search_triples,
    solve_coefficients,
    unique_triple_check,
)

nonzero = st.integers(-9, 9).filter(lambda v: v != 0)


def test_solve_coefficients_example():
    tw = solve_coefficients(SolutionTriple(1, 2, 1), SolutionTriple(2, 1, 1), 3)
    assert (tw.A, tw.B, tw.C) == (1, 1, 9)


def test_solve_coefficients_rejects_equivalent():
    t = SolutionTriple(1, 2, 1)
    with pytest.raises(FermatError):
        solve_coefficients(t, SolutionTriple(-1, 2, 1), 4)  # equal 4th powers


def test_solve_coefficients_rejects_small_n():
    # n is checked before the power vectors are built
    for n in (1, 0, -1, -3):
        with pytest.raises(FermatError, match="need n >= 2"):
            solve_coefficients(SolutionTriple(1, 2, 1), SolutionTriple(2, 1, 1), n)


@given(
    st.tuples(nonzero, nonzero, nonzero),
    st.tuples(nonzero, nonzero, nonzero),
    st.integers(2, 5),
)
@settings(max_examples=150, deadline=None)
def test_solve_coefficients_identity(c1, c2, n):
    t1, t2 = SolutionTriple(*c1), SolutionTriple(*c2)
    try:
        tw = solve_coefficients(t1, t2, n)
    except FermatError:
        assert equivalence(t1, t2, n)
        return
    assert tw.satisfied_by(t1) and tw.satisfied_by(t2)
    from math import gcd

    assert gcd(gcd(tw.A, tw.B), tw.C) == 1


@given(st.tuples(nonzero, nonzero, nonzero), st.integers(2, 5))
@settings(max_examples=60, deadline=None)
def test_equivalence_reflexive_and_scaling(coords, n):
    t = SolutionTriple(*coords)
    assert equivalence(t, t, n)
    t2 = SolutionTriple(2 * t.x, 2 * t.y, 2 * t.z)
    assert equivalence(t, t2, n)


def test_equivalence_relation_properties():
    rng = random.Random(55)
    triples = [
        SolutionTriple(rng.randint(-5, 5) or 1, rng.randint(-5, 5) or 2, rng.randint(1, 5))
        for _ in range(25)
    ]
    for n in (2, 3, 4):
        for a in triples:
            assert equivalence(a, a, n)
            for b in triples:
                assert equivalence(a, b, n) == equivalence(b, a, n)
                for c in triples:
                    if equivalence(a, b, n) and equivalence(b, c, n):
                        assert equivalence(a, c, n)


def test_equivalence_examples():
    assert equivalence(SolutionTriple(1, 2, 1), SolutionTriple(-1, 2, 1), 4)
    assert not equivalence(SolutionTriple(1, 2, 1), SolutionTriple(2, 1, 1), 3)


def test_orbit_counts():
    assert orbit_count(SolutionTriple(1, 2, 1), False, 4) == 16
    assert orbit_count(SolutionTriple(1, 2, 1), True, 4) == 32
    # x^n = y^n: the swap adds nothing even with the symmetric flag
    assert orbit_count(SolutionTriple(1, -1, 2), True, 4) == 16
    with pytest.raises(FermatError):
        orbit_count(SolutionTriple(1, 0, 1), False, 4)
    # n = 0 divided by zero and n = 1 never found a field prime
    for n in (0, 1, -3):
        with pytest.raises(FermatError):
            orbit_count(SolutionTriple(1, 2, 1), False, n)


def test_orbit_over_f13():
    pts = materialize_orbit(SolutionTriple(1, 2, 1), False, 4, 13)
    assert len(pts) == 16
    swapped = materialize_orbit(SolutionTriple(1, 2, 1), True, 4, 13)
    assert len(swapped) == 32


@st.composite
def _orbit_case(draw):
    """(triple, symmetric, n) with x = y or x = -y in about half the draws."""
    n = draw(st.integers(2, 30))
    x = draw(nonzero)
    y = draw(st.sampled_from([x, -x]) | nonzero)
    return SolutionTriple(x, y, draw(nonzero)), draw(st.booleans()), n


@given(_orbit_case())
@settings(max_examples=200, deadline=None)
@example((SolutionTriple(1, -1, 2), True, 5))
@example((SolutionTriple(3, 3, 1), True, 2))
def test_orbit_count_matches_the_materialized_orbit(case):
    t, symmetric, n = case
    q = orbit_field_prime(t, n)
    assert orbit_count(t, symmetric, n) == len(materialize_orbit(t, symmetric, n, q))


def test_orbit_random_triples():
    rng = random.Random(77)
    for _ in range(20):
        t = SolutionTriple(
            rng.choice([v for v in range(-7, 8) if v]),
            rng.choice([v for v in range(-7, 8) if v]),
            rng.choice([v for v in range(-7, 8) if v]),
        )
        n = rng.choice([2, 3, 4, 6])
        expected = 2 * n * n if t.x**n != t.y**n else n * n
        assert orbit_count(t, True, n) == expected


def test_search_triples_finds_known():
    tw = FermatTwist(1, 1, 9, 3)
    found = search_triples(tw, 6)
    assert SolutionTriple(1, 2, 1) in found
    assert SolutionTriple(2, 1, 1) in found


def test_unique_triple_contrapositive(monkeypatch):
    # two nonequivalent triples force the rank conclusion
    t1, t2 = SolutionTriple(1, 2, 1), SolutionTriple(2, 1, 1)
    tw = solve_coefficients(t1, t2, 4)
    monkeypatch.setattr(fermat, "search_triples", lambda twist, box: [t1, t2])
    rep = unique_triple_check(tw, 5, RankHypothesis("mw_lt_threshold", 1))
    assert len(rep.classes) == 2
    assert not rep.consistent
    assert "rank over Q >= 1" in rep.conclusion


def test_unique_triple_consistent_case():
    tw = FermatTwist(1, 1, 2, 4)  # x^4 + y^4 = 2 z^4, solutions (±1,±1,±1)
    rep = unique_triple_check(tw, 5, RankHypothesis("mw_lt_threshold", 1), box=5)
    assert len(rep.classes) <= 1
    assert rep.consistent


def test_unique_triple_requires_p_coprime_AB():
    with pytest.raises(FermatError):
        unique_triple_check(FermatTwist(5, 1, 2, 4), 5, None)


def test_infinite_order_construction():
    # the twist through t1 and its shift t1 + (q,q,q) has q coprime to ABC
    t1, t2 = SolutionTriple(1, 2, 3), SolutionTriple(8, 9, 10)
    tw = solve_coefficients(t1, t2, 4)
    assert tw.satisfied_by(t1) and tw.satisfied_by(t2)
    assert (tw.A * tw.B * tw.C) % 7 != 0


def test_infinite_order_randomized():
    rng = random.Random(88)
    done = 0
    while done < 25:
        coords = rng.sample(range(1, 30), 3)
        t1 = SolutionTriple(*coords)
        q = rng.choice([3, 5, 7, 11])
        n = rng.choice([2, 3, 4, 5, 6])
        bad = t1.x * t1.y * t1.z * (t1.x - t1.y) * (t1.x - t1.z) * (t1.y - t1.z)
        if bad % q == 0 or n % q == 0:
            continue
        tw = solve_coefficients(t1, SolutionTriple(t1.x + q, t1.y + q, t1.z + q), n)
        assert (tw.A * tw.B * tw.C) % q != 0
        done += 1


def test_nonequivalent_classes():
    t1 = SolutionTriple(1, 2, 1)
    reps = nonequivalent_classes(
        [t1, SolutionTriple(-1, 2, 1), SolutionTriple(2, 1, 1)], 4
    )
    assert len(reps) == 2


def test_twist_gcd_validation():
    with pytest.raises(FermatError):
        FermatTwist(2, 4, 6, 3)
