import random
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    divmod_monic,
    evaluate,
    form_valuation,
    form_value,
    product_form,
    random_tracked_instance,
    rational_factors,
)
from thuecc import polyutil
from thuecc.enumerate import primitive_solutions
from thuecc.forms import BinaryForm, FormShape, ThueInstance, factor_shape
from thuecc.padic import (
    INF,
    PrecisionError,
    RamifiedCase,
    check_vb_zero,
    default_precision,
    difference_valuations,
    hensel_track_roots,
    newton_polygon,
    root_valuations,
    solution_valuations,
)


def test_newton_polygon_basic():
    assert newton_polygon((-5, 0, 1), 5) == [(Fraction(-1, 2), 2)]
    assert root_valuations((-5, 0, 1), 5) == [(Fraction(1, 2), 2)]
    assert root_valuations((-25, 0, 1), 5) == [(Fraction(1), 2)]
    # (x-1)(x-5) = 5 - 6x + x^2
    assert root_valuations((5, -6, 1), 5) == [(Fraction(1), 1), (Fraction(0), 1)]
    # x (x-1)(x-5)(x-25): three slopes and a zero root
    assert root_valuations((0, -125, 155, -31, 1), 5) == [
        (INF, 1), (Fraction(2), 1), (Fraction(1), 1), (Fraction(0), 1)
    ]


def test_newton_polygon_zero_roots():
    # x^2 (x - 5)
    assert root_valuations((0, 0, -5, 1), 5) == [(INF, 2), (Fraction(1), 1)]


def test_newton_polygon_product_additivity():
    rng = random.Random(19)
    for p in (3, 5, 7):
        for _ in range(25):
            f = tuple(rng.randint(-40, 40) for _ in range(rng.randint(2, 5)))
            g = tuple(rng.randint(-40, 40) for _ in range(rng.randint(2, 5)))
            if not polyutil.trim(f) or not polyutil.trim(g):
                continue
            fg = polyutil.mul(f, g)

            def flat(vals):
                out = []
                for v, mult in vals:
                    out.extend([v] * mult)
                return sorted(out, key=str)

            assert flat(root_valuations(fg, p)) == flat(
                root_valuations(f, p) + root_valuations(g, p)
            )


def test_difference_valuations_examples():
    sh = factor_shape(product_form([0, 5], [1, 1]))
    assert difference_valuations(sh, 5) == [(Fraction(1), 2)]
    sh2 = factor_shape(product_form([0, 1, 6], [1, 1, 1]))
    assert sorted(difference_valuations(sh2, 5)) == [(Fraction(0), 4), (Fraction(1), 2)]
    sh3 = factor_shape(BinaryForm.from_coeffs([1, 0, 1]))
    assert difference_valuations(sh3, 5) == [(Fraction(0), 2)]


def test_difference_valuations_rejects_non_squarefree_radical():
    # (x - 1)^2 (x + 2) = x^3 - 3x + 2 passed off as three distinct roots
    sh = FormShape(3, (1, 1, 1), 1, (2, -3, 0, 1), 0, 0)
    with pytest.raises(ValueError, match="not squarefree"):
        difference_valuations(sh, 5)


def test_difference_valuations_sum_matches_discriminant():
    rng = random.Random(23)
    count = 0
    while count < 25:
        n = rng.randint(2, 5)
        coeffs = [rng.randint(-9, 9) for _ in range(n + 1)]
        if not any(coeffs):
            continue
        sh = factor_shape(BinaryForm.from_coeffs(coeffs))
        if sh.s < 2:
            continue
        for p in (3, 5, 7):
            disc = polyutil.discriminant(sh.radical)
            expected = polyutil.vp(disc, p) - (2 * sh.s - 2) * polyutil.vp(
                sh.radical[-1], p
            )
            total = sum(Fraction(v) * m for v, m in difference_valuations(sh, p))
            assert total == expected
        count += 1


@given(
    st.lists(st.tuples(st.integers(-9, 9), st.sampled_from([1, 2, 3, 5, 7])), max_size=4),
    st.lists(st.integers(-9, 9), min_size=2, max_size=3),
    st.sampled_from([5, 7, 11, 13]),
)
@settings(max_examples=30, deadline=None)
def test_tracked_differences_match_resolvent(linear, tail, p):
    """Where every root is tracked in Z_p (rational or Hensel-lifted), the
    pairwise v(alpha_i - alpha_j) of the tracked roots are the multiset
    difference_valuations reads off the resolvent."""
    f = tuple(tail) + (1,)  # monic, degree 2..3: its roots are lifted or inert
    for a, b in linear:
        f = polyutil.mul(f, (-a, b))  # rational root a/b, p | b allowed
    assume((len(f) - 1) % p != 0)
    form = BinaryForm.from_coeffs(list(reversed(f)))
    inst = ThueInstance.build(form, polyutil.content(f))
    assume(inst.shape.s >= 2)
    try:
        tracked = hensel_track_roots(inst.shape, p, default_precision(inst, p))
    except RamifiedCase:
        assume(False)
    assume(all(r.kind in ("rational", "lifted") for r in tracked.roots))
    got = Counter(tracked.root_difference(r, q) for r, q in permutations(tracked.roots, 2))
    expected = Counter()
    for v, m in difference_valuations(inst.shape, p):
        expected[v] += m
    assert got == expected


@given(
    st.lists(st.integers(-12, 12), min_size=3, max_size=9),
    st.integers(0, 2),
    st.integers(-50, 50).filter(bool),
    st.sampled_from([2, 3, 5, 7, 11, 13]),
)
@settings(max_examples=150, deadline=None)
def test_default_precision_reads_the_radical_discriminant(coeffs, k, h, p):
    """default_precision's discriminant term must equal the valuation of
    the radical's discriminant computed directly."""
    coeffs[0] *= p**k  # make p | lc(radical) common
    assume(any(coeffs))
    inst = ThueInstance.build(BinaryForm.from_coeffs(coeffs), h * polyutil.content(coeffs))
    disc = polyutil.discriminant(inst.shape.radical)
    expected = polyutil.vp(inst.h, p) + (polyutil.vp(disc, p) if disc else 0) + 5
    assert default_precision(inst, p) == expected


def test_hensel_track_unramified_quadratic():
    sh = factor_shape(BinaryForm.from_coeffs([1, 0, -2]))
    tr = hensel_track_roots(sh, 7, 3)
    approx = sorted(r.value for r in tr.roots)
    assert approx == [108, 235]
    assert all((r.value**2 - 2) % 343 == 0 for r in tr.roots)


def test_hensel_ramified_raises():
    sh = factor_shape(BinaryForm.from_coeffs([1, 0, -5]))
    with pytest.raises(RamifiedCase):
        hensel_track_roots(sh, 5, 3)


def test_hensel_rational_roots_exact():
    sh = factor_shape(BinaryForm.from_coeffs([1, -3, 2]))  # (x-1)(x-2)
    tr = hensel_track_roots(sh, 5, 2)
    assert sorted(r.value for r in tr.roots) == [1, 2]


def test_hensel_lifted_roots_satisfy_minpoly():
    rng = random.Random(61)
    done = 0
    while done < 20:
        p = rng.choice([5, 7, 11])
        n = rng.randint(2, 5)
        if n % p == 0:
            continue
        coeffs = [rng.randint(-20, 20) for _ in range(n)] + [1]
        form = BinaryForm.from_coeffs(list(reversed(coeffs)))
        sh = factor_shape(form)
        prec = 6
        pn = p**prec
        try:
            tr = hensel_track_roots(sh, p, prec)
        except (RamifiedCase, ValueError):
            continue
        # F(x,1) is monic, so its rational factors have leading coefficient +-1
        minpolys = [tuple(q[-1] * a for a in q) for q in rational_factors(form.dehomogenized())]
        for r in tr.roots:
            if r.kind == "lifted":
                assert evaluate(form.dehomogenized(), r.value) % pn == 0
                assert any(evaluate(q, r.value) % pn == 0 for q in minpolys)
            elif r.kind == "inert":
                # the lifted factor divides a minimal polynomial mod p^prec
                assert any(
                    not polyutil.poly_mod(divmod_monic(q, r.factor)[1], pn) for q in minpolys
                )
        done += 1


@given(
    st.integers(2, 12),
    st.sampled_from([-1, 1]),
    st.lists(st.integers(-30, 30), min_size=2, max_size=10),
    st.integers(5, 31).filter(sympy.isprime),
    st.integers(1, 12),
)
@settings(max_examples=100, deadline=None)
def test_hensel_lift_properties(lead, sign, tail, p, N):
    """Every rational factor q of F(x,1) that is squarefree mod p, tracked
    on its own, yields monic lifts of its factors mod p, reduced into
    [0, p^N), whose product is q / lc(q) mod p^N.  Tracking lifts each
    factor independently, so these are the lifts it gives q inside F;
    a factor with p | deg q is skipped, since tracking needs p coprime
    to the degree."""
    form = BinaryForm.from_coeffs([sign * lead] + tail)  # non-monic, degree <= 10
    pn = p**N
    for q in rational_factors(form.dehomogenized()):
        if polyutil.degree(q) < 2 or polyutil.degree(q) % p == 0 or q[-1] % p == 0:
            continue
        modular = polyutil.factor_mod_p(q, p)
        if any(e > 1 for _, e in modular):
            continue
        tracked = hensel_track_roots(factor_shape(BinaryForm.from_coeffs(q[::-1])), p, N)
        got = [r.factor for r in tracked.roots]
        assert all(r.kind != "rational" for r in tracked.roots)
        assert all(f[-1] == 1 and min(f) >= 0 and max(f) < pn for f in got)
        assert sorted(polyutil.poly_mod(f, p) for f in got) == sorted(f for f, _ in modular)
        product = (1,)
        for f in got:
            product = polyutil.poly_mod(polyutil.mul(product, f), pn)
        assert product == polyutil.poly_mod(tuple(pow(q[-1], -1, pn) * a for a in q), pn)


def test_tracked_residue():
    # (x - 1/5)(x^2 - 2) at p = 7: 1/5 is 7-integral, sqrt(2) lifts
    form = BinaryForm.from_coeffs([5, -1, -10, 2])
    tr = hensel_track_roots(factor_shape(form), 7, 3)
    assert sorted(r.kind for r in tr.roots) == ["lifted", "lifted", "rational"]
    for r in tr.roots:
        assert evaluate(form.dehomogenized(), tr.residue(r)) % 343 == 0
    # 1/7 is not 7-integral, and x^2 + x + 1 is inert at 5
    tr = hensel_track_roots(factor_shape(BinaryForm.from_coeffs([7, -1])), 7, 2)
    with pytest.raises(ValueError):
        tr.residue(tr.roots[0])
    tr = hensel_track_roots(factor_shape(BinaryForm.from_coeffs([1, 1, 1])), 5, 4)
    with pytest.raises(ValueError):
        tr.residue(tr.roots[0])


def test_hensel_inert_factor():
    # x^2 + x + 1 is irreducible mod 5
    sh = factor_shape(BinaryForm.from_coeffs([1, 1, 1]))
    tr = hensel_track_roots(sh, 5, 4)
    assert [r.kind for r in tr.roots] == ["inert"]
    # lifted factor divides the polynomial mod 5^4
    fac = tr.roots[0].factor
    assert fac[-1] == 1 and len(fac) == 3


def test_tracking_degree_divisible_by_p_rejected():
    sh = factor_shape(BinaryForm.from_coeffs([1, 0, 0, 0, 0, 1]))
    with pytest.raises(ValueError):
        hensel_track_roots(sh, 5, 3)


def test_solution_valuations_profile_examples():
    inst = ThueInstance.build(BinaryForm.from_coeffs([1, 0, -1]), 15)
    prof = solution_valuations(4, 1, inst, 5)
    assert sorted(e.value for e in prof.per_root) == [0, 1]
    assert prof.t == 1

    inst2 = ThueInstance.build(product_form([0, 5, 30], [1, 1, 1]), -2500)
    prof2 = solution_valuations(25, 1, inst2, 5)
    assert sorted(e.value for e in prof2.per_root) == [1, 1, 2]
    assert prof2.t == 2


def test_solution_valuations_tracked_matches_profile():
    rng = random.Random(31)
    for p in (5, 7):
        for _ in range(10):
            inst, _ = random_tracked_instance(rng, p)
            tracked = hensel_track_roots(inst.shape, p, default_precision(inst, p))
            for _ in range(8):
                a, b = rng.randint(-30, 30), rng.randint(1, 9)
                from math import gcd

                if gcd(a, b) != 1:
                    continue
                pm = solution_valuations(a, b, inst, p)
                tm = solution_valuations(a, b, inst, p, tracked)
                key = lambda e: (str(e.value), e.multiplicity)
                assert sorted(map(key, pm.per_root)) == sorted(map(key, tm.per_root))
                assert pm.t == tm.t


@given(
    st.sampled_from([5, 7, 11, 13]),
    st.lists(st.integers(-9, 9), min_size=2, max_size=6),
    st.integers(-50, 50),
    st.integers(-50, 50),
)
@example(5, [1, 1, 0], 5, 1)  # x^3 + x^2 + x: the root 0 and an inert quadratic
@example(7, [0, -2], 3, 1)  # x^2 - 2: two lifted roots
@settings(max_examples=300, deadline=None)
def test_tracked_and_profile_modes_agree_on_every_root_kind(p, lower, a, b):
    """On a monic form, tracked mode (rational, lifted and inert roots)
    and profile mode (Newton polygons) give the same depth t and the same
    nonzero valuations with multiplicities.  Zeros are not compared: an
    inert factor of degree d is one tracked entry but d profile entries."""
    n = len(lower)
    assume(n % p != 0 and gcd(a, b) == 1)
    inst = ThueInstance.build(BinaryForm.from_coeffs([1, *lower]), p)
    try:
        tracked = hensel_track_roots(inst.shape, p, default_precision(inst, p))
        tm = solution_valuations(a, b, inst, p, tracked)
    except (RamifiedCase, PrecisionError):
        assume(False)
    pm = solution_valuations(a, b, inst, p)

    def nonzero(prof):
        return Counter((e.value, e.multiplicity) for e in prof.per_root if e.value != 0)

    assert tm.t == pm.t
    assert nonzero(tm) == nonzero(pm)


def test_solution_valuations_ultrametric_single_positive():
    # all roots distinct mod p, v(b) = 0: at most one positive entry
    inst = ThueInstance.build(product_form([0, 1, 2], [1, 1, 1]), 7)
    for a in range(-10, 11):
        for b in (1, 2, 3):
            from math import gcd

            if gcd(a, b) != 1:
                continue
            prof = solution_valuations(a, b, inst, 5)
            positives = [e for e in prof.per_root if e.value > 0]
            assert len(positives) <= 1


def test_solution_valuations_b_zero():
    inst = ThueInstance.build(BinaryForm.from_coeffs([1, 0, -1]), 15)
    prof = solution_valuations(1, 0, inst, 5)
    assert all(e.value == 0 for e in prof.per_root)


def test_solution_valuations_rejects_imprimitive():
    inst = ThueInstance.build(BinaryForm.from_coeffs([1, 0, -1]), 15)
    with pytest.raises(ValueError):
        solution_valuations(5, 0, inst, 5)


def test_form_valuation_consistency():
    rng = random.Random(37)
    inst = ThueInstance.build(product_form([0, 5, 30], [1, 1, 1]), -2500)
    from math import gcd

    for _ in range(40):
        a, b = rng.randint(-40, 40), rng.randint(1, 6)
        if gcd(a, b) != 1 or form_value(inst.form.coeffs, a, b) == 0:
            continue
        prof = solution_valuations(a, b, inst, 5)
        assert form_valuation(prof, inst.shape) == polyutil.vp(form_value(inst.form.coeffs, a, b), 5)


def test_check_vb_zero_on_enumerated_solutions():
    rng = random.Random(41)
    for p in (5, 7):
        for _ in range(6):
            inst, seed_sol = random_tracked_instance(rng, p)
            sols = primitive_solutions(inst, 45)
            assert seed_sol in sols or (
                abs(seed_sol[0]) > 45 or abs(seed_sol[1]) > 45
            )
            for a, b in sols:
                assert check_vb_zero(a, b, inst, p)


def test_check_vb_zero_pre_enforced():
    inst = ThueInstance.build(BinaryForm.from_coeffs([1, 0, -1]), 15)
    with pytest.raises(ValueError):
        check_vb_zero(4, 1, inst, 7)  # 7 does not divide 15


@given(st.integers(-20, 20), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_profile_total_is_h_valuation_on_solutions(a_shift, b):
    # build a solution by construction: h := F(a, b)
    from math import gcd

    a = a_shift
    if gcd(a, b) != 1:
        return
    form = product_form([0, 1, 5], [1, 1, 1])
    h = form_value(form.coeffs, a, b)
    if h == 0:
        return
    inst = ThueInstance.build(form, h)
    prof = solution_valuations(a, b, inst, 5)
    assert form_valuation(prof, inst.shape) == polyutil.vp(h, 5)
