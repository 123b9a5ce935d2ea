import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import form_value, product_form, random_form, swapped, sympy_discriminant, sympy_shape
from thuecc import polyutil
from thuecc.forms import (
    BinaryForm,
    FormError,
    ThueInstance,
    dstar,
    factor_shape,
    genus,
    is_irreducible_model,
    monicize,
    substitute_y_shift,
)


def test_factor_shape_quartic_fermat():
    sh = factor_shape(BinaryForm.from_coeffs([1, 0, 0, 0, 1]))
    assert sh.s == 4
    assert sh.multiplicities == (1, 1, 1, 1)
    assert sh.lead == 1
    assert sh.degree_deficit == 0


def test_factor_shape_repeated_root():
    # (x - y)^2 (x + y)
    sh = factor_shape(BinaryForm.from_coeffs([1, -1, -1, 1]))
    assert sh.s == 2
    assert sorted(sh.multiplicities) == [1, 2]


def test_factor_shape_root_at_infinity():
    sh = factor_shape(BinaryForm.from_coeffs([0, 1, 0]))  # x*y
    assert sh.s == 1
    assert sh.degree_deficit == 1
    assert sum(sh.multiplicities) + sh.degree_deficit == 2


def test_factor_shape_pure_y_power():
    sh = factor_shape(BinaryForm.from_coeffs([0, 0, 3]))  # 3 y^2
    assert sh.s == 0
    assert sh.degree_deficit == 2


def test_genus_examples():
    assert genus(factor_shape(BinaryForm.from_coeffs([1, 0, 0, 0, 1])), 4) == 3
    sextic = factor_shape(BinaryForm.from_coeffs([1, 0, 0, 0, 0, 0, 1]))
    assert genus(sextic, 6) == 10
    # degree 5 with three roots of multiplicities (1,1,3): 2g-2 = 5 - 3
    sh = factor_shape(product_form([0, 1, 2], [1, 1, 3]))
    assert genus(sh, 5) == 2


def test_genus_rejects_inconsistent_shape():
    # multiplicities (2,2) at n=4: 2g-2 = -4
    sh = factor_shape(product_form([0, 1], [2, 2]))
    with pytest.raises(FormError):
        genus(sh, 4)


def test_genus_smooth_plane_oracle():
    rng = random.Random(7)
    found = 0
    while found < 40:
        n = rng.randint(4, 8)
        form = random_form(rng, n)
        sh = factor_shape(form)
        if set(sh.all_multiplicities()) != {1}:
            continue
        assert genus(sh, n) == (n - 1) * (n - 2) // 2
        found += 1


def test_dstar_examples():
    assert dstar(factor_shape(BinaryForm.from_coeffs([1, 0, -1]))) == -4
    assert dstar(factor_shape(BinaryForm.from_coeffs([1, 0, -1, 0]))) == -4
    assert dstar(factor_shape(BinaryForm.from_coeffs([1, 0, 1]))) == 4


def test_dstar_brute_force_oracle():
    # integer roots: compare against the literal ordered product
    rng = random.Random(3)
    for _ in range(20):
        k = rng.randint(2, 5)
        roots = rng.sample(range(-8, 9), k)
        form = product_form(roots, [1] * k)
        expected = 1
        for i in range(k):
            for j in range(k):
                if i != j:
                    expected *= roots[i] - roots[j]
        assert dstar(factor_shape(form)) == expected


def test_dstar_single_root_is_lead():
    sh = factor_shape(BinaryForm.from_coeffs([3, 0]))  # 3x of degree 1
    assert dstar(sh) == 3


def test_dstar_invariant_under_root_order():
    rng = random.Random(11)
    roots = [-3, 1, 4, 6]
    base = dstar(factor_shape(product_form(roots, [1] * 4)))
    for _ in range(5):
        rng.shuffle(roots)
        assert dstar(factor_shape(product_form(roots, [1] * 4))) == base


def _times(f, g):
    """Product of two binary forms, as coefficient sequences."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def test_factor_shape_and_dstar_match_sympy():
    # random forms times a squared form (repeated roots), x^k (a root at
    # 0), y^k (a root at infinity) and a constant (content > 1)
    rng = random.Random(17)
    for _ in range(300):
        coeffs = list(random_form(rng, rng.randint(1, 6)).coeffs)
        if rng.random() < 0.5:
            g = random_form(rng, rng.randint(1, 2), -3, 3).coeffs
            coeffs = _times(_times(coeffs, g), g)
        if rng.random() < 0.3:
            coeffs += [0] * rng.randint(1, 2)
        if rng.random() < 0.3:
            coeffs = [0] * rng.randint(1, 2) + coeffs
        if rng.random() < 0.3:
            coeffs = [c * rng.choice([-2, 3, 6]) for c in coeffs]
        form = BinaryForm.from_coeffs(coeffs)
        sh = factor_shape(form)
        got = (sh.s, sh.multiplicities, sh.lead, sh.radical, sh.degree_deficit, sh.sqf_parts)
        assert got + (dstar(sh),) == sympy_shape(form), coeffs
        assert sh.discriminant == sympy_discriminant(sh.radical)


def test_build_splits_only_forms_with_repeated_roots(monkeypatch):
    calls = Counter()
    for name in ("sqf_parts", "discriminant"):

        def counted(f, name=name, real=getattr(polyutil, name)):
            calls[name] += 1
            return real(f)

        monkeypatch.setattr(polyutil, name, counted)
    ThueInstance.build(BinaryForm.from_coeffs([1, 0, 0, 0, 1]), 17)
    assert calls == {"discriminant": 1}
    calls.clear()
    ThueInstance.build(product_form([1, -2], [2, 1]), 5)  # (x - y)^2 (x + 2y)
    assert calls == {"sqf_parts": 1, "discriminant": 2}


def test_irreducibility():
    sh = factor_shape(BinaryForm.from_coeffs([1, 0, 0, 0, 1]))
    assert is_irreducible_model(sh, 4)
    sh2 = factor_shape(product_form([0, 1], [2, 2]))
    assert not is_irreducible_model(sh2, 4)
    sh3 = factor_shape(product_form([0, 1, 2], [3, 2, 1]))
    assert is_irreducible_model(sh3, 6)
    with pytest.raises(FormError):
        ThueInstance.build(BinaryForm.from_coeffs([1, 0, 0, 0, 1]), 0)


def test_monicize_already_monic():
    u, out = monicize(BinaryForm.from_coeffs([1, 0, 0, 0, 1]), 5)
    assert u == 0
    assert out.coeffs == (1, 0, 0, 0, 1)


def test_monicize_examples():
    u, out = monicize(BinaryForm.from_coeffs([0, 1, -1]), 5)  # y(x-y)
    assert u == 2
    assert out.coeffs[0] == -2
    u2, out2 = monicize(BinaryForm.from_coeffs([0, 1, 0]), 5)  # x y
    assert 1 <= u2 <= 4
    assert out2.coeffs[0] % 5 != 0


def test_monicize_unit_lead_always():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 6)
        form = random_form(rng, n)
        p = 7 if n < 7 else 11
        u, out = monicize(form, p)
        assert out.coeffs[0] % p != 0
        # unimodular: solutions biject
        x, y = rng.randint(-5, 5), rng.randint(-5, 5)
        assert form_value(out.coeffs, x, y) == form_value(form.coeffs, x, y + u * x)


@given(st.lists(st.integers(-6, 6), min_size=3, max_size=7))
@settings(max_examples=60, deadline=None)
def test_shape_swap_invariance(coeffs):
    if not any(coeffs):
        return
    form = BinaryForm.from_coeffs(coeffs)
    sh = factor_shape(form)
    sw = factor_shape(swapped(form))
    assert sorted(sh.all_multiplicities()) == sorted(sw.all_multiplicities())
    assert len(sh.all_multiplicities()) == len(sw.all_multiplicities())


def test_instance_build_normalizes_content():
    inst = ThueInstance.build(BinaryForm.from_coeffs([2, 0, 2]), 10)
    assert inst.content_removed == 2
    assert inst.form.coeffs == (1, 0, 1)
    assert inst.h == 5


def test_instance_content_not_dividing_h():
    with pytest.raises(FormError):
        ThueInstance.build(BinaryForm.from_coeffs([2, 0, 2]), 5)


def test_instance_fields():
    inst = ThueInstance.build(BinaryForm.from_coeffs([1, 0, 0, 0, 1]), 17)
    assert inst.genus == 3
    assert inst.irreducible
    assert inst.dstar == Fraction(256)


def test_substitution_expansion():
    form = BinaryForm.from_coeffs([1, 2, -1, 3])
    out = substitute_y_shift(form, 3)
    for x in range(-4, 5):
        for y in range(-4, 5):
            assert form_value(out.coeffs, x, y) == form_value(form.coeffs, x, y + 3 * x)


COEFF = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(10**40), 10**40))
POINT = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-(10**12), 10**12))


@given(
    st.integers(1, 12).flatmap(lambda n: st.lists(COEFF, min_size=n + 1, max_size=n + 1)),
    POINT,
    POINT,
)
@example([0, 3, 0], 0, 0)
@example([0, 10**40, 0, 0, -(10**40), 0], -(10**12), 10**12)
@settings(max_examples=300, deadline=None)
def test_call_matches_defining_sum(coeffs, x, y):
    assume(any(coeffs))
    assert BinaryForm.from_coeffs(coeffs)(x, y) == form_value(coeffs, x, y)
