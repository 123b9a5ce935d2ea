import json
import random
import tracemalloc
from collections import Counter
from math import gcd, isqrt, prod
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    form_value,
    product_form,
    random_form,
    random_tracked_instance,
    squarefree_mod_p,
    swapped,
)
from thuecc import enumerate as enum
from thuecc import polyutil
from thuecc.bounds import classify_prime
from thuecc.enumerate import (
    _line_counts,
    _values,
    count_affine_points_mod_p,
    count_projective_smooth,
    default_box,
    primitive_solutions,
    product_form_family,
    residue_class_census,
    root_table,
    scan_stripe,
)
from thuecc.forms import BinaryForm, FormError, ThueInstance
from thuecc.padic import default_precision, hensel_track_roots, solution_valuations

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"
LOCAL_COUNTS = REFERENCE / "local_counts.json"
VERIFY_BOX = REFERENCE / "verify_box.json"


def brute_solutions(inst, b):
    coeffs, h = inst.form.coeffs, inst.h
    out = []
    for x in range(-b, b + 1):
        for y in range(-b, b + 1):
            if gcd(x, y) == 1 and form_value(coeffs, x, y) == h:
                out.append((x, y))
    return out


def test_desk_instance():
    inst = ThueInstance.build(BinaryForm.from_coeffs([1, 0, 0, 0, 1]), 17)
    ss = primitive_solutions(inst, 100)
    assert ss == (
        (-2, -1), (-2, 1), (-1, -2), (-1, 2), (1, -2), (1, 2), (2, -1), (2, 1),
    )


def test_cubic_instance():
    inst = ThueInstance.build(BinaryForm.from_coeffs([1, 0, 0, -2]), 1)
    ss = primitive_solutions(inst, 10)
    assert (1, 0) in ss
    assert all(inst.form(x, y) == 1 for x, y in ss)


def test_no_solutions():
    inst = ThueInstance.build(BinaryForm.from_coeffs([1, 0, 0, 0, 1]), 3)
    assert len(primitive_solutions(inst, 60)) == 0


def test_monotone_in_box():
    inst = ThueInstance.build(BinaryForm.from_coeffs([1, 0, 0, 0, 1]), 17)
    small = set(primitive_solutions(inst, 5))
    big = set(primitive_solutions(inst, 50))
    assert small <= big


def test_filtered_strategy_matches_plain():
    # the CRT sieve against the plain double loop at box 300
    rng = random.Random(13)
    for _ in range(8):
        n = rng.randint(3, 5)
        form = random_form(rng, n, lo=-5, hi=5)
        h = form(rng.randint(1, 9), rng.randint(1, 9))
        if h == 0:
            continue
        try:
            inst = ThueInstance.build(form, h)
        except Exception:
            continue
        assert primitive_solutions(inst, 300) == tuple(brute_solutions(inst, 300))


@st.composite
def box_cases(draw):
    """(coeffs, h, box) with c_0 = 0, c_n = 0, h < 0 and 2*3*5*7 | h all
    reachable, so that _filter_primes skips primes dividing h, and box 1
    sieves with q1 = 2 when h is odd."""
    n = draw(st.integers(1, 8))
    coeff = st.one_of(st.just(0), st.integers(-9, 9))
    coeffs = draw(st.lists(coeff, min_size=n + 1, max_size=n + 1))
    assume(any(coeffs))
    if draw(st.booleans()):
        # a value of the form, so that the box holds solutions
        x, y = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
        h = form_value(coeffs, x, y)
    else:
        h = draw(st.integers(-60, 60)) * draw(st.sampled_from([1, 2, 3, 5, 7, 210]))
    assume(h != 0)
    return coeffs, h, draw(st.integers(1, 30))


@given(box_cases())
@settings(max_examples=120, deadline=None)
def test_sieve_matches_brute_property(case):
    coeffs, h, box = case
    try:
        inst = ThueInstance.build(BinaryForm.from_coeffs(coeffs), h)
    except FormError:
        assume(False)
    assert primitive_solutions(inst, box) == tuple(brute_solutions(inst, box))


@st.composite
def mirror_cases(draw, parities=(0, 1)):
    """(coeffs, h, box) with n of the given parities, h of either sign,
    c_0 = 0 or c_n = 0, and h a value of the form at a point of the box,
    on an axis or off it, all reachable."""
    parity = draw(st.sampled_from(parities))
    n = 2 * draw(st.integers(1, 4)) - parity
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=n + 1, max_size=n + 1))
    zeroed = draw(st.sampled_from([None, 0, n]))
    if zeroed is not None:
        coeffs[zeroed] = 0
    assume(any(coeffs))
    axis = st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)])
    anywhere = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
    point = draw(st.one_of(axis, anywhere, st.none()))
    h = form_value(coeffs, *point) if point else draw(st.integers(1, 60))
    h *= draw(st.sampled_from([1, -1]))
    assume(h != 0)
    return coeffs, h, draw(st.integers(1, 30))


def mirror_instance(case):
    coeffs, h, box = case
    try:
        return ThueInstance.build(BinaryForm.from_coeffs(coeffs), h), box
    except FormError:
        assume(False)


@given(mirror_cases())
@settings(max_examples=150, deadline=None)
def test_mirrored_scan_matches_brute_property(case):
    # even n scans only x >= 0 and mirrors; odd n scans the full box
    inst, box = mirror_instance(case)
    assert primitive_solutions(inst, box) == tuple(brute_solutions(inst, box))


@given(mirror_cases(parities=(0,)))
@settings(max_examples=60, deadline=None)
def test_even_degree_stripes_mirror(case):
    inst, box = mirror_instance(case)
    negative = scan_stripe(inst, box, -box, -1)
    positive = scan_stripe(inst, box, 1, box)
    assert negative == [(-x, -y) for x, y in reversed(positive)]


def window_case(case, data):
    """(instance, box, x_lo, x_hi, the brute-force solutions in the
    window): any window of columns in the box, one column wide or wider,
    and for even n also the x < 0 that primitive_solutions never scans."""
    inst, box = mirror_instance(case)
    x_lo = data.draw(st.integers(-box, box), label="x_lo")
    x_hi = data.draw(st.one_of(st.just(x_lo), st.integers(x_lo, box)), label="x_hi")
    expect = [(x, y) for x, y in brute_solutions(inst, box) if x_lo <= x <= x_hi]
    return inst, box, x_lo, x_hi, expect


@given(mirror_cases(), st.data())
@settings(max_examples=150, deadline=None)
def test_stripe_window_matches_brute_property(case, data):
    inst, box, x_lo, x_hi, expect = window_case(case, data)
    assert scan_stripe(inst, box, x_lo, x_hi) == expect


@given(mirror_cases(), st.data())
@settings(max_examples=150, deadline=None)
def test_stripe_blocks_match_brute_property(case, data):
    # blocks of 1-13 columns, so that a window crosses several block
    # boundaries and each block starts at many offsets mod q1, q2 and q3
    inst, box, x_lo, x_hi, expect = window_case(case, data)
    block = data.draw(st.integers(1, 13), label="block")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enum, "_BLOCK", block)
        assert scan_stripe(inst, box, x_lo, x_hi) == expect


def test_reversed_stripe_is_empty():
    inst = ThueInstance.build(BinaryForm.from_coeffs([1, 0, 0, 0, 1]), 17)
    assert scan_stripe(inst, 10, 2, 2) == [(2, -1), (2, 1)]
    assert scan_stripe(inst, 10, 3, 2) == []
    assert scan_stripe(inst, 10, 5, 2) == []
    assert scan_stripe(inst, 10, 10, -10) == []


def test_stripe_scan_memory_is_bounded_per_block():
    # the live-column masks cover one block at a time: one mask over the
    # whole stripe would take several MB at this box
    inst = ThueInstance.build(BinaryForm.from_coeffs([1, 0, 0, 0, 1]), 17)
    tracemalloc.start()
    try:
        found = scan_stripe(inst, 10**6, 0, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == [(1, -2), (1, 2), (2, -1), (2, 1)]
    assert peak < 2 * 2**20


@st.composite
def boundary_cases(draw):
    """(coeffs, h, box), n of both parities and box 1-40, with h = F(x0,
    y0) at a point (x0, y0) on the edge of the box: x0 or y0 is box or
    -box.  Either the coefficients are drawn freely, or h is drawn as a
    multiple of the primes just above isqrt(2 box + 1), which the sieve
    must skip as moduli, the other coordinate is +-1 and one coefficient
    is shifted so that F(x0, y0) = h."""
    parity = draw(st.sampled_from((0, 1)))
    n = 2 * draw(st.integers(1, 4)) - parity
    box = draw(st.integers(1, 40))
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=n + 1, max_size=n + 1))
    edge = draw(st.sampled_from((box, -box)))
    x_on_edge = draw(st.booleans())
    if draw(st.booleans()):
        inner = draw(st.integers(-box, box))
        x0, y0 = (edge, inner) if x_on_edge else (inner, edge)
        h = form_value(coeffs, x0, y0)
    else:
        primes = [int(sympy.nextprime(isqrt(2 * box + 1)))]
        while len(primes) < 4:
            primes.append(int(sympy.nextprime(primes[-1])))
        divisors = draw(st.lists(st.sampled_from(primes), min_size=1, max_size=3))
        h = draw(st.integers(-3, 3)) * prod(divisors)
        unit = draw(st.sampled_from((1, -1)))
        # the coefficient of the +-1 coordinate's n-th power moves F(x0, y0) by unit^n
        x0, y0, i = (edge, unit, n) if x_on_edge else (unit, edge, 0)
        coeffs[i] += (h - form_value(coeffs, x0, y0)) * unit**n
    assume(h != 0 and any(coeffs))
    return coeffs, h, box


@given(boundary_cases())
@settings(max_examples=200, deadline=None)
def test_sieve_keeps_solutions_on_the_box_edge(case):
    inst, box = mirror_instance(case)
    assert primitive_solutions(inst, box) == tuple(brute_solutions(inst, box))


def test_third_modulus_cuts_exact_evaluations(monkeypatch):
    # the verify-box benchmark instances: with the moduli q1 and q2 alone
    # the scan evaluates F exactly 2492-11944 times per form at box 10^4
    calls = Counter()
    evaluate = BinaryForm.__call__

    def counted(form, x, y):
        calls[form.coeffs] += 1
        return evaluate(form, x, y)

    monkeypatch.setattr(BinaryForm, "__call__", counted)
    requests = {
        (tuple(r["coeffs"]), r["h"], r["box"]): r["expect"]["solutions"]
        for r in json.loads(VERIFY_BOX.read_text())["requests"]
    }
    assert len(requests) == 3
    for (coeffs, h, box), expect in requests.items():
        assert box == 10**4
        inst = ThueInstance.build(BinaryForm.from_coeffs(coeffs), h)
        calls.clear()
        assert primitive_solutions(inst, box) == tuple(map(tuple, expect))
        assert calls[inst.form.coeffs] < 100


def test_stripes_merge_deterministically():
    inst = ThueInstance.build(BinaryForm.from_coeffs([1, 0, 0, 0, 1]), 17)
    whole = primitive_solutions(inst, 40)
    pieces = []
    for lo in range(-40, 41, 10):
        pieces.extend(scan_stripe(inst, 40, lo, min(lo + 9, 40)))
    assert tuple(pieces) == whole


def test_large_box_filtered_runs():
    inst = ThueInstance.build(BinaryForm.from_coeffs([1, 0, 0, 0, 1]), 17)
    ss = primitive_solutions(inst, 2000)
    assert len(ss) == 8


def test_search_box_validation():
    inst = ThueInstance.build(BinaryForm.from_coeffs([1, 0, 0, 0, 1]), 17)
    for bad in (0, -5):
        with pytest.raises(ValueError):
            primitive_solutions(inst, bad)
    assert default_box(4) == 10**4
    assert default_box(8) == 10**3


def test_affine_count_examples():
    inst = ThueInstance.build(BinaryForm.from_coeffs([1, 0, 0, 0, 1]), 17)
    assert count_affine_points_mod_p(inst, 5) == 16  # x^4+y^4=2 mod 5
    inst3 = ThueInstance.build(BinaryForm.from_coeffs([1, 0, 0, 0, 1]), 3)
    assert count_affine_points_mod_p(inst3, 5) == 0


def test_affine_count_brute_oracle():
    rng = random.Random(17)
    for _ in range(10):
        n = rng.randint(2, 4)
        form = random_form(rng, n)
        h = rng.randint(1, 30)
        inst_ok = True
        try:
            inst = ThueInstance.build(form, h)
        except Exception:
            inst_ok = False
        if not inst_ok:
            continue
        for p in (3, 5, 7):
            expect = sum(
                1
                for x in range(p)
                for y in range(p)
                if (form_value(form.coeffs, x, y) - h) % p == 0
            )
            assert count_affine_points_mod_p(inst, p) == expect


def test_affine_count_projection_bound():
    rng = random.Random(29)
    for _ in range(10):
        n = rng.randint(3, 5)
        form = random_form(rng, n)
        try:
            inst = ThueInstance.build(form, 7)
        except Exception:
            continue
        for p in (7, 11):
            assert count_affine_points_mod_p(inst, p) <= n * p


def test_projective_smooth_count():
    inst = ThueInstance.build(BinaryForm.from_coeffs([1, 0, 0, 0, 1]), 17)
    count = count_projective_smooth(inst, 5)
    # z=0 forces x^4 = -y^4, impossible mod 5 away from the origin
    assert count == 16
    g = inst.genus
    assert (count - 6) ** 2 <= 4 * g * g * 5


def test_projective_smooth_weil_randomized():
    rng = random.Random(47)
    done = 0
    while done < 10:
        n = rng.randint(3, 4)
        roots = rng.sample(range(-6, 7), n)
        form = product_form(roots, [1] * n)
        h = rng.randint(2, 40)
        inst = ThueInstance.build(form, h)
        for p in (7, 11, 13):
            if inst.h % p == 0 or polyutil.vp_frac(inst.dstar, p) != 0:
                continue
            count = count_projective_smooth(inst, p)
            g = inst.genus
            assert (count - p - 1) ** 2 <= 4 * g * g * p
            done += 1


def test_projective_points_at_infinity_brute_oracle():
    # the smooth count minus the affine count is the number of points of
    # F(x, y) = 0 on the projective line: nonzero zeros in F_p^2 / (p - 1)
    rng = random.Random(71)
    done = 0
    zero_root_seen = False
    while done < 12:
        n = rng.randint(3, 5)
        roots = rng.sample(range(-6, 7), n)
        if done % 2 == 0 and 0 not in roots:
            roots[0] = 0  # F(0, 1) = 0 puts (0:1) at infinity
        form = product_form(roots, [1] * n)
        inst = ThueInstance.build(form, rng.randint(2, 40))
        for p in (7, 11, 13):
            if inst.h % p == 0 or polyutil.vp_frac(inst.dstar, p) != 0:
                continue
            F, h = inst.form, inst.h
            affine = sum(
                1 for x in range(p) for y in range(p)
                if (form_value(F.coeffs, x, y) - h) % p == 0
            )
            nonzero = sum(
                1 for x in range(p) for y in range(p)
                if (x or y) and form_value(F.coeffs, x, y) % p == 0
            )
            assert count_projective_smooth(inst, p) == affine + nonzero // (p - 1)
            zero_root_seen |= F.coeffs[-1] % p == 0
            done += 1
    assert zero_root_seen


PRIMES_TO_31 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


@st.composite
def table_cases(draw):
    """(q, coeffs, h) with zero coefficients, q | c_0, q | c_n, q | h and
    h = 0 all reachable."""
    q = draw(st.sampled_from(PRIMES_TO_31))
    n = draw(st.integers(1, 8))
    coeff = st.one_of(st.just(0), st.integers(-60, 60))
    coeffs = draw(st.lists(coeff, min_size=n + 1, max_size=n + 1))
    if draw(st.booleans()):
        coeffs[0] *= q
    if draw(st.booleans()):
        coeffs[-1] *= q
    h = draw(st.one_of(st.just(0), st.integers(-500, 500)))
    if draw(st.booleans()):
        h *= q
    return q, coeffs, h


@given(table_cases())
@settings(max_examples=300, deadline=None)
def test_root_table_matches_brute_double_loop(case):
    q, coeffs, h = case
    n = len(coeffs) - 1
    table = root_table(coeffs, h, q)
    assert len(table) == q
    count = 0
    for x in range(q):
        row = [
            y
            for y in range(q)
            if (sum(c * x ** (n - i) * y**i for i, c in enumerate(coeffs)) - h) % q == 0
        ]
        assert table[x] == row
        count += len(row)
    assert _line_counts(coeffs, h, q)[0] == count


PRIMES_TO_113 = [q for q in range(2, 114) if all(q % k for k in range(2, q))]


@given(
    st.sampled_from(PRIMES_TO_113),
    st.lists(st.integers(-(10**12), 10**12), min_size=1, max_size=13),
)
@settings(max_examples=300, deadline=None)
def test_values_match_the_defining_sum(q, coeffs):
    # degree 0 to 12, and q <= n, where the difference table is seeded
    # past q - 1
    expect = [sum(c * t**i for i, c in enumerate(coeffs)) % q for t in range(q)]
    assert _values(coeffs, q) == expect


def smooth_at(coeffs, h: int, p: int) -> bool:
    """h z^n = F(x, y) is smooth over F_p, decided without thuecc: p does
    not divide h, F mod p is squarefree as a binary form of degree n, and
    p does not divide n when n > 2."""
    n = len(coeffs) - 1
    return h % p != 0 and (n <= 2 or n % p != 0) and squarefree_mod_p(coeffs, p)


@given(
    st.sampled_from(PRIMES_TO_31[3:]),
    st.integers(3, 6).flatmap(
        lambda n: st.lists(st.integers(-9, 9), min_size=n - 1, max_size=n - 1)
    ),
    st.integers(-9, 9).filter(bool),
    st.integers(-9, 9),
    st.booleans(),
    st.integers(-60, 60).filter(bool),
)
@settings(max_examples=60, deadline=None)
def test_projective_smooth_count_brute_property(p, middle, c0, cn, p_divides_cn, h):
    # the count is the affine points plus the nonzero zeros of F in F_p^2
    # over p - 1; p | c_n puts (0:1) on the line at infinity
    coeffs = [c0, *middle, p * cn if p_divides_cn else cn]
    assume(polyutil.content(coeffs) == 1 and smooth_at(coeffs, h, p))
    inst = ThueInstance.build(BinaryForm.from_coeffs(coeffs), h)
    F = inst.form
    affine = sum(
        1 for x in range(p) for y in range(p) if (form_value(F.coeffs, x, y) - h) % p == 0
    )
    nonzero = sum(
        1 for x in range(p) for y in range(p)
        if (x or y) and form_value(F.coeffs, x, y) % p == 0
    )
    assert count_projective_smooth(inst, p) == affine + nonzero // (p - 1)


@st.composite
def line_count_cases(draw):
    """(q, coeffs, h) with q <= 113 and d = gcd(n, q - 1) drawn from 1, 2,
    3 and n where some such q exists; q | h, F = 0 mod q and q | c_n are
    all reachable."""
    n = draw(st.integers(1, 8))
    d = draw(st.sampled_from((1, 2, 3, n)))
    q = draw(st.sampled_from([q for q in PRIMES_TO_113 if gcd(n, q - 1) == d] or PRIMES_TO_113))
    coeff = st.integers(-60, 60).filter(bool)
    coeffs = draw(st.lists(coeff, min_size=n + 1, max_size=n + 1))
    if draw(st.integers(0, 4)) == 4:
        coeffs = [c * q for c in coeffs]
    if draw(st.booleans()):
        coeffs[-1] *= q
    h = draw(st.integers(-500, 500).filter(bool))
    if draw(st.integers(0, 3)) == 3:
        h *= q
    return q, coeffs, h


@given(line_count_cases())
@settings(max_examples=200, deadline=None)
def test_line_counts_match_brute_double_loop(case):
    # affine points of F = h in F_q^2 and, where the model is smooth at q,
    # its projective points: the affine ones plus the nonzero zeros of F
    # over q - 1
    q, coeffs, h = case
    values = Counter(form_value(coeffs, x, y) % q for x in range(q) for y in range(q))
    assert _line_counts(coeffs, h, q)[0] == values[h % q]
    if len(coeffs) < 4 or polyutil.content(coeffs) != 1 or h % q == 0:
        return
    if smooth_at(coeffs, h, q):
        inst = ThueInstance.build(BinaryForm.from_coeffs(coeffs), h)
        assert count_projective_smooth(inst, q) == values[h % q] + (values[0] - 1) // (q - 1)


def test_projective_counts_match_the_benchmark_reference():
    # every count item of the local-counts pool, as recorded by perfbench
    items = json.loads(LOCAL_COUNTS.read_text())["counts"]
    assert items
    for item in items:
        inst = ThueInstance.build(BinaryForm.from_coeffs(item["coeffs"]), item["h"])
        assert count_projective_smooth(inst, item["p"]) == item["expect"]["count"], item


def brute_projective_count(coeffs, h: int, p: int) -> int:
    """Points of h z^n = F(x, y) in P^2(F_p) from a triple loop: the
    nonzero solutions in F_p^3, over the p - 1 scalings of each."""
    n = len(coeffs) - 1
    hits = sum(
        1 for x in range(p) for y in range(p) for z in range(p)
        if (x or y or z) and (h * z**n - form_value(coeffs, x, y)) % p == 0
    )
    return hits // (p - 1)


@pytest.mark.parametrize(
    "coeffs, h, p",
    [((0, 1, 0, 1), 1, 7), ((0, 1, 0, 1), 3, 11), ((0, 1, 2, 0, 3), 2, 11), ((7, 1, 0, 1), 1, 7)],
)
def test_projective_smooth_counts_roots_at_infinity(coeffs, h, p):
    # models smooth at p with a simple root at infinity: y | F, or p | c_0
    # (7x^3 + x^2 y + y^3 is y(x^2 + y^2) mod 7); d = gcd(n, p - 1) is 3,
    # 1, 2 and 3
    assert smooth_at(coeffs, h, p)
    inst = ThueInstance.build(BinaryForm.from_coeffs(coeffs), h)
    assert count_projective_smooth(inst, p) == brute_projective_count(coeffs, h, p)


@pytest.mark.parametrize("coeffs", [(1, 2), (1, 0), (0, 1)])
def test_projective_smooth_counts_linear_forms(coeffs):
    # h z = F(x, y) is a line for n = 1: p + 1 points, at the projection
    # bound max(n - 1, 1)(p + 1); F = y has a constant F(x, 1) but
    # Disc(y) = 1
    inst = ThueInstance.build(BinaryForm.from_coeffs(coeffs), 3)
    assert count_projective_smooth(inst, 7) == brute_projective_count(coeffs, 3, 7) == 8


def test_projective_smooth_refuses_singular_models():
    # F = y(7x^2 + xy + y^2) is y^2 (x + y) mod 7, though 7 does not
    # divide disc(F(x, 1)) = -27: Disc(F) carries the factor 7^2 of the
    # leading coefficient
    inst = ThueInstance.build(BinaryForm.from_coeffs([0, 7, 1, 1]), 1)
    assert inst.shape.discriminant % 7 and not squarefree_mod_p(inst.form.coeffs, 7)
    with pytest.raises(ValueError, match="Disc"):
        count_projective_smooth(inst, 7)
    # Disc(x^3 + x y^2 + y^3) = -31, but at p = 3 | n the point (1:0:1)
    # is singular: F_x = 3x^2 + y^2, F_y = 2xy + 3y^2 and 3 h z^2 all
    # vanish there mod 3
    coeffs = [1, 0, 1, 1]
    inst = ThueInstance.build(BinaryForm.from_coeffs(coeffs), 1)
    assert squarefree_mod_p(coeffs, 3)
    with pytest.raises(ValueError, match="coprime to n"):
        count_projective_smooth(inst, 3)


@given(
    st.sampled_from(PRIMES_TO_31[3:]),
    st.lists(st.integers(-9, 9), min_size=3, max_size=7),
    st.booleans(),
    st.booleans(),
    st.integers(-60, 60).filter(bool),
)
@settings(max_examples=150, deadline=None)
def test_smooth_count_agrees_on_the_swapped_form(p, coeffs, p_divides_c0, p_divides_cn, h):
    # (x:y:z) -> (y:x:z) maps the curve of F onto that of F(y, x), so the
    # two are smooth at p together and have the same F_p-points
    coeffs[0] *= p if p_divides_c0 else 1
    coeffs[-1] *= p if p_divides_cn else 1
    assume(polyutil.content(coeffs) == 1)
    form = BinaryForm.from_coeffs(coeffs)
    counts = []
    for f in (form, swapped(form)):
        try:
            counts.append(count_projective_smooth(ThueInstance.build(f, h), p))
        except ValueError:
            counts.append(None)
    assert counts[0] == counts[1]


def test_root_tables_at_the_benchmark_moduli():
    # the verify-box forms and 20 seeded forms of degree 1-8 at the sieve
    # moduli of box 10^4; every F(x, y) comes from its defining sum, one
    # row x at a time over all y
    rng = random.Random(149)
    forms = [(item["coeffs"], item["h"]) for item in json.loads(VERIFY_BOX.read_text())["requests"]]
    for _ in range(20):
        form = random_form(rng, rng.randint(1, 8), -60, 60)
        forms.append((form.coeffs, rng.randint(-500, 500)))
    for coeffs, h in forms:
        n = len(coeffs) - 1
        for q in (149, 151, 157):
            ypow = [[pow(y, i, q) for y in range(q)] for i in range(n + 1)]
            table = []
            for x in range(q):
                values = [-h] * q
                for i, c in enumerate(coeffs):
                    a = c * pow(x, n - i, q)
                    values = [v + a * w for v, w in zip(values, ypow[i])]
                table.append([y for y, v in enumerate(values) if v % q == 0])
            assert root_table(coeffs, h, q) == table, (coeffs, h, q)


def test_projective_smooth_pre_enforced():
    inst = ThueInstance.build(BinaryForm.from_coeffs([1, 0, 0, 0, 1]), 17)
    with pytest.raises(ValueError):
        count_projective_smooth(inst, 17)  # p | h
    sh_bad = ThueInstance.build(product_form([0, 1], [2, 2]), 3)
    with pytest.raises(ValueError):
        count_projective_smooth(sh_bad, 7)


def test_projective_smooth_rejects_a_composite_modulus():
    # 9 and 15 returned counts and 25 and 49 failed the projection bound
    # and the Weil interval; none of them is a field
    inst = ThueInstance.build(BinaryForm.from_coeffs([1, 0, 0, 0, 1]), 17)
    for p in (9, 15, 25, 49):
        with pytest.raises(ValueError, match="prime modulus"):
            count_projective_smooth(inst, p)
        with pytest.raises(ValueError, match="prime modulus"):
            count_affine_points_mod_p(inst, p)


def test_census_worked_example():
    inst = ThueInstance.build(product_form([0, 5, 30], [1, 1, 1]), -2500)
    tracked = hensel_track_roots(inst.shape, 5, default_precision(inst, 5))
    sols = primitive_solutions(inst, 30)
    assert (25, 1) in sols
    profiles = [solution_valuations(a, b, inst, 5, tracked) for a, b in sols]
    census = residue_class_census(profiles, inst, 5, tracked)
    assert all(len(c) == 4 for c in census)  # full granularity
    # the (25,1) class reduces to ((25-0)/25, 1) = (1, 1) on the root-0 disk
    root0 = next(i for i, r in enumerate(tracked.roots) if r.value == 0)
    assert (root0, 2, 1, 1) in census


def test_census_additive_terms():
    rng = random.Random(53)
    for p in (5, 7):
        done = 0
        while done < 6:
            inst, _ = random_tracked_instance(rng, p)
            case = classify_prime(inst, p)
            sols = primitive_solutions(inst, 40)
            if not sols:
                continue
            tracked = hensel_track_roots(inst.shape, p, default_precision(inst, p))
            profiles = [solution_valuations(a, b, inst, p, tracked) for a, b in sols]
            census = residue_class_census(profiles, inst, p, tracked)
            s = inst.shape.s
            limit = s * inst.n * p if case.divides_dstar else s * p
            assert len(census) <= limit
            done += 1


def test_census_depth_granularity():
    inst = ThueInstance.build(product_form([0, 5, 30], [1, 1, 1]), -2500)
    sols = primitive_solutions(inst, 30)
    profiles = [solution_valuations(a, b, inst, 5) for a, b in sols]
    census = residue_class_census(profiles, inst, 5, None)
    assert all(len(c) == 1 for c in census)  # depth granularity
    assert len(census) >= 1
    # profiles taken without tracked roots cannot feed a full census
    tracked = hensel_track_roots(inst.shape, 5, default_precision(inst, 5))
    with pytest.raises(ValueError):
        residue_class_census(profiles, inst, 5, tracked)


def test_product_family():
    inst, certified = product_form_family([0, 1, 2, 3], 5)
    assert len(certified) == 8
    found = set(primitive_solutions(inst, 10))
    assert set(certified) <= found


def test_product_family_rejects_repeats():
    with pytest.raises(ValueError):
        product_form_family([1, 1, 2], 5)


def test_product_family_enumerator_box():
    # certified solutions always inside box max(|a_i|, q)
    rng = random.Random(59)
    for _ in range(6):
        a_list = rng.sample(range(-9, 10), 4)
        h = rng.randint(1, 20)
        inst, certified = product_form_family(a_list, h)
        box = max(max(abs(a) for a in a_list), 1)
        found = set(primitive_solutions(inst, box))
        assert set(certified) <= found
