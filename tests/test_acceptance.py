"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value here is either hand-evaluated from the closed-form
formulas or produced by an independent brute-force oracle (exhaustive
scans, Hensel-certified root refinement, literal product expansion).
"""

import random
import time
from math import gcd

import sympy

from helpers import (
    automorphism_char_poly,
    bound_entry,
    certified_zp_roots,
    isotypic_dimension,
    materialize_orbit,
    partitions,
    product_form,
    random_form,
    random_tracked_instance,
    random_valuation_seq,
    realize_series,
)
from thuecc import polyutil
from thuecc.bounds import (
    RankHypothesis,
    bertrand_prime,
    case_bound,
    classify_prime,
    global_bound,
    main_bounds,
    refined_bounds_degree_pm1,
    refined_bounds_prime_degree,
    PrimeCase,
)
from thuecc.charts import chart_from_tracked, check_common_root_depth, verify_w_equals_um
from thuecc.enumerate import (
    count_affine_points_mod_p,
    primitive_solutions,
    product_form_family,
    residue_class_census,
)
from thuecc.fermat import (
    SolutionTriple,
    equivalence,
    orbit_count,
    solve_coefficients,
)
from thuecc.forms import BinaryForm, ThueInstance, factor_shape, genus
from thuecc.newton_zero import zero_bound
from thuecc.padic import (
    check_vb_zero,
    default_precision,
    hensel_track_roots,
    solution_valuations,
)


def report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_genus_oracle():
    start = time.perf_counter()
    rng = random.Random(1001)
    found = 0
    while found < 50:
        n = rng.randint(4, 8)
        form = random_form(rng, n)
        sh = factor_shape(form)
        if set(sh.all_multiplicities()) != {1}:
            continue
        assert genus(sh, n) == (n - 1) * (n - 2) // 2
        found += 1
    # the degree-6 superelliptic shape with six distinct roots has genus 10
    import sympy as sp

    x, y = sp.symbols("x y")
    sextic = sp.expand((x**3 + x * y**2 + y**3) * (x**3 + 2 * x * y**2 + 4 * y**3))
    coeffs = [int(sextic.coeff(x, 6 - i).coeff(y, i)) for i in range(7)]
    sh6 = factor_shape(BinaryForm.from_coeffs(coeffs))
    assert sh6.s == 6 and set(sh6.multiplicities) == {1}
    assert genus(sh6, 6) == 10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(1, f"50 squarefree genera + sextic g=10 in {elapsed:.2f}s")


def test_criterion_2_desk_instance():
    start = time.perf_counter()
    inst = ThueInstance.build(BinaryForm.from_coeffs([1, 0, 0, 0, 1]), 17)
    sols = primitive_solutions(inst, 100)
    assert len(sols) == 8
    rep = main_bounds(inst, 5, RankHypothesis("chabauty_lt_g"))
    assert bound_entry(rep, "global_cubic").floor == 117
    assert bound_entry(rep, "case_a").floor == 29
    assert len(sols) <= 29 <= 117
    assert count_affine_points_mod_p(inst, 5) == 16
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(2, f"8 solutions <= 29 <= 117, a(5)=16 in {elapsed:.2f}s")


def test_criterion_3_zero_bound_suite():
    start = time.perf_counter()
    rng = random.Random(1003)
    checked = 0
    for p in (5, 7, 11):
        for _ in range(200):
            seq = random_valuation_seq(rng, p)
            rep = zero_bound(seq)
            assert rep.bound in (rep.first_unit_index, rep.first_unit_index + 1)
            assert rep.zero_index <= rep.bound
            poly = realize_series(seq, rng)
            certified, _ = certified_zp_roots(poly, p, depth=6)
            assert certified <= rep.zero_index, (seq.vals, p)
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 600
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    report(3, f"600 sequences, zero violations, in {elapsed:.2f}s")


def test_criterion_4_chart_identities():
    rng = random.Random(1004)
    instances = 0
    solutions_checked = 0
    while instances < 50:
        p = rng.choice([5, 7])
        inst, seed = random_tracked_instance(rng, p)
        sols = primitive_solutions(inst, 40)
        if not sols:
            continue
        tracked = hensel_track_roots(inst.shape, p, default_precision(inst, p))
        w = polyutil.vp(inst.h, p)
        groups = {}
        for a, b in sols:
            assert check_vb_zero(a, b, inst, p)
            prof = solution_valuations(a, b, inst, p, tracked)
            chart = chart_from_tracked(prof, tracked, w)
            assert verify_w_equals_um(chart), (inst.instance_id(), (a, b))
            groups.setdefault(prof.argmax_index, []).append(prof)
            solutions_checked += 1
        for profiles in groups.values():
            assert check_common_root_depth(profiles)
        instances += 1
    # the counterexample family: the imprimitive pair is rejected at the
    # coprimality precondition
    for p, d in ((5, 1), (5, 3), (7, 2)):
        form = product_form([1, p * p, p * p - p + 1], [1, 1, d])
        h = form(p * p + 1, 1)
        assert h == form(p, 0)
        inst = ThueInstance.build(form, h)
        try:
            solution_valuations(p, 0, inst, p)
            raise AssertionError("imprimitive pair must be rejected")
        except ValueError:
            pass
    report(
        4,
        f"{instances} tracked instances, {solutions_checked} solutions: "
        "v(b)=0, w=u_m, equal depths; imprimitive pair rejected",
    )


def test_criterion_5_jacobian_decomposition():
    rng = random.Random(1005)
    checked = 0
    while checked < 100:
        n = rng.randint(3, 12)
        coprime = [m for m in range(1, n + 1) if gcd(n, m) == 1]
        parts = []
        total = 0
        while total < n:
            opts = [m for m in coprime if m <= n - total]
            if not opts:
                break
            m = rng.choice(opts)
            parts.append(m)
            total += m
        if total != n or len(parts) < 3:
            continue
        s = len(parts)
        g = genus(factor_shape(product_form(list(range(s)), parts)), n)
        cp = automorphism_char_poly(n, parts)
        assert polyutil.degree(cp) == 2 * g
        total_dim = sum(
            isotypic_dimension(n, d, s, multiplicities=parts)
            for d in sympy.divisors(n)
            if d != 1
        )
        assert total_dim == g
        checked += 1
    # nontrivial gcd inputs still divide exactly with degree 2g
    for n, parts in ((4, (2, 1, 1)), (6, (3, 2, 1)), (6, (1, 1, 4)), (9, (3, 5, 1))):
        s = len(parts)
        sh = factor_shape(product_form(list(range(len(parts))), list(parts)))
        g = genus(sh, n)
        cp = automorphism_char_poly(n, parts)
        assert polyutil.degree(cp) == 2 * g
    report(5, "100 coprime vectors + mixed-gcd vectors: deg char = 2g, sum dims = g")


def test_criterion_6_bound_catalogue():
    for n in range(4, 13):
        p = bertrand_prime(n)
        assert n < p < 2 * n
        gb = global_bound(n)
        for parts in partitions(n):
            g_all = parts[0] if len(parts) == 1 else gcd(parts[0], gcd(*parts[1:]))
            if gcd(n, g_all) != 1:
                continue
            s = len(parts)
            total = n * (s - 2) - sum(gcd(n, m) for m in parts)
            if total % 2 or total < -2:
                continue
            g = (total + 2) // 2
            for tag in "abcd":
                assert case_bound(tag, n, g, s) <= gb
    hyp = RankHypothesis("mw_lt_threshold", 1)
    r52 = {
        tag: refined_bounds_prime_degree(5, PrimeCase(11, tag in "bd", tag in "cd"), hyp)
        .entries[0].floor
        for tag in "abcd"
    }
    assert r52 == {"a": 17, "b": 18, "c": 12, "d": 57}
    r74 = {
        tag: refined_bounds_prime_degree(7, PrimeCase(29, tag in "bd", tag in "cd"), hyp)
        .entries[0].floor
        for tag in "abcd"
    }
    assert r74 == {"a": 37, "b": 40, "c": 30, "d": 207}
    for p in (5, 7):
        n = p - 1
        ra = refined_bounds_degree_pm1(PrimeCase(p, False, False), None, s=n)
        assert {e.name: e.floor for e in ra.entries} == {
            "pm1_local": 4 * n - 3,
            "pm1_rational": 5 * n - 3,
        }
        rc = refined_bounds_degree_pm1(PrimeCase(p, True, True), None, s=n)
        assert {e.name: e.floor for e in rc.entries} == {
            "pm1_local": 2 * n**2 + 4 * n - 5
        }
    report(6, "all case formulas <= 2n^3-2n-3 for n in 4..12; refined values exact")


def test_criterion_7_fermat_suite():
    rng = random.Random(1007)
    done = 0
    while done < 100:
        n = rng.choice([2, 3, 4, 5])
        t1 = SolutionTriple(*(rng.choice([v for v in range(-9, 10) if v]) for _ in range(3)))
        t2 = SolutionTriple(*(rng.choice([v for v in range(-9, 10) if v]) for _ in range(3)))
        if equivalence(t1, t2, n):
            continue
        tw = solve_coefficients(t1, t2, n)
        assert tw.satisfied_by(t1) and tw.satisfied_by(t2)
        assert gcd(gcd(tw.A, tw.B), tw.C) == 1
        done += 1
    assert len(materialize_orbit(SolutionTriple(1, 2, 1), False, 4, 13)) == 16
    assert len(materialize_orbit(SolutionTriple(1, 2, 1), True, 4, 13)) == 32
    assert orbit_count(SolutionTriple(1, 2, 1), False, 4) == 16
    assert orbit_count(SolutionTriple(1, 2, 1), True, 4) == 32
    built = 0
    while built < 20:
        coords = rng.sample(range(1, 25), 3)
        t1 = SolutionTriple(*coords)
        q = rng.choice([3, 5, 7])
        n = rng.choice([2, 3, 4, 5, 6])
        bad = t1.x * t1.y * t1.z * (t1.x - t1.y) * (t1.x - t1.z) * (t1.y - t1.z)
        if bad % q == 0 or n % q == 0:
            continue
        # the shift t2 = t1 + (q,q,q) gives a twist with q coprime to ABC
        tw = solve_coefficients(t1, SolutionTriple(t1.x + q, t1.y + q, t1.z + q), n)
        assert (tw.A * tw.B * tw.C) % q != 0
        built += 1
    report(7, "100 coefficient solves, orbits 16/32 over F_13, 20 shifts coprime to q")


def test_criterion_8_residue_census():
    rng = random.Random(1008)
    case_counts = {"b": 0, "d": 0}
    while min(case_counts.values()) < 5:
        p = rng.choice([5, 7])
        inst, _ = random_tracked_instance(rng, p)
        case = classify_prime(inst, p)
        if case.case_tag not in case_counts:
            continue
        sols = primitive_solutions(inst, 40)
        if not sols:
            continue
        tracked = hensel_track_roots(inst.shape, p, default_precision(inst, p))
        profiles = [solution_valuations(a, b, inst, p, tracked) for a, b in sols]
        census = residue_class_census(profiles, inst, p, tracked)
        s = inst.shape.s
        if case.case_tag == "b":
            assert len(census) <= s * p
        else:
            assert len(census) <= s * inst.n * p
        case_counts[case.case_tag] += 1
    fams = 0
    while fams < 10:
        a_list = rng.sample(range(-9, 10), rng.choice([3, 4, 5]))
        h = rng.randint(1, 25) * rng.choice([1, -1])
        try:
            inst, certified = product_form_family(a_list, h)
        except Exception:
            continue
        box = max(abs(a) for a in a_list) or 1
        found = set(primitive_solutions(inst, box))
        assert set(certified) <= found
        fams += 1
    report(
        8,
        f"census within s*p / s*n*p on {sum(case_counts.values())} case-b/d "
        "instances; 10 certified families contained in enumeration",
    )
