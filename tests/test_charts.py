import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import form_value, form_valuation, product_form, random_tracked_instance
from thuecc import polyutil
from thuecc.charts import (
    SELF,
    ChartError,
    build_chart,
    chart_from_tracked,
    check_common_root_depth,
    verify_w_equals_um,
)
from thuecc.enumerate import primitive_solutions
from thuecc.forms import ThueInstance
from thuecc.padic import (
    INF,
    default_precision,
    hensel_track_roots,
    solution_valuations,
)


def chart_for(inst, sol, p, tracked=None):
    w = polyutil.vp(inst.h, p)
    if tracked is None:
        tracked = hensel_track_roots(inst.shape, p, default_precision(inst, p))
    prof = solution_valuations(sol[0], sol[1], inst, p, tracked)
    return chart_from_tracked(prof, tracked, w), tracked


def test_chart_worked_example():
    # roots {0, 5, 30}, solution (25, 1), p = 5
    inst = ThueInstance.build(product_form([0, 5, 30], [1, 1, 1]), -2500)
    chart, _ = chart_for(inst, (25, 1), 5)
    assert chart.s_seq == (0, 1, 2)
    assert chart.t == 2
    # depth totals from the displayed formula: weights (0, 2, 1)
    assert chart.u_seq == (0, 3, 4)
    assert chart.w == 4
    assert verify_w_equals_um(chart)
    # deepest level holds only the chosen root
    assert [m.ref for m in chart.levels[-1]] == [SELF]


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_chart_profile_matches_tracked(seed):
    # u_m of the tracked chart, sum_j m_j v(a - alpha_j b) over the tracked
    # profile and over the profile read off Newton polygons (the profile
    # mode of verify), and v_p(h) all agree
    rng = random.Random(seed)
    p = rng.choice([5, 7])
    inst, sol = random_tracked_instance(rng, p)
    tracked = hensel_track_roots(inst.shape, p, default_precision(inst, p))
    w = polyutil.vp(inst.h, p)
    sols = primitive_solutions(inst, 45)
    assert sol in sols
    for a, b in sols:
        tracked_prof = solution_valuations(a, b, inst, p, tracked)
        newton_prof = solution_valuations(a, b, inst, p)
        sums = [sum(e.value * e.multiplicity for e in pr.per_root)
                for pr in (tracked_prof, newton_prof)]
        chart = chart_from_tracked(tracked_prof, tracked, w)
        assert [chart.u_seq[-1], *sums] == [w] * 3, (inst.instance_id(), (a, b))


def test_chart_single_root_cluster():
    # all other roots at distance 0: u_m = n_i * t
    inst = ThueInstance.build(product_form([0, 1, 2], [1, 1, 1]), 7 * 25)
    # need a solution: h = F(25, 4)? construct instead h = F(x0,y0)
    form = product_form([0, 1, 2], [1, 1, 1])
    x0, y0 = 25, 1
    h = form_value(form.coeffs, x0, y0)  # 25*24*23, v_5 = 2
    inst = ThueInstance.build(form, h)
    chart, _ = chart_for(inst, (x0, y0), 5)
    assert chart.s_seq == (0, 2)
    assert chart.u_seq == (0, 2)
    assert chart.w == polyutil.vp(h, 5) == 2
    assert verify_w_equals_um(chart)


def test_build_chart_rejects_a_non_integral_valuation():
    with pytest.raises(ChartError, match="not an integer"):
        build_chart(1, [(Fraction(1, 2), 1, 0)], 1, Fraction(3, 2), 1)
    with pytest.raises(ChartError, match="not an integer"):
        build_chart(1, [(0, 1, 0)], 1, Fraction(3, 2), 1)


def test_w_equals_um_randomized():
    rng = random.Random(101)
    for p in (5, 7):
        for _ in range(12):
            inst, _sol = random_tracked_instance(rng, p)
            sols = primitive_solutions(inst, 45)
            tracked = hensel_track_roots(inst.shape, p, default_precision(inst, p))
            w = polyutil.vp(inst.h, p)
            for a, b in sols:
                prof = solution_valuations(a, b, inst, p, tracked)
                chart = chart_from_tracked(prof, tracked, w)
                assert verify_w_equals_um(chart), (inst.instance_id(), (a, b))
                assert chart.u_seq == tuple(sorted(chart.u_seq))
                assert chart.u_seq[-1] == form_valuation(prof, inst.shape)


def test_common_depth_across_solutions():
    rng = random.Random(103)
    for p in (5, 7):
        for _ in range(10):
            inst, _ = random_tracked_instance(rng, p)
            sols = primitive_solutions(inst, 45)
            tracked = hensel_track_roots(inst.shape, p, default_precision(inst, p))
            groups = {}
            for a, b in sols:
                prof = solution_valuations(a, b, inst, p, tracked)
                groups.setdefault(prof.argmax_index, []).append(prof)
            for profiles in groups.values():
                assert check_common_root_depth(profiles)


def test_common_depth_rejects_mixed_roots():
    inst = ThueInstance.build(product_form([0, 5, 30], [1, 1, 1]), -2500)
    tracked = hensel_track_roots(inst.shape, 5, default_precision(inst, 5))
    p1 = solution_valuations(25, 1, inst, 5, tracked)
    p2 = solution_valuations(130, 1, inst, 5, tracked)  # deepest at root 5
    assert p1.argmax_index != p2.argmax_index
    with pytest.raises(ChartError):
        check_common_root_depth([p1, p2])


def test_counterexample_family_imprimitive_rejected():
    # (x - y)(x - p^2 y)(x - (p^2 - p + 1) y)^d with p = 5, d = 1:
    # (26, 1) is primitive with t = 2; (5, 0) is imprimitive and must be
    # rejected at the coprimality precondition.
    p = 5
    form = product_form([1, 25, 21], [1, 1, 1])
    h = form(26, 1)
    assert h == form(5, 0) == 125
    inst = ThueInstance.build(form, h)
    prof = solution_valuations(26, 1, inst, p)
    assert prof.t == 2
    with pytest.raises(ValueError):
        solution_valuations(5, 0, inst, p)
    with pytest.raises(ValueError):
        from thuecc.padic import check_vb_zero

        check_vb_zero(5, 0, inst, p)


def test_counterexample_family_higher_multiplicity():
    p = 5
    form = product_form([1, 25, 21], [1, 1, 3])
    h = form(26, 1)
    assert h == form(5, 0)
    inst = ThueInstance.build(form, h)
    assert inst.irreducible
    with pytest.raises(ValueError):
        solution_valuations(5, 0, inst, p)


def test_chart_t_infinite_rejected():
    form = product_form([0, 1], [1, 1])
    inst = ThueInstance.build(form, 6)
    tracked = hensel_track_roots(inst.shape, 5, default_precision(inst, 5))
    # (1,1) hits the rational root 1 exactly (F(1,1) = 0), so t is INF
    prof = solution_valuations(1, 1, inst, 5, tracked)
    assert prof.t == INF and prof.argmax_index == 1
    with pytest.raises(ChartError, match="exact root hit"):
        chart_from_tracked(prof, tracked, 1)
