"""Every checkable identity of one instance, returned as data.

verify_instance checks the primitive solutions in a box against the
bounds at p and, at the smallest prime p > n dividing h, against v(b) =
0, w = u_m, equal depths per deepest root and the census additive term
s*p or s*n*p.  The roots are tracked to padic.default_precision, which
exceeds every valuation a primitive solution can reach there, so the
precision cannot be set.  When the roots cannot be tracked, no chart is
built: w = u_m is checked in profile mode as sum_j m_j v(a - alpha_j b),
the deepest running total of any chart of (a, b), with the valuations
read off Newton polygons, and the census counts depths only.  That
prime is found by trial division and a primality test, never by
factoring: when h keeps a composite cofactor with no prime factor up
to TRIAL_LIMIT and no smaller prime qualifies, the charts are skipped.
A skipped check carries its reason and is never a pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from thuecc import bounds as bnd
from thuecc import charts as ch
from thuecc import enumerate as en
from thuecc import padic
from thuecc import polyutil
from thuecc.forms import ThueInstance, monicize


TRIAL_LIMIT = 10**6  # trial division bound in the search for the chart prime


@dataclass(frozen=True)
class Check:
    name: str
    status: str  # "ok", "fail" or "skipped"
    detail: str


def _check(name: str, passed: bool, detail: str) -> Check:
    return Check(name, "ok" if passed else "fail", detail)


@dataclass(frozen=True)
class Verification:
    solutions: tuple[tuple[int, int], ...]
    checks: tuple[Check, ...]
    chart_prime: int | None  # the prime of the chart checks, None when charts are skipped
    ledgers: tuple[ch.ChartData, ...]


def verify_instance(
    instance: ThueInstance, p: int, box: int, hypothesis: bnd.RankHypothesis | None
) -> Verification:
    # main_bounds rejects a bad p before any valuation at p is taken
    report = bnd.main_bounds(instance, p, hypothesis)
    sols = en.primitive_solutions(instance, box)
    checks: list[Check] = []
    shape = instance.shape
    if shape.s >= 2:
        diffs = padic.difference_valuations(shape, p)
        total = sum(Fraction(v) * m for v, m in diffs)
        expected = polyutil.vp_frac(instance.dstar / shape.lead, p)
        detail = f"sum {total} vs v_p(disc)-(2s-2)v_p(lc) = {expected}"
        checks.append(_check("difference_valuations_sum", total == expected, detail))
    hyp = hypothesis.describe() if hypothesis else "unset"
    for e in report.entries:
        name = f"count_le_{e.name}"
        if e.conditional:
            checks.append(Check(name, "skipped", f"conditional under hypothesis {hyp}"))
        else:
            detail = f"{len(sols)} <= {e.floor} [{e.quantity}]"
            checks.append(_check(name, len(sols) <= e.floor, detail))
    ph, rest = _chart_prime(instance.h, instance.n)
    if ph is None:
        if rest == 1:
            detail = f"no prime p > n = {instance.n} divides h = {instance.h}"
        else:
            detail = (
                f"no prime p in ({instance.n}, {TRIAL_LIMIT}] divides h = {instance.h}"
                f", and its cofactor {rest} is composite, left unfactored"
            )
        return Verification(sols, (*checks, Check("charts", "skipped", detail)), None, ())
    chart_checks, ledgers = _chart_checks(instance, sols, ph)
    return Verification(sols, (*checks, *chart_checks), ph, tuple(ledgers))


def _chart_prime(h: int, n: int) -> tuple[int | None, int]:
    """(p, 1) for the least prime p > n dividing h, else (None, rest).

    Trial division runs up to TRIAL_LIMIT, and what it leaves is tested
    with isprime, so no factoring algorithm runs on a hard h.  rest is 1
    when no prime p > n divides h, and otherwise the composite cofactor
    of h that has no prime factor up to TRIAL_LIMIT.  Every |h| below
    TRIAL_LIMIT^2 is factored completely.
    """
    rest, q = abs(h), 2
    while q <= TRIAL_LIMIT and q * q <= rest:
        if rest % q:
            q += 1 if q == 2 else 2
        elif q > n:
            return q, 1
        else:
            rest //= q
    if q * q > rest or polyutil.isprime(rest):
        return (rest, 1) if rest > n else (None, 1)
    return None, rest


def _chart_checks(inst: ThueInstance, sols, p: int):
    u, minst = 0, inst
    if inst.form.coeffs[0] % p == 0:
        u, monic = monicize(inst.form, p)
        minst = ThueInstance.build(monic, inst.h)
    # F'(x,y) = F(x, y+ux), so (x, y) solving F = h maps to (x, y - ux)
    msols = [(x, y - u * x) for x, y in sols]
    ok_vb = all(padic.check_vb_zero(a, b, minst, p) for a, b in msols)
    checks = [_check("v_p(b)_zero", ok_vb, f"all {len(msols)} solutions at p={p}")]
    w = polyutil.vp(minst.h, p)
    try:
        tracked = padic.hensel_track_roots(minst.shape, p, padic.default_precision(minst, p))
    except (padic.RamifiedCase, ValueError) as exc:
        tracked = None
        checks.append(Check("tracked_mode", "skipped", str(exc)))
    profs = [padic.solution_valuations(a, b, minst, p, tracked) for a, b in msols]
    by_argmax: dict[int, list] = {}
    charts = []
    for prof in profs:
        name = f"w_equals_um({prof.a},{prof.b})"
        if tracked is None:
            # u_m of any chart is sum_j m_j v(a - alpha_j b), which needs no deepest root
            u_m = sum(e.value * e.multiplicity for e in prof.per_root)
            checks.append(_check(name, u_m == w, f"w={w} u_m={u_m}, profile mode"))
            continue
        chart = ch.chart_from_tracked(prof, tracked, w)
        detail = f"w={chart.w} u_m={chart.u_seq[-1]}"
        checks.append(_check(name, ch.verify_w_equals_um(chart), detail))
        charts.append(chart)
        by_argmax.setdefault(prof.argmax_index, []).append(prof)
    for idx, group in sorted(by_argmax.items()):
        same = ch.check_common_root_depth(group)
        t_values = ", ".join(str(pr.t) for pr in group)
        checks.append(_check(f"common_depth(root {idx})", same, f"t values {t_values}"))
    if profs:
        checks.append(_census_check(minst, profs, p, tracked))
    return checks, charts


def _census_check(minst: ThueInstance, profs, p: int, tracked) -> Check:
    """Census of the solutions' classes at p against s*p, or s*n*p when p
    divides d*; without tracked roots the classes are depths only."""
    classes = len(en.residue_class_census(profs, minst, p, tracked))
    case = bnd.classify_prime(minst, p)
    limit = minst.shape.s * (minst.n * p if case.divides_dstar else p)
    grain = ", depth granularity" if tracked is None else ""
    detail = f"{classes} classes <= {limit} (case {case.case_tag}{grain})"
    return _check("census_additive_term", classes <= limit, detail)
