import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_tracked_instance
from thuecc import bounds as bnd
from thuecc import enumerate as en
from thuecc import padic
from thuecc.bounds import RankHypothesis, bertrand_prime
from thuecc.cli import main
from thuecc.enumerate import primitive_solutions
from thuecc.forms import BinaryForm, ThueInstance
from thuecc.verify import TRIAL_LIMIT, Check, verify_instance

CHABAUTY = RankHypothesis("chabauty_lt_g")


def build(coeffs, h) -> ThueInstance:
    return ThueInstance.build(BinaryForm.from_coeffs(coeffs), h)


def statuses(result) -> dict[str, str]:
    return {c.name: c.status for c in result.checks}


def test_ramified_tracking_is_skipped_not_passed(capsys):
    res = verify_instance(build([1, 0, 0, -7], 7), 5, 20, None)
    (tracked,) = [c for c in res.checks if c.name == "tracked_mode"]
    assert tracked.status == "skipped"
    assert "not squarefree mod 7" in tracked.detail
    assert not tracked.detail.startswith("skipped")
    assert res.chart_prime == 7 and res.ledgers == ()
    # one solution, (0, -1): the census still runs, on depths only
    res = verify_instance(build([1, 0, 0, -7], 7), 5, 50, None)
    assert res.solutions == ((0, -1),)
    checks = {c.name: c for c in res.checks}
    assert checks["tracked_mode"].status == "skipped"
    assert checks["census_additive_term"].status == "ok"
    assert checks["census_additive_term"].detail == "1 classes <= 63 (case d, depth granularity)"
    # the profile of (0, -1) attains its largest depth 1/3 at all three
    # roots: a tie needs no deepest root, since w = u_m is their sum
    assert checks["w_equals_um(0,-1)"] == Check(
        "w_equals_um(0,-1)", "ok", "w=1 u_m=1, profile mode"
    )
    assert main(["verify", "--F=1,0,0,-7", "--h", "7"]) == 0
    capsys.readouterr()
    # a unique deepest root: w = u_m is checked in profile mode
    res = verify_instance(build([3, -4, 5, -9, -9, 3], -21), 7, 20, None)
    checks = {c.name: c for c in res.checks}
    assert checks["tracked_mode"].status == "skipped"
    assert res.solutions == ((-2, -1),)
    assert checks["w_equals_um(-2,-1)"] == Check(
        "w_equals_um(-2,-1)", "ok", "w=1 u_m=1, profile mode"
    )
    assert res.ledgers == ()


def test_profile_mode_sums_fractional_valuations():
    # x(x^2 - 5y^2) and x^2(x^2 - 5y^2) at p = 5: +-sqrt(5) are ramified, so
    # tracking is skipped; at (5, 1) the root 0 has v = 1 with multiplicity
    # 1, then 2, and each of +-sqrt(5) has v = 1/2
    for coeffs, h, w in (([1, 0, -5, 0], 100, 2), ([1, 0, -5, 0, 0], 500, 3)):
        res = verify_instance(build(coeffs, h), 5, 50, None)
        assert res.chart_prime == 5 and (5, 1) in res.solutions
        assert statuses(res)["tracked_mode"] == "skipped"
        rows = {(c.status, c.detail) for c in res.checks if c.name.startswith("w_equals_um(")}
        assert rows == {("ok", f"w={w} u_m={w}, profile mode")}
        assert sum(c.name.startswith("w_equals_um(") for c in res.checks) == len(res.solutions)
        assert res.ledgers == ()


def test_one_valuation_profile_per_solution(monkeypatch):
    # the w = u_m checks and the census read the same profile of each
    # solution, with tracked roots (x^4 + y^4 = 17 at 17) and without
    original = padic.solution_valuations
    calls = []

    def counted(a, b, *args, **kwargs):
        calls.append((a, b))
        return original(a, b, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "thuecc" and vars(module).get("solution_valuations") is original:
            monkeypatch.setattr(module, "solution_valuations", counted)
    for coeffs, h, p, box, tracked in (
        ([1, 0, 0, 0, 1], 17, 5, 100, True),
        ([1, 0, 0, -7], 7, 5, 50, False),
        ([3, -4, 5, -9, -9, 3], -21, 7, 20, False),
    ):
        calls.clear()
        res = verify_instance(build(coeffs, h), p, box, None)
        checks = statuses(res)
        assert ("tracked_mode" not in checks) == tracked
        assert checks["census_additive_term"] == "ok"
        assert sorted(calls) == sorted(res.solutions)


def test_no_chart_prime_is_skipped():
    res = verify_instance(build([1, 0, 0, 0, 1], 6), 5, 20, CHABAUTY)
    assert statuses(res)["charts"] == "skipped"
    assert res.chart_prime is None and res.ledgers == ()


# the product of two primes near 10^22 and 3 10^22: ECM on it runs for minutes
HARD_H = (10**22 + 9) * (3 * 10**22 + 29)


def test_hard_h_skips_charts_unfactored():
    argv = ["verify", "--F=1,0,0,0,1", "--h", str(HARD_H), "--box", "5"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-m", "thuecc.cli", *argv],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert run.returncode == 0
    (row,) = json.loads(run.stdout)["rows"]
    (charts,) = [c for c in row["checks"] if c["check"] == "charts"]
    assert charts == {
        "check": "charts",
        "status": "skipped",
        "detail": f"no prime p in (4, {TRIAL_LIMIT}] divides h = {HARD_H}"
        f", and its cofactor {HARD_H} is composite, left unfactored",
    }
    assert "charts" not in row
    # a prime p > n below the trial limit still charts, whatever the cofactor
    res = verify_instance(build([1, 0, 0, 0, 1], 17 * HARD_H), 5, 5, CHABAUTY)
    assert res.chart_prime == 17
    assert "charts" not in statuses(res)


def test_conditional_bounds_are_skipped_without_hypothesis():
    inst = build([1, 0, 0, 0, 1], 17)
    names = ("count_le_case_a", "count_le_global_cubic")
    unset = statuses(verify_instance(inst, 5, 100, None))
    assert [unset[n] for n in names] == ["skipped", "skipped"]
    declared = statuses(verify_instance(inst, 5, 100, CHABAUTY))
    assert [declared[n] for n in names] == ["ok", "ok"]


def test_box_count_equal_to_a_floor_passes(monkeypatch):
    # x^4 + y^4 = 17 has 8 solutions in the box: every entry is made
    # unconditional with floor 8, then 7, so the check's edge is pinned
    original = bnd.main_bounds
    inst = build([1, 0, 0, 0, 1], 17)
    for floor, status in ((8, "ok"), (7, "fail")):
        def at_floor(*args, floor=floor):
            report = original(*args)
            entries = tuple(replace(e, floor=floor, conditional=False) for e in report.entries)
            return replace(report, entries=entries)

        monkeypatch.setattr(bnd, "main_bounds", at_floor)
        res = verify_instance(inst, 5, 100, None)
        assert len(res.solutions) == 8
        counts = [c for c in res.checks if c.name.startswith("count_le_")]
        assert len(counts) == 2
        assert {(c.status, c.detail.split(" [")[0]) for c in counts} == {(status, f"8 <= {floor}")}


def test_census_equal_to_its_limit_passes(monkeypatch):
    # x^4 + y^4 = 17 charts at 17, which does not divide d* = 256: the
    # census limit is s p = 4 * 17 = 68; a census of 68 classes is within
    # it, one of 69 is not
    inst = build([1, 0, 0, 0, 1], 17)
    for classes, status in ((68, "ok"), (69, "fail")):
        monkeypatch.setattr(en, "residue_class_census", lambda *args, k=classes: tuple(range(k)))
        res = verify_instance(inst, 5, 100, None)
        (census,) = [c for c in res.checks if c.name == "census_additive_term"]
        assert census == Check(
            "census_additive_term", status, f"{classes} classes <= 68 (case b)"
        )


def test_two_roots_carry_the_difference_sum():
    # s = 2: x^2 - 3y^2 at p = 3, whose roots differ by 2 sqrt(3) of
    # valuation 1/2, and x^3 (x - 5y) at p = 5, whose roots differ by 5;
    # each difference counts in both orders
    for coeffs, p, total in (([1, 0, -3], 3, 1), ([1, -5, 0, 0, 0], 5, 2)):
        inst = build(coeffs, 7)
        assert inst.shape.s == 2
        res = verify_instance(inst, p, 20, None)
        assert res.checks[0] == Check(
            "difference_valuations_sum", "ok",
            f"sum {total} vs v_p(disc)-(2s-2)v_p(lc) = {total}",
        )


def test_no_chart_prime_above_n_names_no_cofactor(capsys):
    # h = 5 = n: the only prime dividing h is not above n
    assert main(["verify", "--F=1,0,0,0,0,1", "--h", "5"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    (charts,) = [c for c in row["checks"] if c["check"] == "charts"]
    assert charts == {
        "check": "charts",
        "status": "skipped",
        "detail": "no prime p > n = 5 divides h = 5",
    }
    assert "charts" not in row


def test_monicized_charts_all_ok():
    res = verify_instance(build([7, 1, 0, 1], 7), 5, 100, CHABAUTY)
    assert res.chart_prime == 7
    assert len(res.ledgers) == 2
    assert {c.status for c in res.checks} == {"ok"}


def test_ledger_levels_weigh_every_finite_root():
    # an inert member weighs its multiplicity times its factor's degree:
    # x^2 + x + 1 is inert at 5 in x(x^2 + xy + y^2) = 155 and at 11 in
    # x(x^2 + xy + y^2)^2 = 11 * 163^2; 7x^3 + xy^2 + y^3 = 7 is charted
    # on its monicized model, and x^4 + y^4 = 17 has four lifted roots
    for coeffs, h in (([1, 1, 1, 0], 155), ([1, 2, 3, 2, 1, 0], 11 * 163**2),
                      ([7, 1, 0, 1], 7), ([1, 0, 0, 0, 1], 17)):
        inst = build(coeffs, h)
        res = verify_instance(inst, bertrand_prime(inst.n), 50, None)
        assert len(res.ledgers) == len(res.solutions) >= 2
        for chart in res.ledgers:
            assert sum(m.multiplicity for lv in chart.levels for m in lv) == inst.n


def test_common_depth_detail_prints_plain_values():
    res = verify_instance(build([1, 0, 0, 0, 1], 17), 5, 100, CHABAUTY)
    depth = [c.detail for c in res.checks if c.name.startswith("common_depth")]
    assert depth == ["t values 1, 1"] * 4


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_tracked_instances_pass_every_check(seed):
    rng = random.Random(seed)
    p = rng.choice([5, 7])
    inst, sol = random_tracked_instance(rng, p)
    res = verify_instance(inst, p, 40, CHABAUTY)
    assert res.solutions == primitive_solutions(inst, 40)
    assert sol in res.solutions
    assert {c.status for c in res.checks} == {"ok"}
    assert res.chart_prime > inst.n and inst.h % res.chart_prime == 0


def test_readme_library_example():
    """The README "Library example" runs, and each commented print line
    prints what its "# ..." comment says."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [
        line.partition("#")[2].strip() or None
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected) == 5
    assert [want for want in expected if want] == ["3 256 True", "8", "17 8", "{'ok'}"]
    for got, want in zip(printed, expected):
        if want is not None:
            assert got == want
