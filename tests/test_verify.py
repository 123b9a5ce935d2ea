import json
import os
import random
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_tracked_instance
from thuecc import padic
from thuecc.bounds import RankHypothesis
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
    assert res.solutions.solutions == ((0, -1),)
    checks = {c.name: c for c in res.checks}
    assert checks["tracked_mode"].status == "skipped"
    assert checks["census_additive_term"].status == "ok"
    assert checks["census_additive_term"].detail == "1 classes <= 63 (case d, depth granularity)"
    # the profile of (0, -1) attains its largest depth at all three roots
    assert checks["w_equals_um(0,-1)"].status == "skipped"
    assert checks["w_equals_um(0,-1)"].detail == (
        "maximum valuation attained 3 times; tracked mode required"
    )
    assert main(["verify", "--F=1,0,0,-7", "--h", "7"]) == 0
    capsys.readouterr()
    # a unique deepest root: w = u_m is checked in profile mode
    res = verify_instance(build([3, -4, 5, -9, -9, 3], -21), 7, 20, None)
    checks = {c.name: c for c in res.checks}
    assert checks["tracked_mode"].status == "skipped"
    assert res.solutions.solutions == ((-2, -1),)
    assert checks["w_equals_um(-2,-1)"] == Check(
        "w_equals_um(-2,-1)", "ok", "w=1 u_m=1, profile mode"
    )
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
        assert sorted(calls) == sorted(res.solutions.solutions)


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


def test_monicized_charts_all_ok():
    res = verify_instance(build([7, 1, 0, 1], 7), 5, 100, CHABAUTY)
    assert res.chart_prime == 7
    assert len(res.ledgers) == 2
    assert {c.status for c in res.checks} == {"ok"}


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
    assert sol in res.solutions.solutions
    assert {c.status for c in res.checks} == {"ok"}
    assert res.chart_prime > inst.n and inst.h % res.chart_prime == 0
