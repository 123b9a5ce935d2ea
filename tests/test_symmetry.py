"""Metamorphic properties: each symmetry of F(x, y) = h maps an instance
(F, h) to another (F', h') whose solutions and reports follow from the
first ones without an oracle.

- Swapping x and y: F(y, x) = h has the swapped solutions.  The two
  orientations sieve through different root tables.
- (-F, -h) is the same equation: the same solutions, and the same
  analyze and bound JSON up to the sign of d* and the instance label.
- For odd n, F(-x, -y) = -F(x, y), so (F, -h) has the negated solutions.
- (F, h k^n) is the curve h z^n = F(x, y) again under z -> k z, an
  isomorphism over F_p when p does not divide k: the same genus, and the
  same smooth point count, or the same refusal, at every such p.
"""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction
from math import gcd

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import form_value, swapped
from thuecc.cli import main
from thuecc.enumerate import count_projective_smooth, primitive_solutions
from thuecc.forms import BinaryForm, FormError, ThueInstance


@st.composite
def equations(draw, degrees=range(1, 7)):
    """(coeffs, h, box): n one of the given degrees, c_0 = 0 or c_n = 0
    reachable, h a value of the form in the box or any small integer,
    of either sign, and box 1-12."""
    n = draw(st.sampled_from(degrees))
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=n + 1, max_size=n + 1))
    assume(any(coeffs))
    box = draw(st.integers(1, 12))
    if draw(st.booleans()):
        x, y = draw(st.integers(-box, box)), draw(st.integers(-box, box))
        h = form_value(coeffs, x, y)
    else:
        h = draw(st.integers(-60, 60))
    assume(h != 0)
    return coeffs, h, box


def solutions(coeffs, h, box):
    try:
        inst = ThueInstance.build(BinaryForm.from_coeffs(coeffs), h)
    except FormError:
        assume(False)
    return primitive_solutions(inst, box)


@given(equations())
@settings(max_examples=150, deadline=None)
def test_swapping_x_and_y_swaps_the_solutions(case):
    coeffs, h, box = case
    flipped = swapped(BinaryForm.from_coeffs(coeffs)).coeffs
    expect = tuple(sorted((y, x) for x, y in solutions(coeffs, h, box)))
    assert solutions(flipped, h, box) == expect


def cli_rows(command, coeffs, h):
    """The rows of a JSON report, with the instance labels dropped and d*
    as a Fraction, and the exit code."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([command, "--F=" + ",".join(map(str, coeffs)), "--h", str(h)])
    rows = json.loads(out.getvalue())["rows"]
    for row in rows:
        row.pop("instance")
        for report in row.get("reports", ()):
            report.pop("instance")
        if "dstar" in row:
            row["dstar"] = Fraction(row["dstar"])
    return rows, code


@given(equations(degrees=range(2, 7)))
@settings(max_examples=60, deadline=None)
def test_negating_form_and_value_is_the_same_equation(case):
    coeffs, h, box = case
    negated = [-c for c in coeffs]
    assert solutions(negated, -h, box) == solutions(coeffs, h, box)
    inst = ThueInstance.build(BinaryForm.from_coeffs(coeffs), h)
    neg = ThueInstance.build(BinaryForm.from_coeffs(negated), -h)
    assert neg.form.coeffs == tuple(-c for c in inst.form.coeffs) and neg.h == -inst.h
    for command in ("analyze", "bound"):
        rows, code = cli_rows(command, coeffs, h)
        for row in rows:
            if "dstar" in row:
                row["dstar"] = -row["dstar"]
        assert cli_rows(command, negated, -h) == (rows, code)


@given(equations(degrees=(1, 3, 5)))
@settings(max_examples=150, deadline=None)
def test_odd_degree_negates_the_solutions_with_h(case):
    coeffs, h, box = case
    expect = tuple(sorted((-x, -y) for x, y in solutions(coeffs, h, box)))
    assert solutions(coeffs, -h, box) == expect


def smooth_count(inst, p):
    """The smooth projective count at p, or the refusal's message."""
    try:
        return count_projective_smooth(inst, p)
    except ValueError as refusal:
        return str(refusal)


@given(
    equations(degrees=range(2, 7)),
    st.integers(-6, 6).filter(lambda k: abs(k) > 1),
    st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29, 31]),
)
@settings(max_examples=150, deadline=None)
def test_scaling_h_by_an_nth_power_keeps_the_curve(case, k, p):
    coeffs, h, _ = case
    assume(k % p)
    content = gcd(*coeffs)
    coeffs = [c // content for c in coeffs]
    inst = ThueInstance.build(BinaryForm.from_coeffs(coeffs), h)
    scaled = ThueInstance.build(BinaryForm.from_coeffs(coeffs), h * k**inst.n)
    assert scaled.genus == inst.genus
    assert smooth_count(scaled, p) == smooth_count(inst, p)
