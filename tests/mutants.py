"""Mutation smoke run: each entry breaks one line of src/thuecc on
purpose and names the tests that must catch it.

    python3 tests/mutants.py
    python3 tests/mutants.py --only tile-offset,hits-unsorted

An entry is (name, module, exact old snippet, replacement, test ids).
For each entry, src/ is copied to a temporary directory, the snippet is
replaced in src/thuecc/<module>.py of the copy, and only the named tests
run against the copy, with a fixed hypothesis seed.  The entry reads

- killed when every named test fails,
- survived when some named test passes: that test no longer catches the
  mutation, a test gap;
- stale when the snippet does not occur exactly once in the module, or a
  named test no longer exists: the code or the test moved, and the entry
  must follow it in the same change.

First every named test runs on an unmodified copy and must pass there,
so a kill is the mutation's doing.  With --only, just the named entries
run, and the unmodified copy runs just their tests; an unknown name
exits 2 before anything runs.  The run exits 1 on any survivor, stale
entry or failure of the unmodified copy, and 0 otherwise.  A
change that moves a mutated line updates the entry's snippet; an entry
is never dropped to make the run pass.

Stdlib only.  pytest does not collect this file (its name does not
match test_*.py).
"""

from __future__ import annotations

import argparse
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600

ENUM = "tests/test_enumerate.py::"
BOX_EDGE = ENUM + "test_sieve_keeps_solutions_on_the_box_edge"
BLOCKS = ENUM + "test_stripe_blocks_match_brute_property"
WINDOW = ENUM + "test_stripe_window_matches_brute_property"
VALUES = ENUM + "test_values_match_the_defining_sum"
LINES = ENUM + "test_line_counts_match_brute_double_loop"
SMOOTH = ENUM + "test_projective_smooth_count_brute_property"
TABLES = ENUM + "test_root_table_matches_brute_double_loop"
MODULI = ENUM + "test_root_tables_at_the_benchmark_moduli"
AT_INFINITY = ENUM + "test_projective_smooth_counts_roots_at_infinity"
SINGULAR = ENUM + "test_projective_smooth_refuses_singular_models"
LINEAR = ENUM + "test_projective_smooth_counts_linear_forms"
DESK = ENUM + "test_desk_instance"
VERIFY = "tests/test_verify.py::"
ROOT_KINDS = "tests/test_padic.py::test_tracked_and_profile_modes_agree_on_every_root_kind"
COMPOSE = "tests/test_polyutil.py::test_compose_linear_evaluates_at_the_substituted_point"
CSV_KEYS = "tests/test_cli.py::test_csv_header_covers_every_json_key"

MUTANTS = [
    # the CRT step of the stripe scan, filtered mod q3 as each value is formed
    ("crt-no-wrap", "enumerate",
     "                        y -= m\n",
     "                        pass\n",
     [DESK, BOX_EDGE]),
    ("crt-upper-edge", "enumerate", "if y > box:", "if y >= box:", [BOX_EDGE]),
    ("crt-lower-edge", "enumerate", "if y >= -box and", "if y > -box and", [BOX_EDGE]),
    ("q3-residue-unreduced", "enumerate", "and y % q3 in rs3:", "and y in rs3:", [BOX_EDGE]),
    ("crt-basis-wrong", "enumerate",
     "c2 = q1 * pow(q1, -1, q2)", "c2 = q1", [BLOCKS, BOX_EDGE, DESK]),
    ("hit-dropped", "enumerate", "hits.append(y)", "hits[:] = [y]", [BLOCKS, BOX_EDGE, DESK]),
    ("hits-unsorted", "enumerate", "hits.sort()", "pass", [BLOCKS, BOX_EDGE, DESK]),
    ("q3-row-of-q2", "enumerate", "rs3 = t3[x % q3]", "rs3 = t3[x % q2]", [BOX_EDGE]),
    # live columns, block by block
    ("tile-offset", "enumerate", "start = lo % q", "start = (lo + 1) % q", [BLOCKS]),
    # the column-only moduli q4 and q5: a pattern tiled one column off,
    # and the q4 pattern read off the rows of the q5 table
    ("extra-pattern-offset", "enumerate",
     "nonempty = [bytes(map(bool, t)) for t in tables]",
     "nonempty = [bytes(map(bool, t[k > 2:] + t[:k > 2])) for k, t in enumerate(tables)]",
     [BLOCKS, WINDOW, BOX_EDGE]),
    ("extra-pattern-wrong-rows", "enumerate",
     "nonempty = [bytes(map(bool, t)) for t in tables]",
     "nonempty = [bytes(map(bool, tables[k + (k == 3)][:q])) for k, q in enumerate(primes)]",
     [BLOCKS, WINDOW, BOX_EDGE]),
    ("last-block-dropped", "enumerate",
     "for lo in range(x_lo, x_hi + 1, _BLOCK):",
     "for lo in range(x_lo, x_hi + 2 - _BLOCK, _BLOCK):",
     [BLOCKS]),
    ("block-one-short", "enumerate",
     "hi = min(lo + _BLOCK - 1, x_hi)", "hi = min(lo + _BLOCK - 2, x_hi)", [BLOCKS]),
    ("one-block", "enumerate", "_BLOCK = 1 << 16", "_BLOCK = 1 << 30",
     [ENUM + "test_stripe_scan_memory_is_bounded_per_block"]),
    # the sieve tables from one power table
    ("row-x-not-inverted", "enumerate", "x = pow(u, -1, q)", "x = u", [TABLES, MODULI]),
    ("row0-without-cn", "enumerate",
     "if top * v % q == target]", "if v == target]", [TABLES, MODULI]),
    # F(1, t) over F_q and the point counts
    ("differences-shifted", "enumerate",
     "zip(row, range(n + 1))", "zip(row, range(1, n + 2))", [VALUES]),
    ("values-one-short", "enumerate", "islice(seq, q)", "islice(seq, q - 1)", [VALUES, LINES]),
    ("h-for-h-inverse", "enumerate", "h_inv = pow(h, -1, q)", "h_inv = h % q", [LINES, SMOOTH]),
    ("odd-d-not-closed", "enumerate",
     "powers |= {q - v for v in powers}", "pass", [LINES, SMOOTH]),
    ("d1-no-line-at-infinity", "enumerate",
     "return q + 1 - zeros, zeros", "return q - values.count(0), zeros", [LINES]),
    ("d1-shortcut-p", "enumerate", "count = p + 1", "count = p",
     [AT_INFINITY, ENUM + "test_projective_counts_match_the_benchmark_reference"]),
    ("disc-no-lead-squared", "enumerate",
     "disc = shape.discriminant * shape.lead**2 if deficit else shape.discriminant",
     "disc = shape.discriminant", [SINGULAR]),
    ("n-guard-dropped", "enumerate", "if n > 2 and n % p == 0:", "if False:", [SINGULAR]),
    ("linear-projection-bound-zero", "enumerate",
     "max(n - 1, 1) * (p + 1)", "(n - 1) * (p + 1)", [LINEAR]),
    # exact kernels
    ("prem-one-step-short", "polyutil",
     "for i in range(n - m + 1):", "for i in range(n - m):",
     ["tests/test_polyutil.py::test_discriminant_matches_sympy",
      "tests/test_forms.py::test_dstar_examples"]),
    ("taylor-from-j-plus-1", "polyutil",
     "for k in range(j, n + 1)", "for k in range(j + 1, n + 1)",
     [COMPOSE, "tests/test_forms.py::test_monicize_already_monic",
      "tests/test_charts.py::test_chart_profile_matches_tracked"]),
    ("taylor-no-a1-power", "polyutil", "a1**j * sum(", "sum(", [COMPOSE]),
    ("dstar-unsigned", "forms",
     "Fraction(sign * shape.lead * shape.discriminant",
     "Fraction(shape.lead * shape.discriminant",
     ["tests/test_forms.py::test_dstar_examples",
      "tests/test_forms.py::test_dstar_brute_force_oracle",
      "tests/test_forms.py::test_factor_shape_and_dstar_match_sympy"]),
    ("irreducible-flipped", "forms",
     "irreducible=power_gcd(shape, form.degree) == 1",
     "irreducible=power_gcd(shape, form.degree) != 1",
     ["tests/test_forms.py::test_instance_fields",
      "tests/test_cli.py::test_analyze_reducible",
      "tests/test_charts.py::test_counterexample_family_higher_multiplicity"]),
    # tracked p-adic roots
    ("inert-distance-one", "padic",
     "        if root.kind == \"inert\":\n            return Fraction(0)\n",
     "        if root.kind == \"inert\":\n            return Fraction(1)\n",
     [ROOT_KINDS]),
    ("root-minus-point-sign", "padic",
     "m = a * de - nu * b", "m = a * de + nu * b", [ROOT_KINDS]),
    # charts and the w = u_m check
    ("inert-weight-dropped", "charts",
     "r.multiplicity * (len(r.factor) - 1 if r.kind == \"inert\" else 1), j)",
     "r.multiplicity, j)",
     ["tests/test_verify.py::test_ledger_levels_weigh_every_finite_root"]),
    ("count-floor-strict", "verify",
     "len(sols) <= e.floor", "len(sols) < e.floor",
     [VERIFY + "test_box_count_equal_to_a_floor_passes"]),
    ("census-limit-strict", "verify",
     "classes <= limit, detail)", "classes < limit, detail)",
     [VERIFY + "test_census_equal_to_its_limit_passes"]),
    ("difference-sum-above-two-roots", "verify",
     "if shape.s >= 2:", "if shape.s > 2:",
     [VERIFY + "test_two_roots_carry_the_difference_sum"]),
    ("chart-prime-at-n", "verify",
     "if rest > n else", "if rest >= n else",
     [VERIFY + "test_no_chart_prime_above_n_names_no_cofactor"]),
    ("no-prime-names-a-cofactor", "verify",
     "else (None, 1)", "else (None, 2)",
     [VERIFY + "test_no_chart_prime_above_n_names_no_cofactor"]),
    ("no-prime-reason-swapped", "verify",
     "if rest == 1:", "if rest == 2:",
     [VERIFY + "test_no_chart_prime_above_n_names_no_cofactor"]),
    ("profile-sum-unweighted", "verify",
     "e.value * e.multiplicity for e in prof.per_root",
     "e.value for e in prof.per_root",
     ["tests/test_verify.py::test_profile_mode_sums_fractional_valuations"]),
    # the bounds' guards: p > n, genus 2 in scope, the residue term at p = 3
    ("classify-p-equal-n", "bounds",
     "if p <= instance.n or", "if p < instance.n or",
     ["tests/test_bounds.py::test_classify_prime_refuses_p_equal_to_n"]),
    ("genus-two-out-of-scope", "bounds", "if g < 2:", "if g <= 2:",
     ["tests/test_bounds.py::test_only_genus_below_two_is_out_of_scope"]),
    ("residue-bound-refuses-p3", "bounds", "if p <= 2:", "if p <= 3:",
     ["tests/test_bounds.py::test_residue_bound_at_p_three"]),
    # closed-form orbit
    ("orbit-odd-n-negation", "fermat",
     "not (n % 2 == 0 and t.x == -t.y)", "not (t.x == -t.y)",
     ["tests/test_fermat.py::test_orbit_count_matches_the_materialized_orbit"]),
    # the CLI output contract
    ("csv-no-conditional", "cli",
     "\"hypothesis\",\n        \"conditional\", \"error\",",
     "\"hypothesis\",\n        \"error\",",
     ["tests/test_cli.py::test_bound_csv_carries_conditional_and_errors",
      "tests/test_cli.py::test_csv_header_covers_every_json_key"]),
    ("csv-record-unfiltered", "cli",
     "writer.writerow({c: record.get(c) for c in columns})", "writer.writerow(record)",
     [CSV_KEYS, "tests/test_cli.py::test_verify_csv_format"]),
    ("csv-checks-dropped", "cli",
     "items += [{\"kind\": \"check\", **c} for c in row.get(\"checks\", ())]",
     "items += []",
     [CSV_KEYS, "tests/test_cli.py::test_verify_csv_writes_every_check"]),
    ("text-no-status-cell", "cli",
     "for c in columns if item.get(c) is not None]",
     "for c in columns if item.get(c) is not None and c != \"status\"]",
     [CSV_KEYS]),
    ("text-no-dstar-line", "cli",
     "for c in columns[1:] if row.get(c) is not None]",
     "for c in columns[1:] if row.get(c) is not None and c != \"dstar\"]",
     [CSV_KEYS]),
    ("text-item-lines-skipped", "cli",
     "                lines.append(\"      \" + \" \".join(cells))\n",
     "                pass\n",
     [CSV_KEYS]),
    ("text-none-printed", "cli",
     "[f\"    {c}: {row[c]}\" for c in columns[1:] if row.get(c) is not None]",
     "[f\"    {c}: {row.get(c)}\" for c in columns[1:]]",
     [CSV_KEYS]),
    ("minus-sign-not-joined", "cli",
     "_join_negative_lists(sys.argv[1:] if argv is None else argv)",
     "sys.argv[1:] if argv is None else argv",
     ["tests/test_cli.py::test_list_values_may_start_with_a_minus_sign"]),
]


def _copy_src(dest: Path) -> Path:
    shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest / "src"


def _run_tests(src: Path, cwd: Path, ids: list[str]) -> dict[str, str] | None:
    """Outcome (PASSED, FAILED or ERROR) of each collected test id, run
    with src first on sys.path; None on a timeout."""
    paths = " ".join(shlex.quote(str(p)) for p in (src, ROOT / "tests"))
    cmd = [
        sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
        "--hypothesis-seed=0", "--rootdir", str(ROOT), "-c", str(ROOT / "pyproject.toml"),
        "-o", f"pythonpath={paths}", "-o", "addopts=",
        *(f"{ROOT}/{i}" for i in ids),
    ]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    try:
        run = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                             timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    outcomes = {}
    for line in run.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("PASSED", "FAILED", "ERROR"):
            # pytest prints the node's path relative to cwd
            path, sep, test = rest.split(" - ")[0].partition("::")
            node = (cwd / path).resolve().relative_to(ROOT).as_posix() + sep + test
            outcomes[node] = word
    return outcomes


def _verdicts(ids: list[str], outcomes: dict[str, str]) -> dict[str, set[str]]:
    """The outcomes of each test id, parametrized cases included."""
    return {
        i: {w for node, w in outcomes.items() if node == i or node.startswith(i + "[")}
        for i in ids
    }


def _selected(argv: list[str] | None) -> list[tuple]:
    """The entries named by --only, or all of them; an unknown name exits 2."""
    parser = argparse.ArgumentParser(description="Mutation smoke run over src/thuecc.")
    parser.add_argument("--only", metavar="NAME[,NAME...]",
                        help="run only these entries, comma-separated")
    args = parser.parse_args(argv)
    if args.only is None:
        return MUTANTS
    names = set(args.only.split(","))
    unknown = sorted(names - {m[0] for m in MUTANTS})
    if unknown:
        parser.error("unknown mutant(s): " + ", ".join(unknown))
    return [m for m in MUTANTS if m[0] in names]


def main(argv: list[str] | None = None) -> int:
    mutants = _selected(argv)
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        clean = _copy_src(tmp / "clean")
        ids = sorted({i for m in mutants for i in m[4]})
        t0 = time.perf_counter()
        outcomes = _run_tests(clean, tmp / "clean", ids) or {}
        for i, seen in _verdicts(ids, outcomes).items():
            if seen != {"PASSED"}:
                print(f"unmodified copy {'fails' if seen else 'has no test'} {i}")
                bad += 1
        print(f"unmodified copy: {len(ids)} test ids in {time.perf_counter() - t0:.1f} s")
        for k, (name, module, old, new, tests) in enumerate(mutants):
            work = tmp / f"m{k}"
            src = _copy_src(work)
            path = src / "thuecc" / f"{module}.py"
            text = path.read_text()
            t0 = time.perf_counter()
            if text.count(old) != 1:
                status, note = "stale", f"snippet occurs {text.count(old)} times in {module}"
            else:
                path.write_text(text.replace(old, new))
                outcomes = _run_tests(src, work, tests)
                if outcomes is None:
                    status, note = "killed", f"timeout after {TIMEOUT_S} s"
                else:
                    verdicts = _verdicts(tests, outcomes)
                    missing = [i for i, seen in verdicts.items() if not seen]
                    passing = [i for i, seen in verdicts.items() if seen == {"PASSED"}]
                    if missing:
                        status, note = "stale", "no such test: " + ", ".join(missing)
                    elif passing:
                        status, note = "survived", "passes: " + ", ".join(passing)
                    else:
                        status, note = "killed", f"{len(tests)} test(s) failed"
            bad += status != "killed"
            print(f"{status:8} {name:24} {module}.py  {note}  ({time.perf_counter() - t0:.1f} s)")
            shutil.rmtree(work)
    print(f"{len(mutants)} mutants, {bad} problem(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
