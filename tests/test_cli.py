import json
import random
import time
from pathlib import Path

import pytest
from helpers import csv_records

import thuecc.charts
from thuecc.cli import main

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"
CORPUS_MIXED = REFERENCE / "corpus_mixed.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_analyze_inline(capsys):
    code, out = run(capsys, "analyze", "--F", "1,0,0,0,1", "--h", "17")
    assert code == 0
    payload = json.loads(out)
    row = payload["rows"][0]
    assert row["n"] == 4
    assert row["genus"] == 3
    assert row["s"] == 4
    assert row["bertrand_prime"] == 5
    assert row["case_at_bertrand"] == "a"


def test_analyze_reducible(capsys):
    # (x^2 - y^2)^2 = x^4 - 2x^2y^2 + y^4
    code, out = run(capsys, "analyze", "--F", "1,0,-2,0,1", "--h", "17")
    assert code == 3
    payload = json.loads(out)
    assert "reducible" in payload["rows"][0]["error"]
    assert not payload["rows"][0]["irreducible"]


def test_analyze_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    lines = [
        json.dumps({"coeffs": [1, 0, 0, 0, 1], "h": 17}),
        "  ",  # blank lines are skipped
        json.dumps({"coeffs": [1, 0, 0, -2], "h": 1, "notes": "cubic"}),
        json.dumps({"coeffs": [1, -7, 6, 0], "h": 30}),
    ]
    corpus.write_text("\n".join(lines) + "\n")
    code, out = run(capsys, "analyze", "--corpus", str(corpus))
    assert code == 0
    assert len(json.loads(out)["rows"]) == 3


def test_analyze_content_warning(capsys):
    code, out = run(capsys, "analyze", "--F", "2,0,2", "--h", "10")
    assert code == 0
    assert json.loads(out)["rows"][0]["content_removed"] == 2


def test_bound_with_hypothesis(capsys):
    code, out = run(
        capsys,
        "bound", "--F", "1,0,0,0,1", "--h", "17",
        "--hypothesis", "chabauty_lt_g",
    )
    assert code == 0
    payload = json.loads(out)
    entries = payload["rows"][0]["reports"][0]["entries"]
    by_name = {e["name"]: e for e in entries}
    assert by_name["global_cubic"]["floor"] == 117
    assert by_name["case_a"]["floor"] == 29
    assert not by_name["case_a"]["conditional"]


def test_bound_conditional_without_hypothesis(capsys):
    code, out = run(capsys, "bound", "--F", "1,0,0,0,1", "--h", "17")
    assert code == 0
    payload = json.loads(out)
    for rep in payload["rows"][0]["reports"]:
        assert all(e["conditional"] for e in rep["entries"])


def test_bound_includes_pm1_block_for_quartic(capsys):
    code, out = run(capsys, "bound", "--F", "1,0,0,0,1", "--h", "17")
    payload = json.loads(out)
    names = [
        e["name"]
        for rep in payload["rows"][0]["reports"]
        for e in rep["entries"]
    ]
    assert "pm1_local" in names


def test_bound_prime_degree_block(capsys):
    # x^5 + y^5 - ... degree 5 prime: expect the p = a*n + 1 refinement
    code, out = run(capsys, "bound", "--F", "1,0,0,0,0,2", "--h", "7")
    payload = json.loads(out)
    names = [
        e["name"]
        for rep in payload["rows"][0]["reports"]
        for e in rep["entries"]
    ]
    assert any(n.startswith("prime_degree_case_") for n in names)


def test_verify_passes(capsys):
    code, out = run(
        capsys,
        "verify", "--F", "1,0,0,0,1", "--h", "17", "--box", "100",
        "--hypothesis", "chabauty_lt_g",
    )
    assert code == 0
    payload = json.loads(out)
    row = payload["rows"][0]
    assert row["count"] == 8
    assert row["solutions"] == [
        [-2, -1], [-2, 1], [-1, -2], [-1, 2], [1, -2], [1, 2], [2, -1], [2, 1],
    ]
    assert all(c["status"] == "ok" for c in row["checks"])


VERIFY_COLUMNS = ["instance", "box", "count", "x", "y", "kind", "check", "status", "detail", "error"]


def test_verify_csv_format(capsys):
    argv = ["verify", "--F", "1,0,0,0,1", "--h", "17", "--box", "20"]
    code, out = run(capsys, *argv, "--format", "csv")
    assert code == 0
    header, records = csv_records(out)
    assert header == VERIFY_COLUMNS
    solutions = [r for r in records if r["kind"] == "solution"]
    assert len(solutions) == 8
    assert (solutions[0]["x"], solutions[0]["y"]) == ("-2", "-1")
    assert {(r["count"], r["box"]) for r in records} == {("8", "20")}
    # then one record per check, in the order of the JSON report
    checks = json.loads(run(capsys, *argv)[1])["rows"][0]["checks"]
    assert records[8:] == [
        {**dict.fromkeys(VERIFY_COLUMNS, ""), "instance": "F=[1 0 0 0 1];h=17", "box": "20",
         "count": "8", "kind": "check", **c}
        for c in checks
    ]


def test_verify_csv_writes_every_check(tmp_path, capsys, monkeypatch):
    """An empty box, a skipped check, a failed check and an error row
    each appear in CSV."""
    code, out = run(capsys, "verify", "--F", "1,0,0,0,1", "--h", "3", "--box", "5",
                    "--format", "csv")
    assert code == 0
    _, records = csv_records(out)
    assert {r["kind"] for r in records} == {"check"}
    assert {r["count"] for r in records} == {"0"}
    statuses = {r["check"]: r["status"] for r in records}
    assert statuses["charts"] == "skipped"
    assert statuses["count_le_case_a"] == "skipped"
    monkeypatch.setattr(thuecc.charts, "verify_w_equals_um", lambda chart: False)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        json.dumps({"coeffs": [1, 0, -2, 0, 1], "h": 1}) + "\n"
        + json.dumps({"coeffs": [1, 0, 0, 0, 1], "h": 17}) + "\n"
    )
    code, out = run(capsys, "verify", "--corpus", str(corpus), "--box", "100",
                    "--format", "csv")
    assert code == 2
    _, records = csv_records(out)
    assert records[0]["error"] == "reducible model"
    assert records[0]["kind"] == records[0]["count"] == ""
    assert {(r["check"], r["status"]) for r in records if r["kind"] == "check"} >= {
        ("w_equals_um(1,2)", "fail")
    }


def test_analyze_csv_has_one_column_set(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        json.dumps({"coeffs": [1, 0, 0, 0, 1], "h": 17}) + "\n"
        + json.dumps({"coeffs": [2, 0, 0, 0, 2], "h": 34}) + "\n"
        + json.dumps({"coeffs": [1, 0, 2, 0, 1], "h": 3}) + "\n"
    )
    code, out = run(capsys, "analyze", "--corpus", str(corpus), "--format", "csv")
    assert code == 3  # the reducible row
    header, records = csv_records(out)
    assert out.count("instance,") == 1
    assert header[9] == "bertrand_prime"
    assert [r["bertrand_prime"] for r in records] == ["5", "5", ""]
    assert [r["content_removed"] for r in records] == ["1", "2", "1"]
    assert records[0]["warning"] == "" and records[1]["warning"].startswith("form had content 2")
    assert records[2]["genus"] == ""  # None is an empty cell
    assert records[2]["error"].startswith("model is reducible")
    code, out = run(capsys, "analyze", "--F", "1,0,0,0,1", "--h", "17", "--p", "17",
                    "--format", "csv")
    assert (code, csv_records(out)[1][0]["case_at_override"]) == (0, "b")


def test_bound_csv_carries_conditional_and_errors(capsys):
    instance = ["--F", "1,0,0,0,1", "--h", "17"]
    for hypothesis, conditional in ((["--hypothesis", "chabauty_lt_g"], "False"), ([], "True")):
        code, out = run(capsys, "bound", *instance, *hypothesis, "--format", "csv")
        _, records = csv_records(out)
        case_a = next(r for r in records if r["name"] == "case_a")
        assert (code, case_a["floor"], case_a["conditional"]) == (0, "29", conditional)
    code, out = run(capsys, "bound", "--F", "0,0,0,1", "--h", "5", "--format", "csv")
    assert code == 3
    assert csv_records(out)[1] == [
        {"instance": "F=[0 0 0 1];h=5", "p": "", "case": "", "name": "", "quantity": "",
         "exact": "", "floor": "", "hypothesis": "", "conditional": "", "error": "reducible model"}
    ]


def test_bound_text_lists_every_entry(capsys):
    """Text gives, under each instance, its hypothesis and one line per
    entry with its report's p and case, in the order and with the values
    of the JSON."""
    for instance in (["--F", "1,0,0,0,1", "--h", "17"], ["--F", "1,0,0,0,0,2", "--h", "7"]):
        for hypothesis in (["--hypothesis", "chabauty_lt_g"], []):
            _, out = run(capsys, "bound", *instance, *hypothesis)
            row = json.loads(out)["rows"][0]
            expect = ["bound", f"- {row['instance']}", f"    hypothesis: {row['hypothesis']}"]
            for rep in row["reports"]:
                for e in rep["entries"]:
                    expect.append(
                        f"      p={rep['p']} case={rep['case']} name={e['name']} "
                        f"quantity={e['quantity']} exact={e['exact']} floor={e['floor']} "
                        f"conditional={e['conditional']}"
                    )
            code, out = run(capsys, "bound", *instance, *hypothesis, "--format", "text")
            assert (code, out) == (0, "\n".join(expect) + "\n")
    code, out = run(capsys, "bound", "--F", "0,0,0,1", "--h", "5", "--format", "text")
    assert (code, out) == (3, "bound\n- F=[0 0 0 1];h=5\n    error: reducible model\n")


def scalar_keys(value) -> set[str]:
    """The keys of a JSON row, and of the dicts in its lists, that hold a
    scalar; chart ledgers are JSON-only and are not walked."""
    if isinstance(value, list):
        return set().union(*map(scalar_keys, value))
    if not isinstance(value, dict):
        return set()
    keys = set()
    for k, v in value.items():
        if k != "charts":
            keys |= scalar_keys(v) if isinstance(v, (dict, list)) else {k}
    return keys


def test_csv_header_covers_every_json_key(capsys):
    """The CSV schema cannot drift from the payload: every scalar key of a
    JSON row or entry is a column of that command's CSV header, and CSV
    writes one record per row, bound entry, solution or check.  Text
    carries every non-empty CSV cell: as `key: value` under its row or as
    `key=value` on its record's item line, one line per bound entry,
    solution or check, and never writes None."""
    rng = random.Random(20261020)
    calls = [
        ["analyze", "--F=2,0,0,0,2", "--h", "34"],  # content 2
        ["bound", "--F=3,0,3", "--h", "12"],
        ["verify", "--F=1,0,2,0,1", "--h", "3", "--box", "5"],  # reducible
        ["analyze", "--F=1,0,0,0,1", "--h", "17", "--p", "7"],  # --p override
        ["verify", "--F=1,0,0,0,1", "--h", "3", "--box", "5"],  # empty box
    ]
    for _ in range(60):
        n = rng.randint(2, 6)
        content = rng.choice([1, 1, 2, 3])
        coeffs = [content * rng.randint(-5, 5) for _ in range(n + 1)]
        cmd = rng.choice(["analyze", "bound", "verify"])
        argv = [cmd, "--F=" + ",".join(map(str, coeffs)), "--h", str(content * rng.randint(-40, 40))]
        if rng.random() < 0.3:
            argv += ["--p", str(rng.choice([5, 7, 11, 13]))]
        if cmd == "verify":
            argv += ["--box", str(rng.randint(1, 10))]
        calls.append(argv)
    seen = set()
    for argv in calls:
        code, out = run(capsys, *argv)
        csv_code, csv_out = run(capsys, *argv, "--format", "csv")
        text_code, text_out = run(capsys, *argv, "--format", "text")
        assert csv_code == text_code == code, argv
        if not out:
            continue
        rows = json.loads(out)["rows"]
        header, records = csv_records(csv_out)
        assert scalar_keys(rows) <= set(header), argv
        items = [  # bound entries, or solutions and checks; else the row
            sum(len(rep["entries"]) for rep in r.get("reports", ()))
            + r.get("count", 0) + len(r.get("checks", ()))
            for r in rows
        ]
        assert len(records) == sum(max(k, 1) for k in items), argv
        lines = text_out.splitlines()
        assert lines[:2] == [argv[0], f"- {rows[0]['instance']}"], argv
        item_lines = [line for line in lines if line.startswith("      ")]
        assert len(item_lines) == sum(items), argv
        assert "None" not in text_out, argv
        for record, line in zip(records, item_lines or [""], strict=True):
            for k, v in record.items():
                assert (
                    k == "instance" or not v or f"    {k}: {v}" in lines
                    or f" {k}={v} " in line[5:] + " "
                ), (argv, k, v)
        row = rows[0]
        seen |= {
            "content" if row.get("content_removed", 1) > 1 else "",
            "reducible" if "error" in row else "",
            "override" if "case_at_override" in row else "",
            "empty box" if row.get("count") == 0 else "",
        }
    assert seen >= {"content", "reducible", "override", "empty box"}


def test_list_values_may_start_with_a_minus_sign(capsys):
    """`--F -1,2,3,4` is `--F=-1,2,3,4`, byte for byte and exit code; so
    for --t, --t1 and --t2."""
    cases = [
        (["verify", "--h", "5"], "--F", "-1,2,3,4"),
        (["analyze", "--h", "17", "--format", "csv"], "--F", "-1,0,0,0,1"),
        (["fermat", "orbit", "--n", "3"], "--t", "-1,2,1"),
        (["fermat", "construct", "--t2", "2,1,1", "--n", "3"], "--t1", "-1,2,1"),
        (["fermat", "construct", "--t1", "1,2,1", "--n", "3"], "--t2", "-2,1,1"),
        (["fermat", "check", "--A", "1", "--B", "1", "--C", "17", "--n", "4", "--p", "5"],
         "--t", "-1,2,1"),  # another verb's option, named in the error
    ]
    for rest, flag, value in cases:
        spaced, joined = [
            (main([*rest, *given]), capsys.readouterr())
            for given in ([flag, value], [f"{flag}={value}"])
        ]
        assert spaced == joined, (rest, flag)
        assert spaced[1].out or "does not take --t" in spaced[1].err, (rest, flag)
    # only a minus sign followed by a digit: -x still reads as an option
    assert main(["verify", "--F", "-x", "--h", "17"]) == 3
    assert "expected one argument" in capsys.readouterr().err


def test_verify_deterministic(capsys):
    args = ["verify", "--F", "1,-7,6,0", "--h", "30", "--box", "50"]
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert (code1, out1) == (code2, out2)


def test_verify_failed_check_exits_2(tmp_path, capsys, monkeypatch):
    """A failed check gives exit 2, is written status=fail in text, and
    outranks the exit 3 of an error row in the same corpus."""
    monkeypatch.setattr(thuecc.charts, "verify_w_equals_um", lambda chart: False)
    args = ["verify", "--F=1,0,0,0,1", "--h", "17", "--box", "100"]
    code, out = run(capsys, *args)
    assert code == 2
    statuses = {c["check"]: c["status"] for c in json.loads(out)["rows"][0]["checks"]}
    assert statuses["w_equals_um(1,2)"] == "fail"
    code, out = run(capsys, *args, "--format", "text")
    assert code == 2
    lines = [line for line in out.splitlines() if " check=w_equals_um(" in line]
    assert lines and all(" status=fail " in line for line in lines)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        json.dumps({"coeffs": [1, 0, -2, 0, 1], "h": 1}) + "\n"
        + json.dumps({"coeffs": [1, 0, 0, 0, 1], "h": 17}) + "\n"
    )
    code, out = run(capsys, "verify", "--corpus", str(corpus), "--box", "100")
    assert code == 2
    rows = json.loads(out)["rows"]
    assert "reducible" in rows[0]["error"]
    assert any(c["status"] == "fail" for c in rows[1]["checks"])


def test_analyze_matches_the_corpus_reference(capsys):
    # every warm-up and pool entry of corpus-mixed, degrees 3-12, as
    # recorded by perfbench
    ref = json.loads(CORPUS_MIXED.read_text())
    items = ref["warmup"] + ref["pool"]
    assert len(items) == 302
    fields = ("genus", "dstar", "s", "irreducible", "case_at_bertrand")
    for item in items:
        coeffs = ",".join(map(str, item["coeffs"]))
        code, out = run(capsys, "analyze", f"--F={coeffs}", "--h", str(item["h"]))
        row = json.loads(out)["rows"][0]
        expect = item["expect"]["analyze"]
        assert code == item["expect"]["exit"][0], item
        assert {k: row[k] for k in fields} == {k: expect[k] for k in fields}, item


def test_input_errors(tmp_path, capsys):
    assert main(["analyze", "--F", "1,0,1"]) == 3  # missing --h
    assert main(["analyze", "--F", "abc", "--h", "3"]) == 3
    assert main(["bound", "--F", "1,0,0,0,1", "--h", "17", "--p", "11"]) == 3
    assert main(["analyze", "--F", "1,0,1", "--h", "0"]) == 3
    bad_json = tmp_path / "bad_json.jsonl"
    bad_json.write_text('{"coeffs": [1, 0, 0, 0, 1], "h": 17}\n{"coeffs": [1, 0\n')
    assert main(["analyze", "--corpus", str(bad_json)]) == 3
    assert f"{bad_json}:2:" in capsys.readouterr().err
    no_h = tmp_path / "no_h.jsonl"
    no_h.write_text('{"coeffs": [1, 0, 0, 0, 1]}\n')
    assert main(["bound", "--corpus", str(no_h)]) == 3
    coerced = [  # numbers that int() would accept but JSON does not type as integers
        '{"coeffs": "10001", "h": 17}',
        '{"coeffs": [1, 0, 0, 0, 1.9], "h": 17.5}',
        '{"coeffs": [true, 0, 0, 0, 1], "h": 17}',
        '{"coeffs": [1, 0, 0, 0, 1], "h": "17"}',
    ]
    for i, line in enumerate(coerced):
        rows = tmp_path / f"coerced{i}.jsonl"
        rows.write_text('{"coeffs": [1, 0, 0, 0, 1], "h": 17}\n' + line + "\n")
        assert main(["analyze", "--format", "text", "--corpus", str(rows)]) == 3
        assert f"{rows}:2:" in capsys.readouterr().err
    latin1 = tmp_path / "latin1.jsonl"
    latin1.write_bytes(b'{"coeffs": [1, 0, 0, 0, 1], "h": 17}\n{"note": "\xe9"}\n')
    assert main(["analyze", "--corpus", str(latin1)]) == 3
    assert f"{latin1}: not UTF-8 text" in capsys.readouterr().err
    missing_dir = tmp_path / "missing" / "out.json"
    assert main(["analyze", "--F", "1,0,0,0,1", "--h", "17", "--out", str(missing_dir)]) == 3
    assert "No such file or directory" in capsys.readouterr().err
    assert main(["fermat", "check", "--n", "4", "--p", "5"]) == 3  # no --A/--B/--C
    assert main(["fermat", "construct", "--t1", "1,2", "--t2", "2,1,1", "--n", "3"]) == 3
    assert main(["fermat", "orbit", "--n", "4"]) == 3  # no --t
    # options another verb reads are rejected, each one named
    argv = ["fermat", "orbit", "--t", "1,2,1", "--n", "4"]
    argv += ["--box", "5", "--p", "3", "--hypothesis", "bogus"]
    capsys.readouterr()
    assert main(argv) == 3
    assert "fermat orbit does not take --p, --box, --hypothesis" in capsys.readouterr().err
    assert main(["fermat", "orbit", "--t", "1,2,1", "--n", "4", "--A", "7"]) == 3
    argv = ["fermat", "construct", "--t1=1,2,1", "--t2=1,3,2", "--n", "4"]
    argv += ["--symmetric", "--t", "1,1,1"]
    assert main(argv) == 3
    assert "fermat construct does not take --t, --symmetric" in capsys.readouterr().err
    # the tracking precision is worked out, not set
    assert main(["verify", "--F", "1,0,0,0,1", "--h", "17", "--precision", "40"]) == 3
    assert "unrecognized arguments: --precision" in capsys.readouterr().err
    assert main(["verify", "--F", "0,0,0,1", "--h", "5"]) == 3  # reducible model
    assert "reducible" in json.loads(capsys.readouterr().out)["rows"][0]["error"]
    assert main(["bound", "--F", "0,0,0,1", "--h", "5"]) == 3
    assert json.loads(capsys.readouterr().out)["rows"] == [
        {"instance": "F=[0 0 0 1];h=5", "error": "reducible model"}
    ]
    # usage errors are input errors, not the exit 2 of a failed check
    assert main(["analyze", "--F", "1,0,0,0,1", "--h", "17", "--bogus"]) == 3
    assert main(["verify", "--F", "-x", "--h", "17"]) == 3  # a value read as an option
    assert main(["analyze"]) == 3
    # boxes below 1 are rejected, not scanned as empty or replaced by the default
    assert main(["verify", "--F", "1,0,0,0,1", "--h", "17", "--box", "-5"]) == 3
    assert main(["verify", "--F", "1,0,0,0,1", "--h", "17", "--box", "0"]) == 3
    assert main(["verify", "--F", "1,0,0,0,1", "--h", "17", "--box", "abc"]) == 3
    assert "expected an integer >= 1, got 'abc'" in capsys.readouterr().err
    assert main(["fermat", "check", "--A", "1", "--B", "1", "--C", "17",
                 "--n", "4", "--p", "5", "--box", "-1"]) == 3
    # orbits need n >= 2: n = 0 divided by zero, n = 1 never returned
    assert main(["fermat", "orbit", "--t", "1,2,1", "--n", "0"]) == 3
    assert main(["fermat", "orbit", "--t", "1,2,1", "--n", "1"]) == 3
    assert "need n >= 2" in capsys.readouterr().err
    assert main(["fermat", "construct", "--t1", "1,2,1", "--t2", "2,1,1", "--n", "-1"]) == 3
    assert "need n >= 2" in capsys.readouterr().err
    # --p must be prime: a composite p in (n, 2n) is an input error
    assert main(["analyze", "--F", "1,0,0,0,1", "--h", "17", "--p", "6"]) == 3
    assert main(["bound", "--F", "1,0,0,0,1", "--h", "17", "--p", "6"]) == 3
    assert main(["verify", "--F", "1,0,0,0,1", "--h", "17", "--p", "6", "--box", "20"]) == 3
    assert "requires a prime p > n (got p=6, n=4)" in capsys.readouterr().err
    # p = 1 is rejected before any valuation at p (vp looped forever)
    assert main(["verify", "--F=7,2,-5", "--h", "17", "--p", "1", "--box", "3"]) == 3
    # p = 0 is a non-prime like any other, not "no --p given"
    assert main(["analyze", "--F", "1,0,0,0,1", "--h", "17", "--p", "0"]) == 3
    assert main(["bound", "--F", "1,0,0,0,1", "--h", "17", "--p", "0"]) == 3
    assert main(["verify", "--F", "1,0,0,0,1", "--h", "17", "--p", "0"]) == 3
    # hypothesis values must be integers
    assert main(["bound", "--F", "1,0,0,0,1", "--h", "17",
                 "--hypothesis", "mw_rank_value:x"]) == 3
    assert main(["fermat", "check", "--A", "1", "--B", "1", "--C", "17", "--n", "4",
                 "--p", "5", "--hypothesis", "mw_rank_value:x"]) == 3
    assert "hypothesis value must be an integer" in capsys.readouterr().err
    assert main(["bound", "--F", "1,0,0,0,1", "--h", "17",
                 "--hypothesis", "mw_rank_value:-2"]) == 3
    # each command takes only the flags it reads
    instance = ["--F", "1,0,0,0,1", "--h", "17"]
    assert main(["analyze", *instance, "--box", "5"]) == 3
    assert main(["analyze", *instance, "--precision", "3"]) == 3
    assert main(["analyze", *instance, "--hypothesis", "chabauty_lt_g"]) == 3
    assert main(["bound", *instance, "--box", "5"]) == 3
    assert main(["bound", *instance, "--precision", "3"]) == 3
    assert main(["fermat", "orbit", "--t", "1,2,1", "--n", "4", "--format", "csv"]) == 3
    assert capsys.readouterr().out == ""


def test_random_argv_exits_cleanly(capsys):
    """Seeded random analyze/bound/verify and fermat calls, well-formed or
    not, end with exit 0, 2 or 3 and never raise; a non-prime --p of
    analyze/bound/verify always exits 3.  A verify report gives every
    check a status, and exits 2 exactly when some check fails."""
    rng = random.Random(20261018)
    hypotheses = [
        "chabauty_lt_g", "chabauty_lt_g:zz", "mw_rank_value:1", "mw_rank_value:x",
        "mw_rank_value:-2", "mw_lt_threshold:3", "mw_lt_threshold:", "bogus:1",
    ]
    exited_ok = set()  # a flag the parser drops would make every call a usage error
    for _ in range(200):
        n = rng.randint(2, 6)
        coeffs = [rng.randint(-9, 9) for _ in range(n + 1)]
        h = rng.choice([0, 1, -1, 17, 35, 77, 2 * 7**3, rng.randint(-500, 500)])
        cmd = rng.choice(["analyze", "bound", "verify"])
        argv = [cmd, "--F=" + ",".join(map(str, coeffs)), "--h", str(h)]
        box = rng.randint(1, 20)
        if cmd == "verify":
            argv += ["--box", str(box)]
        p = None
        if rng.random() < 0.5:
            p = rng.choice([0, 1, 2, 4, 5, 6, 7, 11, -5])
            argv += ["--p", str(p)]
        if rng.random() < 0.5:  # a discarded draw, so that the later draws stay as they were
            rng.randint(1, 50)
        hypothesis = rng.choice(hypotheses) if rng.random() < 0.5 else None
        if hypothesis and cmd != "analyze":
            argv += ["--hypothesis", hypothesis]
        code = main(argv)
        assert code in (0, 2, 3), argv
        if code == 0:
            exited_ok.add(cmd)
        if p in (0, 1, 4, 6, -5):
            assert code == 3, argv
        out = capsys.readouterr().out
        if argv[0] == "verify" and code in (0, 2):
            rows = json.loads(out)["rows"]
            checks = [c["status"] for r in rows for c in r["checks"]]
            assert set(checks) <= {"ok", "fail", "skipped"}, argv
            assert (code == 2) == ("fail" in checks), argv
        # the same call in CSV and text: the same exit code, output exactly
        # when JSON had output, and well-formed CSV records
        for fmt in ("csv", "text"):
            assert main(argv + ["--format", fmt]) == code, (argv, fmt)
            fmt_out = capsys.readouterr().out
            assert bool(fmt_out) == bool(out), (argv, fmt)
            if fmt == "csv" and fmt_out:
                csv_records(fmt_out)
    assert exited_ok == {"analyze", "bound", "verify"}
    # fermat verbs: malformed triples, n and p outside their range
    triples = ["1,2,1", "2,1,1", "1,1,1", "0,0,0", "3,-2,5", "1,2", "1,2,3,4",
               "a,b,c", "", "1,,2"]
    for _ in range(300):
        verb = rng.choice(["construct", "check", "orbit"])
        n = rng.choice([-1, 0, 1, 2, 4, 7])
        argv = ["fermat", verb, f"--n={n}"]
        if verb == "construct":
            argv += ["--t1=" + rng.choice(triples), "--t2=" + rng.choice(triples)]
        elif verb == "orbit":
            argv += ["--t=" + rng.choice(triples)]
            if rng.random() < 0.5:
                argv.append("--symmetric")
        else:
            argv += [f"--{k}={rng.randint(-3, 9)}" for k in "ABC"]
            p = n + 1 if rng.random() < 0.3 else rng.choice([0, 1, 4, 8, -5])
            argv += [f"--p={p}", "--box", str(rng.randint(1, 8))]
            if rng.random() < 0.5:
                argv += ["--hypothesis", rng.choice(hypotheses)]
        assert main(argv) in (0, 2, 3), argv
    capsys.readouterr()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "--box" in capsys.readouterr().out


def test_fermat_construct(capsys):
    code, out = run(
        capsys, "fermat", "construct", "--t1", "1,2,1", "--t2", "2,1,1", "--n", "3"
    )
    assert code == 0
    assert json.loads(out)["twist"] == {"A": 1, "B": 1, "C": 9, "n": 3}


def test_fermat_construct_past_the_integer_string_limit(capsys):
    # C = 2^n + 1: 4215 digits at n = 14000, past Python's 4300 at 15000
    argv = ["fermat", "construct", "--t1", "1,2,1", "--t2", "2,1,1"]
    code, out = run(capsys, *argv, "--n", "14000")
    assert (code, json.loads(out)["twist"]) == (0, {"A": 1, "B": 1, "C": 2**14000 + 1, "n": 14000})
    assert main([*argv, "--n", "15000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: twist.C has more than 4300 decimal digits")


def test_analyze_dstar_past_the_integer_string_limit(capsys):
    # each coefficient has 2500 digits, within the input limit, but the
    # numerator of d* has 5003
    big, mid = "7" * 2500, "3" * 2500
    for fmt in ("json", "csv", "text"):
        assert main(["analyze", f"--F={big},{mid},{big},1", "--h", "1", "--format", fmt]) == 3
        captured = capsys.readouterr()
        assert captured.out == "", fmt
        assert captured.err.startswith("error: rows.dstar has more than 4300 decimal digits"), fmt


def test_fermat_orbit(capsys):
    code, out = run(capsys, "fermat", "orbit", "--t", "1,2,1", "--n", "4")
    assert code == 0
    assert json.loads(out)["count"] == 16
    code2, out2 = run(
        capsys, "fermat", "orbit", "--t", "1,2,1", "--n", "4", "--symmetric"
    )
    assert json.loads(out2)["count"] == 32
    # x = -y: x^n = y^n for even n, so the swap adds nothing; not for odd n
    code, out = run(capsys, "fermat", "orbit", "--t=1,-1,2", "--n", "4", "--symmetric")
    assert (code, json.loads(out)["count"]) == (0, 16)
    code, out = run(capsys, "fermat", "orbit", "--t=1,-1,2", "--n", "5", "--symmetric")
    assert (code, json.loads(out)["count"]) == (0, 50)
    # the count never builds the 2 * 10^10 points of the orbit
    start = time.perf_counter()
    code, out = run(capsys, "fermat", "orbit", "--t=1,2,1", "--n", "100000", "--symmetric")
    assert time.perf_counter() - start < 1.0
    assert (code, json.loads(out)["count"]) == (0, 20000000000)


def test_fermat_check_contrapositive(capsys):
    # twist through (1,2,1) and (2,1,1) at n = 4 has two classes
    code, out = run(
        capsys,
        "fermat", "construct", "--t1", "1,2,1", "--t2", "2,1,1", "--n", "4",
    )
    tw = json.loads(out)["twist"]
    code, out = run(
        capsys,
        "fermat", "check",
        "--A", str(tw["A"]), "--B", str(tw["B"]), "--C", str(tw["C"]),
        "--n", "4", "--p", "5", "--box", "6",
        "--hypothesis", "mw_lt_threshold:1",
    )
    assert code == 2
    payload = json.loads(out)
    assert not payload["consistent"]
    assert "rank over Q >= 1" in payload["conclusion"]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(
        ["analyze", "--F", "1,0,0,0,1", "--h", "17", "--out", str(target)]
    )
    assert code == 0
    assert json.loads(target.read_text())["rows"][0]["genus"] == 3
