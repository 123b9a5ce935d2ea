"""Command-line front end.

Subcommands:

* analyze: factorization shape, genus, d*, irreducibility, prime case.
* bound:   every applicable bound, marked conditional unless the
           --hypothesis covers it.
* verify:  thuecc.verify.verify_instance; each check is written as
           {"check", "status", "detail"}, status ok, fail or skipped.
* fermat:  construct / check / orbit verbs for generalized Fermat twists.

The commands parse input, fill in defaults and format what the library
returns.  Instances come inline (--F coefficients, --h) or from a
JSON-lines corpus file {"coeffs": [...], "h": ...} of JSON integers.
Reports are deterministic for a fixed configuration: no timestamps,
stable ordering.  One table, _COLUMNS, gives each row command's CSV and
text columns.  CSV writes one record per row, bound entry, solution or
check, with an empty cell for each absent value; text writes a row's set
columns as `key: value` and each item as one line of `key=value` cells.
Exit codes: 0 no check failed, 2 some check failed, 3 input error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from thuecc import bounds as bnd
from thuecc import enumerate as en
from thuecc import fermat as fm
from thuecc import padic
from thuecc.forms import BinaryForm, FormError, ThueInstance, power_gcd
from thuecc.verify import verify_instance

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_INPUT = 3


class InputError(ValueError):
    pass


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(t) for t in text.replace(" ", "").split(",") if t != ""]
    except ValueError as exc:
        raise InputError(f"cannot parse integer list {text!r}") from exc


def _parse_hypothesis(text: str | None) -> bnd.RankHypothesis | None:
    if not text:
        return None
    kind, _, value = text.partition(":")
    try:
        return bnd.RankHypothesis(
            kind=kind.strip(),
            value=int(value) if value else None,
            source="cli flag",
        )
    except bnd.BoundError as exc:
        raise InputError(str(exc)) from exc
    except ValueError as exc:
        raise InputError(f"hypothesis value must be an integer, got {value!r}") from exc


def _load_instances(args) -> list[ThueInstance]:
    specs: list[tuple[list[int], int]] = []
    if args.corpus:
        try:
            with open(args.corpus, encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, 1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        row = json.loads(line)
                        coeffs, h = row["coeffs"], row["h"]
                        # JSON integers only: no bool, float or string is coerced
                        if type(coeffs) is not list or any(
                            type(v) is not int for v in [*coeffs, h]
                        ):
                            raise TypeError("coeffs must be a list of integers, h an integer")
                        specs.append((coeffs, h))
                    except (ValueError, KeyError, TypeError) as exc:
                        raise InputError(
                            f"{args.corpus}:{lineno}: expected a JSON object "
                            f'{{"coeffs": [...], "h": ...}} ({type(exc).__name__}: {exc})'
                        ) from exc
        except UnicodeDecodeError as exc:
            raise InputError(f"{args.corpus}: not UTF-8 text ({exc})") from exc
    if args.F is not None:
        if args.h is None:
            raise InputError("--F requires --h")
        specs.append((_parse_ints(args.F), args.h))
    if not specs:
        raise InputError("no instances: pass --F/--h or --corpus")
    out = []
    for coeffs, h in specs:
        out.append(ThueInstance.build(BinaryForm.from_coeffs(coeffs), h))
    return out


def _analyze_row(instance: ThueInstance, p_override: int | None) -> dict:
    shape = instance.shape
    n = instance.n
    row = {
        "instance": instance.instance_id(),
        "n": n,
        "content_removed": instance.content_removed,
        "s": shape.s,
        "multiplicities": list(shape.multiplicities),
        "degree_deficit": shape.degree_deficit,
        "genus": instance.genus,
        "dstar": instance.dstar,
        "irreducible": instance.irreducible,
    }
    if instance.content_removed > 1:
        row["warning"] = (
            f"form had content {instance.content_removed}; normalized, with h "
            f"divided accordingly"
        )
    if not instance.irreducible:
        row["error"] = (
            f"model is reducible: h z^n - F factors because F is a perfect "
            f"power pattern (gcd of n and all multiplicities is "
            f"{power_gcd(shape, n)} > 1)"
        )
        return row
    p0 = bnd.bertrand_prime(n)
    row["bertrand_prime"] = p0
    row["case_at_bertrand"] = bnd.classify_prime(instance, p0).case_tag
    if p_override is not None:
        row["case_at_override"] = bnd.classify_prime(instance, p_override).case_tag
    return row


def _payload(command: str, rows: list[dict]) -> tuple[dict, int]:
    """The payload of rows and its exit code: 2 when a check failed, else
    3 when a row holds an error, else 0."""
    failed = any(c["status"] == "fail" for r in rows for c in r.get("checks", ()))
    errored = any("error" in r for r in rows)
    code = EXIT_VIOLATION if failed else EXIT_INPUT if errored else EXIT_OK
    return {"command": command, "rows": rows}, code


def cmd_analyze(args) -> tuple[dict, int]:
    return _payload("analyze", [_analyze_row(inst, args.p) for inst in _load_instances(args)])


def cmd_bound(args) -> tuple[dict, int]:
    hyp = _parse_hypothesis(args.hypothesis)
    rows = []
    for inst in _load_instances(args):
        if not inst.irreducible:
            rows.append(
                {"instance": inst.instance_id(), "error": "reducible model"}
            )
            continue
        p = args.p if args.p is not None else bnd.bertrand_prime(inst.n)
        reports = [bnd.main_bounds(inst, p, hyp)] + bnd.refined_bounds(inst, hyp)
        rows.append(
            {
                "instance": inst.instance_id(),
                "hypothesis": hyp.describe() if hyp else "unset",
                "reports": [_report_dict(r) for r in reports],
            }
        )
    return _payload("bound", rows)


def _report_dict(report: bnd.BoundReport) -> dict:
    return {
        "instance": report.instance_id,
        "p": report.case.p,
        "case": report.case.case_tag,
        "notes": list(report.notes),
        "entries": [
            {
                "name": e.name,
                "quantity": e.quantity,
                "exact": str(e.exact),
                "floor": e.floor,
                "conditional": e.conditional,
            }
            for e in report.entries
        ],
    }


def cmd_verify(args) -> tuple[dict, int]:
    hyp = _parse_hypothesis(args.hypothesis)
    rows = []
    for inst in _load_instances(args):
        if not inst.irreducible:
            rows.append({"instance": inst.instance_id(), "error": "reducible model"})
            continue
        p = args.p if args.p is not None else bnd.bertrand_prime(inst.n)
        box = args.box if args.box is not None else en.default_box(inst.n)
        res = verify_instance(inst, p, box, hyp)
        row: dict = {
            "instance": inst.instance_id(),
            "box": box,
            "solutions": [list(s) for s in res.solutions],
            "count": len(res.solutions),
            "checks": [
                {"check": c.name, "status": c.status, "detail": c.detail} for c in res.checks
            ],
        }
        if res.ledgers:
            row["charts"] = {"p": res.chart_prime, "ledgers": [c.to_dict() for c in res.ledgers]}
        rows.append(row)
    return _payload("verify", rows)


def _parse_triple(text: str) -> fm.SolutionTriple:
    values = _parse_ints(text)
    if len(values) != 3:
        raise InputError(f"expected a triple x,y,z, got {text!r}")
    return fm.SolutionTriple(*values)


def cmd_fermat(args) -> tuple[dict, int]:
    missing = [
        f"--{k}"
        for k, (verb, required, _) in _FERMAT_OPTIONS.items()
        if verb == args.verb and required and getattr(args, k) is None
    ]
    if missing:
        raise InputError(f"fermat {args.verb} requires {', '.join(missing)}")
    unread = [
        f"--{k}"
        for other in _FERMAT_VERBS
        if other != args.verb
        for k, (verb, _, _) in _FERMAT_OPTIONS.items()
        if verb == other and getattr(args, k) not in (None, False)
    ]
    if unread:
        raise InputError(f"fermat {args.verb} does not take {', '.join(unread)}")
    if args.verb == "construct":
        t1 = _parse_triple(args.t1)
        t2 = _parse_triple(args.t2)
        twist = fm.solve_coefficients(t1, t2, args.n)
        return {"command": "fermat construct", "twist": twist.to_dict()}, EXIT_OK
    if args.verb == "check":
        twist = fm.FermatTwist(args.A, args.B, args.C, args.n)
        hyp = _parse_hypothesis(args.hypothesis)
        box = {} if args.box is None else {"box": args.box}
        rep = fm.unique_triple_check(twist, args.p, hyp, **box)
        payload = {
            "command": "fermat check",
            "twist": twist.to_dict(),
            "classes": [[t.x, t.y, t.z] for t in rep.classes],
            "consistent": rep.consistent,
            "conclusion": rep.conclusion,
        }
        return payload, EXIT_OK if rep.consistent else EXIT_VIOLATION
    # orbit: argparse's choices admit no other verb
    t = _parse_triple(args.t)
    count = fm.orbit_count(t, args.symmetric, args.n)
    return {"command": "fermat orbit", "count": count}, EXIT_OK


def _emit(payload: dict, args) -> None:
    try:
        text = _format(payload, getattr(args, "format", "json"))
    except ValueError:
        # str() of an integer past Python's digit limit, the one ValueError
        # writing can raise; the payload is walked only then, to name it
        name = _too_long(payload)
        if name is None:
            raise
        raise InputError(
            f"{name} has more than {sys.get_int_max_str_digits()} decimal digits, "
            f"the limit for writing an integer"
        ) from None
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _too_long(value, name: str = "") -> str | None:
    """The key of the first value in the payload that str() cannot write,
    or None."""
    if isinstance(value, dict):
        found = (_too_long(v, f"{name}.{k}" if name else k) for k, v in value.items())
    elif isinstance(value, list):
        found = (_too_long(v, name) for v in value)
    else:
        try:
            str(value)
        except ValueError:
            return name
        return None
    return next(filter(None, found), None)


# each row command's columns, in CSV and text; a new column goes last
_COLUMNS = {
    "analyze": (
        "instance", "n", "content_removed", "s", "multiplicities", "degree_deficit",
        "genus", "dstar", "irreducible", "bertrand_prime", "case_at_bertrand",
        "case_at_override", "warning", "error",
    ),
    "bound": (
        "instance", "p", "case", "name", "quantity", "exact", "floor", "hypothesis",
        "conditional", "error",
    ),
    "verify": (
        "instance", "box", "count", "x", "y", "kind", "check", "status", "detail", "error",
    ),
}


def _items(command: str, row: dict) -> list[dict]:
    """What a row adds to each CSV record or text item line: one per bound
    entry, or per solution and then per check; else one empty item."""
    if command == "bound":
        items = [
            {"p": rep["p"], "case": rep["case"], **e}
            for rep in row.get("reports", ())
            for e in rep["entries"]
        ]
    elif command == "verify":
        items = [{"kind": "solution", "x": x, "y": y} for x, y in row.get("solutions", ())]
        items += [{"kind": "check", **c} for c in row.get("checks", ())]
    else:
        items = []
    return items or [{}]


def _format(payload: dict, fmt: str) -> str:
    if fmt == "json":
        # d* is a Fraction, written as its str
        return json.dumps(payload, indent=2, sort_keys=True, default=str)
    command = payload["command"]
    columns = _COLUMNS[command]
    if fmt == "text":
        return _render_text(command, columns, payload["rows"])
    buf = io.StringIO()
    writer = csv.DictWriter(buf, columns, lineterminator="\n")
    writer.writeheader()
    for row in payload["rows"]:
        for item in _items(command, row):
            record = {**row, **item}
            writer.writerow({c: record.get(c) for c in columns})
    return buf.getvalue().removesuffix("\n")


def _render_text(command: str, columns: tuple, rows: list[dict]) -> str:
    """The command, then per row `- <first column>`, each other column the
    row sets as `key: value`, and one line of `key=value` cells per item
    that sets any; a None value is left out, as CSV leaves its cell empty."""
    lines = [command]
    for row in rows:
        lines.append(f"- {row[columns[0]]}")
        lines += [f"    {c}: {row[c]}" for c in columns[1:] if row.get(c) is not None]
        for item in _items(command, row):
            cells = [f"{c}={item[c]}" for c in columns if item.get(c) is not None]
            if cells:
                lines.append("      " + " ".join(cells))
    return "\n".join(lines)


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors are input errors (exit 3), not argparse's exit 2,
    which here means a checked property failed."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


# the fermat verbs, in the order an error names other verbs' options
_FERMAT_VERBS = ("construct", "check", "orbit")
# every fermat option in parser order: (the verb that reads it, None for
# all three; whether that verb requires it; its argparse keywords)
_FERMAT_OPTIONS = {
    "t1": ("construct", True, {}),
    "t2": ("construct", True, {}),
    "t": ("orbit", True, {}),
    "n": (None, True, {"type": int, "required": True}),
    "A": ("check", True, {"type": int}),
    "B": ("check", True, {"type": int}),
    "C": ("check", True, {"type": int}),
    "p": ("check", True, {"type": int}),
    "box": ("check", False, {"type": _positive_int}),
    "symmetric": ("orbit", False, {"action": "store_true"}),
    "hypothesis": ("check", False, {}),
    "out": (None, False, {}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="thuecc", description="Thue equation bound toolkit")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_instance(name):
        sp = sub.add_parser(name)
        sp.add_argument("--F", help="comma-separated coefficients, highest x power first")
        sp.add_argument("--h", type=int)
        sp.add_argument("--corpus", help="JSON-lines file of {coeffs, h}")
        sp.add_argument("--p", type=int, help="prime override (must exceed n)")
        sp.add_argument("--format", choices=["json", "csv", "text"], default="json")
        sp.add_argument("--out")
        return sp

    add_instance("analyze")
    bp = add_instance("bound")
    vp = add_instance("verify")
    vp.add_argument("--box", type=_positive_int)
    for sp in (bp, vp):
        sp.add_argument("--hypothesis", help="kind[:value], e.g. mw_rank_value:1")

    fp = sub.add_parser("fermat")
    fp.add_argument("verb", choices=_FERMAT_VERBS)
    for k, (_, _, keywords) in _FERMAT_OPTIONS.items():
        fp.add_argument(f"--{k}", **keywords)
    return parser


# list options whose value may start with a minus sign
_LIST_OPTIONS = ("--F", "--t", "--t1", "--t2")


def _join_negative_lists(argv: list[str]) -> list[str]:
    """argv with `--F -1,2` written as `--F=-1,2`: argparse takes a value
    that starts with `-` and is not a plain number for an option."""
    out = []
    for arg in argv:
        if out and out[-1] in _LIST_OPTIONS and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    handlers = {
        "analyze": cmd_analyze,
        "bound": cmd_bound,
        "verify": cmd_verify,
        "fermat": cmd_fermat,
    }
    try:
        args = build_parser().parse_args(
            _join_negative_lists(sys.argv[1:] if argv is None else argv)
        )
        payload, code = handlers[args.cmd](args)
        _emit(payload, args)
    except (
        InputError,
        FormError,
        bnd.BoundError,
        fm.FermatError,
        padic.PrecisionError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
