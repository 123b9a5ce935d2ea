"""Requests of the thuecc benchmark: how each kind runs, what it
reports, and how the report is checked.

Every request comes from a reference file under ``reference/``.  Each
entry holds the inputs and, under ``expect``, the mathematical fields
the code produced when the file was recorded (``record.py``).  A request
is correct when its exit codes are 0, its fields equal the recorded
ones, and the benchmark's own oracles agree (exact evaluation of every
reported solution, a plain double loop over small boxes, the Weil
interval for point counts, the Fermat equation for every class).

Only mathematical fields are compared, never payload bytes, so a change
of report format alone is not a failure.

The program is reached only through module attributes at call time
(``cli.main``, ``en.count_projective_smooth``, ...), so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from math import gcd
from pathlib import Path

import thuecc.cli as cli
import thuecc.enumerate as en
import thuecc.forms as forms
import thuecc.newton_zero as nz

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
HYPOTHESIS = "chabauty_lt_g"
INF = float("inf")


# ---------------------------------------------------------------------------
# Running one request


def run_cli(argv: list[str]) -> dict:
    """One in-process CLI call: exit code and parsed JSON payload.

    Coefficient lists are passed as ``--F=<list>``: argparse rejects
    ``--F -1,2,...`` because the value looks like an option.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    return {"exit": code, "payload": json.loads(text) if text.strip() else None}


def instance_args(item: dict) -> list[str]:
    return ["--F=" + ",".join(map(str, item["coeffs"])), "--h", str(item["h"])]


def execute(kind: str, item: dict) -> dict:
    """Run one request and return its raw outcome."""
    if kind == "verify":
        return run_cli(
            ["verify", *instance_args(item), "--box", str(item["box"]),
             "--hypothesis", HYPOTHESIS]
        )
    if kind == "corpus":
        return {
            "analyze": run_cli(["analyze", *instance_args(item)]),
            "bound": run_cli(["bound", *instance_args(item), "--hypothesis", HYPOTHESIS]),
            "verify": run_cli(
                ["verify", *instance_args(item), "--box", str(item["box"]),
                 "--hypothesis", HYPOTHESIS]
            ),
        }
    if kind == "count":
        inst = forms.ThueInstance.build(
            forms.BinaryForm.from_coeffs(item["coeffs"]), item["h"]
        )
        return {"count": en.count_projective_smooth(inst, item["p"]), "genus": inst.genus}
    if kind == "fermat-check":
        return run_cli(
            ["fermat", "check", f"--A={item['A']}", f"--B={item['B']}",
             f"--C={item['C']}", "--n", str(item["n"]), "--p", str(item["p"]),
             "--box", str(item["box"])]
        )
    if kind == "fermat-orbit":
        argv = ["fermat", "orbit", "--t=" + ",".join(map(str, item["t"])), "--n", str(item["n"])]
        return run_cli(argv + (["--symmetric"] if item["symmetric"] else []))
    if kind == "zero-bound":
        seq = nz.CoeffValuationSeq(
            item["p"], tuple(INF if v == "inf" else v for v in item["vals"])
        )
        rep = nz.zero_bound(seq)
        return {
            "first_unit_index": rep.first_unit_index,
            "zero_index": rep.zero_index,
            "bound": rep.bound,
            "branch": rep.branch,
        }
    raise ValueError(f"unknown request kind {kind!r}")


# ---------------------------------------------------------------------------
# Mathematical fields of an outcome


def _row(call: dict) -> dict:
    return call["payload"]["rows"][0]


def _analyze_fields(call: dict) -> dict:
    row = _row(call)
    return {
        "genus": row["genus"],
        "dstar": row["dstar"],
        "s": row["s"],
        "irreducible": row["irreducible"],
        "case_at_bertrand": row["case_at_bertrand"],
    }


def _bound_fields(call: dict) -> list:
    return [
        [rep["p"], rep["case"], sorted(e["floor"] for e in rep["entries"])]
        for rep in _row(call)["reports"]
    ]


def _solutions(call: dict) -> list:
    return sorted(list(s) for s in _row(call)["solutions"])


def fields(kind: str, raw: dict) -> dict:
    """The fields compared against the recorded ones."""
    if kind == "verify":
        return {"exit": raw["exit"], "solutions": _solutions(raw)}
    if kind == "corpus":
        return {
            "exit": [raw[c]["exit"] for c in ("analyze", "bound", "verify")],
            "analyze": _analyze_fields(raw["analyze"]),
            "bound": _bound_fields(raw["bound"]),
            "solutions": _solutions(raw["verify"]),
        }
    if kind == "fermat-check":
        payload = raw["payload"]
        return {
            "exit": raw["exit"],
            "classes": payload["classes"],
            "consistent": payload["consistent"],
        }
    if kind == "fermat-orbit":
        return {"exit": raw["exit"], "count": raw["payload"]["count"]}
    return dict(raw)  # count, zero-bound: already plain fields


# ---------------------------------------------------------------------------
# Oracles owned by the benchmark


def form_value(coeffs, x: int, y: int) -> int:
    n = len(coeffs) - 1
    return sum(c * x ** (n - i) * y**i for i, c in enumerate(coeffs))


def plain_solutions(coeffs, h: int, box: int) -> list:
    """Every coprime (x, y) with max(|x|, |y|) <= box and F(x, y) = h."""
    return [
        [x, y]
        for x in range(-box, box + 1)
        for y in range(-box, box + 1)
        if gcd(x, y) == 1 and form_value(coeffs, x, y) == h
    ]


def oracle_problems(kind: str, item: dict, got: dict) -> list[str]:
    """Disagreements between the outcome and checks the program does not run."""
    problems = []
    if kind in ("verify", "corpus"):
        for x, y in got["solutions"]:
            if gcd(x, y) != 1 or form_value(item["coeffs"], x, y) != item["h"]:
                problems.append(f"reported ({x},{y}) is not a primitive solution")
        if kind == "corpus" and got["solutions"] != plain_solutions(
            item["coeffs"], item["h"], item["box"]
        ):
            problems.append("solutions differ from the plain double loop")
    elif kind == "count":
        n, p, count = len(item["coeffs"]) - 1, item["p"], got["count"]
        g = (n - 1) * (n - 2) // 2  # smooth plane curve of degree n
        if got["genus"] != g:
            problems.append(f"genus {got['genus']} of a smooth degree-{n} model")
        if (count - p - 1) ** 2 > 4 * g * g * p or count > (n - 1) * (p + 1):
            problems.append(f"count {count} outside the Weil interval at p={p}")
    elif kind == "fermat-check":
        A, B, C, n = item["A"], item["B"], item["C"], item["n"]
        for x, y, z in got["classes"]:
            if A * x**n + B * y**n != C * z**n:
                problems.append(f"class ({x},{y},{z}) does not solve the twist")
    elif kind == "fermat-orbit":
        if got["count"] not in (item["n"] ** 2, 2 * item["n"] ** 2):
            problems.append(f"orbit count {got['count']} is not n^2 or 2n^2")
    elif kind == "zero-bound":
        if got["zero_index"] > got["bound"] or got["bound"] - got["first_unit_index"] not in (0, 1):
            problems.append("zero index above the bound, or bound not I or I+1")
    return problems


def problems(kind: str, item: dict, raw: dict) -> list[str]:
    """Every reason the outcome is wrong; empty when it is correct."""
    if "error" in raw:
        return [raw["error"]]
    try:
        got = fields(kind, raw)
    except (KeyError, IndexError, TypeError) as exc:
        return [f"unexpected report ({type(exc).__name__}: {exc})"]
    found = oracle_problems(kind, item, got)
    if got != item["expect"]:
        found.append(f"fields differ from the recorded ones: {got} != {item['expect']}")
    return found


# ---------------------------------------------------------------------------
# Workloads: schedules of rounds made from the seed


class Workload:
    """A named schedule of request rounds.

    A run measures whole rounds, so every run serves the same mix of
    request kinds and sizes whatever its length.
    """

    name = ""
    why = ""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        with open(REFERENCE_DIR / f"{self.name.replace('-', '_')}.json") as fh:
            self.ref = json.load(fh)

    def warmup(self) -> list[tuple[str, dict]]:
        """Requests run once before timing, so lazy set-up is done."""
        raise NotImplementedError

    def rounds(self) -> list[list[tuple[str, dict]]]:
        raise NotImplementedError

    def size(self) -> dict:
        raise NotImplementedError


class VerifyBox(Workload):
    name = "verify-box"
    why = (
        "verify at box 10^4 on three fixed forms of degree 3, 4 and 6, "
        "both parities: the CRT sieve tables and stripe scan dominate"
    )

    def warmup(self):
        return [("verify", item) for item in self.ref["warmup"]]

    def rounds(self):
        items = list(self.ref["requests"])
        self.rng.shuffle(items)
        return [[("verify", item) for item in items]]

    def size(self):
        items = self.ref["requests"]
        box = items[0]["box"]
        return {
            "instances": len(items),
            "degrees": sorted(len(i["coeffs"]) - 1 for i in items),
            "box": box,
            "cells_per_instance": (2 * box + 1) ** 2,
            "h": [i["h"] for i in items],
        }


class CorpusMixed(Workload):
    name = "corpus-mixed"
    why = (
        "analyze, bound and verify at box 20 over 300 seeded forms of degree "
        "3-12: the resultant, sympy kernels and charts dominate, not the scan"
    )
    # Every pool entry of a degree, half random forms, half certified
    # product forms.  A run serves a seeded prefix of the whole pool: a
    # seeded subset of it spread the metrics twice as much between seeds.
    per_degree = 30

    def warmup(self):
        return [("corpus", item) for item in self.ref["warmup"]]

    def rounds(self):
        """Round r holds one instance of each degree, of one family, so any
        prefix of the schedule has the same degree mix."""
        by_key: dict[tuple, list] = {}
        for item in self.ref["pool"]:
            by_key.setdefault((len(item["coeffs"]) - 1, item["family"]), []).append(item)
        picked = {
            key: self.rng.sample(items, self.per_degree // 2)
            for key, items in sorted(by_key.items())
        }
        degrees = sorted({n for n, _ in by_key})
        out = []
        for r in range(self.per_degree):
            family = ("random", "certified")[r % 2]
            self.rng.shuffle(degrees)
            out.append([("corpus", picked[(n, family)][r // 2]) for n in degrees])
        return out

    def size(self):
        pool = self.ref["pool"]
        box = pool[0]["box"]
        degrees = sorted({len(i["coeffs"]) - 1 for i in pool})
        return {
            "instances": self.per_degree * len(degrees),
            "pool": len(pool),
            "degrees": [degrees[0], degrees[-1]],
            "box": box,
            "cells_per_instance": (2 * box + 1) ** 2,
            "chart_primes": sorted({i["p"] for i in pool if "p" in i}),
        }


class LocalCounts(Workload):
    name = "local-counts"
    why = (
        "projective point counts mod p in 150-450 plus fermat check/orbit "
        "and zero_bound: one large modulus swept in full by the F_p kernel"
    )
    # requests of each kind in one round, keyed by reference list
    per_round = {"counts": 6, "fermat_check": 1, "fermat_orbit": 1, "zero_bound": 2}
    kinds = {
        "counts": "count",
        "fermat_check": "fermat-check",
        "fermat_orbit": "fermat-orbit",
        "zero_bound": "zero-bound",
    }

    def warmup(self):
        return [(kind, self.ref[key][0]) for key, kind in self.kinds.items()]

    def rounds(self):
        """Counts alternate over the three bands of p, so every round has
        two counts from each band."""
        pools = {}
        for key in self.kinds:
            pools[key] = list(self.ref[key][1:])  # entry 0 is the warm-up request
            self.rng.shuffle(pools[key])
        bands = sorted({i["band"] for i in pools["counts"]})
        by_band = [[i for i in pools["counts"] if i["band"] == b] for b in bands]
        pools["counts"] = [i for group in zip(*by_band) for i in group]
        streams = {key: itertools.cycle(items) for key, items in pools.items()}
        out = []
        for _ in range(len(pools["counts"]) // self.per_round["counts"]):
            reqs = [
                (self.kinds[key], next(streams[key]))
                for key, k in self.per_round.items()
                for _ in range(k)
            ]
            self.rng.shuffle(reqs)
            out.append(reqs)
        return out

    def size(self):
        ref = self.ref
        return {
            "count_requests": len(ref["counts"]) - 1,
            "count_degrees": sorted({len(i["coeffs"]) - 1 for i in ref["counts"]}),
            "count_primes": [min(i["p"] for i in ref["counts"]), max(i["p"] for i in ref["counts"])],
            "fermat_check": {
                "twists": len(ref["fermat_check"]) - 1,
                "n": sorted({i["n"] for i in ref["fermat_check"]}),
                "box": ref["fermat_check"][0]["box"],
            },
            "fermat_orbit": {
                "triples": len(ref["fermat_orbit"]) - 1,
                "n": sorted({i["n"] for i in ref["fermat_orbit"]}),
            },
            "zero_bound": {
                "sequences": len(ref["zero_bound"]) - 1,
                "p": sorted({i["p"] for i in ref["zero_bound"]}),
            },
            "round": {self.kinds[key]: k for key, k in self.per_round.items()},
        }


WORKLOADS = {w.name: w for w in (VerifyBox, CorpusMixed, LocalCounts)}
