"""Generate the benchmark's input pools and record the expected fields.

    python3 perfbench/record.py

run from the repository root, writes ``perfbench/reference/*.json``.
The pools come from a fixed generator seed, so the files are
reproducible.  Each entry's ``expect`` holds what the code at recording
time reported; runs of later code are compared against it.  Record
again only when a change is meant to alter results, and say so.

The generator emits only inputs the CLI accepts: the content of F
divides h, the model h z^n = F(x, y) is irreducible and F(x, 1) has at
least two distinct roots.  So every request expects exit code 0, and
recording stops with an error rather than drop an input the code
rejects.
"""

from __future__ import annotations

import json
import platform
import random
import sys
from math import gcd
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import sympy  # noqa: E402

import workloads as wl  # noqa: E402
from thuecc.enumerate import product_form_family  # noqa: E402
from thuecc.fermat import FermatError, SolutionTriple, solve_coefficients  # noqa: E402
from thuecc.forms import BinaryForm, FormError, ThueInstance  # noqa: E402
from thuecc.polyutil import vp_frac  # noqa: E402

POOL_SEED = 20261017

# verify-box: both parities of n; charts run where a prime p > n divides h;
# the cubic product form gives many sieve candidates per x, x^6+y^6 few.
# An odd number of instances, each of its own cost, puts the median
# latency inside one instance's repeats rather than between two.
VERIFY_BOX = [
    ([1, 0, -1, 10], 10),  # product_form_family([-1, 0, 1], 10), p = 5
    ([1, 0, 0, 0, 1], 17),  # p = 17
    ([1, 0, 0, 0, 0, 0, 1], 14),  # p = 7
]
VERIFY_BOX_BOX = 10**4
VERIFY_WARMUP_BOX = 300  # above the plain-scan limit, so the sieve runs

CORPUS_DEGREES = range(3, 13)
CORPUS_PER_FAMILY = 15
CORPUS_BOX = 20

COUNT_BANDS = [(150, 250), (250, 350), (350, 450)]
COUNT_DEGREES = range(3, 7)
COUNT_PER_CELL = 25
FERMAT_TWISTS = 40
FERMAT_BOX = 8
ORBITS = 40
ZERO_BOUNDS = 120


def accepted(coeffs, h) -> ThueInstance | None:
    try:
        inst = ThueInstance.build(BinaryForm.from_coeffs(coeffs), h)
    except FormError:
        return None
    if not inst.irreducible or inst.genus is None or inst.shape.s < 2:
        return None
    return inst


def random_form_instance(rng, n: int) -> dict:
    while True:
        coeffs = [rng.randint(-9, 9) for _ in range(n + 1)]
        if coeffs[0] == 0 or coeffs[-1] == 0:
            continue
        content = 0
        for c in coeffs:
            content = gcd(content, c)
        h = content * rng.choice([k for k in range(-30, 31) if k])
        if accepted(coeffs, h):
            return {"family": "random", "coeffs": coeffs, "h": h}


def certified_instance(rng, n: int, box: int) -> dict:
    primes = list(sympy.primerange(n + 1, 2 * n + 7))
    while True:
        p = rng.choice(primes)
        width = min(p - 1, 2 * box + 1)
        lo = rng.randint(-box, box - width + 1)
        roots = rng.sample(range(lo, lo + width), n)
        h = p * rng.choice([1, 2, 3, -1, -2, -3])
        inst, certified = product_form_family(roots, h)
        if accepted(list(inst.form.coeffs), inst.h):
            return {
                "family": "certified",
                "coeffs": list(inst.form.coeffs),
                "h": inst.h,
                "p": p,
                "certified": [list(s) for s in certified],
            }


def smooth_count_item(rng, n: int, band: tuple[int, int]) -> dict:
    primes = list(sympy.primerange(*band))
    while True:
        coeffs = [rng.randint(-9, 9) for _ in range(n + 1)]
        if coeffs[0] == 0:
            continue
        h = rng.choice([k for k in range(-30, 31) if k])
        content = 0
        for c in coeffs:
            content = gcd(content, c)
        if h % content:
            continue
        inst = accepted(coeffs, h)
        p = rng.choice(primes)
        if (
            inst is None
            or inst.shape.s != n
            or inst.h % p == 0
            or vp_frac(inst.dstar, p) != 0
        ):
            continue
        return {"coeffs": coeffs, "h": h, "p": p, "band": band[0]}


def fermat_twist_item(rng) -> dict:
    while True:
        p = rng.choice([5, 7])
        n = p - 1
        t1, t2 = (
            SolutionTriple(*(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(3)))
            for _ in range(2)
        )
        try:
            tw = solve_coefficients(t1, t2, n)
        except FermatError:
            continue
        if tw.C == 0 or (tw.A * tw.B) % p == 0:
            continue
        return {"A": tw.A, "B": tw.B, "C": tw.C, "n": n, "p": p, "box": FERMAT_BOX}


def orbit_item(rng) -> dict:
    return {
        "t": [rng.choice([k for k in range(-9, 10) if k]) for _ in range(3)],
        "n": rng.randint(3, 8),
        "symmetric": rng.random() < 0.5,
    }


def zero_bound_item(rng) -> dict:
    """Valuation sequence with a unit coefficient at index iu < p^2 - 2
    and integral coefficients after it."""
    p = rng.choice([5, 7, 11])
    iu = rng.randint(0, min(18, p * p - 3))
    vals: list = []
    for m in range(iu + rng.randint(2, 6)):
        if m < iu:
            vals.append(rng.choice([1, 1, 2, 3, "inf"]))
        elif m == iu:
            vals.append(0)
        else:
            vals.append(rng.choice([0, 0, 1, 2, "inf"]))
    return {"p": p, "vals": vals}


def record(kind: str, item: dict) -> dict:
    item = dict(item)
    raw = wl.execute(kind, item)
    item["expect"] = wl.fields(kind, raw)
    found = wl.problems(kind, item, raw)
    exits = item["expect"].get("exit", 0)
    if found or (any(exits) if isinstance(exits, list) else exits):
        raise SystemExit(f"input rejected at recording: {kind} {item}: {found}")
    if kind == "corpus" and not all(
        s in item["expect"]["solutions"] for s in item.get("certified", [])
    ):
        raise SystemExit(f"certified solution missing: {item}")
    return item


def write(name: str, body: dict) -> None:
    body = {
        "recorded_with": {
            "python": platform.python_version(),
            "sympy": sympy.__version__,
            "pool_seed": POOL_SEED,
        },
        **body,
    }
    path = wl.REFERENCE_DIR / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump(body, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {path}")


def main() -> None:
    rng = random.Random(POOL_SEED)

    def verify_item(coeffs, h, box):
        return record("verify", {"coeffs": coeffs, "h": h, "box": box})

    write(
        "verify_box",
        {
            "warmup": [verify_item(c, h, VERIFY_WARMUP_BOX) for c, h in VERIFY_BOX],
            "requests": [verify_item(c, h, VERIFY_BOX_BOX) for c, h in VERIFY_BOX],
        },
    )

    pool = []
    for n in CORPUS_DEGREES:
        for _ in range(CORPUS_PER_FAMILY):
            pool.append(random_form_instance(rng, n))
            pool.append(certified_instance(rng, n, CORPUS_BOX))
    warm = [random_form_instance(rng, 5), certified_instance(rng, 5, CORPUS_BOX)]
    write(
        "corpus_mixed",
        {
            "warmup": [record("corpus", i | {"box": CORPUS_BOX}) for i in warm],
            "pool": [record("corpus", i | {"box": CORPUS_BOX}) for i in pool],
        },
    )

    counts = [smooth_count_item(rng, 4, COUNT_BANDS[0])]  # warm-up entry
    for band in COUNT_BANDS:
        for n in COUNT_DEGREES:
            counts += [smooth_count_item(rng, n, band) for _ in range(COUNT_PER_CELL)]
    write(
        "local_counts",
        {
            "counts": [record("count", i) for i in counts],
            "fermat_check": [
                record("fermat-check", fermat_twist_item(rng)) for _ in range(FERMAT_TWISTS + 1)
            ],
            "fermat_orbit": [record("fermat-orbit", orbit_item(rng)) for _ in range(ORBITS + 1)],
            "zero_bound": [
                record("zero-bound", zero_bound_item(rng)) for _ in range(ZERO_BOUNDS + 1)
            ],
        },
    )


if __name__ == "__main__":
    main()
