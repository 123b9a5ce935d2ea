"""Golden test of the CLI output contract: exit code and stdout, byte for
byte, on a fixed set of calls recorded in ``tests/golden/cli.json``.

Regenerate the file only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from thuecc.cli import main

GOLDEN = Path(__file__).with_name("golden") / "cli.json"

VERIFY_FORMS = [("1,0,-1,10", "10"), ("1,0,0,0,1", "17"), ("1,0,0,0,0,0,1", "14")]
BENCHMARK_BOX = "10000"  # the box of the verify-box benchmark workload
LARGE_BOX = "100000"

CASES = [
    *(
        ["verify", f"--F={coeffs}", "--h", h, "--box", "300", "--hypothesis", "chabauty_lt_g"]
        for coeffs, h in VERIFY_FORMS
    ),
    ["analyze", "--F", "1,0,0,0,1", "--h", "17"],
    ["bound", "--F", "1,0,0,0,1", "--h", "17", "--hypothesis", "chabauty_lt_g"],
    ["fermat", "check", "--A", "1", "--B", "1", "--C", "17", "--n", "4", "--p", "5",
     "--box", "10", "--hypothesis", "mw_lt_threshold:1"],
    ["fermat", "orbit", "--t", "1,2,1", "--n", "4", "--symmetric"],
    *(
        ["verify", f"--F={coeffs}", "--h", h, "--box", BENCHMARK_BOX, "--hypothesis", "chabauty_lt_g"]
        for coeffs, h in VERIFY_FORMS
    ),
    *(
        ["verify", f"--F={coeffs}", "--h", h, "--box", LARGE_BOX, "--hypothesis", "chabauty_lt_g"]
        for coeffs, h in VERIFY_FORMS
    ),
    *(
        argv + ["--format", fmt]
        for argv in (
            ["analyze", "--F", "1,0,0,0,1", "--h", "17"],
            ["bound", "--F", "1,0,0,0,1", "--h", "17", "--hypothesis", "chabauty_lt_g"],
            ["verify", "--F=1,0,0,0,1", "--h", "17", "--box", "300", "--hypothesis", "chabauty_lt_g"],
        )
        for fmt in ("csv", "text")
    ),
]


def case_id(index: int) -> str:
    argv = CASES[index]
    name = " ".join(argv[:2])
    box = next((b for b in (BENCHMARK_BOX, LARGE_BOX) if b in argv), None)
    if "--format" in argv:
        name += f" --format {argv[argv.index('--format') + 1]}"
    return f"{name} --box {box}" if box else name


def run(argv) -> dict:
    out = StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue()}


def test_golden_covers_cases():
    assert [g["argv"] for g in json.loads(GOLDEN.read_text())] == CASES


@pytest.mark.parametrize("index", range(len(CASES)), ids=case_id)
def test_golden_output(index):
    golden = json.loads(GOLDEN.read_text())[index]
    got = run(golden["argv"])
    assert got["exit"] == golden["exit"]
    assert got["stdout"] == golden["stdout"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([run(argv) for argv in CASES], indent=1) + "\n")
