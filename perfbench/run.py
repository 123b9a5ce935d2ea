"""thuecc benchmark: closed-loop runs of one workload, end to end or traced.

    python3 perfbench/run.py --workload verify-box --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.
One client sends one request at a time and waits for it (no threads,
no pool).  A run serves whole rounds of its workload until the summed
request latencies reach ``--seconds``.  Before each request sympy's
cache is cleared, so each request starts as cold as a fresh CLI process
would, and a repeated input gains nothing from an earlier one.

The host shares its cores with other tenants and its speed drifts by
up to 2x over seconds.  So every timing the result reports is scaled
to a reference host speed: a fixed pure-Python loop (the probe) is timed between
requests, at least every ``PROBE_EVERY_S`` of busy time, and each
latency is scaled by ``REF_PROBE_S`` over the mean of the probes just
before and just after it.  A change to thuecc leaves the probe as it is, so the scaled
figures move with the program and far less with the host.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` serves each
round untraced and then again traced, and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it, prefixed ``info``, records the machine, versions, workload size,
the unscaled figures and the figures that are not metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
COLD_STARTS = 9
PROBE_LOOPS = 100_000
REF_PROBE_S = 0.010  # the probe's typical time on the 2-vCPU Xeon host
PROBE_EVERY_S = 0.5

# A fresh interpreter that imports the CLI; it reports the import split.
COLD_START = """\
import sys, time
t0 = time.perf_counter()
import sympy
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import thuecc.cli
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import thuecc from this checkout's src/, and nothing else."""
    if not (SRC / "thuecc" / "cli.py").is_file():
        fail(f"no thuecc sources under {SRC}: run from the repository root")
    sys.path.insert(0, str(SRC))
    import thuecc

    if Path(thuecc.__file__).resolve().parent != (SRC / "thuecc").resolve():
        fail(f"thuecc was imported from {thuecc.__file__}, not from {SRC}")


def probe() -> float:
    """Time of a fixed pure-Python integer loop: the host's speed now."""
    t0 = perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return perf_counter() - t0


class Clock:
    """Request latencies, with probes of the host's speed between them.

    A probe runs before the first request, after each ``PROBE_EVERY_S``
    of busy time and at ``close``.  A latency is scaled to the reference
    speed by the mean of the probes that bound its segment.
    """

    def __init__(self):
        self.probes = [probe()]
        self.latencies: list[float] = []
        self.segments: list[int] = []
        self.busy = 0.0
        self.since_probe = 0.0

    def add(self, latency: float) -> None:
        self.latencies.append(latency)
        self.segments.append(len(self.probes) - 1)
        self.busy += latency
        self.since_probe += latency
        if self.since_probe >= PROBE_EVERY_S:
            self.probes.append(probe())
            self.since_probe = 0.0

    def close(self) -> None:
        if self.segments and self.segments[-1] == len(self.probes) - 1:
            self.probes.append(probe())

    def scaled(self) -> list[float]:
        return [
            lat * 2 * REF_PROBE_S / (self.probes[k] + self.probes[k + 1])
            for lat, k in zip(self.latencies, self.segments)
        ]


class ColdStarts:
    """Fresh interpreters that each import ``thuecc.cli``.

    They are spread over the run, between requests, so that their median
    sees the host's several speeds rather than the one of a burst.  Each
    start is scaled by the probes just before and just after it.  The
    first start is discarded: it writes the bytecode caches.
    """

    def __init__(self, count: int):
        self.count = count
        self.samples: list[tuple[float, float, float, float]] = []
        self._start()

    def _start(self) -> tuple[float, float, float, float]:
        before = probe()
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", COLD_START, str(SRC)],
            capture_output=True,
            text=True,
            timeout=60,
            cwd=ROOT,
        )
        wall = perf_counter() - t0
        after = probe()
        if proc.returncode != 0:
            fail(f"cold start failed: {proc.stderr.strip()[-500:]}")
        sympy_s, thuecc_s = (float(v) for v in proc.stdout.split())
        return wall, wall * 2 * REF_PROBE_S / (before + after), sympy_s, thuecc_s

    def keep_pace(self, share: float) -> None:
        """Start interpreters until `share` of the count have run."""
        while len(self.samples) < min(self.count, math.ceil(self.count * share)):
            self.samples.append(self._start())

    def summary(self) -> dict:
        self.keep_pace(1.0)
        walls, scaled, sympy_s, thuecc_s = zip(*self.samples)
        return {
            "setup_s": statistics.median(scaled),
            "unscaled_setup_s": statistics.median(walls),
            "import_sympy_s": statistics.median(sympy_s),
            "import_thuecc_s": statistics.median(thuecc_s),
            "starts": len(scaled),
        }


def serve(requests, clock: Clock, tracer=None, between=None) -> list[dict]:
    """Closed loop: each request is sent after the previous one returns."""
    from sympy.core.cache import clear_cache

    import workloads as wl

    outcomes = []
    for kind, item in requests:
        if between:
            between()
        clear_cache()
        t0 = perf_counter()
        with tracer.request(kind) if tracer else nullcontext():
            try:
                raw = wl.execute(kind, item)
            except Exception:  # a traceback is a failed request, not a crash
                raw = {"error": traceback.format_exc(limit=-3).strip()}
        clock.add(perf_counter() - t0)
        outcomes.append(raw)
    return outcomes


def serve_rounds(rounds, seconds: float, starts: ColdStarts, tracer=None) -> dict:
    """Whole rounds until the summed latencies reach `seconds`, with the
    cold starts keeping pace with the busy time.

    With a tracer, each round is served untraced and then again traced,
    so the two passes see the same machine load.
    """
    from tracing import wrapped_layers

    run = {"served": [], "clock": Clock(), "outcomes": [], "traced": Clock(), "traced_out": []}

    def between():
        starts.keep_pace((run["clock"].busy + run["traced"].busy) / seconds)

    for rnd in itertools.cycle(rounds):
        run["served"] += rnd
        run["outcomes"] += serve(rnd, run["clock"], between=between)
        if tracer:
            with wrapped_layers(tracer):
                run["traced_out"] += serve(rnd, run["traced"], tracer, between)
        if run["clock"].busy + run["traced"].busy >= seconds:
            run["clock"].close()
            run["traced"].close()
            return run


def check(served, outcomes) -> list[list[str]]:
    """The problems of each request; an empty list means it was correct."""
    import workloads as wl

    return [wl.problems(kind, item, raw) for (kind, item), raw in zip(served, outcomes)]


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    import sympy

    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sympy": sympy.__version__,
    }


def per_layer_metrics(tracer, setup: dict, overhead: float) -> dict:
    from tracing import TARGETS

    summary = tracer.summary()
    empty = {"calls": 0, "self_s": 0.0, "fails": 0, "size": 0}
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for layer, fn_name, _ in TARGETS:
        agg = summary.get(f"{layer}.{fn_name}", empty)
        put(f"{layer}.{fn_name}.calls", agg["calls"], "count")
        put("cli.self_s" if layer == "cli" else f"{layer}.{fn_name}.self_s", agg["self_s"], "s")
        put(f"{layer}.{fn_name}.fails", agg["fails"], "count")
    stripes = summary.get("enumerate.scan_stripe", empty)
    counts = summary.get("enumerate.count_affine_points_mod_p", empty)
    tracks = summary.get("padic.hensel_track_roots", empty)
    put("enumerate.cells", stripes["size"], "count")
    put("enumerate.cells_per_s", stripes["size"] / stripes["self_s"] if stripes["calls"] else 0.0, "1/s")
    put("enumerate.fp_pairs_per_s", counts["size"] / counts["self_s"] if counts["calls"] else 0.0, "1/s")
    put(
        "padic.tracked_ratio",
        (tracks["calls"] - tracks["fails"]) / tracks["calls"] if tracks["calls"] else 0.0,
        "ratio",
    )
    put("setup.import_sympy_s", setup["import_sympy_s"], "s")
    put("setup.import_thuecc_s", setup["import_thuecc_s"], "s")
    put("trace.overhead_ratio", overhead, "ratio")
    return metrics


def layer_shares(tracer, total_s: float) -> dict:
    """Self time of each wrapped function as a share of traced request time."""
    shares = {
        name: round(agg["self_s"] / total_s, 4)
        for name, agg in tracer.summary().items()
    }
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def write_spans(workload: str, seed: int, tracer) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "spans": tracer.spans}, fh)
    return path


def run_one(args) -> int:
    load_program()
    import workloads as wl
    from tracing import Tracer

    starts = ColdStarts(COLD_STARTS)
    workload = wl.WORKLOADS[args.workload](args.seed)
    warm = workload.warmup()
    warm_out = serve(warm, Clock())

    tracer = Tracer() if args.trace else None
    run = serve_rounds(workload.rounds(), args.seconds, starts, tracer)
    setup = starts.summary()
    served, outcomes = run["served"], run["outcomes"]
    latencies, scaled = run["clock"].latencies, run["clock"].scaled()
    verdicts = check(warm, warm_out) + check(served, outcomes)
    info = {
        "machine": machine(),
        "workload": {"name": workload.name, "why": workload.why, "size": workload.size()},
        "seed": args.seed,
        "loop": "closed, one client, one request at a time",
        "setup": setup,
        "requests": len(served),
        "busy_s": round(run["clock"].busy, 3),
    }

    if tracer:
        traced_lat, traced_out = run["traced"].latencies, run["traced_out"]
        for (kind, _), plain, traced, found in zip(
            served, outcomes, traced_out, check(served, traced_out)
        ):
            try:
                same = wl.fields(kind, plain) == wl.fields(kind, traced)
            except (KeyError, IndexError, TypeError):
                same = False
            if not same:
                found.append("the traced result differs from the untraced one")
            verdicts.append(found)
        overhead = sum(traced_lat) / sum(latencies)
        metrics = per_layer_metrics(tracer, setup, overhead)
        info["trace"] = {
            "overhead_ratio": round(overhead, 4),
            "self_time_share": layer_shares(tracer, sum(traced_lat)),
            "spans_file": str(write_spans(workload.name, args.seed, tracer).relative_to(ROOT)),
        }
    else:
        metrics = {
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
            "req_per_s": {"value": len(scaled) / sum(scaled), "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(scaled) * 1e3, "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
        info["latency"] = {"samples": len(scaled)}
        if len(scaled) >= 100:  # at least ten samples beyond the 90th percentile
            p90 = statistics.quantiles(scaled, n=10, method="inclusive")[8]
            info["latency"]["p90_ms"] = round(p90 * 1e3, 3)
        probes = run["clock"].probes
        info["unscaled"] = {
            "req_per_s": round(len(latencies) / sum(latencies), 4),
            "latency_p50_ms": round(statistics.median(latencies) * 1e3, 3),
            "setup_s": round(setup["unscaled_setup_s"], 4),
            "probes": len(probes),
            "probe_ms": [round(q * 1e3, 3) for q in statistics.quantiles(probes, n=4)],
        }
    failed = sum(bool(found) for found in verdicts)
    info["fail_ratio"] = failed / len(verdicts)
    for found in [f for f in verdicts if f][:10]:
        print(f"problem: {'; '.join(found)[:800]}", file=sys.stderr)
    print("info " + json.dumps(info))
    result = {
        "correct": failed == 0,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table of the metrics."""
    rows, code = [], 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}")
            code = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        code |= not result["correct"]
        for metric, m in result["metrics"].items():
            rows.append(f"{name:<14} {metric:<48} {m['value']:>14.6g} {m['unit']}")
    print("\n".join(rows))
    return code


WORKLOAD_NAMES = ("verify-box", "corpus-mixed", "local-counts")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
