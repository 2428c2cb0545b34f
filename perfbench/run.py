"""treeinv benchmark: one workload as a closed loop over the public API.

Run from the repository root:

    python3 perfbench/run.py --workload invert --seed 1 --seconds 35 --trace 0

One client process sends the next request only after the previous one
returns; nothing else runs beside it.  Each request is one generated
map (see gen.py) put through a fixed sequence of public calls (see
workloads.py), and every result is checked.  Requests come in cycles of
the workload's map kinds and the loop stops at a cycle boundary, so
every run measures whole cycles and the same mix of work.

Times are stated in reference seconds: wall seconds scaled by a small
fixed kernel timed between calls, so that the host's changing speed
does not show as a change of the program (see speed.py).  The wall-clock
figures are printed beside them and kept in the report.

With --trace 0 the last stdout line carries the end-to-end metrics;
with --trace 1 it carries the per-layer metrics, taken from spans
recorded around each public call.  A traced run alternates traced and
untraced cycles (traced first, so the cold tree walks are seen) and
reports the throughput of each kind of cycle after the first, which
gives the tracing overhead.  The report and any spans are also written
to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import gen
from spans import Tracer
from speed import CAL_REF_S
from workloads import REQUESTS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_REPS = 11

# Child process for setup_s: times `import treeinv` up to a resolved
# BACKEND in a fresh interpreter, between two timings of the speed kernel
# (speed.py).  The interpreter's own start-up and the standard modules the
# kernel needs (fractions, statistics) come before the clock starts; no
# change to treeinv moves them, and process creation is the noisiest part
# of a spawn on a shared host.
SETUP_CHILD = """import sys, time
sys.path[:0] = sys.argv[1:3]
from speed import time_kernel
time_kernel()
before = time_kernel()
start = time.perf_counter()
import treeinv
treeinv.BACKEND
wall = time.perf_counter() - start
print(wall, before, time_kernel())"""


def import_treeinv():
    """The package from this checkout's src/, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "treeinv", "__init__.py")):
        sys.exit(f"perfbench: no treeinv sources under {SRC}")
    sys.path.insert(0, SRC)
    import treeinv

    if os.path.dirname(os.path.dirname(os.path.abspath(treeinv.__file__))) != SRC:
        sys.exit(f"perfbench: imported treeinv from {treeinv.__file__}, not {SRC}")
    return treeinv


def measure_setup() -> list[float]:
    """Reference seconds for a fresh interpreter to import treeinv and resolve BACKEND, per spawn.

    One untimed spawn first, so every timed one finds bytecode cached.
    Each import's wall seconds are scaled by the kernel timings taken
    around it in the same process, as requests are (see speed.py).
    """
    cmd = [sys.executable, "-c", SETUP_CHILD, SRC, HERE]
    subprocess.run(cmd, check=True, capture_output=True, cwd=ROOT)
    times = []
    for _ in range(SETUP_REPS):
        out = subprocess.run(cmd, check=True, capture_output=True, text=True, cwd=ROOT)
        wall, before, after = map(float, out.stdout.split())
        times.append(wall * CAL_REF_S / ((before + after) / 2))
    return times


def environment(api, seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the benchmark may run in an exported tree
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "treeinv")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".pyx")):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "backend": api.BACKEND,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile); with fewer than eleven samples it is
    the maximum, at percentile 100.
    """
    ordered = sorted(latencies)
    i = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def run_loop(api, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    request = REQUESTS[workload]
    stream = gen.cases(workload, seed)
    length = gen.cycle_length(workload)
    tracer = Tracer()
    traced_flags: list[bool | None] = []  # None: first cycle
    failures: list[tuple[str, list[str]]] = []
    start = perf_counter()
    last = 0.0
    cycle = 0
    # stop at the cycle boundary nearest the deadline
    while cycle == 0 or perf_counter() - start + last / 2 < seconds:
        traced = trace and cycle % 2 == 0
        batch = [next(stream) for _ in range(length)]
        cycle_start = perf_counter()
        for case in batch:
            rid = len(traced_flags)
            traced_flags.append(traced if cycle else None)
            try:
                with tracer.request(rid, traced):
                    checks = request(api, case, tracer)
                bad = [name for name, ok in checks.items() if not ok]
            except Exception as exc:  # the loop must go on; the request counts as failed
                bad = [f"raised {type(exc).__name__}: {exc}"]
            if bad:
                failures.append((case.name, bad))
        last = perf_counter() - cycle_start
        cycle += 1
    wall, latencies = tracer.speed.request_seconds(len(traced_flags))
    # reference seconds and requests of the cycles after the first, by traced flag
    later = {True: [0.0, 0], False: [0.0, 0]}
    for flag, lat in zip(traced_flags, latencies):
        if flag is not None:
            later[flag][0] += lat
            later[flag][1] += 1
    return {
        "latencies": latencies,
        "wall_latencies": wall,
        "calibrations": tracer.speed.samples,
        "failures": failures,
        "cycles": cycle,
        "tracer": tracer,
        "later": later,
    }


def end_to_end(loop: dict, setup: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics {name: (value, unit)}, and figures that qualify them."""
    lat = loop["latencies"]
    wall = loop["wall_latencies"]
    ok = len(lat) - len(loop["failures"])
    tail_value, tail_pct = tail(lat)
    return {
        "throughput_rps": (ok / sum(lat), "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (tail_value, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, {
        "latency_samples": len(lat),
        "latency_tail_percentile": tail_pct,
        "failed_ratio": len(loop["failures"]) / len(lat),
        "wall_throughput_rps": ok / sum(wall),
        "wall_latency_p50_s": statistics.median(wall),
        "calibration_median_s": statistics.median(loop["calibrations"]),
        "calibrations": len(loop["calibrations"]),
    }


def per_layer(loop: dict) -> dict:
    metrics = loop["tracer"].layer_metrics()
    rps = {}
    for traced, (busy, n) in loop["later"].items():
        rps[traced] = n / busy if busy else 0.0
    metrics["trace.traced_rps"] = (rps[True], "1/s")
    metrics["trace.untraced_rps"] = (rps[False], "1/s")
    metrics["trace.overhead_rps"] = (rps[False] - rps[True], "1/s")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(REQUESTS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    api = import_treeinv()
    setup = measure_setup()
    env = environment(api, args.seed)
    loop = run_loop(api, args.workload, args.seed, args.seconds, bool(args.trace))
    metrics, extra = end_to_end(loop, setup)
    if args.trace:
        metrics = per_layer(loop)

    attempted = len(loop["latencies"])
    failed = len(loop["failures"])
    print(f"treeinv benchmark: workload={args.workload} seconds={args.seconds} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"requests: {attempted} in {loop['cycles']} cycles, failed {failed} (failed_ratio {extra['failed_ratio']})")
    print(f"latency: {extra['latency_samples']} samples, tail at p{extra['latency_tail_percentile']:.1f}")
    print(
        f"speed: {extra['calibrations']} kernel timings, median {extra['calibration_median_s']:.6f} s "
        f"(reference {CAL_REF_S} s); wall throughput_rps {extra['wall_throughput_rps']:.6g}, "
        f"wall latency_p50_s {extra['wall_latency_p50_s']:.6g}"
    )
    for case_name, bad in loop["failures"][:20]:
        print(f"FAILED {case_name}: {', '.join(bad)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "attempted": attempted,
        "failed": failed,
        "failures": loop["failures"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": extra,
        "setup_samples_s": setup,
        "latencies_s": loop["latencies"],
        "wall_latencies_s": loop["wall_latencies"],
        "calibrations_s": loop["calibrations"],
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if args.trace:
        loop["tracer"].write(stem + ".spans.jsonl")

    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": report["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
