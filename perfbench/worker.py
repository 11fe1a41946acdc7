"""One workload in one fresh interpreter; started by run.py, not by hand.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 --workdir D [--setup-only]

Prints ``ready`` once promov is imported and the inputs are built.  With
``--setup-only`` it then prints ``scale <x>``, the calibration scale (see
calibrate.py) measured right after set-up, and exits.  Otherwise it runs the
ops and prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from calibrate import EVERY_S, Calibrator

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def run_pass(ops, cal: Calibrator):
    """Each op once, back to back, with a calibration sample every EVERY_S.
    Returns (wall seconds of the ops alone, latencies, results)."""
    perf = time.perf_counter
    latencies, results = [], []
    wall = 0.0
    cal.sample(2)
    start = perf()
    for op in ops:
        t0 = perf()
        try:
            result, error = op.fn(), None
        except Exception as e:  # a raising op is a failed op, not a crash
            result, error = None, e
        t1 = perf()
        latencies.append(t1 - t0)
        results.append((op, result, error))
        if t1 - start >= EVERY_S:
            wall += t1 - start
            cal.sample(2)
            start = perf()
    return wall + perf() - start, latencies, results


def report_failures(failures, limit=5):
    for line in failures[:limit]:
        print(f"failed op {line}", file=sys.stderr)
    if len(failures) > limit:
        print(f"... and {len(failures) - limit} more failed ops", file=sys.stderr)


def timed_run(wl, seconds: float) -> dict:
    """Closed loop, one caller: whole passes over the ops until the next pass
    would end past ``seconds`` of measured time.  Inputs are rebuilt between
    passes, outside the measured time."""
    # a pass's inputs and verdicts are dropped before the next pass is built,
    # so peak_rss_mb does not grow with the number of passes
    ops, wl.ops = wl.ops, None
    cal = Calibrator()
    measured, latencies, attempted, failures = 0.0, [], 0, []
    while True:
        wall, lat, results = run_pass(ops, cal)
        ops = None
        failures += wl.verify(results, with_oracle=not attempted)
        measured += wall
        latencies += lat
        attempted += len(results)
        results = None
        if measured + wall > seconds:
            break
        ops = wl.make_ops()
    report_failures(failures)
    q = statistics.quantiles(latencies, n=100, method="inclusive")
    scale = cal.scale()
    raw = {"ops_per_s": attempted / measured, "latency_p50_ms": q[49] * 1e3,
           "latency_p90_ms": q[89] * 1e3}
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            "ops_per_s": {"value": raw["ops_per_s"] / scale, "unit": "1/s"},
            "latency_p50_ms": {"value": raw["latency_p50_ms"] * scale, "unit": "ms"},
            "latency_p90_ms": {"value": raw["latency_p90_ms"] * scale, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "ok_share": {"value": (attempted - len(failures)) / attempted, "unit": "share"},
        },
        "raw": dict(raw, scale=scale, measured_s=measured),
    }


def traced_run(wl, build) -> dict:
    """One untraced pass, then the same inputs rebuilt and run once traced."""
    from tracer import PER_LAYER, Tracer

    plain_cal, traced_cal = Calibrator(), Calibrator()
    plain_wall, _, results = run_pass(wl.ops, plain_cal)
    failures = wl.verify(results, with_oracle=False)
    tracer = Tracer()
    tracer.install()
    walls = {}
    try:
        tracer.phase = "build"
        t0 = time.perf_counter()
        traced = build()
        walls["build"] = time.perf_counter() - t0
        tracer.phase = "ops"
        walls["ops"], _, results = run_pass(traced.ops, traced_cal)
        tracer.phase = "oracle"
        t0 = time.perf_counter()
        failures += traced.verify(results, with_oracle=True)
        walls["oracle"] = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    tracer.check_consistency(walls)
    report_failures(failures)
    values = tracer.metrics(traced_cal.scale())
    values["trace.overhead_share"] = ((walls["ops"] * traced_cal.scale())
                                      / (plain_wall * plain_cal.scale()))
    units = dict(PER_LAYER)
    return {
        "correct": not failures,
        "attempted": 2 * len(results),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "raw": {"overhead_share": walls["ops"] / plain_wall},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True,
                        help="directory for instance documents, owned by the caller")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import promov
    if not Path(promov.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"promov was imported from {promov.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    reference = workloads.load_reference()

    def build():
        return workloads.Workload(args.workload, args.seed, reference, args.workdir)

    wl = build()
    print("ready", flush=True)
    if args.setup_only:
        cal = Calibrator()
        cal.sample(20)
        print(f"scale {cal.scale()!r}", flush=True)
        return 0
    result = traced_run(wl, build) if args.trace else timed_run(wl, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
