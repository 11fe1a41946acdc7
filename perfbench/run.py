"""promov benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  Each run starts fresh interpreters (see
worker.py): with ``--trace 0`` five that only set up, whose median start-up
time is ``setup_s``, then one that measures the end-to-end metrics; with
``--trace 1`` one that reports the per-layer metrics.  The last line of
standard output is the result object; the line before it records the
environment.  Exits non-zero, printing no result, if any child fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("finite_corpus", "transfer_constant", "sequence_corpus", "horizon_ladder")
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def environment() -> dict:
    """Python version, core count, load at start, and which code is measured."""
    src = ROOT / "src" / "promov"
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg_1m": os.getloadavg()[0], "commit": commit,
            "src_sha256": h.hexdigest()[:16]}


def start_worker(args, workdir: str, deadline: float, setup_only: bool):
    """Starts a worker; returns (process, wall seconds until it printed ``ready``)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        readable, _, _ = select.select([proc.stdout], [], [], deadline - time.monotonic())
        if not readable:
            raise BenchError("worker did not set up within the time limit")
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if line.strip() != "ready":
            raise BenchError(f"worker did not set up (exit {proc.wait(timeout=30)})")
        return proc, setup
    except BaseException:
        stop(proc)
        raise


def finish(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError("worker ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    env = environment()
    # workers are killed on timeout, so the directory they write in is ours
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
        try:
            setups, raw_setups = [], []
            if not args.trace:
                for _ in range(SETUP_PROBES):
                    proc, setup = start_worker(args, workdir, deadline, setup_only=True)
                    tag, scale = finish(proc, deadline).split()
                    if tag != "scale":
                        raise BenchError("setup probe did not report its calibration")
                    raw_setups.append(setup)
                    setups.append(setup * float(scale))
            proc, _ = start_worker(args, workdir, deadline, setup_only=False)
            result = json.loads(finish(proc, deadline).strip().splitlines()[-1])
        except (BenchError, ValueError, IndexError) as e:
            print(f"benchmark failed: {e}", file=sys.stderr)
            return 1
    raw = result.pop("raw")
    if setups:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        raw["setup_s"] = statistics.median(raw_setups)
    # uncalibrated figures go on the line before the result, for the record
    print(json.dumps({"env": env, "workload": args.workload, "seed": args.seed, "raw": raw}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
