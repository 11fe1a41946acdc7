"""Records reference.json: every pool op's verdict digest and cost.

    python3 perfbench/record.py

Run from the repository root, at the commit whose verdicts are the reference.
Each pool op is run once.  Its wall time, calibrated as in calibrate.py, is
its recorded cost, and ``target`` is the median cost profile of 401 random
draws, which workloads.balanced_draw matches.  Takes a few minutes.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads as w  # noqa: E402
from calibrate import Calibrator  # noqa: E402


def measure(pool: dict) -> tuple:
    """Runs every member's ops once; returns (digests, member -> op costs in ms)."""
    digests, cost_ms = {}, {}
    for member, build in pool.items():
        cal = Calibrator()
        cal.sample(4)
        costs = []
        for op in build():
            t0 = time.perf_counter()
            try:
                v = w.verdict_of(op.fn())
                digests[op.key] = w.digest(v)
            except Exception as e:  # left out of the reference: the op counts as failed
                print(f"no reference for {op.key}: {type(e).__name__}: {e}", file=sys.stderr)
            costs.append(time.perf_counter() - t0)
        cal.sample(4)
        cost_ms[member] = [float(f"{c * 1e3 * cal.scale():.4g}") for c in costs]
    return digests, cost_ms


def sampled(name: str, pool: dict) -> dict:
    digests, cost_ms = measure(pool)
    rng = random.Random(0)
    plan = w.sampling_plan(name, cost_ms)
    profiles = [w.cost_profile(w.random_draw(rng, plan), cost_ms) for _ in range(401)]
    target = [statistics.median(p[i] for p in profiles) for i in range(3)]
    return {"digests": digests, "cost_ms": cost_ms, "target": target}


def oracle_decidable(corpus: list) -> list:
    """Members on which the oracle decides every property within ORACLE_CAP."""
    out = []
    for i, f in enumerate(corpus):
        try:
            for prop in w.PROPERTIES:
                w.oracle.oracle_check(prop, f, cap=w.ORACLE_CAP)
        except w.oracle.OracleCapExceeded:
            continue
        out.append(str(i))
    return out


def main() -> int:
    ref = {"env": run.environment()}
    corpus = w.families.finite_instance_corpus(w.FINITE_POOL_SEED, w.FINITE_POOL)
    ref["finite_corpus"] = sampled("finite_corpus", w.finite_pool(corpus))
    ref["finite_corpus"]["oracle_members"] = oracle_decidable(corpus)
    ref["transfer_constant"] = sampled("transfer_constant", w.transfer_pool(random.Random(0)))
    ref["sequence_corpus"] = sampled("sequence_corpus", w.sequence_pool())
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
        ref["horizon_ladder"] = sampled("horizon_ladder",
                                        w.ladder_pool(Path(tmp), w.ladder_docs()))
    with open(w.REFERENCE, "w") as fh:
        json.dump(ref, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {w.REFERENCE}: "
          + ", ".join(f"{k} {len(v['digests'])} ops" for k, v in ref.items() if k != "env"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
