"""The benchmark's recorded verdict digests, sampled as a tier-1 test.

perfbench/workloads.py builds the ops of the benchmark's four pools, and
perfbench/reference.json holds the digest of every op's verdict (status,
witness indices and rules, refutation).  The benchmark counts an op whose
digest moved as failed; this test checks a sample of every pool, so a moved
digest fails the suite too.  It loads both files as they are and edits
neither.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

from promov import families

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                               PERFBENCH / "workloads.py")
# registered before it runs, as its dataclass looks its module up by name
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

RUNG = "h6-12-13-13/"
LADDER_SAMPLE = (*workloads.EXAMPLE_DOCS, "abelian_sequence/0", "set_sequence/0")


def _sampled_ops(workdir: Path):
    """(pool, op) for every 12th finite instance, the transfer pool at rng
    seed 0, every 16th sequence seed per backend, and example 2.27's docs
    plus one seed of each ladder family at the first rung."""
    corpus = families.finite_instance_corpus(workloads.FINITE_POOL_SEED,
                                             workloads.FINITE_POOL)
    pools = {
        "finite_corpus": {m: b for m, b in workloads.finite_pool(corpus).items()
                          if int(m) % 12 == 0},
        "transfer_constant": workloads.transfer_pool(random.Random(0)),
        "sequence_corpus": {m: b for m, b in workloads.sequence_pool().items()
                            if int(m.split("/")[1]) % 16 == 0},
        "horizon_ladder": workloads.ladder_pool(workdir, LADDER_SAMPLE),
    }
    for name, pool in pools.items():
        for build in pool.values():
            yield from ((name, op) for op in build()
                        if name != "horizon_ladder" or op.key.startswith(RUNG))


def test_sampled_benchmark_ops_match_their_recorded_digests(tmp_path):
    reference = workloads.load_reference()
    ops = list(_sampled_ops(tmp_path))
    assert len(ops) == 819
    moved = [f"{name} {op.key}" for name, op in ops
             if workloads.digest(workloads.verdict_of(op.fn()))
             != reference[name]["digests"][op.key]]
    assert moved == []
