"""The four benchmark workloads: seeded inputs, ops, and the correctness gate.

An op is one ``check(prop, f, horizon)`` call, or for ``horizon_ladder`` one
in-process ``promov.cli.main(["check", ...])`` call.  Each workload draws its
inputs from a fixed pool whose every verdict digest and op cost was recorded
at the seed commit (``reference.json``, written by ``record.py``).  The draw
is balanced: the seed makes CANDIDATES random draws and keeps the one whose
recorded op costs have the mean, median and 90th percentile closest to the
pool's typical draw.  So seeds change the inputs but hardly their cost
profile, and figures from different seeds are comparable.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import statistics
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

# promov functions are looked up on their modules at call time, so that a
# tracer installed after import sees every call
from promov import checkers, cli, families, oracle
from promov.checkers import PROPERTIES, Horizon

REFERENCE = Path(__file__).resolve().parent / "reference.json"

FINITE_POOL_SEED = 0
FINITE_POOL = 480
SEQUENCE_POOL = 256          # random_sequence_morphism seeds per backend
BACKENDS = ("abelian", "pointed_set")
LADDER_POOL = 32             # family seeds per seeded sequence family
LADDER_FAMILIES = ("abelian_sequence", "set_sequence")
LADDER_RUNGS = ((6, 12, 13, 13), (10, 30, 31, 31), (14, 52, 53, 53))
EXAMPLE_DOCS = tuple(f"example_2_27/{sel}"
                     for sel in ("morphism", "source_system", "target_system"))
# per workload: (member key prefix, members drawn with it); horizon_ladder
# also always runs the EXAMPLE_DOCS
DRAWS = {
    "finite_corpus": (("", 120),),
    "transfer_constant": (("", 30),),
    "sequence_corpus": (("abelian/", 64), ("pointed_set/", 64)),
    "horizon_ladder": (("abelian_sequence/", 2), ("set_sequence/", 2)),
}
ORACLE_SAMPLE = 24           # finite_corpus members re-decided by the oracle per run
ORACLE_CAP = 100_000         # oracle work units per check; bounds the gate's time
CANDIDATES = 400             # random draws a balanced draw chooses from


@dataclass
class Op:
    key: str                  # reference key, "<member>:<property>"
    fn: Callable              # runs the op; returns a Verdict or a CLI (exit, text) pair


def digest(v) -> str:
    """Status, witness indices and rules, and refutation of a verdict."""
    witnesses = [(repr(w.mu), repr(w.index), w.rule) for w in v.witnesses]
    r = v.refutation
    refutation = None if r is None else (repr(r.mu), repr(r.index), repr(r.deeper), r.reason)
    return hashlib.sha256(repr((v.status, witnesses, refutation)).encode()).hexdigest()[:16]


def verdict_of(result):
    """The Verdict an op produced; ValueError when a CLI op did not give one."""
    if not isinstance(result, tuple):
        return result
    code, text = result
    if code == cli.EXIT_PARSE:
        raise ValueError("the CLI refused the input (exit 2)")
    v = cli.verdict_from_dict(json.loads(text))
    if cli.exit_code_for(v) != code:
        raise ValueError(f"exit code {code} does not match status {v.status}")
    return v


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# balanced draws


def sampling_plan(name: str, members) -> tuple:
    """(groups, how many to draw from each, members always included)."""
    fixed = list(EXAMPLE_DOCS) if name == "horizon_ladder" else []
    rest = sorted(m for m in members if m not in fixed)
    groups = [[m for m in rest if m.startswith(prefix)] for prefix, _ in DRAWS[name]]
    return groups, [count for _, count in DRAWS[name]], fixed


def random_draw(rng: random.Random, plan) -> list:
    groups, counts, fixed = plan
    return list(fixed) + [m for g, c in zip(groups, counts) for m in rng.sample(g, c)]


def cost_profile(members, cost_ms: dict) -> tuple:
    """Mean, median and 90th percentile of the members' recorded op costs."""
    costs = [c for m in members for c in cost_ms[m]]
    q = statistics.quantiles(costs, n=10, method="inclusive")
    return statistics.fmean(costs), q[4], q[8]


def balanced_draw(rng: random.Random, plan, cost_ms: dict, target) -> list:
    """Of CANDIDATES random draws, the one whose cost profile is closest to
    ``target`` (smallest largest relative deviation)."""
    def deviation(members):
        return max(abs(p - t) / t for p, t in zip(cost_profile(members, cost_ms), target))

    return min((random_draw(rng, plan) for _ in range(CANDIDATES)), key=deviation)


# ---------------------------------------------------------------------------
# pools: member key -> a function that builds the member's ops on fresh inputs


def _check(prop, f, horizon):
    return checkers.check(prop, f, horizon)


def _library_ops(member: str, build: Callable, horizon=Horizon()) -> list:
    f = build()
    return [Op(f"{member}:{prop}", partial(_check, prop, f, horizon)) for prop in PROPERTIES]


def finite_pool(corpus: list) -> dict:
    return {str(i): partial(_library_ops, str(i), lambda f=f: f)
            for i, f in enumerate(corpus)}


def _combo(f) -> str:
    a = f.source.object_at(0).factors
    ab = f.target.object_at(0).factors
    return ".".join(map(str, a)) + "/" + ".".join(map(str, ab[len(a):]))


def transfer_pool(rng: random.Random) -> dict:
    """Both morphisms for every (summand, complement) choice of
    domination_pair; the seed picks which pair seed supplies each choice."""
    seeds = {}
    for _ in range(100_000):
        s = rng.randrange(1 << 31)
        seeds.setdefault(_combo(families.domination_pair(s)[0]), s)
        if len(seeds) == 20:
            break
    else:
        raise RuntimeError("domination_pair did not produce all 20 summand choices")
    pool = {}
    for combo, s in sorted(seeds.items()):
        pool[f"{combo}/section"] = partial(
            _library_ops, f"{combo}/section", lambda s=s: families.domination_pair(s)[0])
        pool[f"{combo}/retraction"] = partial(
            _library_ops, f"{combo}/retraction",
            lambda s=s: families.retraction_with_section(s)[0])
    return pool


def sequence_pool() -> dict:
    return {f"{b}/{s}": partial(_library_ops, f"{b}/{s}",
                                lambda s=s, b=b: families.random_sequence_morphism(s, b))
            for b in BACKENDS for s in range(SEQUENCE_POOL)}


def _rung_tag(rung) -> str:
    return "h" + "-".join(map(str, rung))


def _cli_ops(member: str, path: Path) -> list:
    def run(argv):
        out = io.StringIO()
        return cli.main(argv, out), out.getvalue()

    ops = []
    for rung in LADDER_RUNGS:
        horizon = ["--horizon-mu", str(rung[0]), "--horizon-lambda", str(rung[1]),
                   "--horizon-muprime", str(rung[2]), "--cone-depth", str(rung[3])]
        for prop in PROPERTIES:
            ops.append(Op(f"{_rung_tag(rung)}/{member}:{prop}", partial(
                run, ["check", prop, str(path), "--format", "structured"] + horizon)))
    return ops


def ladder_docs() -> dict:
    docs = {m: {"index": {"kind": "nat"}, "family": "example_2_27",
                "select": m.split("/")[1]} for m in EXAMPLE_DOCS}
    for family in LADDER_FAMILIES:
        for s in range(LADDER_POOL):
            docs[f"{family}/{s}"] = {"index": {"kind": "nat"}, "family": family,
                                     "seed": str(s)}
    return docs


def ladder_pool(workdir: Path, members) -> dict:
    """Writes each member's instance document and returns its op builders."""
    docs = ladder_docs()
    pool = {}
    for member in members:
        path = workdir / (member.replace("/", "-") + ".json")
        path.write_text(json.dumps(docs[member]))
        pool[member] = partial(_cli_ops, member, path)
    return pool


# ---------------------------------------------------------------------------
# hand-written expectations: the four README claims of example 2.27


def _claim_movable_morphism(v):
    return v.status == "HoldsStabilized" and all(
        w.rule == "zero-map" and w.index == 2 * w.mu for w in v.witnesses)


def _claim_source_not_movable(v):
    return (v.status == "FailsAtHorizon" and v.refutation is not None
            and v.refutation.deeper == v.refutation.index + 1)


def _claim_target_not_movable(v):
    return v.status == "FailsAtHorizon"


def _claim_target_mittag_leffler(v):
    return v.status == "HoldsStabilized" and all(
        w.rule == ("zero-image" if w.mu == 0 else "epimorphic-bondings")
        for w in v.witnesses)


CLAIMS = {
    "example_2_27/morphism:movable": _claim_movable_morphism,
    "example_2_27/source_system:movable": _claim_source_not_movable,
    "example_2_27/target_system:movable": _claim_target_not_movable,
    "example_2_27/target_system:mittag_leffler": _claim_target_mittag_leffler,
}


# ---------------------------------------------------------------------------
# one workload instance: seeded selection, fresh ops per pass, the gate


class Workload:
    def __init__(self, name: str, seed: int, reference: dict, workdir: Path):
        self.name = name
        ref = reference[name]
        self.digests = ref["digests"]
        rng = random.Random(seed)
        members = balanced_draw(rng, sampling_plan(name, ref["cost_ms"]), ref["cost_ms"],
                                ref["target"])
        self.oracle_instances = []
        if name == "finite_corpus":
            corpus = families.finite_instance_corpus(FINITE_POOL_SEED, FINITE_POOL)
            pool = finite_pool(corpus)
            # only members the oracle decided within ORACLE_CAP at recording
            decidable = set(ref["oracle_members"])
            self.oracle_instances = [
                (m, corpus[int(m)])
                for m in rng.sample([m for m in members if m in decidable], ORACLE_SAMPLE)]
        elif name == "transfer_constant":
            pool = transfer_pool(rng)
        elif name == "sequence_corpus":
            pool = sequence_pool()
        elif name == "horizon_ladder":
            pool = ladder_pool(workdir, members)
        else:
            raise ValueError(f"unknown workload {name!r}")
        # members run in seeded order, each member's ops back to back in
        # property order, as at recording: the first op on a morphism fills
        # its bond cache, so op costs depend on what ran before on it
        rng.shuffle(members)
        self.builders = [pool[m] for m in members]
        self.ops = self.make_ops()

    def make_ops(self) -> list:
        """The run's ops on freshly built inputs (so no pass sees bond caches
        filled by an earlier one)."""
        return [op for build in self.builders for op in build()]

    def verify(self, results, with_oracle: bool) -> list:
        """Keys of failed ops: raised, digest differs from the reference,
        a README claim does not hold, or (finite_corpus) the oracle disagrees."""
        failed = []
        statuses = {}
        for op, result, error in results:
            try:
                if error is not None:
                    raise error
                v = verdict_of(result)
                expected = self.digests.get(op.key)
                if expected is None:
                    raise KeyError("no reference digest")
                if digest(v) != expected:
                    raise ValueError(f"verdict digest {digest(v)} != reference {expected}")
                claim = (CLAIMS.get(op.key.partition("/")[2])
                         if self.name == "horizon_ladder" else None)
                if claim is not None and not claim(v):
                    raise ValueError(f"README claim does not hold ({v.status})")
                statuses[op.key] = v.status
            except Exception as e:  # any op failure is counted, not fatal
                failed.append(f"{op.key}: {type(e).__name__}: {e}")
        for member, f in self.oracle_instances if with_oracle else ():
            for prop in PROPERTIES:
                key = f"{member}:{prop}"
                if key not in statuses:
                    continue
                try:
                    got = oracle.oracle_check(prop, f, cap=ORACLE_CAP).status
                except Exception as e:  # the oracle refusing is a gate failure
                    got = f"{type(e).__name__}: {e}"
                if statuses[key] != got:
                    failed.append(f"{key}: oracle says {got}, checker {statuses[key]}")
        return failed
