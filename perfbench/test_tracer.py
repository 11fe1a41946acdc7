"""Tests of the benchmark's tracer: pinned counts, loud failures, metric names.

    python3 -m pytest perfbench -q
"""

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from promov import checkers, families, intlinalg, oracle, systems  # noqa: E402
from promov.checkers import PROPERTIES, Horizon  # noqa: E402
from tracer import PER_LAYER, TraceError, Tracer  # noqa: E402

# The 21 checks of example 2.27 (the morphism and its two endpoint systems,
# seven properties each) at the default Horizon, then the oracle on the first
# three finite-corpus instances; counts measured at the seed commit.
EXAMPLE_2_27_COUNTS = {
    "intlinalg.snf.calls": 1188,
    "intlinalg.snf.cells": 5042,
    "intlinalg.solve_congruence_system.calls": 1188,
    "intlinalg.solve_congruence_system.unsolvable": 99,
    "categories.solve_factorization.calls": 1188,
    "categories.solve_factorization.distinct": 541,
    "categories.solve_factorization.unsolvable": 99,
    "categories.solve_factorization.abelian_calls": 1188,
    "categories.solve_factorization.pointed_calls": 0,
    "categories.compose.calls": 4153,
    "categories.morphisms_equal.calls": 1670,
    "categories.image_subobject.calls": 210,
    "systems.InverseSystem.bond.calls": 3628,
    "systems.InverseSystem.bond.composes": 170,
    "systems.restrict.calls": 2313,
    "indexsets.FiniteDirectedPoset.leq.calls": 0,
    "indexsets.FiniteDirectedPoset.greatest.calls": 0,
    "checkers.check.calls": 21,
    "families.all.calls": 2,
    "oracle.oracle_check.calls": 21,
    "oracle.budget.spent": 1415,
}


def traced_example():
    tracer = Tracer()
    tracer.install()
    walls = {}
    try:
        tracer.phase = "build"
        t0 = time.perf_counter()
        F, G, f = families.example_2_27()
        walls["build"] = time.perf_counter() - t0
        tracer.phase = "ops"
        t0 = time.perf_counter()
        for m in (f, systems.identity_morphism(F), systems.identity_morphism(G)):
            for prop in PROPERTIES:
                checkers.check(prop, m, Horizon())
        walls["ops"] = time.perf_counter() - t0
        tracer.phase = "oracle"
        t0 = time.perf_counter()
        for g in families.finite_instance_corpus(0, 3):
            for prop in PROPERTIES:
                oracle.oracle_check(prop, g)
        walls["oracle"] = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return tracer, walls


def test_example_2_27_counts_are_pinned():
    tracer, walls = traced_example()
    tracer.check_consistency(walls)
    metrics = tracer.metrics()
    assert {k: metrics[k] for k in EXAMPLE_2_27_COUNTS} == EXAMPLE_2_27_COUNTS
    assert metrics["checkers.check.self_ms"] > 0
    assert sum(tracer.phase_self.values()) <= sum(walls.values())


def test_uninstall_restores_every_binding_site():
    originals = (intlinalg.snf, checkers.solve_factorization, checkers.restrict,
                 systems.InverseSystem.__dict__["bond"], oracle._Budget.__init__)
    tracer = Tracer()
    tracer.install()
    assert checkers.solve_factorization is not originals[1]
    tracer.uninstall()
    assert (intlinalg.snf, checkers.solve_factorization, checkers.restrict,
            systems.InverseSystem.__dict__["bond"], oracle._Budget.__init__) == originals


def test_missing_name_fails_loudly_and_installs_nothing():
    class Broken(Tracer):
        def _targets(self):
            return super()._targets() + [("promov.systems", "no_such_function", {})]

    snf = intlinalg.snf
    with pytest.raises(TraceError, match="no_such_function"):
        Broken().install()
    assert intlinalg.snf is snf


def test_inconsistent_nesting_fails_loudly():
    tracer = Tracer()
    tracer.install()
    wrapped = intlinalg.snf
    intlinalg.snf = wrapped.__wrapped__  # an snf call the tracer cannot see
    try:
        t0 = time.perf_counter()
        a = intlinalg.IntMatrix.from_rows([[2, 0], [0, 3]])
        intlinalg.solve_congruence_system(a, [1, 1], [0, 0])
        wall = time.perf_counter() - t0
    finally:
        intlinalg.snf = wrapped
        tracer.uninstall()
    with pytest.raises(TraceError, match="snf spans"):
        tracer.check_consistency({"ops": wall})


def test_benchmark_json_names_every_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(PER_LAYER)
    assert {m["name"] for m in bench["end_to_end"]} == {
        "ops_per_s", "latency_p50_ms", "latency_p90_ms", "setup_s", "peak_rss_mb", "ok_share"}
