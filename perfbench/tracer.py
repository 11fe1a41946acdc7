"""Outside-in span tracer for promov's layers.

The tracer replaces each traced function at every place it is bound (the
globals of every promov module, or its class) with a wrapper that records a
span, and puts the originals back on ``uninstall``.  No promov source file is
touched.  Spans nest on one stack, so a span's self time is its duration
minus the time of the spans it directly contains.

Recursive functions (``InverseSystem.bond``) count only their outermost span.
Opaque functions (the oracle and the ``families`` constructors) hide the
spans below them, so their self time is their whole duration and layer counts
stay about the checked operations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

SNF = "intlinalg.snf"
SCS = "intlinalg.solve_congruence_system"
SOLVE = "categories.solve_factorization"
BOND = "systems.InverseSystem.bond"
CHECK = "checkers.check"
FAMILIES = "families.all"
ORACLE = "oracle.oracle_check"

PROPERTIES = ("movable", "strongly_movable", "uniformly_movable", "co_movable",
              "strongly_co_movable", "uniformly_co_movable", "mittag_leffler")

# (metric name, unit); the per-layer metrics a traced run prints, in order
PER_LAYER = (
    [(f"{SNF}.calls", "count"), (f"{SNF}.self_ms", "ms"), (f"{SNF}.cells", "count"),
     (f"{SCS}.calls", "count"), (f"{SCS}.self_ms", "ms"), (f"{SCS}.unsolvable", "count"),
     (f"{SOLVE}.calls", "count"), (f"{SOLVE}.self_ms", "ms"),
     (f"{SOLVE}.distinct", "count"), (f"{SOLVE}.unsolvable", "count"),
     (f"{SOLVE}.abelian_calls", "count"), (f"{SOLVE}.pointed_calls", "count")]
    + [(f"categories.{fn}.{stat}", unit)
       for fn in ("compose", "morphisms_equal", "image_subobject")
       for stat, unit in (("calls", "count"), ("self_ms", "ms"))]
    + [(f"{BOND}.calls", "count"), (f"{BOND}.self_ms", "ms"), (f"{BOND}.composes", "count"),
       ("systems.restrict.calls", "count"), ("systems.restrict.self_ms", "ms")]
    + [(f"indexsets.FiniteDirectedPoset.{fn}.{stat}", unit)
       for fn in ("leq", "greatest")
       for stat, unit in (("calls", "count"), ("self_ms", "ms"))]
    + [(f"{CHECK}.calls", "count"), (f"{CHECK}.self_ms", "ms")]
    + [(f"{CHECK}.{prop}.total_ms", "ms") for prop in PROPERTIES]
    + [(f"cli.{fn}.self_ms", "ms")
       for fn in ("morphism_from_doc", "verdict_to_dict", "main")]
    + [(f"{FAMILIES}.calls", "count"), (f"{FAMILIES}.self_ms", "ms")]
    + [(f"{ORACLE}.calls", "count"), (f"{ORACLE}.self_ms", "ms"),
       ("oracle.budget.spent", "count")]
    + [("trace.overhead_share", "ratio")]
)


class TraceError(RuntimeError):
    """A traced name is missing, or the recorded spans are inconsistent."""


class Tracer:
    def __init__(self):
        self.stack = []               # open spans: [name, child seconds, snf children]
        self.open = defaultdict(int)  # open span count per name (recursion guard)
        self.opaque = 0
        self.phase = "ops"
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.phase_self = defaultdict(float)
        self.problems = set()
        self.budgets = []
        self.errors = []
        self._undo = []
        self._abelian = None

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, after=None, recursive=False, opaque=False):
        tracer = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.opaque or (recursive and tracer.open[name]):
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            span = [name, 0.0, 0]
            stack.append(span)
            tracer.open[name] += 1
            tracer.opaque += opaque
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                tracer.opaque -= opaque
                tracer.open[name] -= 1
                stack.pop()
                if parent is not None:
                    parent[1] += dt
                own = dt - span[1]
                tracer.calls[name] += 1
                tracer.self_s[name] += own
                tracer.phase_self[tracer.phase] += own
            if after is not None:
                after(span, parent, args, result, dt)
            return result

        return wrapper

    def _targets(self):
        fams = importlib.import_module("promov.families")
        targets = [
            ("promov.intlinalg", "snf", dict(after=self._after_snf)),
            ("promov.intlinalg", "solve_congruence_system", dict(after=self._after_scs)),
            ("promov.categories", "solve_factorization", dict(after=self._after_solve)),
            ("promov.categories", "compose", dict(after=self._after_compose)),
            ("promov.categories", "morphisms_equal", {}),
            ("promov.categories", "image_subobject", {}),
            ("promov.systems", "InverseSystem.bond", dict(recursive=True)),
            ("promov.systems", "restrict", {}),
            ("promov.indexsets", "FiniteDirectedPoset.leq", {}),
            ("promov.indexsets", "FiniteDirectedPoset.greatest", {}),
            ("promov.checkers", "check", dict(after=self._after_check)),
            ("promov.cli", "morphism_from_doc", {}),
            ("promov.cli", "verdict_to_dict", {}),
            ("promov.cli", "main", {}),
            ("promov.oracle", "oracle_check", dict(opaque=True)),
        ]
        # every public constructor, under one name: they call one another
        for attr, obj in vars(fams).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == fams.__name__):
                targets.append(("promov.families", attr,
                                dict(name=FAMILIES, recursive=True, opaque=True)))
        return targets

    def install(self):
        """Wrap every target at every binding site; TraceError if one is missing."""
        for modname in ("promov", "promov.cli", "promov.oracle"):
            importlib.import_module(modname)
        self._abelian = importlib.import_module("promov.categories").FgAbelianObject
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "promov" or n.startswith("promov."))]
        try:
            for modname, qual, opts in self._targets():
                opts = dict(opts)
                name = opts.pop("name", modname.split(".", 1)[1] + "." + qual)
                self._install_one(modules, modname, qual, name, opts)
            self._install_budget_hook()
        except BaseException:
            self.uninstall()
            raise

    def _install_one(self, modules, modname, qual, name, opts):
        owner = importlib.import_module(modname)
        *path, attr = qual.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                raise TraceError(f"cannot trace {modname}.{qual}: {part} is missing")
        original = getattr(owner, attr, None)
        if not callable(original):
            raise TraceError(f"cannot trace {modname}.{qual}: name is missing")
        wrapper = self._wrap(name, original, **opts)
        if isinstance(owner, type):
            self._replace(owner, attr, wrapper)
            return
        sites = [(m, key) for m in modules for key, value in vars(m).items()
                 if value is original]
        for m, key in sites:
            self._replace(m, key, wrapper)
        if not sites:
            raise TraceError(f"cannot trace {modname}.{qual}: no binding site")

    def _replace(self, obj, attr, value):
        self._undo.append((functools.partial(setattr, obj), attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _install_budget_hook(self):
        oracle = importlib.import_module("promov.oracle")
        budget = getattr(oracle, "_Budget", None)
        if budget is None or not hasattr(budget, "__init__"):
            raise TraceError("cannot trace promov.oracle._Budget: name is missing")
        init = budget.__init__
        budgets = self.budgets

        def traced_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            budgets.append(obj)

        self._replace(budget, "__init__", traced_init)

    def uninstall(self):
        while self._undo:
            put, key, value = self._undo.pop()
            put(key, value)

    # -- counts recorded at span exit ----------------------------------------

    def _after_snf(self, span, parent, args, result, dt):
        a = args[0]
        self.counts[f"{SNF}.cells"] += a.rows * a.cols
        if parent is not None and parent[0] == SCS:
            parent[2] += 1

    def _after_scs(self, span, parent, args, result, dt):
        if result is None:
            self.counts[f"{SCS}.unsolvable"] += 1
        if span[2] != 1:
            self.errors.append(f"{SCS} span holds {span[2]} snf spans, expected 1")

    def _after_solve(self, span, parent, args, result, dt):
        p = args[0]
        self.problems.add(p)
        if result is None:
            self.counts[f"{SOLVE}.unsolvable"] += 1
        kind = "abelian_calls" if isinstance(p.source, self._abelian) else "pointed_calls"
        self.counts[f"{SOLVE}.{kind}"] += 1

    def _after_compose(self, span, parent, args, result, dt):
        if parent is not None and parent[0] == BOND:
            self.counts[f"{BOND}.composes"] += 1

    def _after_check(self, span, parent, args, result, dt):
        self.counts[f"{CHECK}.{args[0]}.total_ms"] += dt * 1e3

    # -- results ------------------------------------------------------------

    def check_consistency(self, walls: dict):
        """TraceError unless spans nested as expected and, per phase, self
        times sum to no more than that phase's wall time."""
        if self.stack:
            self.errors.append(f"{len(self.stack)} spans still open")
        for phase, spent in self.phase_self.items():
            if spent > walls.get(phase, 0.0) * 1.0001 + 1e-6:
                self.errors.append(f"self times in phase {phase!r} sum to {spent:.6f} s, "
                                   f"more than its wall time {walls.get(phase, 0.0):.6f} s")
        if self.errors:
            raise TraceError("; ".join(self.errors[:5]))

    def metrics(self, scale: float = 1.0) -> dict:
        """Every per-layer metric except trace.overhead_share; times are
        multiplied by ``scale`` (see calibrate.py)."""
        values = {k: v * scale if k.endswith("_ms") else v for k, v in self.counts.items()}
        for name in set(self.calls) | set(self.self_s):
            values[f"{name}.calls"] = self.calls[name]
            values[f"{name}.self_ms"] = self.self_s[name] * 1e3 * scale
        values[f"{SOLVE}.distinct"] = len(self.problems)
        values["oracle.budget.spent"] = sum(b.used for b in self.budgets)
        return {metric: float(values.get(metric, 0))
                for metric, _ in PER_LAYER if metric != "trace.overhead_share"}
