"""Tracing from outside the program: wrappers around the public functions of
each quiverhom module, installed only for a traced run and removed after it.

A span is (name, start, end, parent span index).  Spans are kept in memory
and written out when the run ends; per-name call counts, inclusive time and
self time (duration minus the time covered by direct child spans) are
aggregated as spans close.  Very hot entry points (algebra products, field
arithmetic) get counters only, installed in a pass of their own so that their
cost does not inflate the span times.
"""

import contextlib
import functools
import json
import sys
import time
from collections import Counter, defaultdict

from quiverhom import (
    algebra,
    algfile,
    cli,
    corpus,
    fields,
    gorenstein,
    igusa_todorov,
    linalg,
    modexpr,
    pathmodules,
    reps,
)

# (owner, attribute, span name, hook).  A hook sees (tracer, args, result)
# and records outcome counts.


def _iso_outcome(tracer, args, result):
    tracer.counts[f"reps.iso.{result.status}"] += 1


def _iso_sum_outcome(tracer, args, result):
    tracer.counts[f"reps.iso_sum.{result[0].status}"] += 1


def _rref_entries(tracer, args, result):
    a = args[1]
    tracer.counts["linalg.rref_entries"] += len(a) * (len(a[0]) if a else 0)


def _invert_singular(tracer, args, result):
    if result is None:
        tracer.counts["linalg.invert_singular"] += 1


SPANS = [
    (algfile, "parse_algebra_text", "algfile.parse", None),
    (algebra.BoundQuiverAlgebra, "__init__", "algebra.build", None),
    (pathmodules, "calculus", "pathmodules.calculus", None),
    (pathmodules.PathModuleCalculus, "syzygy_class", "pathmodules.syzygy_class", None),
    (pathmodules.PathModuleCalculus, "iterate_syzygy", "pathmodules.iterate_syzygy", None),
    (pathmodules.PathModuleCalculus, "pd", "pathmodules.pd", None),
    (pathmodules.PathModuleCalculus, "gldim", "pathmodules.gldim", None),
    (pathmodules.PathModuleCalculus, "is_periodic", "pathmodules.is_periodic", None),
    (pathmodules.PathModuleCalculus, "all_path_classes", "pathmodules.all_path_classes", None),
    (gorenstein, "cogorenstein_truncated", "gorenstein.cogorenstein", None),
    (gorenstein, "cogorenstein_monomial", "gorenstein.cogorenstein", None),
    (gorenstein, "find_periodic_module", "gorenstein.find_periodic", None),
    (gorenstein, "perfect_paths", "gorenstein.perfect_paths", None),
    (gorenstein, "gp_indecomposables", "gorenstein.gp_indecomposables", None),
    (igusa_todorov, "build_lattice", "igusa_todorov.build_lattice", None),
    (igusa_todorov, "rank_sequence", "igusa_todorov.rank_sequence", None),
    (igusa_todorov, "phidim_bounds", "igusa_todorov.phidim_bounds", None),
    (igusa_todorov, "phi_of_reps", "igusa_todorov.phi_of_reps", None),
    (igusa_todorov.HybridClassTable, "syzygy_expansion", "igusa_todorov.syzygy_expansion", None),
    (reps, "syzygy_rep", "reps.syzygy", None),
    (reps.Presentation, "__init__", "reps.presentation", None),
    (reps, "hom_space", "reps.hom_space", None),
    (reps, "hom_dim", "reps.hom_dim", None),
    (reps, "iso_test", "reps.iso", _iso_outcome),
    (reps, "iso_test_against_sum", "reps.iso_sum", _iso_sum_outcome),
    (reps, "decompose_against_catalog", "reps.decompose", None),
    (reps, "pd_rep", "reps.pd_rep", None),
    (linalg, "rref", "linalg.rref", _rref_entries),
    (linalg, "rank", "linalg.rank", None),
    (linalg, "invert", "linalg.invert", _invert_singular),
    (linalg, "nullspace", "linalg.nullspace", None),
    (linalg, "solve_many", "linalg.solve_many", None),
    (corpus, "algebra", "corpus.algebra", None),
    (corpus, "infinito_catalog", "corpus.catalog", None),
    (modexpr, "evaluate", "modexpr.evaluate", None),
    (cli, "main", "cli.main", None),
]

FIELD_METHODS = ("of", "add", "sub", "mul", "neg", "inv", "div", "is_zero")
COUNTERS = [(algebra.BoundQuiverAlgebra, "product_indices", "algebra.product_calls")] + \
    [(fields.Rationals, m, "fields.q_ops") for m in FIELD_METHODS] + \
    [(fields.PrimeField, m, "fields.fp_ops") for m in FIELD_METHODS]


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = Counter()
        self.calls = Counter()
        self.inclusive = defaultdict(float)  # outermost calls of each name only
        self.self_time = defaultdict(float)
        self._stack = []  # [span index, name, child time]
        self._depth = Counter()
        self.active = True

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside, e.g. while the benchmark checks an answer."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def span(self, name, fn, hook=None):
        stack, spans, depth = self._stack, self.spans, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), name, 0.0]
            spans.append(None)
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                duration = end - start
                spans[frame[0]] = (name, start, end, parent)
                self.calls[name] += 1
                self.self_time[name] += duration - frame[2]
                if not depth[name]:
                    self.inclusive[name] += duration
                if stack:
                    stack[-1][2] += duration
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


class Installed:
    """Patches every binding of each wrapped object and restores them on close:
    module attributes (including names other modules imported with `from`)
    and class attributes."""

    def __init__(self, tracer, spans=False, counters=False):
        self._restore = []
        plan = []
        if spans:
            plan += [(owner, attr, tracer.span(name, getattr(owner, attr), hook))
                     for owner, attr, name, hook in SPANS]
        if counters:
            plan += [(owner, attr, tracer.counter(key, getattr(owner, attr)))
                     for owner, attr, key in COUNTERS]
        importers = [m for name, m in list(sys.modules.items())
                     if m is not None and name.startswith("quiverhom")]
        for owner, attr, wrapper in plan:
            original = getattr(owner, attr)
            self._patch(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for module in importers:
                for key, value in list(vars(module).items()):
                    if value is original and module is not owner:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def close(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, counted):
    """The per-layer metrics, by the names BENCHMARK.json lists: spans and
    outcome counts from `tracer`, hot-path counters from `counted`."""
    c, inc, own, k = tracer.calls, tracer.inclusive, tracer.self_time, tracer.counts
    iso_sum_tests = c["reps.iso_sum"]
    return {
        "algfile.parse_calls": (c["algfile.parse"], "count"),
        "algfile.parse_s": (inc["algfile.parse"], "s"),
        "algebra.builds": (c["algebra.build"], "count"),
        "algebra.build_s": (inc["algebra.build"], "s"),
        "algebra.product_calls": (counted["algebra.product_calls"], "count"),
        "pathmodules.syzygy_class_calls": (c["pathmodules.syzygy_class"], "count"),
        "pathmodules.pd_calls": (c["pathmodules.pd"], "count"),
        "pathmodules.is_periodic_calls": (c["pathmodules.is_periodic"], "count"),
        "pathmodules.self_s": (sum(v for n, v in own.items() if n.startswith("pathmodules.")), "s"),
        "gorenstein.cogorenstein_s": (inc["gorenstein.cogorenstein"], "s"),
        "gorenstein.find_periodic_s": (inc["gorenstein.find_periodic"], "s"),
        "gorenstein.perfect_paths_s": (inc["gorenstein.perfect_paths"], "s"),
        "igusa_todorov.rank_sequence_calls": (c["igusa_todorov.rank_sequence"], "count"),
        "igusa_todorov.rank_sequence_s": (own["igusa_todorov.rank_sequence"], "s"),
        "igusa_todorov.phidim_bounds_s": (inc["igusa_todorov.phidim_bounds"], "s"),
        "igusa_todorov.phi_of_reps_s": (inc["igusa_todorov.phi_of_reps"], "s"),
        "igusa_todorov.syzygy_expansion_calls": (c["igusa_todorov.syzygy_expansion"], "count"),
        "reps.syzygy_calls": (c["reps.syzygy"], "count"),
        "reps.syzygy_s": (inc["reps.syzygy"], "s"),
        "reps.presentation_calls": (c["reps.presentation"], "count"),
        "reps.presentation_s": (inc["reps.presentation"], "s"),
        "reps.hom_space_calls": (c["reps.hom_space"], "count"),
        "reps.hom_space_s": (inc["reps.hom_space"], "s"),
        "reps.iso_tests": (c["reps.iso"], "count"),
        "reps.iso_s": (inc["reps.iso"], "s"),
        "reps.iso_isomorphic": (k["reps.iso.isomorphic"], "count"),
        "reps.iso_not_isomorphic": (k["reps.iso.not_isomorphic"], "count"),
        "reps.iso_undetermined": (k["reps.iso.undetermined"], "count"),
        "reps.iso_sum_tests": (iso_sum_tests, "count"),
        "reps.iso_sum_undetermined": (k["reps.iso_sum.undetermined"], "count"),
        "reps.iso_sum_hit_ratio": (_ratio(k["reps.iso_sum.isomorphic"], iso_sum_tests), "fraction"),
        "reps.decompose_calls": (c["reps.decompose"], "count"),
        "reps.decompose_s": (inc["reps.decompose"], "s"),
        "reps.pd_rep_calls": (c["reps.pd_rep"], "count"),
        "reps.pd_rep_s": (inc["reps.pd_rep"], "s"),
        "linalg.rref_calls": (c["linalg.rref"], "count"),
        "linalg.rref_s": (inc["linalg.rref"], "s"),
        "linalg.rref_entries": (k["linalg.rref_entries"], "count"),
        "linalg.invert_calls": (c["linalg.invert"], "count"),
        "linalg.invert_s": (inc["linalg.invert"], "s"),
        "linalg.invert_singular_ratio": (_ratio(k["linalg.invert_singular"], c["linalg.invert"]),
                                         "fraction"),
        "linalg.nullspace_calls": (c["linalg.nullspace"], "count"),
        "linalg.solve_many_calls": (c["linalg.solve_many"], "count"),
        "fields.q_ops": (counted["fields.q_ops"], "count"),
        "fields.fp_ops": (counted["fields.fp_ops"], "count"),
        "corpus.catalog_s": (inc["corpus.catalog"], "s"),
        "modexpr.evaluate_s": (inc["modexpr.evaluate"], "s"),
        "cli.main_self_s": (own["cli.main"], "s"),
    }
