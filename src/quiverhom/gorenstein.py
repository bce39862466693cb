"""Gorenstein-projective classification and Co-Gorenstein decisions.

Perfect pairs (p, q): s(p) = t(q), pq = 0, R(p) = {q} and L(q) = {p}; a
perfect path lies on a cycle of perfect pairs, and the nonprojective
indecomposable Gorenstein-projective modules are exactly the cyclic modules
Ap for p perfect.  The periodic-module search walks the syzygy digraph of
path-module classes restricted to infinite-pd classes with a successor, the
one infinite-pd syzygy summand of multiplicity 1 (norm conservation makes the
infinite-pd flow a permutation along any period), finds cycles, and takes a
cycle class's steady state: padded with its finite-pd junk, a bundle whose
period is the cycle length by construction, with no step cap.
"""

from .errors import (
    InternalInvariantError,
    PreconditionViolated,
    UnsupportedIdeal,
)
from .pathmodules import ModuleMultiset, calculus
from .quiver import (
    analyze,
    final_subhearts,
    infinite_path_core,
    is_cycle_graph,
)


class PerfectPath:
    """A perfect path together with one relation-cycle through it."""

    def __init__(self, path, relation_cycle):
        self.path = path
        self.relation_cycle = relation_cycle  # (p_1, ..., p_n, p_1), pairwise perfect

    def to_json(self):
        return {
            "path": str(self.path),
            "path_both_orders": self.path.describe(),
            "relation_cycle": [str(p) for p in self.relation_cycle],
        }

    def __repr__(self):
        cyc = ", ".join(str(p) for p in self.relation_cycle)
        return f"PerfectPath({self.path}; cycle: {cyc})"


def _require_monomial_like(algebra):
    if not algebra.is_monomial_like:
        raise UnsupportedIdeal(
            "Gorenstein-projective machinery needs a monomial or truncated ideal"
        )


def perfect_pair_successors(algebra):
    """Map p -> q over all nonzero nontrivial paths where (p, q) is a perfect
    pair; each node has at most one successor since R(p) must be a singleton.
    The map is built once per algebra and kept in its memo."""
    _require_monomial_like(algebra)
    return calculus(algebra).perfect_pair_successors()


def _functional_cycles(succ, starts):
    """The cycles of a functional digraph (succ maps a node to its one
    successor), walking from each start in turn.  Each cycle is returned once,
    as a list beginning at the node where the first walk to reach it entered
    it."""
    cycles = []
    done = set()
    for start in starts:
        position = {}
        order = []
        cur = start
        while cur in succ and cur not in position and cur not in done:
            position[cur] = len(order)
            order.append(cur)
            cur = succ[cur]
        if cur in position:
            cycles.append(order[position[cur]:])
        done.update(order)
    return cycles


def perfect_paths(algebra):
    """All perfect paths, each with its relation-cycle; a fresh list on each
    call."""
    return list(algebra.memo("perfect_paths", lambda: _perfect_paths(algebra)))


def _perfect_paths(algebra):
    succ = perfect_pair_successors(algebra)
    on_cycle = {}
    for cycle in _functional_cycles(succ, succ):
        for i, p in enumerate(cycle):
            on_cycle[p] = PerfectPath(p, cycle[i:] + cycle[:i + 1])
    return [on_cycle[p] for p in sorted(on_cycle, key=lambda p: (p.length, p.arrows))]


def gp_indecomposables(algebra):
    """Classes of the nonprojective indecomposable Gorenstein-projective
    modules: one per perfect path, deduplicated by iso class; a fresh list on
    each call."""
    return list(algebra.memo("gp_indecomposables", lambda: _gp_indecomposables(algebra)))


def _gp_indecomposables(algebra):
    calc = calculus(algebra)
    out = []
    seen = set()
    for pp in perfect_paths(algebra):
        cls = calc.class_of(pp.path)
        if cls.sort_key not in seen:
            seen.add(cls.sort_key)
            out.append((cls, pp))
    return out


def is_self_injective_truncated(algebra):
    """A truncated algebra is self-injective exactly when its quiver is an
    oriented cycle graph."""
    if algebra.kind != "truncated":
        raise UnsupportedIdeal("the cycle-graph criterion applies to truncated ideals")
    return is_cycle_graph(algebra.quiver)


def is_cm_free(algebra):
    return not gp_indecomposables(algebra)


# -- periodic module search ----------------------------------------------------


def syzygy_cycles(algebra):
    """Cycles of the functional digraph on infinite-pd classes whose syzygy
    contains exactly one infinite-pd class counted with multiplicity.

    Along any syzygy period the norm is conserved, so every class supporting
    a periodic module passes this filter; completeness within path modules
    follows from second syzygies being path-module sums.  Returns a fresh
    list of cycles, each a list of (class, companions-multiset) in syzygy
    order.
    """
    _require_monomial_like(algebra)
    return list(algebra.memo("syzygy_cycles", lambda: _syzygy_cycles(algebra)))


def _syzygy_cycles(algebra):
    calc = calculus(algebra)
    succ = {c: nxt for c in calc.all_path_classes() if (nxt := calc.successor(c)) is not None}
    cycles = _functional_cycles(succ, sorted(succ, key=lambda c: c.sort_key))
    return [[(c, ModuleMultiset((d, m - (d == succ[c]))
                                for d, m in calc.syzygy_class(c).counts.items()))
             for c in cycle] for cycle in cycles]


class PeriodicModule:
    def __init__(self, multiset, period, base_class):
        self.multiset = multiset
        self.period = period
        self.base_class = base_class

    def to_json(self):
        return {
            "module": str(self.multiset),
            "period": self.period,
            "base_class": self.base_class.label,
        }

    def __repr__(self):
        return f"PeriodicModule({self.multiset}, period={self.period})"


def _padded_periodic_module(algebra, cycle):
    """The steady state of a syzygy cycle's base class: its period is the
    cycle length, the base class its one infinite-pd summand."""
    base = cycle[0][0]
    return PeriodicModule(calculus(algebra).steady_state(ModuleMultiset([base])),
                          len(cycle), base)


def find_periodic_module(algebra):
    """A periodic module on the first syzygy cycle, or None when no syzygy
    cycle exists."""
    cycles = syzygy_cycles(algebra)
    return _padded_periodic_module(algebra, cycles[0]) if cycles else None


def _counterexample(algebra):
    """The witness against Co-Gorenstein, as (periodic module, offending
    class), or None when every syzygy cycle is companion-free and GP.

    The first cycle with a class outside GP is rotated to that class (to its
    first class when some edge carries companions, since then no class on the
    cycle is GP) and padded; the offending class is the witness's first
    summand that is neither projective nor GP."""
    gp_keys = {cls.sort_key for cls, _ in gp_indecomposables(algebra)}
    for cycle in syzygy_cycles(algebra):
        has_companions = any(not comp.is_empty() for _c, comp in cycle)
        bad = [i for i, (c, _comp) in enumerate(cycle)
               if has_companions or c.sort_key not in gp_keys]
        if not bad:
            continue
        witness = _padded_periodic_module(algebra, cycle[bad[0]:] + cycle[:bad[0]])
        for cls in witness.multiset.classes():
            if not cls.projective and cls.sort_key not in gp_keys:
                return witness, cls
        raise InternalInvariantError("bad cycle produced a witness inside GP + projectives")
    return None


# -- membership in the stable infinite-syzygy category -------------------------


def omega_infinity_member(algebra, multiset):
    """Membership of a projective-free bundle in the stable infinite-syzygy
    category: equivalent to exact periodicity for syzygy-finite algebras."""
    if any(c.projective for c in multiset.counts):
        raise PreconditionViolated("membership test expects a projective-free module")
    return calculus(algebra).is_periodic(multiset)


# -- Co-Gorenstein decisions ------------------------------------------------------


class CoGorensteinVerdict:
    def __init__(self, verdict, branch, witness=None, offending_class=None, notes=(),
                 relation_cycles=None):
        self.verdict = verdict
        self.branch = branch
        self.witness = witness  # PeriodicModule for a "no"
        self.offending_class = offending_class
        self.notes = list(notes)
        self.relation_cycles = relation_cycles  # the perfect-path cycles

    def to_json(self):
        out = {"verdict": self.verdict, "branch": self.branch}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        if self.offending_class is not None:
            out["offending_class"] = self.offending_class.label
        if self.relation_cycles is not None:
            out["relation_cycles"] = [
                [str(p) for p in cyc] for cyc in self.relation_cycles
            ]
        if self.notes:
            out["notes"] = self.notes
        return out

    def __repr__(self):
        return f"CoGorenstein({self.verdict}, {self.branch})"


def cogorenstein_truncated(algebra):
    """Quiver-geometry decision for truncated algebras: Co-Gorenstein iff the
    quiver is acyclic, or a single oriented cycle, or its infinite-path core
    has no final subheart that is an oriented cycle graph."""
    if algebra.kind != "truncated":
        raise UnsupportedIdeal("the quiver criterion applies to truncated ideals")
    quiver = algebra.quiver
    info = analyze(quiver)
    if info.is_acyclic:
        return CoGorensteinVerdict(True, "acyclic")
    if info.is_cycle_graph:
        return CoGorensteinVerdict(True, "cycle_graph")
    core = infinite_path_core(quiver)
    hearts = final_subhearts(core)
    if not any(h.is_cycle_graph() for h in hearts):
        return CoGorensteinVerdict(True, "no_cycle_subheart")
    found = _counterexample(algebra)
    if found is None:
        raise InternalInvariantError(
            "cycle-graph subheart present but every syzygy cycle is Gorenstein-projective"
        )
    return CoGorensteinVerdict(False, "counterexample", *found)


def cogorenstein_monomial(algebra):
    """Search-based decision for monomial algebras, assembled from the
    periodic-cycle machinery and the perfect-path list: Co-Gorenstein iff
    every syzygy cycle is companion-free and consists of GP classes.

    For truncated inputs this is an independent cross-check of the quiver
    criterion.
    """
    _require_monomial_like(algebra)
    gp_cycles = [pp.relation_cycle for _cls, pp in gp_indecomposables(algebra)]
    notes = ["search-based assembly: exact cycles vs the perfect-path list"]
    found = _counterexample(algebra)
    if found is not None:
        return CoGorensteinVerdict(False, "counterexample", *found, notes,
                                   relation_cycles=gp_cycles)
    branch = "no_periodic_cycles" if not syzygy_cycles(algebra) else \
        "all_cycles_gorenstein_projective"
    return CoGorensteinVerdict(True, branch, notes=notes, relation_cycles=gp_cycles)
