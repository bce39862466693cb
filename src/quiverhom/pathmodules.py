"""Combinatorial module calculus over monomial and truncated algebras.

The currency is the isomorphism class of a cyclic path module Ap (the left
ideal generated by a nonzero path p).  A class is determined by the vertex
v = t(p) together with the continuation set {c : c*p != 0}; the module is the
quotient of the projective at v by the span of the non-continuations.  Two
paths give isomorphic modules exactly when these data agree; the linear
engine cross-checks this criterion on random instances.

Syzygies are computed type-theoretically: the syzygy of a class is the sum of
the classes of the minimal non-continuations, which for a truncated algebra
reproduces the closed formula (paths of complementary length out of v).

Ownership: nothing the algebra holds points back to it, so an algebra and
everything derived from it are freed by reference counting alone.

* A `PathModuleCalculus` is a view: it holds its algebra strongly, and
  `calculus(algebra)` makes a fresh one on each call.
* The calculus tables (interned classes, syzygies, projective dimensions and
  the paths out of each vertex) live under one key of the algebra's memo.
* A `PathModuleClass` refers to its algebra weakly and holds its quiver,
  label and hash outright; reading `cls.algebra` after the algebra is gone
  raises `ReferenceError`.
"""

import hashlib
import weakref
from collections import Counter

from .errors import Indeterminate, InternalInvariantError, UnsupportedIdeal, ZeroPath
from .quiver import INFINITE, Path, analyze, graph_sccs


def calculus(algebra):
    """A path-module calculus view of the algebra.  The view holds the
    algebra; its tables live in the algebra's memo, so every view of one
    algebra shares the same classes, syzygies and projective dimensions."""
    return PathModuleCalculus(algebra)


class PathModuleClass:
    """Iso class of a cyclic path module, keyed by (vertex, continuation set).

    Holds its algebra through a weak reference, so the algebra's memo can
    keep classes without a reference cycle."""

    __slots__ = ("_algebra", "quiver", "vertex", "continuations", "representative",
                 "label", "projective", "dim_vector", "sort_key", "_targets", "_hash")

    def __init__(self, algebra, vertex, continuations, representative, all_from_v):
        self._algebra = weakref.ref(algebra)
        self.quiver = quiver = algebra.quiver
        self.vertex = vertex
        self.continuations = continuations
        self.representative = representative
        self.projective = continuations == all_from_v
        targets = {}
        for arrows in continuations:
            t = quiver.arrow_by_name[arrows[-1]].target if arrows else vertex
            targets[arrows] = t
        self._targets = targets
        dim = {}
        for t in targets.values():
            dim[t] = dim.get(t, 0) + 1
        self.dim_vector = dim
        self.sort_key = (vertex, tuple(sorted(continuations)))
        self._hash = hash((id(algebra), self.sort_key))
        self.label = self._make_label(algebra)

    def _make_label(self, algebra):
        if self.projective:
            return f"P_{self.vertex}"
        if self.continuations == frozenset({()}):
            return f"S_{self.vertex}"
        if algebra.kind == "truncated":
            k = algebra.ideal.k
            l = k - 1 - max(len(a) for a in self.continuations)
            return f"M[{self.vertex},{l}]"
        digest = hashlib.md5(repr(self.sort_key).encode()).hexdigest()[:6]
        return f"Ap@{self.vertex}#{digest}"

    @property
    def algebra(self):
        algebra = self._algebra()
        if algebra is None:
            raise ReferenceError(f"the algebra of path module class {self.label} "
                                 "has been freed")
        return algebra

    @property
    def total_dim(self):
        return len(self.continuations)

    def dim_vector_tuple(self):
        return tuple(self.dim_vector.get(v, 0) for v in self.quiver.vertices)

    def continuation_target(self, arrows):
        return self._targets[arrows]

    def __eq__(self, other):
        # live referents compare by identity; a dead one only to its own ref
        return (
            isinstance(other, PathModuleClass)
            and self._algebra == other._algebra
            and self.sort_key == other.sort_key
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return self.label


class ModuleMultiset:
    """A formal finite direct sum of path module classes with multiplicities."""

    def __init__(self, items=()):
        self.counts = Counter()
        for item in items:
            if isinstance(item, tuple):
                cls, mult = item
                if mult < 0:
                    raise ValueError("negative multiplicity")
                if mult:
                    self.counts[cls] += mult
            else:
                self.counts[item] += 1
        self.counts = +self.counts

    def __iter__(self):
        return iter(sorted(self.counts.items(), key=lambda kv: kv[0].sort_key))

    def __len__(self):
        return sum(self.counts.values())

    def is_empty(self):
        return not self.counts

    def classes(self):
        return sorted(self.counts, key=lambda c: c.sort_key)

    def add(self, other):
        out = ModuleMultiset()
        out.counts = +(self.counts + other.counts)
        return out

    def scale(self, k):
        out = ModuleMultiset()
        if k:
            out.counts = Counter({c: m * k for c, m in self.counts.items()})
        return out

    def key(self):
        return tuple(sorted((c.sort_key, m) for c, m in self.counts.items()))

    def __eq__(self, other):
        return isinstance(other, ModuleMultiset) and self.counts == other.counts

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        if not self.counts:
            return "0"
        parts = []
        for cls, mult in self:
            parts.append(cls.label if mult == 1 else f"{mult}*{cls.label}")
        return " + ".join(parts)


class PathModuleCalculus:
    """Classes, syzygies and projective dimensions of one algebra: a view
    that holds the algebra, over tables kept in the algebra's memo."""

    def __init__(self, algebra):
        if not algebra.is_monomial_like:
            raise UnsupportedIdeal(
                "path module calculus needs a monomial or truncated ideal"
            )
        self.algebra = algebra
        self._classes, self._syzygy, self._pd, self._all_from = algebra.memo(
            "calculus", lambda: _tables(algebra))

    # -- class construction ------------------------------------------------

    def _intern(self, vertex, continuations):
        key = (vertex, continuations)
        cls = self._classes.get(key)
        if cls is None:
            cls = PathModuleClass(
                self.algebra, vertex, continuations, None, self._all_from[vertex]
            )
            self._classes[key] = cls
        return cls

    def class_of(self, p):
        A = self.algebra
        p = A.path(p)
        if A.path_is_zero(p):
            raise ZeroPath(f"{p} is zero in the algebra")
        v = p.target
        conts = frozenset(
            arrows
            for arrows in self._all_from[v]
            if not A.tuple_is_zero(p.arrows + arrows)
        )
        cls = self._intern(v, conts)
        if cls.representative is None:
            cls.representative = p
        return cls

    def simple_class(self, v):
        return self._intern(v, frozenset({()}))

    def projective_class(self, v):
        return self._intern(v, self._all_from[v])

    def all_path_classes(self):
        """Deduplicated classes of every nonzero nontrivial path, sorted; a
        fresh list on each call."""
        return list(self.algebra.memo("all_path_classes", self._path_classes))

    def _path_classes(self):
        classes = {}
        for p in self.algebra.nonzero_nontrivial_paths():
            c = self.class_of(p)
            classes.setdefault(c.sort_key, c)
        return [classes[key] for key in sorted(classes)]

    # -- syzygies ------------------------------------------------------------

    def syzygy_class(self, cls):
        """Minimal cover kernel of the class, as a multiset of classes.

        The kernel of P_v -> M is spanned by the non-continuations; its
        minimal generators are the non-continuations whose longest proper
        initial segment still lies in the continuation set, and the sum of
        the corresponding cyclic modules is direct.
        """
        cached = self._syzygy.get(cls.sort_key)
        if cached is not None:
            return cached
        v = cls.vertex
        conts = cls.continuations
        gens = []
        for arrows in self._all_from[v]:
            if arrows in conts or not arrows:
                continue
            if arrows[:-1] in conts:
                gens.append(arrows)
        result = ModuleMultiset(
            self.class_of(Path(self.algebra.quiver, arrows)) for arrows in sorted(gens)
        )
        self._syzygy[cls.sort_key] = result
        return result

    def iterate_syzygy(self, multiset, steps=1):
        current = multiset
        for _ in range(steps):
            nxt = ModuleMultiset()
            for cls, mult in current.counts.items():
                if cls.projective:
                    continue
                nxt = nxt.add(self.syzygy_class(cls).scale(mult))
            current = nxt
        return current

    # -- annihilators and perfect pairs ---------------------------------------

    def annihilator_sets(self, p):
        """Minimal annihilating paths (L(p), R(p)) of a nonzero nontrivial path
        p, each sorted by (length, arrows).

        L(p): the nontrivial q out of t(p) with q*p = 0 whose one-arrow-shorter
        initial segment does not kill p (the syzygy generators of Ap).  R(p):
        the nontrivial q into s(p) with p*q = 0 whose one-arrow-shorter final
        segment does not.  Killing passes to extensions, so this is
        minimality among all proper segments."""
        p = self.algebra.path(p)
        if p.is_trivial():
            raise ZeroPath(f"{p} is trivial")
        if self.algebra.path_is_zero(p):
            raise ZeroPath(f"{p} is zero in the algebra")
        key = lambda q: (q.length, q.arrows)
        return (sorted(self._left_annihilators(p), key=key),
                sorted(self._right_annihilators(p), key=key))

    def _left_annihilators(self, p):
        A = self.algebra
        zero, a = A.tuple_is_zero, p.arrows
        out = []
        for i in A.basis_indices_from(p.target):
            q = A.basis[i]
            if q.arrows and zero(a + q.arrows) and not zero(a + q.arrows[:-1]):
                out.append(q)
        return out

    def _right_annihilators(self, p):
        A = self.algebra
        zero, a = A.tuple_is_zero, p.arrows
        out = []
        for i in A.basis_indices_into(p.source):
            q = A.basis[i]
            if q.arrows and zero(q.arrows + a) and not zero(q.arrows[1:] + a):
                out.append(q)
        return out

    def perfect_pair_successors(self):
        """Map p -> q over the nonzero nontrivial paths where (p, q) is a
        perfect pair: R(p) = {q} and L(q) = {p}.  Built once per algebra."""
        return self.algebra.memo("perfect_pairs", self._perfect_pairs)

    def _perfect_pairs(self):
        succ = {}
        for p in self.algebra.nonzero_nontrivial_paths():
            right = self._right_annihilators(p)
            if len(right) == 1 and self._left_annihilators(right[0]) == [p]:
                succ[p] = right[0]
        return succ

    # -- projective dimension -------------------------------------------------

    def closure(self, roots):
        """The classes reachable from roots under syzygy, roots included:
        sort_key -> class."""
        todo = list(roots)
        seen = {}
        while todo:
            c = todo.pop()
            if c.sort_key in seen:
                continue
            seen[c.sort_key] = c
            for child in self.syzygy_class(c).counts:
                todo.append(child)
        return seen

    def pd(self, cls):
        """Projective dimension of a class; INFINITE is certified by a
        reachable cycle in the class digraph, never by a step cap."""
        cached = self._pd.get(cls.sort_key)
        if cached is not None:
            return cached
        closed = self.closure([cls])
        succ = {
            key: [child.sort_key for child in self.syzygy_class(c).counts]
            for key, c in closed.items()
        }
        sccs = graph_sccs(list(succ), succ)
        infinite = set()
        for comp in sccs:
            if len(comp) > 1 or any(k in succ[k] for k in comp):
                infinite |= comp
        # Tarjan order is reverse topological: successors are finished first
        values = {}
        for comp in sccs:
            for key in comp:
                if key in infinite or any(values.get(ch) == INFINITE or ch in infinite
                                          for ch in succ[key]):
                    values[key] = INFINITE
                elif not succ[key]:
                    values[key] = 0 if closed[key].projective else None
                    if values[key] is None:
                        raise InternalInvariantError(
                            f"non-projective class {closed[key]} with empty syzygy"
                        )
                else:
                    values[key] = 1 + max(values[ch] for ch in succ[key])
        for key, val in values.items():
            self._pd[key] = val
        return values[cls.sort_key]

    def pd_multiset(self, multiset):
        if multiset.is_empty():
            return 0
        return max(self.pd(c) for c in multiset.counts)

    def norm(self, multiset):
        """Number of infinite-pd summands, counted with multiplicity."""
        return sum(m for c, m in multiset.counts.items() if self.pd(c) == INFINITE)

    # -- global dimension -------------------------------------------------------

    def gldim(self):
        return self.algebra.memo("gldim", self._gldim)

    def _gldim(self):
        value = max(self.pd(self.simple_class(v)) for v in self.algebra.quiver.vertices)
        formula = None
        if self.algebra.kind == "truncated":
            info = analyze(self.algebra.quiver)
            k = self.algebra.ideal.k
            if not info.is_acyclic:
                formula = INFINITE
            else:
                l = info.longest_path
                formula = 2 * (l // k) if l % k == 0 else 2 * (l // k) + 1
            if formula != value:
                raise InternalInvariantError(
                    f"global dimension mismatch: resolution {value} vs formula {formula}"
                )
        return GlobalDimension(value, formula)

    # -- periodicity ----------------------------------------------------------

    def is_periodic(self, multiset, cap=1000):
        """Decide whether the formal module returns to itself under syzygies.

        Stops early (not periodic) when the trajectory norm exceeds the
        starting norm or when it enters a cycle that misses the start; raises
        Indeterminate only at the configurable cap.
        """
        if multiset.is_empty():
            raise ZeroPath("periodicity test needs a nonempty module")
        norm0 = self.norm(multiset)
        seen = {multiset.key()}
        current = multiset
        for step in range(1, cap + 1):
            current = self.iterate_syzygy(current, 1)
            if current == multiset:
                return PeriodicityResult(True, step, step, "returned to start")
            if current.is_empty():
                return PeriodicityResult(False, None, step, "syzygy vanished")
            if self.norm(current) > norm0:
                return PeriodicityResult(False, None, step, "norm increased")
            key = current.key()
            if key in seen:
                return PeriodicityResult(False, None, step, "entered a cycle missing the start")
            seen.add(key)
        raise Indeterminate(f"periodicity undecided after {cap} syzygy steps")


def _tables(algebra):
    """The calculus tables of an algebra: interned classes, syzygies and
    projective dimensions (filled on use), and the basis paths out of each
    vertex.  None of them holds the algebra."""
    all_from = {
        v: frozenset(algebra.basis[i].arrows for i in algebra.basis_indices_from(v))
        for v in algebra.quiver.vertices
    }
    return {}, {}, {}, all_from


class GlobalDimension:
    def __init__(self, value, formula):
        self.value = value
        self.formula = formula

    def is_finite(self):
        return self.value != INFINITE

    def __repr__(self):
        v = "infinite" if self.value == INFINITE else str(self.value)
        return f"gldim={v}"


class PeriodicityResult:
    def __init__(self, periodic, period, steps_used, reason):
        self.periodic = periodic
        self.period = period
        self.steps_used = steps_used
        self.reason = reason

    def __repr__(self):
        if self.periodic:
            return f"periodic(period={self.period})"
        return f"not periodic ({self.reason})"


def pd_value_json(value):
    return "infinite" if value == INFINITE else value

