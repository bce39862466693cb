"""Finite-dimensional bound quiver algebras kQ/I.

Three ideal shapes are supported:

* ``TruncatedIdeal(k)``   — I = J^k (all paths of length >= k vanish);
* ``MonomialIdeal(gens)`` — I generated by paths of length >= 2;
* ``RelationsIdeal(...)`` — rational linear combinations of equal-endpoint,
  equal-length paths, together with a nilpotency bound N with J^N inside I.

For the first two, the basis is the set of nonzero paths.  For the third the
basis is a set of path cosets selected degree by degree by exact row
reduction of the ideal's span: per degree and per (source, target) block,
one sparse {column: value} row per product prefix * relation * suffix,
reduced by `linalg.sparse_rref`; a non-pivot path is kept as a coset and a
pivot path expands into the kept ones, read off its rref row in column
order.  J^N <= I is verified (not assumed) by checking that the degree-N
layer of the span covers every degree-N path, which is a complete criterion
because the relations are length-homogeneous.

Products are always function-order: product_indices(i, j) traverses basis
path j first, then basis path i.  Algebras are immutable after build; the
values derived from a whole algebra (its path-module calculus tables, class
lists, perfect pairs, global dimension) are built on first use and kept in
its one memo table, see `memo`.  No memo value holds the algebra, so an
algebra is freed by reference counting, never only by the cyclic collector.

No build runs a self-check, because each construction guarantees the algebra
axioms.  For truncated and monomial ideals the product is path concatenation
followed by a zero test (`tuple_is_zero`), and a path with a zero subpath is
zero, so products associate.  For a relations ideal:

* a relation of degree d < N lies in the degree-d span that
  `_build_relations` row-reduces, so it reduces to 0;
* a relation of degree d >= N reduces to [] by the nilpotency rule;
* each degree's span contains every product prefix * relation * suffix, so
  the span is a two-sided homogeneous ideal, `reduce_path` is the coordinate
  map onto the quotient by it, and products of cosets associate.
"""

from . import linalg
from .errors import (
    BadRelation,
    InfiniteDimensional,
    NotAdmissible,
    UnsupportedIdeal,
)
from .fields import QQ
from .quiver import Path, compose


class TruncatedIdeal:
    kind = "truncated"

    def __init__(self, k):
        if k < 2:
            raise NotAdmissible(f"truncation exponent must be >= 2, got {k}")
        self.k = k

    def __repr__(self):
        return f"TruncatedIdeal(k={self.k})"


class MonomialIdeal:
    kind = "monomial"

    def __init__(self, generators):
        generators = tuple(generators)
        for g in generators:
            if g.length < 2:
                raise NotAdmissible(
                    f"monomial generator {g} has length {g.length}; admissibility needs length >= 2"
                )
        self.generators = generators

    def __repr__(self):
        return f"MonomialIdeal({[str(g) for g in self.generators]})"


class Relation:
    """A rational linear combination of paths sharing source, target and length."""

    def __init__(self, terms):
        terms = [(QQ.of(c), p) for c, p in terms]
        terms = [(c, p) for c, p in terms if c != 0]
        if not terms:
            raise BadRelation("empty relation")
        p0 = terms[0][1]
        for _, p in terms:
            if p.length < 2:
                raise BadRelation(f"relation term {p} has length {p.length} < 2")
            if (p.source, p.target) != (p0.source, p0.target):
                raise BadRelation("relation mixes endpoints")
            if p.length != p0.length:
                raise BadRelation(
                    "relation mixes path lengths; only length-homogeneous relations are supported"
                )
        self.terms = tuple(terms)
        self.source = p0.source
        self.target = p0.target
        self.degree = p0.length

    def __repr__(self):
        return " + ".join(f"{c}*{p}" for c, p in self.terms)


class RelationsIdeal:
    kind = "relations"

    def __init__(self, relations, nilpotency, radical_power_included=False):
        """radical_power_included: the ideal contains J^nilpotency as an
        explicit generator set; otherwise J^nilpotency <= I is verified by
        row reduction at degree nilpotency and the build fails loudly when
        the bound is wrong."""
        if nilpotency < 2:
            raise NotAdmissible(f"nilpotency bound must be >= 2, got {nilpotency}")
        self.relations = tuple(relations)
        self.nilpotency = nilpotency
        self.radical_power_included = radical_power_included

    def __repr__(self):
        extra = f" + J^{self.nilpotency}" if self.radical_power_included else ""
        return f"RelationsIdeal({len(self.relations)} relations{extra}, N={self.nilpotency})"


def _all_paths_up_to(quiver, max_len, max_size=None):
    """All paths of length <= max_len, grouped by length up to the longest
    one that exists.  Their size, a path of length l counting l + 1, above
    max_size raises InfiniteDimensional; the paths are counted per target
    vertex before any is built, so a long oriented cycle costs neither time
    nor memory."""
    ends = dict.fromkeys(quiver.vertices, 1)  # paths of the current length by target
    size = lengths = 0
    while lengths <= max_len and any(ends.values()):
        size += (lengths + 1) * sum(ends.values())
        if max_size is not None and size > max_size:
            raise InfiniteDimensional(_too_large(max_size, max_len))
        nxt = dict.fromkeys(quiver.vertices, 0)
        for a in quiver.arrows:
            nxt[a.target] += ends[a.source]
        ends = nxt
        lengths += 1
    by_len = [[Path.trivial(quiver, v) for v in quiver.vertices]]
    for _ in range(lengths - 1):
        by_len.append([p.then(a.name) for p in by_len[-1]
                       for a in quiver.arrows_from(p.target)])
    return by_len


def _too_large(max_size, max_len):
    return (f"the paths of length at most {max_len} exceed the size cap {max_size} "
            "(a path of length l counts l + 1)")


class BoundQuiverAlgebra:
    """kQ/I with an enumerated basis and exact structure constants."""

    def __init__(self, quiver, ideal, field=QQ, max_basis=None):
        """max_basis: optional hard cap on the size of the paths enumerated
        for the basis (for a relations ideal: every path up to the
        nilpotency bound), a path of length l counting l + 1, its arrows and
        its end; exceeding it aborts with InfiniteDimensional (keeps sampled
        instances and .alg files at desk scale)."""
        self.quiver = quiver
        self.ideal = ideal
        self.field = field
        self.kind = ideal.kind
        self.max_basis = max_basis
        self._product_cache = {}
        self._memo = {}
        if self.kind == "truncated":
            self.nilpotency = ideal.k
            self.basis = [p for paths in _all_paths_up_to(quiver, ideal.k - 1, max_basis)
                          for p in paths]
        elif self.kind == "monomial":
            self._zero_patterns = {g.arrows for g in ideal.generators}
            self._build_monomial()
            self.nilpotency = max((p.length for p in self.basis), default=0) + 1
        elif self.kind == "relations":
            self.nilpotency = ideal.nilpotency
            self._build_relations()
        else:
            raise UnsupportedIdeal(f"unknown ideal kind {ideal.kind!r}")
        self._index = {p: i for i, p in enumerate(self.basis)}
        self._from = {v: [] for v in quiver.vertices}
        self._into = {v: [] for v in quiver.vertices}
        for i, p in enumerate(self.basis):
            self._from[p.source].append(i)
            self._into[p.target].append(i)
        self.dimension = len(self.basis)

    # -- construction --------------------------------------------------

    def _build_monomial(self):
        gens = self.ideal.generators
        if not gens:
            # no relations: finite-dimensional only if acyclic
            from .quiver import analyze

            if not analyze(self.quiver).is_acyclic:
                raise InfiniteDimensional("path algebra of a cyclic quiver with empty ideal")
            bound = len(self.quiver.vertices)
        else:
            bound = len(self.quiver.arrows) * max(g.length for g in gens)
        basis = [Path.trivial(self.quiver, v) for v in self.quiver.vertices]
        frontier = list(basis)
        size = len(basis)
        while frontier:
            nxt = []
            for p in frontier:
                for a in self.quiver.arrows_from(p.target):
                    q = p.then(a.name)
                    if self.tuple_is_zero(q.arrows):
                        continue
                    if q.length > bound:
                        raise InfiniteDimensional(
                            f"nonzero path of length {q.length} exceeds the probe bound {bound}"
                        )
                    nxt.append(q)
            basis.extend(nxt)
            size += sum(q.length + 1 for q in nxt)
            if self.max_basis is not None and size > self.max_basis:
                raise InfiniteDimensional(_too_large(self.max_basis, bound))
            frontier = nxt
        self.basis = basis

    def _build_relations(self):
        N = self.nilpotency
        F = self.field
        by_len = _all_paths_up_to(self.quiver, N, self.max_basis)
        self._reduction = {}
        basis = [p for paths in by_len[:2] for p in paths]
        for p in basis:
            self._reduction[(p.arrows, p.vertex)] = [(p, F.one)]
        ending, starting = {}, {}  # (length, vertex) -> paths into / out of it
        for length, paths in enumerate(by_len):
            for p in paths:
                ending.setdefault((length, p.target), []).append(p)
                starting.setdefault((length, p.source), []).append(p)
        relations = [(rel, [(F.of(c), term.arrows) for c, term in rel.terms])
                     for rel in self.ideal.relations]

        # no path is longer than len(by_len) - 1: J^N = 0 when that is below N
        for degree in range(2, len(by_len)):
            # group the degree-d paths by (source, target); the paths of a
            # block are its columns, found through one position map per block
            blocks = {}
            for p in by_len[degree]:
                blocks.setdefault((p.source, p.target), []).append(p)
            position = {key: {q.arrows: j for j, q in enumerate(cols)}
                        for key, cols in blocks.items()}
            spans = {key: [] for key in blocks}
            for rel, terms in relations:
                pad = degree - rel.degree
                if pad < 0:
                    continue
                for lpre in range(pad + 1):
                    for pre in ending.get((lpre, rel.source), ()):
                        for suf in starting.get((pad - lpre, rel.target), ()):
                            key = (pre.source, suf.target)
                            pos = position.get(key)
                            if pos is None:
                                continue
                            row = {}
                            for c, arrows in terms:
                                j = pos[pre.arrows + arrows + suf.arrows]
                                row[j] = F.add(row.get(j, F.zero), c)
                            spans[key].append({j: x for j, x in row.items() if x})
            for key, cols in sorted(blocks.items()):
                red, pivots = linalg.sparse_rref(F, spans[key])
                pivot_set = set(pivots)
                if degree == N:
                    if self.ideal.radical_power_included:
                        continue
                    if len(pivots) != len(cols):
                        missing = [str(cols[j]) for j in range(len(cols)) if j not in pivot_set][:3]
                        raise NotAdmissible(
                            f"J^{N} is not contained in the ideal: degree-{N} path(s) "
                            f"{missing} survive the relation span"
                        )
                    continue
                kept = [cols[j] for j in range(len(cols)) if j not in pivot_set]
                for q in kept:
                    self._reduction[(q.arrows, q.vertex)] = [(q, F.one)]
                for row, pc in zip(red, pivots):
                    # the rref row is 1 at its pivot and 0 at the others
                    self._reduction[(cols[pc].arrows, cols[pc].vertex)] = [
                        (cols[j], F.neg(x)) for j, x in sorted(row.items()) if j != pc]
                if degree < N:
                    basis.extend(kept)
        self.basis = basis

    # -- queries --------------------------------------------------------

    def path(self, text_or_arrows):
        """Build a Path from 'a.b.c' text, an arrow-name sequence, or 'e_v'."""
        if isinstance(text_or_arrows, Path):
            return text_or_arrows
        if isinstance(text_or_arrows, str):
            if text_or_arrows.startswith("e_"):
                return Path.trivial(self.quiver, text_or_arrows[2:])
            parts = tuple(text_or_arrows.split("."))
        else:
            parts = tuple(text_or_arrows)
        return Path(self.quiver, parts)

    def index_of(self, path):
        return self._index[path]

    def basis_indices_from(self, v):
        return self._from[v]

    def basis_indices_into(self, v):
        return self._into[v]

    def path_is_zero(self, path):
        if self.is_monomial_like:
            return self.tuple_is_zero(path.arrows)
        if path.length >= self.nilpotency:
            return True
        return not self._reduction[(path.arrows, path.vertex)]

    def reduce_path(self, path):
        """Expand a path into the basis: list of (basis_index, coeff)."""
        if self.is_monomial_like:
            if self.tuple_is_zero(path.arrows):
                return []
            return [(self._index[path], self.field.one)]
        if path.length >= self.nilpotency:
            return []
        return [(self._index[q], c) for q, c in self._reduction[(path.arrows, path.vertex)]]

    def product_indices(self, i, j):
        """basis_i * basis_j in function order (traverse j first), as a
        sparse [(index, coeff)] vector; memoized."""
        key = (i, j)
        cached = self._product_cache.get(key)
        if cached is not None:
            return cached
        p, q = self.basis[i], self.basis[j]
        if p.source != q.target:
            result = []
        else:
            result = self.reduce_path(compose(p, q))
        self._product_cache[key] = result
        return result

    def memo(self, key, build):
        """The value stored under key, or build() stored there on first use."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build()
        return value

    @property
    def is_monomial_like(self):
        return self.kind in ("truncated", "monomial")

    def tuple_is_zero(self, arrows):
        """Zero test on a traversal-order arrow tuple, for a monomial or
        truncated ideal only (unchecked: the path-module calculus refuses
        every other kind)."""
        if self.kind == "truncated":
            return len(arrows) >= self.ideal.k
        for pat in self._zero_patterns:
            m = len(pat)
            if m <= len(arrows):
                for i in range(len(arrows) - m + 1):
                    if arrows[i : i + m] == pat:
                        return True
        return False

    def nonzero_nontrivial_paths(self):
        if not self.is_monomial_like:
            raise UnsupportedIdeal("path enumeration needs a monomial or truncated ideal")
        return [p for p in self.basis if not p.is_trivial()]

    # -- serialization -----------------------------------------------------

    def structure_constants_json(self):
        """Dense dump of all nonzero structure constants (debug aid)."""
        entries = []
        for i in range(self.dimension):
            for j in range(self.dimension):
                for k, c in self.product_indices(i, j):
                    entries.append([i, j, k, self.field.fmt(c)])
        return {
            "basis": [str(p) for p in self.basis],
            "entries": entries,
        }

    def __repr__(self):
        return (
            f"BoundQuiverAlgebra({self.kind}, dim={self.dimension}, "
            f"field={self.field.name})"
        )


def build_algebra(quiver, ideal, field=QQ, max_basis=None):
    return BoundQuiverAlgebra(quiver, ideal, field=field, max_basis=max_basis)
