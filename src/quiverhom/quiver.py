"""Finite quivers, paths, and the graph analyses the classification needs.

Conventions, fixed once for the whole package:

* A path stores its arrows in TRAVERSAL order: ``Path(q, ("a", "b"))`` walks
  arrow ``a`` first, then ``b``, and requires t(a) = s(b).
* ``compose(p, q)`` is the function-order product: it is defined when
  s(p) = t(q) and traverses q first, then p.  Printing shows both notations.

All objects are immutable after construction; concurrent reads are safe.
"""

import math
from collections import namedtuple

from .errors import ComposeMismatch, ParseError

Arrow = namedtuple("Arrow", ["name", "source", "target"])

INFINITE = math.inf


class Quiver:
    """Finite directed multigraph with named vertices and arrows.

    Parallel arrows and loops are permitted; arrow names and vertex names
    must be unique and every arrow endpoint must be a declared vertex.
    """

    def __init__(self, vertices, arrows):
        vertices = tuple(str(v) for v in vertices)
        if not vertices:
            raise ParseError("a quiver needs at least one vertex")
        if len(set(vertices)) != len(vertices):
            raise ParseError("duplicate vertex names")
        arrow_list = []
        for a in arrows:
            if isinstance(a, Arrow):
                arrow_list.append(a)
            else:
                name, src, dst = a
                arrow_list.append(Arrow(str(name), str(src), str(dst)))
        names = [a.name for a in arrow_list]
        if len(set(names)) != len(names):
            raise ParseError("duplicate arrow names")
        vset = set(vertices)
        for a in arrow_list:
            if a.source not in vset or a.target not in vset:
                raise ParseError(f"arrow {a.name}: endpoint not a declared vertex")
        self.vertices = vertices
        self.arrows = tuple(arrow_list)
        self.arrow_by_name = {a.name: a for a in self.arrows}
        self._out = {v: tuple(a for a in self.arrows if a.source == v) for v in vertices}
        self._in = {v: tuple(a for a in self.arrows if a.target == v) for v in vertices}

    def arrows_from(self, v):
        return self._out[v]

    def arrows_into(self, v):
        return self._in[v]

    def out_degree(self, v):
        return len(self._out[v])

    def in_degree(self, v):
        return len(self._in[v])

    def full_subquiver(self, vertex_subset):
        vs = [v for v in self.vertices if v in set(vertex_subset)]
        arrows = [a for a in self.arrows if a.source in set(vs) and a.target in set(vs)]
        return Quiver(vs, arrows)

    def is_connected(self):
        """Connectivity of the underlying undirected graph."""
        if not self.vertices:
            return False
        adj = {v: set() for v in self.vertices}
        for a in self.arrows:
            adj[a.source].add(a.target)
            adj[a.target].add(a.source)
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

    def __eq__(self, other):
        return (
            isinstance(other, Quiver)
            and self.vertices == other.vertices
            and self.arrows == other.arrows
        )

    def __hash__(self):
        return hash((self.vertices, self.arrows))

    def __repr__(self):
        return f"Quiver({len(self.vertices)} vertices, {len(self.arrows)} arrows)"


class Path:
    """A composable arrow sequence in traversal order, or a trivial path e_v."""

    __slots__ = ("quiver", "arrows", "vertex", "_hash")

    def __init__(self, quiver, arrows=(), vertex=None):
        arrows = tuple(arrows)
        if arrows:
            try:
                seq = [quiver.arrow_by_name[n] for n in arrows]
            except KeyError as exc:
                raise ParseError(f"unknown arrow {exc.args[0]!r}") from None
            for prev, nxt in zip(seq, seq[1:]):
                if prev.target != nxt.source:
                    raise ComposeMismatch(
                        f"arrows {prev.name} and {nxt.name} do not compose in traversal order"
                    )
            vertex = None
        else:
            if vertex is None:
                raise ParseError("trivial path needs a vertex")
            vertex = str(vertex)
            if vertex not in quiver.vertices:
                raise ParseError(f"unknown vertex {vertex!r}")
        self.quiver = quiver
        self.arrows = arrows
        self.vertex = vertex
        self._hash = hash((arrows, vertex))

    @classmethod
    def trivial(cls, quiver, v):
        return cls(quiver, (), v)

    @property
    def length(self):
        return len(self.arrows)

    def is_trivial(self):
        return not self.arrows

    @property
    def source(self):
        if not self.arrows:
            return self.vertex
        return self.quiver.arrow_by_name[self.arrows[0]].source

    @property
    def target(self):
        if not self.arrows:
            return self.vertex
        return self.quiver.arrow_by_name[self.arrows[-1]].target

    def then(self, arrow_name):
        """Extend by one arrow at the end of the traversal."""
        return Path(self.quiver, self.arrows + (arrow_name,))

    def traversal_str(self):
        return ".".join(self.arrows) if self.arrows else f"e_{self.vertex}"

    def function_str(self):
        return "*".join(reversed(self.arrows)) if self.arrows else f"e_{self.vertex}"

    def describe(self):
        """Both notations, labelled, to sidestep the product-order ambiguity."""
        return f"{self.traversal_str()} [traversal] = {self.function_str()} [function order]"

    def __eq__(self, other):
        return (
            isinstance(other, Path)
            and self.arrows == other.arrows
            and self.vertex == other.vertex
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return self.traversal_str()


def compose(p, q):
    """Function-order product pq: traverse q, then p.  Needs s(p) = t(q)."""
    if p.quiver is not q.quiver:
        raise ComposeMismatch("paths over different quivers")
    if p.source != q.target:
        raise ComposeMismatch(
            f"cannot compose: s({p}) = {p.source} but t({q}) = {q.target}"
        )
    if p.is_trivial():
        return q
    if q.is_trivial():
        return p
    return Path(p.quiver, q.arrows + p.arrows)


# -- strongly connected structure ------------------------------------------

def graph_sccs(nodes, successors):
    """Tarjan, iteratively, on a node list and a successor map; components
    are returned as frozensets in reverse topological order (successors
    first), deterministic for a given node and successor order."""
    index, low, on_stack = {}, {}, set()
    stack, sccs = [], []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(successors[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(successors[w])))
                    advanced = True
                    break
                if w in on_stack and index[w] < low[v]:
                    low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
            if low[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                sccs.append(frozenset(comp))
    return sccs


def strongly_connected_components(quiver):
    """The quiver's components as frozensets of vertices, in graph_sccs order."""
    succ = {v: [] for v in quiver.vertices}
    for a in quiver.arrows:
        succ[a.source].append(a.target)
    return graph_sccs(quiver.vertices, succ)


def _scc_has_arrow(quiver, comp):
    return any(a.source in comp and a.target in comp for a in quiver.arrows)


class QuiverAnalysis:
    """Bundle of the graph-level facts: SCC partition, acyclicity, cycle-graph
    recognition, and the longest path arrow count (INFINITE when cyclic)."""

    def __init__(self, sccs, is_acyclic, is_cycle_graph, longest_path):
        self.sccs = sccs
        self.is_acyclic = is_acyclic
        self.is_cycle_graph = is_cycle_graph
        self.longest_path = longest_path

    def to_json(self):
        return {
            "sccs": [sorted(c) for c in self.sccs],
            "is_acyclic": self.is_acyclic,
            "is_cycle_graph": self.is_cycle_graph,
            "longest_path": "infinite" if self.longest_path == INFINITE else self.longest_path,
        }


def is_cycle_graph(quiver):
    """Exactly the oriented cycle with n vertices: connected, n arrows, and
    in/out degree 1 everywhere (chords and parallel arrows disqualify)."""
    n = len(quiver.vertices)
    if len(quiver.arrows) != n:
        return False
    if any(quiver.out_degree(v) != 1 or quiver.in_degree(v) != 1 for v in quiver.vertices):
        return False
    return quiver.is_connected()


def analyze(quiver):
    sccs = strongly_connected_components(quiver)
    acyclic = all(not _scc_has_arrow(quiver, c) for c in sccs)
    if acyclic:
        # DAG longest path by DP over Tarjan's reverse-topological order
        longest = {v: 0 for v in quiver.vertices}
        for comp in sccs:  # reverse topological: successors first
            (v,) = tuple(comp)
            best = 0
            for a in quiver.arrows_from(v):
                best = max(best, 1 + longest[a.target])
            longest[v] = best
        lp = max(longest.values()) if longest else 0
    else:
        lp = INFINITE
    return QuiverAnalysis(sccs, acyclic, is_cycle_graph(quiver), lp)


def infinite_path_core(quiver):
    """Full subquiver on the vertices with arbitrarily long outgoing paths,
    i.e. the vertices that can reach (or sit on) an oriented cycle.

    Returns None when no vertex qualifies (acyclic quiver)."""
    sccs = strongly_connected_components(quiver)
    cyclic_vertices = set()
    for comp in sccs:
        if len(comp) > 1 or _scc_has_arrow(quiver, comp):
            cyclic_vertices |= comp
    if not cyclic_vertices:
        return None
    # vertices that reach the cyclic set
    reach = set(cyclic_vertices)
    changed = True
    while changed:
        changed = False
        for a in quiver.arrows:
            if a.target in reach and a.source not in reach:
                reach.add(a.source)
                changed = True
    return quiver.full_subquiver(reach)


class FinalSubheart:
    """A minimal successor-closed full subquiver (terminal SCC of the
    condensation); trivial iff it is a bare vertex with no loop."""

    def __init__(self, subquiver, trivial):
        self.subquiver = subquiver
        self.trivial = trivial

    def is_cycle_graph(self):
        return is_cycle_graph(self.subquiver)

    def __repr__(self):
        kind = "trivial" if self.trivial else "non-trivial"
        return f"FinalSubheart({sorted(self.subquiver.vertices)}, {kind})"


def final_subhearts(quiver):
    sccs = strongly_connected_components(quiver)
    comp_of = {}
    for i, comp in enumerate(sccs):
        for v in comp:
            comp_of[v] = i
    outgoing = set()
    for a in quiver.arrows:
        if comp_of[a.source] != comp_of[a.target]:
            outgoing.add(comp_of[a.source])
    hearts = []
    for i, comp in enumerate(sccs):
        if i in outgoing:
            continue
        sub = quiver.full_subquiver(comp)
        trivial = len(comp) == 1 and not sub.arrows
        hearts.append(FinalSubheart(sub, trivial))
    hearts.sort(key=lambda h: sorted(h.subquiver.vertices))
    return hearts
