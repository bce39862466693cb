"""Igusa-Todorov phi computations.

Over monomial/truncated algebras everything happens in the free abelian
group on the non-projective path-module classes of a syzygy closure, with
the syzygy-induced endomorphism as an integer matrix T.  phi of a bundle is
the rank-stabilization point of T^l applied to the subgroup generated by the
bundle's distinct classes; ranks are exact rational ranks, are non-increasing,
and are constant from l = d (the lattice rank) onward by the Fitting
decomposition, so the returned value is exactly the defining minimum.

For algebras presented by linear relations, an explicit-module hybrid
classifies concrete syzygies against a user-supplied catalog of
indecomposables.  When the catalog closes the bundle it applies the same rank
procedure; otherwise, when a catalog class is assumed to have infinite
projective dimension, sound per-level rules, documented on phi_of_reps,
decide the ranks.
"""

from operator import attrgetter

from . import linalg, reps
from .errors import (
    HypothesisViolated,
    Indeterminate,
    InternalInvariantError,
    NoDecomposition,
    PreconditionViolated,
    UnsupportedIdeal,
)
from .fields import QQ
from .gorenstein import is_self_injective_truncated
from .pathmodules import calculus


class K0Lattice:
    """Free abelian group on the non-projective classes of a syzygy closure,
    with the induced syzygy endomorphism T (columns = syzygy multisets)."""

    def __init__(self, algebra, basis, matrix):
        self.algebra = algebra
        self.basis = basis
        self.matrix = matrix  # d x d nonnegative integers, column j = syzygy of basis[j]

    @property
    def rank(self):
        return len(self.basis)

    def apply(self, vector):
        d = len(self.basis)
        out = [0] * d
        for j, x in enumerate(vector):
            if x:
                col = self.matrix
                for i in range(d):
                    if col[i][j]:
                        out[i] += col[i][j] * x
        return out

    def to_json(self):
        triples = []
        for j in range(len(self.basis)):
            for i in range(len(self.basis)):
                if self.matrix[i][j]:
                    triples.append([i, j, self.matrix[i][j]])
        return {"basis": [c.label for c in self.basis], "syzygy_matrix": triples}


def build_lattice(algebra, seed_classes):
    """Close the seed under syzygies, drop projectives, build T."""
    if not algebra.is_monomial_like:
        raise UnsupportedIdeal("the class lattice needs a monomial or truncated ideal")
    calc = calculus(algebra)
    closed = [c for c in calc.closure(seed_classes).values() if not c.projective]
    return _lattice(algebra, closed, lambda c: calc.syzygy_class(c).counts,
                    attrgetter("sort_key"))


def _lattice(algebra, elements, expand, key):
    """The K0Lattice on elements, its basis sorted by key, which tells the
    elements apart.  expand maps an element to its syzygy summands as {child:
    multiplicity}; a child outside elements is projective and is dropped."""
    basis = sorted(elements, key=key)
    index = {key(x): i for i, x in enumerate(basis)}
    matrix = [[0] * len(basis) for _ in basis]
    for j, x in enumerate(basis):
        for child, mult in expand(x).items():
            i = index.get(key(child))
            if i is not None:
                matrix[i][j] += mult
    return K0Lattice(algebra, basis, matrix)


def rank_sequence(lattice, generators, upto, whole=False):
    """Ranks of the span of T^l applied to the generators, l = 0..upto.

    whole: the generators span the whole lattice, so T^l V = im T^l and equal
    ranks at l and l + 1 mean equal images; the sequence is then constant and
    stops at the first repeat.  A proper subspace may repeat and then drop
    (e1 -> e2 -> 0 with V = <e1> has ranks 1, 1, 0), so it runs to upto."""
    vectors = [list(g) for g in generators]
    ranks = [linalg.rank(QQ, vectors)]
    for _ in range(upto):
        vectors = [lattice.apply(v) for v in vectors]
        ranks.append(linalg.rank(QQ, vectors))
        if whole and ranks[-1] == ranks[-2]:
            break
    return ranks


def _stable_level(ranks):
    """The first level whose rank equals the last: where a rank sequence
    computed up to its stabilization becomes constant."""
    return ranks.index(ranks[-1])


class PhiResult:
    def __init__(self, value, ranks, lattice, assumptions=()):
        self.value = value
        self.ranks = ranks
        self.lattice = lattice
        self.assumptions = list(assumptions)

    def to_json(self, include_lattice=False):
        out = {"phi": self.value, "rank_sequence": self.ranks}
        if self.assumptions:
            out["assumptions"] = self.assumptions
        if include_lattice and self.lattice is not None:
            out["lattice"] = self.lattice.to_json()
        return out

    def __repr__(self):
        return f"phi={self.value}"


def phi(algebra, multiset):
    """Igusa-Todorov phi of a formal bundle of path-module classes.

    The subgroup is generated by the distinct summand classes (add-closure
    makes multiplicities irrelevant; projectives vanish in the group)."""
    lattice = build_lattice(algebra, multiset.classes())
    wanted = {c.sort_key for c in multiset.classes()}
    value, ranks = _lattice_phi(lattice, [c.sort_key in wanted for c in lattice.basis])
    return PhiResult(value, ranks, lattice)


def _lattice_phi(lattice, wanted):
    """(phi, ranks) of the bundle of the basis classes flagged in wanted: the
    rank sequence of their unit generators up to the lattice rank, and its
    stable level."""
    gens = [[1 if j == i else 0 for j in range(lattice.rank)]
            for i, flag in enumerate(wanted) if flag]
    if not gens:
        return 0, [0]
    ranks = rank_sequence(lattice, gens, lattice.rank)
    return _stable_level(ranks), ranks


def phidim_subcat(algebra, seed_classes):
    """phi-dimension of the syzygy-closed additive hull of the seed: the
    stabilization point of rank(T^l) over the whole closure lattice."""
    lattice = build_lattice(algebra, seed_classes)
    d = lattice.rank
    if d == 0:
        return PhiResult(0, [0], lattice)
    gens = [[1 if j == i else 0 for j in range(d)] for i in range(d)]
    ranks = rank_sequence(lattice, gens, d, whole=True)
    return PhiResult(_stable_level(ranks), ranks, lattice)


class PhidimBounds:
    def __init__(self, lower, upper, subcat, lower_witness, rule):
        self.lower = lower
        self.upper = upper
        self.subcat = subcat
        self.lower_witness = lower_witness
        self.rule = rule

    def to_json(self):
        return {
            "lower": self.lower,
            "upper": self.upper,
            "exact": self.lower == self.upper,
            "rule": self.rule,
            "subcat_phidim": self.subcat,
            "lower_witness": self.lower_witness,
        }

    def __repr__(self):
        return f"phidim in [{self.lower}, {self.upper}]"


def phidim_bounds(algebra):
    """[lower, upper] bounds on the algebra-level phi-dimension.

    upper = phidim of the path-class closure + 1 (truncated: first syzygies
    are path-module sums) or + 2 (monomial: second syzygies are), via
    phi(M) <= phi(syzygy(M)) + 1.  lower = phi of the sum of all classes of
    the syzygy hull of the path classes and the simples, which dominates
    every bundle in the hull since phi(M) <= phi(M + N).  Closed values
    (Fernandez-Lanzilotta-Mendoza) pin the answer: rule "finite_gldim"
    (phidim = gldim), rule "self_injective" (a truncated cycle graph,
    phidim = 0); otherwise the rule is "hull_and_shift"."""
    if not algebra.is_monomial_like:
        raise UnsupportedIdeal("phidim bounds need a monomial or truncated ideal")
    calc = calculus(algebra)
    path_classes = calc.all_path_classes()
    simple_classes = [calc.simple_class(v) for v in algebra.quiver.vertices]
    sub = phidim_subcat(algebra, path_classes)
    upper = sub.value + (1 if algebra.kind == "truncated" else 2)
    hull = phidim_subcat(algebra, path_classes + simple_classes)
    lower = hull.value
    witness = f"sum of the {hull.lattice.rank} classes of the syzygy hull"
    if lower > upper:
        raise InternalInvariantError(f"phidim lower bound {lower} exceeds upper {upper}")
    gl = calc.gldim()
    if gl.is_finite() and upper < gl.value:
        raise InternalInvariantError(
            f"phidim upper bound {upper} below finite global dimension {gl.value}"
        )
    rule = "hull_and_shift"
    if gl.is_finite():
        lower = upper = gl.value
        rule = "finite_gldim"
    elif algebra.kind == "truncated" and is_self_injective_truncated(algebra):
        lower = upper = 0
        rule = "self_injective"
    return PhidimBounds(lower, upper, sub.value, witness, rule)


# -- hybrid phi for explicit modules ------------------------------------------


class HybridClassTable:
    """Catalog-backed classification of concrete modules for the hybrid phi.

    A catalog entry's class is named by `canonical`: the first earlier entry
    of the same dimension vector, itself canonical, that iso_test certifies
    isomorphic to it, or else the entry itself.  That is the outcome of a
    pairwise dedup of the catalog in order, found on demand: only for the
    names that identify and syzygy_expansion return, with the tests the
    dedup would make for them, in its order.  Both return canonical names.
    Syzygy expansions are computed lazily through the linear engine plus
    certified catalog decomposition.  Projective entries vanish in the
    group.  Catalog names must be distinct: a repeated one is a
    PreconditionViolated.  The table owns the modules it identifies: one
    that matches no entry joins the catalog as a class of its own when it
    is certified indecomposable."""

    def __init__(self, algebra, catalog):
        self.algebra = algebra
        self.rep_by_name = {}  # in catalog order
        for name, rep in catalog:
            if name in self.rep_by_name:
                raise PreconditionViolated(f"catalog name {name!r} is repeated")
            self.rep_by_name[name] = rep
        self._canonical = {}
        self.projective = {}
        self.sigma = {}  # name -> expansion, or None: no certified decomposition

    def canonical(self, name):
        """The canonical name of a catalog entry's class.  The earlier
        entries of its dimension vector are settled first, in catalog order,
        so each test reads a known status."""
        if name not in self._canonical:
            dv = self.rep_by_name[name].dim_vector()
            group = [n for n, rep in self.rep_by_name.items() if rep.dim_vector() == dv]
            for k, entry in enumerate(group[:group.index(name) + 1]):
                if entry not in self._canonical:
                    rep = self.rep_by_name[entry]
                    self._canonical[entry] = next(
                        (other for other in group[:k]
                         if self._canonical[other] == other
                         and reps.iso_test(rep, self.rep_by_name[other]).isomorphic),
                        entry)
        return self._canonical[name]

    def _unaliased(self):
        """The entries not yet known to be aliases, in catalog order."""
        return [n for n in self.rep_by_name if self._canonical.get(n, n) == n]

    def identify(self, rep):
        """The canonical name of rep's class.  A module that matches no
        entry and is certified indecomposable becomes a new class, under
        its own name (primed while that is taken); one that is not may be a
        direct sum, which no entry may be: NoDecomposition."""
        dv = rep.dim_vector()
        for name in self._unaliased():
            other = self.rep_by_name[name]
            if other.dim_vector() == dv and reps.iso_test(rep, other).isomorphic:
                return self.canonical(name)
        if not reps.certified_indecomposable(rep):
            raise NoDecomposition(
                f"module with dim vector {dv} matches no catalog entry and is not "
                "certified indecomposable (it may be a direct sum)")
        name = rep.name or "summand"
        while name in self.rep_by_name:
            name += "'"
        self.rep_by_name[name] = rep
        self._canonical[name] = name
        return name

    def is_projective(self, name):
        if name not in self.projective:
            self.projective[name] = reps.syzygy_rep(self.rep_by_name[name]).is_zero()
        return self.projective[name]

    def syzygy_expansion(self, name):
        """Counter over canonical names (projectives dropped); NoDecomposition,
        naming the class, when the catalog cannot certify the syzygy."""
        if name not in self.sigma:
            try:
                counts, _warn = reps.decompose_against_catalog(
                    reps.syzygy_rep(self.rep_by_name[name]),
                    [(n, self.rep_by_name[n]) for n in self._unaliased()])
            except NoDecomposition:
                self.sigma[name] = None
            else:
                out = {}
                for n, mult in counts.items():
                    canon = self.canonical(n)
                    if not self.is_projective(canon):
                        out[canon] = out.get(canon, 0) + mult
                self.sigma[name] = out
        if self.sigma[name] is None:
            raise NoDecomposition(f"the catalog certifies no decomposition of the syzygy of {name}")
        return self.sigma[name]


def _vector_rank(vectors):
    rows = []
    names = sorted({n for v in vectors for n in v})
    for v in vectors:
        rows.append([v.get(n, 0) for n in names])
    return linalg.rank(QQ, rows)


def phi_of_reps(algebra, summands, catalog, assume_infinite_pd=()):
    """phi of a bundle of explicit modules over any supported algebra.

    summands: the distinct indecomposable summands as Representations;
    catalog: (name, Representation) entries, the names distinct, that the
    summands and their syzygy summands classify against (a summand that
    matches none joins it when certified indecomposable, see
    HybridClassTable.identify); assume_infinite_pd:
    catalog names the caller asserts to have infinite projective dimension
    (echoed in the result's assumptions; other names are ignored).

    Over a self-injective algebra phi is 0, and the rank sequence is the
    number of distinct non-projective classes among the summands.
    Elsewhere closure is decided first.  When the catalog certifies the syzygy
    expansion of every class reachable from the summands, those classes span
    a finite lattice, and phi comes from the exact rank procedure of phi()
    on it.  Otherwise some start class reaches, at some level l, a class F
    whose syzygy the catalog cannot certify.  From level l + 1 on, that
    start's vector carries F as an opaque symbol (F, shift), meaning
    "shift-th syzygy class of F", with a positive coefficient.  Vectors are
    nonnegative, so it never cancels: no later level closes or is all zero,
    and only an assumed infinite-pd class can end the rank sequence.  So
    without one this raises Indeterminate at once, naming F.  With one the
    levels are stepped in the free group on catalog classes with delayed
    expansion, and each level's rank is recorded only when one of these
    sound rules certifies it:

      * no opaque symbols in the current vectors: the formal rank is the
        true rank (every coordinate is a certified class);
      * all vectors formally identical and nonnegative: rank 1 while the
        vector is nonzero; it is nonzero without assumptions when a known
        class survives in it, and stays nonzero forever when it carries an
        assumed-infinite class (nonnegativity rules out cancellation), which
        also stabilizes the sequence and ends the computation;
      * shared-junk heads: the distinct vectors are nonnegative, and each
        exceeds their pointwise minimum J by one unit of a certified class,
        a different one for each — the true rank is the number of distinct
        vectors, because any vanishing combination would force a negative
        coordinate on some head.

    Anything else raises Indeterminate rather than guessing, and so does a
    rank sequence still open past 4 levels per catalog entry plus 16."""
    if algebra.is_monomial_like:
        raise UnsupportedIdeal("use phi() for monomial and truncated algebras")
    table = HybridClassTable(algebra, catalog)
    assume = {table.canonical(n) for n in assume_infinite_pd if n in table.rep_by_name}
    start = sorted({table.identify(rep) for rep in summands})
    start = [n for n in start if not table.is_projective(n)]
    if not start:
        return PhiResult(0, [0], None)
    if reps.certified_self_injective(algebra):
        # the syzygy endomorphism of the stable category is an equivalence
        return PhiResult(0, [len(start)], None,
                         ["self-injective algebra: phi vanishes identically"])
    try:
        lattice = _try_close(table, start)
    except NoDecomposition as exc:
        if not assume:
            raise Indeterminate(
                f"{exc.message}, and no catalog class is assumed to have infinite pd"
            ) from None
    else:
        value, ranks = _lattice_phi(lattice, [n in start for n in lattice.basis])
        return PhiResult(value, ranks, None)
    vectors = [{n: 1} for n in start]
    ranks = []
    assumptions = []
    cap = 4 * len(table.rep_by_name) + 16
    for level in range(cap + 1):
        verdict = _certified_rank(vectors, assume)
        if verdict is None:
            raise Indeterminate(
                f"no sound rank rule applies at syzygy level {level}"
            )
        rank_l, stable, note = verdict
        ranks.append(rank_l)
        if note:
            assumptions.append(note)
        if stable:
            return PhiResult(_stable_level(ranks), ranks, None, sorted(set(assumptions)))
        vectors = [_apply_sigma(table, v) for v in vectors]
    raise Indeterminate(f"phi rank sequence open after {cap} levels")


def _certified_rank(vectors, assume):
    """(rank, stable_from_here, assumption_note), or None when no rule of
    phi_of_reps certifies the rank of the vectors."""
    if all(isinstance(k, str) for v in vectors for k in v):
        return _vector_rank(vectors), False, None
    distinct = []
    for v in vectors:
        if v and v not in distinct:
            distinct.append(v)
    if any(x < 0 for v in distinct for x in v.values()):
        return None
    if len(distinct) == 1:
        (v,) = distinct
        assumed = sorted({k if isinstance(k, str) else k[0] for k in v} & assume)
        if assumed:
            return 1, True, f"assumed infinite pd: {assumed}"
        if any(isinstance(k, str) for k in v):
            # a surviving certified class keeps the vector nonzero now,
            # but the tail is not controlled: keep stepping
            return 1, False, None
        return None
    # shared junk: each vector is the pointwise minimum plus one unit head,
    # and distinct vectors over one minimum have distinct heads
    floor = {k: min(v.get(k, 0) for v in distinct) for k in distinct[0]}
    for v in distinct:
        rest = [(k, x - floor.get(k, 0)) for k, x in v.items() if x != floor.get(k, 0)]
        if len(rest) != 1 or rest[0][1] != 1 or not isinstance(rest[0][0], str):
            return None
    return len(distinct), False, None


def _apply_sigma(table, vector):
    """One syzygy step on a formal vector; unclassifiable classes survive as
    opaque (name, shift) symbols instead of failing."""
    out = {}

    def bump(key, amount):
        out[key] = out.get(key, 0) + amount

    for key, mult in vector.items():
        if not isinstance(key, str):
            name, shift = key
            bump((name, shift + 1), mult)
            continue
        try:
            sigma = table.syzygy_expansion(key)
        except NoDecomposition:
            bump((key, 1), mult)
            continue
        for child, m in sigma.items():
            bump(child, mult * m)
    return {k: x for k, x in out.items() if x}


def _try_close(table, names):
    """The lattice on the classes reachable from names under syzygy
    expansion; NoDecomposition, naming the class, when the catalog cannot
    certify some expansion.  The expansions are closed depth first, from
    the last name."""
    sigma = {}
    todo = list(names)
    while todo:
        name = todo.pop()
        if name not in sigma:
            sigma[name] = table.syzygy_expansion(name)
            todo.extend(sigma[name])
    return _lattice(table.algebra, sigma, table.syzygy_expansion, str)


# -- certified merge lower bounds ---------------------------------------------

# the syzygy steps merge_lower_bound probes for a merge
MERGE_PROBE_STEPS = 4


def merge_lower_bound(x, y):
    """A certified lower bound on phi(x + y) from a syzygy merge.

    Requires the two modules to be visibly distinct in the stable group:
    neither may fit a projective summand (no projective dim vector dominates
    componentwise) and their dim vectors must not be proportional.  When
    syzygy_rep^j(x) is certified isomorphic to syzygy_rep^j(y) at the first
    such j, the class difference [x] - [y] is a nonzero kernel element of the
    j-th syzygy endomorphism, so phi >= j.  Returns 0 when no merge is found
    within MERGE_PROBE_STEPS syzygy steps or when the guards fail."""
    algebra = x.algebra
    projs = [reps.projective(algebra, v) for v in algebra.quiver.vertices]

    def guarded(rep):
        dv = rep.dim_vector()
        if sum(dv) == 0:
            return False
        for p in projs:
            pv = p.dim_vector()
            if all(a <= b for a, b in zip(pv, dv)):
                return False
        return True

    def proportional(u, v):
        return all(a * sum(v) == b * sum(u) for a, b in zip(u, v))

    cx, cy = x, y
    for j in range(1, MERGE_PROBE_STEPS + 1):
        if not (guarded(cx) and guarded(cy)):
            return 0
        if cx.dim_vector() == cy.dim_vector() or proportional(cx.dim_vector(), cy.dim_vector()):
            return 0
        nx, ny = reps.syzygy_rep(cx), reps.syzygy_rep(cy)
        if reps.iso_test(nx, ny).isomorphic:
            return j
        cx, cy = nx, ny
    return 0


# -- the triangular reduction -----------------------------------------------------


def corner_algebra(algebra, vertex_subset):
    """Full sub-bound-quiver algebra on a vertex subset (induced relations)."""
    from .algebra import MonomialIdeal, Relation, RelationsIdeal, TruncatedIdeal, build_algebra
    from .quiver import Path

    sub = algebra.quiver.full_subquiver(vertex_subset)
    keep = {a.name for a in sub.arrows}
    if algebra.kind == "truncated":
        ideal = TruncatedIdeal(algebra.ideal.k)
    elif algebra.kind == "monomial":
        gens = [Path(sub, g.arrows) for g in algebra.ideal.generators
                if all(n in keep for n in g.arrows)]
        ideal = MonomialIdeal(gens)
    else:
        rels = []
        for rel in algebra.ideal.relations:
            if all(n in keep for _c, p in rel.terms for n in p.arrows):
                rels.append(Relation([(c, Path(sub, p.arrows)) for c, p in rel.terms]))
        ideal = RelationsIdeal(rels, algebra.ideal.nilpotency)
    return build_algebra(sub, ideal, field=algebra.field)


class TriangularReport:
    def __init__(self, data):
        self.data = data

    def to_json(self):
        return self.data

    def __repr__(self):
        return f"TriangularReport({self.data})"


def _corner_phidim_bounds(corner):
    if corner.is_monomial_like:
        b = phidim_bounds(corner)
        return b.lower, b.upper, "path-class lattice bounds"
    if reps.certified_self_injective(corner):
        return 0, 0, "certified self-injective: phi vanishes identically"
    return None, None, "unknown (no certified bound available)"


def triangular_check(algebra, gamma, gamma_bar, witness_pairs=()):
    """Verify the one-way split hypotheses and report the phi-dimension bound.

    gamma / gamma_bar partition the vertices; all arrows between the parts
    must go gamma -> gamma_bar, at least one such bridge must exist, and
    every bridge arrow must annihilate every arrow it follows.  The theorem
    side is phidim(corner on gamma) + phidim(corner on gamma_bar) + 1; the
    report compares it with a certified lower bound for the whole algebra and
    pins the exact value when the two meet."""
    gamma = {str(v) for v in gamma}
    gamma_bar = {str(v) for v in gamma_bar}
    verts = set(algebra.quiver.vertices)
    if gamma & gamma_bar or (gamma | gamma_bar) != verts or not gamma or not gamma_bar:
        raise HypothesisViolated("gamma and gamma_bar must partition the vertices",
                                 bullet=1)
    bridges = [a for a in algebra.quiver.arrows
               if a.source in gamma and a.target in gamma_bar]
    back = [a for a in algebra.quiver.arrows
            if a.source in gamma_bar and a.target in gamma]
    if back:
        raise HypothesisViolated(
            f"arrows from gamma_bar to gamma exist: {[a.name for a in back]}", bullet=2)
    if not bridges:
        raise HypothesisViolated("no arrow from gamma to gamma_bar", bullet=2)
    from .quiver import Path

    for alpha in bridges:
        for beta in algebra.quiver.arrows:
            if beta.target != alpha.source:
                continue
            prod = Path(algebra.quiver, (beta.name, alpha.name))
            if not algebra.path_is_zero(prod):
                raise HypothesisViolated(
                    f"bridge arrow {alpha.name} does not annihilate {beta.name}",
                    bullet=3)
    corner_a = corner_algebra(algebra, gamma)
    corner_b = corner_algebra(algebra, gamma_bar)
    low_a, up_a, note_a = _corner_phidim_bounds(corner_a)
    low_b, up_b, note_b = _corner_phidim_bounds(corner_b)
    theorem_upper = None
    if up_a is not None and up_b is not None:
        theorem_upper = up_a + up_b + 1
    if algebra.is_monomial_like:
        bounds = phidim_bounds(algebra)
        c_lower = bounds.lower
        lower_note = f"path-class lattice bounds, rule {bounds.rule}"
    else:
        c_lower = 0
        lower_note = "no witness"
        for x, y in witness_pairs:
            value = merge_lower_bound(x, y)
            if value > c_lower:
                c_lower = value
                lower_note = f"syzygy merge of {x.name or 'X'} and {y.name or 'Y'}"
    consistent = None
    if theorem_upper is not None:
        consistent = c_lower <= theorem_upper
        if not consistent:
            raise InternalInvariantError(
                f"certified lower bound {c_lower} exceeds the theorem bound {theorem_upper}"
            )
    data = {
        "hypotheses": "pass",
        "gamma": sorted(gamma),
        "gamma_bar": sorted(gamma_bar),
        "bridges": sorted(a.name for a in bridges),
        "corner_gamma": {"lower": low_a, "upper": up_a, "note": note_a},
        "corner_gamma_bar": {"lower": low_b, "upper": up_b, "note": note_b},
        "theorem_upper": theorem_upper,
        "algebra_lower": c_lower,
        "algebra_lower_note": lower_note,
        "consistent": consistent,
    }
    if theorem_upper is not None and theorem_upper == c_lower:
        data["phidim_pinned"] = theorem_upper
    return TriangularReport(data)
