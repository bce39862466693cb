"""Igusa-Todorov phi computations.

Over monomial/truncated algebras everything happens in the free abelian
group on the non-projective path-module classes of a syzygy closure, with
the syzygy-induced endomorphism as an integer matrix T.  phi of a bundle is
the rank-stabilization point of T^l applied to the subgroup generated by the
bundle's distinct classes; ranks are exact rational ranks, are non-increasing,
and are constant from l = d (the lattice rank) onward by the Fitting
decomposition, so the returned value is exactly the defining minimum.

For algebras presented by linear relations, an explicit-module hybrid
iterates concrete syzygies, classifies the summands against a user-supplied
catalog of indecomposables, and applies the same rank procedure; the sound
stopping rules are documented on phi_of_reps.
"""

from . import linalg, reps
from .errors import (
    HypothesisViolated,
    Indeterminate,
    InternalInvariantError,
    NoDecomposition,
    UnsupportedIdeal,
)
from .fields import QQ
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
    todo = list(seed_classes)
    seen = {}
    while todo:
        c = todo.pop()
        if c.projective or c.sort_key in seen:
            continue
        seen[c.sort_key] = c
        for child in calc.syzygy_class(c).counts:
            todo.append(child)
    basis = sorted(seen.values(), key=lambda c: c.sort_key)
    index = {c.sort_key: i for i, c in enumerate(basis)}
    d = len(basis)
    matrix = [[0] * d for _ in range(d)]
    for j, c in enumerate(basis):
        for child, mult in calc.syzygy_class(c).counts.items():
            if child.projective:
                continue
            matrix[index[child.sort_key]][j] += mult
    return K0Lattice(algebra, basis, matrix)


def _rank_of_int_rows(rows):
    if not rows:
        return 0
    return linalg.rank(QQ, rows)


def rank_sequence(lattice, generators, upto):
    """Ranks of the span of T^l applied to the generators, l = 0..upto."""
    vectors = [list(g) for g in generators]
    ranks = [_rank_of_int_rows(vectors)]
    for _ in range(upto):
        vectors = [lattice.apply(v) for v in vectors]
        ranks.append(_rank_of_int_rows(vectors))
    return ranks


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
    gens = [[1 if j == i else 0 for j in range(lattice.rank)]
            for i, c in enumerate(lattice.basis) if c.sort_key in wanted]
    if not gens:
        return PhiResult(0, [0], lattice)
    ranks = rank_sequence(lattice, gens, lattice.rank)
    target = ranks[lattice.rank]
    value = min(l for l, r in enumerate(ranks) if r == target)
    return PhiResult(value, ranks, lattice)


def phidim_subcat(algebra, seed_classes):
    """phi-dimension of the syzygy-closed additive hull of the seed: the
    stabilization point of rank(T^l) over the whole closure lattice."""
    lattice = build_lattice(algebra, seed_classes)
    d = lattice.rank
    if d == 0:
        return PhiResult(0, [0], lattice)
    gens = [[1 if j == i else 0 for j in range(d)] for i in range(d)]
    ranks = rank_sequence(lattice, gens, d)
    target = ranks[d]
    value = min(l for l, r in enumerate(ranks) if r == target)
    return PhiResult(value, ranks, lattice)


class PhidimBounds:
    def __init__(self, lower, upper, subcat, lower_witness):
        self.lower = lower
        self.upper = upper
        self.subcat = subcat
        self.lower_witness = lower_witness

    def to_json(self):
        return {
            "lower": self.lower,
            "upper": self.upper,
            "subcat_phidim": self.subcat,
            "lower_witness": self.lower_witness,
        }

    def __repr__(self):
        return f"phidim in [{self.lower}, {self.upper}]"


def phidim_bounds(algebra):
    """[lower, upper] bounds on the algebra-level phi-dimension.

    upper = phidim of the path-class closure + 1 (truncated: first syzygies
    are path-module sums) or + 2 (monomial: second syzygies are), via
    phi(M) <= phi(syzygy(M)) + 1.  lower = max phi over a deterministic
    sample: all single classes, all pairs, and simple-class combinations of
    size <= 4."""
    if not algebra.is_monomial_like:
        raise UnsupportedIdeal("phidim bounds need a monomial or truncated ideal")
    calc = calculus(algebra)
    path_classes = calc.all_path_classes()
    simple_classes = [calc.simple_class(v) for v in algebra.quiver.vertices]
    seed = path_classes + simple_classes
    lattice = build_lattice(algebra, seed)
    d = lattice.rank
    sub = phidim_subcat(algebra, path_classes)
    upper = sub.value + (1 if algebra.kind == "truncated" else 2)

    def phi_in_lattice(classes):
        keys = {c.sort_key for c in classes if not c.projective}
        gens = [[1 if j == i else 0 for j in range(d)]
                for i, c in enumerate(lattice.basis) if c.sort_key in keys]
        if not gens:
            return 0
        ranks = rank_sequence(lattice, gens, d)
        return min(l for l, r in enumerate(ranks) if r == ranks[d])

    lower = 0
    witness = "zero module"
    candidates = []
    nonproj = [c for c in lattice.basis]
    for c in nonproj:
        candidates.append([c])
    for i in range(len(nonproj)):
        for j in range(i + 1, len(nonproj)):
            candidates.append([nonproj[i], nonproj[j]])
    simples = [c for c in simple_classes if not c.projective]
    for size in (2, 3, 4):
        if len(simples) >= size:
            from itertools import combinations

            for combo in combinations(simples, size):
                candidates.append(list(combo))
    for combo in candidates:
        value = phi_in_lattice(combo)
        if value > lower:
            lower = value
            witness = " + ".join(c.label for c in combo)
    if lower > upper:
        raise InternalInvariantError(f"phidim lower bound {lower} exceeds upper {upper}")
    gl = calc.gldim()
    if gl.is_finite() and upper < gl.value:
        raise InternalInvariantError(
            f"phidim upper bound {upper} below finite global dimension {gl.value}"
        )
    return PhidimBounds(lower, upper, sub.value, witness)


# -- hybrid phi for explicit modules ------------------------------------------


class HybridClassTable:
    """Catalog-backed classification of concrete modules for the hybrid phi.

    Entries are deduplicated up to certified isomorphism; syzygy expansions
    are computed lazily through the linear engine plus certified catalog
    decomposition.  Projective entries vanish in the group."""

    def __init__(self, algebra, catalog, trials=20, seed=0):
        self.algebra = algebra
        self.trials = trials
        self.seed = seed
        self.names = []
        self.rep_by_name = {}
        self.alias = {}
        self.projective = {}
        self.sigma = {}
        self.sigma_failed = set()
        for name, rep in catalog:
            canon = None
            for other in self.names:
                if rep.dim_vector() == self.rep_by_name[other].dim_vector():
                    r = reps.iso_test(rep, self.rep_by_name[other], trials=trials, seed=seed)
                    if r.isomorphic:
                        canon = other
                        break
            if canon is None:
                self.names.append(name)
                self.rep_by_name[name] = rep
                self.alias[name] = name
            else:
                self.alias[name] = canon

    def identify(self, rep):
        for name in self.names:
            if rep.dim_vector() == self.rep_by_name[name].dim_vector():
                r = reps.iso_test(rep, self.rep_by_name[name], trials=self.trials,
                                  seed=self.seed)
                if r.isomorphic:
                    return name
        raise NoDecomposition(
            f"module with dim vector {rep.dim_vector()} matches no catalog entry"
        )

    def is_projective(self, name):
        if name not in self.projective:
            self.projective[name] = reps.syzygy_rep(self.rep_by_name[name]).is_zero()
        return self.projective[name]

    def syzygy_expansion(self, name):
        """Counter over canonical names (projectives dropped); NoDecomposition
        when the catalog cannot certify the syzygy."""
        if name in self.sigma:
            return self.sigma[name]
        if name in self.sigma_failed:
            raise NoDecomposition(f"syzygy of {name} has no certified catalog decomposition")
        syz = reps.syzygy_rep(self.rep_by_name[name])
        if syz.is_zero():
            self.sigma[name] = {}
            return self.sigma[name]
        try:
            counts, _warn = reps.decompose_against_catalog(
                syz, [(n, self.rep_by_name[n]) for n in self.names],
                trials=self.trials, seed=self.seed,
            )
        except NoDecomposition:
            self.sigma_failed.add(name)
            raise
        out = {}
        for n, mult in counts.items():
            canon = self.alias[n]
            if not self.is_projective(canon):
                out[canon] = out.get(canon, 0) + mult
        self.sigma[name] = out
        return out


def _vector_rank(vectors):
    rows = []
    names = sorted({n for v in vectors for n in v})
    for v in vectors:
        rows.append([v.get(n, 0) for n in names])
    return _rank_of_int_rows(rows)


def phi_of_reps(algebra, summands, catalog, assume_infinite_pd=(), trials=20,
                seed=0, max_steps=None):
    """phi of a bundle of explicit modules over any supported algebra.

    summands: the distinct indecomposable summands as Representations;
    catalog: (name, Representation) entries the syzygy summands classify
    against; assume_infinite_pd: catalog names the caller asserts to have
    infinite projective dimension (echoed in the result's assumptions).

    Vectors live in the free group on catalog classes, with delayed
    expansion: a class whose syzygy the catalog cannot certify survives as an
    opaque symbol (class, shift) meaning "shift-th syzygy class of it".  Each
    level's rank is recorded only when one of these sound rules certifies it:

      * no opaque symbols in the current vectors: the formal rank is the
        true rank (every coordinate is a certified class);
      * shared-junk heads: every vector is (distinct unit class) + J with one
        common nonnegative formal junk J — the true rank is the number of
        distinct vectors, because any vanishing combination would force a
        negative coordinate on some head;
      * all vectors formally identical and nonnegative: rank 1 while the
        vector is nonzero; it is nonzero without assumptions when a known
        class survives in it, and stays nonzero forever when it carries an
        assumed-infinite class (nonnegativity rules out cancellation), which
        also stabilizes the sequence and ends the computation;
      * all vectors formally zero: rank 0 forever.

    A closure of the observed classes under certified expansion switches to
    the exact finite-lattice procedure.  Anything else raises Indeterminate
    rather than guessing."""
    if algebra.is_monomial_like:
        raise UnsupportedIdeal("use phi() for monomial and truncated algebras")
    if reps.certified_self_injective(algebra, trials=trials, seed=seed) is True:
        # the syzygy endomorphism of the stable category is an equivalence
        return PhiResult(0, [len(summands)], None,
                         ["self-injective algebra: phi vanishes identically"])
    table = HybridClassTable(algebra, catalog, trials=trials, seed=seed)
    assume = {table.alias.get(n, n) for n in assume_infinite_pd}
    start = sorted({table.identify(rep) for rep in summands})
    start = [n for n in start if not table.is_projective(n)]
    if not start:
        return PhiResult(0, [0], None)
    vectors = [{n: 1} for n in start]
    ranks = []
    assumptions = []
    if max_steps is None:
        max_steps = 4 * len(table.names) + 16
    for level in range(max_steps + 1):
        verdict = _certified_rank(table, vectors, assume)
        if verdict is None:
            raise Indeterminate(
                f"no sound rank rule applies at syzygy level {level}"
            )
        rank_l, stable, note = verdict
        ranks.append(rank_l)
        if note:
            assumptions.append(note)
        if stable:
            value = min(l for l, r in enumerate(ranks) if r == rank_l)
            return PhiResult(value, ranks, None, sorted(set(assumptions)))
        if all(_is_opaque_free(v) for v in vectors):
            closed = _try_close(table, vectors)
            if closed is not None:
                return _finite_lattice_phi(table, vectors, ranks, closed)
        vectors = [_apply_sigma(table, v) for v in vectors]
    raise Indeterminate(f"phi rank sequence open after {max_steps} levels")


def _is_opaque_free(vector):
    return all(isinstance(k, str) for k in vector)


def _split_vector(vector):
    known = {k: v for k, v in vector.items() if isinstance(k, str)}
    opaque = {k: v for k, v in vector.items() if not isinstance(k, str)}
    return known, opaque


def _certified_rank(table, vectors, assume):
    """(rank, stable_from_here, assumption_note) or None when uncertifiable."""
    nonzero = [v for v in vectors if v]
    if not nonzero:
        return 0, True, None
    if all(_is_opaque_free(v) for v in vectors):
        return _vector_rank(vectors), False, None
    distinct = []
    for v in nonzero:
        if v not in distinct:
            distinct.append(v)
    nonneg = all(x >= 0 for v in nonzero for x in v.values())
    if len(distinct) == 1:
        v = distinct[0]
        known, opaque = _split_vector(v)
        if not nonneg:
            return None
        assumed = sorted({name for (name, _s) in opaque if name in assume}
                         | {n for n in known if n in assume})
        if assumed:
            return 1, True, f"assumed infinite pd: {assumed}"
        if known:
            # a surviving certified class keeps the vector nonzero now,
            # but the tail is not controlled: keep stepping
            return 1, False, None
        return None
    # shared-junk rule: identical opaque-and-tail parts, distinct unit heads
    if not nonneg:
        return None
    splits = [_split_vector(v) for v in distinct]
    junk0 = splits[0][1]
    if any(j != junk0 for _k, j in splits[1:]):
        return None
    heads = [k for k, _j in splits]
    shared_known = None
    for k in heads:
        keys = set(k)
        shared_known = keys if shared_known is None else (shared_known & keys)
    # strip the common known part into the junk so heads become disjoint
    stripped = []
    common = {}
    for name in shared_known or set():
        m = min(k[name] for k in heads)
        if m > 0:
            common[name] = m
    for k in heads:
        kk = {n: c - common.get(n, 0) for n, c in k.items()}
        stripped.append({n: c for n, c in kk.items() if c})
    unit_heads = all(len(k) == 1 and next(iter(k.values())) == 1 for k in stripped)
    distinct_heads = len({next(iter(k)) for k in stripped}) == len(stripped) \
        if unit_heads else False
    if unit_heads and distinct_heads:
        return len(distinct), False, None
    return None


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


def _try_close(table, vectors):
    """Attempt to close the support of the vectors under syzygy expansion;
    returns the closed name list or None when some expansion fails."""
    todo = sorted({n for v in vectors for n in v})
    seen_set = set()
    while todo:
        name = todo.pop()
        if name in seen_set:
            continue
        try:
            sigma = table.syzygy_expansion(name)
        except NoDecomposition:
            return None
        seen_set.add(name)
        todo.extend(n for n in sigma if n not in seen_set)
    return sorted(seen_set)


def _finite_lattice_phi(table, vectors, ranks_so_far, closed):
    d = len(closed)
    idx = {n: i for i, n in enumerate(closed)}
    current = [[v.get(n, 0) for n in closed] for v in vectors]

    def step(vs):
        out = []
        for v in vs:
            nv = [0] * d
            for j, x in enumerate(v):
                if x:
                    for child, m in table.syzygy_expansion(closed[j]).items():
                        nv[idx[child]] += x * m
            out.append(nv)
        return out

    ranks = list(ranks_so_far)
    offset = len(ranks) - 1
    vs = current
    for _ in range(d):
        vs = step(vs)
        ranks.append(_rank_of_int_rows(vs))
    target = ranks[offset + d]
    value = min(l for l, r in enumerate(ranks) if r == target)
    return PhiResult(value, ranks, None)


# -- certified merge lower bounds ---------------------------------------------


def merge_lower_bound(x, y, probe_steps=4, trials=20, seed=0):
    """A certified lower bound on phi(x + y) from a syzygy merge.

    Requires the two modules to be visibly distinct in the stable group:
    neither may fit a projective summand (no projective dim vector dominates
    componentwise) and their dim vectors must not be proportional.  When
    syzygy_rep^j(x) is certified isomorphic to syzygy_rep^j(y) at the first
    such j, the class difference [x] - [y] is a nonzero kernel element of the
    j-th syzygy endomorphism, so phi >= j.  Returns 0 when no merge is found
    within probe_steps or when the guards fail."""
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
    for j in range(1, probe_steps + 1):
        if not (guarded(cx) and guarded(cy)):
            return 0
        if cx.dim_vector() == cy.dim_vector() or proportional(cx.dim_vector(), cy.dim_vector()):
            return 0
        nx, ny = reps.syzygy_rep(cx), reps.syzygy_rep(cy)
        if nx.dim_vector() == ny.dim_vector():
            r = reps.iso_test(nx, ny, trials=trials, seed=seed)
            if r.isomorphic:
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


def _corner_phidim_bounds(corner, trials, seed):
    if corner.is_monomial_like:
        b = phidim_bounds(corner)
        return b.lower, b.upper, "path-class lattice bounds"
    if reps.certified_self_injective(corner, trials=trials, seed=seed) is True:
        return 0, 0, "certified self-injective: phi vanishes identically"
    return None, None, "unknown (no certified bound available)"


def triangular_check(algebra, gamma, gamma_bar, witness_pairs=(), trials=20, seed=0):
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
    low_a, up_a, note_a = _corner_phidim_bounds(corner_a, trials, seed)
    low_b, up_b, note_b = _corner_phidim_bounds(corner_b, trials, seed)
    theorem_upper = None
    if up_a is not None and up_b is not None:
        theorem_upper = up_a + up_b + 1
    if algebra.is_monomial_like:
        c_lower = phidim_bounds(algebra).lower
        lower_note = "path-class lattice sample"
    else:
        c_lower = 0
        lower_note = "no witness"
        for x, y in witness_pairs:
            value = merge_lower_bound(x, y, trials=trials, seed=seed)
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
