"""Quiver representations over exact fields: the linear-algebra engine.

A Representation assigns to each vertex a space of stated dimension and to
each arrow u -> w a matrix with rows indexed by the target space and columns
by the source; a path acts by composing its arrow matrices in traversal
order, later arrows applied last.  Hom spaces are solved through a projective presentation
of the source (Yoneda: a hom out of a projective cover is a tuple of vectors,
one per cover summand, constrained by the kernel generators), which keeps the
linear systems small even against large targets.

Isomorphism testing is Las Vegas with a fixed seed: a verdict of
"isomorphic" always carries an explicit intertwiner, re-verified by
multiplication and inverted vertexwise; "undetermined" is a distinct outcome
and is never coerced.
"""

import random

from . import linalg, pathmodules
from .errors import (
    FieldMismatch,
    InternalInvariantError,
    NoDecomposition,
)
from .quiver import INFINITE


class Representation:
    """A finitely generated left module presented by vertex spaces and arrow
    matrices.  Immutable after construction."""

    def __init__(self, algebra, dims, mats=None, name=""):
        self.algebra = algebra
        self.field = algebra.field
        quiver = algebra.quiver
        self.dims = {v: int(dims.get(v, 0)) for v in quiver.vertices}
        if any(d < 0 for d in self.dims.values()):
            raise ValueError("negative dimension")
        self.mats = {}
        mats = mats or {}
        for a in quiver.arrows:
            r, c = self.dims[a.target], self.dims[a.source]
            m = mats.get(a.name)
            if m is None:
                m = linalg.zeros(self.field, r, c)
            else:
                if len(m) != r or any(len(row) != c for row in m):
                    raise ValueError(
                        f"matrix for arrow {a.name} must be {r}x{c} (target x source)"
                    )
                m = [[self.field.of(x) for x in row] for row in m]
            self.mats[a.name] = m
        self.name = name
        self._eval_cache = {}
        self._presentation = None

    # -- basics -----------------------------------------------------------

    def dim_vector(self):
        return tuple(self.dims[v] for v in self.algebra.quiver.vertices)

    @property
    def total_dim(self):
        return sum(self.dims.values())

    def is_zero(self):
        return self.total_dim == 0

    def evaluate_path(self, path):
        """Matrix of the path action (dim target x dim source); memoized."""
        key = (path.arrows, path.vertex)
        cached = self._eval_cache.get(key)
        if cached is not None:
            return cached
        quiver = self.algebra.quiver
        src = path.source
        cur = linalg.identity(self.field, self.dims[src])
        cur_rows = self.dims[src]
        for name in path.arrows:
            a = quiver.arrow_by_name[name]
            cur = linalg.mat_mul(self.field, self.mats[name], self.dims[a.target],
                                 cur, cur_rows, self.dims[src])
            cur_rows = self.dims[a.target]
        self._eval_cache[key] = cur
        return cur

    def check_relations(self):
        """Verify every defining relation acts as zero; raises on failure."""
        A = self.algebra
        F = self.field
        if A.kind == "monomial":
            for g in A.ideal.generators:
                if not linalg.is_zero_matrix(F, self.evaluate_path(g)):
                    raise InternalInvariantError(f"generator {g} acts nonzero")
        if A.kind == "relations":
            for rel in A.ideal.relations:
                acc = None
                for c, term in rel.terms:
                    m = linalg.mat_scale(F, F.of(c), self.evaluate_path(term))
                    acc = m if acc is None else linalg.mat_add(F, acc, m)
                if acc and not linalg.is_zero_matrix(F, acc):
                    raise InternalInvariantError(f"relation {rel} acts nonzero")
        if A.kind in ("truncated", "relations"):
            self._check_long_paths_vanish(A.nilpotency)
        return True

    def _check_long_paths_vanish(self, length):
        quiver = self.algebra.quiver
        F = self.field
        for start in quiver.vertices:
            if self.dims[start] == 0:
                continue
            stack = [(start, 0, linalg.identity(F, self.dims[start]))]
            while stack:
                v, depth, mat = stack.pop()
                if depth == length:
                    if not linalg.is_zero_matrix(F, mat):
                        raise InternalInvariantError(
                            f"a length-{length} path acts nonzero from {start}"
                        )
                    continue
                if linalg.is_zero_matrix(F, mat):
                    continue
                for a in quiver.arrows_from(v):
                    nm = linalg.mat_mul(F, self.mats[a.name], self.dims[a.target], mat,
                                        self.dims[v], self.dims[start])
                    stack.append((a.target, depth + 1, nm))

    def __repr__(self):
        label = self.name or "Rep"
        return f"{label}{self.dim_vector()}"


def direct_sum(algebra, parts, name=""):
    """Block-diagonal direct sum; parts is a list of Representations."""
    quiver = algebra.quiver
    F = algebra.field
    dims = {v: sum(p.dims[v] for p in parts) for v in quiver.vertices}
    mats = {}
    for a in quiver.arrows:
        r, c = dims[a.target], dims[a.source]
        m = linalg.zeros(F, r, c)
        ro = co = 0
        for p in parts:
            pr, pc = p.dims[a.target], p.dims[a.source]
            block = p.mats[a.name]
            for i in range(pr):
                for j in range(pc):
                    m[ro + i][co + j] = block[i][j]
            ro += pr
            co += pc
        mats[a.name] = m
    return Representation(algebra, dims, mats, name=name)


# -- standard modules --------------------------------------------------------


def simple(algebra, v):
    return Representation(algebra, {v: 1}, name=f"S_{v}")


def projective(algebra, v):
    """Realize the left projective at v on the basis paths/cosets out of v."""
    quiver = algebra.quiver
    F = algebra.field
    idx = algebra.basis_indices_from(v)
    slot = {b: j for j, b in enumerate(idx)}
    by_vertex = {w: [b for b in idx if algebra.basis[b].target == w] for w in quiver.vertices}
    pos = {w: {b: j for j, b in enumerate(by_vertex[w])} for w in quiver.vertices}
    dims = {w: len(by_vertex[w]) for w in quiver.vertices}
    mats = {}
    for a in quiver.arrows:
        m = linalg.zeros(F, dims[a.target], dims[a.source])
        for b in by_vertex[a.source]:
            ai = algebra.index_of(algebra.path((a.name,)))
            for k, coeff in algebra.product_indices(ai, b):
                m[pos[a.target][k]][pos[a.source][b]] = F.of(coeff)
        mats[a.name] = m
    rep = Representation(algebra, dims, mats, name=f"P_{v}")
    rep._proj_vertex = v
    rep._proj_basis = {w: by_vertex[w] for w in quiver.vertices}
    return rep


def injective(algebra, v):
    """Dual of the right projective at v: basis the paths/cosets into v."""
    quiver = algebra.quiver
    F = algebra.field
    idx = algebra.basis_indices_into(v)
    by_vertex = {w: [b for b in idx if algebra.basis[b].source == w] for w in quiver.vertices}
    pos = {w: {b: j for j, b in enumerate(by_vertex[w])} for w in quiver.vertices}
    dims = {w: len(by_vertex[w]) for w in quiver.vertices}
    mats = {}
    for a in quiver.arrows:
        # (a.f)(y) = f(y*a): column x in the u-layer, row y in the w-layer
        m = linalg.zeros(F, dims[a.target], dims[a.source])
        ai = algebra.index_of(algebra.path((a.name,)))
        for y in by_vertex[a.target]:
            for k, coeff in algebra.product_indices(y, ai):
                if k in pos[a.source]:
                    m[pos[a.target][y]][pos[a.source][k]] = F.of(coeff)
        mats[a.name] = m
    return Representation(algebra, dims, mats, name=f"I_{v}")


def standard_modules(algebra):
    vs = algebra.quiver.vertices
    return (
        {v: simple(algebra, v) for v in vs},
        {v: projective(algebra, v) for v in vs},
        {v: injective(algebra, v) for v in vs},
    )


def rep_of_class(cls):
    """Concrete representation of a path module class from its continuations."""
    algebra = cls.algebra
    quiver = algebra.quiver
    F = algebra.field
    by_vertex = {w: [] for w in quiver.vertices}
    for arrows in sorted(cls.continuations, key=lambda a: (len(a), a)):
        by_vertex[cls.continuation_target(arrows)].append(arrows)
    pos = {w: {a: j for j, a in enumerate(by_vertex[w])} for w in quiver.vertices}
    dims = {w: len(by_vertex[w]) for w in quiver.vertices}
    mats = {}
    cont = cls.continuations
    for a in quiver.arrows:
        m = linalg.zeros(F, dims[a.target], dims[a.source])
        for arrows in by_vertex[a.source]:
            ext = arrows + (a.name,)
            if ext in cont:
                m[pos[a.target][ext]][pos[a.source][arrows]] = F.one
        mats[a.name] = m
    return Representation(algebra, dims, mats, name=cls.label)


def rep_of_multiset(multiset, algebra):
    parts = []
    for cls, mult in multiset:
        parts.extend(rep_of_class(cls) for _ in range(mult))
    if not parts:
        return Representation(algebra, {}, name="0")
    return direct_sum(algebra, parts, name=str(multiset))


# -- tops, covers, presentations ---------------------------------------------


def top_complements(rep):
    """Per vertex: vectors spanning a complement of the radical = sum of the
    incoming arrow images.  Their count is the top dimension vector."""
    quiver = rep.algebra.quiver
    F = rep.field
    out = {}
    for w in quiver.vertices:
        n = rep.dims[w]
        if n == 0:
            out[w] = []
            continue
        image_rows = []
        for a in quiver.arrows_into(w):
            m = rep.mats[a.name]
            for j in range(rep.dims[a.source]):
                image_rows.append([m[i][j] for i in range(n)])
        if image_rows:
            red, pivots = linalg.rref(F, image_rows)
            pivot_set = set(pivots)
        else:
            pivot_set = set()
        out[w] = [linalg.unit_vector(F, n, j) for j in range(n) if j not in pivot_set]
    return out


def top_dim_vector(rep):
    tops = top_complements(rep)
    return tuple(len(tops[v]) for v in rep.algebra.quiver.vertices)


class Presentation:
    """Minimal projective cover data for a representation.

    copies: list of (vertex, generator vector in M_vertex);
    cover_basis[w]: list of (copy index, algebra basis index) spanning the
    cover at w;  pi[w]: cover -> M matrices;  kernel data gives the syzygy
    and the kernel-top generators in cover coordinates.
    """

    def __init__(self, rep):
        algebra = rep.algebra
        quiver = algebra.quiver
        F = rep.field
        self.rep = rep
        tops = top_complements(rep)
        self.copies = []
        for v in quiver.vertices:
            for g in tops[v]:
                self.copies.append((v, g))
        self.cover_basis = {w: [] for w in quiver.vertices}
        for ci, (v, _g) in enumerate(self.copies):
            for b in algebra.basis_indices_from(v):
                w = algebra.basis[b].target
                self.cover_basis[w].append((ci, b))
        self.pi = {}
        for w in quiver.vertices:
            cols = []
            for ci, b in self.cover_basis[w]:
                v, g = self.copies[ci]
                act = rep.evaluate_path(algebra.basis[b])
                cols.append(linalg.mat_vec(F, act, g))
            n = rep.dims[w]
            mat = [[cols[j][i] for j in range(len(cols))] for i in range(n)]
            self.pi[w] = mat
            if linalg.rank(F, mat) != n:
                raise InternalInvariantError(
                    "projective cover of the top fails to surject"
                )
        self._kernel = None
        self._kernel_top = None
        self._sections = None

    def cover_rep(self):
        algebra = self.rep.algebra
        parts = [projective(algebra, v) for v, _ in self.copies]
        if not parts:
            return Representation(algebra, {}, name="0")
        return direct_sum(algebra, parts)

    def kernel(self):
        """(kernel representation, embedding matrices kernel -> cover)."""
        if self._kernel is not None:
            return self._kernel
        algebra = self.rep.algebra
        quiver = algebra.quiver
        F = self.rep.field
        cover = self.cover_rep()
        embed = {}
        for w in quiver.vertices:
            basis = linalg.nullspace(F, self.pi[w], cols=len(self.cover_basis[w]))
            embed[w] = basis  # list of cover-coordinate vectors
        dims = {w: len(embed[w]) for w in quiver.vertices}
        mats = {}
        for a in quiver.arrows:
            u, w = a.source, a.target
            cov = cover.mats[a.name]
            targets = [linalg.mat_vec(F, cov, k) for k in embed[u]]
            basis_mat = [
                [embed[w][t][i] for t in range(dims[w])]
                for i in range(len(self.cover_basis[w]))
            ]
            sols = linalg.solve_many(F, basis_mat, targets)
            m = linalg.zeros(F, dims[w], dims[u])
            for j, sol in enumerate(sols):
                if sol is None:
                    raise InternalInvariantError("cover action leaves the kernel")
                for i in range(dims[w]):
                    m[i][j] = sol[i]
            mats[a.name] = m
        ker = Representation(algebra, dims, mats, name=f"syz({self.rep.name})" if self.rep.name else "syz")
        self._kernel = (ker, embed)
        return self._kernel

    def kernel_top_generators(self):
        """Kernel-top generators in cover coordinates: (vertex, vector) pairs."""
        if self._kernel_top is not None:
            return self._kernel_top
        ker, embed = self.kernel()
        tops = top_complements(ker)
        gens = []
        F = self.rep.field
        for w in self.rep.algebra.quiver.vertices:
            for t in tops[w]:
                vec = [F.zero] * len(self.cover_basis[w])
                for idx, coeff in enumerate(t):
                    if F.is_zero(coeff):
                        continue
                    kvec = embed[w][idx]
                    for i, x in enumerate(kvec):
                        if not F.is_zero(x):
                            vec[i] = F.add(vec[i], F.mul(coeff, x))
                gens.append((w, vec))
        self._kernel_top = gens
        return gens

    def sections(self):
        """Per vertex, cover-coordinate preimages of the standard basis of M."""
        if self._sections is not None:
            return self._sections
        F = self.rep.field
        out = {}
        for w in self.rep.algebra.quiver.vertices:
            n = self.rep.dims[w]
            eyes = [linalg.unit_vector(F, n, i) for i in range(n)]
            sols = linalg.solve_many(F, self.pi[w], eyes)
            if any(s is None for s in sols):
                raise InternalInvariantError("cover section missing")
            out[w] = sols
        self._sections = out
        return out


def presentation(rep):
    if rep._presentation is None:
        rep._presentation = Presentation(rep)
    return rep._presentation


def syzygy_rep(rep):
    """Kernel of the minimal projective cover of the top, as a Representation."""
    if rep.is_zero():
        return Representation(rep.algebra, {}, name="0")
    ker, _ = presentation(rep).kernel()
    return ker


# -- hom spaces and isomorphism ----------------------------------------------


class ModuleHom:
    """An intertwiner: per-vertex matrices M_v -> N_v commuting with arrows."""

    def __init__(self, source, target, matrices):
        self.source = source
        self.target = target
        self.matrices = matrices

    def verify(self):
        F = self.source.field
        quiver = self.source.algebra.quiver
        for a in quiver.arrows:
            left = linalg.mat_mul(F, self.matrices[a.target], self.target.dims[a.target],
                                  self.source.mats[a.name], self.source.dims[a.target],
                                  self.source.dims[a.source])
            right = linalg.mat_mul(F, self.target.mats[a.name], self.target.dims[a.target],
                                   self.matrices[a.source], self.target.dims[a.source],
                                   self.source.dims[a.source])
            if left != right:
                return False
        return True

    def is_vertexwise_invertible(self):
        F = self.source.field
        for v in self.source.algebra.quiver.vertices:
            if self.source.dims[v] != self.target.dims[v]:
                return False
            if self.source.dims[v] and linalg.invert(F, self.matrices[v]) is None:
                return False
        return True


def _hom_parameter_space(source, target):
    """Solve for homs source -> target through the source's presentation.
    Returns (presentation, list of parameter vectors u)."""
    if source.field != target.field:
        raise FieldMismatch(f"{source.field.name} vs {target.field.name}")
    F = source.field
    pres = presentation(source)
    offsets = []
    total = 0
    for v, _g in pres.copies:
        offsets.append(total)
        total += target.dims[v]
    rows = []
    for w, kv in pres.kernel_top_generators():
        nw = target.dims[w]
        if nw == 0:
            continue
        block = [[F.zero] * total for _ in range(nw)]
        for pos, coeff in enumerate(kv):
            if not coeff:
                continue
            ci, b = pres.cover_basis[w][pos]
            act = target.evaluate_path(source.algebra.basis[b])
            off = offsets[ci]
            for brow, arow in zip(block, act):
                for j, x in enumerate(arow, off):
                    if x:
                        brow[j] += coeff * x
        if F.char:
            block = [[x % F.char for x in brow] for brow in block]
        rows.extend(block)
    params = linalg.nullspace(F, rows, cols=total) if rows else [
        linalg.unit_vector(F, total, i) for i in range(total)
    ]
    return pres, offsets, total, params


def _materialize_hom(source, target, pres, offsets, u):
    F = source.field
    quiver = source.algebra.quiver
    secs = pres.sections()
    mats = {}
    uparts = []
    for ci, (v, _g) in enumerate(pres.copies):
        uparts.append(u[offsets[ci]: offsets[ci] + target.dims[v]])
    for w in quiver.vertices:
        n, m = target.dims[w], source.dims[w]
        mat = linalg.zeros(F, n, m)
        for j in range(m):
            cover_vec = secs[w][j]
            for pos, coeff in enumerate(cover_vec):
                if not coeff:
                    continue
                ci, b = pres.cover_basis[w][pos]
                act = target.evaluate_path(source.algebra.basis[b])
                for i, x in enumerate(linalg.mat_vec(F, act, uparts[ci])):
                    if x:
                        mat[i][j] += coeff * x
        if F.char:
            mat = [[x % F.char for x in row] for row in mat]
        mats[w] = mat
    return ModuleHom(source, target, mats)


def hom_space(source, target):
    """A basis of Hom(source, target) as ModuleHom objects (exact)."""
    if source.is_zero():
        return []
    pres, offsets, total, params = _hom_parameter_space(source, target)
    return [_materialize_hom(source, target, pres, offsets, u) for u in params]


def hom_dim(source, target):
    if source.is_zero():
        return 0
    _pres, _off, _total, params = _hom_parameter_space(source, target)
    return len(params)


class IsoResult:
    def __init__(self, status, certificate=None, detail=""):
        self.status = status  # isomorphic | not_isomorphic | undetermined
        self.certificate = certificate
        self.detail = detail

    @property
    def isomorphic(self):
        return self.status == "isomorphic"

    def __repr__(self):
        return self.status


def _try_certificate(hom):
    if hom.is_vertexwise_invertible() and hom.verify():
        return hom
    return None


def iso_test(m, n, trials=20, seed=0):
    """Certified module isomorphism test.

    not_isomorphic on dimension-vector mismatch, zero hom space, or hom
    dimension asymmetry; isomorphic only with a re-verified invertible
    intertwiner; undetermined after the trial budget."""
    if m.field != n.field:
        raise FieldMismatch(f"{m.field.name} vs {n.field.name}")
    if m.dim_vector() != n.dim_vector():
        return IsoResult("not_isomorphic", detail="dimension vectors differ")
    if m.is_zero():
        return IsoResult("isomorphic", ModuleHom(m, n, {v: [] for v in m.algebra.quiver.vertices}),
                         "both zero")
    # deterministic identity-first check
    ident = ModuleHom(m, n, {v: linalg.identity(m.field, m.dims[v])
                             for v in m.algebra.quiver.vertices})
    if ident.verify():
        return IsoResult("isomorphic", ident, "identity")
    basis = hom_space(m, n)
    if not basis:
        return IsoResult("not_isomorphic", detail="Hom(M,N) = 0")
    found = _sample_invertible(m, n, basis, trials, seed)
    if found is not None:
        return found
    if len(basis) != hom_dim(n, m):
        return IsoResult("not_isomorphic", detail="Hom dimensions asymmetric")
    return IsoResult("undetermined", detail=f"no invertible combination in {trials} trials")


def _sample_invertible(m, n, basis, trials, seed):
    F = m.field
    rng = random.Random(seed)
    entries = [_nonzero_entries(h) for h in basis]
    # a row or column that is zero in every basis hom is zero in every
    # combination, so no candidate could be invertible
    nonzero = [e for hom_entries in entries for e in hom_entries]
    if len({(v, i) for v, i, _j, _x in nonzero}) < m.total_dim or \
            len({(v, j) for v, _i, j, _x in nonzero}) < m.total_dim:
        return None
    for t in range(trials):
        if t == 0 and len(basis) == 1:
            coeffs = [F.one]
        else:
            coeffs = [F.random(rng) for _ in basis]
        cand = ModuleHom(m, n, _combine(F, n.dims, m.dims, coeffs, entries))
        cert = _try_certificate(cand)
        if cert is not None:
            return IsoResult("isomorphic", cert, f"random combination, trial {t}")
    return None


def _nonzero_entries(hom):
    """The nonzero (vertex, row, column, value) entries of hom's matrices."""
    return [(v, i, j, x)
            for v, mat in hom.matrices.items()
            for i, row in enumerate(mat)
            for j, x in enumerate(row) if x]


def _combine(F, rows, cols, coeffs, entries):
    """Per-vertex rows[v] x cols[v] matrices of sum(coef * hom) from sparse entries."""
    p = F.char
    mats = {v: [[F.zero] * cols[v] for _ in range(r)] for v, r in rows.items()}
    for coef, hom_entries in zip(coeffs, entries):
        for v, i, j, x in hom_entries:
            mats[v][i][j] += coef * x
    if p:
        mats = {v: [[x % p for x in row] for row in mat] for v, mat in mats.items()}
    return mats


def iso_test_against_sum(m, parts, trials=20, seed=0):
    """iso_test(m, direct sum of parts) with the hom space built blockwise.

    parts: list of (Representation, multiplicity).  Builds Hom(sum, m) from
    the small spaces Hom(part, m) and samples invertible combinations of the
    block-embedded maps.
    """
    algebra = m.algebra
    expanded = []
    for rep, mult in parts:
        expanded.extend([rep] * mult)
    nsum = direct_sum(algebra, expanded, name="+".join(p.name or "?" for p in expanded)) \
        if expanded else Representation(algebra, {}, name="0")
    if nsum.dim_vector() != m.dim_vector():
        return IsoResult("not_isomorphic", detail="dimension vectors differ"), nsum
    if m.is_zero():
        return IsoResult("isomorphic", detail="both zero"), nsum
    block_bases = {}
    total_dim_hom = 0
    for rep, _mult in parts:
        if id(rep) not in block_bases:
            block_bases[id(rep)] = hom_space(rep, m)
    copies = []  # (rep, per-vertex column offsets)
    offset = {v: 0 for v in algebra.quiver.vertices}
    for rep in expanded:
        copies.append((rep, dict(offset)))
        total_dim_hom += len(block_bases[id(rep)])
        for v in algebra.quiver.vertices:
            offset[v] += rep.dims[v]
    if total_dim_hom == 0:
        return IsoResult("not_isomorphic", detail="Hom(sum, M) = 0"), nsum
    # sample combinations blockwise: each hom's nonzero entries are collected
    # once, shifted into its copy's columns; one coefficient per hom per trial
    F = m.field
    rng = random.Random(seed)
    block_entries = {key: [_nonzero_entries(h) for h in homs] for key, homs in block_bases.items()}
    entries = [[(v, i, offs[v] + j, x) for v, i, j, x in hom_entries]
               for rep, offs in copies for hom_entries in block_entries[id(rep)]]
    for t in range(trials):
        coeffs = [F.random(rng) for _ in entries]
        cand = ModuleHom(nsum, m, _combine(F, m.dims, nsum.dims, coeffs, entries))
        cert = _try_certificate(cand)
        if cert is not None:
            return IsoResult("isomorphic", cert, f"random combination, trial {t}"), nsum
    return IsoResult("undetermined",
                     detail=f"no invertible combination in {trials} trials"), nsum


# -- decomposition against a catalog ------------------------------------------


def decompose_against_catalog(m, catalog, trials=20, seed=0, max_candidates=20000,
                              ambiguity_budget=25):
    """Certified decomposition of m as a multiset over catalog entries.

    catalog: list of (name, Representation) asserted indecomposable by the
    caller.  Enumerates dimension-vector knapsack candidates, prunes by top
    dimension vectors, and certifies with iso_test_against_sum.  Returns
    (Counter name -> multiplicity, warnings list).
    """
    from collections import Counter

    warnings = []
    if m.is_zero():
        return Counter(), warnings
    verts = m.algebra.quiver.vertices
    target = m.dim_vector()
    target_top = top_dim_vector(m)
    entries = []
    for name, rep in catalog:
        if rep.is_zero():
            continue
        entries.append((name, rep, rep.dim_vector(), top_dim_vector(rep)))
    entries.sort(key=lambda e: (-sum(e[2]), e[0]))

    candidates = []

    def dfs(idx, remaining, chosen):
        if len(candidates) >= max_candidates:
            return
        if all(r == 0 for r in remaining):
            candidates.append(list(chosen))
            return
        if idx == len(entries):
            return
        name, rep, dv, _tv = entries[idx]
        mx = min(
            (r // d for r, d in zip(remaining, dv) if d > 0),
            default=0,
        )
        for count in range(mx, -1, -1):
            rem = tuple(r - count * d for r, d in zip(remaining, dv))
            if any(x < 0 for x in rem):
                continue
            if count:
                chosen.append((idx, count))
            dfs(idx + 1, rem, chosen)
            if count:
                chosen.pop()

    dfs(0, target, [])
    if len(candidates) >= max_candidates:
        warnings.append(f"candidate enumeration capped at {max_candidates}")

    def top_of(cand):
        out = [0] * len(verts)
        for idx, count in cand:
            tv = entries[idx][3]
            out = [a + count * b for a, b in zip(out, tv)]
        return tuple(out)

    filtered = [c for c in candidates if top_of(c) == target_top]
    result = None
    checked_after_success = 0
    for cand in filtered:
        parts = [(entries[idx][1], count) for idx, count in cand]
        verdict, _nsum = iso_test_against_sum(m, parts, trials=trials, seed=seed)
        if verdict.isomorphic:
            counter = Counter({entries[idx][0]: count for idx, count in cand})
            if result is None:
                result = counter
            elif counter != result:
                warnings.append(f"AMBIGUOUS: {dict(counter)} also certifies")
        if result is not None:
            checked_after_success += 1
            if checked_after_success > ambiguity_budget:
                warnings.append("ambiguity scan truncated")
                break
    if result is None:
        raise NoDecomposition(
            f"no catalog multiset certifies against dim vector {target}"
        )
    return result, warnings


# -- projective dimension probing ---------------------------------------------


class PdProbe:
    """Outcome of pd probing: kind is 'exact', 'infinite' or 'at_least'."""

    def __init__(self, kind, value, detail=""):
        self.kind = kind
        self.value = value
        self.detail = detail

    def to_json(self):
        return {"kind": self.kind, "value": "infinite" if self.kind == "infinite" else self.value,
                "detail": self.detail}

    def __repr__(self):
        if self.kind == "exact":
            return f"pd={self.value}"
        if self.kind == "infinite":
            return f"pd=infinite ({self.detail})"
        return f"pd>={self.value} (cap)"


def class_catalog(algebra):
    """All path-module classes (including the projectives) with their reps."""
    calc = pathmodules.calculus(algebra)
    classes = calc.all_path_classes()
    seen = {c.sort_key for c in classes}
    for v in algebra.quiver.vertices:
        p = calc.projective_class(v)
        if p.sort_key not in seen:
            classes.append(p)
            seen.add(p.sort_key)
    return [(c.label, rep_of_class(c)) for c in classes], {c.label: c for c in classes}


def certified_self_injective(algebra, trials=20, seed=0):
    """Exact self-injectivity: match every projective to an injective via
    certified isomorphisms.  Returns True/False/None (None = undetermined)."""
    cached = getattr(algebra, "_self_injective", "unset")
    if cached != "unset":
        return cached
    verts = algebra.quiver.vertices
    projs = {v: projective(algebra, v) for v in verts}
    injs = {v: injective(algebra, v) for v in verts}
    unmatched = set(verts)
    verdict = True
    for v in verts:
        hit = None
        undecided = False
        for w in list(unmatched):
            r = iso_test(projs[v], injs[w], trials=trials, seed=seed)
            if r.isomorphic:
                hit = w
                break
            if r.status == "undetermined":
                undecided = True
        if hit is None:
            verdict = None if undecided else False
            break
        unmatched.discard(hit)
    algebra._self_injective = verdict
    return verdict


def pd_rep(m, max_steps=20, trials=20, seed=0):
    """Probe the projective dimension of a representation.

    Exact termination when some syzygy vanishes.  Infinite certificates:
    over monomial/truncated algebras the second syzygy is decomposed into
    path-module classes and handed to the combinatorial pd; over a certified
    self-injective algebra any non-projective module has infinite pd; and a
    certified isomorphism between two distinct trajectory members (equal
    dimension vectors) closes a cycle.  Otherwise at_least(max_steps)."""
    algebra = m.algebra
    if m.is_zero():
        return PdProbe("exact", 0, "zero module")
    current = m
    trajectory = [m]
    for step in range(1, 3):
        current = syzygy_rep(current)
        if current.is_zero():
            return PdProbe("exact", step - 1, "syzygy vanished")
        trajectory.append(current)
        hit = _trajectory_repeat(trajectory, trials, seed)
        if hit is not None:
            return PdProbe("infinite", INFINITE, hit)
    if algebra.is_monomial_like:
        catalog, classes = class_catalog(algebra)
        calc = pathmodules.calculus(algebra)
        counts, warnings = decompose_against_catalog(
            trajectory[2], catalog, trials=trials, seed=seed
        )
        worst = 0
        for label, mult in counts.items():
            value = calc.pd(classes[label])
            if value == INFINITE:
                return PdProbe("infinite", INFINITE,
                               "second syzygy contains an infinite-pd path class "
                               f"({label})")
            worst = max(worst, value)
        return PdProbe("exact", 2 + worst, "path-class handoff")
    if certified_self_injective(algebra) is True:
        # non-projective over a self-injective algebra: syzygies never vanish
        return PdProbe("infinite", INFINITE, "self-injective algebra, module not projective")
    while len(trajectory) - 1 < max_steps:
        current = syzygy_rep(current)
        if current.is_zero():
            return PdProbe("exact", len(trajectory) - 1, "syzygy vanished")
        trajectory.append(current)
        hit = _trajectory_repeat(trajectory, trials, seed)
        if hit is not None:
            return PdProbe("infinite", INFINITE, hit)
    return PdProbe("at_least", max_steps, "step cap reached")


def _trajectory_repeat(trajectory, trials, seed, window=48):
    """Certified repeat detection: compare the newest member against earlier
    ones with the same dimension vector.  Long trajectories only probe the
    earliest and latest `window` candidates — missing a distant repeat
    downgrades to at_least, never to a false certificate."""
    last = trajectory[-1]
    same = [i for i in range(len(trajectory) - 1)
            if trajectory[i].dim_vector() == last.dim_vector()]
    if len(same) > 2 * window:
        same = same[:window] + same[-window:]
    for i in same:
        r = iso_test(trajectory[i], last, trials=trials, seed=seed)
        if r.isomorphic:
            return f"syzygy step {len(trajectory) - 1} isomorphic to step {i}"
    return None
