"""Quiver representations over exact fields: the linear-algebra engine.

A Representation assigns to each vertex a space of stated dimension and to
each arrow u -> w a linear map, stored as its sparse columns: per basis
vector of the source, a {row: value} dict of the nonzero entries, rows
indexed by the target space.  A ModuleHom stores its vertex maps the same
way.  Their dense matrices are views, built only when read.  A path acts
in one way only: a sparse vector is pushed along its arrows, later arrows
applied last, through the arrows' sparse columns; the basis paths out of a
vertex share their prefixes through the algebra's push plan.  A
presentation pushes the top generators of its module; a module that is a
hom target memoizes the pushes of its unit vectors, the columns of the hom
constraints.  Hom spaces are solved through a projective presentation of
the source (Yoneda: a hom out of a projective cover is a tuple of vectors,
one per cover summand, constrained by the kernel generators), which keeps
the linear systems small even against large targets.

Isomorphism testing is Las Vegas with a fixed seed: a verdict of
"isomorphic" always carries an explicit intertwiner, of full rank at every
vertex and re-verified to commute with every arrow; "undetermined" is a
distinct outcome and is never coerced.
"""

import random
from fractions import Fraction
from math import lcm

from . import linalg, pathmodules
from .errors import (
    FieldMismatch,
    InternalInvariantError,
    NoDecomposition,
    ParseError,
    PreconditionViolated,
)
from .quiver import INFINITE


class Representation:
    """A finitely generated left module presented by vertex spaces and arrow
    maps, stored per arrow as its sparse columns, {row: value} dicts of the
    nonzero entries, one per basis vector of the source space.  `mats`, the
    dense matrices (rows indexed by the target space, columns by the source),
    is a view built on first read.  Immutable after construction."""

    def __init__(self, algebra, dims, mats=None, name=""):
        F = algebra.field
        dims = {v: int(dims.get(v, 0)) for v in algebra.quiver.vertices}
        if any(d < 0 for d in dims.values()):
            raise ValueError("negative dimension")
        given = mats or {}
        columns = {}
        for a in algebra.quiver.arrows:
            r, c = dims[a.target], dims[a.source]
            m = given.get(a.name)
            if m is not None and (len(m) != r or any(len(row) != c for row in m)):
                raise ValueError(
                    f"matrix for arrow {a.name} must be {r}x{c} (target x source)"
                )
            columns[a.name] = [{} for _ in range(c)] if m is None else _sparse_columns(F.of, m, c)
        self._set(algebra, dims, columns, name)

    @classmethod
    def _of_field_elements(cls, algebra, dims, columns, name):
        """A module whose dims name every vertex and whose sparse columns, per
        arrow, hold nonzero field elements only (a kernel, a direct sum):
        taken as they are, with no per-entry copy."""
        rep = cls.__new__(cls)
        rep._set(algebra, dims, columns, name)
        return rep

    def _set(self, algebra, dims, columns, name):
        self.algebra = algebra
        self.field = algebra.field
        self.dims = dims
        self.columns = columns
        self.name = name
        self._mats = None
        self._pushes = {}
        self._presentation = None

    @property
    def mats(self):
        """Per arrow name, its dense matrix: a view of the sparse columns,
        built on first read."""
        if self._mats is None:
            self._mats = {a.name: _dense(self.field, self.columns[a.name], self.dims[a.target])
                          for a in self.algebra.quiver.arrows}
        return self._mats

    # -- basics -----------------------------------------------------------

    def dim_vector(self):
        return tuple(self.dims[v] for v in self.algebra.quiver.vertices)

    @property
    def total_dim(self):
        return sum(self.dims.values())

    def is_zero(self):
        return self.total_dim == 0

    def _path_images(self, path):
        """The images of the unit vectors at path's source under path, as
        sparse vectors: the columns of the path's action."""
        columns = self.columns
        p = self.field.char
        vecs = [{j: self.field.one} for j in range(self.dims[path.source])]
        for name in path.arrows:
            vecs = [_apply(columns[name], x, p) for x in vecs]
        return vecs

    def check_relations(self):
        """Verify every defining relation acts as zero; ParseError naming the
        first relation that does not (a module given as input breaks it)."""
        A = self.algebra
        F = self.field
        if A.kind == "monomial":
            for g in A.ideal.generators:
                if any(self._path_images(g)):
                    raise ParseError(f"relation {g} acts nonzero")
        if A.kind == "relations":
            p = F.char
            for rel in A.ideal.relations:
                acc = None
                for c, term in rel.terms:
                    c = F.of(c)
                    images = self._path_images(term)
                    if acc is None:
                        acc = [{} for _ in images]
                    for out, vec in zip(acc, images):
                        for i, x in vec.items():
                            out[i] = out.get(i, 0) + c * x
                if any(s % p if p else s for out in acc for s in out.values()):
                    raise ParseError(f"relation {rel} acts nonzero")
        if A.kind in ("truncated", "relations"):
            self._check_long_paths_vanish(A.nilpotency)
        return True

    def _check_long_paths_vanish(self, length):
        """Push the unit vectors at each vertex along every path of the given
        length, dropping those that vanish on the way."""
        quiver = self.algebra.quiver
        columns = self.columns
        p = self.field.char
        for start in quiver.vertices:
            stack = [(start, 0, [{j: self.field.one} for j in range(self.dims[start])])]
            while stack:
                v, depth, vecs = stack.pop()
                vecs = [x for x in vecs if x]
                if not vecs:
                    continue
                if depth == length:
                    raise ParseError(
                        f"relation J^{length} acts nonzero: a length-{length} "
                        f"path from {start}"
                    )
                for a in quiver.arrows_from(v):
                    stack.append((a.target, depth + 1,
                                  [_apply(columns[a.name], x, p) for x in vecs]))

    def __repr__(self):
        label = self.name or "Rep"
        return f"{label}{self.dim_vector()}"


def _sparse_columns(of, mat, ncols):
    """The ncols columns of a matrix of row lists, each entry x taken as the
    field element of(x), as sparse {row: value} dicts of the nonzero ones.
    An entry that is already zero is skipped without a call of of."""
    cols = [{} for _ in range(ncols)]
    for i, row in enumerate(mat):
        for j, x in enumerate(row):
            if x and (x := of(x)):
                cols[j][i] = x
    return cols


def _dense(F, columns, nrows):
    """The dense row lists of a matrix of nrows rows given by its sparse
    columns: the view behind `Representation.mats` and `ModuleHom.matrices`."""
    mat = linalg.zeros(F, nrows, len(columns))
    for j, col in enumerate(columns):
        for i, x in col.items():
            mat[i][j] = x
    return mat


def direct_sum(algebra, parts, name=""):
    """Block-diagonal direct sum; parts is a list of Representations.  Each
    part's columns are shifted by the rows of the parts before it."""
    quiver = algebra.quiver
    dims = {v: sum(p.dims[v] for p in parts) for v in quiver.vertices}
    columns = {}
    for a in quiver.arrows:
        cols = columns[a.name] = []
        ro = 0
        for p in parts:
            cols.extend({ro + i: x for i, x in col.items()} for col in p.columns[a.name])
            ro += p.dims[a.target]
    return Representation._of_field_elements(algebra, dims, columns, name)


# -- standard modules --------------------------------------------------------


def simple(algebra, v):
    return Representation(algebra, {v: 1}, name=f"S_{v}")


def projective(algebra, v):
    """Realize the left projective at v on the basis paths/cosets out of v:
    its arrow columns are the per-algebra arrow action tables at v."""
    dims = {w: 0 for w in algebra.quiver.vertices}
    for b in algebra.basis_indices_from(v):
        dims[algebra.basis[b].target] += 1
    columns = {a.name: [{k: c for k, c in image if c}
                        for image in _arrow_action(algebra, a)[v][0]]
               for a in algebra.quiver.arrows}
    return Representation._of_field_elements(algebra, dims, columns, f"P_{v}")


def injective(algebra, v):
    """Dual of the right projective at v: basis the paths/cosets into v."""
    quiver = algebra.quiver
    F = algebra.field
    idx = algebra.basis_indices_into(v)
    by_vertex = {w: [b for b in idx if algebra.basis[b].source == w] for w in quiver.vertices}
    pos = {w: {b: j for j, b in enumerate(by_vertex[w])} for w in quiver.vertices}
    dims = {w: len(by_vertex[w]) for w in quiver.vertices}
    columns = {}
    for a in quiver.arrows:
        # (a.f)(y) = f(y*a): column x in the u-layer, row y in the w-layer
        cols = columns[a.name] = [{} for _ in range(dims[a.source])]
        ai = algebra.index_of(algebra.path((a.name,)))
        for y in by_vertex[a.target]:
            for k, coeff in algebra.product_indices(y, ai):
                if k in pos[a.source] and (c := F.of(coeff)):
                    cols[pos[a.source][k]][pos[a.target][y]] = c
    return Representation._of_field_elements(algebra, dims, columns, f"I_{v}")


def rep_of_class(cls):
    """Concrete representation of a path module class from its continuations."""
    algebra = cls.algebra
    quiver = algebra.quiver
    one = algebra.field.one
    by_vertex = {w: [] for w in quiver.vertices}
    for arrows in sorted(cls.continuations, key=lambda a: (len(a), a)):
        by_vertex[cls.continuation_target(arrows)].append(arrows)
    pos = {w: {a: j for j, a in enumerate(by_vertex[w])} for w in quiver.vertices}
    dims = {w: len(by_vertex[w]) for w in quiver.vertices}
    columns = {a.name: [{pos[a.target][arrows + (a.name,)]: one}
                        if arrows + (a.name,) in cls.continuations else {}
                        for arrows in by_vertex[a.source]]
               for a in quiver.arrows}
    return Representation._of_field_elements(algebra, dims, columns, cls.label)


# -- tops, covers, presentations ---------------------------------------------


def top_complements(rep):
    """Per vertex: unit vectors, as {index: 1} dicts, spanning a complement
    of the radical = sum of the incoming arrow images.  Their count is the
    top dimension vector."""
    quiver = rep.algebra.quiver
    F = rep.field
    cols = rep.columns
    out = {}
    for w in quiver.vertices:
        images = [col for a in quiver.arrows_into(w) for col in cols[a.name]]
        _rows, pivots = linalg.sparse_rref(F, images)
        pivot_set = set(pivots)
        out[w] = [{j: F.one} for j in range(rep.dims[w]) if j not in pivot_set]
    return out


def top_dim_vector(rep):
    tops = top_complements(rep)
    return tuple(len(tops[v]) for v in rep.algebra.quiver.vertices)


def _apply(columns, vec, p):
    """A matrix given by its sparse columns, applied to a sparse vector."""
    out = {}
    for j, x in vec.items():
        for i, c in columns[j].items():
            out[i] = out.get(i, 0) + c * x
    if p:
        return {i: s % p for i, s in out.items() if s % p}
    return {i: s for i, s in out.items() if s}


def _push_plan(algebra, v):
    """How a top generator at v is pushed along the basis paths out of v, in
    basis order, as one per-algebra table: per path (basis index, target,
    slot of its longest prefix already pushed, arrows still to apply).  Slot
    0 holds the generator and each applied arrow fills the next slot."""
    return algebra.memo(("push_plan", v), lambda: _build_push_plan(algebra, v))


def _build_push_plan(algebra, v):
    slots = {(): 0}
    plan = []
    for b in algebra.basis_indices_from(v):
        path = algebra.basis[b]
        arrows = path.arrows
        k = len(arrows)
        while arrows[:k] not in slots:
            k -= 1
        plan.append((b, path.target, slots[arrows[:k]], arrows[k:]))
        for j in range(k + 1, len(arrows) + 1):
            slots[arrows[:j]] = len(slots)
    return plan


def _push(rep, v, vec):
    """The images of a sparse vector at v under the basis paths out of v,
    pushed along the algebra's push plan: yields (basis index, target,
    sparse image) in basis order."""
    columns = rep.columns
    p = rep.field.char
    pushed = [vec]  # images of vec along the plan's prefixes, by slot
    for b, w, slot, arrows in _push_plan(rep.algebra, v):
        x = pushed[slot]
        for name in arrows:
            x = _apply(columns[name], x, p)
            pushed.append(x)
        yield b, w, x


def _unit_push(rep, v, j):
    """The images of the j-th unit vector at v, as a dict basis index ->
    sparse vector: the j-th columns of the actions of the basis paths out
    of v.  Memoized per module, for a module that is a hom target."""
    key = (v, j)
    out = rep._pushes.get(key)
    if out is None:
        out = rep._pushes[key] = {b: x for b, _w, x in _push(rep, v, {j: rep.field.one})}
    return out


def _arrow_action(algebra, arrow):
    """The action of an arrow u -> w on each projective, as one per-algebra
    table: per vertex v, (images, n_w), where images lists, for each basis
    path out of v ending at u in basis order, the product arrow * path as
    (local index, coefficient) pairs, a local index counting the basis paths
    out of v ending at w, and n_w is their number."""
    return algebra.memo(("arrow_action", arrow.name),
                        lambda: _build_arrow_action(algebra, arrow))


def _build_arrow_action(algebra, arrow):
    F = algebra.field
    ai = algebra.index_of(algebra.path((arrow.name,)))
    table = {}
    for v in algebra.quiver.vertices:
        out_of_v = algebra.basis_indices_from(v)
        local = {b: k for k, b in enumerate(
            b for b in out_of_v if algebra.basis[b].target == arrow.target)}
        images = [tuple((local[k], F.of(c)) for k, c in algebra.product_indices(ai, b))
                  for b in out_of_v if algebra.basis[b].target == arrow.source]
        table[v] = (images, len(local))
    return table


class Presentation:
    """Minimal projective cover data for a representation.

    Vectors are sparse {index: value} dicts.  copies: list of (vertex,
    generator vector in M_vertex); cover_basis[w]: list of (copy index,
    algebra basis index) spanning the cover at w;  cover -> M at w: one
    column per cover basis element, the image of a generator (a unit
    vector) under a basis path, pushed along the algebra's push plan.  A
    syzygy is one elimination of that map per vertex: its pivots check that
    the cover surjects, its free columns give the kernel basis and the
    coordinates of the cover action on it.  Holds only what it reads of the
    module (algebra, field, dims, name), not the module itself, so a module
    and its memoized presentation form no reference cycle.
    """

    def __init__(self, rep):
        algebra = rep.algebra
        quiver = algebra.quiver
        self.algebra = algebra
        self.field = rep.field
        self.dims = rep.dims
        self.name = rep.name
        tops = top_complements(rep)
        self.copies = [(v, g) for v in quiver.vertices for g in tops[v]]
        self.cover_basis = {w: [] for w in quiver.vertices}
        self._pi_cols = {w: [] for w in quiver.vertices}
        for ci, (v, g) in enumerate(self.copies):
            for b, w, x in _push(rep, v, g):
                self.cover_basis[w].append((ci, b))
                self._pi_cols[w].append(x)
        self._kernel = None
        self._kernel_top = None
        self._sections = None

    def cover_images(self, arrow, vectors):
        """Images under an arrow u -> w of sparse cover-coordinate vectors at u.

        Each copy of a projective P_v occupies one block of the cover at u
        and one at w, in copy order; the algebra's arrow action table maps a
        position in P_v at u to positions in P_v at w, shifted here by the
        block offsets."""
        p = self.field.char
        action = _arrow_action(self.algebra, arrow)
        cover = self.cover_basis[arrow.source]
        blocks = []  # per copy: (first position at u, images, first position at w)
        at_u = at_w = 0
        for v, _g in self.copies:
            images, n_w = action[v]
            blocks.append((at_u, images, at_w))
            at_u += len(images)
            at_w += n_w
        out = []
        for vec in vectors:
            acc = {}
            for j, x in vec.items():
                start, images, offset = blocks[cover[j][0]]
                for k, c in images[j - start]:
                    k += offset
                    acc[k] = acc.get(k, 0) + c * x
            if p:
                out.append({k: s % p for k, s in acc.items() if s % p})
            else:
                out.append({k: s for k, s in acc.items() if s})
        return out

    def kernel(self):
        """(kernel representation, embedding kernel -> cover as sparse
        cover-coordinate vectors per vertex).

        The kernel basis vector of a free column f of the reduced cover map
        is 1 at f and 0 at the other free columns, so the kernel coordinates
        of a cover vector are its entries at the free columns, and the
        kernel's arrow matrices come out column by column."""
        if self._kernel is not None:
            return self._kernel
        algebra = self.algebra
        quiver = algebra.quiver
        F = self.field
        p = F.char
        embed = {}
        reduced = {}
        for w in quiver.vertices:
            rows = [{} for _ in range(self.dims[w])]
            for k, col in enumerate(self._pi_cols[w]):
                for i, x in col.items():
                    rows[i][k] = x
            r, pivots = linalg.sparse_rref(F, rows)
            if len(pivots) != self.dims[w]:
                raise InternalInvariantError(
                    "projective cover of the top fails to surject"
                )
            free, free_cols, embed[w] = _null_basis(F, r, pivots, len(self.cover_basis[w]))
            row_of = {pc: i for i, pc in enumerate(pivots)}
            slot = {fc: k for k, fc in enumerate(free)}
            reduced[w] = (row_of, slot, free_cols)
        dims = {w: len(embed[w]) for w in quiver.vertices}
        columns = {}
        for a in quiver.arrows:
            row_of, slot, free_cols = reduced[a.target]
            cols = []
            for t in self.cover_images(a, embed[a.source]):
                # t is in the kernel iff every reduced row r_i kills it:
                # t[pivot_i] + sum over free columns f of r_i[f] * t[f] == 0
                col, acc = {}, {}
                for j, x in t.items():
                    if j in slot:
                        col[slot[j]] = x
                        for i, c in free_cols[j]:
                            acc[i] = acc.get(i, 0) + c * x
                    else:
                        i = row_of[j]
                        acc[i] = acc.get(i, 0) + x
                if any([s % p for s in acc.values()]) if p else any(acc.values()):
                    raise InternalInvariantError("cover action leaves the kernel")
                cols.append(col)
            columns[a.name] = cols
        ker = Representation._of_field_elements(
            algebra, dims, columns, f"syz({self.name})" if self.name else "syz")
        self._kernel = (ker, embed)
        return self._kernel

    def kernel_top_generators(self):
        """Kernel-top generators in cover coordinates: (vertex, sparse
        vector) pairs.  Each kernel-top vector is a unit vector of the
        kernel, so its generator is the embedding of that basis vector."""
        if self._kernel_top is None:
            ker, embed = self.kernel()
            tops = top_complements(ker)
            self._kernel_top = [(w, embed[w][j]) for w in self.algebra.quiver.vertices
                                for t in tops[w] for j in t]
        return self._kernel_top

    def sections(self):
        """Per vertex, sparse cover-coordinate preimages of the standard basis
        of M: the rref [R | E] of [pi | I] gives the preimage of e_i that is
        E[k][i] at the k-th pivot and 0 at the free columns."""
        if self._sections is not None:
            return self._sections
        F = self.field
        out = {}
        for w, cols in self._pi_cols.items():
            size = len(cols)
            rows = [{size + i: F.one} for i in range(self.dims[w])]
            for k, col in enumerate(cols):
                for i, x in col.items():
                    rows[i][k] = x
            r, pivots = linalg.sparse_rref(F, rows)
            if pivots and pivots[-1] >= size:
                raise InternalInvariantError("cover section missing")
            secs = out[w] = [{} for _ in rows]
            for row, pc in zip(r, pivots):
                for j, x in row.items():
                    if j >= size:
                        secs[j - size][pc] = x
        self._sections = out
        return out


def _null_basis(F, rows, pivots, ncols):
    """(free columns, per free column its nonzero (row, value) entries, kernel
    basis) of a matrix on ncols columns from its rref rows and pivots; the
    basis vector of free column f is 1 at f and -r_i[f] at the i-th pivot."""
    p = F.char
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    free_cols = {fc: [] for fc in free}
    for i, row in enumerate(rows):
        for j, x in row.items():
            if j != pivots[i]:
                free_cols[j].append((i, x))
    basis = []
    for fc in free:
        v = {fc: F.one}
        for i, c in free_cols[fc]:
            v[pivots[i]] = -c % p if p else -c
        basis.append(v)
    return free, free_cols, basis


def presentation(rep):
    if rep._presentation is None:
        rep._presentation = Presentation(rep)
    return rep._presentation


def syzygy_dim(rep):
    """Total dimension of the next syzygy, read off the memoized presentation
    as the cover's dimension minus the module's; the kernel is not built."""
    if rep.is_zero():
        return 0
    pres = presentation(rep)
    return sum(len(basis) for basis in pres.cover_basis.values()) - rep.total_dim


def syzygy_rep(rep):
    """Kernel of the minimal projective cover of the top, as a Representation."""
    if rep.is_zero():
        return Representation(rep.algebra, {}, name="0")
    ker, _ = presentation(rep).kernel()
    return ker


# -- hom spaces and isomorphism ----------------------------------------------


class ModuleHom:
    """An intertwiner: per-vertex maps M_v -> N_v commuting with the arrows,
    stored per vertex as sparse columns {row: value} of the nonzero entries.
    `matrices`, the dense matrices, is a view built on first read."""

    def __init__(self, source, target, columns):
        self.source = source
        self.target = target
        self.columns = columns
        self._matrices = None

    @property
    def matrices(self):
        if self._matrices is None:
            F, dims = self.source.field, self.target.dims
            self._matrices = {v: _dense(F, cols, dims[v]) for v, cols in self.columns.items()}
        return self._matrices

    def verify(self):
        """Whether the maps H commute with every arrow a: u -> w, i.e.
        H_w M_a = N_a H_u, compared exactly column by column on sparse
        columns: H_w applied to column j of M_a against N_a applied to
        column j of H_u."""
        p = self.source.field.char
        cols = self.columns
        m_cols, n_cols = self.source.columns, self.target.columns
        for a in self.source.algebra.quiver.arrows:
            h_w, n_a = cols[a.target], n_cols[a.name]
            for m_col, h_col in zip(m_cols[a.name], cols[a.source]):
                if _apply(h_w, m_col, p) != _apply(n_a, h_col, p):
                    return False
        return True


def _hom_parameter_space(source, target):
    """Solve for homs source -> target through the source's presentation.
    A hom is a parameter vector u, one block u_ci in target_v per cover copy
    of P_v; each kernel-top generator sum coeff * (ci, b) constrains it by
    sum coeff * b.u_ci = 0, whose columns are the target's unit pushes.
    Returns (presentation, per parameter its (copy, index in u_ci), list of
    u as sparse vectors)."""
    if source.field != target.field:
        raise FieldMismatch(f"{source.field.name} vs {target.field.name}")
    F = source.field
    pres = presentation(source)
    offsets, owner = [], []
    for ci, (v, _g) in enumerate(pres.copies):
        offsets.append(len(owner))
        owner.extend((ci, k) for k in range(target.dims[v]))
    rows = []
    for w, kv in pres.kernel_top_generators():
        if not target.dims[w]:
            continue
        block = [{} for _ in range(target.dims[w])]
        for pos, coeff in kv.items():
            ci, b = pres.cover_basis[w][pos]
            v = pres.copies[ci][0]
            for k in range(target.dims[v]):
                col = offsets[ci] + k
                for i, x in _unit_push(target, v, k)[b].items():
                    block[i][col] = block[i].get(col, 0) + coeff * x
        rows.extend(block)
    r, pivots = linalg.sparse_rref(F, rows)
    return pres, owner, _null_basis(F, r, pivots, len(owner))[2]


def _materialize_hom(source, target, pres, owner, u):
    """The hom of parameter vector u: column j at w is sum coeff * b.u_ci
    over the section of the j-th unit vector of source_w, coeff at cover
    position (ci, b); each block u_ci is pushed once along the plan."""
    p = source.field.char
    secs = pres.sections()
    blocks = [{} for _ in pres.copies]
    for pos, x in u.items():
        ci, k = owner[pos]
        blocks[ci][k] = x
    images = [{b: y for b, _w, y in _push(target, v, block)}
              for (v, _g), block in zip(pres.copies, blocks)]
    columns = {}
    for w in source.algebra.quiver.vertices:
        cols = columns[w] = []
        for sec in secs[w]:
            acc = {}
            for pos, coeff in sec.items():
                ci, b = pres.cover_basis[w][pos]
                for i, x in images[ci][b].items():
                    acc[i] = acc.get(i, 0) + coeff * x
            cols.append({i: r for i, s in acc.items() if (r := s % p)} if p
                        else {i: s for i, s in acc.items() if s})
    return ModuleHom(source, target, columns)


def hom_space(source, target):
    """A basis of Hom(source, target) as ModuleHom objects (exact)."""
    if source.is_zero():
        return []
    pres, owner, params = _hom_parameter_space(source, target)
    return [_materialize_hom(source, target, pres, owner, u) for u in params]


def hom_dim(source, target):
    if source.is_zero():
        return 0
    return len(_hom_parameter_space(source, target)[2])


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


def iso_test(m, n, trials=20, seed=0):
    """Certified module isomorphism test.

    not_isomorphic on dimension-vector mismatch, zero hom space, a row or
    column that is zero in every hom, or hom dimension asymmetry; isomorphic
    only with a re-verified invertible intertwiner; undetermined after the
    trial budget."""
    if m.field != n.field:
        raise FieldMismatch(f"{m.field.name} vs {n.field.name}")
    if m.dim_vector() != n.dim_vector():
        return IsoResult("not_isomorphic", detail="dimension vectors differ")
    if m.is_zero():
        return IsoResult("isomorphic", ModuleHom(m, n, {v: [] for v in m.dims}),
                         "both zero")
    # deterministic identity-first check
    one = m.field.one
    ident = ModuleHom(m, n, {v: [{j: one} for j in range(d)] for v, d in m.dims.items()})
    if ident.verify():
        return IsoResult("isomorphic", ident, "identity")
    basis = hom_space(m, n)
    if not basis:
        return IsoResult("not_isomorphic", detail="Hom(M,N) = 0")
    den, entries = _int_entries(m.field, basis)
    line = _shared_zero_line(entries, n.dims, m.dims)
    if line:
        return IsoResult("not_isomorphic", detail=line)
    found = _sample_invertible(m, n, den, entries, trials, seed, unit_first=len(basis) == 1)
    if found is not None:
        return found
    if len(basis) != hom_dim(n, m):
        return IsoResult("not_isomorphic", detail="Hom dimensions asymmetric")
    return IsoResult("undetermined", detail=f"no invertible combination in {trials} trials")


def _sample_invertible(source, target, den, entries, trials, seed, unit_first=False):
    """Random combinations of the homs source -> target given by their
    nonzero entries (vertex, row, column, den * value) as plain ints: an
    isomorphic IsoResult for the first one that _certify accepts, or None
    after the trials.  A trial draws one int coefficient per hom; with
    unit_first, trial 0 takes the single hom as it is, without a draw."""
    F = source.field
    rng = random.Random(seed)
    for t in range(trials):
        if unit_first and t == 0:
            coeffs = [1]
        else:
            coeffs = [F.random(rng) for _ in entries]
        mats = _combine(F.char, target.dims, source.dims, coeffs, entries)
        cert = _certify(source, target, mats, den)
        if cert is not None:
            return IsoResult("isomorphic", cert, f"random combination, trial {t}")
    return None


def _int_entries(F, homs):
    """(D, per hom the nonzero entries (vertex, row, column, D * value) of
    its matrices, as plain ints).  Over Q, D is the lcm of the values'
    denominators; over F_p the values are ints already and D is 1."""
    entries = [_nonzero_entries(h) for h in homs]
    if F.char:
        return 1, entries
    den = lcm(*{x.denominator for hom_entries in entries for *_vij, x in hom_entries})
    return den, [[(v, i, j, x.numerator * (den // x.denominator))
                  for v, i, j, x in hom_entries] for hom_entries in entries]


def _certify(source, target, mats, den):
    """The hom source -> target with per-vertex matrices mats / den, mats
    given as plain ints, if it is an isomorphism, else None.

    An integer matrix has the rank of its quotient by den, so full rank is
    tested exactly on the ints; only a candidate of full rank at every vertex
    is turned into field elements and verified to commute with the arrows."""
    F = source.field
    if not all(linalg.is_invertible(F, mat) for mat in mats.values()):
        return None
    # over F_p the ints are reduced already; over Q an entry x stands for
    # x / den, and Fraction(x) skips the gcd when den is 1
    of = F.of if F.char else Fraction if den == 1 else lambda x: Fraction(x, den)
    hom = ModuleHom(source, target, {v: _sparse_columns(of, mat, source.dims[v])
                                     for v, mat in mats.items()})
    return hom if hom.verify() else None


def _nonzero_entries(hom):
    """The nonzero (vertex, row, column, value) entries of hom's maps, read
    off its sparse columns."""
    return [(v, i, j, x)
            for v, cols in hom.columns.items()
            for j, col in enumerate(cols)
            for i, x in col.items()]


def _shared_zero_line(entries, rows, cols):
    """Name a row or column that is zero in every hom given by its nonzero
    entries (per-vertex shapes rows[v] x cols[v]), or return "".

    Every hom is a combination of a basis, so such a line is zero in every
    hom and no hom is invertible: a certified non-isomorphism."""
    used_rows = {(v, i) for hom_entries in entries for v, i, _j, _x in hom_entries}
    used_cols = {(v, j) for hom_entries in entries for v, _i, j, _x in hom_entries}
    for v, r in rows.items():
        for i in range(r):
            if (v, i) not in used_rows:
                return f"row {i} at vertex {v} is zero in every hom"
    for v, c in cols.items():
        for j in range(c):
            if (v, j) not in used_cols:
                return f"column {j} at vertex {v} is zero in every hom"
    return ""


def _combine(p, rows, cols, coeffs, entries):
    """Per-vertex rows[v] x cols[v] int matrices of sum(coef * hom) from the
    homs' sparse int entries, reduced mod p when p is nonzero."""
    mats = {v: [[0] * cols[v] for _ in range(r)] for v, r in rows.items()}
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
    block-embedded maps; a row or column that is zero in all of them
    certifies not_isomorphic without a trial.
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
    # and scaled to ints once, shifted into its copy's columns; one
    # coefficient per hom per trial
    homs = [h for block in block_bases.values() for h in block]
    den, hom_entries = _int_entries(m.field, homs)
    block_entries = dict(zip(map(id, homs), hom_entries))
    entries = [[(v, i, offs[v] + j, x) for v, i, j, x in block_entries[id(h)]]
               for rep, offs in copies for h in block_bases[id(rep)]]
    line = _shared_zero_line(entries, m.dims, nsum.dims)
    if line:
        return IsoResult("not_isomorphic", detail=line), nsum
    found = _sample_invertible(nsum, m, den, entries, trials, seed)
    if found is not None:
        return found, nsum
    return IsoResult("undetermined",
                     detail=f"no invertible combination in {trials} trials"), nsum


# -- decomposition against a catalog ------------------------------------------


def decompose_against_catalog(m, catalog, trials=20, seed=0):
    """Certified decomposition of m as a multiset over catalog entries.

    catalog: list of (name, Representation), pairwise non-isomorphic
    indecomposables (the caller's contract).  Candidates are the multisets
    whose dimension vectors and top dimension vectors both sum to m's,
    enumerated with the largest entries first and the highest counts first;
    the first one that iso_test_against_sum certifies is returned, and by
    Krull-Schmidt it is the only one (a duplicate entry could only change
    which of two isomorphic names comes back).  Returns (Counter name ->
    multiplicity, warnings); the warnings list is always empty.
    """
    from collections import Counter

    if m.is_zero():
        return Counter(), []
    entries = sorted(((name, rep, rep.dim_vector() + top_dim_vector(rep))
                      for name, rep in catalog if not rep.is_zero()),
                     key=lambda e: (-e[1].total_dim, e[0]))
    for cand in _candidates(entries, 0, m.dim_vector() + top_dim_vector(m)):
        parts = [(entries[idx][1], count) for idx, count in cand]
        verdict, _nsum = iso_test_against_sum(m, parts, trials=trials, seed=seed)
        if verdict.isomorphic:
            return Counter({entries[idx][0]: count for idx, count in cand}), []
    raise NoDecomposition(
        f"no catalog multiset certifies against dim vector {m.dim_vector()}"
    )


def _candidates(entries, idx, remaining):
    """The multisets over entries[idx:] whose (dimension + top) vectors sum
    to remaining, as lists of (index, count) with count > 0, highest counts
    first.  A module-level generator, so that no closure ties the catalog
    into a reference cycle."""
    # top vectors are nonnegative, so a count that overshoots a top
    # coordinate cuts only multisets that could not match m's top
    if not any(remaining):
        yield []
        return
    if idx == len(entries):
        return
    vec = entries[idx][2]
    most = min(r // d for r, d in zip(remaining, vec) if d)
    for count in range(most, -1, -1):
        rest = tuple(r - count * d for r, d in zip(remaining, vec))
        for tail in _candidates(entries, idx + 1, rest):
            yield [(idx, count)] + tail if count else tail


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
    certified isomorphisms.  Returns True/False/None (None = undetermined).
    Only a certified verdict is kept in the algebra's memo, so a later call
    with more trials can still decide."""
    return algebra.memo("self_injective",
                        lambda: _match_projectives_to_injectives(algebra, trials, seed))


def _match_projectives_to_injectives(algebra, trials, seed):
    verts = algebra.quiver.vertices
    projs = {v: projective(algebra, v) for v in verts}
    injs = {v: injective(algebra, v) for v in verts}
    unmatched = set(verts)
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
            return None if undecided else False
        unmatched.discard(hit)
    return True


def pd_rep(m, max_steps=20, trials=20, seed=0, max_dim=None):
    """Probe the projective dimension of a representation.

    Exact termination when some syzygy vanishes.  Infinite certificates:
    over monomial/truncated algebras the second syzygy is decomposed into
    path-module classes and handed to the combinatorial pd; over a certified
    self-injective algebra any non-projective module has infinite pd; and a
    certified isomorphism between two distinct trajectory members (equal
    fingerprints) closes a cycle.  Otherwise at_least(max(2, max_steps)):
    steps 1 and 2 always run, and every syzygy built was nonzero.  Or
    at_least(step) when max_dim is given and the step-th syzygy would have
    a larger total dimension: it is not built, and being nonzero it shows
    pd >= step."""
    algebra = m.algebra
    if m.is_zero():
        return PdProbe("exact", 0, "zero module")
    current = m
    trajectory = [m]
    buckets = {_fingerprint(m): [0]}
    step = 1
    while True:
        if step == 3 and algebra.is_monomial_like:
            catalog, classes = class_catalog(algebra)
            calc = pathmodules.calculus(algebra)
            counts, _warnings = decompose_against_catalog(
                trajectory[2], catalog, trials=trials, seed=seed
            )
            worst = 0
            for label in counts:
                value = calc.pd(classes[label])
                if value == INFINITE:
                    return PdProbe("infinite", INFINITE,
                                   "second syzygy contains an infinite-pd path class "
                                   f"({label})")
                worst = max(worst, value)
            return PdProbe("exact", 2 + worst, "path-class handoff")
        if step == 3 and certified_self_injective(algebra) is True:
            # non-projective over a self-injective algebra: syzygies never vanish
            return PdProbe("infinite", INFINITE, "self-injective algebra, module not projective")
        if step > max(2, max_steps):
            return PdProbe("at_least", step - 1, "step cap reached")
        over = over_budget(current, step, max_dim)
        if over is not None:
            return over
        current = syzygy_rep(current)
        if current.is_zero():
            return PdProbe("exact", step - 1, "syzygy vanished")
        trajectory.append(current)
        hit = _trajectory_repeat(trajectory, buckets, trials, seed)
        if hit is not None:
            return PdProbe("infinite", INFINITE, hit)
        step += 1


def over_budget(rep, step, max_dim):
    """at_least(step) when rep's syzygy, the step-th, would have a total
    dimension above max_dim, else None (always None for max_dim None)."""
    if max_dim is None:
        return None
    if max_dim < 0:
        raise PreconditionViolated(f"dimension budget must be nonnegative, got {max_dim}")
    dim = syzygy_dim(rep)
    if dim <= max_dim:
        return None
    return PdProbe("at_least", step,
                   f"dimension budget {max_dim} reached: syzygy {step} has dimension {dim}")


def _fingerprint(rep):
    """An exact isomorphism invariant: the dimension vector, and for a thin
    module (every dimension at most 1) also a complete canonical form.

    A thin module's isomorphisms are the vertexwise rescalings.  From each
    support vertex not yet reached, in quiver order, grow a spanning tree
    over the arrows that act nonzero, scanning them in quiver arrow order;
    rescale the basis so that the tree arrows act by 1, and record the
    rescaled scalar of every nonzero arrow.  Thin modules are isomorphic iff
    their fingerprints are equal."""
    dv = rep.dim_vector()
    if any(d > 1 for d in dv):
        return dv
    F = rep.field
    quiver = rep.algebra.quiver
    nonzero = [(a, col[0]) for a in quiver.arrows
               for col in rep.columns[a.name][:1] if col]
    # the new basis vector at v is scale[v] times the old one, so an arrow
    # u -> w acting by s acts by s * scale[u] / scale[w] afterwards
    scale = {}
    for v in quiver.vertices:
        if rep.dims[v] and v not in scale:
            scale[v] = F.one
            grown = True
            while grown:
                grown = False
                for a, s in nonzero:
                    if a.source in scale and a.target not in scale:
                        scale[a.target] = F.mul(s, scale[a.source])
                        grown = True
                    elif a.target in scale and a.source not in scale:
                        scale[a.source] = F.div(scale[a.target], s)
                        grown = True
    return dv, tuple((a.name, F.div(F.mul(s, scale[a.source]), scale[a.target]))
                     for a, s in nonzero)


def _trajectory_repeat(trajectory, buckets, trials, seed, window=48):
    """Certified repeat detection: compare the newest member against the
    earlier ones with the same fingerprint, recorded in buckets (fingerprint
    -> trajectory indices), then file it there.  Isomorphic modules have
    equal fingerprints, so no repeat is skipped; every hit is confirmed by
    iso_test.  A long bucket only probes its earliest and latest `window`
    members; missing a distant repeat downgrades to at_least, never to a
    false certificate."""
    last = len(trajectory) - 1
    same = buckets.setdefault(_fingerprint(trajectory[last]), [])
    probe = same if len(same) <= 2 * window else same[:window] + same[-window:]
    for i in probe:
        r = iso_test(trajectory[i], trajectory[last], trials=trials, seed=seed)
        if r.isomorphic:
            return f"syzygy step {last} isomorphic to step {i}"
    same.append(last)
    return None
