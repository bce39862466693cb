"""Quiver representations over exact fields: the linear-algebra engine.

A Representation assigns to each vertex a space of stated dimension and to
each arrow u -> w a linear map, stored as its sparse columns: per basis
vector of the source, a {row: value} dict of the nonzero entries, rows
indexed by the target space.  A ModuleHom stores its vertex maps the same
way.  Their dense matrices are views, built only when read.  A path acts
in one way only: a sparse vector is pushed along its arrows, later arrows
applied last, through the arrows' sparse columns; the basis paths out of a
vertex share their prefixes through the algebra's push plan.  A module
memoizes its top generators, read by the top dimension vector, the
presentation and the kernel tops, and its presentation, which pushes those
generators as they are; a module that is a hom target memoizes the pushes
of its unit vectors, the columns of the hom constraints.  Hom spaces are solved through a projective presentation of
the source (Yoneda: a hom out of a projective cover is a tuple of vectors,
one per cover summand, constrained by the kernel generators), which keeps
the linear systems small even against large targets.

Isomorphism testing is Las Vegas with a fixed budget of TRIALS random
combinations drawn from a fixed seed: a verdict of "isomorphic" always
carries an explicit intertwiner, of full rank at every vertex and
re-verified to commute with every arrow; "undetermined" is a distinct
outcome and is never coerced.

Catalog decomposition peels the simple summands off first, exactly and
with no sampling: a few eliminations per vertex give the split M = C +
S^k and its basis-change certificate.  Only the remainder C, which has no
simple summand, is matched against the non-simple catalog entries by the
sampled sum test.
"""

import random
from math import lcm

from . import linalg, pathmodules
from .errors import (
    FieldMismatch,
    InternalInvariantError,
    NoDecomposition,
    ParseError,
    PreconditionViolated,
)
from .fields import ratio
from .quiver import INFINITE

# the random combinations an iso decision tries before it falls back to the
# hom dimension asymmetry test and then to "undetermined"
TRIALS = 20


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
        self._tops = None

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
    top dimension vector.  Memoized on the module: the presentation pushes
    these very dicts (slot 0 of its pushes), so no reader may change them."""
    if rep._tops is None:
        quiver = rep.algebra.quiver
        F = rep.field
        cols = rep.columns
        out = {}
        for w in quiver.vertices:
            images = [col for a in quiver.arrows_into(w) for col in cols[a.name]]
            _rows, pivots = linalg.sparse_rref(F, images)
            pivot_set = set(pivots)
            out[w] = [{j: F.one} for j in range(rep.dims[w]) if j not in pivot_set]
        rep._tops = out
    return rep._tops


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


def iso_test(m, n):
    """Certified module isomorphism test: the iso decision on the hom basis
    of Hom(m, n); the certificate goes m -> n."""
    return _decide_iso(m, n, lambda: _int_entries(m.field, hom_space(m, n)))


def _decide_iso(source, target, hom_entries):
    """The one isomorphism decision behind iso_test and iso_test_against_sum;
    a certificate goes source -> target.

    The checks run in this order: dimension vectors, zero modules, the
    identity, and then, on the basis of Hom(source, target) that
    hom_entries() yields as _int_entries gives it, Hom = 0, a row or column
    zero in every hom, random combinations, hom dimension asymmetry.
    isomorphic only with a re-verified invertible intertwiner; undetermined
    after TRIALS random combinations."""
    if source.field != target.field:
        raise FieldMismatch(f"{source.field.name} vs {target.field.name}")
    if source.dim_vector() != target.dim_vector():
        return IsoResult("not_isomorphic", detail="dimension vectors differ")
    if source.is_zero():
        return IsoResult("isomorphic", ModuleHom(source, target, {v: [] for v in source.dims}),
                         "both zero")
    # the identity intertwines exactly when the arrows have equal sparse
    # columns; only then is it built and verified
    if source.columns == target.columns:
        one = source.field.one
        ident = ModuleHom(source, target,
                          {v: [{j: one} for j in range(d)] for v, d in source.dims.items()})
        if ident.verify():
            return IsoResult("isomorphic", ident, "identity")
    den, entries = hom_entries()
    if not entries:
        return IsoResult("not_isomorphic", detail="Hom(M,N) = 0")
    line = _shared_zero_line(entries, target.dims, source.dims)
    if line:
        return IsoResult("not_isomorphic", detail=line)
    found = _sample_invertible(source, target, den, entries)
    if found is not None:
        return found
    if len(entries) != hom_dim(target, source):
        return IsoResult("not_isomorphic", detail="Hom dimensions asymmetric")
    return IsoResult("undetermined", detail=f"no invertible combination in {TRIALS} trials")


def _sample_invertible(source, target, den, entries):
    """Random combinations of the homs source -> target given by their
    nonzero entries (vertex, row, column, den * value) as plain ints: an
    isomorphic IsoResult for the first one that _certify accepts, or None
    after TRIALS trials.  A trial draws one int coefficient per hom from a
    generator seeded with 0, so every call draws the same sequence; a single
    hom is taken as it is in trial 0, without a draw (c * h is invertible
    iff h is)."""
    F = source.field
    rng = random.Random(0)
    for t in range(TRIALS):
        coeffs = [1] if t == 0 and len(entries) == 1 else [F.random(rng) for _ in entries]
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
    # x / den, a plain int when den divides it
    of = F.of if F.char else int if den == 1 else lambda x: ratio(x, den)
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


def iso_test_against_sum(m, parts):
    """The iso decision for (direct sum of parts) -> m, with Hom(sum, m)
    built blockwise.

    parts: list of (Representation, multiplicity).  Hom(part, m) is solved
    once per distinct part, and each of its homs is shifted into the
    columns of every copy of the part, copies in order.  Returns
    (IsoResult, the direct sum).
    """
    algebra = m.algebra
    expanded = [rep for rep, mult in parts for _ in range(mult)]
    nsum = direct_sum(algebra, expanded, name="+".join(p.name or "?" for p in expanded)) \
        if expanded else Representation(algebra, {}, name="0")

    def hom_entries():
        # each distinct part's homs are scaled to ints once, with one den
        distinct = {id(rep): rep for rep, _mult in parts}
        bases = {key: hom_space(rep, m) for key, rep in distinct.items()}
        homs = [h for basis in bases.values() for h in basis]
        den, flat = _int_entries(m.field, homs)
        by_hom = dict(zip(map(id, homs), flat))
        entries, offset = [], {v: 0 for v in algebra.quiver.vertices}
        for rep in expanded:
            entries.extend([(v, i, offset[v] + j, x) for v, i, j, x in by_hom[id(h)]]
                           for h in bases[id(rep)])
            for v in offset:
                offset[v] += rep.dims[v]
        return den, entries

    return _decide_iso(nsum, m, hom_entries), nsum


# -- decomposition against a catalog ------------------------------------------


def split_simple_summands(m):
    """m split exactly as C + (sum over v of S_v^k_v), with C free of simple
    summands: (C, {v: k_v} for every k_v > 0, certificate).

    At each vertex v, soc_v is the common kernel of the arrows out of v and
    rad_v the span of the images of the arrows into v.  W_v, k_v vectors of
    soc_v independent modulo rad_v, spans S_v^k_v as a submodule, and k_v =
    dim soc_v - dim(soc_v & rad_v) is the multiplicity of S_v as a summand.
    They are read off one rref of the rad_v rows and the soc_v basis, each
    soc vector tagged by a column of its own: a row that leads outside the
    pivots of rad_v is a soc combination, given by its tags, outside rad_v.
    U_v is the rref rows of rad_v, then the unit vectors at the columns
    where no row leads; C takes U_v at every vertex.  It is a submodule, as
    every arrow lands in a radical, and an image's coordinates are its
    entries at the rad_v pivots.

    The certificate is the basis change [U_v | W_v], a ModuleHom from C +
    S^k (C first, then the simples in vertex order) to m, verified to
    commute with every arrow; InternalInvariantError if it does not.  With
    no simple summand, C is m itself and the certificate its identity."""
    quiver = m.algebra.quiver
    F = m.field
    p = F.char
    cols = m.columns
    bases, rad_row_of, simples = {}, {}, {}
    for v in quiver.vertices:
        d = m.dims[v]
        rad_rows, rad_pivots = linalg.sparse_rref(
            F, [col for a in quiver.arrows_into(v) for col in cols[a.name]])
        soc = _socle(m, v)
        rad_set = set(rad_pivots)
        rows, pivots = linalg.sparse_rref(
            F, rad_rows + [{**s, d + t: F.one} for t, s in enumerate(soc)]) \
            if soc else ([], [])
        w = []
        for row, pc in zip(rows, pivots):
            if pc >= d:
                break
            if pc not in rad_set:
                acc = {}
                for t, c in row.items():
                    if t >= d:
                        for i, x in soc[t - d].items():
                            acc[i] = acc.get(i, 0) + c * x
                w.append({i: y for i, s in acc.items() if (y := s % p)} if p
                         else {i: s for i, s in acc.items() if s})
        lead = rad_set.union(pivots)
        bases[v] = rad_rows + [{j: F.one} for j in range(d) if j not in lead] + w
        rad_row_of[v] = {pc: i for i, pc in enumerate(rad_pivots)}
        if w:
            simples[v] = len(w)
    if not simples:
        one = F.one
        return m, {}, ModuleHom(m, m, {v: [{j: one} for j in range(d)]
                                       for v, d in m.dims.items()})
    dims = {v: m.dims[v] - simples.get(v, 0) for v in quiver.vertices}
    columns = {}
    for a in quiver.arrows:
        row_of = rad_row_of[a.target]
        columns[a.name] = [{row_of[pc]: x for pc, x in _apply(cols[a.name], b, p).items()
                            if pc in row_of}
                           for b in bases[a.source][:dims[a.source]]]
    rest = Representation._of_field_elements(m.algebra, dims, columns, m.name)
    # C + S^k: the simples add zero columns at their vertex
    peeled = {a.name: columns[a.name] + [{} for _ in range(simples.get(a.source, 0))]
              for a in quiver.arrows}
    cert = ModuleHom(Representation._of_field_elements(m.algebra, m.dims, peeled, ""),
                     m, bases)
    if not cert.verify():
        raise InternalInvariantError("simple-summand split fails to commute")
    return rest, simples, cert


def _socle(m, v):
    """A basis of soc_v m, the common kernel of the arrows out of v, as
    sparse vectors."""
    F = m.field
    out = {}  # the rows of the arrows out of v, stacked
    for a in m.algebra.quiver.arrows_from(v):
        for j, col in enumerate(m.columns[a.name]):
            for i, x in col.items():
                out.setdefault((a.name, i), {})[j] = x
    rows, pivots = linalg.sparse_rref(F, list(out.values()))
    return _null_basis(F, rows, pivots, m.dims[v])[2]


def certified_indecomposable(m):
    """Whether m is certified indecomposable: m has a simple top or socle, or
    every endomorphism acts on the top m / rad m as a scalar (those killing
    the top map m into rad m, a nilpotent ideal of codimension 1, so End(m)
    is local).  False leaves m undecided."""
    if m.is_zero():
        return False
    quiver = m.algebra.quiver
    tops = top_complements(m)
    if 1 in (sum(map(len, tops.values())), sum(len(_socle(m, v)) for v in quiver.vertices)):
        return True
    # top generator j at v owns the columns (v, j, row): an endomorphism h
    # puts h_v's column j there, and each block repeats rad m_v
    gens = [(v, j) for v in quiver.vertices for t in tops[v] for j in t]
    rad = [{(v, j, i): x for i, x in col.items()}
           for v, j in gens for a in quiver.arrows_into(v) for col in m.columns[a.name]]
    ends = [{(v, j, i): x for v, j in gens for i, x in h.columns[v][j].items()}
            for h in hom_space(m, m)]
    full, base = (len(linalg.sparse_rref(m.field, rows)[1]) for rows in (rad + ends, rad))
    return full - base == 1


def _simple_vertex(rep):
    """The vertex v of a rep isomorphic to S_v (total dimension 1, every
    arrow zero), else None."""
    if rep.total_dim != 1 or any(any(c) for c in rep.columns.values()):
        return None
    return next(v for v, d in rep.dims.items() if d)


def decompose_against_catalog(m, catalog):
    """Certified decomposition of m as a multiset over catalog entries.

    catalog: list of (name, Representation), pairwise non-isomorphic
    indecomposables (the caller's contract).  split_simple_summands peels
    m's simple summands off exactly, and each S_v^k is counted under the
    first simple entry at v in (-total dim, name) order; NoDecomposition
    at once when there is none.  The remainder C has no simple summand, so
    by Krull-Schmidt it is matched against the other entries alone.  Its
    candidates are the multisets whose dimension vectors and top dimension
    vectors both sum to C's, enumerated with the largest entries first and
    the highest counts first; the first one that iso_test_against_sum
    certifies is returned, and by Krull-Schmidt it is the only one (a
    duplicate entry could only change which of two isomorphic names comes
    back).  A semisimple m needs no iso test.  Returns (Counter name ->
    multiplicity, names in (-total dim, name) order, warnings); the
    warnings list is always empty.
    """
    from collections import Counter

    if m.is_zero():
        return Counter(), []
    rest, simples, _cert = split_simple_summands(m)
    entries = sorted(((name, rep) for name, rep in catalog if not rep.is_zero()),
                     key=lambda e: (-e[1].total_dim, e[0]))
    simple_names, others = {}, []
    for name, rep in entries:
        v = _simple_vertex(rep)
        if v is None:
            others.append((name, rep))
        else:
            simple_names.setdefault(v, name)
    found = {}
    for v, k in simples.items():
        if v not in simple_names:
            raise NoDecomposition(f"the simple summand S_{v}^{k} has no catalog entry")
        found[simple_names[v]] = k
    if not rest.is_zero():
        others = [(name, rep, rep.dim_vector() + top_dim_vector(rep))
                  for name, rep in others]
        for cand in _candidates(others, 0, rest.dim_vector() + top_dim_vector(rest)):
            parts = [(others[idx][1], count) for idx, count in cand]
            verdict, _nsum = iso_test_against_sum(rest, parts)
            if verdict.isomorphic:
                found.update((others[idx][0], count) for idx, count in cand)
                break
        else:
            raise NoDecomposition("no catalog multiset certifies against the non-simple "
                                  f"part, dim vector {rest.dim_vector()}")
    return Counter({name: found[name] for name, _rep in entries if name in found}), []


def _candidates(entries, idx, remaining, dead=None):
    """The multisets over entries[idx:] whose (dimension + top) vectors sum
    to remaining, as lists of (index, count) with count > 0, highest counts
    first.  dead holds the (idx, remaining) states whose subtree yielded
    nothing, shared down the recursion, so no such subtree is walked twice.
    A module-level generator taking dead as an argument, so that no closure
    ties the catalog into a reference cycle."""
    # top vectors are nonnegative, so a count that overshoots a top
    # coordinate cuts only multisets that could not match m's top
    if not any(remaining):
        yield []
        return
    if dead is None:
        dead = set()
    if idx == len(entries) or (idx, remaining) in dead:
        return
    vec = entries[idx][2]
    most = min(r // d for r, d in zip(remaining, vec) if d)
    found = False
    for count in range(most, -1, -1):
        rest = tuple(r - count * d for r, d in zip(remaining, vec))
        for tail in _candidates(entries, idx + 1, rest, dead):
            found = True
            yield [(idx, count)] + tail if count else tail
    if not found:
        dead.add((idx, remaining))


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


def certified_self_injective(algebra):
    """Exact self-injectivity, a bool: whether every projective P_v is
    injective.  P_v is injective exactly when its socle is simple, S_w, and
    dim P_v = dim I_w, the number of basis paths into w: P_v embeds in I_w,
    the injective envelope of its socle, and equal dimensions make the
    embedding onto; an indecomposable injective has a simple socle
    (Auslander-Reiten-Smalo, ch. IV).  No injective is built and no iso
    test runs.  Memoized on the algebra."""
    return algebra.memo("self_injective", lambda: _projectives_are_injective(algebra))


def _projectives_are_injective(algebra):
    verts = algebra.quiver.vertices
    for v in verts:
        p = projective(algebra, v)
        socle = [w for w in verts for _ in _socle(p, w)]
        if len(socle) != 1 or p.total_dim != len(algebra.basis_indices_into(socle[0])):
            return False
    return True


def pd_rep(m, max_steps=20, max_dim=None):
    """Probe the projective dimension of a representation.

    Exact termination when some syzygy vanishes.  Infinite certificates:
    over monomial/truncated algebras the second syzygy is decomposed into
    path-module classes and handed to the combinatorial pd; over a
    self-injective algebra, decided exactly from the socles of the
    projectives, any non-projective module has infinite pd; and a certified
    isomorphism between two distinct trajectory members (equal
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
            counts, _warnings = decompose_against_catalog(trajectory[2], catalog)
            worst = 0
            for label in counts:
                value = calc.pd(classes[label])
                if value == INFINITE:
                    return PdProbe("infinite", INFINITE,
                                   "second syzygy contains an infinite-pd path class "
                                   f"({label})")
                worst = max(worst, value)
            return PdProbe("exact", 2 + worst, "path-class handoff")
        if step == 3 and certified_self_injective(algebra):
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
        hit = _trajectory_repeat(trajectory, buckets)
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


def _trajectory_repeat(trajectory, buckets):
    """Certified repeat detection: compare the newest member against the
    earlier ones with the same fingerprint, recorded in buckets (fingerprint
    -> trajectory indices), then file it there.  Isomorphic modules have
    equal fingerprints, so no repeat is skipped; every hit is confirmed by
    iso_test."""
    last = len(trajectory) - 1
    same = buckets.setdefault(_fingerprint(trajectory[last]), [])
    for i in same:
        r = iso_test(trajectory[i], trajectory[last])
        if r.isomorphic:
            return f"syzygy step {last} isomorphic to step {i}"
    same.append(last)
    return None
