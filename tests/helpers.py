"""Shared test utilities: deterministic random instance generators, the
exhaustive small-quiver enumeration used by the acceptance suite, and
brute-force oracles for the combinatorial layer."""

import random
from collections import Counter
from functools import cache
from itertools import combinations, combinations_with_replacement, permutations

from quiverhom import gorenstein, linalg, reps
from quiverhom.algebra import MonomialIdeal, TruncatedIdeal, _all_paths_up_to, build_algebra
from quiverhom.errors import (
    InfiniteDimensional,
    NoDecomposition,
    NotAdmissible,
    ParseError,
    ZeroPath,
)
from quiverhom.igusa_todorov import build_lattice, rank_sequence
from quiverhom.pathmodules import calculus
from quiverhom.quiver import Path, Quiver


def random_quiver(rng, max_vertices=5, max_arrows=8):
    nv = rng.randint(1, max_vertices)
    verts = [str(i + 1) for i in range(nv)]
    na = rng.randint(1, max_arrows)
    arrows = [(f"x{i}", rng.choice(verts), rng.choice(verts)) for i in range(na)]
    return Quiver(verts, arrows)


def _paths_of_length(quiver, length):
    out = [Path.trivial(quiver, v) for v in quiver.vertices]
    for _ in range(length):
        out = [p.then(a.name) for p in out for a in quiver.arrows_from(p.target)]
    return out


def random_monomial_algebra(rng, max_vertices=4, max_arrows=6, max_dim=80):
    """A finite-dimensional monomial algebra; retries until the probe bound
    accepts and the dimension stays desk-scale."""
    while True:
        q = random_quiver(rng, max_vertices, max_arrows)
        candidates = _paths_of_length(q, 2) + _paths_of_length(q, 3)
        candidates = [p for p in candidates if p.length >= 2]
        if not candidates:
            # acyclic with short paths: empty ideal is fine
            gens = []
        else:
            count = rng.randint(1, min(5, len(candidates)))
            gens = rng.sample(candidates, count)
        # the build's cap counts a path of length l as l + 1, and no basis
        # path is longer than the probe bound, 3 per arrow or the vertex count
        longest = max(3 * len(q.arrows), len(q.vertices))
        try:
            algebra = build_algebra(q, MonomialIdeal(gens), max_basis=max_dim * (longest + 1))
        except (InfiniteDimensional, NotAdmissible, ParseError):
            continue
        if algebra.dimension > max_dim or not algebra.nonzero_nontrivial_paths():
            continue
        return algebra


def random_acyclic_truncated(rng, max_vertices=6, max_arrows=10, ks=(2, 3, 4)):
    while True:
        nv = rng.randint(2, max_vertices)
        verts = [str(i + 1) for i in range(nv)]
        na = rng.randint(1, max_arrows)
        arrows = []
        for i in range(na):
            a = rng.randint(1, nv - 1)
            b = rng.randint(a + 1, nv)  # strictly forward: acyclic
            arrows.append((f"x{i}", str(a), str(b)))
        k = rng.choice(ks)
        try:
            return build_algebra(Quiver(verts, arrows), TruncatedIdeal(k))
        except ParseError:
            continue


def random_nonzero_path(rng, algebra):
    paths = algebra.nonzero_nontrivial_paths()
    return rng.choice(paths)


def exhaustive_truncated_family(max_vertices=4, max_arrows=6, ks=(2, 3)):
    """All connected quivers with <= max_vertices vertices and <= max_arrows
    arrows, one representative per vertex-relabeling orbit, paired with each
    truncation exponent.  The verdicts under test are invariant under
    renaming, so orbit representatives are exhaustive for the property.
    Each call builds fresh algebras; the quivers are enumerated once."""
    for quiver in _orbit_representatives(max_vertices, max_arrows):
        for k in ks:
            yield build_algebra(quiver, TruncatedIdeal(k))


@cache
def _orbit_representatives(max_vertices, max_arrows):
    """The quivers of exhaustive_truncated_family, in its order."""
    quivers = []
    for nv in range(1, max_vertices + 1):
        pairs = [(i, j) for i in range(nv) for j in range(nv)]
        perms = list(permutations(range(nv)))
        for na in range(1, max_arrows + 1):
            for combo in combinations_with_replacement(pairs, na):
                best = min(
                    tuple(sorted((p[i], p[j]) for i, j in combo)) for p in perms
                )
                if best != combo:
                    continue
                adj = {v: set() for v in range(nv)}
                for i, j in combo:
                    adj[i].add(j)
                    adj[j].add(i)
                seen = {0}
                stack = [0]
                while stack:
                    for w in adj[stack.pop()]:
                        if w not in seen:
                            seen.add(w)
                            stack.append(w)
                if len(seen) != nv:
                    continue
                verts = [str(v + 1) for v in range(nv)]
                arrows = [
                    (f"x{idx}", str(i + 1), str(j + 1))
                    for idx, (i, j) in enumerate(combo)
                ]
                quivers.append(Quiver(verts, arrows))
    return tuple(quivers)


def seeded(seed):
    return random.Random(seed)


# -- brute-force oracles ---------------------------------------------------------


def annihilator_sets(algebra, p):
    """Oracle for L(p), R(p): scan the whole basis for the annihilating
    paths, then keep those with no annihilating proper initial (for L) or
    final (for R) segment."""
    p = algebra.path(p)
    if p.is_trivial() or algebra.path_is_zero(p):
        raise ZeroPath(f"{p} is trivial or zero")
    paths = algebra.nonzero_nontrivial_paths()
    s_left = [q for q in paths
              if q.source == p.target and algebra.tuple_is_zero(p.arrows + q.arrows)]
    s_right = [q for q in paths
               if q.target == p.source and algebra.tuple_is_zero(q.arrows + p.arrows)]
    left_set = {q.arrows for q in s_left}
    right_set = {q.arrows for q in s_right}
    L = [q for q in s_left
         if not any(q.arrows[:j] in left_set for j in range(1, q.length))]
    R = [q for q in s_right
         if not any(q.arrows[q.length - j:] in right_set for j in range(1, q.length))]
    key = lambda q: (q.length, q.arrows)
    return sorted(L, key=key), sorted(R, key=key)


def perfect_pair_successors(algebra):
    """Oracle for the perfect-pair map, from the basis-scan annihilator sets."""
    succ = {}
    for p in algebra.nonzero_nontrivial_paths():
        _L, R = annihilator_sets(algebra, p)
        if len(R) == 1 and annihilator_sets(algebra, R[0])[0] == [p]:
            succ[p] = R[0]
    return succ


def omega_infinity_trivial(algebra):
    """True when only projectives admit right-infinite projective
    coresolutions, i.e. when the periodic-module search finds nothing."""
    return gorenstein.find_periodic_module(algebra) is None


def fed_cycles_algebra(lengths):
    """kQ/J^2 on oriented cycles of the given lengths (vertices a0, a1, ...
    on the first, b0, ... on the second, and so on), each fed by an arrow
    from one extra vertex x.  The sum of the simples at a0, b0, ... has
    period the lcm of the lengths."""
    verts, arrows = ["x"], []
    for name, n in zip("abcdefghijklmnopqrstuvwyz", lengths):
        verts += [f"{name}{i}" for i in range(n)]
        arrows += [(f"{name}_{i}", f"{name}{i}", f"{name}{(i + 1) % n}") for i in range(n)]
        arrows.append((f"f{name}", "x", f"{name}0"))
    return build_algebra(Quiver(verts, arrows), TruncatedIdeal(2))


def periodic_by_iteration(calc, m, cap):
    """Oracle for is_periodic: (periodic, period, reason) from iterating
    syzygies of the bundle m until it returns, vanishes, grows in norm or
    repeats a bundle other than m.  Fails when cap steps decide nothing."""
    norm0 = calc.norm(m)
    seen = {m.key()}
    current = m
    for step in range(1, cap + 1):
        current = calc.iterate_syzygy(current, 1)
        if current == m:
            return True, step, "returned to start"
        if current.is_empty():
            return False, None, "syzygy vanished"
        if calc.norm(current) > norm0:
            return False, None, "norm increased"
        if current.key() in seen:
            return False, None, "entered a cycle missing the start"
        seen.add(current.key())
    raise AssertionError(f"periodicity of {m} undecided after {cap} syzygy steps")


def sampled_phidim_lower(algebra):
    """The sampled lower bound on phidim: the largest phi, inside the syzygy
    hull of the path classes and the simples, over every single hull class,
    every pair of them, and the simple-class combinations of sizes 2 to 4."""
    calc = calculus(algebra)
    simple_classes = [calc.simple_class(v) for v in algebra.quiver.vertices]
    lattice = build_lattice(algebra, calc.all_path_classes() + simple_classes)
    d = lattice.rank
    basis = lattice.basis

    def phi_in_lattice(classes):
        keys = {c.sort_key for c in classes if not c.projective}
        gens = [[1 if j == i else 0 for j in range(d)]
                for i, c in enumerate(basis) if c.sort_key in keys]
        if not gens:
            return 0
        ranks = rank_sequence(lattice, gens, d)
        return min(l for l, r in enumerate(ranks) if r == ranks[d])

    candidates = [[c] for c in basis] + [list(pair) for pair in combinations(basis, 2)]
    simples = [c for c in simple_classes if not c.projective]
    for size in (2, 3, 4):
        candidates += [list(combo) for combo in combinations(simples, size)]
    return max((phi_in_lattice(combo) for combo in candidates), default=0)


def multiply(algebra, x, y):
    """The product x * y of sparse {index: coeff} vectors, in function
    order (y first), summed from the structure constants of every pair of
    basis elements: the oracle for associativity and for the relations."""
    F = algebra.field
    out = {}
    for i, ci in x.items():
        for j, cj in y.items():
            for k, ck in algebra.product_indices(i, j):
                out[k] = F.add(out.get(k, F.zero), F.mul(F.mul(ci, cj), ck))
    return {k: v for k, v in out.items() if not F.is_zero(v)}


def eager_dedup(catalog):
    """Per catalog name, the name of its class, by the pairwise dedup that
    `HybridClassTable` once ran on construction: each entry in order is
    tested against the earlier class names of its dimension vector, in
    order, and joins the first one iso_test certifies isomorphic.  The
    oracle of `HybridClassTable.canonical`."""
    classes = []  # (name, module) of each class, in catalog order
    canon = {}
    for name, rep in catalog:
        canon[name] = next(
            (other for other, other_rep in classes
             if other_rep.dim_vector() == rep.dim_vector()
             and reps.iso_test(rep, other_rep).isomorphic),
            name)
        if canon[name] == name:
            classes.append((name, rep))
    return canon


def dense_relations_build(quiver, ideal, field, max_basis=None):
    """(basis, reduction) of kQ/I for a relations ideal, built as
    `BoundQuiverAlgebra._build_relations` was before it went sparse: one
    dense row per prefix * relation * suffix, with a position map per
    prefix/suffix pair, each (source, target) block reduced by the dense
    `linalg.rref`.  The oracle of the sparse build, its NotAdmissible and
    InfiniteDimensional messages included."""
    N = ideal.nilpotency
    F = field
    by_len = _all_paths_up_to(quiver, N, max_basis)
    reduction = {}
    basis = [p for paths in by_len[:2] for p in paths]
    for p in basis:
        reduction[(p.arrows, p.vertex)] = [(p, F.one)]
    for degree in range(2, len(by_len)):
        blocks = {}
        for p in by_len[degree]:
            blocks.setdefault((p.source, p.target), []).append(p)
        spans = {key: [] for key in blocks}
        for rel in ideal.relations:
            pad = degree - rel.degree
            if pad < 0:
                continue
            for lpre in range(pad + 1):
                lsuf = pad - lpre
                prefixes = [p for p in by_len[lpre] if p.target == rel.source]
                suffixes = [p for p in by_len[lsuf] if p.source == rel.target]
                for pre in prefixes:
                    for suf in suffixes:
                        key = (pre.source, suf.target)
                        cols = blocks.get(key)
                        if cols is None:
                            continue
                        pos = {q.arrows: j for j, q in enumerate(cols)}
                        vec = [F.zero] * len(cols)
                        for c, term in rel.terms:
                            comp = pre.arrows + term.arrows + suf.arrows
                            vec[pos[comp]] = F.add(vec[pos[comp]], F.of(c))
                        spans[key].append(vec)
        for key, cols in sorted(blocks.items()):
            rows = spans.get(key, [])
            red, pivots = linalg.rref(F, rows) if rows else ([], [])
            pivot_set = set(pivots)
            if degree == N:
                if ideal.radical_power_included:
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
                reduction[(q.arrows, q.vertex)] = [(q, F.one)]
            for i, pc in enumerate(pivots):
                reduction[(cols[pc].arrows, cols[pc].vertex)] = [
                    (cols[j], F.neg(red[i][j])) for j in range(len(cols))
                    if j not in pivot_set and not F.is_zero(red[i][j])]
            if degree < N:
                basis.extend(kept)
    return basis, reduction


def dense(F, vec, n):
    """A sparse {index: value} vector as a dense list of length n."""
    return [vec.get(i, F.zero) for i in range(n)]


def identity(F, n):
    """The n x n identity matrix as row lists."""
    m = linalg.zeros(F, n, n)
    for i in range(n):
        m[i][i] = F.one
    return m


def mat_mul(F, a, a_rows, b, b_rows, b_cols):
    """a (a_rows x b_rows) @ b (b_rows x b_cols) on dense row lists, safe
    for zero dimensions."""
    p = F.char
    out = []
    for i in range(a_rows):
        acc = [F.zero] * b_cols
        for x, bt in zip(a[i], b):
            if x:
                for j, y in enumerate(bt):
                    if y:
                        acc[j] += x * y
        out.append([s % p for s in acc] if p else acc)
    return out


def mat_vec(F, a, v):
    """a @ v on a dense matrix and a dense vector."""
    nonzero = [(j, y) for j, y in enumerate(v) if y]
    out = [sum([row[j] * y for j, y in nonzero if row[j]], F.zero) for row in a]
    return [s % F.char for s in out] if F.char else out


def path_matrix(rep, path):
    """The dense matrix (dim target x dim source) of a path's action on rep,
    the product of its arrow matrices, later arrows applied last."""
    F = rep.field
    quiver = rep.algebra.quiver
    src = path.source
    cur = identity(F, rep.dims[src])
    cur_rows = rep.dims[src]
    for name in path.arrows:
        a = quiver.arrow_by_name[name]
        cur = mat_mul(F, rep.mats[name], rep.dims[a.target], cur, cur_rows, rep.dims[src])
        cur_rows = rep.dims[a.target]
    return cur


def projective_oracle(algebra, v):
    """The left projective at v on the basis paths out of v, its arrow
    matrices read off `product_indices` one basis path at a time: the
    oracle for `reps.projective` and the arrow action tables."""
    quiver = algebra.quiver
    F = algebra.field
    idx = algebra.basis_indices_from(v)
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
    return reps.Representation(algebra, dims, mats, name=f"P_{v}")


def injective_oracle(algebra, v):
    """The dense arrow matrices of the injective at v, on the basis paths
    into v, filled entry by entry by (a.f)(y) = f(y*a): the oracle for
    `reps.injective`."""
    quiver = algebra.quiver
    F = algebra.field
    idx = algebra.basis_indices_into(v)
    by_vertex = {w: [b for b in idx if algebra.basis[b].source == w] for w in quiver.vertices}
    pos = {w: {b: j for j, b in enumerate(by_vertex[w])} for w in quiver.vertices}
    mats = {}
    for a in quiver.arrows:
        m = linalg.zeros(F, len(by_vertex[a.target]), len(by_vertex[a.source]))
        ai = algebra.index_of(algebra.path((a.name,)))
        for y in by_vertex[a.target]:
            for k, coeff in algebra.product_indices(y, ai):
                if k in pos[a.source]:
                    m[pos[a.target][y]][pos[a.source][k]] = F.of(coeff)
        mats[a.name] = m
    return mats


def class_rep_oracle(cls):
    """The dense arrow matrices of a path module class on its continuations,
    1 where an arrow extends a continuation: the oracle for
    `reps.rep_of_class`."""
    algebra = cls.algebra
    quiver = algebra.quiver
    F = algebra.field
    by_vertex = {w: [] for w in quiver.vertices}
    for arrows in sorted(cls.continuations, key=lambda a: (len(a), a)):
        by_vertex[cls.continuation_target(arrows)].append(arrows)
    pos = {w: {a: j for j, a in enumerate(by_vertex[w])} for w in quiver.vertices}
    mats = {}
    for a in quiver.arrows:
        m = linalg.zeros(F, len(by_vertex[a.target]), len(by_vertex[a.source]))
        for arrows in by_vertex[a.source]:
            ext = arrows + (a.name,)
            if ext in cls.continuations:
                m[pos[a.target][ext]][pos[a.source][arrows]] = F.one
        mats[a.name] = m
    return mats


def dense_direct_sum(algebra, parts):
    """The block-diagonal dense arrow matrices of a direct sum, copied block
    by block from the parts' dense matrices: the oracle for
    `reps.direct_sum`."""
    F = algebra.field
    mats = {}
    for a in algebra.quiver.arrows:
        m = linalg.zeros(F, sum(p.dims[a.target] for p in parts),
                         sum(p.dims[a.source] for p in parts))
        ro = co = 0
        for p in parts:
            for i, row in enumerate(p.mats[a.name]):
                m[ro + i][co: co + len(row)] = row
            ro += p.dims[a.target]
            co += p.dims[a.source]
        mats[a.name] = m
    return mats


def rep_literal_text(rep):
    """A rep{...} literal of the module: its dimensions, then the dense
    matrix of every arrow that acts nonzero."""
    sections = [" ".join(f"{v}:{d}" for v, d in rep.dims.items())]
    for name, mat in rep.mats.items():
        if any(any(row) for row in mat):
            rows = ", ".join("[" + ", ".join(map(str, row)) + "]" for row in mat)
            sections.append(f"{name} = [{rows}]")
    return "rep{ " + " ; ".join(sections) + " }"


def cover_rep(pres):
    """A presentation's projective cover as a dense Representation: the
    oracle for `Presentation.cover_images`."""
    parts = [projective_oracle(pres.algebra, v) for v, _ in pres.copies]
    if not parts:
        return reps.Representation(pres.algebra, {}, name="0")
    return reps.direct_sum(pres.algebra, parts)


def presentation_oracle(rep, pres):
    """The cover map, kernel embedding and kernel arrow matrices of a
    presentation, built the direct way: pi columns from whole path matrices
    (`path_matrix` + `mat_vec`), `linalg.nullspace` per vertex, and one
    `linalg.solve_many` per arrow against the dense cover's action.  The
    oracle for the presentation's cover map and `Presentation.kernel`."""
    A = rep.algebra
    F = rep.field
    pi, embed = {}, {}
    for w in A.quiver.vertices:
        cols = [mat_vec(F, path_matrix(rep, A.basis[b]),
                        dense(F, pres.copies[ci][1], rep.dims[pres.copies[ci][0]]))
                for ci, b in pres.cover_basis[w]]
        pi[w] = [[col[i] for col in cols] for i in range(rep.dims[w])]
        embed[w] = linalg.nullspace(F, pi[w], cols=len(cols))
    cover = cover_rep(pres)
    mats = {}
    for a in A.quiver.arrows:
        targets = [mat_vec(F, cover.mats[a.name], k) for k in embed[a.source]]
        basis_mat = [[k[i] for k in embed[a.target]]
                     for i in range(len(pres.cover_basis[a.target]))]
        sols = linalg.solve_many(F, basis_mat, targets)
        assert all(sol is not None for sol in sols), "cover action leaves the kernel"
        mats[a.name] = [[sol[i] for sol in sols] for i in range(len(embed[a.target]))]
    return pi, embed, mats


def dense_hom_space(source, target):
    """A basis of Hom(source, target) built on dense path matrices: the
    constraint blocks and the homs from whole path matrices of the target
    (`path_matrix` + `mat_vec`), the sections from the dense cover map of
    `presentation_oracle`, all over the source's presentation.  The oracle
    for `reps.hom_space`."""
    if source.is_zero():
        return []
    F = source.field
    A = source.algebra
    pres = reps.presentation(source)
    acts = {}  # basis index -> its dense path matrix on the target

    def act(b):
        if b not in acts:
            acts[b] = path_matrix(target, A.basis[b])
        return acts[b]

    offsets, total = [], 0
    for v, _g in pres.copies:
        offsets.append(total)
        total += target.dims[v]
    rows = []
    for w, kv in pres.kernel_top_generators():
        block = [[F.zero] * total for _ in range(target.dims[w])]
        for pos, coeff in kv.items():
            ci, b = pres.cover_basis[w][pos]
            for brow, arow in zip(block, act(b)):
                for j, x in enumerate(arow, offsets[ci]):
                    brow[j] += coeff * x
        rows.extend([[x % F.char for x in brow] for brow in block] if F.char else block)
    params = linalg.nullspace(F, rows, cols=total) if rows else [
        linalg.unit_vector(F, total, i) for i in range(total)]
    pi, _embed, _mats = presentation_oracle(source, pres)
    secs = {w: linalg.solve_many(F, pi[w], [linalg.unit_vector(F, source.dims[w], i)
                                            for i in range(source.dims[w])])
            for w in A.quiver.vertices}
    homs = []
    for u in params:
        parts = [u[offsets[ci]: offsets[ci] + target.dims[v]]
                 for ci, (v, _g) in enumerate(pres.copies)]
        mats = {}
        for w in A.quiver.vertices:
            mat = linalg.zeros(F, target.dims[w], source.dims[w])
            for j, sec in enumerate(secs[w]):
                for pos, coeff in enumerate(sec):
                    if not coeff:
                        continue
                    ci, b = pres.cover_basis[w][pos]
                    image = mat_vec(F, act(b), parts[ci])
                    for i, x in enumerate(image):
                        mat[i][j] += coeff * x
            mats[w] = [[x % F.char for x in row] for row in mat] if F.char else mat
        homs.append(dense_hom(source, target, mats))
    return homs


def dense_hom(source, target, mats):
    """A ModuleHom from dense per-vertex matrices of field elements, read
    into sparse columns here; its `matrices` are the given ones, so that a
    comparison with an oracle hom reads the oracle's own entries."""
    hom = reps.ModuleHom(source, target, {
        v: [{i: row[j] for i, row in enumerate(mat) if row[j]} for j in range(source.dims[v])]
        for v, mat in mats.items()})
    hom._matrices = mats
    return hom


def dense_combine(F, rows, cols, coeffs, entries):
    """Per-vertex rows[v] x cols[v] matrices of sum(coef * hom), summed in
    field elements from the homs' nonzero (vertex, row, column, value)
    entries: the oracle for the integer `reps._combine`."""
    p = F.char
    mats = {v: [[F.zero] * cols[v] for _ in range(r)] for v, r in rows.items()}
    for coef, hom_entries in zip(coeffs, entries):
        for v, i, j, x in hom_entries:
            mats[v][i][j] += coef * x
    if p:
        mats = {v: [[x % p for x in row] for row in mat] for v, mat in mats.items()}
    return mats


def dense_verify(hom):
    """Whether hom's matrices commute with every arrow, by whole dense
    products H_w M_a and N_a H_u: the oracle for `ModuleHom.verify`."""
    F = hom.source.field
    src, tgt = hom.source, hom.target
    for a in src.algebra.quiver.arrows:
        left = mat_mul(F, hom.matrices[a.target], tgt.dims[a.target],
                       src.mats[a.name], src.dims[a.target], src.dims[a.source])
        right = mat_mul(F, tgt.mats[a.name], tgt.dims[a.target],
                        hom.matrices[a.source], tgt.dims[a.source], src.dims[a.source])
        if left != right:
            return False
    return True


def dense_is_vertexwise_invertible(hom):
    """Whether every vertex matrix of hom is square and invertible, on the
    field elements themselves."""
    F = hom.source.field
    return all(hom.source.dims[v] == hom.target.dims[v]
               and linalg.is_invertible(F, hom.matrices[v])
               for v in hom.source.algebra.quiver.vertices)


def candidates_oracle(entries, idx, remaining):
    """The walk of `reps._candidates` with nothing remembered: every subtree
    is walked, a failing one as often as it is reached.  The oracle for its
    pruning."""
    if not any(remaining):
        yield []
        return
    if idx == len(entries):
        return
    vec = entries[idx][2]
    most = min(r // d for r, d in zip(remaining, vec) if d)
    for count in range(most, -1, -1):
        rest = tuple(r - count * d for r, d in zip(remaining, vec))
        for tail in candidates_oracle(entries, idx + 1, rest):
            yield [(idx, count)] + tail if count else tail


def decompose_oracle(m, catalog):
    """The whole-multiset catalog search, with no simple summand peeled off:
    every multiset over the catalog whose dimension and top vectors sum to
    m's, largest entries and highest counts first, tried against all of m
    in one sum test; the Counter of the first one certified, or
    NoDecomposition.  The oracle for `reps.decompose_against_catalog`."""
    if m.is_zero():
        return Counter()
    entries = sorted(((name, rep, rep.dim_vector() + reps.top_dim_vector(rep))
                      for name, rep in catalog if not rep.is_zero()),
                     key=lambda e: (-e[1].total_dim, e[0]))
    for cand in candidates_oracle(entries, 0, m.dim_vector() + reps.top_dim_vector(m)):
        verdict, _nsum = reps.iso_test_against_sum(
            m, [(entries[idx][1], count) for idx, count in cand])
        if verdict.isomorphic:
            return Counter({entries[idx][0]: count for idx, count in cand})
    raise NoDecomposition(f"no catalog multiset certifies against dim vector {m.dim_vector()}")


def simple_multiplicity_oracle(m, v):
    """The multiplicity of S_v as a direct summand of m: the rank of the
    pairing Hom(m, S_v) x Hom(S_v, m) -> k, (f, g) -> f g, on hom_space
    bases.  f g is a scalar, End(S_v) being k."""
    s = reps.simple(m.algebra, v)
    outs, ins = reps.hom_space(m, s), reps.hom_space(s, m)
    F = m.field
    pairing = [[sum((f.columns[v][j].get(0, F.zero) * x for j, x in g.columns[v][0].items()),
                    F.zero) for g in ins] for f in outs]
    return linalg.rank(F, pairing)


# P_1 has the 3-dimensional socle spanned by x0, x1.x0 and x1.x1.x0, and
# self_injective_by_matching leaves it undetermined
ONE_VERTEX_WIDE_SOCLE = ("vertices: 1\narrow: x0 1 1\narrow: x1 1 1\n"
                         "monomial: x1.x1.x1, x0.x1, x0.x0\n")


def self_injective_by_matching(algebra):
    """Self-injectivity by matching every projective to an injective through
    sampled iso tests: True, False, or None when some test that could have
    matched is undetermined.  The oracle for
    `reps.certified_self_injective`."""
    verts = algebra.quiver.vertices
    projs = {v: reps.projective(algebra, v) for v in verts}
    injs = {v: reps.injective(algebra, v) for v in verts}
    unmatched = set(verts)
    for v in verts:
        hit = None
        undecided = False
        for w in list(unmatched):
            r = reps.iso_test(projs[v], injs[w])
            if r.isomorphic:
                hit = w
                break
            if r.status == "undetermined":
                undecided = True
        if hit is None:
            return None if undecided else False
        unmatched.discard(hit)
    return True


def relations_oracle(rep):
    """Whether the ideal acts on rep as zero, checked per ideal kind as
    `Representation.check_relations` once did: each monomial generator, or
    each relation as the sum of its terms, pushes every unit vector at its
    source to zero, and for a truncated or relations ideal every path of
    length N does.  The oracle of `check_relations`."""
    A = rep.algebra
    F = rep.field
    p = F.char

    def images(path):
        vecs = [{j: F.one} for j in range(rep.dims[path.source])]
        for name in path.arrows:
            vecs = [reps._apply(rep.columns[name], x, p) for x in vecs]
        return vecs

    if A.kind == "monomial" and any(any(images(g)) for g in A.ideal.generators):
        return False
    if A.kind == "relations":
        for rel in A.ideal.relations:
            acc = [{} for _ in range(rep.dims[rel.source])]
            for c, term in rel.terms:
                for out, vec in zip(acc, images(term)):
                    for i, x in vec.items():
                        out[i] = out.get(i, 0) + F.of(c) * x
            if any(s % p if p else s for out in acc for s in out.values()):
                return False
    if A.kind in ("truncated", "relations"):
        N = A.nilpotency
        for start in A.quiver.vertices:
            stack = [(start, 0, [{j: F.one} for j in range(rep.dims[start])])]
            while stack:
                v, depth, vecs = stack.pop()
                vecs = [x for x in vecs if x]
                if not vecs:
                    continue
                if depth == N:
                    return False
                stack.extend((a.target, depth + 1,
                              [reps._apply(rep.columns[a.name], x, p) for x in vecs])
                             for a in A.quiver.arrows_from(v))
    return True
