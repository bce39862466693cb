"""The three benchmark workloads: seeded query rounds and their references.

A workload is a `setup(seed)` that generates inputs and makes the one-off
builds, and a `make_round(state, rng)` that returns the next list of
queries.  Each query has `run(state)`, the timed call into the program, and
`check(state, output)`, an untimed comparison against a reference that
raises Mismatch.  References come from closed forms, the paper's stated
values, or two independent deciders; the exact arithmetic used to check
certificates lives in this file, not in the program's `linalg`.

Rounds are stratified: every round holds the same mix of query kinds and
sizes, and the seed draws the instances inside each stratum (for syzygy_fp,
the pd sizes and the order of the round), so aggregate metrics are
comparable across seeds.
"""

import contextlib
import io
import json
import random
from fractions import Fraction

from quiverhom import algfile, cli, corpus, gorenstein, igusa_todorov, pathmodules, reps
from quiverhom.quiver import INFINITE

import inputs


class Mismatch(Exception):
    """The program's answer differs from the reference."""


def expect(ok, message):
    if not ok:
        raise Mismatch(message)


# -- exact arithmetic for reference checks ---------------------------------------


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _rank(rows, mod=None):
    """Rank by Gaussian elimination over Q (Fractions) or F_mod (entries
    reduced into [0, mod))."""
    m = [list(r) for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], -1, mod) if mod else 1 / Fraction(m[rank][c])
        for i in range(rank + 1, len(m)):
            f = m[i][c] * inv
            if f:
                m[i] = [(x - f * y) % mod if mod else x - f * y
                        for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def check_intertwiner(hom):
    """hom is an isomorphism: each vertex matrix is square and invertible and
    every arrow square commutes, in exact rational arithmetic."""
    src, tgt = hom.source, hom.target
    for v, mat in hom.matrices.items():
        n = src.dims[v]
        expect(tgt.dims[v] == n and len(mat) == n, f"certificate not square at {v}")
        expect(n == 0 or _rank(mat) == n, f"certificate singular at {v}")
    for a in src.algebra.quiver.arrows:
        if not (src.dims[a.source] and tgt.dims[a.target]):
            continue
        left = _matmul(hom.matrices[a.target], src.mats[a.name])
        right = _matmul(tgt.mats[a.name], hom.matrices[a.source])
        expect(left == right, f"certificate does not commute with {a.name}")


# -- combinatorial: the class calculus on truncated and monomial algebras ------


POOL_TRUNCATED = 960
POOL_MONOMIAL = 320
COMBINATORIAL_ROUND = 16


class AlgebraQuery:
    """Parse and build one algebra, then gldim, the Co-Gorenstein deciders,
    a periodic module, the perfect paths and the phi-dimension bounds."""

    kind = "algebra"

    def __init__(self, text, k, gldim_reference):
        self.text = text
        self.k = k  # truncation exponent, None for a monomial ideal
        self.gldim_reference = gldim_reference

    def run(self, state):
        A = algfile.parse_algebra_text(self.text)
        out = {"algebra": A, "gldim": pathmodules.calculus(A).gldim().value}
        if self.k is not None:
            out["quiver_verdict"] = gorenstein.cogorenstein_truncated(A).verdict
        out["search"] = gorenstein.cogorenstein_monomial(A)
        out["periodic"] = gorenstein.find_periodic_module(A)
        out["perfect_paths"] = gorenstein.perfect_paths(A)
        out["bounds"] = igusa_todorov.phidim_bounds(A)
        return out

    def check(self, state, out):
        calc = pathmodules.calculus(out["algebra"])
        if self.k is not None:
            ref = self.gldim_reference
            expect(out["gldim"] == (INFINITE if ref is None else ref),
                   f"gldim {out['gldim']} != closed form {ref}")
            expect(out["quiver_verdict"] == out["search"].verdict,
                   "Co-Gorenstein deciders disagree")
        for module in (out["periodic"], out["search"].witness):
            if module is None:
                continue
            expect(module.period >= 1 and
                   calc.iterate_syzygy(module.multiset, module.period) == module.multiset,
                   "periodic module does not return to itself")
            expect(any(not c.projective for c in module.multiset.classes()),
                   "periodic module is projective")
        if out["periodic"] is not None:
            expect(out["gldim"] == INFINITE, "periodic module but finite gldim")
        expect(out["bounds"].lower <= out["bounds"].upper, "phidim lower > upper")


def combinatorial_setup(seed):
    """A pool of truncated family members, allocated to the (nv, na, k)
    strata in proportion to the family (the seed draws inside each stratum),
    and random monomial algebras."""
    rng = random.Random(seed)
    pool = []
    family = {(nv, na, k): n for (nv, na), n in inputs.FAMILY_COUNTS.items()
              for k in inputs.FAMILY_KS}
    for (nv, na, k), count in inputs.allocate(POOL_TRUNCATED, family).items():
        for _ in range(count):
            arrows = inputs.quiver_arrows(inputs.draw_family_quiver(rng, nv, na))
            pool.append(AlgebraQuery(inputs.alg_text(nv, arrows, f"truncated: {k}"), k,
                                     inputs.truncated_gldim(nv, arrows, k)))
    for _ in range(POOL_MONOMIAL):
        pool.append(AlgebraQuery(inputs.draw_monomial(rng)[0], None, None))
    rng.shuffle(pool)
    return {"pool": pool, "next": 0}


def combinatorial_round(state, rng):
    pool = state["pool"]
    out = []
    for _ in range(COMBINATORIAL_ROUND):
        if state["next"] == len(pool):
            rng.shuffle(pool)
            state["next"] = 0
        out.append(pool[state["next"]])
        state["next"] += 1
    return out


# -- linear_q: the rational linear engine --------------------------------------


def expected_decomposition(family, i, n):
    """Omega M_x(i, n) = M_x(i+1, n-1) + S_{i+2}^(7n+2), and S_{i+2}^10 at n = 1
    (the paper's values at i = 1, rotated by the quiver automorphism)."""
    nxt, vertex = i % 4 + 1, (i + 1) % 4 + 1
    if n == 1:
        return {f"S_{vertex}": 10}
    return {f"M_{family}({nxt},{n - 1})": 1, f"S_{vertex}": 7 * n + 2}


class DecomposeQuery:
    kind = "decompose"

    def __init__(self, family, i, n):
        self.family, self.i, self.n = family, i, n

    def run(self, state):
        A = state["infinito"]
        make = corpus.GENERATORS[f"M_{self.family}"]
        omega = reps.syzygy_rep(make(A, [str(self.i), str(self.n)]))
        catalog = [(f"S_{v}", reps.simple(A, v)) for v in A.quiver.vertices]
        if self.n > 1:
            nxt = self.i % 4 + 1
            catalog.insert(0, (f"M_{self.family}({nxt},{self.n - 1})",
                               make(A, [str(nxt), str(self.n - 1)])))
        counts, _warnings = reps.decompose_against_catalog(omega, catalog)
        return dict(counts)

    def check(self, state, out):
        ref = expected_decomposition(self.family, self.i, self.n)
        expect(out == ref, f"Omega M_{self.family}({self.i},{self.n}) = {out}, expected {ref}")


class PhiQuery:
    """`phi --algebra corpus:infinito --module M_alpha(1,n)+M_beta(1,n) --json`
    through the CLI entry point, in-process."""

    kind = "phi"

    def __init__(self, n):
        self.n = n

    def run(self, state):
        argv = ["phi", "--algebra", "corpus:infinito",
                "--module", f"M_alpha(1,{self.n})+M_beta(1,{self.n})", "--json"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check(self, state, out):
        code, text = out
        expect(code == 0, f"phi exited {code}")
        value = json.loads(text)["result"]["phi"]
        expect(value == self.n - 1, f"phi = {value}, expected {self.n - 1}")


class Sec3IsoQuery:
    """Omega M_param(a) = N_param(-a/2), Omega N_param(a) = M_param(-a), and
    M_param(a) != M_param(b) for a != b (the paper's sec3 identities)."""

    kind = "sec3_iso"

    def __init__(self, relation, a, b=None):
        self.relation, self.a, self.b = relation, a, b

    def run(self, state):
        A = state["sec3"]
        m_param = lambda x: corpus.make_m_param(A, [str(x)])
        n_param = lambda x: corpus.make_n_param(A, [str(x)])
        if self.relation == "omega_m":
            return reps.iso_test(reps.syzygy_rep(m_param(self.a)), n_param(-self.a / 2))
        if self.relation == "omega_n":
            return reps.iso_test(reps.syzygy_rep(n_param(self.a)), m_param(-self.a))
        return reps.iso_test(m_param(self.a), m_param(self.b))

    def check(self, state, out):
        if self.relation == "distinct":
            expect(out.status == "not_isomorphic", f"M_param({self.a}) vs "
                   f"M_param({self.b}): {out.status}")
            return
        expect(out.status == "isomorphic" and out.certificate is not None,
               f"{self.relation}({self.a}): {out.status}")
        check_intertwiner(out.certificate)


def linear_q_setup(seed):
    return {"infinito": corpus.algebra("infinito"), "sec3": corpus.algebra("sec3_example")}


# With 6 sec3 iso tests and 2 phi queries per round, as many queries of a
# round are cheaper than the n = 2 decompositions as are dearer, so the
# median falls in the middle of those, and the tail inside the n = 4 ones.
LINEAR_Q_DECOMPOSITION_NS = (1, 1, 2, 2, 2, 2, 3, 3, 4, 4, 4, 4)
SEC3_RELATIONS = ("omega_m", "omega_n", "distinct") * 2


def linear_q_round(state, rng):
    queries = []
    for relation in SEC3_RELATIONS:
        a = inputs.small_rational(rng)
        b = a
        while b == a:
            b = inputs.small_rational(rng)
        queries.append(Sec3IsoQuery(relation, a, b))
    for idx, n in enumerate(LINEAR_Q_DECOMPOSITION_NS):
        family = ("alpha", "beta")[idx % 2]
        queries.append(DecomposeQuery(family, rng.randint(1, 4), n))
    queries += [PhiQuery(2), PhiQuery(3)]
    rng.shuffle(queries)
    return queries


# -- syzygy_fp: the same reps/linalg layers over F_32003 ------------------------


class PdQuery:
    """pd_rep(I(3), max_steps=k) on finito over F_32003: the trajectory is thin
    and repeats only after 32002 syzygy pairs, so the answer is at_least(k);
    a certified infinite is also correct, an exact value never is."""

    kind = "pd_rep"

    def __init__(self, k):
        self.k = k

    def run(self, state):
        return reps.pd_rep(reps.injective(state["finito"], "3"), max_steps=self.k)

    def check(self, state, out):
        expect(out.kind == "infinite" or (out.kind == "at_least" and out.value == self.k),
               f"pd_rep(I(3), {self.k}) = {out.kind} {out.value}")


class SyzygyQuery:
    """The k-fold syzygy of I(v); every step must satisfy the relations and
    dim Omega^(j+1) = dim(projective cover of Omega^j) - dim Omega^j."""

    kind = "syzygy"

    def __init__(self, vertex, k):
        self.vertex, self.k = vertex, k

    def run(self, state):
        m = reps.injective(state["finito"], self.vertex)
        chain = [m]
        for _ in range(self.k):
            m = reps.syzygy_rep(m)
            chain.append(m)
        return chain

    def check(self, state, chain):
        A = state["finito"]
        rng = random.Random(self.k)
        for j, m in enumerate(chain):
            check_relations_mod_p(A, m, rng)
            if j + 1 < len(chain):
                expect(chain[j + 1].total_dim == cover_dim_mod_p(A, m) - m.total_dim,
                       f"dim Omega^{j + 1} I({self.vertex}) breaks the cover formula")


def cover_dim_mod_p(A, m):
    """Dimension of the projective cover: sum over vertices v of
    dim top(M)_v * dim P_v, with the top from the arrow images into v."""
    p = A.field.char
    total = 0
    for v in A.quiver.vertices:
        n = m.dims[v]
        if not n:
            continue
        cols = [m.mats[a.name] for a in A.quiver.arrows_into(v) if m.dims[a.source]]
        image = _rank([sum((mat[r] for mat in cols), []) for r in range(n)], p) if cols else 0
        total += (n - image) * len(A.basis_indices_from(v))
    return total


def check_relations_mod_p(A, m, rng):
    """Every defining relation sends a random vector of its source space to
    zero (a nonzero map does so with probability at most 1/p)."""
    p = A.field.char
    for rel in A.ideal.relations:
        n = m.dims[rel.source]
        if not n or not m.dims[rel.target]:
            continue
        x = [rng.randrange(p) for _ in range(n)]
        acc = [0] * m.dims[rel.target]
        for coeff, path in rel.terms:
            y = x
            for name in path.arrows:
                y = [sum(a * b for a, b in zip(row, y)) % p for row in m.mats[name]]
            c = coeff.numerator * pow(coeff.denominator, -1, p)
            acc = [(s + c * t) % p for s, t in zip(acc, y)]
        expect(not any(acc), f"relation {rel} fails on a syzygy")


# Every round holds one pd query and twelve syzygy queries.  The pd sizes
# alternate by round and the seed jitters them; they are the slowest queries
# of the round.  The syzygy queries sit on a fixed (vertex, k) grid whose
# costs are well apart.  Five queries of a round are cheaper than the four
# (1, 18) ones and five dearer, so the median falls in the middle of those;
# the tail falls inside the two (2, 30) ones.  The seed orders the round.
PD_GRID = (100, 140)  # k in [90, 150] after jitter
PD_JITTER = 10
SYZYGY_GRID = (("1", 10),) * 3 + (("1", 14),) * 2 + (("1", 18),) * 4 + \
    (("2", 22),) * 2 + (("2", 30),) * 2  # (vertex, k)


def syzygy_fp_setup(seed):
    A = corpus.algebra("finito_f32003")
    reps.certified_self_injective(A)  # one-off, memoized on the algebra
    return {"finito": A, "round": 0}


def syzygy_fp_round(state, rng):
    r = state["round"]
    state["round"] += 1
    queries = [PdQuery(PD_GRID[r % len(PD_GRID)] + rng.randint(-PD_JITTER, PD_JITTER))]
    queries += [SyzygyQuery(v, k) for v, k in SYZYGY_GRID]
    rng.shuffle(queries)
    return queries


def layer_probe():
    """One small query for each group of layers, as (query, state) pairs.  The
    traced run of every workload replays them untimed before its rounds, so
    that every per-layer metric is measured, never a constant 0, on every
    workload; their work is the same for every workload and seed."""
    arrows = [("a", "1", "2"), ("b", "2", "1")]
    rational, modular = linear_q_setup(0), syzygy_fp_setup(0)
    return [
        (AlgebraQuery(inputs.alg_text(2, arrows, "truncated: 2"), 2,
                      inputs.truncated_gldim(2, arrows, 2)), {}),
        (PhiQuery(1), rational),
        (PdQuery(4), modular),
    ]


class Workload:
    def __init__(self, name, setup, make_round, round_seconds):
        self.name = name
        self.setup = setup
        self.make_round = make_round
        # nominal seconds (at reference speed) of one round at the commit
        # that defined the benchmark; fixes how many rounds a traced run
        # replays, so its counts repeat exactly for a seed and --seconds
        self.round_seconds = round_seconds


WORKLOADS = {
    w.name: w for w in (
        Workload("combinatorial", combinatorial_setup, combinatorial_round, 0.125),
        Workload("linear_q", linear_q_setup, linear_q_round, 4.1),
        Workload("syzygy_fp", syzygy_fp_setup, syzygy_fp_round, 3.5),
    )
}
