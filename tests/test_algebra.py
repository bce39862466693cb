import contextlib
import hashlib
import io
from fractions import Fraction

import pytest

from quiverhom import cli, corpus
from quiverhom.algebra import (
    MonomialIdeal,
    Relation,
    RelationsIdeal,
    TruncatedIdeal,
    build_algebra,
)
from quiverhom.errors import (
    BadRelation,
    InfiniteDimensional,
    NotAdmissible,
    UnsupportedIdeal,
    ZeroPath,
)
from quiverhom.algfile import parse_algebra_text
from quiverhom.fields import PrimeField
from quiverhom.pathmodules import calculus
from quiverhom.quiver import Path, Quiver

from helpers import dense_relations_build, multiply, random_monomial_algebra, seeded


def cycle_quiver(n):
    verts = [str(i + 1) for i in range(n)]
    return Quiver(verts, [(f"c{i}", verts[i], verts[(i + 1) % n]) for i in range(n)])


class TestBuildTruncated:
    def test_c2_k2_dimension(self):
        A = build_algebra(cycle_quiver(2), TruncatedIdeal(2))
        assert A.dimension == 4
        assert sorted(str(p) for p in A.basis) == ["c0", "c1", "e_1", "e_2"]

    def test_exponent_below_two_rejected(self):
        with pytest.raises(NotAdmissible):
            TruncatedIdeal(1)

    def test_dim_equals_sum_of_projectives(self):
        for seed in range(25):
            A = random_monomial_algebra(seeded(seed))
            per_vertex = sum(len(A.basis_indices_from(v)) for v in A.quiver.vertices)
            assert per_vertex == A.dimension


class TestBuildSec4:
    """Oracle: exhaustive nonzero-path enumeration with the zero patterns
    'traverse b then a' and 'traverse g then g' gives exactly nine paths."""

    def oracle_paths(self):
        # fresh brute force, independent of the package's enumeration
        arrows = {"a": ("1", "2"), "b": ("2", "1"), "g": ("2", "2")}
        zero = [("b", "a"), ("g", "g")]

        def is_zero(seq):
            return any(seq[i:i + 2] == list(pat) for pat in zero
                       for i in range(len(seq) - 1))

        found = [[], ["a"], ["b"], ["g"]]
        frontier = [["a"], ["b"], ["g"]]
        while frontier:
            nxt = []
            for seq in frontier:
                end = arrows[seq[-1]][1]
                for name, (s, _t) in arrows.items():
                    if s == end and not is_zero(seq + [name]):
                        nxt.append(seq + [name])
            found += nxt
            frontier = nxt
        return found

    def test_dimension_nine(self, sec4):
        oracle = self.oracle_paths()
        # the empty word stands for both trivial paths
        assert len(oracle) + 1 == sec4.dimension == 9

    def test_survivors(self, sec4):
        names = {str(p) for p in sec4.basis}
        assert names == {"e_1", "e_2", "a", "b", "g", "a.b", "a.g", "g.b", "a.g.b"}

    def test_zero_patterns(self, sec4):
        assert sec4.path_is_zero(sec4.path("b.a"))
        assert sec4.path_is_zero(sec4.path("g.g"))
        assert not sec4.path_is_zero(sec4.path("a.b"))


class TestInfiniteDimensionDetection:
    def test_cyclic_word_order_reading_aborts(self):
        # killing traversal a.b and g.g leaves the free pattern a.g.b cycling
        q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1"), ("g", "2", "2")])
        with pytest.raises(InfiniteDimensional):
            build_algebra(q, MonomialIdeal([Path(q, ("a", "b")), Path(q, ("g", "g"))]))

    def test_cycle_with_empty_ideal_aborts(self):
        with pytest.raises(InfiniteDimensional):
            build_algebra(cycle_quiver(2), MonomialIdeal([]))

    def test_length_one_generator_rejected(self):
        q = cycle_quiver(2)
        with pytest.raises(NotAdmissible):
            MonomialIdeal([Path(q, ("c0",))])


class TestAnnihilators:
    def test_sec4_gamma(self, sec4):
        L, R = calculus(sec4).annihilator_sets(sec4.path("g"))
        assert [str(p) for p in L] == ["g"]
        assert [str(p) for p in R] == ["g"]

    def test_sec4_alpha(self, sec4):
        L, R = calculus(sec4).annihilator_sets(sec4.path("a"))
        assert L == []
        assert [str(p) for p in R] == ["b"]

    def test_truncated_c2(self):
        A = build_algebra(cycle_quiver(2), TruncatedIdeal(2))
        L, R = calculus(A).annihilator_sets(A.path("c0"))
        assert [str(p) for p in L] == ["c1"]
        assert [str(p) for p in R] == ["c1"]

    def test_zero_path_rejected(self, sec4):
        with pytest.raises(ZeroPath):
            calculus(sec4).annihilator_sets(sec4.path("b.a"))
        with pytest.raises(ZeroPath):
            calculus(sec4).annihilator_sets(Path.trivial(sec4.quiver, "1"))

    def test_relations_unsupported(self, sec3):
        with pytest.raises(UnsupportedIdeal):
            calculus(sec3).annihilator_sets(sec3.path("a1"))

    def test_minimality_no_mutual_segments(self):
        # distinct members of L(p) share no initial traversal segment, and of
        # R(p) no final segment: the directness mechanism for syzygy sums
        for seed in range(20):
            A = random_monomial_algebra(seeded(seed + 100))
            for p in A.nonzero_nontrivial_paths()[:10]:
                L, R = calculus(A).annihilator_sets(p)
                for i, q1 in enumerate(L):
                    for q2 in L[i + 1:]:
                        short, long_ = sorted((q1, q2), key=lambda x: x.length)
                        assert long_.arrows[:short.length] != short.arrows
                for i, q1 in enumerate(R):
                    for q2 in R[i + 1:]:
                        short, long_ = sorted((q1, q2), key=lambda x: x.length)
                        assert long_.arrows[long_.length - short.length:] != short.arrows

    def test_brute_force_oracle(self):
        # L(p)/R(p) against direct enumeration over all nonzero paths
        for seed in range(12):
            A = random_monomial_algebra(seeded(seed + 500))
            paths = A.nonzero_nontrivial_paths()
            for p in paths[:6]:
                s_left = [q for q in paths if q.source == p.target
                          and A.tuple_is_zero(p.arrows + q.arrows)]
                lset = {q.arrows for q in s_left}
                expect_L = sorted(
                    (q for q in s_left
                     if not any(q.arrows[:j] in lset for j in range(1, q.length))),
                    key=lambda q: (q.length, q.arrows))
                L, _R = calculus(A).annihilator_sets(p)
                assert L == expect_L


class TestMultiply:
    def test_idempotents(self, sec4):
        e1 = sec4.index_of(sec4.path("e_1"))
        assert sec4.product_indices(e1, e1) == [(e1, sec4.field.one)]

    def test_gamma_squared_zero(self, sec4):
        g = sec4.index_of(sec4.path("g"))
        assert sec4.product_indices(g, g) == []

    def test_infinito_commutation(self, infinito):
        # a2*a1 - abar2*abar1 maps to zero in the quotient
        v1 = dict(infinito.reduce_path(infinito.path("a1.a2")))
        v2 = dict(infinito.reduce_path(infinito.path("abar1.abar2")))
        diff = {k: infinito.field.sub(v1.get(k, 0), v2.get(k, 0))
                for k in set(v1) | set(v2)}
        assert all(infinito.field.is_zero(x) for x in diff.values())

    def test_bilinear_vs_paths(self, sec4):
        a = sec4.index_of(sec4.path("a"))
        b = sec4.index_of(sec4.path("b"))
        F = sec4.field
        out = multiply(sec4, {b: F.of(2)}, {a: F.of(3)})
        ab = sec4.index_of(sec4.path("a.b"))
        assert out == {ab: F.of(6)}


def test_monomial_like_products_are_associative():
    """No build runs an associativity self-check, so check every basis
    triple here, on random monomial algebras, truncated cycles, a truncated
    loop quiver and the relations algebras sec3_example, finito and
    finito_f32003; on infinito, the 500 triples that seeded(0) draws."""
    algebras = [random_monomial_algebra(seeded(seed + 1300), max_dim=30)
                for seed in range(20)]
    algebras += [build_algebra(cycle_quiver(n), TruncatedIdeal(k))
                 for n in (1, 2, 3) for k in (2, 3, 4)]
    loop = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1"), ("g", "2", "2")])
    algebras.append(build_algebra(loop, TruncatedIdeal(3)))
    algebras += [corpus.algebra(name) for name in ("sec3_example", "finito", "finito_f32003")]
    for A in algebras:
        one = A.field.one
        units = [{i: one} for i in range(A.dimension)]
        for x in units:
            for y in units:
                xy = multiply(A, x, y)
                for z in units:
                    assert multiply(A, xy, z) == multiply(A, x, multiply(A, y, z)), (
                        A, x, y, z)
    A = corpus.algebra("infinito")
    one = A.field.one
    rng = seeded(0)
    for _ in range(500):
        i, j, k = (rng.randrange(A.dimension) for _ in range(3))
        x, y, z = {i: one}, {j: one}, {k: one}
        assert multiply(A, multiply(A, x, y), z) == multiply(A, x, multiply(A, y, z)), (
            A, i, j, k)


class TestRelationsEngine:
    def test_sec3_dimension_oracle(self, sec3):
        # independent reduced-row-echelon count of the degree-2 layer
        assert sec3.dimension == 8
        deg2 = [p for p in sec3.basis if p.length == 2]
        assert len(deg2) == 2

    @pytest.mark.parametrize("name", ["sec3_example", "finito", "finito_f32003", "infinito"])
    def test_relations_vanish_under_multiply(self, name):
        """Each relation, its terms multiplied out arrow by arrow, is 0."""
        A = corpus.algebra(name)
        F = A.field
        arrow = {a.name: {A.index_of(A.path((a.name,))): F.one} for a in A.quiver.arrows}
        for rel in A.ideal.relations:
            acc = {}
            for c, term in rel.terms:
                value = arrow[term.arrows[0]]
                for a in term.arrows[1:]:
                    value = multiply(A, arrow[a], value)
                for i, coeff in value.items():
                    acc[i] = F.add(acc.get(i, F.zero), F.mul(F.of(c), coeff))
            assert all(F.is_zero(v) for v in acc.values()), rel

    def test_infinito_dim_p1_oracle(self, infinito):
        """Independent row reduction: 16 degree-2 paths out of vertex 1, six
        relation vectors of rank 6, leaving 10 cosets; dim P_1 = 1 + 4 + 10."""
        paths = ["a1.a2", "a1.abar2", "abar1.a2", "abar1.abar2",
                 "b1.b2", "b1.bbar2", "bbar1.b2", "bbar1.bbar2"]
        mixed = [f"{x}1.{y}2" for x in ("a", "abar") for y in ("b", "bbar")]
        mixed += [f"{x}1.{y}2" for x in ("b", "bbar") for y in ("a", "abar")]
        all16 = paths + mixed
        idx = {p: i for i, p in enumerate(all16)}
        rows = []
        for vec in (
            {"a1.a2": 1, "abar1.abar2": -1},
            {"b1.b2": 1, "bbar1.bbar2": -1},
            {"a1.abar2": 1},
            {"abar1.a2": 1},
            {"b1.bbar2": 1},
            {"bbar1.b2": 1},
        ):
            row = [Fraction(0)] * 16
            for k, v in vec.items():
                row[idx[k]] = Fraction(v)
            rows.append(row)
        # plain Gaussian elimination, written out fresh
        rank = 0
        for col in range(16):
            piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            rows[rank] = [x / rows[rank][col] for x in rows[rank]]
            for r in range(len(rows)):
                if r != rank and rows[r][col] != 0:
                    f = rows[r][col]
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
            rank += 1
        assert 16 - rank == 10
        assert len(infinito.basis_indices_from("1")) == 1 + 4 + 10

    def test_nilpotency_violation_detected(self):
        # two loops with only one square killed: J^2 is not inside the ideal
        q = Quiver(["1"], [("x", "1", "1"), ("y", "1", "1")])
        rel = Relation([(1, Path(q, ("x", "x")))])
        with pytest.raises(NotAdmissible):
            build_algebra(q, RelationsIdeal([rel], 2))

    def test_single_generated_square_covers_cube(self):
        # killing one length-2 loop of the 2-cycle generates everything in
        # degree 3, so the nilpotency check accepts N = 3
        q = cycle_quiver(2)
        rel = Relation([(1, Path(q, ("c0", "c1")))])
        A = build_algebra(q, RelationsIdeal([rel], 3))
        assert A.dimension == 5  # e_1, e_2, c0, c1, and the surviving loop

    def test_mixed_endpoints_rejected(self):
        q = cycle_quiver(3)
        with pytest.raises(BadRelation):
            Relation([(1, Path(q, ("c0", "c1"))), (1, Path(q, ("c1", "c2")))])

    def test_mixed_lengths_rejected(self):
        q = Quiver(["1"], [("x", "1", "1")])
        with pytest.raises(BadRelation):
            Relation([(1, Path(q, ("x", "x"))), (1, Path(q, ("x", "x", "x")))])

    def test_prime_field_build(self):
        q = cycle_quiver(2)
        rels = [Relation([(1, Path(q, ("c0", "c1")))]),
                Relation([(1, Path(q, ("c1", "c0")))])]
        A = build_algebra(q, RelationsIdeal(rels, 2), field=PrimeField(32003))
        assert A.field.char == 32003
        assert A.dimension == 4

    def test_structure_constants_json(self, sec3):
        dump = sec3.structure_constants_json()
        assert len(dump["basis"]) == 8
        assert all(len(entry) == 4 for entry in dump["entries"])
        # b1*a1 reduces to the kept coset of a2.b2 with coefficient 2
        i = sec3.index_of(sec3.path("b1"))
        j = sec3.index_of(sec3.path("a1"))
        (k, c), = sec3.product_indices(i, j)
        assert str(sec3.basis[k]) == "a2.b2" and c == Fraction(2)


class TestMonomialZeroOracle:
    def test_zero_iff_generator_factor(self):
        # cross-check the reduction engine against a from-scratch factor scan
        for seed in range(15):
            A = random_monomial_algebra(seeded(seed + 900))
            gens = [g.arrows for g in A.ideal.generators]
            for p in A.basis:
                assert not any(
                    p.arrows[i:i + len(g)] == g
                    for g in gens for i in range(len(p.arrows) - len(g) + 1)
                )


RELATIONS_CORPUS = ("sec3_example", "finito", "finito_f32003", "infinito")

# sha256 of `info --structure-constants --json` over the 12 corpus algebras,
# in name order, as the dense relations build printed it
STRUCTURE_CONSTANTS_SHA256 = "f948d12fbc2b6a21f8e6443f5d77612474377e2f48810117d0b9fb584673f30f"


class TestSparseRelationsBuild:
    """The relations build reduces sparse rows; the dense-row construction
    in `helpers.dense_relations_build` is its oracle."""

    @pytest.mark.parametrize("name", RELATIONS_CORPUS)
    def test_matches_dense_oracle(self, name):
        A = corpus.algebra(name)
        basis, reduction = dense_relations_build(A.quiver, A.ideal, A.field)
        assert A.basis == basis
        assert A._reduction == reduction

    @pytest.mark.parametrize("name, nilpotency", [
        ("sec3_example", 2), ("finito", 2), ("finito_f32003", 2), ("infinito", 2),
    ])
    def test_not_admissible_messages_match(self, name, nilpotency):
        A = corpus.algebra(name)
        ideal = RelationsIdeal(A.ideal.relations, nilpotency)
        with pytest.raises(NotAdmissible) as sparse:
            build_algebra(A.quiver, ideal, field=A.field)
        with pytest.raises(NotAdmissible) as dense:
            dense_relations_build(A.quiver, ideal, A.field)
        assert sparse.value.message == dense.value.message
        assert f"J^{nilpotency} is not contained in the ideal" in sparse.value.message

    @pytest.mark.parametrize("name", [n for n in RELATIONS_CORPUS if n != "finito_f32003"])
    def test_q_and_fp_builds_agree(self, name):
        """The same relations over F_32003: the same basis, and structure
        constants that are those over Q reduced mod p."""
        text = corpus.FILES[f"{name}.alg"]
        assert "field: Q\n" in text
        A = corpus.algebra(name)
        B = parse_algebra_text(text.replace("field: Q\n", "field: Fp 32003\n"))
        F = B.field
        assert [str(p) for p in B.basis] == [str(p) for p in A.basis]
        for i in range(A.dimension):
            for j in range(A.dimension):
                reduced = {k: x for k, c in A.product_indices(i, j) if (x := F.of(c))}
                assert dict(B.product_indices(i, j)) == reduced, (i, j)

    def test_structure_constants_json_pinned(self):
        digest = hashlib.sha256()
        for name in sorted(corpus.FILES):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["info", "--algebra", f"corpus:{name[:-len('.alg')]}",
                                 "--structure-constants", "--json"])
            assert code == 0
            digest.update(buf.getvalue().encode())
        assert len(corpus.FILES) == 12
        assert digest.hexdigest() == STRUCTURE_CONSTANTS_SHA256
