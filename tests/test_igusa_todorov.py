import contextlib
import io
import json

import pytest

from quiverhom import cli, corpus, igusa_todorov, reps
from quiverhom.algebra import TruncatedIdeal, build_algebra
from quiverhom.algfile import parse_algebra_text
from quiverhom.errors import (
    HypothesisViolated,
    Indeterminate,
    PreconditionViolated,
    UnsupportedIdeal,
)
from quiverhom.igusa_todorov import (
    HybridClassTable,
    K0Lattice,
    _certified_rank,
    build_lattice,
    corner_algebra,
    merge_lower_bound,
    phi,
    phi_of_reps,
    phidim_bounds,
    phidim_subcat,
    rank_sequence,
    triangular_check,
)
from quiverhom.pathmodules import ModuleMultiset, calculus
from quiverhom.quiver import INFINITE, Quiver

from helpers import eager_dedup, random_monomial_algebra, sampled_phidim_lower, seeded


def truncated_cycle(n, k):
    verts = [str(i + 1) for i in range(n)]
    q = Quiver(verts, [(f"c{i}", verts[i], verts[(i + 1) % n]) for i in range(n)])
    return build_algebra(q, TruncatedIdeal(k))


def relations_line():
    """The line 1 -> 2 -> 3 -> 4 with radical square zero, given by a
    relations ideal."""
    return parse_algebra_text("vertices: 1 2 3 4\narrow: a 1 2\narrow: b 2 3\n"
                              "arrow: c 3 4\nrelations: a.b, b.c\nnilpotency: 2\n")


def truncated_line(n, k):
    verts = [str(i + 1) for i in range(n)]
    q = Quiver(verts, [(f"l{i}", verts[i], verts[i + 1]) for i in range(n - 1)])
    return build_algebra(q, TruncatedIdeal(k))


class TestLattice:
    def test_c2_k2_swap(self):
        A = truncated_cycle(2, 2)
        calc = calculus(A)
        lat = build_lattice(A, [calc.simple_class("1")])
        assert lat.rank == 2
        assert sorted(c.label for c in lat.basis) == ["S_1", "S_2"]
        # the syzygy endomorphism is the swap permutation
        assert lat.matrix in ([[0, 1], [1, 0]],)

    def test_acyclic_nilpotent(self):
        A = truncated_line(3, 2)
        calc = calculus(A)
        lat = build_lattice(A, [calc.simple_class(v) for v in A.quiver.vertices])
        d = lat.rank
        vec = [1] * d
        for _ in range(d + 1):
            vec = lat.apply(vec)
        assert all(x == 0 for x in vec)

    def test_sec4_gamma_identity_block(self, sec4):
        calc = calculus(sec4)
        g = calc.class_of(sec4.path("g"))
        lat = build_lattice(sec4, [g])
        assert [c.label for c in lat.basis] == [g.label]
        assert lat.matrix == [[1]]

    def test_columns_match_syzygies(self):
        for seed in range(10):
            A = random_monomial_algebra(seeded(seed + 600))
            calc = calculus(A)
            lat = build_lattice(A, calc.all_path_classes())
            for j, c in enumerate(lat.basis):
                syz = calc.syzygy_class(c)
                for i, b in enumerate(lat.basis):
                    assert lat.matrix[i][j] == syz.counts.get(b, 0)

    def test_relations_unsupported(self, sec3):
        with pytest.raises(UnsupportedIdeal):
            build_lattice(sec3, [])


class TestPhi:
    def test_projective_bundle_zero(self, sec4):
        calc = calculus(sec4)
        m = ModuleMultiset([calc.projective_class("1")])
        assert phi(sec4, m).value == 0

    def test_finite_pd_class_equals_pd(self, sec4):
        calc = calculus(sec4)
        b = calc.class_of(sec4.path("b"))
        assert calc.pd(b) == 1
        assert phi(sec4, ModuleMultiset([b])).value == 1

    def test_c2_simples_permutation(self):
        A = truncated_cycle(2, 2)
        calc = calculus(A)
        m = ModuleMultiset([calc.simple_class("1"), calc.simple_class("2")])
        res = phi(A, m)
        assert res.value == 0
        assert res.ranks[0] == 2 and all(r == 2 for r in res.ranks)

    def test_single_infinite_class_zero(self, sec4):
        calc = calculus(sec4)
        g = calc.class_of(sec4.path("g"))
        assert phi(sec4, ModuleMultiset([g])).value == 0

    def test_multiplicity_invariance(self, sec4):
        calc = calculus(sec4)
        g = calc.class_of(sec4.path("g"))
        b = calc.class_of(sec4.path("b"))
        m = ModuleMultiset([g, b])
        assert phi(sec4, m).value == phi(sec4, m.scale(3)).value


class TestPhidim:
    def test_self_injective_cycle_zero(self):
        for (n, k) in ((2, 2), (3, 2), (4, 3)):
            A = truncated_cycle(n, k)
            res = phidim_subcat(A, calculus(A).all_path_classes())
            assert res.value == 0

    def test_acyclic_equals_max_pd(self):
        A = truncated_line(3, 2)
        calc = calculus(A)
        res = phidim_subcat(A, calc.all_path_classes())
        best = max(
            (calc.pd(c) for c in calc.all_path_classes() if calc.pd(c) != INFINITE),
            default=0,
        )
        assert res.value == best

    def test_bounds_cycle(self):
        # self-injective: phidim = 0 exactly
        for n in (2, 3, 5):
            b = phidim_bounds(truncated_cycle(n, 2))
            assert (b.lower, b.upper) == (0, 0)
            assert b.to_json()["exact"] is True
            assert b.rule == "self_injective"

    def test_bounds_acyclic_vs_gldim(self):
        A = truncated_line(4, 2)
        b = phidim_bounds(A)
        g = calculus(A).gldim()
        assert b.upper >= g.value >= b.lower
        # finite global dimension pins phidim = gldim
        assert b.lower == b.upper == g.value
        assert b.rule == "finite_gldim"

    def test_bounds_sec4_finite(self, sec4):
        b = phidim_bounds(sec4)
        assert 0 <= b.lower <= b.upper < 10
        sub = phidim_subcat(sec4, calculus(sec4).all_path_classes())
        assert b.upper == sub.value + 2  # monomial: second syzygies suffice
        # consistency with the syzygy-shift inequality
        assert b.subcat <= b.upper

    def test_bounds_unsupported_for_relations(self, infinito):
        with pytest.raises(UnsupportedIdeal):
            phidim_bounds(infinito)

    def test_phi_never_exceeds_subcat_of_closure(self, sec4):
        calc = calculus(sec4)
        classes = calc.all_path_classes()
        sub = phidim_subcat(sec4, classes)
        for c in classes:
            assert phi(sec4, ModuleMultiset([c])).value <= sub.value


class TestPhidimBoundsFamilies:
    def test_whole_hull_dominates_sample(self, family_sample):
        # the old sampled lower bound never exceeds the new one
        monomials = [random_monomial_algebra(seeded(seed + 14000)) for seed in range(100)]
        for A in family_sample + monomials:
            b = phidim_bounds(A)
            assert sampled_phidim_lower(A) <= b.lower <= b.upper
            assert b.to_json()["exact"] == (b.lower == b.upper)
            gl = calculus(A).gldim()
            if gl.is_finite():
                assert (b.lower, b.upper, b.rule) == (gl.value, gl.value, "finite_gldim")


class TestRankStabilization:
    def test_whole_lattice_early_stop(self):
        # on a whole lattice the sequence stops at its first repeat and
        # gives the same phi as the full d-step sequence
        rng = seeded(15000)
        lattices = []
        for _ in range(200):
            d = rng.randint(1, 7)
            matrix = [[rng.choice((0, 0, 0, 1, 2)) for _ in range(d)] for _ in range(d)]
            lattices.append(K0Lattice(None, list(range(d)), matrix))
        for seed in range(20):
            A = random_monomial_algebra(seeded(seed + 15100))
            lattices.append(build_lattice(A, calculus(A).all_path_classes()))
        for lat in lattices:
            d = lat.rank
            if d == 0:
                continue
            gens = [[1 if j == i else 0 for j in range(d)] for i in range(d)]
            full = rank_sequence(lat, gens, d)
            short = rank_sequence(lat, gens, d, whole=True)
            assert short == full[:len(short)]
            phi_full = min(l for l, r in enumerate(full) if r == full[d])
            phi_short = min(l for l, r in enumerate(short) if r == short[-1])
            assert phi_short == phi_full

    def test_proper_subspace_keeps_full_sequence(self):
        # S_1 -> S_2 -> 0 on the line 1 -> 2 -> 3 with k = 2: V = <S_1>
        # repeats its rank once and then drops
        A = truncated_line(3, 2)
        res = phi(A, ModuleMultiset([calculus(A).simple_class("1")]))
        assert res.ranks == [1, 1, 0]
        assert res.value == 2

    def test_double_horizon(self):
        for seed in range(8):
            A = random_monomial_algebra(seeded(seed + 700))
            calc = calculus(A)
            lat = build_lattice(A, calc.all_path_classes())
            d = lat.rank
            if d == 0:
                continue
            gens = [[1 if j == i else 0 for j in range(d)] for i in range(d)]
            ranks = rank_sequence(lat, gens, 2 * d)
            assert all(r == ranks[d] for r in ranks[d:])
            assert all(ranks[i] >= ranks[i + 1] for i in range(2 * d))


class TestHybridPhi:
    def test_self_injective_shortcut(self, sec3):
        m = corpus.make_m_param(sec3, ["1"])
        res = phi_of_reps(sec3, [m],
                          [("M1", m)], assume_infinite_pd=[])
        assert res.value == 0
        assert any("self-injective" in a for a in res.assumptions)

    def test_monomial_rejected(self, sec4):
        with pytest.raises(UnsupportedIdeal):
            phi_of_reps(sec4, [], [])

    def test_infinito_merge(self, infinito):
        catalog, assume = corpus.infinito_catalog(infinito, 2)
        res = phi_of_reps(
            infinito,
            [corpus.make_m_alpha(infinito, ["1", "2"]),
             corpus.make_m_beta(infinito, ["1", "2"])],
            catalog,
            assume_infinite_pd=assume,
        )
        assert res.value == 1
        assert res.ranks == [2, 1, 1]
        assert res.assumptions  # rests on the stated pd assumption

    def test_closed_catalog_finishes_on_the_finite_lattice(self):
        # every syzygy of a simple is the next simple, so the simples close
        # under syzygy and the exact lattice procedure ends it
        A = relations_line()
        simples = {v: reps.simple(A, v) for v in A.quiver.vertices}
        catalog = [(f"S_{v}", s) for v, s in simples.items()]
        for summands, value, ranks in [
            (["1", "2", "3"], 3, [3, 2, 1, 0]),
            (["1"], 3, [1, 1, 1, 0]),
            (["2", "4"], 2, [1, 1, 0]),
        ]:
            res = phi_of_reps(A, [simples[v] for v in summands], catalog)
            assert (res.value, res.ranks, res.assumptions) == (value, ranks, [])

    def test_no_assumed_class_skips_the_rank_rules(self, infinito, monkeypatch):
        # the catalog does not close the bundle: with no class assumed to
        # have infinite pd no rank rule could end the sequence, so the rules
        # are never tried
        def unreachable(*args):
            raise AssertionError("_certified_rank called")

        monkeypatch.setattr(igusa_todorov, "_certified_rank", unreachable)
        catalog, _assume = corpus.infinito_catalog(infinito, 2)
        summands = [corpus.make_m_alpha(infinito, ["1", "2"]),
                    corpus.make_m_beta(infinito, ["1", "2"])]
        with pytest.raises(Indeterminate, match="no catalog class is assumed"):
            phi_of_reps(infinito, summands, catalog, assume_infinite_pd=[])

    def test_unclosed_finito_simple_names_the_class(self, finito):
        catalog = [(f"S_{v}", reps.simple(finito, v)) for v in finito.quiver.vertices]
        with pytest.raises(Indeterminate, match=r"syzygy of S_1\b"):
            phi_of_reps(finito, [reps.simple(finito, "1")], catalog)

    def test_repeated_catalog_name_is_rejected(self):
        A = relations_line()
        catalog = [(f"S_{v}", reps.simple(A, v)) for v in A.quiver.vertices]
        catalog.append(("S_1", reps.simple(A, "2")))
        with pytest.raises(PreconditionViolated, match="'S_1'"):
            phi_of_reps(A, [reps.simple(A, "1")], catalog)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_renamed_reversed_catalog(self, infinito, n):
        # phi does not depend on the names or the order of the catalog
        # entries, once the assumed names are mapped along
        catalog, assume = corpus.infinito_catalog(infinito, n)
        rename = {name: f"entry{k}" for k, (name, _rep) in enumerate(catalog)}
        renamed = [(rename[name], rep) for name, rep in reversed(catalog)]
        summands = [corpus.make_m_alpha(infinito, ["1", str(n)]),
                    corpus.make_m_beta(infinito, ["1", str(n)])]
        plain = phi_of_reps(infinito, summands, catalog, assume_infinite_pd=assume)
        moved = phi_of_reps(infinito, summands, renamed,
                            assume_infinite_pd=[rename[name] for name in assume])
        assert (moved.value, moved.ranks) == (plain.value, plain.ranks)
        assert plain.value == n - 1


# (vectors, assume, verdict) for _certified_rank, one case per branch; an
# opaque symbol (name, shift) stands for the shift-th syzygy class of name
CERTIFIED_RANK_CASES = {
    # no opaque symbol: the rank of all-zero vectors is 0, and stepping on
    # is left to the caller (the loop never meets such a level)
    "all_zero": ([{}, {}], set(), (0, False, None)),
    "no_opaque_symbols": ([{"a": 1, "b": 1}, {"b": 1}, {}], set(), (2, False, None)),
    "negative_entry": ([{"a": -1, ("x", 1): 1}], set(), None),
    "negative_entry_in_junk": ([{"a": 1, ("x", 1): -1}, {"b": 1, ("x", 1): -1}], set(), None),
    "assumed_known_key": ([{"S_3": 1, ("x", 1): 2}] * 2, {"S_3"},
                          (1, True, "assumed infinite pd: ['S_3']")),
    "assumed_only_opaque": ([{("S_3", 2): 1, ("S_4", 1): 1}], {"S_3", "S_4"},
                            (1, True, "assumed infinite pd: ['S_3', 'S_4']")),
    "known_unassumed": ([{"a": 1, ("x", 1): 1}, {}], {"S_3"}, (1, False, None)),
    "only_opaque_keys": ([{("x", 1): 1, ("y", 2): 3}], set(), None),
    "shared_junk": ([{"a": 1, "c": 2, ("x", 1): 1}, {"b": 1, "c": 2, ("x", 1): 1},
                     {"d": 1, "c": 2, ("x", 1): 1}], set(), (3, False, None)),
    "shared_junk_partly_shared_known": ([{"a": 1, "c": 1, ("x", 1): 1},
                                         {"a": 1, "d": 1, ("x", 1): 1}], set(),
                                        (2, False, None)),
    "opaque_parts_differ": ([{"a": 1, ("x", 1): 1}, {"b": 1, ("x", 1): 2}], set(), None),
    "common_known_sizes_differ": ([{"a": 1, "c": 1, ("x", 1): 1},
                                   {"b": 1, "c": 2, ("x", 1): 1}], set(), None),
    "head_coefficient_two": ([{"a": 2, ("x", 1): 1}, {"b": 1, ("x", 1): 1}], set(), None),
    "opaque_heads": ([{("y", 1): 1, ("x", 1): 1}, {("z", 1): 1, ("x", 1): 1}], set(), None),
    "duplicate_vectors": ([{"a": 1, ("x", 1): 1}, {"a": 1, ("x", 1): 1},
                           {"b": 1, ("x", 1): 1}], set(), (2, False, None)),
}


class TestCertifiedRank:
    @pytest.mark.parametrize("case", sorted(CERTIFIED_RANK_CASES))
    def test_rule(self, case):
        vectors, assume, verdict = CERTIFIED_RANK_CASES[case]
        assert _certified_rank(vectors, assume) == verdict


def reversed_at(rep, v):
    """rep with the basis at vertex v taken in reverse order: an isomorphic
    copy whose maps differ from rep's, built from dense matrices."""
    quiver = rep.algebra.quiver
    mats = {}
    for a in quiver.arrows:
        m = [list(row) for row in rep.mats[a.name]]
        if a.target == v:
            m.reverse()
        if a.source == v:
            m = [row[::-1] for row in m]
        mats[a.name] = m
    return reps.Representation(rep.algebra, rep.dims, mats, name=f"{rep.name}~")


def planted_catalog(A):
    """infinito_catalog(A, 2) with a planted duplicate: an isomorphic copy of
    M_alpha(1,2), built differently, in front, and M_alpha(1,2) itself under
    a second name at the end."""
    catalog, assume = corpus.infinito_catalog(A, 2)
    m = dict(catalog)["M_alpha(1,2)"]
    return [("M_alpha(1,2)~", reversed_at(m, "2"))] + catalog + [("M_alpha(1,2)'", m)], assume


class TestHybridClassTable:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_canonical_matches_eager_dedup(self, infinito, n):
        catalog, _assume = corpus.infinito_catalog(infinito, n)
        table = HybridClassTable(infinito, catalog)
        aliases = {name: table.canonical(name) for name, _rep in catalog}
        assert aliases == eager_dedup(catalog)
        # M_beta(i,1) is isomorphic to M_alpha(i,1), and nothing else merges
        assert {a: c for a, c in aliases.items() if a != c} == {
            f"M_beta({i},1)": f"M_alpha({i},1)" for i in (1, 2, 3, 4)}
        assert sum(c == a for a, c in aliases.items()) == len(catalog) - 4

    def test_planted_duplicate(self, infinito):
        catalog, assume = planted_catalog(infinito)
        copy = catalog[0][1]
        assert copy.columns != dict(catalog)["M_alpha(1,2)"].columns
        table = HybridClassTable(infinito, catalog)
        aliases = {name: table.canonical(name) for name, _rep in catalog}
        assert aliases == eager_dedup(catalog)
        assert aliases["M_alpha(1,2)"] == aliases["M_alpha(1,2)'"] == "M_alpha(1,2)~"
        # identify names the class, whichever entry it meets first
        assert HybridClassTable(infinito, catalog).identify(
            corpus.make_m_alpha(infinito, ["1", "2"])) == "M_alpha(1,2)~"
        summands = [corpus.make_m_alpha(infinito, ["1", "2"]),
                    corpus.make_m_beta(infinito, ["1", "2"])]
        plain = phi_of_reps(infinito, summands, *corpus.infinito_catalog(infinito, 2))
        planted = phi_of_reps(infinito, summands, catalog, assume_infinite_pd=assume)
        assert planted.to_json() == plain.to_json()

    def test_iso_tests_per_phi_query(self, monkeypatch):
        """The iso tests of `phi M_alpha(1,n)+M_beta(1,n)` through the CLI,
        n = 1..4, apart from the sum tests, which run iso_test on the built
        sum; an eager dedup of the catalog made 14, 19, 23 and 27, and the
        sampled projective/injective matching 6, 8, 9 and 10."""
        calls = {"iso_test": 0, "iso_test_against_sum": 0}

        def counting(name):
            fn = getattr(reps, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        for name in calls:
            monkeypatch.setattr(reps, name, counting(name))
        counts, sum_counts, answers = [], [], []
        for n in (1, 2, 3, 4):
            calls.update(dict.fromkeys(calls, 0))
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["phi", "--algebra", "corpus:infinito",
                                 "--module", f"M_alpha(1,{n})+M_beta(1,{n})", "--json"])
            assert code == 0
            counts.append(calls["iso_test"] - calls["iso_test_against_sum"])
            sum_counts.append(calls["iso_test_against_sum"])
            answers.append(json.loads(buf.getvalue())["result"]["phi"])
        assert answers == [0, 1, 2, 3]
        assert counts == [2, 4, 5, 6]
        assert sum_counts == [0, 2, 5, 8]


class TestMergeLowerBound:
    def test_finito_witness_pair(self, finito):
        from quiverhom.modexpr import evaluate

        _k, va = evaluate(corpus.FINITO_WITNESS_A, finito, context="rep")
        _k, vb = evaluate(corpus.FINITO_WITNESS_B, finito, context="rep")
        assert merge_lower_bound(va[0][0], vb[0][0]) == 1

    def test_guard_rejects_projective_dominated(self, finito):
        p = reps.projective(finito, "1")
        assert merge_lower_bound(p, reps.projective(finito, "2")) == 0


class TestTriangular:
    def test_finito_report(self, finito):
        from quiverhom.modexpr import evaluate

        _k, va = evaluate(corpus.FINITO_WITNESS_A, finito, context="rep")
        _k, vb = evaluate(corpus.FINITO_WITNESS_B, finito, context="rep")
        report = triangular_check(finito, ["3"], ["1", "2"],
                                  witness_pairs=[(va[0][0], vb[0][0])])
        data = report.to_json()
        assert data["hypotheses"] == "pass"
        assert data["theorem_upper"] == 1
        assert data["algebra_lower"] == 1
        assert data["phidim_pinned"] == 1
        assert data["consistent"] is True

    def test_reversed_split_violates(self, finito):
        with pytest.raises(HypothesisViolated) as err:
            triangular_check(finito, ["1", "2"], ["3"])
        assert err.value.bullet == 2

    def test_bad_partition(self, finito):
        with pytest.raises(HypothesisViolated):
            triangular_check(finito, ["1"], ["1", "2", "3"])

    def test_bridge_annihilation_violated(self):
        # two acyclic parts joined by a bridge whose products survive
        q = Quiver(["1", "2", "3"],
                   [("u", "1", "2"), ("br", "2", "3"), ("w", "3", "3")])
        A = build_algebra(q, TruncatedIdeal(3))  # u.br survives J^3
        with pytest.raises(HypothesisViolated) as err:
            triangular_check(A, ["1", "2"], ["3"])
        assert err.value.bullet == 3

    def test_disjoint_acyclic_parts_exact(self):
        # a single annihilated bridge between two lines: both corners are
        # monomial, every number in the report is finite and consistent
        q = Quiver(["1", "2", "3", "4"],
                   [("u", "1", "2"), ("br", "2", "3"), ("w", "3", "4")])
        A = build_algebra(q, TruncatedIdeal(2))
        report = triangular_check(A, ["1", "2"], ["3", "4"])
        data = report.to_json()
        assert data["hypotheses"] == "pass"
        assert data["consistent"] is True
        assert data["algebra_lower"] <= data["theorem_upper"]

    def test_corner_construction(self, finito):
        ca = corner_algebra(finito, ["3"])
        assert ca.dimension == 2  # e_3 and the loop
        cb = corner_algebra(finito, ["1", "2"])
        assert cb.dimension == 8  # the doubled-arrow core
        assert reps.certified_self_injective(cb) is True
