import hashlib

import pytest

from quiverhom import corpus, reps
from quiverhom.algebra import TruncatedIdeal, build_algebra
from quiverhom.errors import FieldMismatch, NoDecomposition
from quiverhom.pathmodules import ModuleMultiset, calculus
from quiverhom.quiver import Quiver

from helpers import random_monomial_algebra, random_nonzero_path, seeded


def truncated_cycle(n, k):
    verts = [str(i + 1) for i in range(n)]
    q = Quiver(verts, [(f"c{i}", verts[i], verts[(i + 1) % n]) for i in range(n)])
    return build_algebra(q, TruncatedIdeal(k))


class TestStandardModules:
    def test_c2_k2_projective(self):
        A = truncated_cycle(2, 2)
        p1 = reps.projective(A, "1")
        assert p1.dim_vector() == (1, 1)
        p1.check_relations()

    def test_sec4_standard_modules_satisfy_relations(self, sec4):
        simples, projectives, injectives = reps.standard_modules(sec4)
        for fam in (simples, projectives, injectives):
            for rep in fam.values():
                assert rep.check_relations()

    def test_sec4_dimensions(self, sec4):
        assert reps.projective(sec4, "1").dim_vector() == (3, 2)
        assert reps.projective(sec4, "2").dim_vector() == (2, 2)
        assert reps.injective(sec4, "1").dim_vector() == (3, 2)
        assert reps.injective(sec4, "2").dim_vector() == (2, 2)

    def test_injective_socle_is_simple(self, sec4):
        # the injective at v: its socle (joint kernel of all arrows) at v is
        # one-dimensional and everything else embeds through the action
        i2 = reps.injective(sec4, "2")
        tops = reps.top_dim_vector(i2)
        assert sum(tops) > 0  # sanity; detailed socle math in gorenstein tests

    def test_projective_tops(self, sec3):
        for v in sec3.quiver.vertices:
            p = reps.projective(sec3, v)
            tops = reps.top_dim_vector(p)
            idx = sec3.quiver.vertices.index(v)
            assert tops[idx] == 1 and sum(tops) == 1


class TestSyzygyRep:
    def test_projective_syzygy_zero(self, sec4):
        for v in sec4.quiver.vertices:
            assert reps.syzygy_rep(reps.projective(sec4, v)).is_zero()

    def test_cover_dimension_bookkeeping(self):
        for seed in range(12):
            A = random_monomial_algebra(seeded(seed + 2000))
            calc = calculus(A)
            p = random_nonzero_path(seeded(seed), A)
            rep = reps.rep_of_class(calc.class_of(p))
            pres = reps.presentation(rep)
            cover = pres.cover_rep()
            ker = reps.syzygy_rep(rep)
            for i, v in enumerate(A.quiver.vertices):
                assert cover.dims[v] - rep.dims[v] == ker.dims[v]
            # minimality: the cover's top matches the module's top
            assert reps.top_dim_vector(cover) == reps.top_dim_vector(rep)
            ker.check_relations()

    def test_sec4_gamma_self_syzygy(self, sec4):
        calc = calculus(sec4)
        ag = reps.rep_of_class(calc.class_of(sec4.path("g")))
        syz = reps.syzygy_rep(ag)
        assert reps.iso_test(syz, ag).isomorphic


class TestHomAndIso:
    def test_identity_first(self, sec4):
        m = reps.projective(sec4, "1")
        r = reps.iso_test(m, m)
        assert r.isomorphic and r.detail == "identity"

    def test_dim_mismatch(self, sec4):
        r = reps.iso_test(reps.simple(sec4, "1"), reps.simple(sec4, "2"))
        assert r.status == "not_isomorphic"

    def test_field_mismatch(self, finito):
        other = corpus.algebra("finito_f32003")
        with pytest.raises(FieldMismatch):
            reps.iso_test(reps.simple(finito, "1"), reps.simple(other, "1"))

    def test_hom_dim_yoneda(self, sec4):
        # Hom(P_v, M) has dimension dim M_v
        m = reps.injective(sec4, "1")
        for v in sec4.quiver.vertices:
            p = reps.projective(sec4, v)
            idx = sec4.quiver.vertices.index(v)
            assert reps.hom_dim(p, m) == m.dim_vector()[idx]

    def test_hom_basis_intertwines(self, sec4):
        m = reps.injective(sec4, "2")
        n = reps.projective(sec4, "2")
        for h in reps.hom_space(m, n):
            assert h.verify()

    def test_symmetry_and_reflexivity_on_random_pairs(self):
        for seed in range(8):
            A = random_monomial_algebra(seeded(seed + 3000))
            calc = calculus(A)
            rng = seeded(seed)
            p1, p2 = (random_nonzero_path(rng, A) for _ in range(2))
            m = reps.rep_of_class(calc.class_of(p1))
            n = reps.rep_of_class(calc.class_of(p2))
            assert reps.iso_test(m, m).isomorphic
            assert reps.iso_test(n, n).isomorphic
            assert (reps.iso_test(m, n).status == "isomorphic") == (
                reps.iso_test(n, m).status == "isomorphic"
            )

    def test_certificate_is_reverified(self, sec3):
        m = corpus.make_m_param(sec3, ["1"])
        n = corpus.make_n_param(sec3, ["-1/2"])
        r = reps.iso_test(reps.syzygy_rep(m), n)
        assert r.isomorphic
        assert r.certificate.verify()
        assert r.certificate.is_vertexwise_invertible()

    def test_class_criterion_matches_linear_iso(self):
        """Equal classes are isomorphic, distinct classes are not: the
        combinatorial criterion against the certified linear test."""
        equal_checked = distinct_checked = 0
        seed = 0
        while equal_checked < 40 or distinct_checked < 40:
            seed += 1
            A = random_monomial_algebra(seeded(seed + 4000))
            calc = calculus(A)
            rng = seeded(seed)
            paths = A.nonzero_nontrivial_paths()
            p1, p2 = rng.choice(paths), rng.choice(paths)
            c1, c2 = calc.class_of(p1), calc.class_of(p2)
            m, n = reps.rep_of_class(c1), reps.rep_of_class(c2)
            verdict = reps.iso_test(m, n)
            if c1 == c2 and equal_checked < 40:
                assert verdict.isomorphic
                equal_checked += 1
            elif c1 != c2 and distinct_checked < 40:
                assert verdict.status == "not_isomorphic", (str(p1), str(p2))
                distinct_checked += 1


def _certificate_digest(result):
    """sha256 of the certificate matrices, formatted vertex by vertex."""
    cert = result.certificate
    F = cert.source.field
    text = ";".join(
        v + ":" + "|".join(",".join(F.fmt(x) for x in row) for row in cert.matrices[v])
        for v in cert.source.algebra.quiver.vertices
    )
    return hashlib.sha256(text.encode()).hexdigest()


class TestCandidateOrder:
    """Random iso candidates draw one coefficient per hom basis element per
    trial, in a fixed order; these pin the certificates that order yields."""

    def test_infinito_syzygy_against_sum(self, infinito):
        om = reps.syzygy_rep(corpus.make_m_alpha(infinito, ["1", "2"]))
        res, _nsum = reps.iso_test_against_sum(
            om, [(corpus.make_m_alpha(infinito, ["2", "1"]), 1), (reps.simple(infinito, "3"), 16)]
        )
        assert res.detail == "random combination, trial 0"
        assert _certificate_digest(res) == \
            "3c90fa584872666452b4e5220799233d9e9900e7e9bf581cf29307c8639d03ef"

    def test_sec3_permuted_sum(self, sec3):
        p, s, i = reps.projective(sec3, "1"), reps.simple(sec3, "1"), reps.injective(sec3, "2")
        x = reps.direct_sum(sec3, [p, s, i])
        y = reps.direct_sum(sec3, [i, p, s])
        res = reps.iso_test(x, y)
        assert len(reps.hom_space(x, y)) == 11
        assert res.detail == "random combination, trial 0"
        assert _certificate_digest(res) == \
            "7561f1ec0e3ef35df64e3e92744638ccd07fef2265abcc2015021a6cf9bcc222"

    def test_prime_field_against_sum(self):
        A = corpus.algebra("finito_f32003")
        vs = A.quiver.vertices
        p, s, i = reps.projective(A, vs[0]), reps.simple(A, vs[0]), reps.injective(A, vs[-1])
        x = reps.direct_sum(A, [p, s, i])
        res, _nsum = reps.iso_test_against_sum(x, [(i, 1), (s, 1), (p, 1)])
        assert res.detail == "random combination, trial 0"
        assert _certificate_digest(res) == \
            "17843cad49cd0d66f69a0fcc02fbadfbd6a10823ea72b442f5560a72a5ad0353"

    def test_shared_zero_line_runs_no_trial(self, monkeypatch):
        # Hom(Omega^3 I(3), Omega^6 I(3)) over F_32003 is spanned by one map
        # that vanishes at a vertex: no combination is invertible
        A = corpus.algebra("finito_f32003")
        traj = [reps.injective(A, "3")]
        for _ in range(6):
            traj.append(reps.syzygy_rep(traj[-1]))
        m, n = traj[3], traj[6]
        (h,) = reps.hom_space(m, n)
        assert any(not any(row) for mat in h.matrices.values() for row in mat)
        inverted = []
        monkeypatch.setattr(reps.linalg, "invert", lambda F, a: inverted.append(a))
        res = reps.iso_test(m, n)
        assert (res.status, res.detail) == ("undetermined", "no invertible combination in 20 trials")
        assert inverted == []


class TestDecompose:
    def test_projective_against_projectives(self, sec4):
        catalog = [(f"P_{v}", reps.projective(sec4, v)) for v in sec4.quiver.vertices]
        counts, warn = reps.decompose_against_catalog(reps.projective(sec4, "1"), catalog)
        assert dict(counts) == {"P_1": 1}

    def test_second_syzygy_path_module_decomposition(self):
        # second syzygies decompose into path modules over monomial algebras
        for seed in range(6):
            A = random_monomial_algebra(seeded(seed + 5000))
            calc = calculus(A)
            rng = seeded(seed)
            x = reps.rep_of_class(calc.class_of(random_nonzero_path(rng, A)))
            omega2 = reps.syzygy_rep(reps.syzygy_rep(x))
            if omega2.is_zero():
                continue
            catalog, _classes = reps.class_catalog(A)
            counts, _warn = reps.decompose_against_catalog(omega2, catalog)
            assert sum(counts.values()) >= 1

    def test_duplicate_catalog_entries_flag_ambiguity(self, sec4):
        p1 = reps.projective(sec4, "1")
        p1_copy = reps.projective(sec4, "1")
        catalog = [("first", p1), ("twin", p1_copy)]
        counts, warn = reps.decompose_against_catalog(p1, catalog)
        assert sum(counts.values()) == 1
        assert any("AMBIGUOUS" in w for w in warn)

    def test_no_decomposition_raises(self, sec3):
        m = corpus.make_m_param(sec3, ["1"])
        catalog = [(f"S_{v}", reps.simple(sec3, v)) for v in sec3.quiver.vertices]
        with pytest.raises(NoDecomposition):
            reps.decompose_against_catalog(m, catalog)


class TestPdRep:
    def test_simple_sink(self):
        A = truncated_cycle(2, 2)
        # no sink on a cycle; use a line instead
        q = Quiver(["1", "2"], [("l", "1", "2")])
        B = build_algebra(q, TruncatedIdeal(2))
        probe = reps.pd_rep(reps.simple(B, "2"))
        assert probe.kind == "exact" and probe.value == 0

    def test_sec4_injectives_exact_two(self, sec4):
        """Locks the computed truth pd(I_1 + I_2) = 2: Omega(I_1) = S_1 + P_2,
        Omega(I_2) = P_2 + S_1^2, and A*alpha = P_2 forces pd(S_1) = 1."""
        bundle = reps.direct_sum(sec4, [reps.injective(sec4, "1"),
                                        reps.injective(sec4, "2")])
        probe = reps.pd_rep(bundle)
        assert probe.kind == "exact" and probe.value == 2

    def test_monomial_handoff_certifies_infinite(self, sec4):
        calc = calculus(sec4)
        m = reps.rep_of_multiset(
            ModuleMultiset([calc.simple_class("2")]), sec4)
        probe = reps.pd_rep(m)
        assert probe.kind == "infinite"

    def test_self_injective_certificate(self, sec3):
        m = corpus.make_m_param(sec3, ["1"])
        probe = reps.pd_rep(m, max_steps=5)
        assert probe.kind == "infinite"
        assert "self-injective" in probe.detail

    def test_finito_injective_3_caps_over_rationals(self, finito):
        probe = reps.pd_rep(reps.injective(finito, "3"), max_steps=20)
        assert probe.kind == "at_least" and probe.value == 20


class TestSelfInjectivity:
    def test_sec3_certified(self, sec3):
        assert reps.certified_self_injective(sec3) is True

    def test_finito_not_self_injective(self, finito):
        assert reps.certified_self_injective(finito) is False

    def test_truncated_cycle_certified(self):
        A = truncated_cycle(3, 2)
        assert reps.certified_self_injective(A) is True
