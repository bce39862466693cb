import copy
import gc
import hashlib
import time
import weakref
from fractions import Fraction
from itertools import islice

import pytest

from quiverhom import corpus, gorenstein, linalg, reps
from quiverhom.algebra import TruncatedIdeal, build_algebra
from quiverhom.algfile import parse_algebra_text
from quiverhom.errors import (
    FieldMismatch,
    InternalInvariantError,
    NoDecomposition,
    PreconditionViolated,
)
from quiverhom.pathmodules import calculus
from quiverhom.quiver import Quiver

from helpers import (
    ONE_VERTEX_WIDE_SOCLE,
    class_rep_oracle,
    cover_rep,
    dense,
    dense_combine,
    dense_direct_sum,
    dense_hom,
    dense_hom_space,
    dense_is_vertexwise_invertible,
    dense_verify,
    candidates_oracle,
    decompose_oracle,
    exhaustive_truncated_family,
    injective_oracle,
    mat_vec,
    presentation_oracle,
    projective_oracle,
    random_monomial_algebra,
    random_nonzero_path,
    seeded,
    self_injective_by_matching,
    simple_multiplicity_oracle,
)


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
        for v in sec4.quiver.vertices:
            for make in (reps.simple, reps.projective, reps.injective):
                assert make(sec4, v).check_relations()

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
            cover = cover_rep(pres)
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
        assert r.certificate.verify() and dense_verify(r.certificate)
        assert dense_is_vertexwise_invertible(r.certificate)

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
        # that vanishes at a vertex: no hom is invertible, which certifies
        # not_isomorphic before any trial or the reverse hom solve
        A = corpus.algebra("finito_f32003")
        traj = [reps.injective(A, "3")]
        for _ in range(6):
            traj.append(reps.syzygy_rep(traj[-1]))
        m, n = traj[3], traj[6]
        (h,) = reps.hom_space(m, n)
        assert any(not any(row) for mat in h.matrices.values() for row in mat)
        tested, reverse = [], []
        monkeypatch.setattr(reps.linalg, "is_invertible", lambda F, a: tested.append(a))
        monkeypatch.setattr(reps, "hom_dim", lambda s, t: reverse.append((s, t)))
        res = reps.iso_test(m, n)
        assert (res.status, res.detail) == ("not_isomorphic", "row 0 at vertex 1 is zero in every hom")
        assert tested == [] and reverse == []

    def test_sum_shared_zero_line_runs_no_trial(self, monkeypatch):
        # every map from a simple into P_1 lands in the socle, so the
        # block-embedded homs S_1^3 + S_2^2 -> P_1 miss the top of P_1
        A = corpus.algebra("sec4_example")
        parts = [(reps.simple(A, "1"), 3), (reps.simple(A, "2"), 2)]
        tested = []
        monkeypatch.setattr(reps.linalg, "is_invertible", lambda F, a: tested.append(a))
        res, _nsum = reps.iso_test_against_sum(reps.projective(A, "1"), parts)
        assert (res.status, res.detail) == ("not_isomorphic", "row 0 at vertex 1 is zero in every hom")
        assert tested == []


class TestIntegerCandidates:
    """Iso candidates are combined from integer entries, rank-tested on the
    integer matrices and verified on sparse columns; the oracle combines the
    same draws in field elements and checks them densely."""

    @staticmethod
    def _pairs(sec3, infinito):
        # sec3: homs with denominators 4 and 6; infinito: the 321 homs from
        # Omega M_alpha(1,2) to M_alpha(2,1) + S_3^16; finito over F_32003
        om_m = reps.syzygy_rep(corpus.make_m_param(sec3, ["1/3"]))
        om_n = reps.syzygy_rep(corpus.make_n_param(sec3, ["3/4"]))
        p = reps.projective(sec3, "1")
        sec3_pair = (reps.direct_sum(sec3, [om_m, om_n, p]),
                     reps.direct_sum(sec3, [corpus.make_m_param(sec3, ["-3/4"]), p,
                                            corpus.make_n_param(sec3, ["-1/6"])]))
        infinito_pair = (
            reps.syzygy_rep(corpus.make_m_alpha(infinito, ["1", "2"])),
            reps.direct_sum(infinito, [corpus.make_m_alpha(infinito, ["2", "1"])]
                            + [reps.simple(infinito, "3")] * 16))
        A = corpus.algebra("finito_f32003")
        vs = A.quiver.vertices
        p, s, i = reps.projective(A, vs[0]), reps.simple(A, vs[0]), reps.injective(A, vs[-1])
        fp_pair = (reps.direct_sum(A, [p, s, i]), reps.direct_sum(A, [i, s, p]))
        return {"sec3": sec3_pair, "infinito": infinito_pair, "finito_f32003": fp_pair}

    @staticmethod
    def _trials(m, n, rng, trials=8):
        """(int matrices, den, new verdict, oracle hom, oracle verdict) per
        seeded draw; odd trials zero about half the coefficients, so that
        some candidates are singular."""
        F = m.field
        basis = reps.hom_space(m, n)
        den, entries = reps._int_entries(F, basis)
        field_entries = [reps._nonzero_entries(h) for h in basis]
        out = []
        for t in range(trials):
            coeffs = [F.random(rng) for _ in entries]
            if t % 2:
                coeffs = [c if rng.random() < 0.5 else 0 for c in coeffs]
            mats = reps._combine(F.char, n.dims, m.dims, coeffs, entries)
            oracle = dense_hom(m, n, dense_combine(F, n.dims, m.dims,
                                                   [F.of(c) for c in coeffs], field_entries))
            ok = dense_is_vertexwise_invertible(oracle) and dense_verify(oracle)
            out.append((mats, den, reps._certify(m, n, mats, den), oracle, ok))
        return out

    def test_same_verdicts_and_certificates_as_dense_oracle(self, sec3, infinito):
        for name, (m, n) in self._pairs(sec3, infinito).items():
            results = self._trials(m, n, seeded(11))
            assert {ok for *_, ok in results} == {True, False}, name
            for _mats, _den, cert, oracle, ok in results:
                assert (cert is not None) == ok, name
                if ok:
                    assert cert.matrices == oracle.matrices, name
            if name == "sec3":
                assert results[0][1] == 12

    def test_corrupted_entry_is_rejected_by_both(self, sec3, infinito):
        for name, (m, n) in self._pairs(sec3, infinito).items():
            F = m.field
            mats, den, cert, _oracle, ok = self._trials(m, n, seeded(12), trials=1)[0]
            assert ok and cert is not None, name
            rejected = 0
            for v in m.algebra.quiver.vertices:
                size = m.dims[v]
                for i, j in {(0, 0), (0, size - 1), (size - 1, 0)} if size else ():
                    bad_int = {w: [list(row) for row in mat] for w, mat in mats.items()}
                    bad_int[v][i][j] += den
                    bad = {w: [list(row) for row in mat] for w, mat in cert.matrices.items()}
                    bad[v][i][j] = F.of(bad[v][i][j] + 1)
                    hom = dense_hom(m, n, bad)
                    assert hom.verify() == dense_verify(hom), (name, v, i, j)
                    if not dense_verify(hom):
                        assert reps._certify(m, n, bad_int, den) is None
                        rejected += 1
            assert rejected, name


class TestIsoDecision:
    """iso_test and iso_test_against_sum share one decision; the sum test
    differs only in building Hom(sum, M) blockwise."""

    def test_zero_sum_is_certified(self, sec4):
        zero = reps.Representation(sec4, {})
        res, nsum = reps.iso_test_against_sum(zero, [])
        assert (res.status, res.detail) == ("isomorphic", "both zero")
        assert res.certificate.source is nsum and res.certificate.target is zero
        assert res.certificate.verify()

    @staticmethod
    def _sum_pairs(sec3, sec4, infinito):
        """(M, parts) per pair of TestCandidateOrder and TestIntegerCandidates."""
        fp = corpus.algebra("finito_f32003")
        vs = fp.quiver.vertices
        fp_p, fp_s, fp_i = reps.projective(fp, vs[0]), reps.simple(fp, vs[0]), reps.injective(fp, vs[-1])
        p, s, i = reps.projective(sec3, "1"), reps.simple(sec3, "1"), reps.injective(sec3, "2")
        om_m = reps.syzygy_rep(corpus.make_m_param(sec3, ["1/3"]))
        om_n = reps.syzygy_rep(corpus.make_n_param(sec3, ["3/4"]))
        return {
            "infinito": (reps.syzygy_rep(corpus.make_m_alpha(infinito, ["1", "2"])),
                         [(corpus.make_m_alpha(infinito, ["2", "1"]), 1),
                          (reps.simple(infinito, "3"), 16)]),
            "sec3_permuted": (reps.direct_sum(sec3, [p, s, i]), [(i, 1), (p, 1), (s, 1)]),
            "sec3_params": (reps.direct_sum(sec3, [om_m, om_n, p]),
                            [(corpus.make_m_param(sec3, ["-3/4"]), 1), (p, 1),
                             (corpus.make_n_param(sec3, ["-1/6"]), 1)]),
            "finito_f32003": (reps.direct_sum(fp, [fp_p, fp_s, fp_i]),
                              [(fp_i, 1), (fp_s, 1), (fp_p, 1)]),
            "sec4_zero_line": (reps.projective(sec4, "1"),
                               [(reps.simple(sec4, "1"), 3), (reps.simple(sec4, "2"), 2)]),
        }

    def test_sum_test_agrees_with_iso_test(self, sec3, sec4, infinito):
        statuses = {}
        for name, (m, parts) in self._sum_pairs(sec3, sec4, infinito).items():
            res, nsum = reps.iso_test_against_sum(m, parts)
            expanded = [rep for rep, mult in parts for _ in range(mult)]
            direct = reps.iso_test(reps.direct_sum(m.algebra, expanded), m)
            assert res.status == direct.status, name
            assert nsum.dim_vector() == m.dim_vector(), name
            statuses[name] = res.status
        assert set(statuses.values()) == {"isomorphic", "not_isomorphic"}

    def test_single_hom_sum_is_certified_in_trial_0(self):
        # Hom(part, m) over A_2 is spanned by one map, which the identity
        # is not: the arrow acts by 1 on part and by 2 on m
        A = build_algebra(Quiver(["1", "2"], [("a", "1", "2")]), TruncatedIdeal(2))
        part = reps.Representation(A, {"1": 1, "2": 1}, {"a": [[1]]})
        m = reps.Representation(A, {"1": 1, "2": 1}, {"a": [[2]]})
        (h,) = reps.hom_space(part, m)
        res, _nsum = reps.iso_test_against_sum(m, [(part, 1)])
        assert (res.status, res.detail) == ("isomorphic", "random combination, trial 0")
        assert res.certificate.verify()
        assert res.certificate.matrices == h.matrices


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

    def _count_sum_tests(self, monkeypatch):
        calls = []
        iso_sum = reps.iso_test_against_sum

        def counted(m, parts, **kw):
            calls.append(parts)
            return iso_sum(m, parts, **kw)

        monkeypatch.setattr(reps, "iso_test_against_sum", counted)
        return calls

    def test_first_certificate_wins_over_duplicate_entry(self, sec4, monkeypatch):
        p1 = reps.projective(sec4, "1")
        catalog = [("first", p1), ("twin", reps.projective(sec4, "1"))]
        calls = self._count_sum_tests(monkeypatch)
        counts, warn = reps.decompose_against_catalog(p1, catalog)
        assert dict(counts) == {"first": 1}
        assert warn == []
        assert len(calls) == 1

    def test_refused_candidate_then_certified_one(self, infinito, monkeypatch):
        # Omega M_beta(1,3) has the dimension and top vectors of both
        # M_alpha(2,2) + S_3^23 (tried first, refused) and M_beta(2,2) + S_3^23
        catalog, _assume = corpus.infinito_catalog(infinito, 3)
        omega = reps.syzygy_rep(corpus.make_m_beta(infinito, ["1", "3"]))
        calls = self._count_sum_tests(monkeypatch)
        counts, warn = reps.decompose_against_catalog(omega, catalog)
        assert dict(counts) == {"M_beta(2,2)": 1, "S_3": 23}
        assert warn == []
        assert len(calls) == 2

    def test_no_decomposition_raises(self, sec3):
        m = corpus.make_m_param(sec3, ["1"])
        catalog = [(f"S_{v}", reps.simple(sec3, v)) for v in sec3.quiver.vertices]
        with pytest.raises(NoDecomposition):
            reps.decompose_against_catalog(m, catalog)


class TestSimplePeel:
    """split_simple_summands peels S_v^k off exactly; k is checked against
    the rank of the pairing Hom(M, S_v) x Hom(S_v, M) -> k."""

    @staticmethod
    def _cases(infinito):
        out = {}
        for name in ("finito", "finito_f32003"):
            A = corpus.algebra(name)
            s3 = reps.simple(A, "3")
            out[f"{name}: Omega S_3"] = (reps.syzygy_rep(s3), {"3": 1})
            out[f"{name}: S_3 + S_3 + P_1"] = (
                reps.direct_sum(A, [s3, s3, reps.projective(A, "1")]), {"3": 2})
        for n, k in ((1, 10), (2, 16), (3, 23)):
            out[f"infinito: Omega M_alpha(1,{n})"] = (
                reps.syzygy_rep(corpus.make_m_alpha(infinito, ["1", str(n)])), {"3": k})
        return out

    def test_multiplicities_match_the_hom_pairing(self, infinito):
        for label, (m, expected) in self._cases(infinito).items():
            _rest, simples, _cert = reps.split_simple_summands(m)
            assert simples == expected, label
            oracle = {v: simple_multiplicity_oracle(m, v) for v in m.algebra.quiver.vertices}
            assert simples == {v: k for v, k in oracle.items() if k}, label

    def test_certificate_is_an_isomorphism_from_the_split(self, infinito):
        for label, (m, _expected) in self._cases(infinito).items():
            rest, simples, cert = reps.split_simple_summands(m)
            assert cert.target is m, label
            assert cert.verify() and dense_verify(cert), label
            assert dense_is_vertexwise_invertible(cert), label
            # the source is C first, then the simples in vertex order
            parts = [rest] + [reps.simple(m.algebra, v) for v, k in simples.items()
                              for _ in range(k)]
            assert cert.source.columns == reps.direct_sum(m.algebra, parts).columns, label
            assert {v: m.dims[v] - rest.dims[v] for v in m.dims if m.dims[v] != rest.dims[v]} \
                == simples, label

    def test_remainder_has_no_simple_summand(self, infinito):
        for label, (m, _expected) in self._cases(infinito).items():
            rest, _simples, _cert = reps.split_simple_summands(m)
            assert all(simple_multiplicity_oracle(rest, v) == 0
                       for v in m.algebra.quiver.vertices), label
            again, more, _cert = reps.split_simple_summands(rest)
            assert again is rest and more == {}, label

    def test_module_without_simple_summand_comes_back_as_is(self, sec3, sec4, infinito):
        for m in (reps.projective(sec4, "1"), corpus.make_m_param(sec3, ["1"]),
                  corpus.make_m_alpha(infinito, ["2", "2"])):
            rest, simples, cert = reps.split_simple_summands(m)
            assert rest is m and simples == {}
            assert cert.source is m and cert.target is m and cert.verify()
            assert dense_is_vertexwise_invertible(cert)

    def test_a_commutation_failure_is_an_internal_error(self, infinito, monkeypatch):
        m = reps.syzygy_rep(corpus.make_m_alpha(infinito, ["1", "2"]))
        monkeypatch.setattr(reps.ModuleHom, "verify", lambda self: False)
        with pytest.raises(InternalInvariantError):
            reps.split_simple_summands(m)


def test_candidate_walk_matches_the_unpruned_oracle():
    # the pruned walk yields the same multisets in the same order; small
    # vectors over few coordinates make many failing subtrees recur
    rng = seeded(31)
    walked = 0
    for _ in range(400):
        width = rng.randint(1, 4)
        entries = []
        for _ in range(rng.randint(1, 7)):
            vec = [rng.choice((0, 0, 1, 1, 2, 3)) for _ in range(width)]
            vec[rng.randrange(width)] = rng.randint(1, 3)
            entries.append((None, None, tuple(vec)))
        remaining = tuple(rng.randint(0, 8) for _ in range(width))
        want = list(candidates_oracle(entries, 0, remaining))
        assert list(reps._candidates(entries, 0, remaining)) == want, (entries, remaining)
        walked += len(want)
    assert walked


def test_candidate_walk_skips_failing_subtrees(monkeypatch):
    # the odd second coordinate is out of reach; the state (2, (0, 3)) is
    # reached from counts 3, 2, 1 and 0 of the first entry, and only the
    # first reach walks its subtree, which holds (3, (0, 1))
    entries = [(None, None, vec) for vec in ((2, 0), (1, 0), (0, 2), (0, 2))]
    walks = []
    walk = reps._candidates

    def counted(*args):
        walks.append(args[1:3])
        return walk(*args)

    monkeypatch.setattr(reps, "_candidates", counted)
    assert list(reps._candidates(entries, 0, (6, 3))) == []
    assert walks.count((2, (0, 3))) == 4
    assert walks.count((3, (0, 1))) == 1


class TestPeeledDecomposition:
    """decompose_against_catalog, which peels simple summands first, answers
    as the whole-multiset search of decompose_oracle did."""

    def test_infinito_families_match_the_oracle(self, infinito):
        full, _assume = corpus.infinito_catalog(infinito, 4)
        simples = [(f"S_{v}", reps.simple(infinito, v)) for v in infinito.quiver.vertices]
        for family in ("alpha", "beta"):
            make = corpus.GENERATORS[f"M_{family}"]
            for i in range(1, 5):
                for n in range(1, 5):
                    omega = reps.syzygy_rep(make(infinito, [str(i), str(n)]))
                    # the catalog of the benchmark's per-query decomposition
                    small = list(simples)
                    if n > 1:
                        nxt = str(i % 4 + 1)
                        small.insert(0, (f"M_{family}({nxt},{n - 1})",
                                         make(infinito, [nxt, str(n - 1)])))
                    for catalog in (small, full):
                        counts, warn = reps.decompose_against_catalog(omega, catalog)
                        assert counts == decompose_oracle(omega, catalog), (family, i, n)
                        assert warn == []

    def test_second_syzygies_of_path_modules_match_the_oracle(self):
        compared = 0
        for seed in range(6):
            A = random_monomial_algebra(seeded(seed + 5000))
            x = reps.rep_of_class(calculus(A).class_of(random_nonzero_path(seeded(seed), A)))
            omega2 = reps.syzygy_rep(reps.syzygy_rep(x))
            if omega2.is_zero():
                continue
            catalog, _classes = reps.class_catalog(A)
            counts, _warn = reps.decompose_against_catalog(omega2, catalog)
            assert counts == decompose_oracle(omega2, catalog), seed
            compared += 1
        assert compared

    def test_counter_order_matches_the_oracle(self, infinito):
        catalog, _assume = corpus.infinito_catalog(infinito, 3)
        omega = reps.syzygy_rep(corpus.make_m_beta(infinito, ["1", "3"]))
        counts, _warn = reps.decompose_against_catalog(omega, catalog)
        assert list(counts.items()) == list(decompose_oracle(omega, catalog).items()) \
            == [("M_beta(2,2)", 1), ("S_3", 23)]

    def test_duplicate_simple_entry_gives_the_first_name(self, infinito):
        # two simple entries at vertex 3 break the catalog contract; the
        # first in (-total dim, name) order wins, as in the oracle
        omega = reps.syzygy_rep(corpus.make_m_alpha(infinito, ["1", "2"]))
        s3 = reps.simple(infinito, "3")
        catalog = [("M_alpha(2,1)", corpus.make_m_alpha(infinito, ["2", "1"])),
                   ("z_S_3", s3), ("S_3", reps.simple(infinito, "3")), ("a_S_3", s3)]
        counts, _warn = reps.decompose_against_catalog(omega, catalog)
        assert counts == decompose_oracle(omega, catalog) == {"M_alpha(2,1)": 1, "S_3": 16}

    def test_missing_simple_entry_raises_before_any_sum_test(self, infinito, monkeypatch):
        omega = reps.syzygy_rep(corpus.make_m_alpha(infinito, ["1", "2"]))
        catalog = [("M_alpha(2,1)", corpus.make_m_alpha(infinito, ["2", "1"]))]
        catalog += [(f"S_{v}", reps.simple(infinito, v)) for v in ("1", "2", "4")]
        with pytest.raises(NoDecomposition):
            decompose_oracle(omega, catalog)
        calls = []
        monkeypatch.setattr(reps, "iso_test_against_sum",
                            lambda m, parts: calls.append(parts))
        with pytest.raises(NoDecomposition, match=r"S_3\^16"):
            reps.decompose_against_catalog(omega, catalog)
        assert calls == []

    def test_semisimple_syzygy_needs_no_iso_test(self, infinito, monkeypatch):
        omega = reps.syzygy_rep(corpus.make_m_beta(infinito, ["2", "1"]))
        catalog, _assume = corpus.infinito_catalog(infinito, 1)
        tested = []
        monkeypatch.setattr(reps, "iso_test_against_sum",
                            lambda m, parts: tested.append(parts))
        monkeypatch.setattr(reps, "_decide_iso", lambda *a: tested.append(a))
        counts, _warn = reps.decompose_against_catalog(omega, catalog)
        assert dict(counts) == {"S_4": 10}
        assert tested == []

    def test_remainder_is_matched_against_non_simple_entries_only(self, infinito, monkeypatch):
        omega = reps.syzygy_rep(corpus.make_m_alpha(infinito, ["1", "3"]))
        catalog, _assume = corpus.infinito_catalog(infinito, 3)
        calls = []
        iso_sum = reps.iso_test_against_sum

        def counted(m, parts):
            calls.append((m.dim_vector(), [rep.total_dim for rep, _k in parts]))
            return iso_sum(m, parts)

        monkeypatch.setattr(reps, "iso_test_against_sum", counted)
        counts, _warn = reps.decompose_against_catalog(omega, catalog)
        assert dict(counts) == {"M_alpha(2,2)": 1, "S_3": 23}
        assert calls and all(dv == (0, 2, 7, 0) and 1 not in dims for dv, dims in calls)


class TestCertifiedIndecomposable:
    @pytest.mark.parametrize("build", [
        lambda A: reps.projective(A, "1"),  # simple top
        lambda A: reps.injective(A, "2"),  # simple socle
        lambda A: corpus.make_m_alpha(A, ["1", "3"]),  # End(M) scalar on the top
        lambda A: corpus.make_m_beta(A, ["2", "2"]),
    ])
    def test_indecomposables_are_certified(self, infinito, build):
        assert reps.certified_indecomposable(build(infinito))

    @pytest.mark.parametrize("parts", [
        lambda A: [reps.simple(A, "1"), reps.simple(A, "2")],
        lambda A: [reps.projective(A, "1"), reps.projective(A, "1")],
        lambda A: [corpus.make_m_alpha(A, ["1", "2"]), corpus.make_m_beta(A, ["1", "2"])],
    ])
    def test_direct_sums_are_not(self, infinito, parts):
        assert not reps.certified_indecomposable(reps.direct_sum(infinito, parts(infinito)))

    def test_the_zero_module_is_not(self, infinito):
        assert not reps.certified_indecomposable(reps.direct_sum(infinito, []))


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
        probe = reps.pd_rep(reps.rep_of_class(calc.simple_class("2")))
        assert probe.kind == "infinite"

    def test_self_injective_certificate(self, sec3):
        m = corpus.make_m_param(sec3, ["1"])
        probe = reps.pd_rep(m, max_steps=5)
        assert probe.kind == "infinite"
        assert "self-injective" in probe.detail

    def test_finito_injective_3_caps_over_rationals(self, finito):
        probe = reps.pd_rep(reps.injective(finito, "3"), max_steps=20)
        assert probe.kind == "at_least" and probe.value == 20

    @pytest.mark.parametrize("max_steps", [0, 1, 2])
    def test_step_cap_below_two_reports_two(self, finito, max_steps):
        # steps 1 and 2 always run, and a nonzero second syzygy shows pd >= 2
        probe = reps.pd_rep(reps.injective(finito, "3"), max_steps=max_steps)
        assert (probe.kind, probe.value, probe.detail) == ("at_least", 2, "step cap reached")


class TestSelfInjectivity:
    def test_sec3_certified(self, sec3):
        assert reps.certified_self_injective(sec3) is True

    def test_finito_not_self_injective(self, finito):
        assert reps.certified_self_injective(finito) is False

    def test_truncated_cycle_certified(self):
        A = truncated_cycle(3, 2)
        assert reps.certified_self_injective(A) is True

    @staticmethod
    def check_against_matching(algebras):
        """The socle criterion is a bool on every algebra and agrees with the
        sampled projective/injective matching wherever that is certified;
        returns how many were certified."""
        certified = 0
        for A in algebras:
            verdict = reps.certified_self_injective(A)
            assert isinstance(verdict, bool)
            oracle = self_injective_by_matching(A)
            if oracle is not None:
                assert verdict == oracle, A
                certified += 1
        return certified

    def test_corpus_matches_the_matching(self):
        algebras = [corpus.algebra(name[:-4]) for name in corpus.FILES]
        assert len(algebras) == 12
        assert self.check_against_matching(algebras) == 12
        for A in algebras:
            if A.kind == "truncated":
                assert reps.certified_self_injective(A) == \
                    gorenstein.is_self_injective_truncated(A)

    @pytest.mark.parametrize("name", ["finito", "sec3_example"])
    @pytest.mark.parametrize("p", [3, 7, 31])
    def test_prime_field_variants_match_the_matching(self, name, p):
        text = corpus.FILES[f"{name}.alg"].replace("field: Q", f"field: Fp {p}")
        assert self.check_against_matching([parse_algebra_text(text)]) == 1

    def test_seeded_monomial_algebras_match_the_matching(self):
        algebras = [random_monomial_algebra(seeded(seed + 15000)) for seed in range(60)]
        assert self.check_against_matching(algebras) == 60
        assert sum(reps.certified_self_injective(A) for A in algebras) == 9

    def test_truncated_family_matches_the_cycle_graph_criterion(self):
        algebras = list(islice(exhaustive_truncated_family(max_vertices=3), 0, None, 7))
        for A in algebras:
            assert reps.certified_self_injective(A) == \
                gorenstein.is_self_injective_truncated(A), A
        assert self.check_against_matching(algebras) == len(algebras) == 217

    def test_non_simple_socle_is_decided_where_the_matching_is_not(self):
        A = parse_algebra_text(ONE_VERTEX_WIDE_SOCLE)
        assert len(reps._socle(reps.projective(A, "1"), "1")) == 3
        assert reps.certified_self_injective(A) is False
        assert self_injective_by_matching(A) is None


def _trajectory(rep, steps):
    out = [rep]
    for _ in range(steps):
        out.append(reps.syzygy_rep(out[-1]))
    return out


def _chain_text(rep, steps):
    """The dimension vectors and arrow matrices of rep and its first `steps`
    syzygies, formatted arrow by arrow."""
    F = rep.field
    out = []
    for _ in range(steps + 1):
        out.append(repr(rep.dim_vector()) + ";".join(
            a.name + ":" + "|".join(",".join(F.fmt(x) for x in row) for row in rep.mats[a.name])
            for a in rep.algebra.quiver.arrows))
        rep = reps.syzygy_rep(rep)
    return "\n".join(out)


def test_syzygy_chains_are_pinned(finito):
    """Omega^0..30 I(2) over F_32003 and Omega^0..8 I(v) over Q for every v
    of finito, pinned by the digest of the dense code that preceded the
    sparse syzygy step."""
    A = corpus.algebra("finito_f32003")
    text = _chain_text(reps.injective(A, "2"), 30) + "\n" + "\n".join(
        _chain_text(reps.injective(finito, v), 8) for v in finito.quiver.vertices)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "54cc8520b34e5a60e4305048518c38e8c6d7a7f34295d4df30047c366fb7f6ef"


class TestCoverAction:
    """The presentation's sparse cover action, read off the structure
    constants, against the dense projective cover as an oracle; its cover
    map, kernel embedding and kernel arrow matrices against the solve-based
    construction."""

    @staticmethod
    def _check(rep):
        pres = reps.presentation(rep)
        cover = cover_rep(pres)
        ker, embed = pres.kernel()
        pi, oracle_embed, oracle_mats = presentation_oracle(rep, pres)
        F = rep.field
        size = {w: len(pres.cover_basis[w]) for w in rep.algebra.quiver.vertices}
        assert {w: [dense(F, col, rep.dims[w]) for col in cols]
                for w, cols in pres._pi_cols.items()} == \
            {w: [[row[k] for row in pi[w]] for k in range(size[w])] for w in pi}
        assert {w: [dense(F, k, size[w]) for k in vecs] for w, vecs in embed.items()} == \
            oracle_embed
        assert ker.mats == oracle_mats
        checked = 0
        for a in rep.algebra.quiver.arrows:
            n = size[a.source]
            units = [{i: F.one} for i in range(n)]
            for vecs in (embed[a.source], units):
                assert [dense(F, t, size[a.target]) for t in pres.cover_images(a, vecs)] == \
                    [mat_vec(F, cover.mats[a.name], dense(F, k, n)) for k in vecs]
                checked += len(vecs)
        return checked

    def test_random_monomial_algebras(self):
        checked = 0
        for seed in range(10):
            A = random_monomial_algebra(seeded(seed + 6000))
            calc = calculus(A)
            rng = seeded(seed)
            rep = reps.rep_of_class(calc.class_of(random_nonzero_path(rng, A)))
            for member in _trajectory(rep, 2):
                if not member.is_zero():
                    checked += self._check(member)
        assert checked > 0

    def test_infinito(self, infinito):
        m = corpus.make_m_alpha(infinito, ["1", "2"])
        for member in _trajectory(m, 1) + [reps.injective(infinito, "2")]:
            self._check(member)

    def test_finito_f32003(self):
        A = corpus.algebra("finito_f32003")
        for member in _trajectory(reps.injective(A, "3"), 4) + [reps.injective(A, "1")]:
            self._check(member)

    @pytest.mark.parametrize("name", ["finito", "finito_f32003"])
    def test_relations_algebra_standard_modules(self, name):
        """finito's relations (a coefficient -2, differences of paths) over Q
        and over F_32003: every simple, projective and injective and its
        first two syzygies, some of them zero at a vertex."""
        A = corpus.algebra(name)
        zero_at_a_vertex = 0
        for v in A.quiver.vertices:
            for make in (reps.simple, reps.projective, reps.injective):
                for member in _trajectory(make(A, v), 2):
                    if not member.is_zero():
                        self._check(member)
                        zero_at_a_vertex += 0 in member.dim_vector()
        assert zero_at_a_vertex == 12

    def test_sec3_syzygy_chain(self, sec3):
        m = corpus.make_m_param(sec3, ["1"])
        for member in _trajectory(m, 3) + [reps.injective(sec3, "1")]:
            self._check(member)


class TestHomSpaceOracle:
    """`reps.hom_space`, built on the pushes of the target's unit vectors,
    against the dense path-matrix construction: the same homs, exactly and
    in the same order."""

    @staticmethod
    def _check(modules):
        checked = 0
        for m in modules:
            for n in modules:
                homs = reps.hom_space(m, n)
                assert [h.matrices for h in homs] == \
                    [h.matrices for h in dense_hom_space(m, n)]
                checked += len(homs)
        for m in modules:
            assert all(type(leaf) in (int, Fraction) for leaf in _leaves(list(m._pushes.values())))
        return checked

    def test_only_a_hom_target_memoizes_pushes(self, infinito):
        m = reps.syzygy_rep(corpus.make_m_alpha(infinito, ["1", "2"]))
        reps.presentation(m).kernel()
        assert m._pushes == {}
        # S_2 has a kernel-top generator at 2, where m is nonzero
        reps.hom_space(reps.simple(infinito, "2"), m)
        assert m._pushes

    def test_sec3_param_modules(self, sec3):
        modules = [make(sec3, [a]) for make in (corpus.make_m_param, corpus.make_n_param)
                   for a in ("1", "2", "-1/3")]
        assert self._check(modules) > 0

    def test_infinito_m_alpha_and_syzygies(self, infinito):
        m = corpus.make_m_alpha(infinito, ["1", "2"])
        assert self._check(_trajectory(m, 1)) > 0

    def test_finito_f32003_trajectory(self):
        A = corpus.algebra("finito_f32003")
        assert self._check([m for v in A.quiver.vertices
                            for m in _trajectory(reps.injective(A, v), 4)]) > 0

    def test_class_reps_of_random_monomial_algebras(self):
        checked = 0
        for seed in range(10):
            A = random_monomial_algebra(seeded(seed + 6200))
            catalog, _classes = reps.class_catalog(A)
            checked += self._check([rep for _label, rep in catalog])
        assert checked > 0


class TestTopsMemo:
    """A module's tops are computed once, on first read, and no reader
    changes them: the presentation pushes the very generator dicts."""

    def test_computed_once(self, infinito, monkeypatch):
        m = corpus.make_m_alpha(infinito, ["1", "2"])
        eliminations = []
        sparse_rref = linalg.sparse_rref
        monkeypatch.setattr(linalg, "sparse_rref",
                            lambda *args: eliminations.append(args) or sparse_rref(*args))
        tops = reps.top_complements(m)
        assert len(eliminations) == len(infinito.quiver.vertices)
        assert reps.top_dim_vector(m) == (2, 0, 0, 0)
        assert reps.top_complements(m) is tops
        assert reps.presentation(m).copies == [("1", g) for g in tops["1"]]
        assert all(g is t for (_v, g), t in zip(reps.presentation(m).copies, tops["1"]))
        assert len(eliminations) == len(infinito.quiver.vertices)

    def test_unchanged_by_readers(self, infinito):
        m = corpus.make_m_alpha(infinito, ["1", "2"])
        other = reps.direct_sum(infinito, [m])
        tops = reps.top_complements(m)
        snapshot = copy.deepcopy(tops)
        pres = reps.presentation(m)
        ker, _embed = pres.kernel()
        ker_tops = reps.top_complements(ker)
        ker_snapshot = copy.deepcopy(ker_tops)
        pres.kernel_top_generators()
        assert reps.hom_space(m, other) and reps.hom_space(other, m)
        assert reps.hom_space(ker, reps.syzygy_rep(other))
        beta = corpus.make_m_beta(infinito, ["1", "2"])
        assert reps.iso_test(m, beta).status == "not_isomorphic"
        assert reps.iso_test(beta, m).status == "not_isomorphic"
        # Omega M_alpha(1,2) and Omega M_beta(1,2) agree: M_alpha(2,1) = M_beta(2,1)
        assert reps.iso_test(ker, reps.syzygy_rep(beta)).isomorphic
        assert reps.top_complements(m) is tops and tops == snapshot
        assert reps.top_complements(ker) is ker_tops and ker_tops == ker_snapshot


@pytest.mark.parametrize("A", [corpus.algebra(name[:-len(".alg")]) for name in corpus.FILES] +
                         [random_monomial_algebra(seeded(seed + 6300)) for seed in range(10)],
                         ids=repr)
def test_projective_reads_the_arrow_action_tables(A):
    for v in A.quiver.vertices:
        p, oracle = reps.projective(A, v), projective_oracle(A, v)
        assert (p.dims, p.mats, p.name) == (oracle.dims, oracle.mats, oracle.name)


# three paths 1 -> 3 with one relation: an arrow times a basis path is a
# sum of two basis paths, which no corpus algebra has
THREE_PATHS = ("vertices: 1 2 3 4 5\narrow: a 1 2\narrow: b 2 3\narrow: c 1 4\n"
               "arrow: d 4 3\narrow: e 1 5\narrow: f 5 3\nrelations: a.b - c.d - e.f\n"
               "nilpotency: 3\n")


class TestDenseViews:
    """Sparse columns are the stored form of modules and homs: no builder
    makes a dense matrix until `mats` or `matrices` is read, and the dense
    views then equal the dense oracles."""

    def test_nothing_dense_until_read(self, sec4, monkeypatch):
        made = []
        dense_view = reps._dense
        monkeypatch.setattr(reps, "_dense", lambda *args: made.append(args) or dense_view(*args))
        p, i = reps.projective(sec4, "1"), reps.injective(sec4, "2")
        x, y = reps.direct_sum(sec4, [p, i]), reps.direct_sum(sec4, [i, p])
        modules = [p, i, x, y, reps.syzygy_rep(i)] + \
            [reps.rep_of_class(c) for c in calculus(sec4).all_path_classes()]
        homs = reps.hom_space(x, y) + reps.hom_space(i, p)
        homs += [reps.iso_test(x, y).certificate, reps.iso_test(x, x).certificate]
        assert made == [] and len(homs) > 2
        assert all(m._mats is None for m in modules) and all(h._matrices is None for h in homs)
        views = [m.mats for m in modules] + [h.matrices for h in homs]
        built = len(made)
        assert built == len(modules) * len(sec4.quiver.arrows) + \
            len(homs) * len(sec4.quiver.vertices)
        assert [m.mats for m in modules] + [h.matrices for h in homs] == views
        assert len(made) == built

    @pytest.mark.parametrize("A", [corpus.algebra(name) for name in (
        "sec4_example", "sec3_example", "c4_k3", "finito_f32003", "infinito")] +
        [parse_algebra_text(THREE_PATHS + field) for field in ("", "field: Fp 7\n")], ids=repr)
    def test_views_equal_the_dense_oracles(self, A):
        vs = A.quiver.vertices
        for v in vs:
            inj, oracle = reps.injective(A, v), injective_oracle(A, v)
            assert inj.mats == oracle
            assert reps.Representation(A, inj.dims, oracle).mats == oracle
            assert reps.projective(A, v).mats == projective_oracle(A, v).mats
        parts = [reps.projective(A, vs[0]), reps.simple(A, vs[-1]), reps.injective(A, vs[-1])]
        x, y = reps.direct_sum(A, parts), reps.direct_sum(A, parts[::-1])
        assert x.mats == dense_direct_sum(A, parts)
        assert reps.syzygy_rep(parts[2]).mats == \
            presentation_oracle(parts[2], reps.presentation(parts[2]))[2]
        assert [h.matrices for h in reps.hom_space(x, y)] == \
            [h.matrices for h in dense_hom_space(x, y)]
        if A.is_monomial_like:
            for c in calculus(A).all_path_classes():
                assert reps.rep_of_class(c).mats == class_rep_oracle(c)


def _table_algebras():
    """Truncated, monomial and relations algebras over Q and F_32003."""
    c4_k3 = corpus.FILES["c4_k3.alg"]
    return [corpus.algebra(name) for name in
            ("c3_k2", "c4_k3", "sec4_example", "finito", "finito_f32003", "infinito",
             "sec3_example")] + \
        [parse_algebra_text(c4_k3 + "field: Fp 32003\n")] + \
        [random_monomial_algebra(seeded(seed + 6100)) for seed in range(5)]


def _leaves(value):
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from _leaves(item)
    elif isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from _leaves(item)
    else:
        yield value


class TestAlgebraTables:
    """The per-algebra push plans and arrow actions that every syzygy step
    reads, against the basis paths and the structure constants."""

    @pytest.mark.parametrize("A", _table_algebras(), ids=repr)
    def test_push_plan_replays_every_basis_path(self, A):
        for v in A.quiver.vertices:
            plan = reps._push_plan(A, v)
            assert [b for b, _w, _slot, _arrows in plan] == A.basis_indices_from(v)
            pushed = [()]  # the arrow prefix whose image each slot holds
            for b, w, slot, arrows in plan:
                path = A.basis[b].arrows
                assert w == A.basis[b].target
                assert pushed[slot] + arrows == path
                # the slot holds the longest prefix of the path pushed so far
                assert not any(len(q) > len(pushed[slot]) and path[:len(q)] == q
                               for q in pushed)
                done = len(path) - len(arrows)
                pushed.extend(path[:done + j + 1] for j in range(len(arrows)))
            assert len(pushed) == len(set(pushed))
            assert all(type(leaf) in (int, str) for leaf in _leaves(plan))

    @pytest.mark.parametrize("A", _table_algebras(), ids=repr)
    def test_arrow_action_matches_structure_constants(self, A):
        F = A.field
        for a in A.quiver.arrows:
            ai = A.index_of(A.path((a.name,)))
            table = reps._arrow_action(A, a)
            assert list(table) == list(A.quiver.vertices)
            for v in A.quiver.vertices:
                out_of_v = A.basis_indices_from(v)
                at_u = [b for b in out_of_v if A.basis[b].target == a.source]
                at_w = [b for b in out_of_v if A.basis[b].target == a.target]
                images, n_w = table[v]
                assert n_w == len(at_w)
                assert images == [tuple((at_w.index(k), F.of(c))
                                        for k, c in A.product_indices(ai, b)) for b in at_u]
            assert all(type(leaf) in (int, str, Fraction) for leaf in _leaves(table))

    def test_second_step_reads_the_tables(self, monkeypatch):
        A = corpus.algebra("finito_f32003")
        first, second = reps.injective(A, "3"), reps.injective(A, "1")
        calls = []
        product_indices = A.product_indices
        monkeypatch.setattr(A, "product_indices",
                            lambda i, j: calls.append((i, j)) or product_indices(i, j))
        reps.syzygy_rep(first)
        assert calls
        calls.clear()
        assert not reps.syzygy_rep(second).is_zero()
        assert calls == []
        for a in A.quiver.arrows:
            assert A.memo(("arrow_action", a.name), lambda: pytest.fail("not memoized"))
        for v, _g in reps.presentation(first).copies + reps.presentation(second).copies:
            assert A.memo(("push_plan", v), lambda: pytest.fail("not memoized"))


class TestDimensionBudget:
    def test_syzygy_dim_matches_the_syzygy(self, finito, sec3):
        modules = [make(A, v) for A in (finito, sec3) for v in A.quiver.vertices
                   for make in (reps.simple, reps.projective, reps.injective)]
        for m in modules + [reps.Representation(finito, {})]:
            assert reps.syzygy_dim(m) == reps.syzygy_rep(m).total_dim

    def test_budget_ends_pd_without_building_the_syzygy(self, infinito):
        s1 = reps.simple(infinito, "1")
        start = time.monotonic()
        probe = reps.pd_rep(s1, max_dim=1000)
        assert time.monotonic() - start < 10
        assert (probe.kind, probe.value) == ("at_least", 4)
        assert probe.detail == "dimension budget 1000 reached: syzygy 4 has dimension 1726"
        omega3 = _trajectory(s1, 3)[-1]
        assert [m.dim_vector() for m in _trajectory(s1, 3)[1:]] == \
            [(0, 4, 10, 0), (0, 0, 6, 40), (156, 240, 0, 8)]
        assert reps.syzygy_dim(omega3) == 1726
        assert reps.presentation(omega3)._kernel is None

    def test_budget_never_decides(self, finito):
        """A budget only turns an answer into at_least: at or above the
        largest syzygy it changes nothing."""
        for v in finito.quiver.vertices:
            m = reps.injective(finito, v)
            free = reps.pd_rep(m, max_steps=6)
            assert reps.pd_rep(m, max_steps=6, max_dim=1000).to_json() == free.to_json()
            tight = reps.pd_rep(m, max_steps=6, max_dim=0)
            assert (tight.kind, tight.value) == ("at_least", 1)
            assert tight.detail.startswith("dimension budget 0 reached: syzygy 1 has dimension ")
        with pytest.raises(PreconditionViolated):
            reps.pd_rep(reps.simple(finito, "1"), max_dim=-1)


class TestInvariantErrors:
    """Matrices that break the algebra's relations reach both invariant
    checks of a syzygy step."""

    @pytest.mark.parametrize("ideal, dims, mats, message", [
        ("truncated: 2", (2, 2), {"a": [[0, 2], [4, 3]], "b": [[3, 6], [6, 2]]},
         "projective cover of the top fails to surject"),
        ("monomial: a.b.a", (1, 2), {"a": [[4], [2]], "b": [[2, 4]]},
         "cover action leaves the kernel"),
    ])
    def test_syzygy_raises(self, ideal, dims, mats, message):
        A = parse_algebra_text(
            f"vertices: 1 2\narrow: a 1 2\narrow: b 2 1\n{ideal}\nfield: Fp 7\n")
        rep = reps.Representation(A, dict(zip(A.quiver.vertices, dims)), mats)
        with pytest.raises(InternalInvariantError) as info:
            reps.syzygy_rep(rep)
        assert info.value.message == message


class TestRepeatDetection:
    @pytest.mark.parametrize("p, step", [(3, 5), (5, 9), (7, 7), (11, 21), (101, 201)])
    def test_finito_over_fp_repeats_with_one_iso_test(self, p, step, monkeypatch):
        """pd_rep of I(3) over F_p returns the repeat recorded before
        fingerprint keying, with one iso test in place of up to 14545."""
        A = parse_algebra_text(corpus.FILES["finito.alg"].replace("field: Q", f"field: Fp {p}"))
        assert reps.certified_self_injective(A) is False  # memoized before counting
        calls = []
        iso_test = reps.iso_test
        monkeypatch.setattr(reps, "iso_test",
                            lambda *args, **kw: calls.append(args) or iso_test(*args, **kw))
        probe = reps.pd_rep(reps.injective(A, "3"), max_steps=2 * p + 10)
        assert probe.kind == "infinite"
        assert probe.detail == f"syzygy step {step} isomorphic to step 1"
        assert len(calls) == 1


def _rescaled(rep, rng):
    """A random vertexwise rescaling of a thin module: isomorphic to it."""
    F = rep.field
    scale = {v: F.of(F.random(rng)) for v in rep.algebra.quiver.vertices}
    mats = {}
    for a in rep.algebra.quiver.arrows:
        m = rep.mats[a.name]
        mats[a.name] = [[F.div(F.mul(m[0][0], scale[a.source]), scale[a.target])]] if m and m[0] else m
    return reps.Representation(rep.algebra, rep.dims, mats, name=rep.name)


class TestFingerprint:
    @staticmethod
    def _thin_modules(sec3):
        A = corpus.algebra("finito_f32003")
        members = [t for t in _trajectory(reps.injective(A, "3"), 12)
                   if max(t.dim_vector()) <= 1]
        params = [corpus.make_m_param(sec3, [a]) for a in ("1", "2", "-1/2", "3")] + \
            [corpus.make_n_param(sec3, [a]) for a in ("1", "2", "-1/2", "3")]
        assert len(members) == 12
        return members + params + [reps.syzygy_rep(m) for m in params]

    def test_rescaling_keeps_fingerprint_and_is_certified(self, sec3):
        rng = seeded(7)
        for m in self._thin_modules(sec3):
            for _ in range(3):
                n = _rescaled(m, rng)
                assert reps._fingerprint(n) == reps._fingerprint(m)
                assert reps.iso_test(m, n).isomorphic

    def test_distinct_fingerprints_are_not_isomorphic(self, sec3):
        mods = self._thin_modules(sec3)
        rng = seeded(8)
        checked = 0
        for _ in range(120):
            m, n = rng.choice(mods), rng.choice(mods)
            if m.field != n.field or reps._fingerprint(m) == reps._fingerprint(n):
                continue
            assert reps.iso_test(m, n).status == "not_isomorphic"
            checked += 1
        assert checked >= 40

    # the rescaled scalars of M_param(a), N_param(a) and their syzygies, as
    # the fingerprint held them when every rational was a Fraction
    SEC3_SCALARS = {
        ("M", "1"): ((("a1", 1), ("a2", 1)), (("b1", 1), ("b2", Fraction(-1, 2)))),
        ("M", "2"): ((("a1", 1), ("a2", Fraction(1, 2))), (("b1", 1), ("b2", -1))),
        ("M", "1/2"): ((("a1", 1), ("a2", 2)), (("b1", 1), ("b2", Fraction(-1, 4)))),
        ("N", "1"): ((("b1", 1), ("b2", 1)), (("a1", 1), ("a2", -1))),
        ("N", "2"): ((("b1", 1), ("b2", 2)), (("a1", 1), ("a2", Fraction(-1, 2)))),
        ("N", "1/2"): ((("b1", 1), ("b2", Fraction(1, 2))), (("a1", 1), ("a2", -2))),
    }

    @pytest.mark.parametrize("kind, a", sorted(SEC3_SCALARS))
    def test_sec3_scalars_are_exact_and_unchanged(self, sec3, kind, a):
        # the fingerprint divides scales that start at F.one, an int: the
        # quotients must stay exact rationals, never floats
        make = corpus.make_m_param if kind == "M" else corpus.make_n_param
        m = make(sec3, [a])
        for rep, scalars in zip((m, reps.syzygy_rep(m)), self.SEC3_SCALARS[kind, a]):
            dv, got = reps._fingerprint(rep)
            assert dv == (1, 1) and got == scalars
            assert all(type(x) in (int, Fraction) for _name, x in got)

    def test_thick_module_keys_on_dimension_vector(self, sec4):
        p1 = reps.projective(sec4, "1")
        assert reps._fingerprint(p1) == p1.dim_vector() == (3, 2)


def test_presentation_leaves_no_reference_cycle():
    A = corpus.algebra("finito_f32003")
    gc.disable()
    try:
        m = reps.syzygy_rep(reps.injective(A, "3"))
        pres = reps.presentation(m)
        pres.kernel_top_generators()
        pres.sections()
        ref = weakref.ref(m)
        del m
        assert ref() is None
    finally:
        gc.enable()


def test_decomposition_leaves_no_reference_cycle(sec4):
    gc.disable()
    try:
        p1 = reps.projective(sec4, "1")
        catalog = [(f"P_{v}", reps.projective(sec4, v)) for v in sec4.quiver.vertices]
        counts, _warn = reps.decompose_against_catalog(p1, catalog)
        assert dict(counts) == {"P_1": 1}
        refs = [weakref.ref(p1), weakref.ref(catalog[0][1])]
        del p1, catalog
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
