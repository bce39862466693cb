import pytest

from quiverhom import gorenstein, reps
from quiverhom.algebra import TruncatedIdeal, build_algebra
from quiverhom.errors import PreconditionViolated, UnsupportedIdeal
from quiverhom.igusa_todorov import corner_algebra
from quiverhom.pathmodules import ModuleMultiset, calculus
from quiverhom.quiver import Quiver, infinite_path_core

import helpers
from helpers import random_monomial_algebra, seeded


def truncated_cycle(n, k):
    verts = [str(i + 1) for i in range(n)]
    q = Quiver(verts, [(f"c{i}", verts[i], verts[(i + 1) % n]) for i in range(n)])
    return build_algebra(q, TruncatedIdeal(k))


def truncated_line(n, k):
    verts = [str(i + 1) for i in range(n)]
    q = Quiver(verts, [(f"l{i}", verts[i], verts[i + 1]) for i in range(n - 1)])
    return build_algebra(q, TruncatedIdeal(k))


class TestPerfectPaths:
    def test_sec4_only_gamma(self, sec4):
        pps = gorenstein.perfect_paths(sec4)
        assert len(pps) == 1
        assert str(pps[0].path) == "g"
        assert [str(p) for p in pps[0].relation_cycle] == ["g", "g"]

    def test_cycle_every_short_path_perfect(self):
        for (n, k) in ((2, 2), (3, 2), (5, 3), (4, 3)):
            A = truncated_cycle(n, k)
            pps = gorenstein.perfect_paths(A)
            assert len(pps) == n * (k - 1)

    def test_acyclic_no_perfect_paths(self):
        for seed in range(30):
            A = random_monomial_algebra(seeded(seed + 11000))
            from quiverhom.quiver import analyze

            if not analyze(A.quiver).is_acyclic:
                continue
            assert gorenstein.perfect_paths(A) == []

    def test_perfect_pair_structure(self, sec4):
        succ = gorenstein.perfect_pair_successors(sec4)
        g = sec4.path("g")
        assert succ.get(g) == g

    def test_relations_unsupported(self, sec3):
        with pytest.raises(UnsupportedIdeal):
            gorenstein.perfect_paths(sec3)


class TestPerfectPairOracle:
    """The continuation-set L/R sets and perfect-pair map against the
    basis-scan oracle of tests/helpers.py."""

    def check(self, A):
        calc = calculus(A)
        for p in A.nonzero_nontrivial_paths():
            assert calc.annihilator_sets(p) == helpers.annihilator_sets(A, p)
        succ = gorenstein.perfect_pair_successors(A)
        assert succ == helpers.perfect_pair_successors(A)
        assert gorenstein.perfect_pair_successors(A) is succ

    def test_truncated_family_every_7th(self, family_sample):
        for A in family_sample:
            self.check(A)

    def test_seeded_monomial(self):
        for seed in range(50):
            self.check(random_monomial_algebra(seeded(seed + 13000)))


class TestGpAndFlags:
    def test_sec4_gp_list(self, sec4):
        gp = gorenstein.gp_indecomposables(sec4)
        assert len(gp) == 1
        cls, pp = gp[0]
        assert cls == calculus(sec4).class_of(sec4.path("g"))
        assert not gorenstein.is_cm_free(sec4)

    def test_acyclic_cm_free(self):
        assert gorenstein.is_cm_free(truncated_line(3, 2))

    def test_self_injective_truncated_criterion(self):
        assert gorenstein.is_self_injective_truncated(truncated_cycle(5, 3))
        assert not gorenstein.is_self_injective_truncated(truncated_line(3, 2))
        # criterion verdict cross-checked by the certified linear test
        A = truncated_cycle(4, 2)
        assert gorenstein.is_self_injective_truncated(A) is True
        assert reps.certified_self_injective(A) is True
        B = truncated_line(3, 2)
        assert reps.certified_self_injective(B) is False

    def test_gp_classes_pass_membership(self, sec4):
        for cls, _pp in gorenstein.gp_indecomposables(sec4):
            r = gorenstein.omega_infinity_member(sec4, ModuleMultiset([cls]))
            assert r.periodic


class TestPeriodicSearch:
    def test_sec4_finds_gamma(self, sec4):
        found = gorenstein.find_periodic_module(sec4)
        assert found is not None
        assert found.base_class == calculus(sec4).class_of(sec4.path("g"))
        assert found.period == 1

    def test_c2_k2(self):
        A = truncated_cycle(2, 2)
        found = gorenstein.find_periodic_module(A)
        assert found is not None and found.period == 2

    def test_acyclic_none(self):
        assert gorenstein.find_periodic_module(truncated_line(4, 2)) is None
        assert helpers.omega_infinity_trivial(truncated_line(4, 2))

    def test_c3_k2_not_trivial(self):
        assert not helpers.omega_infinity_trivial(truncated_cycle(3, 2))

    def test_junky_cycle_bundle(self):
        # loop plus exit arrow at k=2: the cycle class needs projective junk
        q = Quiver(["v", "w"], [("p", "v", "v"), ("e", "v", "w")])
        A = build_algebra(q, TruncatedIdeal(2))
        found = gorenstein.find_periodic_module(A)
        assert found is not None
        calc = calculus(A)
        assert calc.is_periodic(found.multiset).periodic
        assert len(found.multiset) > 1  # the loop class alone is not periodic
        loop_cls = calc.class_of(A.path("p"))
        assert not calc.is_periodic(ModuleMultiset([loop_cls])).periodic

    def test_membership_requires_projective_free(self, sec4):
        calc = calculus(sec4)
        with pytest.raises(PreconditionViolated):
            gorenstein.omega_infinity_member(
                sec4, ModuleMultiset([calc.projective_class("1")])
            )


class TestCoGorenstein:
    def test_acyclic_branch(self):
        v = gorenstein.cogorenstein_truncated(truncated_line(3, 2))
        assert v.verdict and v.branch == "acyclic"

    def test_cycle_branch(self):
        v = gorenstein.cogorenstein_truncated(truncated_cycle(4, 2))
        assert v.verdict and v.branch == "cycle_graph"

    def test_no_cycle_subheart_branch(self):
        # doubled 2-cycle: strongly connected but no cycle-graph subheart
        q = Quiver(["1", "2"], [("a", "1", "2"), ("a2", "1", "2"), ("b", "2", "1")])
        v = gorenstein.cogorenstein_truncated(build_algebra(q, TruncatedIdeal(2)))
        assert v.verdict and v.branch == "no_cycle_subheart"

    def test_counterexample_branch_with_witness(self):
        # loop at w fed by a cycle at v: the subheart at w is an oriented
        # cycle, so the algebra is not Co-Gorenstein and the witness is a
        # verified periodic bundle with a non-GP summand
        q = Quiver(["v", "w"], [("p", "v", "v"), ("e", "v", "w"), ("q", "w", "w")])
        A = build_algebra(q, TruncatedIdeal(2))
        v = gorenstein.cogorenstein_truncated(A)
        assert not v.verdict and v.branch == "counterexample"
        assert v.witness is not None and v.offending_class is not None
        calc = calculus(A)
        assert calc.is_periodic(v.witness.multiset).periodic
        gp_keys = {c.sort_key for c, _ in gorenstein.gp_indecomposables(A)}
        assert v.offending_class.sort_key not in gp_keys

    def test_sec4_monomial_yes(self, sec4):
        v = gorenstein.cogorenstein_monomial(sec4)
        assert v.verdict and v.branch == "all_cycles_gorenstein_projective"

    def test_monomial_truncated_agreement_spot(self):
        for A in (truncated_cycle(3, 2), truncated_line(4, 3),
                  truncated_cycle(2, 3)):
            v1 = gorenstein.cogorenstein_truncated(A)
            v2 = gorenstein.cogorenstein_monomial(A)
            assert v1.verdict == v2.verdict

    def test_gorenstein_implies_cogorenstein_spot(self):
        # truncated algebras whose injectives all have finite pd get verdict
        # yes (finite-pd injectives make the algebra Gorenstein)
        checked = 0
        for seed in range(40):
            A = random_monomial_algebra(seeded(seed + 12000))
            if A.kind != "monomial":
                continue
            from quiverhom.quiver import analyze

            if not analyze(A.quiver).is_acyclic:
                continue
            bundle = reps.direct_sum(
                A, [reps.injective(A, v) for v in A.quiver.vertices])
            probe = reps.pd_rep(bundle)
            if probe.kind == "exact":
                verdict = gorenstein.cogorenstein_monomial(A)
                assert verdict.verdict
                checked += 1
        assert checked >= 5

    def test_restriction_agreement(self):
        # periodic-module existence agrees with the infinite-path core
        instances = [
            truncated_cycle(3, 2),
            truncated_line(4, 2),
            build_algebra(
                Quiver(["v", "w"], [("p", "v", "v"), ("e", "v", "w")]),
                TruncatedIdeal(2),
            ),
        ]
        for A in instances:
            core = infinite_path_core(A.quiver)
            full = gorenstein.find_periodic_module(A) is not None
            if core is None:
                assert not full
            else:
                corner = corner_algebra(A, core.vertices)
                assert full == (gorenstein.find_periodic_module(corner) is not None)

    def test_verdict_json(self, sec4):
        doc = gorenstein.cogorenstein_monomial(sec4).to_json()
        assert doc["verdict"] is True and "branch" in doc
