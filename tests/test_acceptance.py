"""The acceptance gate: one test per stated criterion, each printing a
PASS/FAIL line.  Everything runs at exact tolerances (these are integer and
boolean claims; no numerical slack anywhere).

Criterion 1's injective-pd clause asserts the certified value
pd(I_1 + I_2) = 2 for the two-vertex loop example (a: 1 -> 2, b: 2 -> 1,
loop g at 2, monomial relations b.a and g.g).  By hand, for left modules:
rad P_1 = A*a is isomorphic to P_2, so 0 -> P_2 -> P_1 -> S_1 -> 0 is exact
and pd(S_1) = 1; Omega(I_1) = S_1 + P_2 and Omega(I_2) = P_2 + S_1^2, so
pd(I_1) = pd(I_2) = 2; Omega^2(I_1 + I_2) = P_2^3 with dimension vector
(6, 6), and Omega^3 = 0.  An infinite value is not rescued by reading the
clause for right modules: a -> b^op, b -> a^op, g -> g^op is an isomorphism
A = A^op, so the right injectives also have pd 2.  The algebra is
2-Gorenstein, in line with the Co-Gorenstein verdict of criterion 1.  The
test certifies this syzygy chain itself, independently of pd_rep's
path-class handoff.
"""

from fractions import Fraction

import pytest

from quiverhom import corpus, gorenstein, reps
from quiverhom.igusa_todorov import (
    build_lattice,
    phi,
    phi_of_reps,
    rank_sequence,
    triangular_check,
)
from quiverhom.modexpr import evaluate
from quiverhom.pathmodules import ModuleMultiset, calculus
from quiverhom.quiver import INFINITE

from helpers import (
    exhaustive_truncated_family,
    omega_infinity_trivial,
    random_acyclic_truncated,
    random_monomial_algebra,
    random_nonzero_path,
    seeded,
)


def report(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")


# -- criterion 1 --------------------------------------------------------------


def test_criterion_1_sec4_regression(sec4):
    """gp-list is exactly the loop class with relation-cycle (g, g);
    Co-Gorenstein yes; not CM-free."""
    gp = gorenstein.gp_indecomposables(sec4)
    assert len(gp) == 1
    cls, pp = gp[0]
    assert cls == calculus(sec4).class_of(sec4.path("g"))
    assert [str(p) for p in pp.relation_cycle] == ["g", "g"]
    verdict = gorenstein.cogorenstein_monomial(sec4)
    assert verdict.verdict is True
    assert gorenstein.is_cm_free(sec4) is False
    report(1, True, "gp-list = {A*g} with cycle (g, g); Co-Gorenstein yes; "
                    "CM-free false (exact match)")


def test_criterion_1_inj_pd_clause(sec4):
    """The inj-pd probe of sec4 certifies pd(I_1 + I_2) = 2 exactly, and so
    does each summand.  The value is checked against a certified syzygy
    chain: Omega(I_1) = S_1 + P_2 and Omega(I_2) = P_2 + S_1^2 by iso
    certificates, Omega(S_1) = P_2 (pd(S_1) = 1), and the raw chain of
    I_1 + I_2 is nonzero at step 2 and zero at step 3."""
    i1, i2 = reps.injective(sec4, "1"), reps.injective(sec4, "2")
    s1, p2 = reps.simple(sec4, "1"), reps.projective(sec4, "2")
    bundle = reps.direct_sum(sec4, [i1, i2])
    probe = reps.pd_rep(bundle)
    assert (probe.kind, probe.value) == ("exact", 2), probe
    for inj in (i1, i2):
        one = reps.pd_rep(inj)
        assert (one.kind, one.value) == ("exact", 2), (inj.name, one)

    om_i1, _ = reps.iso_test_against_sum(reps.syzygy_rep(i1), [(s1, 1), (p2, 1)])
    om_i2, _ = reps.iso_test_against_sum(reps.syzygy_rep(i2), [(p2, 1), (s1, 2)])
    om_s1 = reps.iso_test(reps.syzygy_rep(s1), p2)
    assert om_i1.status == "isomorphic", om_i1.detail
    assert om_i2.status == "isomorphic", om_i2.detail
    assert om_s1.status == "isomorphic", om_s1.detail
    om2 = reps.syzygy_rep(reps.syzygy_rep(bundle))
    assert not om2.is_zero()
    assert reps.syzygy_rep(om2).is_zero()
    report(1, True, f"inj-pd clause: pd(I_1 + I_2) = 2 exact ({probe.detail}); "
                    "certified Omega(I_1) = S_1 + P_2, Omega(I_2) = P_2 + S_1^2, "
                    f"Omega(S_1) = P_2; Omega^2 dims {om2.dim_vector()} nonzero, "
                    "Omega^3 = 0")


# -- criterion 2 --------------------------------------------------------------


def test_criterion_2_sec3_regression(sec3):
    for a in (1, 2, 4):
        m = corpus.make_m_param(sec3, [str(a)])
        assert reps.iso_test(
            reps.syzygy_rep(m), corpus.make_n_param(sec3, [str(Fraction(-a, 2))])
        ).isomorphic
        n = corpus.make_n_param(sec3, [str(a)])
        assert reps.iso_test(
            reps.syzygy_rep(n), corpus.make_m_param(sec3, [str(-a)])
        ).isomorphic
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            if a == b:
                continue
            r = reps.iso_test(corpus.make_m_param(sec3, [str(a)]),
                              corpus.make_m_param(sec3, [str(b)]))
            assert r.status == "not_isomorphic"
    orbit = [corpus.make_m_param(sec3, ["1"])]
    for _ in range(8):
        orbit.append(reps.syzygy_rep(orbit[-1]))
    for i in range(len(orbit)):
        for j in range(i + 1, len(orbit)):
            assert not reps.iso_test(orbit[i], orbit[j]).isomorphic
    report(2, True, "syzygy identities certified for a in {1,2,4}; pairwise "
                    "non-isomorphic parameters; 8-step orbit repetition-free")


# -- criterion 3 --------------------------------------------------------------


def test_criterion_3_infinito_regression(infinito):
    catalog, assume = corpus.infinito_catalog(infinito, 5)
    for n in range(2, 6):
        m = corpus.make_m_alpha(infinito, ["1", str(n)])
        om = reps.syzygy_rep(m)
        assert om.dim_vector() == (0, n - 1, 10 * n, 0)
        small = [(f"M_alpha(2,{n-1})", corpus.make_m_alpha(infinito, ["2", str(n - 1)]))]
        small += [(f"S_{v}", reps.simple(infinito, v))
                  for v in infinito.quiver.vertices]
        counts, _warn = reps.decompose_against_catalog(om, small)
        assert dict(counts) == {f"M_alpha(2,{n-1})": 1, "S_3": 7 * n + 2}
    om1 = reps.syzygy_rep(corpus.make_m_alpha(infinito, ["1", "1"]))
    s3_10 = reps.direct_sum(infinito, [reps.simple(infinito, "3")] * 10)
    assert reps.iso_test(om1, s3_10).isomorphic
    phis = []
    for n in range(2, 6):
        res = phi_of_reps(
            infinito,
            [corpus.make_m_alpha(infinito, ["1", str(n)]),
             corpus.make_m_beta(infinito, ["1", str(n)])],
            catalog, assume_infinite_pd=assume,
        )
        assert res.value == n - 1
        phis.append(res.value)
    assert phis == [1, 2, 3, 4]  # strictly increasing growth witness
    report(3, True, "syzygy dims (0, n-1, 10n, 0); certified decompositions "
                    "M_alpha(2,n-1) + S_3^(7n+2); Omega at n=1 is S_3^10; "
                    f"phi growth {phis} (exact integers)")


# -- criterion 4 --------------------------------------------------------------


def test_criterion_4_finito_regression(finito):
    _k, va = evaluate(corpus.FINITO_WITNESS_A, finito, context="rep")
    _k, vb = evaluate(corpus.FINITO_WITNESS_B, finito, context="rep")
    data = triangular_check(finito, ["3"], ["1", "2"],
                            witness_pairs=[(va[0][0], vb[0][0])]).to_json()
    assert data["hypotheses"] == "pass"
    assert data["algebra_lower"] >= 1
    assert data["theorem_upper"] == 1
    assert data["consistent"] is True
    assert data["phidim_pinned"] == 1

    probe_q = reps.pd_rep(reps.injective(finito, "3"), max_steps=20)
    finito_p = corpus.algebra("finito_f32003")
    probe_p = reps.pd_rep(reps.injective(finito_p, "3"), max_steps=20)
    # the stated disjunction: infinite_certified over F_32003 OR at_least(20)
    # over the rationals; the prime-field repeat distance is ord(2 mod 32003)
    # = 32002 syzygy pairs, so the rationals branch is the live one
    disjunction = (probe_p.kind == "infinite") or (
        probe_q.kind == "at_least" and probe_q.value == 20
    )
    assert disjunction
    report(4, True, "split hypotheses pass on ({3} | {1,2}); lower bound 1 from a "
                    "certified syzygy merge; theorem-side bound 1 (phidim pinned "
                    f"to 1); I(3) probes: Q {probe_q.kind}({probe_q.value}), "
                    f"F32003 {probe_p.kind}({probe_p.value})")


# -- criterion 5 --------------------------------------------------------------


def test_criterion_5_gldim_oracle_equivalence():
    rng = seeded(505)
    checked = 0
    while checked < 50:
        A = random_acyclic_truncated(rng)
        g = calculus(A).gldim()  # raises on any formula/resolution mismatch
        assert g.formula == g.value
        checked += 1
    report(5, True, f"{checked} random acyclic truncated algebras: closed-form "
                    "global dimension equals the resolution value (100%)")


# -- criterion 6 --------------------------------------------------------------


def test_criterion_6_combinatorial_linear_syzygy_equivalence():
    rng = seeded(606)
    checked = 0
    while checked < 200:
        A = random_monomial_algebra(rng, max_dim=50)
        calc = calculus(A)
        p = random_nonzero_path(rng, A)
        cls = calc.class_of(p)
        linear = reps.syzygy_rep(reps.rep_of_class(cls))
        formal = calc.syzygy_class(cls)
        parts = [(reps.rep_of_class(c), mult) for c, mult in formal]
        verdict, _nsum = reps.iso_test_against_sum(linear, parts)
        if linear.is_zero() and not parts:
            checked += 1
            continue
        assert verdict.isomorphic, (
            f"undetermined or refuted on {p} over {A}: {verdict.status}"
        )
        # dimension vectors must agree exactly
        dims = [0] * len(A.quiver.vertices)
        for c, mult in formal:
            for i, x in enumerate(c.dim_vector_tuple()):
                dims[i] += mult * x
        assert tuple(dims) == linear.dim_vector()
        checked += 1
    report(6, True, f"{checked} random (monomial algebra, path) pairs: linear "
                    "syzygy iso-certified against the class-calculus syzygy "
                    "(100%, no undetermined outcomes)")


# -- criteria 7 and 8 (one pass over the exhaustive family) --------------------


@pytest.fixture(scope="module")
def exhaustive_results():
    stats = {"total": 0, "agree": 0, "no": 0, "periodic": 0,
             "perfect_paths": 0}
    for A in exhaustive_truncated_family():
        calc = calculus(A)
        stats["total"] += 1
        v_quiver = gorenstein.cogorenstein_truncated(A)
        v_search = gorenstein.cogorenstein_monomial(A)
        assert v_quiver.verdict == v_search.verdict
        stats["agree"] += 1
        if not v_quiver.verdict:
            stats["no"] += 1
            w = v_quiver.witness
            assert w is not None
            assert calc.is_periodic(w.multiset).periodic
            gp_keys = {c.sort_key for c, _ in gorenstein.gp_indecomposables(A)}
            assert any((not c.projective) and c.sort_key not in gp_keys
                       for c in w.multiset.classes())
        found = gorenstein.find_periodic_module(A)
        if found is not None:
            stats["periodic"] += 1
            assert calc.is_periodic(found.multiset).periodic
            assert any(not c.projective for c in found.multiset.classes())
        singleton = False
        for c in calc.all_path_classes():
            if c.projective:
                continue
            if gorenstein.omega_infinity_member(A, ModuleMultiset([c])).periodic:
                singleton = True
                break
        if singleton:
            assert found is not None
        assert (found is not None) == (not omega_infinity_trivial(A))
        for pp in gorenstein.perfect_paths(A):
            stats["perfect_paths"] += 1
            r = calc.is_periodic(ModuleMultiset([calc.class_of(pp.path)]))
            assert r.periodic and r.period <= len(pp.relation_cycle) - 1
    return stats


def test_criterion_7_cogorenstein_cross_validation(exhaustive_results):
    s = exhaustive_results
    assert s["agree"] == s["total"] > 5000
    report(7, True, f"exhaustive family ({s['total']} algebras, <=4 vertices, "
                    f"<=6 arrows up to relabeling, k in {{2,3}}): quiver "
                    f"criterion == search verdict in 100% of cases; all "
                    f"{s['no']} negative verdicts carry verified periodic "
                    "non-Gorenstein-projective witnesses")


def test_criterion_8_periodicity_equivalence(exhaustive_results):
    s = exhaustive_results
    assert s["periodic"] > 0 and s["perfect_paths"] > 0
    report(8, True, f"same family: periodic-module existence matches nontrivial "
                    f"membership in every case ({s['periodic']} positives); all "
                    f"{s['perfect_paths']} perfect paths are periodic within "
                    "their relation-cycle length")


# -- criterion 9 ---------------------------------------------------------------


@pytest.fixture(scope="module")
def phi_suite():
    """Criterion 9's seeded loop, run once; criterion 10 reuses its first 60
    lattices."""
    rng = seeded(909)
    instances = 0
    multisets = 0
    lattices = []
    while instances < 100:
        A = random_monomial_algebra(rng, max_dim=40)
        calc = calculus(A)
        classes = calc.all_path_classes()
        if not classes:
            continue
        instances += 1
        lattice = build_lattice(A, classes + [calc.simple_class(v)
                                              for v in A.quiver.vertices])
        if len(lattices) < 60:
            lattices.append(lattice)
        finite = [c for c in classes if calc.pd(c) != INFINITE]
        infinite = [c for c in classes if calc.pd(c) == INFINITE]
        for _ in range(5):
            picks = rng.sample(classes, min(len(classes), rng.randint(1, 3)))
            m = ModuleMultiset([(c, rng.randint(1, 3)) for c in picks])
            multisets += 1
            value = phi(A, m).value
            # multiplicity invariance
            assert phi(A, m.scale(rng.randint(2, 4))).value == value
            # monotonicity under direct sums
            extra = rng.choice(classes)
            assert value <= phi(A, m.add(ModuleMultiset([extra]))).value
            # the syzygy-shift inequality
            om = calc.iterate_syzygy(m, 1)
            assert value <= phi(A, om).value + 1
        if finite:
            c = rng.choice(finite)
            m = ModuleMultiset([c])
            multisets += 1
            assert phi(A, m).value == calc.pd(c)
        if infinite:
            c = rng.choice(infinite)
            multisets += 1
            assert phi(A, ModuleMultiset([c])).value == 0
    return {"instances": instances, "multisets": multisets, "lattices": lattices}


def test_criterion_9_phi_property_suite(phi_suite):
    instances, multisets = phi_suite["instances"], phi_suite["multisets"]
    assert multisets >= 500
    report(9, True, f"{instances} random monomial instances, {multisets} "
                    "multisets: phi = pd when finite, phi = 0 on single "
                    "infinite-pd classes, direct-sum monotonicity, "
                    "multiplicity invariance, syzygy-shift inequality "
                    "(zero violations)")


# -- criterion 10 ----------------------------------------------------------------


def test_criterion_10_rank_stabilization(phi_suite):
    extra = []
    for i, A in enumerate(exhaustive_truncated_family(max_vertices=2, max_arrows=4)):
        calc = calculus(A)
        extra.append(build_lattice(A, calc.all_path_classes()))
    checked = 0
    for lattice in phi_suite["lattices"] + extra:
        d = lattice.rank
        if d == 0:
            continue
        gens = [[1 if j == i else 0 for j in range(d)] for i in range(d)]
        ranks = rank_sequence(lattice, gens, 2 * d)
        assert all(r == ranks[d] for r in ranks[d:]), "rank moved past the horizon"
        assert all(ranks[i] >= ranks[i + 1] for i in range(len(ranks) - 1))
        checked += 1
    report(10, True, f"{checked} lattices: rank sequences non-increasing and "
                     "constant from the lattice rank through twice the horizon")
