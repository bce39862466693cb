import pytest

from quiverhom import corpus, gorenstein
from quiverhom.algebra import TruncatedIdeal, build_algebra
from quiverhom.errors import UnsupportedIdeal, ZeroPath
from quiverhom.pathmodules import ModuleMultiset, calculus
from quiverhom.quiver import INFINITE, Quiver

from helpers import fed_cycles_algebra, periodic_by_iteration, random_monomial_algebra, seeded


def truncated_cycle(n, k):
    verts = [str(i + 1) for i in range(n)]
    q = Quiver(verts, [(f"c{i}", verts[i], verts[(i + 1) % n]) for i in range(n)])
    return build_algebra(q, TruncatedIdeal(k))


def truncated_line(n, k):
    verts = [str(i + 1) for i in range(n)]
    q = Quiver(verts, [(f"l{i}", verts[i], verts[i + 1]) for i in range(n - 1)])
    return build_algebra(q, TruncatedIdeal(k))


class TestClassOf:
    def test_c2_k2_arrow_is_simple_shaped(self):
        A = truncated_cycle(2, 2)
        calc = calculus(A)
        cls = calc.class_of(A.path("c0"))
        assert cls.dim_vector_tuple() == calc.simple_class("2").dim_vector_tuple()
        assert cls == calc.simple_class("2")

    def test_truncated_classes_depend_on_length_and_target(self):
        A = truncated_cycle(3, 3)
        calc = calculus(A)
        # a top-length class has trivial continuations: the simple shape
        assert calc.class_of(A.path("c0.c1")) == calc.simple_class("3")
        # intermediate lengths carry the M[vertex, length] label
        assert calc.class_of(A.path("c0")).label == "M[2,1]"
        assert calc.class_of(A.path("c1")).label == "M[3,1]"

    def test_equal_length_equal_target_paths_share_class(self):
        # well-definedness of the (length, target) classes over truncated
        # algebras: two parallel routes into the same vertex coincide
        q = Quiver(["1", "2", "3"], [("x", "1", "2"), ("y", "1", "2"), ("z", "2", "3")])
        A = build_algebra(q, TruncatedIdeal(2))
        calc = calculus(A)
        assert calc.class_of(A.path("x")) == calc.class_of(A.path("y"))

    def test_sec4_gamma_class(self, sec4):
        calc = calculus(sec4)
        cls = calc.class_of(sec4.path("g"))
        # continuations enumerated by brute force: e_2 and b survive
        expected = set()
        for c in sec4.basis:
            if c.source == "2" and not sec4.tuple_is_zero(("g",) + c.arrows):
                expected.add(c.arrows)
        assert cls.continuations == frozenset(expected) == {(), ("b",)}
        assert cls.dim_vector_tuple() == (1, 1)

    def test_zero_path_rejected(self, sec4):
        with pytest.raises(ZeroPath):
            calculus(sec4).class_of(sec4.path("g.g"))

    def test_relations_algebra_unsupported(self, sec3):
        with pytest.raises(UnsupportedIdeal):
            calculus(sec3)

    def test_projectivity_flag(self, sec4):
        calc = calculus(sec4)
        assert calc.class_of(sec4.path("a")).projective  # A*alpha = P_2
        assert not calc.class_of(sec4.path("g")).projective

    def test_continuations_prefix_closed(self):
        for seed in range(15):
            A = random_monomial_algebra(seeded(seed + 40))
            calc = calculus(A)
            for p in A.nonzero_nontrivial_paths()[:8]:
                cls = calc.class_of(p)
                for arrows in cls.continuations:
                    if arrows:
                        assert arrows[:-1] in cls.continuations


class TestSyzygyClass:
    def test_c2_k2_period_two(self):
        A = truncated_cycle(2, 2)
        calc = calculus(A)
        s1, s2 = calc.simple_class("1"), calc.simple_class("2")
        assert calc.syzygy_class(s1) == ModuleMultiset([s2])
        assert calc.syzygy_class(s2) == ModuleMultiset([s1])

    def test_sec4_gamma_self_syzygy(self, sec4):
        calc = calculus(sec4)
        g = calc.class_of(sec4.path("g"))
        assert calc.syzygy_class(g) == ModuleMultiset([g])

    def test_sec4_beta_projective_syzygy(self, sec4):
        calc = calculus(sec4)
        b = calc.class_of(sec4.path("b"))
        syz = calc.syzygy_class(b)
        (cls, mult), = list(syz)
        assert mult == 1 and cls.projective
        assert calc.pd(b) == 1

    def test_truncated_formula(self):
        # over kQ/J^k the syzygy of a length-l class is indexed by the paths
        # of length k-l out of the class vertex
        for (n, k) in ((2, 2), (3, 2), (3, 3), (4, 3)):
            A = truncated_cycle(n, k)
            calc = calculus(A)
            for p in A.nonzero_nontrivial_paths():
                cls = calc.class_of(p)
                syz = calc.syzygy_class(cls)
                v = cls.vertex
                l = p.length
                expected = [
                    q for q in A.nonzero_nontrivial_paths()
                    if q.source == v and q.length == k - l
                ]
                assert len(syz) == len(expected)
                got = sorted(c.label for c, m in syz for _ in range(m))
                want = sorted(calc.class_of(q).label for q in expected)
                assert got == want

    def test_syzygy_simple_is_arrow_multiset(self):
        for seed in range(10):
            A = random_monomial_algebra(seeded(seed + 77))
            calc = calculus(A)
            for v in A.quiver.vertices:
                syz = calc.syzygy_class(calc.simple_class(v))
                arrows = A.quiver.arrows_from(v)
                assert len(syz) == len(arrows)

    def test_sink_simple_projective(self):
        A = truncated_line(3, 2)
        calc = calculus(A)
        assert calc.simple_class("3").projective
        assert calc.syzygy_class(calc.simple_class("3")).is_empty()


class TestPdAndGldim:
    def test_a3_k2(self):
        g = calculus(truncated_line(3, 2)).gldim()
        assert g.value == 2 and g.formula == 2

    def test_a4_k2(self):
        g = calculus(truncated_line(4, 2)).gldim()
        assert g.value == 3 and g.formula == 3  # 2*floor(3/2)+1

    def test_cycle_infinite(self):
        g = calculus(truncated_cycle(3, 2)).gldim()
        assert g.value == INFINITE and g.formula == INFINITE

    def test_sec4_pd_values(self, sec4):
        calc = calculus(sec4)
        assert calc.pd(calc.class_of(sec4.path("g"))) == INFINITE
        assert calc.pd(calc.class_of(sec4.path("b"))) == 1
        assert calc.pd(calc.simple_class("1")) == 1
        assert calc.pd(calc.simple_class("2")) == INFINITE

    def test_resolution_oracle_small(self):
        # independent oracle: expand formal syzygies step by step
        A = truncated_line(4, 3)
        calc = calculus(A)
        for v in A.quiver.vertices:
            m = ModuleMultiset([calc.simple_class(v)])
            steps = 0
            while not m.is_empty() and steps < 20:
                m = calc.iterate_syzygy(m, 1)
                steps += 1
            value = calc.pd(calc.simple_class(v))
            if calc.simple_class(v).projective:
                assert value == 0
            else:
                assert value == steps - 1 if m.is_empty() else value == INFINITE


class TestNorm:
    def test_projectives_norm_zero(self, sec4):
        calc = calculus(sec4)
        m = ModuleMultiset([calc.projective_class("1"), calc.projective_class("2")])
        assert calc.norm(m) == 0

    def test_c2_simples(self):
        A = truncated_cycle(2, 2)
        calc = calculus(A)
        m = ModuleMultiset([calc.simple_class("1"), calc.simple_class("2")])
        assert calc.norm(m) == 2

    def test_scale_linearity(self):
        A = truncated_cycle(3, 2)
        calc = calculus(A)
        m = ModuleMultiset([calc.simple_class("1"), calc.simple_class("2")])
        assert calc.norm(m.scale(2)) == 2 * calc.norm(m)

    def test_norm_never_decreases_under_syzygy(self):
        for seed in range(20):
            A = random_monomial_algebra(seeded(seed + 300))
            calc = calculus(A)
            rng = seeded(seed)
            classes = calc.all_path_classes()
            picks = rng.sample(classes, min(3, len(classes)))
            m = ModuleMultiset([(c, rng.randint(1, 2)) for c in picks])
            if m.is_empty():
                continue
            assert calc.norm(calc.iterate_syzygy(m, 1)) >= calc.norm(m)


class TestPeriodicity:
    def test_c2_k2_simple(self):
        A = truncated_cycle(2, 2)
        calc = calculus(A)
        r = calc.is_periodic(ModuleMultiset([calc.simple_class("1")]))
        assert r.periodic and r.period == 2

    def test_sec4_gamma(self, sec4):
        calc = calculus(sec4)
        r = calc.is_periodic(ModuleMultiset([calc.class_of(sec4.path("g"))]))
        assert r.periodic and r.period == 1

    def test_projective_only_not_periodic(self, sec4):
        calc = calculus(sec4)
        r = calc.is_periodic(ModuleMultiset([calc.projective_class("1")]))
        assert not r.periodic

    def test_periodic_norm_constant_and_exact_return(self):
        for seed in range(25):
            A = random_monomial_algebra(seeded(seed + 1000))
            calc = calculus(A)
            for cls in calc.all_path_classes()[:6]:
                if cls.projective:
                    continue
                m = ModuleMultiset([cls])
                r = calc.is_periodic(m)
                if not r.periodic:
                    continue
                norms = {calc.norm(m)}
                cur = m
                for _ in range(r.period):
                    cur = calc.iterate_syzygy(cur, 1)
                    norms.add(calc.norm(cur))
                assert cur == m
                assert len(norms) == 1

    def test_empty_rejected(self, sec4):
        with pytest.raises(ZeroPath):
            calculus(sec4).is_periodic(ModuleMultiset())

    def test_agrees_with_iteration_oracle(self):
        """Singles, sampled pairs and the found periodic module (alone,
        doubled, plus a class) on the monomial-like corpus algebras and
        seeded random monomial algebras."""
        algebras = [corpus.algebra(name) for name in sorted(corpus.FILES)]
        algebras = [A for A in algebras if A.is_monomial_like]
        algebras += [random_monomial_algebra(seeded(seed + 2000)) for seed in range(40)]
        rng = seeded(24)
        for A in algebras:
            calc = calculus(A)
            pool = calc.all_path_classes() + [
                f(v) for f in (calc.simple_class, calc.projective_class)
                for v in A.quiver.vertices]
            bundles = [ModuleMultiset([c]) for c in pool]
            bundles += [ModuleMultiset(rng.sample(pool, 2)) for _ in range(min(len(pool), 12))]
            found = gorenstein.find_periodic_module(A)
            if found is not None:
                m = found.multiset
                bundles += [m, m.scale(2)] + [m.add(ModuleMultiset([c])) for c in pool[:4]]
                assert calc.is_periodic(m).period == found.period
            for m in bundles:
                r = calc.is_periodic(m)
                assert (r.periodic, r.period, r.reason) == periodic_by_iteration(calc, m, 1000), m

    def test_long_period_decided_exactly(self):
        A = fed_cycles_algebra((31, 37))
        calc = calculus(A)
        m = ModuleMultiset([calc.simple_class("a0"), calc.simple_class("b0")])
        r = calc.is_periodic(m)
        assert (r.periodic, r.period, r.reason) == (True, 1147, "returned to start")
        assert calc.iterate_syzygy(m, 1147) == m
        assert calc.iterate_syzygy(m, 31) != m and calc.iterate_syzygy(m, 37) != m

    def test_period_is_lcm_of_prime_cycles(self):
        primes = (2, 3, 5, 7, 11, 13, 17, 19, 23)
        A = fed_cycles_algebra(primes)
        calc = calculus(A)
        m = ModuleMultiset([calc.simple_class(f"{name}0") for name in "abcdefghi"])
        assert calc.is_periodic(m).period == 223092870
        # a second copy of one summand leaves each cycle's least rotation as it was
        assert calc.is_periodic(m.add(ModuleMultiset([calc.simple_class("a0")]))).period \
            == 223092870

    def test_rotation_symmetric_bundle_has_shorter_period(self):
        A = fed_cycles_algebra((6,))
        calc = calculus(A)
        m = ModuleMultiset([calc.simple_class(v) for v in ("a0", "a2", "a4")])
        assert calc.is_periodic(m).period == 2
        assert calc.is_periodic(ModuleMultiset([calc.simple_class("a0")])).period == 6

    def test_successor_is_the_one_infinite_pd_syzygy_summand(self):
        A = fed_cycles_algebra((3, 4))
        calc = calculus(A)
        assert calc.successor(calc.simple_class("a2")) == calc.simple_class("a0")
        # the simple at x has two infinite-pd syzygy summands, a projective none
        assert calc.successor(calc.simple_class("x")) is None
        assert calc.successor(calc.projective_class("a0")) is None


class TestMultisetBasics:
    def test_printing(self):
        A = truncated_cycle(2, 2)
        calc = calculus(A)
        m = ModuleMultiset([(calc.simple_class("1"), 2), calc.projective_class("2")])
        text = str(m)
        assert "2*" in text and "P_2" in text

    def test_key_equality(self):
        A = truncated_cycle(2, 2)
        calc = calculus(A)
        m1 = ModuleMultiset([calc.simple_class("1"), calc.simple_class("2")])
        m2 = ModuleMultiset([calc.simple_class("2"), calc.simple_class("1")])
        assert m1 == m2 and m1.key() == m2.key()
