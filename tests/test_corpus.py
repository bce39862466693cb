from fractions import Fraction

import pytest

from quiverhom import corpus, reps
from quiverhom.pathmodules import calculus


class TestSec4:
    def test_dimensions(self, sec4):
        assert sec4.dimension == 9

    def test_gamma_cycle(self, sec4):
        calc = calculus(sec4)
        g = calc.class_of(sec4.path("g"))
        assert calc.syzygy_class(g).counts == {g: 1}


class TestSec3:
    def test_dimension_and_projectives(self, sec3):
        assert sec3.dimension == 8
        assert reps.projective(sec3, "1").dim_vector() == (2, 2)
        assert reps.projective(sec3, "2").dim_vector() == (2, 2)

    def test_field_is_rationals(self, sec3):
        assert sec3.field.name == "Q"

    @pytest.mark.parametrize("a", [1, 2, 4])
    def test_syzygy_identities(self, sec3, a):
        m = corpus.make_m_param(sec3, [str(a)])
        n_target = corpus.make_n_param(sec3, [str(Fraction(-a, 2))])
        assert reps.iso_test(reps.syzygy_rep(m), n_target).isomorphic
        n = corpus.make_n_param(sec3, [str(a)])
        m_target = corpus.make_m_param(sec3, [str(-a)])
        assert reps.iso_test(reps.syzygy_rep(n), m_target).isomorphic

    @pytest.mark.parametrize("a", [1, 2, 4])
    def test_double_syzygy_halves_parameter(self, sec3, a):
        m = corpus.make_m_param(sec3, [str(a)])
        omega2 = reps.syzygy_rep(reps.syzygy_rep(m))
        half = corpus.make_m_param(sec3, [str(Fraction(a, 2))])
        assert reps.iso_test(omega2, half).isomorphic

    def test_indecomposability_certificates(self, sec3):
        # End-dimension one implies indecomposable
        for a in ("1", "2", "3"):
            m = corpus.make_m_param(sec3, [a])
            assert reps.hom_dim(m, m) == 1
            n = corpus.make_n_param(sec3, [a])
            assert reps.hom_dim(n, n) == 1


class TestFinito:
    def test_dimension(self, finito):
        assert finito.dimension == 12
        assert reps.projective(finito, "3").dim_vector() == (1, 1, 2)

    def test_injective_3(self, finito):
        i3 = reps.injective(finito, "3")
        assert i3.dim_vector() == (0, 0, 2)
        # its first syzygy joins the doubled-arrow orbit
        om = reps.syzygy_rep(i3)
        n1 = corpus.make_n_param(finito, ["1"])
        assert reps.iso_test(om, n1).isomorphic

    def test_core_modules_behave_as_in_the_small_algebra(self, finito):
        m = corpus.make_m_param(finito, ["1"])
        target = corpus.make_n_param(finito, ["-1/2"])
        assert reps.iso_test(reps.syzygy_rep(m), target).isomorphic


class TestInfinito:
    def test_sixteen_arrows_and_dimension(self, infinito):
        assert len(infinito.quiver.arrows) == 16
        assert infinito.dimension == 60
        for v in infinito.quiver.vertices:
            assert len(infinito.basis_indices_from(v)) == 15

    def test_projective_radical_layers(self, infinito):
        p1 = reps.projective(infinito, "1")
        assert p1.dim_vector() == (1, 4, 10, 0)
        tops = reps.top_dim_vector(p1)
        assert tops == (1, 0, 0, 0)

    def test_family_dim_vectors(self, infinito):
        m = corpus.make_m_alpha(infinito, ["1", "2"])
        assert m.dim_vector() == (2, 7, 0, 0)
        m.check_relations()

    def test_merge_at_n_one(self, infinito):
        a1 = corpus.make_m_alpha(infinito, ["1", "1"])
        b1 = corpus.make_m_beta(infinito, ["1", "1"])
        assert reps.iso_test(a1, b1).isomorphic
        a2 = corpus.make_m_alpha(infinito, ["1", "2"])
        b2 = corpus.make_m_beta(infinito, ["1", "2"])
        assert reps.iso_test(a2, b2).status == "not_isomorphic"

    def test_rotated_families(self, infinito):
        for i in ("2", "3", "4"):
            m = corpus.make_m_alpha(infinito, [i, "2"])
            m.check_relations()
            om = reps.syzygy_rep(m)
            assert sum(om.dim_vector()) == 21  # (n-1) + 10n at the next vertices


def dense_family_module(algebra, family, i, n):
    """M_alpha(i, n) or M_beta(i, n) built from dense Fraction matrices, as
    the corpus generators once built them: the oracle of the sparse build."""
    def inclusion(shift):
        m = [[Fraction(0)] * n for _ in range(3 * n + 1)]
        for j in range(n):
            m[shift + j][j] = Fraction(1)
        return m

    names = ("b", "abar", "a", "bbar") if family == "alpha" else ("a", "bbar", "b", "abar")
    shifts = (0, n, n + 1, 2 * n + 1)
    mats = {f"{nm}{i}": inclusion(shift) for nm, shift in zip(names, shifts)}
    return reps.Representation(algebra, {str(i): n, str(i % 4 + 1): 3 * n + 1}, mats,
                               name=f"M_{family}({i},{n})")


@pytest.mark.parametrize("family", ["alpha", "beta"])
def test_family_modules_match_the_dense_build(infinito, family):
    for i in (1, 2, 3, 4):
        for n in (1, 2, 3, 4):
            m = corpus.GENERATORS[f"M_{family}"](infinito, [str(i), str(n)])
            oracle = dense_family_module(infinito, family, i, n)
            assert (m.dims, m.name) == (oracle.dims, oracle.name)
            assert m.mats == oracle.mats
            assert m.columns == oracle.columns


class TestWriteAll:
    def test_writes_everything(self, tmp_path):
        paths = corpus.write_all(str(tmp_path))
        assert len(paths) == len(corpus.FILES) + len(corpus.SPLITS)
