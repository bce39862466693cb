import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverhom import corpus
from quiverhom.cli import main
from quiverhom.errors import InternalInvariantError, ParseError, QuiverHomError
from quiverhom.modexpr import _parse_matrix, evaluate


class TestMultisetContext:
    def test_paths_and_simples(self, sec4):
        kind, m = evaluate("path(g) + 2*simple(1)", sec4)
        assert kind == "multiset"
        assert len(m) == 3

    def test_parenthesized_scaling(self, sec4):
        kind, m = evaluate("2*(path(g) + simple(1))", sec4)
        assert len(m) == 4

    def test_inj_not_formal(self, sec4):
        kind, value = evaluate("inj(1)", sec4)
        assert kind == "rep"  # auto-switches to the linear context

    def test_forced_multiset_with_inj_fails(self, sec4):
        with pytest.raises(ParseError):
            evaluate("inj(1)", sec4, context="multiset")

    def test_unknown_vertex(self, sec4):
        with pytest.raises(ParseError):
            evaluate("simple(9)", sec4)

    @pytest.mark.parametrize("text", ["simple(1,)", "simple(,1)", "proj( 1 , )"])
    @pytest.mark.parametrize("context", ["multiset", "rep"])
    def test_empty_argument(self, sec4, text, context):
        with pytest.raises(ParseError) as err:
            evaluate(text, sec4, context=context)
        assert str(err.value) == f"empty argument in {text}"


class TestRepContext:
    def test_projective_sum(self, sec4):
        kind, parts = evaluate("proj(1) + 3*simple(2)", sec4)
        assert kind == "rep"
        total = sum(mult for _rep, mult in parts)
        assert total == 4

    def test_relations_algebra_defaults_to_rep(self, sec3):
        kind, parts = evaluate("simple(1)", sec3)
        assert kind == "rep"

    def test_rep_literal(self, sec3):
        text = "rep{ 1:1 2:1 ; a1 = [[2]] ; a2 = [[1]] }"
        kind, parts = evaluate(text, sec3)
        rep = parts[0][0]
        assert rep.dim_vector() == (1, 1)

    def test_rep_literal_checks_relations(self):
        """An inconsistent literal is rejected, naming the path it breaks."""
        for algebra, text, message in [
            # a1.b1 must equal 2 a2.b2 (a relations ideal)
            ("sec3_example", "rep{ 1:1 2:1 ; a1 = [[1]] ; b1 = [[1]] }",
             "path a1.b1 from 1 does not act as its reduction 2*a2.b2"),
            # a1.b2 lies in the ideal
            ("sec3_example", "rep{ 1:1 2:1 ; a1 = [[1]] ; b2 = [[1]] }",
             "path a1.b2 from 1 does not act as its reduction 0"),
            # a truncated ideal: every path of length 2 acts as zero
            ("a3_k2", "rep{ 1:1 2:1 3:1 ; a = [[1]] ; b = [[1]] }",
             "relation J^2 acts nonzero: a length-2 path from 1"),
            # a monomial ideal
            ("sec4_example", "rep{ 1:1 2:1 ; a = [[1]] ; b = [[1]] }",
             "relation b.a acts nonzero"),
        ]:
            with pytest.raises(ParseError) as err:
                evaluate(text, corpus.algebra(algebra))
            assert str(err.value) == message

    @pytest.mark.parametrize("text", ["[[1] x [2]]", "[[1]]]", "[junk]", "[[1,,2]]", "[[1],]"])
    def test_matrix_literal_is_read_strictly(self, text):
        with pytest.raises(ParseError):
            _parse_matrix(text)

    def test_rep_literal_shape_validation(self, sec3):
        with pytest.raises(ParseError):
            evaluate("rep{ 1:1 2:1 ; a1 = [[1, 2]] }", sec3)

    def test_generators(self, sec3, infinito):
        kind, parts = evaluate("M_param(2)", sec3)
        assert parts[0][0].dim_vector() == (1, 1)
        kind, parts = evaluate("M_alpha(1,2) + M_beta(1,2)", infinito)
        assert parts[0][0].dim_vector() == (2, 7, 0, 0)
        assert parts[1][0].dim_vector() == (2, 7, 0, 0)

    def test_generator_on_wrong_algebra(self, sec4):
        with pytest.raises(ParseError):
            evaluate("M_alpha(1,2)", sec4)

    def test_unknown_atom(self, sec4):
        with pytest.raises(ParseError):
            evaluate("mystery(1)", sec4, context="rep")


# -- malformed input ends in a QuiverHomError -------------------------------

FUZZ_ALGEBRAS = {name: corpus.algebra(name) for name in ("sec4_example", "sec3_example",
                                                         "infinito")}
ATOM_NAMES = ["path", "simple", "proj", "inj", "M_param", "N_param", "M_alpha", "M_beta",
              "mystery"]
JUNK = ["", "zz", "x", "-1", "1/0", "0", "1.5", "1e5000", "e_1", "e_9", "a.zz", "()", "..",
        "99999"]


@st.composite
def arguments(draw, algebra):
    """One atom argument: a vertex, an arrow, a dotted path, a small number
    or junk."""
    arrows = [a.name for a in algebra.quiver.arrows]
    return draw(st.one_of(
        st.sampled_from(list(algebra.quiver.vertices) + ["5"]),
        st.sampled_from(arrows),
        st.lists(st.sampled_from(arrows), min_size=2, max_size=3).map(".".join),
        st.integers(-2, 4).map(str),
        st.sampled_from(JUNK),
    ))


@st.composite
def rep_literals(draw, algebra):
    vertices = list(algebra.quiver.vertices)
    dims = draw(st.dictionaries(st.sampled_from(vertices + ["9"]), st.integers(-1, 2),
                                max_size=3))
    sections = [" ".join(f"{v}:{d}" for v, d in dims.items())]
    entries = st.sampled_from(["0", "1", "-1", "2", "1/2", "x", "1/0", "1e999999999"])
    for a in draw(st.lists(st.sampled_from(algebra.quiver.arrows), max_size=2)):
        # mostly the declared shape (target x source), sometimes another
        rows = draw(st.one_of(st.just(dims.get(a.target, 0)), st.integers(0, 2)))
        cols = draw(st.one_of(st.just(dims.get(a.source, 0)), st.integers(0, 2)))
        matrix = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
        sections.append(f"{a.name} = [" + ",".join(f"[{', '.join(r)}]" for r in matrix) + "]")
    return "rep{ " + " ; ".join(sections) + " }"


@st.composite
def terms(draw, algebra):
    atom = draw(st.one_of(
        st.builds(lambda name, args: f"{name}({','.join(args)})",
                  st.sampled_from(ATOM_NAMES), st.lists(arguments(algebra), max_size=3)),
        rep_literals(algebra),
    ))
    if draw(st.booleans()):
        atom = f"({atom})"
    mult = draw(st.sampled_from(["", "0*", "1*", "2*", "3*", "99999999999*"]))
    return mult + atom


@st.composite
def expressions(draw):
    name = draw(st.sampled_from(sorted(FUZZ_ALGEBRAS)))
    algebra = FUZZ_ALGEBRAS[name]
    text = draw(st.one_of(
        st.lists(terms(algebra), min_size=1, max_size=3).map(" + ".join),
        st.text(alphabet="()[]{},;:=+*./-0123456789 abgprsx_", max_size=24),
    ))
    return algebra, text


@given(expressions())
@settings(max_examples=300, deadline=None)
def test_malformed_expressions_raise_user_errors(case):
    algebra, text = case
    try:
        evaluate(text, algebra)
    except InternalInvariantError:
        raise
    except QuiverHomError:
        pass


@pytest.mark.parametrize("algebra, module", [
    ("sec4_example", "simple()"),
    ("sec4_example", "proj()"),
    ("sec4_example", "inj()"),
    ("sec4_example", "path(zz)"),
    ("sec4_example", "simple(1,)"),
    ("sec4_example", "simple(,1)"),
    ("sec4_example", "proj( 1 , )"),
    ("sec3_example", "M_param(abc)"),
    ("sec3_example", "M_param(1/0)"),
    ("sec3_example", "M_param(1e5000)"),
    ("sec3_example", "rep{ 1:1 2:1 ; a1 = [[1e999999999]] ; a2 = [[1]] }"),
    ("sec3_example", "N_param()"),
    ("infinito", "M_alpha(x,1)"),
    ("infinito", "M_alpha(1)"),
    ("infinito", "M_beta(1,y)"),
    ("sec4_example", "rep{ 1:1 2:1 ; a = [[1]] ; b = [[1]] }"),
    ("sec3_example", "rep{ 1:1 2:1 ; a1 = [[1]] ; b1 = [[1]] }"),
    ("sec3_example", "rep{ 1:1 2:2 ; a1 = [[1] x [2]] }"),
    ("sec3_example", "rep{ 1:1 ; a1 = [junk] }"),
    ("sec3_example", "rep{ 1:1 1:2 }"),
    ("sec3_example", "rep{ 1:1 2:1 ; a1 = [[1]] ; a1 = [[2]] }"),
    ("sec3_example", "rep{ 1:1_0 }"),
    ("infinito", "M_alpha(1,100000)"),
    ("sec4_example", "rep{ 1:100000000 }"),
    ("sec3_example", "99999999999*simple(1)"),
    ("infinito", "M_alpha(1,200) + M_beta(1,200)"),
])
def test_cli_refuses_malformed_modules(capsys, algebra, module):
    code = main(["pd", "--algebra", f"corpus:{algebra}", "--module", module])
    out = capsys.readouterr()
    assert code == 1
    assert out.err.startswith("error: PARSE_ERROR")
    assert "Traceback" not in out.out + out.err
