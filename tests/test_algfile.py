import contextlib
import json
from fractions import Fraction

import pytest

from quiverhom import algfile, cli, corpus
from quiverhom.algebra import build_algebra
from quiverhom.algfile import format_algebra, parse_algebra_text, parse_split_text
from quiverhom.errors import InfiniteDimensional, NotAdmissible, ParseError

from helpers import dense_relations_build


GOOD = """\
# a comment
vertices: 1 2
arrow: a 1 2
arrow: b 2 1
truncated: 2
"""

# the doubled-arrow quiver of sec3_example, one relations line to fill in
DOUBLED = ("vertices: 1 2\narrow: a1 1 2\narrow: a2 1 2\narrow: b1 2 1\narrow: b2 2 1\n"
           "relations: {}\nrelations: J^3\nnilpotency: 3\n")


class TestParse:
    def test_basic_truncated(self):
        A = parse_algebra_text(GOOD)
        assert A.kind == "truncated" and A.dimension == 4

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ParseError) as err:
            parse_algebra_text(GOOD + "plot: yes\n")
        assert "line 6" in err.value.message

    def test_missing_ideal_rejected(self):
        with pytest.raises(ParseError):
            parse_algebra_text("vertices: 1\narrow: a 1 1\n")

    def test_two_ideals_rejected(self):
        with pytest.raises(ParseError):
            parse_algebra_text(GOOD + "monomial: a.b\n")

    @pytest.mark.parametrize("text, lineno", [
        ("arrow: a 1 1\ntruncated: 2\n", 2),
        ("vertices: 1\ntruncated: 2\n# no arrows\n", 3),
        ("vertices: 1\narrow: a 1 1\n\n", 3),
        ("", 1),
        # the second ideal kind is named, not a repeat of the first
        (GOOD + "truncated: 3\nmonomial: a.b\nrelations: a.b\n", 7),
        ("vertices: 1\narrow: a 1 1\nrelations: a.a\nnilpotency: 2\ntruncated: 2\n", 5),
    ])
    def test_whole_file_errors_name_a_line(self, text, lineno):
        with pytest.raises(ParseError) as err:
            parse_algebra_text(text)
        assert err.value.line == lineno

    def test_bad_arrow_line(self):
        with pytest.raises(ParseError) as err:
            parse_algebra_text("vertices: 1\narrow: a 1\ntruncated: 2\n")
        assert "line 2" in err.value.message

    def test_relations_need_nilpotency(self):
        text = "vertices: 1\narrow: x 1 1\nrelations: x.x\n"
        with pytest.raises(ParseError):
            parse_algebra_text(text)

    def test_radical_power_token(self):
        text = "vertices: 1\narrow: x 1 1\nrelations: J^2\nnilpotency: 2\n"
        A = parse_algebra_text(text)
        assert A.kind == "relations" and A.dimension == 2
        assert A.ideal.radical_power_included

    def test_radical_power_mismatch(self):
        text = "vertices: 1\narrow: x 1 1\nrelations: J^2\nnilpotency: 3\n"
        with pytest.raises(ParseError):
            parse_algebra_text(text)

    def test_rational_coefficients(self):
        text = (
            "vertices: 1\narrow: x 1 1\narrow: y 1 1\n"
            "relations: x.x - 1/2*y.y, x.y, y.x\nnilpotency: 3\n"
        )
        A = parse_algebra_text(text)
        assert A.dimension == 4

    def test_single_leading_sign(self):
        A = parse_algebra_text(DOUBLED.format("-a1.b1 + 2*a2.b2, - b1.a1 - 1/3*b2.a2"))
        assert [[c for c, _p in rel.terms] for rel in A.ideal.relations] == [
            [-1, 2], [-1, Fraction(-1, 3)]]

    @pytest.mark.parametrize("relations, message", [
        # the last of two signs used to win, reading -2 where +2 is written
        ("a1.b1 - -2*a2.b2", "two signs in a row in relation 'a1.b1 - -2*a2.b2'"),
        ("+-a1.b1", "two signs in a row in relation '+-a1.b1'"),
        ("2*a1.b1 -", "relation '2*a1.b1 -' ends in a sign"),
        ("a1.b1, , b1.a1", "empty relation in 'a1.b1, , b1.a1'"),
        ("a1.b1,", "empty relation in 'a1.b1,'"),
    ])
    def test_malformed_signs_and_chunks(self, relations, message):
        with pytest.raises(ParseError) as err:
            parse_algebra_text(DOUBLED.format(relations))
        assert err.value.line == 6 and err.value.message == f"line 6: {message}"

    @pytest.mark.parametrize("generators", ["a.b, , b.a,", "a.b, , b.a", "a.b,", ","])
    def test_monomial_empty_chunk(self, generators):
        text = f"vertices: 1 2\narrow: a 1 2\narrow: b 2 1\nmonomial: {generators}\n"
        with pytest.raises(ParseError) as err:
            parse_algebra_text(text)
        assert err.value.message == f"line 4: empty monomial generator in {generators!r}"

    def test_empty_monomial_line_has_no_generator(self):
        # format_algebra writes "monomial: " for the zero ideal
        A = parse_algebra_text("vertices: 1 2\narrow: a 1 2\nmonomial:\n")
        assert A.ideal.generators == () and A.dimension == 3
        assert "monomial: \n" in format_algebra(A)
        assert parse_algebra_text(format_algebra(A)).dimension == 3

    def test_field_line(self):
        A = parse_algebra_text(GOOD + "field: Fp 32003\n")
        assert A.field.char == 32003
        with pytest.raises(ParseError):
            parse_algebra_text(GOOD + "field: Fp 32004\n")

    def test_traversal_order_semantics(self):
        # "a.b" traverses a then b, i.e. kills the function-order product ba
        text = "vertices: 1 2\narrow: a 1 2\narrow: b 2 1\nmonomial: a.b\n"
        A = parse_algebra_text(text)
        assert A.path_is_zero(A.path("a.b"))
        assert not A.path_is_zero(A.path("b.a"))


class TestErrorLines:
    """Every rejected .alg file exits 1 with the offending line."""

    @pytest.mark.parametrize("text, lineno, message", [
        ("vertices: 1 1\narrow: a 1 1\ntruncated: 2\n", 1, "duplicate vertex names"),
        ("vertices: 1 2\narrow: a 1 2\n# a comment\narrow: a 2 1\ntruncated: 2\n", 4,
         "duplicate arrow names"),
        ("vertices: 1 2\narrow: a 1 2\narrow: b 2 3\ntruncated: 2\n", 3,
         "arrow b: endpoint not a declared vertex"),
        ("vertices: 1 2\narrow: b 2 3\narrow: b 1 2\ntruncated: 2\n", 2,
         "arrow b: endpoint not a declared vertex"),
        ("vertices: 1\narrow: a 1 1\n\ntruncated: 0\n", 4,
         "truncation exponent must be >= 2, got 0"),
        ("vertices: 1\narrow: a 1 1\nrelations: a.a\nnilpotency: 0\n", 4,
         "nilpotency bound must be >= 2, got 0"),
        ("vertices: 1\narrow: a 1 1\nrelations: a.a, J^1\n", 3,
         "nilpotency bound must be >= 2, got 1"),
        ("vertices: 1\narrow: a 1 1\nrelations: a.a.a\nnilpotency: 2\n", 4,
         "J^2 is not contained in the ideal"),
        ("vertices: 1 2\narrow: a 1 2\narrow: b 2 1\nmonomial: a.b\nmonomial: b.a, a\n", 5,
         "monomial generator a has length 1; admissibility needs length >= 2"),
        # two loops at one vertex: b^n never vanishes, whatever the lines
        # kill; the last monomial line is named
        ("vertices: 1\narrow: a 1 1\narrow: b 1 1\nmonomial: a.a\n", 4,
         "nonzero path of length 5 exceeds the probe bound 4"),
        ("vertices: 1\narrow: a 1 1\narrow: b 1 1\nmonomial: b.a\n\nmonomial: a.a\n", 6,
         "nonzero path of length 5 exceeds the probe bound 4"),
        # a huge exponent on a cycle ends at the path cap, not in a hang
        ("vertices: 1\narrow: a 1 1\ntruncated: 99999999999\n", 3,
         "more than 100000 paths of length at most 99999999998"),
        ("vertices: 1\narrow: a 1 1\nrelations: a.a.a\nnilpotency: 99999999\n", 4,
         "more than 100000 paths of length at most 99999999"),
        # whole-file errors: the file's last line, or the second ideal kind
        ("arrow: a 1 1\ntruncated: 2\n", 2, "missing vertices line"),
        ("vertices: 1\ntruncated: 2\n# no arrows\n", 3, "no arrows declared"),
        ("vertices: 1\narrow: a 1 1\n", 2,
         "exactly one of truncated/monomial/relations must appear"),
        ("vertices: 1 2\narrow: a 1 2\narrow: b 2 1\nmonomial: a.b\ntruncated: 2\n", 5,
         "exactly one of truncated/monomial/relations must appear"),
        # exponent notation would ask for a billion-digit coefficient
        ("vertices: 1\narrow: a 1 1\nrelations: 1e999999999*a.a\nnilpotency: 3\n", 3,
         "bad coefficient '1e999999999'"),
        # a relation's signs: one between two terms, none after the last, and
        # no empty chunk between commas
        ("vertices: 1\narrow: a 1 1\narrow: b 1 1\nrelations: a.a - -2*b.b\nnilpotency: 3\n",
         4, "two signs in a row in relation 'a.a - -2*b.b'"),
        ("vertices: 1\narrow: a 1 1\n\nrelations: 2*a.a -\nnilpotency: 3\n", 4,
         "relation '2*a.a -' ends in a sign"),
        ("vertices: 1\narrow: a 1 1\narrow: b 1 1\nrelations: a.a, , b.b\nnilpotency: 3\n", 4,
         "empty relation in 'a.a, , b.b'"),
        ("vertices: 1 2\narrow: a 1 2\narrow: b 2 1\nmonomial: a.b, , b.a,\n", 4,
         "empty monomial generator in 'a.b, , b.a,'"),
    ])
    def test_cli_names_the_line(self, capsys, tmp_path, text, lineno, message):
        path = tmp_path / "bad.alg"
        path.write_text(text)
        assert cli.main(["info", "--algebra", str(path)]) == 1
        assert f"line {lineno}: {message}" in capsys.readouterr().err


# every relations input of this file that reaches the algebra build
RELATIONS_BUILDS = [
    "vertices: 1\narrow: x 1 1\nrelations: J^2\nnilpotency: 2\n",
    "vertices: 1\narrow: x 1 1\narrow: y 1 1\n"
    "relations: x.x - 1/2*y.y, x.y, y.x\nnilpotency: 3\n",
    "vertices: 1\narrow: a 1 1\nrelations: a.a.a\nnilpotency: 2\n",
    "vertices: 1\narrow: a 1 1\nrelations: a.a.a\nnilpotency: 99999999\n",
    DOUBLED.format("-a1.b1 + 2*a2.b2, - b1.a1 - 1/3*b2.a2"),
]


def _build_outcome(build, *args):
    """(basis, reduction) of a relations build, or the type and message of
    its rejection."""
    try:
        return build(*args)
    except (NotAdmissible, InfiniteDimensional) as exc:
        return type(exc), exc.message


@pytest.mark.parametrize("text", RELATIONS_BUILDS)
def test_sparse_build_matches_dense_oracle(monkeypatch, text):
    calls = []
    monkeypatch.setattr(algfile, "build_algebra",
                        lambda *args: calls.append(args) or build_algebra(*args))
    with contextlib.suppress(NotAdmissible, InfiniteDimensional):
        parse_algebra_text(text)
    (quiver, ideal, field, max_basis), = calls

    def sparse(*args):
        A = build_algebra(*args)
        return A.basis, A._reduction

    assert _build_outcome(sparse, quiver, ideal, field, max_basis) == \
        _build_outcome(dense_relations_build, quiver, ideal, field, max_basis)


def test_infinite_monomial_keeps_its_code(capsys, tmp_path):
    path = tmp_path / "loops.alg"
    path.write_text("vertices: 1\narrow: a 1 1\narrow: b 1 1\nmonomial: a.a\n")
    assert cli.main(["info", "--algebra", str(path), "--json"]) == 1
    assert json.loads(capsys.readouterr().err)["result"] == {
        "error": "INFINITE_DIMENSIONAL",
        "message": "line 4: nonzero path of length 5 exceeds the probe bound 4"}


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(corpus.FILES))
    def test_corpus_round_trips(self, name):
        A = parse_algebra_text(corpus.FILES[name])
        text = format_algebra(A)
        B = parse_algebra_text(text)
        assert format_algebra(B) == text
        assert B.dimension == A.dimension
        assert B.quiver == A.quiver


class TestSplit:
    def test_parse(self):
        gamma, gamma_bar = parse_split_text(corpus.SPLITS["finito.split"])
        assert gamma == ["3"] and gamma_bar == ["1", "2"]

    def test_unknown_key(self):
        with pytest.raises(ParseError):
            parse_split_text("gamma: 1\nother: 2\n")

    def test_missing_part(self):
        with pytest.raises(ParseError):
            parse_split_text("gamma: 1\n")
