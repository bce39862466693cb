"""The shared corpus algebras: corpus.algebra builds each corpus file once per
process, a shared algebra answers as a fresh build does, and nothing a query
makes stays behind in the memo of an algebra that lives as long as the
process."""

import contextlib
import io

import pytest

from quiverhom import cli, corpus, reps
from quiverhom.errors import ParseError

from helpers import fresh_corpus_algebra, leaves

RELATIONS_CORPUS = ("sec3_example", "finito", "finito_f32003", "infinito")

# a phi query per relations corpus algebra; over finito it ends in a cap
PHI_MODULES = {
    "sec3_example": "M_param(2)+N_param(3)",
    "finito": "simple(1)",
    "finito_f32003": "simple(1)",
    "infinito": "M_alpha(1,2)+M_beta(1,2)",
}


def load_fresh(spec):
    """cli.load_algebra for a corpus spec, with a new build on every call."""
    return fresh_corpus_algebra(spec.removeprefix("corpus:"))


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def test_one_algebra_per_corpus_file():
    assert corpus.algebra("infinito") is corpus.algebra("infinito.alg")
    algebras = [corpus.algebra(name) for name in corpus.FILES]
    assert all(A is corpus.algebra(name.removesuffix(".alg"))
               for A, name in zip(algebras, corpus.FILES))
    assert len({id(A) for A in algebras}) == len(corpus.FILES)


def test_unknown_name_raises_on_every_call():
    before = corpus._built.cache_info()
    for _ in range(2):
        with pytest.raises(ParseError, match="unknown corpus algebra 'no_such'"):
            corpus.algebra("no_such")
    assert corpus._built.cache_info() == before


def test_file_spec_is_parsed_on_every_call(tmp_path):
    path = tmp_path / "a3.alg"
    path.write_text(corpus.FILES["a3_k2.alg"])
    first = cli.load_algebra(str(path))
    assert cli.load_algebra(str(path)) is not first
    path.write_text(corpus.FILES["a4_k2.alg"])
    assert cli.load_algebra(str(path)).dimension != first.dimension


def test_phi_json_is_the_same_shared_and_fresh(monkeypatch):
    """phi M_alpha(1,n)+M_beta(1,n), n = 1..4, twice on the shared infinito
    and once on a fresh build for every call."""
    modules = [f"M_alpha(1,{n})+M_beta(1,{n})" for n in (1, 2, 3, 4)]
    runs = [[run_cli("phi", "--algebra", "corpus:infinito", "--module", m, "--json")
             for m in modules] for _ in range(2)]
    monkeypatch.setattr(cli, "load_algebra", load_fresh)
    runs.append([run_cli("phi", "--algebra", "corpus:infinito", "--module", m, "--json")
                 for m in modules])
    assert all(code == 0 for run in runs for code, _out in run)
    assert runs[0] == runs[1] == runs[2]


def test_iso_test_counts_are_the_same_cold_and_warm(monkeypatch):
    """The counts that test_iso_tests_per_phi_query pins, on a fresh build
    for every call and on the shared infinito once it has answered."""
    calls = {"iso_test": 0, "iso_test_against_sum": 0}

    def counting(name):
        fn = getattr(reps, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def counts():
        iso, sums = [], []
        for n in (1, 2, 3, 4):
            calls.update(dict.fromkeys(calls, 0))
            code, _out = run_cli("phi", "--algebra", "corpus:infinito",
                                 "--module", f"M_alpha(1,{n})+M_beta(1,{n})", "--json")
            assert code == 0
            iso.append(calls["iso_test"] - calls["iso_test_against_sum"])
            sums.append(calls["iso_test_against_sum"])
        return iso, sums

    for name in calls:
        monkeypatch.setattr(reps, name, counting(name))
    expected = ([2, 4, 5, 6], [0, 2, 5, 8])
    with monkeypatch.context() as cold:
        cold.setattr(cli, "load_algebra", load_fresh)
        assert counts() == expected
    counts()
    assert counts() == expected


@pytest.mark.parametrize("name", RELATIONS_CORPUS)
def test_memo_holds_no_module(name):
    """A decomposition, a phi, a pd_rep and a self-injectivity check fill the
    memo of the shared algebra with tables, never with a module, a hom or a
    presentation, which would then live as long as the process."""
    A = corpus.algebra(name)
    vs = A.quiver.vertices
    parts = [reps.projective(A, vs[0]), reps.simple(A, vs[-1]), reps.injective(A, vs[-1])]
    catalog = [(f"{make.__name__}({v})", make(A, v)) for v in vs
               for make in (reps.simple, reps.projective, reps.injective)]
    counts, _warnings = reps.decompose_against_catalog(reps.direct_sum(A, parts), catalog)
    assert sum(counts.values()) == 3
    code, _out = run_cli("phi", "--algebra", f"corpus:{name}", "--module", PHI_MODULES[name])
    assert code in (0, 2)
    reps.pd_rep(reps.injective(A, vs[0]), max_steps=4)
    reps.certified_self_injective(A)
    held = (reps.Representation, reps.ModuleHom, reps.Presentation)
    assert A._memo
    assert [leaf for leaf in leaves(A._memo) if isinstance(leaf, held)] == []
