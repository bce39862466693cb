"""Ownership: no query leaves a reference cycle.

Nothing an algebra holds points back to it.  The path-module calculus is a
view that holds its algebra, its tables live in the algebra's memo, and a
path-module class refers to its algebra weakly.  So each query's objects are
freed by reference counting as soon as the query drops them, and the cyclic
collector finds nothing.  `test_query_leaves_no_cyclic_garbage` runs one
query of each kind that the benchmark workloads run, with the collector off,
and asserts that `gc.collect()` then frees nothing;
`test_repeated_query_leaves_no_cyclic_garbage` runs each twice, the second
time on the tables the first left in the shared corpus algebra.  The other
tests pin the ownership rules themselves.
"""

import contextlib
import gc
import io
import json
import weakref

import pytest

from quiverhom import cli, corpus, gorenstein, igusa_todorov, reps
from quiverhom.algebra import TruncatedIdeal, build_algebra
from quiverhom.algfile import format_algebra, parse_algebra_text
from quiverhom.pathmodules import calculus
from quiverhom.quiver import Quiver

from helpers import random_monomial_algebra, seeded

TRUNCATED_TEXT = """\
vertices: 1 2 3
arrow: a 1 2
arrow: b 2 3
arrow: c 3 1
arrow: d 2 2
truncated: 3
field: Q
"""


@contextlib.contextmanager
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def algebra_chain(text, truncated):
    """The combinatorial query: parse and build, gldim, both Co-Gorenstein
    deciders, a periodic module, the perfect paths and the phi-dimension
    bounds."""
    A = parse_algebra_text(text)
    out = {"algebra": A, "gldim": calculus(A).gldim().value}
    if truncated:
        out["quiver_verdict"] = gorenstein.cogorenstein_truncated(A).verdict
    out["search"] = gorenstein.cogorenstein_monomial(A)
    out["periodic"] = gorenstein.find_periodic_module(A)
    out["perfect_paths"] = gorenstein.perfect_paths(A)
    out["bounds"] = igusa_todorov.phidim_bounds(A)
    return out


def monomial_text(seed):
    return format_algebra(random_monomial_algebra(seeded(seed)))


def decomposition():
    A = corpus.algebra("infinito")
    omega = reps.syzygy_rep(corpus.make_m_alpha(A, ["1", "2"]))
    catalog = [("M_alpha(2,1)", corpus.make_m_alpha(A, ["2", "1"]))]
    catalog += [(f"S_{v}", reps.simple(A, v)) for v in A.quiver.vertices]
    counts, _warnings = reps.decompose_against_catalog(omega, catalog)
    assert dict(counts) == {"M_alpha(2,1)": 1, "S_3": 16}
    return counts


def phi_through_cli():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["phi", "--algebra", "corpus:infinito",
                         "--module", "M_alpha(1,2)+M_beta(1,2)", "--json"])
    assert code == 0 and json.loads(buf.getvalue())["result"]["phi"] == 1
    return buf


def sec3_iso():
    A = corpus.algebra("sec3_example")
    res = reps.iso_test(reps.syzygy_rep(corpus.make_m_param(A, ["2"])),
                        corpus.make_n_param(A, ["-1"]))
    assert res.status == "isomorphic"
    return res


def pd_probe():
    A = corpus.algebra("finito_f32003")
    probe = reps.pd_rep(reps.injective(A, "3"), max_steps=6)
    assert probe.kind == "at_least" and probe.value == 6
    return probe


def syzygy_chain():
    m = reps.injective(corpus.algebra("finito_f32003"), "2")
    chain = [m]
    for _ in range(8):
        chain.append(reps.syzygy_rep(chain[-1]))
    assert all(not x.is_zero() for x in chain)
    return chain


QUERIES = {
    "truncated_chain": lambda: algebra_chain(TRUNCATED_TEXT, truncated=True),
    "monomial_chain": lambda: algebra_chain(monomial_text(3), truncated=False),
    "decomposition": decomposition,
    "cli_phi": phi_through_cli,
    "sec3_iso": sec3_iso,
    "pd_rep": pd_probe,
    "syzygy_chain": syzygy_chain,
}


@pytest.mark.parametrize("kind", sorted(QUERIES))
def test_query_leaves_no_cyclic_garbage(kind):
    cli.build_parser()  # built once per process, not per query
    with collector_off():
        out = QUERIES[kind]()
        del out
        assert gc.collect() == 0


@pytest.mark.parametrize("kind", sorted(QUERIES))
def test_repeated_query_leaves_no_cyclic_garbage(kind):
    cli.build_parser()
    with collector_off():
        QUERIES[kind]()
        out = QUERIES[kind]()
        del out
        assert gc.collect() == 0


@pytest.mark.parametrize("truncated", [True, False])
def test_query_built_algebra_is_freed_on_del(truncated):
    text = TRUNCATED_TEXT if truncated else monomial_text(5)
    with collector_off():
        out = algebra_chain(text, truncated)
        ref = weakref.ref(out["algebra"])
        classes = calculus(out["algebra"]).all_path_classes()
        del out
        assert ref() is None
        assert classes  # classes outlive their algebra without holding it


def test_views_share_the_memo_tables():
    A = parse_algebra_text(TRUNCATED_TEXT)
    assert calculus(A).simple_class("2") is calculus(A).simple_class("2")
    cls = calculus(A).class_of(A.path("a"))
    assert calculus(A).syzygy_class(cls) is calculus(A).syzygy_class(cls)


def test_classes_of_two_algebras_on_one_quiver_differ():
    q = Quiver(["1", "2"], [("x", "1", "2"), ("y", "2", "1")])
    A, B = build_algebra(q, TruncatedIdeal(2)), build_algebra(q, TruncatedIdeal(2))
    a, b = calculus(A).simple_class("1"), calculus(B).simple_class("1")
    assert a.sort_key == b.sort_key and a.label == b.label
    assert a != b
    assert len({a, b}) == 2
    assert a == calculus(A).class_of(A.path("y"))


def test_class_algebra_raises_once_freed():
    A = parse_algebra_text(TRUNCATED_TEXT)
    cls = calculus(A).class_of(A.path("a"))
    assert cls.algebra is A
    reps.rep_of_class(cls)
    key, label, h = cls.sort_key, cls.label, hash(cls)
    del A
    with pytest.raises(ReferenceError, match=r"algebra of path module class M\[2,1\]"):
        cls.algebra
    with pytest.raises(ReferenceError):
        reps.rep_of_class(cls)
    # what the class holds outright stays readable
    assert (cls.sort_key, cls.label, hash(cls)) == (key, label, h)
    assert cls.dim_vector_tuple() == (0, 2, 1)
    assert cls == cls
