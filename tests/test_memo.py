"""The per-algebra memo: the algebra keeps every derived value in one table,
the readers hand out fresh lists, self-injectivity is decided with no iso
test, and the shared counterexample search answers as it did before the merge."""

import hashlib
import json

import pytest

from quiverhom import corpus, gorenstein, reps
from quiverhom.errors import UnsupportedIdeal
from quiverhom.igusa_todorov import phidim_bounds
from quiverhom.pathmodules import calculus

from helpers import random_monomial_algebra, seeded

# sha256 of the Co-Gorenstein and periodic-find JSON over family_sample plus
# the 50 seeded monomial algebras below, as computed before the two deciders
# shared one counterexample search.
SEARCH_JSON_SHA256 = "8753100a83698c0b17a438bb224ba5668b0a619e8bf9fca430592642f4f06b7e"


def run_everything(A):
    if A.is_monomial_like:
        calculus(A).gldim()
        if A.kind == "truncated":
            gorenstein.cogorenstein_truncated(A)
        gorenstein.cogorenstein_monomial(A)
        gorenstein.find_periodic_module(A)
        gorenstein.perfect_paths(A)
        phidim_bounds(A)
    else:
        with pytest.raises(UnsupportedIdeal):
            calculus(A)
        with pytest.raises(UnsupportedIdeal):
            gorenstein.cogorenstein_monomial(A)
    reps.certified_self_injective(A)


@pytest.mark.parametrize("name", ["two_cycles", "sec4_example", "sec3_example"])
def test_no_attribute_set_after_construction(name):
    A = corpus.algebra(name)
    attributes = set(vars(A))
    run_everything(A)
    run_everything(A)
    assert set(vars(A)) == attributes


@pytest.mark.parametrize("name", ["two_cycles", "sec4_example"])
def test_readers_return_fresh_lists(name):
    A = corpus.algebra(name)
    readers = [
        calculus(A).all_path_classes,
        lambda: gorenstein.perfect_paths(A),
        lambda: gorenstein.gp_indecomposables(A),
        lambda: gorenstein.syzygy_cycles(A),
    ]
    for read in readers:
        first = read()
        second = read()
        assert first == second
        first.append(None)
        assert read() == second and None not in second


@pytest.mark.parametrize("name, verdict", [
    ("sec3_example", True), ("finito", False), ("infinito", False)])
def test_self_injectivity_makes_no_iso_test(monkeypatch, name, verdict):
    def refuse(*args):
        raise AssertionError("iso_test called")

    monkeypatch.setattr(reps, "iso_test", refuse)
    monkeypatch.setattr(reps, "TRIALS", 0)
    A = corpus.algebra(name)
    assert reps.certified_self_injective(A) is verdict
    assert reps.certified_self_injective(A) is verdict


def search_json(A):
    record = {"monomial": gorenstein.cogorenstein_monomial(A).to_json()}
    if A.kind == "truncated":
        record["truncated"] = gorenstein.cogorenstein_truncated(A).to_json()
    found = gorenstein.find_periodic_module(A)
    record["periodic"] = None if found is None else found.to_json()
    return json.dumps(record, sort_keys=True)


def search_digest(algebras):
    digest = hashlib.sha256()
    for A in algebras:
        digest.update(search_json(A).encode() + b"\n")
    return digest.hexdigest()


def test_search_answers_pinned(family_sample):
    monomial = [random_monomial_algebra(seeded(seed + 14000)) for seed in range(50)]
    assert search_digest(family_sample + monomial) == SEARCH_JSON_SHA256
