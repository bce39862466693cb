"""The exact kernels of `linalg` against a naive Gauss-Jordan written here.

The reference runs the textbook per-scalar loop through the field's own
methods, so over Q it is plain `Fraction` arithmetic and over F_p it is
`% p` arithmetic.  A reduced row echelon form is unique, so the kernels must
agree with it entry for entry.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverhom import linalg
from quiverhom.fields import QQ, PrimeField

FIELDS = [QQ, PrimeField(32003)]


# -- the reference ------------------------------------------------------------


def ref_rref(F, a):
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if not F.is_zero(m[i][c])), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = F.inv(m[r][c])
        m[r] = [F.mul(inv, x) for x in m[r]]
        for i in range(rows):
            if i != r and not F.is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def ref_mul(F, a, b, b_cols):
    return [[_dot(F, row, [bt[j] for bt in b]) for j in range(b_cols)] for row in a]


def _dot(F, xs, ys):
    s = F.zero
    for x, y in zip(xs, ys):
        s = F.add(s, F.mul(x, y))
    return s


# -- strategies ----------------------------------------------------------------


def scalars(F):
    if F.char:
        return st.one_of(st.just(0), st.integers(0, F.char - 1))
    return st.one_of(
        st.just(Fraction(0)),
        st.integers(-4, 4).map(Fraction),
        st.fractions(min_value=-6, max_value=6, max_denominator=7),
    )


def matrices(F, rows, cols):
    return st.lists(st.lists(scalars(F), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def field_and_matrix(draw, max_dim=6, square=False):
    """A field and a matrix over it: plain random, or a product B C of
    inner dimension k, which has rank at most k (often rank-deficient)."""
    F = draw(st.sampled_from(FIELDS))
    rows = draw(st.integers(0, max_dim))
    cols = rows if square else draw(st.integers(0, max_dim))
    if draw(st.booleans()):
        return F, draw(matrices(F, rows, cols))
    k = draw(st.integers(0, min(rows, cols)))
    b = draw(matrices(F, rows, k))
    c = draw(matrices(F, k, cols))
    return F, ref_mul(F, b, c, cols)


def assert_elements(F, m):
    for row in m:
        for x in row:
            if F.char:
                assert type(x) is int and 0 <= x < F.char
            else:
                assert type(x) is Fraction


def assert_fresh_rows(out, *inputs):
    ids = [id(row) for row in out]
    assert len(set(ids)) == len(ids)
    assert not set(ids) & {id(row) for m in inputs for row in m}


# -- properties ----------------------------------------------------------------


@given(field_and_matrix())
@settings(max_examples=150, deadline=None)
def test_rref_matches_reference(fm):
    F, a = fm
    before = [row[:] for row in a]
    red, pivots = linalg.rref(F, a)
    ref_red, ref_pivots = ref_rref(F, a)
    assert pivots == ref_pivots
    assert red == ref_red
    assert a == before
    assert_elements(F, red)
    assert_fresh_rows(red, a)


@given(field_and_matrix())
@settings(max_examples=100, deadline=None)
def test_rank_and_nullspace(fm):
    F, a = fm
    ref_red, ref_pivots = ref_rref(F, a)
    assert linalg.rank(F, a) == len(ref_pivots)
    if not a:
        return
    n = len(a[0])
    basis = linalg.nullspace(F, a)
    assert len(basis) == n - len(ref_pivots)
    free = [c for c in range(n) if c not in ref_pivots]
    for fc, v in zip(free, basis):
        expect = [F.zero] * n
        expect[fc] = F.one
        for i, pc in enumerate(ref_pivots):
            expect[pc] = F.neg(ref_red[i][fc])
        assert v == expect
        assert all(F.is_zero(x) for x in linalg.mat_vec(F, a, v))
    assert_elements(F, basis)
    assert_fresh_rows(basis, a)


@given(field_and_matrix(), st.data())
@settings(max_examples=100, deadline=None)
def test_solve_many(fm, data):
    F, a = fm
    rows = len(a)
    n = len(a[0]) if a else 0
    # right-hand sides: some in the image of a, some arbitrary
    bs = []
    for _ in range(data.draw(st.integers(0, 3))):
        if data.draw(st.booleans()):
            x = data.draw(st.lists(scalars(F), min_size=n, max_size=n))
            bs.append(linalg.mat_vec(F, a, x))
        else:
            bs.append(data.draw(st.lists(scalars(F), min_size=rows, max_size=rows)))
    sols = linalg.solve_many(F, a, bs)
    assert len(sols) == len(bs)
    for b, x in zip(bs, sols):
        if a:
            ref_aug, ref_pivots = ref_rref(F, [row + [bi] for row, bi in zip(a, b)])
            consistent = n not in ref_pivots
        else:
            consistent = all(F.is_zero(bi) for bi in b)
        assert (x is not None) == consistent
        if x is None:
            continue
        assert len(x) == n
        assert linalg.mat_vec(F, a, x) == [F.of(bi) for bi in b]
        assert_elements(F, [x])


@given(field_and_matrix(square=True))
@settings(max_examples=100, deadline=None)
def test_invert(fm):
    F, a = fm
    n = len(a)
    inv = linalg.invert(F, a)
    ref_red, ref_pivots = ref_rref(F, a)
    if len(ref_pivots) < n:
        assert inv is None
        return
    assert linalg.mat_mul(F, inv, n, a, n, n) == linalg.identity(F, n)
    assert linalg.mat_mul(F, a, n, inv, n, n) == linalg.identity(F, n)
    assert_elements(F, inv)
    assert_fresh_rows(inv, a)


@given(st.sampled_from(FIELDS), st.integers(0, 5), st.integers(0, 5), st.integers(0, 5),
       st.data())
@settings(max_examples=100, deadline=None)
def test_mat_mul_and_mat_vec(F, r, k, c, data):
    a = data.draw(matrices(F, r, k))
    b = data.draw(matrices(F, k, c))
    v = data.draw(st.lists(scalars(F), min_size=k, max_size=k))
    prod = linalg.mat_mul(F, a, r, b, k, c)
    assert prod == ref_mul(F, a, b, c)
    assert len(prod) == r and all(len(row) == c for row in prod)
    assert_elements(F, prod)
    assert_fresh_rows(prod, a, b)
    image = linalg.mat_vec(F, a, v)
    assert image == [_dot(F, row, v) for row in a]
    assert_elements(F, [image])


# -- fixed cases ---------------------------------------------------------------


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_empty_and_zero_matrices(F):
    assert linalg.rref(F, []) == ([], [])
    assert linalg.rank(F, []) == 0
    red, pivots = linalg.rref(F, [[], []])
    assert red == [[], []] and pivots == []
    assert linalg.rank(F, [[], []]) == 0
    assert linalg.nullspace(F, [], cols=2) == [[F.one, F.zero], [F.zero, F.one]]
    assert linalg.nullspace(F, [], cols=0) == []
    assert linalg.invert(F, []) == []
    assert linalg.solve_many(F, [], [[], []]) == [[], []]
    assert linalg.solve_many(F, [[F.one]], []) == []
    zero = linalg.zeros(F, 3, 2)
    red, pivots = linalg.rref(F, zero)
    assert red == zero and pivots == []
    assert_elements(F, red)
    assert_fresh_rows(red, zero)
    assert linalg.nullspace(F, zero) == [[F.one, F.zero], [F.zero, F.one]]
    assert linalg.invert(F, linalg.zeros(F, 2, 2)) is None
    assert linalg.mat_mul(F, [[], []], 2, [], 0, 3) == linalg.zeros(F, 2, 3)
    assert linalg.is_zero_matrix(F, zero)
    assert not linalg.is_zero_matrix(F, linalg.identity(F, 2))


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_invert_rejects_non_square(F):
    with pytest.raises(ValueError):
        linalg.invert(F, linalg.zeros(F, 2, 3))
    with pytest.raises(ValueError):
        linalg.invert(F, [[F.one, F.zero], [F.one]])


def test_rational_rref_of_integer_and_fractional_rows():
    # integer rows are accepted as they are (the phi rank procedure passes them)
    assert linalg.rank(QQ, [[2, 4, 6], [1, 2, 3], [0, 0, 5]]) == 2
    red, pivots = linalg.rref(QQ, [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 4), 1]])
    assert pivots == [0, 1] and red == [[1, 0], [0, 1]]
    red, pivots = linalg.rref(QQ, [[3, 1, 2], [6, 2, 5]])
    assert pivots == [0, 2]
    assert red == [[1, Fraction(1, 3), 0], [0, 0, 1]]
    assert_elements(QQ, red)
