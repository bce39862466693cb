"""The exact kernels of `linalg` against a naive Gauss-Jordan written here.

The reference runs the textbook per-scalar loop through the field's own
methods, so over Q it is exact int and `Fraction` arithmetic and over F_p
it is `% p` arithmetic.  A reduced row echelon form is unique, so the kernels must
agree with it entry for entry.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverhom import linalg
from quiverhom.fields import QQ, PrimeField

from helpers import identity, mat_mul, mat_vec

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


def ref_mat_vec(F, a, v):
    return [_dot(F, row, v) for row in a]


def _dot(F, xs, ys):
    s = F.zero
    for x, y in zip(xs, ys):
        s = F.add(s, F.mul(x, y))
    return s


# -- strategies ----------------------------------------------------------------


def scalars(F):
    if F.char:
        return st.one_of(st.just(0), st.integers(0, F.char - 1))
    # an integral input comes as a plain int or as a Fraction
    return st.one_of(
        st.just(Fraction(0)),
        st.integers(-4, 4),
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
    """Every entry is an exact field element: a reduced int over F_p, an int
    or a Fraction over Q, never a float."""
    for row in m:
        for x in row:
            if F.char:
                assert type(x) is int and 0 <= x < F.char
            else:
                assert type(x) in (int, Fraction)


def assert_canonical(F, m):
    """assert_elements, and over Q an entry is an int exactly when it is
    integral: the form the kernels return."""
    assert_elements(F, m)
    if not F.char:
        for row in m:
            for x in row:
                assert (type(x) is int) == (x.denominator == 1), x


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
    assert_canonical(F, red)
    assert_fresh_rows(red, a)


@given(field_and_matrix())
@settings(max_examples=150, deadline=None)
def test_sparse_rref_matches_reference(fm):
    F, a = fm
    cols = len(a[0]) if a else 0
    rows = [{j: x for j, x in enumerate(row) if x} for row in a]
    before = [dict(row) for row in rows]
    red, pivots = linalg.sparse_rref(F, rows)
    ref_red, ref_pivots = ref_rref(F, a)
    assert pivots == ref_pivots
    assert [[row.get(j, F.zero) for j in range(cols)] for row in red] == ref_red[:len(pivots)]
    assert all(all(row.values()) for row in red)
    assert rows == before
    assert_canonical(F, [list(row.values()) for row in red])


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
        assert all(F.is_zero(x) for x in ref_mat_vec(F, a, v))
    assert_canonical(F, basis)
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
            bs.append(ref_mat_vec(F, a, x))
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
        assert ref_mat_vec(F, a, x) == [F.of(bi) for bi in b]
        assert_canonical(F, [x])


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
    assert ref_mul(F, inv, a, n) == identity(F, n)
    assert ref_mul(F, a, inv, n) == identity(F, n)
    assert_canonical(F, inv)
    assert_fresh_rows(inv, a)


@given(field_and_matrix(square=True))
@settings(max_examples=150, deadline=None)
def test_is_invertible_matches_invert(fm):
    F, a = fm
    assert linalg.is_invertible(F, a) == (linalg.invert(F, a) is not None)


@given(st.sampled_from(FIELDS), st.integers(0, 5), st.integers(0, 5), st.integers(0, 5),
       st.data())
@settings(max_examples=100, deadline=None)
def test_mat_mul_and_mat_vec(F, r, k, c, data):
    """The dense products that the test oracles multiply with."""
    a = data.draw(matrices(F, r, k))
    b = data.draw(matrices(F, k, c))
    v = data.draw(st.lists(scalars(F), min_size=k, max_size=k))
    prod = mat_mul(F, a, r, b, k, c)
    assert prod == ref_mul(F, a, b, c)
    assert len(prod) == r and all(len(row) == c for row in prod)
    # the oracle's sums may leave integral Fractions: exact, not canonical
    assert_elements(F, prod)
    assert_fresh_rows(prod, a, b)
    image = mat_vec(F, a, v)
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
    assert_canonical(F, red)
    assert_fresh_rows(red, zero)
    assert linalg.nullspace(F, zero) == [[F.one, F.zero], [F.zero, F.one]]
    assert linalg.invert(F, linalg.zeros(F, 2, 2)) is None
    assert mat_mul(F, [[], []], 2, [], 0, 3) == linalg.zeros(F, 2, 3)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_invert_rejects_non_square(F):
    with pytest.raises(ValueError):
        linalg.invert(F, linalg.zeros(F, 2, 3))
    with pytest.raises(ValueError):
        linalg.invert(F, [[F.one, F.zero], [F.one]])


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_is_invertible_fixed_cases(F):
    assert linalg.is_invertible(F, [])
    assert linalg.is_invertible(F, identity(F, 3))
    assert not linalg.is_invertible(F, linalg.zeros(F, 2, 2))
    with pytest.raises(ValueError):
        linalg.is_invertible(F, linalg.zeros(F, 2, 3))
    with pytest.raises(ValueError):
        linalg.is_invertible(F, [[F.one, F.zero], [F.one]])


def test_is_invertible_is_exact_over_q():
    # entries that vanish modulo the prime P: a rank read modulo P alone
    # would answer these wrongly
    P = 2**61 - 1
    # singular modulo P, invertible over Q
    assert linalg.is_invertible(QQ, [[Fraction(P), Fraction(0)], [Fraction(0), Fraction(1)]])
    assert linalg.is_invertible(QQ, [[Fraction(P + 1), Fraction(1)], [Fraction(1), Fraction(1)]])
    # a denominator divisible by P
    assert linalg.is_invertible(QQ, [[Fraction(1, P)]])
    assert linalg.is_invertible(QQ, [[Fraction(1, P), Fraction(1)], [Fraction(0), Fraction(1, 2 * P)]])
    # singular over Q
    assert not linalg.is_invertible(QQ, [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3), Fraction(2)]])
    assert not linalg.is_invertible(QQ, [[Fraction(P), Fraction(2 * P)], [Fraction(1), Fraction(2)]])


def test_rational_rref_of_integer_and_fractional_rows():
    # integer rows are accepted as they are (the phi rank procedure passes them)
    assert linalg.rank(QQ, [[2, 4, 6], [1, 2, 3], [0, 0, 5]]) == 2
    red, pivots = linalg.rref(QQ, [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 4), 1]])
    assert pivots == [0, 1] and red == [[1, 0], [0, 1]]
    red, pivots = linalg.rref(QQ, [[3, 1, 2], [6, 2, 5]])
    assert pivots == [0, 2]
    assert red == [[1, Fraction(1, 3), 0], [0, 0, 1]]
    assert_canonical(QQ, red)


# -- fixed cases where coefficients grow ------------------------------------


def _product_rank_7():
    """A 12 x 12 product B C of inner dimension 7, entries with denominators
    up to 30: rank 7 over Q, and fraction-free rows grow well past one word."""
    rng = random.Random(12)

    def entry():
        return Fraction(rng.randint(-30, 30), rng.randint(1, 30))

    b = [[entry() for _ in range(7)] for _ in range(12)]
    c = [[entry() for _ in range(12)] for _ in range(7)]
    return ref_mul(QQ, b, c, 12)


def _hilbert(rows, cols):
    return [[Fraction(1, i + j + 1) for j in range(cols)] for i in range(rows)]


GROWTH_CASES = {
    "product_rank_7": _product_rank_7(),
    "hilbert_8x8": _hilbert(8, 8),
    "hilbert_9x6": _hilbert(9, 6),
    "hilbert_with_repeated_rows": _hilbert(4, 7) + _hilbert(3, 7),
}


@pytest.mark.parametrize("F", FIELDS, ids=str)
@pytest.mark.parametrize("name", sorted(GROWTH_CASES))
def test_growth_cases_match_reference(F, name):
    a = [[F.of(x) for x in row] for row in GROWTH_CASES[name]]
    n = len(a[0])
    before = [row[:] for row in a]
    ref_red, ref_pivots = ref_rref(F, a)
    if F.char == 0 and name == "product_rank_7":
        assert len(ref_pivots) == 7

    red, pivots = linalg.rref(F, a)
    assert (red, pivots) == (ref_red, ref_pivots)
    assert_canonical(F, red)

    rows = [{j: x for j, x in enumerate(row) if x} for row in a]
    rows_before = [dict(row) for row in rows]
    sparse, sparse_pivots = linalg.sparse_rref(F, rows)
    assert sparse_pivots == ref_pivots
    assert [[row.get(j, F.zero) for j in range(n)] for row in sparse] == \
        ref_red[:len(ref_pivots)]
    assert rows == rows_before
    assert_canonical(F, [list(row.values()) for row in sparse])

    assert linalg.rank(F, a) == len(ref_pivots)
    basis = linalg.nullspace(F, a)
    assert len(basis) == n - len(ref_pivots)
    assert all(not any(ref_mat_vec(F, a, v)) for v in basis)
    assert_canonical(F, basis)

    # right-hand sides: two columns of a (consistent) and a unit vector
    # (inconsistent when a is rank-deficient)
    bs = [[row[0] for row in a], [row[n - 1] for row in a],
          linalg.unit_vector(F, len(a), len(a) - 1)]
    sols = linalg.solve_many(F, a, bs)
    for b, x in zip(bs, sols):
        ref_aug, aug_pivots = ref_rref(F, [row + [bi] for row, bi in zip(a, b)])
        if n in aug_pivots:
            assert x is None
            continue
        expect = [F.zero] * n
        for i, pc in enumerate(aug_pivots):
            expect[pc] = ref_aug[i][n]
        assert x == expect
        assert ref_mat_vec(F, a, x) == b
        assert_canonical(F, [x])
    assert a == before


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_sparse_rows_empty_and_zero(F):
    assert linalg.sparse_rref(F, []) == ([], [])
    assert linalg.sparse_rref(F, [{}, {}, {}]) == ([], [])
    # a zero row among nonzero ones, and an entry that vanishes in the field
    rows = [{}, {2: F.of(3)}, {}, {0: F.of(2), 2: F.of(1)}]
    if F.char:
        rows.append({1: F.char})
    before = [dict(row) for row in rows]
    red, pivots = linalg.sparse_rref(F, rows)
    assert pivots == [0, 2]
    assert red == [{0: F.one}, {2: F.one}]
    assert rows == before
    assert_canonical(F, [list(row.values()) for row in red])
