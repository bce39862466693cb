"""Dense exact linear algebra over a coefficient field.

Matrices are lists of row lists.  Everything here is fraction-exact; ranks,
kernels and inverses are certificates, not approximations.  The kernels read
`field.char` once per call and compute on plain ints: `% p` inline over F_p,
fraction-free Gauss-Jordan on primitive integer rows over Q.
"""

from fractions import Fraction
from math import gcd, lcm


def zeros(field, rows, cols):
    z = field.zero
    return [[z] * cols for _ in range(rows)]


def identity(field, n):
    m = zeros(field, n, n)
    for i in range(n):
        m[i][i] = field.one
    return m


def mat_mul(field, a, a_rows, b, b_rows, b_cols):
    """a (a_rows x b_rows) @ b (b_rows x b_cols), safe for zero dimensions."""
    p = field.char
    out = []
    for i in range(a_rows):
        acc = [field.zero] * b_cols
        for x, bt in zip(a[i], b):
            if x:
                for j, y in enumerate(bt):
                    if y:
                        acc[j] += x * y
        out.append([s % p for s in acc] if p else acc)
    return out


def mat_vec(field, a, v):
    nonzero = [(j, y) for j, y in enumerate(v) if y]
    out = [sum([row[j] * y for j, y in nonzero if row[j]], field.zero) for row in a]
    return [s % field.char for s in out] if field.char else out


def mat_add(field, a, b):
    return [[field.add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(field, c, a):
    return [[field.mul(c, x) for x in row] for row in a]


def rref(field, a):
    """Reduced row echelon form (new row lists); returns (matrix, pivot column list)."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    p = field.char
    if p:
        m = [[x % p for x in row] for row in a]
    else:
        m = []
        for row in a:
            den = lcm(*(x.denominator for x in row))
            m.append([x.numerator * (den // x.denominator) for x in row])
    pivots = []
    r = 0
    for c in range(cols):
        for pr in range(r, rows):
            if m[pr][c]:
                break
        else:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        pv = prow[c]
        if p:
            if pv != 1:
                inv = pow(pv, p - 2, p)
                prow = m[r] = [x * inv % p for x in prow]
            for i in range(rows):
                f = m[i][c]
                if f and i != r:
                    m[i] = [(x - f * y) % p for x, y in zip(m[i], prow)]
        else:
            for i in range(rows):
                f = m[i][c]
                if f and i != r:
                    g = gcd(pv, f)
                    s, t = pv // g, f // g
                    row = [s * x - t * y for x, y in zip(m[i], prow)]
                    g = gcd(*row)
                    m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == rows:
            break
    if not p:
        for i, row in enumerate(m):
            pv = row[pivots[i]] if i < r else 1
            m[i] = [Fraction(x, pv) if x else field.zero for x in row]
    return m, pivots


def rank(field, a):
    if not a or not a[0]:
        return 0
    return len(rref(field, a)[1])


def nullspace(field, a, cols=None):
    """Basis of {x : a x = 0} as a list of column vectors."""
    if not a:
        return [unit_vector(field, cols, i) for i in range(cols)] if cols else []
    n = len(a[0])
    p = field.char
    r, pivots = rref(field, a)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = []
    for fc in free:
        v = unit_vector(field, n, fc)
        for i, pc in enumerate(pivots):
            v[pc] = -r[i][fc] % p if p else -r[i][fc]
        basis.append(v)
    return basis


def unit_vector(field, n, i):
    v = [field.zero] * n
    v[i] = field.one
    return v


def solve_many(field, a, bs):
    """Solve a x = b for every column b in bs; None entries where inconsistent."""
    if not bs:
        return []
    if not a:
        return [None if any(b) else [] for b in bs]
    n = len(a[0])
    aug = [row + [b[i] for b in bs] for i, row in enumerate(a)]
    r, pivots = rref(field, aug)
    pivots = [p for p in pivots if p < n]
    rank_a = len(pivots)
    sols = []
    for col in range(n, n + len(bs)):
        if any(r[i][col] for i in range(rank_a, len(r))):
            sols.append(None)
            continue
        x = [field.zero] * n
        for i, pc in enumerate(pivots):
            x[pc] = r[i][col]
        sols.append(x)
    return sols


def invert(field, a):
    """Inverse of a square matrix, or None if singular; ValueError if not square."""
    n = len(a)
    if n == 0:
        return []
    if any(len(row) != n for row in a):
        raise ValueError(f"invert needs a square matrix; got {n} rows, not all of length {n}")
    aug = [row + unit_vector(field, n, i) for i, row in enumerate(a)]
    r, pivots = rref(field, aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in r[:n]]


def is_zero_matrix(field, a):
    return not any(any(row) for row in a)
