"""Dense exact linear algebra over a coefficient field.

Matrices are lists of row lists.  Everything here is fraction-exact; ranks,
kernels and inverses are certificates, not approximations.
"""


def zeros(field, rows, cols):
    z = field.zero
    return [[z] * cols for _ in range(rows)]


def identity(field, n):
    m = zeros(field, n, n)
    for i in range(n):
        m[i][i] = field.one
    return m


def mat_copy(a):
    return [row[:] for row in a]


def mat_mul(field, a, a_rows, b, b_rows, b_cols):
    """a (a_rows x b_rows) @ b (b_rows x b_cols), safe for zero dimensions."""
    out = zeros(field, a_rows, b_cols)
    for i in range(a_rows):
        ai = a[i]
        oi = out[i]
        for t in range(b_rows):
            x = ai[t]
            if field.is_zero(x):
                continue
            bt = b[t]
            for j in range(b_cols):
                if not field.is_zero(bt[j]):
                    oi[j] = field.add(oi[j], field.mul(x, bt[j]))
    return out


def mat_vec(field, a, v):
    out = []
    for row in a:
        s = field.zero
        for x, y in zip(row, v):
            if not (field.is_zero(x) or field.is_zero(y)):
                s = field.add(s, field.mul(x, y))
        out.append(s)
    return out


def mat_add(field, a, b):
    return [[field.add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(field, c, a):
    return [[field.mul(c, x) for x in row] for row in a]


def rref(field, a):
    """Reduced row echelon form (copy); returns (matrix, pivot column list)."""
    m = mat_copy(a)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if not field.is_zero(m[i][c]):
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(rows):
            if i != r and not field.is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
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
    r, pivots = rref(field, a)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [field.zero] * n
        v[fc] = field.one
        for i, pc in enumerate(pivots):
            v[pc] = field.neg(r[i][fc])
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
        return [([] if all(field.is_zero(x) for x in b) else None) for b in bs]
    n = len(a[0])
    k = len(bs)
    aug = [row[:] + [b[i] for b in bs] for i, row in enumerate(a)]
    r, pivots = rref(field, aug)
    pivots = [p for p in pivots if p < n]
    rank_a = len(pivots)
    sols = []
    for j in range(k):
        col = n + j
        bad = any(not field.is_zero(r[i][col]) for i in range(rank_a, len(r)))
        if bad:
            sols.append(None)
            continue
        x = [field.zero] * n
        for i, pc in enumerate(pivots):
            x[pc] = r[i][col]
        sols.append(x)
    return sols


def invert(field, a):
    """Inverse of a square matrix, or None if singular."""
    n = len(a)
    if n == 0:
        return []
    if len(a[0]) != n:
        return None
    aug = [row[:] + unit_vector(field, n, i) for i, row in enumerate(a)]
    r, pivots = rref(field, aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in r[:n]]


def is_zero_matrix(field, a):
    return all(field.is_zero(x) for row in a for x in row)
