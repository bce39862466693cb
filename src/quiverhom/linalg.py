"""Exact linear algebra over a coefficient field.

Matrices are lists of row lists; `sparse_rref` and `sparse_pivots` take
sparse rows and `sparse_kernel` sparse columns, {index: value} dicts.
Everything here is fraction-exact; ranks, kernels and inverses are
certificates, not approximations.  One Gauss-Jordan kernel, `_eliminate`,
runs every row elimination on sparse rows (`rref` and `rank` hand it their
dense rows as dicts); `sparse_kernel` reduces columns left to right with the
same row-clearing helpers, with no transpose and no back-substitution.  Both
read `field.char` once per call and compute on plain ints: `% p` inline over
F_p, fraction-free on primitive integer vectors over Q.
"""

from math import gcd, lcm

from .fields import ratio


def zeros(field, rows, cols):
    z = field.zero
    return [[z] * cols for _ in range(rows)]


def _eliminate(field, rows, reduced=True):
    """Gauss-Jordan on sparse rows, {column: value} dicts, in plain ints:
    returns (row dicts, pivot column list) in pivot order.

    Rows are taken one at a time.  Each is cleared at the pivots found so far
    and takes its leftmost column as a new pivot, so every kept row leads at
    its pivot and the pivots are those of the rref.  reduced=True also clears
    each new pivot from the earlier rows and returns the rows of the rref, 1
    at the pivot; reduced=False clears a row only at pivots on its left,
    which is all a rank needs, and returns the pivots alone (rows None).

    Over F_p rows are kept reduced mod p with 1 at the pivot.  Over Q they
    are primitive integer rows with a positive pivot, combined as s*x - t*y;
    a returned entry is a plain int when it is integral, and the only
    Fractions built are its entries that are not."""
    if not rows:
        return [], []
    p = field.char
    clear = _clear_mod if p else _clear_int
    basis = {}  # pivot column -> row leading there
    for row in rows:
        if not row:
            continue
        acc = {j: v for j, x in row.items() if (v := x % p)} if p else _int_entries(row)[0]
        if reduced:
            # the basis rows vanish at each other's pivots, so clearing acc
            # at one of them leaves it zero or nonzero at the others as it was
            for c in [c for c in acc if c in basis]:
                clear(acc, basis[c], c, p)
            if not acc:
                continue
            c = min(acc)
        else:
            while acc:
                c = min(acc)
                lead = basis.get(c)
                if lead is None:
                    break
                clear(acc, lead, c, p)
            if not acc:
                continue
        _normalize(acc, c, p)
        if reduced:
            for other in basis.values():
                if c in other:
                    clear(other, acc, c, p)
        basis[c] = acc
    pivots = sorted(basis)
    if not reduced:
        return None, pivots
    if p:
        return [basis[c] for c in pivots], pivots
    out = []
    for c in pivots:
        row = basis[c]
        pv = row[c]
        out.append(row if pv == 1 else {j: ratio(x, pv) for j, x in row.items()})
    return out, pivots


def sparse_kernel(field, columns, nrows):
    """Kernel of a matrix of nrows rows given by its sparse columns, {row:
    value} dicts: returns (free columns, kernel basis as sparse vectors) in
    column order.  The basis vector of free column f is 1 at f minus the
    expression of column f in the pivot columns before it, which is unique:
    the basis `nullspace` reads off the rref.

    One left-to-right pass, with no transpose and no back-substitution.
    Column k carries its tag, key nrows + k, in the same dict, so a reduced
    column is always a matrix column paired with the combination that gives
    it.  It is cleared at its leading row while some earlier pivot column
    leads there; it then keeps that row as its pivot, or it has cleared down
    to its tags and is free.  In plain ints as `_eliminate`: `% p` over F_p,
    fraction-free over Q, a returned entry an int when it is integral."""
    p = field.char
    clear = _clear_mod if p else _clear_int
    basis = {}  # pivot row -> reduced column leading there
    free, kernel = [], []
    for k, col in enumerate(columns):
        if not col:
            free.append(k)
            kernel.append({k: 1})
            continue
        tag = nrows + k
        if p:
            acc = {j: v for j, x in col.items() if (v := x % p)}
            acc[tag] = 1
        else:
            acc, den = _int_entries(col)
            acc[tag] = den
        while (c := min(acc)) < nrows:
            lead = basis.get(c)
            if lead is None:
                basis[c] = _normalize(acc, c, p)
                break
            clear(acc, lead, c, p)
        else:
            pv = acc[tag]  # 1 over F_p, positive over Q
            free.append(k)
            kernel.append({j - nrows: x for j, x in acc.items()} if pv == 1
                          else {j - nrows: ratio(x, pv) for j, x in acc.items()})
    return free, kernel


def _int_entries(vec):
    """(entries, den) of a sparse vector over Q: its nonzero entries times
    den, the lcm of their denominators, as plain ints."""
    den = lcm(*[x.denominator for x in vec.values()])
    if den == 1:
        return {j: v for j, x in vec.items() if (v := x.numerator)}, 1
    return {j: v for j, x in vec.items() if (v := x.numerator * (den // x.denominator))}, den


def _normalize(acc, c, p):
    """acc scaled in place to 1 at c over F_p, or made primitive and positive
    at c over Q; returns it."""
    pv = acc[c]
    if pv == 1:
        return acc
    if p:
        inv = pow(pv, p - 2, p)
        for j, x in acc.items():
            acc[j] = x * inv % p
        return acc
    # a unit pivot leaves the row primitive already
    g = 1 if pv == -1 else gcd(*acc.values())
    if pv < 0:
        g = -g
    if g != 1:
        for j, x in acc.items():
            acc[j] = x // g
    return acc


def _clear_mod(acc, row, c, p):
    """acc -= acc[c] * row mod p, in place; row is 1 at c."""
    f = acc[c]
    for j, y in row.items():
        x = (acc.get(j, 0) - f * y) % p
        if x:
            acc[j] = x
        else:
            del acc[j]


def _clear_int(acc, row, c, p):
    """acc = s * acc - t * row made primitive, in place, with s > 0 the least
    multiplier that clears column c; row is positive at c."""
    pv = row[c]
    f = acc[c]
    if pv == 1 or f % pv == 0:
        s, t = 1, f // pv
    else:
        g = gcd(pv, f)
        s, t = pv // g, f // g
        for j, x in acc.items():
            acc[j] = s * x
    for j, y in row.items():
        x = acc.get(j, 0) - t * y
        if x:
            acc[j] = x
        else:
            del acc[j]
    if s != 1:
        g = gcd(*acc.values())
        if g > 1:
            for j, x in acc.items():
                acc[j] = x // g


def rref(field, a):
    """Reduced row echelon form (new row lists, zero rows last); returns
    (matrix, pivot column list)."""
    rows, pivots = _eliminate(field, [{j: x for j, x in enumerate(row) if x} for row in a])
    z = field.zero
    cols = len(a[0]) if a else 0
    m = []
    for row in rows:
        dense = [z] * cols
        for j, x in row.items():
            dense[j] = x
        m.append(dense)
    m += ([z] * cols for _ in range(len(a) - len(rows)))
    return m, pivots


def sparse_rref(field, rows):
    """rref of sparse rows, {column: value} dicts of nonzero values: returns
    (row dicts, pivot column list) in pivot order, each row 1 at its pivot."""
    return _eliminate(field, rows)


def sparse_pivots(field, rows):
    """Pivot columns of sparse rows, {column: value} dicts: those of their
    rref, found with no back-substitution."""
    return _eliminate(field, rows, reduced=False)[1]


def rank(field, a):
    """Rank of a matrix of row lists."""
    return len(sparse_pivots(field, [{j: x for j, x in enumerate(row) if x} for row in a]))


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


def is_invertible(field, a):
    """Whether a square matrix has full rank, without building its inverse;
    ValueError if not square."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError(f"is_invertible needs a square matrix; got {n} rows, not all of length {n}")
    return rank(field, a) == n

