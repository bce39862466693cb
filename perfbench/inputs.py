"""Seeded input generation for the benchmark, independent of the test suite.

Everything here is plain Python over vertex/arrow tuples; the program only
ever sees the `.alg` text, module parameters and CLI argv produced from it.
"""

from fractions import Fraction
from itertools import permutations

# Orbit representatives of connected quivers with nv vertices and na arrows
# (loops and parallel arrows allowed), one per vertex-relabeling orbit: the
# criteria 7/8 family.  Counted by exhaustive enumeration (see
# test_smoke.test_family_counts), 2688 quivers in all, 5376 algebras with
# k in {2, 3}.
FAMILY_COUNTS = {
    (1, 1): 1, (1, 2): 1, (1, 3): 1, (1, 4): 1, (1, 5): 1, (1, 6): 1,
    (2, 1): 1, (2, 2): 4, (2, 3): 8, (2, 4): 16, (2, 5): 25, (2, 6): 40,
    (3, 2): 3, (3, 3): 15, (3, 4): 57, (3, 5): 163, (3, 6): 419,
    (4, 3): 8, (4, 4): 66, (4, 5): 353, (4, 6): 1504,
}
FAMILY_KS = (2, 3)


def canonical_combo(nv, combo):
    """The orbit representative: the least sorted relabeling of the arrow
    multiset, as the exhaustive family enumeration chooses it."""
    return min(tuple(sorted((p[i], p[j]) for i, j in combo))
               for p in permutations(range(nv)))


def is_connected(nv, combo):
    adj = {v: set() for v in range(nv)}
    for i, j in combo:
        adj[i].add(j)
        adj[j].add(i)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == nv


def _uniform_multiset(rng, items, size):
    """A uniformly random multiset of `size` items (stars and bars)."""
    bars = sorted(rng.sample(range(len(items) + size - 1), size))
    return tuple(items[b - t] for t, b in enumerate(bars))


def draw_family_quiver(rng, nv, na):
    """A member of the criteria 7/8 family with nv vertices and na arrows: a
    uniform arrow multiset mapped to its orbit representative, redrawn until
    connected."""
    pairs = [(i, j) for i in range(nv) for j in range(nv)]
    while True:
        combo = canonical_combo(nv, _uniform_multiset(rng, pairs, na))
        if is_connected(nv, combo):
            return combo


def allocate(total, weights):
    """Split total into integer shares proportional to weights (largest
    remainder), so every seed draws the same number from each stratum."""
    scale = total / sum(weights.values())
    shares = {key: int(w * scale) for key, w in weights.items()}
    by_remainder = sorted(weights, key=lambda key: shares[key] - weights[key] * scale)
    for key in by_remainder[: total - sum(shares.values())]:
        shares[key] += 1
    return shares


def enumerate_family_counts(max_vertices=4, max_arrows=6):
    """Exhaustive orbit counts per (nv, na); slow (seconds), for tests."""
    from itertools import combinations_with_replacement

    counts = {}
    for nv in range(1, max_vertices + 1):
        pairs = [(i, j) for i in range(nv) for j in range(nv)]
        for na in range(1, max_arrows + 1):
            n = sum(1 for combo in combinations_with_replacement(pairs, na)
                    if canonical_combo(nv, combo) == combo and is_connected(nv, combo))
            if n:
                counts[(nv, na)] = n
    return counts


def quiver_arrows(combo):
    """Arrow triples (name, source, target) with 1-based vertex names."""
    return [(f"x{idx}", str(i + 1), str(j + 1)) for idx, (i, j) in enumerate(combo)]


def alg_text(nv, arrows, ideal_line):
    lines = ["vertices: " + " ".join(str(v + 1) for v in range(nv))]
    lines += [f"arrow: {name} {s} {t}" for name, s, t in arrows]
    lines.append(ideal_line)
    return "\n".join(lines) + "\n"


class _Cyclic(Exception):
    pass


def truncated_gldim(nv, arrows, k):
    """Closed form of gl.dim kQ/J^k: None (infinite) when Q has an oriented
    cycle, else 2*floor(l/k), plus 1 when k does not divide l, where l is the
    length of a longest path."""
    succ = {str(v + 1): [] for v in range(nv)}
    for _name, s, t in arrows:
        succ[s].append(t)
    longest = {}
    on_stack = set()

    def depth(v):
        if v in longest:
            return longest[v]
        if v in on_stack:
            raise _Cyclic
        on_stack.add(v)
        best = max((1 + depth(w) for w in succ[v]), default=0)
        on_stack.discard(v)
        longest[v] = best
        return best

    try:
        l = max(depth(v) for v in succ)
    except _Cyclic:
        return None
    return 2 * (l // k) + (0 if l % k == 0 else 1)


# -- random monomial algebras --------------------------------------------------


def monomial_dimension(vertices, arrows, generators, cap):
    """Number of paths (trivial ones included) containing no generator as a
    subpath, or None when it exceeds cap (infinite or too large)."""
    targets = {name: t for name, _s, t in arrows}
    gens = set(generators)
    longest = max((len(g) for g in gens), default=0)
    layer = [(v, ()) for v in vertices]
    total = len(layer)
    while layer:
        nxt = []
        for v, p in layer:
            end = targets[p[-1]] if p else v
            for name, s, _t in arrows:
                if s != end:
                    continue
                q = p + (name,)
                if any(q[-m:] in gens for m in range(2, min(longest, len(q)) + 1)):
                    continue
                nxt.append((v, q))
        total += len(nxt)
        if total > cap:
            return None
        layer = nxt
    return total


def draw_monomial(rng, max_vertices=4, max_arrows=6, max_dim=80):
    """A random finite-dimensional monomial algebra of dimension <= max_dim:
    a random quiver with 1..max_vertices vertices and 1..max_arrows arrows and
    one to five generators among its paths of length 2 and 3, redrawn whole
    until finite-dimensional.  Returns (.alg text, nv, arrows, generators)."""
    while True:
        nv = rng.randint(1, max_vertices)
        vertices = [str(v + 1) for v in range(nv)]
        na = rng.randint(1, max_arrows)
        arrows = [(f"x{i}", rng.choice(vertices), rng.choice(vertices)) for i in range(na)]
        by_source = {v: [] for v in vertices}
        for name, s, _t in arrows:
            by_source[s].append(name)
        targets = {name: t for name, _s, t in arrows}
        candidates = []
        for length in (2, 3):
            layer = [(v, ()) for v in vertices]
            for _ in range(length):
                layer = [(v, p + (a,)) for v, p in layer
                         for a in by_source[targets[p[-1]] if p else v]]
            candidates += [p for _v, p in layer]
        if not candidates:
            continue
        gens = rng.sample(candidates, rng.randint(1, min(5, len(candidates))))
        if monomial_dimension(vertices, arrows, gens, max_dim) is None:
            continue
        line = "monomial: " + ", ".join(".".join(g) for g in gens)
        return alg_text(nv, arrows, line), nv, arrows, gens


def small_rational(rng):
    """A small nonzero rational: numerator in +-1..9, denominator 1..5."""
    return Fraction(rng.choice([x for x in range(-9, 10) if x]), rng.randint(1, 5))
