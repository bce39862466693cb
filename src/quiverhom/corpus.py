"""The shipped regression corpus: the worked example algebras plus small
synthetic instances, with module-expression generators for the parametrized
module families.

Names resolve through the CLI as --algebra corpus:<name>.
"""

from fractions import Fraction

from . import reps
from .algfile import MAX_MODULE_DIM, parse_algebra_text
from .errors import ParseError
from .fields import rational

_SEC3_RELATIONS = """\
relations: a1.b1 - 2*a2.b2, b1.a1 - b2.a2
relations: a1.b2, a2.b1, b1.a2, b2.a1
"""

FILES = {
    # two vertices, arrows both ways, loop at 2; kills the traversal b.a and g.g
    "sec4_example.alg": """\
vertices: 1 2
arrow: a 1 2
arrow: b 2 1
arrow: g 2 2
monomial: b.a, g.g
field: Q
""",
    # two vertices, doubled arrows both ways; commutation plus vanishing mixed
    # products (the reading under which every stated syzygy identity holds)
    "sec3_example.alg": f"""\
vertices: 1 2
arrow: a1 1 2
arrow: a2 1 2
arrow: b1 2 1
arrow: b2 2 1
{_SEC3_RELATIONS}nilpotency: 3
field: Q
""",
    "finito.alg": f"""\
vertices: 1 2 3
arrow: a1 1 2
arrow: a2 1 2
arrow: b1 2 1
arrow: b2 2 1
arrow: g 3 2
arrow: d 3 3
{_SEC3_RELATIONS}relations: d.d, d.g, g.b1 - g.b2
relations: g.b1.a1, g.b1.a2, g.b2.a1
nilpotency: 3
field: Q
""",
    "finito_f32003.alg": f"""\
vertices: 1 2 3
arrow: a1 1 2
arrow: a2 1 2
arrow: b1 2 1
arrow: b2 2 1
arrow: g 3 2
arrow: d 3 3
{_SEC3_RELATIONS}relations: d.d, d.g, g.b1 - g.b2
relations: g.b1.a1, g.b1.a2, g.b2.a1
nilpotency: 3
field: Fp 32003
""",
    # four vertices on a cycle, four parallel arrows each step; commutation for
    # the plain and barred families, vanishing mixed products, and J^3
    "infinito.alg": "".join(
        ["vertices: 1 2 3 4\n"]
        + [f"arrow: {nm}{i} {i} {i % 4 + 1}\n" for i in (1, 2, 3, 4)
           for nm in ("a", "abar", "b", "bbar")]
        + [f"relations: a{i}.a{j} - abar{i}.abar{j}, b{i}.b{j} - bbar{i}.bbar{j}\n"
           f"relations: abar{i}.a{j}, a{i}.abar{j}, bbar{i}.b{j}, b{i}.bbar{j}\n"
           for i, j in ((1, 2), (2, 3), (3, 4), (4, 1))]
        + ["relations: J^3\n", "nilpotency: 3\n", "field: Q\n"]
    ),
    "c2_k2.alg": """\
vertices: 1 2
arrow: a 1 2
arrow: b 2 1
truncated: 2
""",
    "c3_k2.alg": """\
vertices: 1 2 3
arrow: a 1 2
arrow: b 2 3
arrow: c 3 1
truncated: 2
""",
    "c4_k3.alg": """\
vertices: 1 2 3 4
arrow: a 1 2
arrow: b 2 3
arrow: c 3 4
arrow: d 4 1
truncated: 3
""",
    "a3_k2.alg": """\
vertices: 1 2 3
arrow: a 1 2
arrow: b 2 3
truncated: 2
""",
    "a4_k2.alg": """\
vertices: 1 2 3 4
arrow: a 1 2
arrow: b 2 3
arrow: c 3 4
truncated: 2
""",
    # loop at v, arrow v -> w, loop at w: the final subheart at w is a single
    # cycle, so the truncated algebra is not Co-Gorenstein
    "subheart_no.alg": """\
vertices: v w
arrow: p v v
arrow: e v w
arrow: q w w
truncated: 2
""",
    # a 2-cycle feeding a 1-cycle: one final subheart (the loop)
    "two_cycles.alg": """\
vertices: 1 2 3
arrow: a 1 2
arrow: b 2 1
arrow: c 2 3
arrow: l 3 3
truncated: 2
""",
}

SPLITS = {
    # finito: the only bridge arrow is g: 3 -> 2, so the source side is {3}
    "finito.split": """\
gamma: 3
gamma_bar: 1 2
""",
    # the reversed orientation violates "no arrows gamma_bar -> gamma"
    "finito_bad.split": """\
gamma: 1 2
gamma_bar: 3
""",
}


def algebra(name):
    key = name if name.endswith(".alg") else f"{name}.alg"
    if key not in FILES:
        raise ParseError(f"unknown corpus algebra {name!r}; have {sorted(FILES)}")
    return parse_algebra_text(FILES[key])


def write_all(directory):
    import os

    os.makedirs(directory, exist_ok=True)
    written = []
    for name, text in list(FILES.items()) + list(SPLITS.items()):
        path = os.path.join(directory, name)
        with open(path, "w") as fh:
            fh.write(text)
        written.append(path)
    return written


# -- parametrized module families ------------------------------------------------


def _sec3_signature(algebra):
    names = {a.name: (a.source, a.target) for a in algebra.quiver.arrows}
    need = {"a1": ("1", "2"), "a2": ("1", "2"), "b1": ("2", "1"), "b2": ("2", "1")}
    return all(names.get(k) == v for k, v in need.items())


def _param(name, args):
    """The one nonzero rational parameter of M_param or N_param."""
    if len(args) != 1:
        raise ParseError(f"{name} takes one rational parameter, got {len(args)} arguments")
    try:
        a = rational(args[0])
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{name} parameter must be a rational number, got {args[0]!r}") from None
    if a == 0:
        raise ParseError(f"{name} parameter must be nonzero")
    return a


def make_m_param(algebra, args):
    """M_param(a): one-dimensional at both ends, a1 acts by a, a2 by 1."""
    if not _sec3_signature(algebra):
        raise ParseError("M_param needs the doubled-arrow two-vertex quiver")
    a = _param("M_param", args)
    return reps.Representation(
        algebra, {"1": 1, "2": 1}, {"a1": [[a]], "a2": [[Fraction(1)]]},
        name=f"M_param({a})",
    )


def make_n_param(algebra, args):
    if not _sec3_signature(algebra):
        raise ParseError("N_param needs the doubled-arrow two-vertex quiver")
    a = _param("N_param", args)
    return reps.Representation(
        algebra, {"1": 1, "2": 1}, {"b1": [[Fraction(1)]], "b2": [[a]]},
        name=f"N_param({a})",
    )


def _infinito_signature(algebra):
    if tuple(algebra.quiver.vertices) != ("1", "2", "3", "4"):
        return False
    names = {a.name: (a.source, a.target) for a in algebra.quiver.arrows}
    for i in (1, 2, 3, 4):
        j = str(i % 4 + 1)
        for nm in ("a", "abar", "b", "bbar"):
            if names.get(f"{nm}{i}") != (str(i), j):
                return False
    return True


def _block_inclusion(field, n, shift):
    """The inclusion k^n -> k^(3n+1) hitting rows shift..shift+n-1, as its
    sparse columns."""
    return [{shift + j: field.one} for j in range(n)]


def _doubled_cycle_module(algebra, i, n, shifts, name):
    """k^n at vertex i, k^(3n+1) at i+1, and the arrows out of i acting by
    the block inclusions of the given shifts; built on sparse columns."""
    j = str(i % 4 + 1)
    dims = {v: 0 for v in algebra.quiver.vertices}
    dims[str(i)], dims[j] = n, 3 * n + 1
    columns = {a.name: [{} for _ in range(dims[a.source])] for a in algebra.quiver.arrows}
    for arrow, shift in shifts.items():
        columns[f"{arrow}{i}"] = _block_inclusion(algebra.field, n, shift)
    return reps.Representation._of_field_elements(algebra, dims, columns, name)


def _family_args(name, args):
    """(i, n) of M_alpha(i, n) or M_beta(i, n), checked against the vertex
    range and, through the dimension 4n + 1, against MAX_MODULE_DIM."""
    if len(args) != 2:
        raise ParseError(f"{name}(i, n) takes two integers, got {len(args)} arguments")
    try:
        i, n = int(args[0]), int(args[1])
    except ValueError:
        raise ParseError(f"{name}(i, n) takes two integers, got {', '.join(args)}") from None
    if not (1 <= i <= 4 and n >= 1):
        raise ParseError(f"{name}(i, n) needs 1 <= i <= 4 and n >= 1")
    if 4 * n + 1 > MAX_MODULE_DIM:
        raise ParseError(f"{name}({i},{n}) has dimension {4 * n + 1}, "
                         f"above the cap {MAX_MODULE_DIM}")
    return i, n


def make_m_alpha(algebra, args):
    """M_alpha(i, n): k^n at vertex i, k^(3n+1) at i+1, the four block
    inclusions assigned to (b, abar, a, bbar) with shifts (0, n, n+1, 2n+1)."""
    if not _infinito_signature(algebra):
        raise ParseError("M_alpha needs the four-vertex doubled-cycle quiver")
    i, n = _family_args("M_alpha", args)
    return _doubled_cycle_module(
        algebra, i, n, {"b": 0, "abar": n, "a": n + 1, "bbar": 2 * n + 1},
        f"M_alpha({i},{n})")


def make_m_beta(algebra, args):
    """M_beta(i, n): as M_alpha(i, n), the shifts assigned to (a, bbar, b,
    abar) instead."""
    if not _infinito_signature(algebra):
        raise ParseError("M_beta needs the four-vertex doubled-cycle quiver")
    i, n = _family_args("M_beta", args)
    return _doubled_cycle_module(
        algebra, i, n, {"a": 0, "bbar": n, "b": n + 1, "abar": 2 * n + 1},
        f"M_beta({i},{n})")


GENERATORS = {
    "M_param": make_m_param,
    "N_param": make_n_param,
    "M_alpha": make_m_alpha,
    "M_beta": make_m_beta,
}


def infinito_catalog(algebra, n_max):
    """Catalog for hybrid phi over the doubled-cycle algebra: both module
    families up to n_max plus the simples; the simples are the assumed
    infinite-pd classes."""
    catalog = []
    for i in (1, 2, 3, 4):
        for m in range(1, n_max + 1):
            catalog.append((f"M_alpha({i},{m})", make_m_alpha(algebra, [str(i), str(m)])))
            catalog.append((f"M_beta({i},{m})", make_m_beta(algebra, [str(i), str(m)])))
    assume = []
    for v in algebra.quiver.vertices:
        catalog.append((f"S_{v}", reps.simple(algebra, v)))
        assume.append(f"S_{v}")
    return catalog, assume


# finito: the certified phi >= 1 witness pair (quotients of projectives by a
# single socle line, written as explicit rep literals)
FINITO_WITNESS_A = "rep{ 2:1 3:2 ; g = [[1, 0]] ; d = [[0, 0],[1, 0]] }"
FINITO_WITNESS_B = "rep{ 1:1 2:2 ; a1 = [[1],[0]] ; a2 = [[0],[1]] }"
