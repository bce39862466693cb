"""The .alg file format.

    # comments start with '#'; blank lines ignored
    vertices: 1 2 3
    arrow: a 1 2
    arrow: b 2 1
    truncated: 2            # or monomial: ... / relations: ... + nilpotency:
    field: Q                # optional; Q (default) or 'Fp 32003'

Paths are written in TRAVERSAL order with '.' separators: "a.b" traverses a
then b and requires t(a) = s(b); as a function-order product that is "b*a".
Relation terms are 'c*path' with c rational ("n" or "n/d"), joined by one
sign each, and the first term may carry one; the special term J^k adds the
full radical power to the ideal.  Unknown keys, doubled or trailing signs and
empty relations between commas are rejected with the offending line number.
"""

import re
from fractions import Fraction

from .algebra import (
    MonomialIdeal,
    Relation,
    RelationsIdeal,
    TruncatedIdeal,
    build_algebra,
)
from .errors import InfiniteDimensional, NotAdmissible, ParseError
from .fields import QQ, field_from_spec, rational
from .quiver import Path, Quiver

_KEYS = ("vertices", "arrow", "truncated", "monomial", "relations", "nilpotency", "field")

# cap on the size of the paths a file's algebra may enumerate, a path of
# length l counting l + 1; the largest corpus algebra enumerates 340 paths of
# size 1252, and a huge exponent or a long path around a loop ends here
# instead of hanging or filling memory
MAX_PATHS = 10**5

# cap on the total dimension of a rep-context module expression, multiplicities
# included, checked on declared sizes before any matrix is allocated: it keeps
# every arrow matrix at or below 10**6 entries, and the largest expression the
# tests or the benchmark build, M_alpha(1,5) + M_beta(1,5), has dimension 42
MAX_MODULE_DIM = 1000


def _lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_algebra_text(text):
    """Parse .alg text into a built BoundQuiverAlgebra."""
    vertices = None
    vertices_line = None
    arrows = []
    truncated = None
    monomial_line = None  # the last monomial line
    monomial_paths = []  # (lineno, token)
    relation_chunks = []  # (lineno, chunk)
    nilpotency = None
    field_spec = None
    ideal_kinds = {}  # truncated/monomial/relations -> its first line
    for lineno, line in _lines(text):
        if ":" not in line:
            raise ParseError(f"expected 'key: value', got {line!r}", line=lineno)
        key, value = line.split(":", 1)
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ParseError(f"unknown key {key!r}", line=lineno)
        if key in ("truncated", "monomial", "relations"):
            ideal_kinds.setdefault(key, lineno)
        if key == "vertices":
            if vertices is not None:
                raise ParseError("duplicate vertices line", line=lineno)
            vertices = value.split()
            vertices_line = lineno
            if not vertices:
                raise ParseError("empty vertex list", line=lineno)
        elif key == "arrow":
            parts = value.split()
            if len(parts) != 3:
                raise ParseError("arrow line needs 'name src dst'", line=lineno)
            arrows.append((lineno, tuple(parts)))
        elif key == "truncated":
            try:
                truncated = (lineno, int(value))
            except ValueError:
                raise ParseError(f"bad truncation exponent {value!r}", line=lineno)
        elif key == "monomial":
            monomial_line = lineno
            for tok in _split_list(value, lineno, "monomial generator"):
                monomial_paths.append((lineno, tok))
        elif key == "relations":
            for tok in _split_list(value, lineno, "relation"):
                relation_chunks.append((lineno, tok))
        elif key == "nilpotency":
            try:
                nilpotency = (lineno, int(value))
            except ValueError:
                raise ParseError(f"bad nilpotency {value!r}", line=lineno)
        elif key == "field":
            field_spec = (lineno, value)
    # a whole-file error names the line where the file ends
    last_line = max(1, len(text.splitlines()))
    if vertices is None:
        raise ParseError("missing vertices line", line=last_line)
    if not arrows:
        raise ParseError("no arrows declared", line=last_line)
    quiver = _build_quiver(vertices, vertices_line, arrows)
    field = QQ
    if field_spec is not None:
        field = _on_line(field_spec[0], field_from_spec, field_spec[1])

    if len(ideal_kinds) != 1:
        # a second ideal kind is named where it first appears
        line = list(ideal_kinds.values())[1] if ideal_kinds else last_line
        raise ParseError("exactly one of truncated/monomial/relations must appear", line=line)
    if truncated is not None:
        ideal = _on_line(truncated[0], TruncatedIdeal, truncated[1])
        build_line = truncated[0]
    elif monomial_line is not None:
        gens = [(ln, _parse_path(quiver, tok, ln)) for ln, tok in monomial_paths]
        try:
            ideal = MonomialIdeal([g for _ln, g in gens])
        except NotAdmissible:
            for ln, g in gens:
                _on_line(ln, MonomialIdeal, [g])
            raise
        # only the generators of all monomial lines together leave the
        # algebra finite-dimensional or not, so a failed build names the
        # last of those lines, where the ideal is complete
        build_line = monomial_line
    else:
        radical_power = None
        relations = []
        for ln, chunk in relation_chunks:
            if chunk.replace(" ", "").startswith("J^"):
                try:
                    radical_power = int(chunk.replace(" ", "")[2:])
                except ValueError:
                    raise ParseError(f"bad radical power term {chunk!r}", line=ln)
                radical_line = ln
                continue
            relations.append(_parse_relation(quiver, chunk, ln))
        if nilpotency is None:
            if radical_power is None:
                raise ParseError("relations ideal needs a nilpotency line",
                                 line=ideal_kinds["relations"])
            nilpotency = (radical_line, radical_power)
        if radical_power is not None and radical_power != nilpotency[1]:
            raise ParseError(
                f"J^{radical_power} generator disagrees with nilpotency {nilpotency[1]}",
                line=nilpotency[0],
            )
        ideal = _on_line(nilpotency[0], RelationsIdeal, relations, nilpotency[1],
                         radical_power is not None)
        # the build rejects a bound the relations do not reach or one whose
        # paths exceed MAX_PATHS in size
        return _on_line(nilpotency[0], build_algebra, quiver, ideal, field, MAX_PATHS)
    if nilpotency is not None:
        raise ParseError("nilpotency only applies to relations ideals", line=nilpotency[0])
    return _on_line(build_line, build_algebra, quiver, ideal, field, MAX_PATHS)


def _on_line(lineno, build, *args):
    """build(*args), a rejection re-raised with the .alg line it comes from
    (unchanged when lineno is None)."""
    try:
        return build(*args)
    except (ParseError, NotAdmissible, InfiniteDimensional) as exc:
        raise type(exc)(exc.message, line=lineno) from None


def _build_quiver(vertices, vertices_line, arrows):
    """The declared quiver.  A rejection names the line of the first
    declaration that makes it fail: the vertices line or an arrow line."""
    try:
        return Quiver(vertices, [a for _ln, a in arrows])
    except ParseError:
        lines = [vertices_line] + [ln for ln, _a in arrows]
        for k, lineno in enumerate(lines):
            _on_line(lineno, Quiver, vertices, [a for _ln, a in arrows[:k]])
        raise


def _split_list(value, lineno, item):
    """Split a monomial or relations line on commas (paths and terms never
    contain commas).  An empty line states no item; an empty chunk, as in
    'a.a, , b.b' or after a trailing comma, is refused."""
    if not value:
        return []
    chunks = [tok.strip() for tok in value.split(",")]
    if not all(chunks):
        raise ParseError(f"empty {item} in {value!r}", line=lineno)
    return chunks


def _parse_path(quiver, token, lineno):
    names = tuple(t.strip() for t in token.split("."))
    for n in names:
        if n not in quiver.arrow_by_name:
            raise ParseError(f"unknown arrow {n!r} in path {token!r}", line=lineno)
    try:
        return Path(quiver, names)
    except Exception as exc:
        raise ParseError(f"bad path {token!r}: {exc}", line=lineno)


def _parse_relation(quiver, chunk, lineno):
    """'c1*p1 - c2*p2 + ...' into a Relation: one sign between two terms,
    at most one before the first, none after the last."""
    texts = [t.strip() for t in re.split(r"[+-]", chunk)]
    signs = [-1 if ch == "-" else 1 for ch in chunk if ch in "+-"]
    if not texts[0]:
        # a leading sign, as format_algebra writes a negative first term
        texts.pop(0)
    else:
        signs.insert(0, 1)
    for k, text in enumerate(texts):
        if not text:
            if k == len(texts) - 1:
                raise ParseError(f"relation {chunk!r} ends in a sign", line=lineno)
            raise ParseError(f"two signs in a row in relation {chunk!r}", line=lineno)
    terms = []
    for sgn, piece in zip(signs, texts):
        if "*" in piece:
            ctext, ptext = piece.split("*", 1)
            try:
                coeff = rational(ctext.strip())
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"bad coefficient {ctext!r}", line=lineno)
        else:
            coeff = 1
            ptext = piece
        terms.append((sgn * coeff, _parse_path(quiver, ptext.strip(), lineno)))
    try:
        return Relation(terms)
    except Exception as exc:
        raise ParseError(f"bad relation {chunk!r}: {exc}", line=lineno)


def format_algebra(algebra):
    """Canonical .alg text; parse(format(parse(t))) == parse(t)."""
    out = [f"vertices: {' '.join(algebra.quiver.vertices)}"]
    for a in algebra.quiver.arrows:
        out.append(f"arrow: {a.name} {a.source} {a.target}")
    if algebra.kind == "truncated":
        out.append(f"truncated: {algebra.ideal.k}")
    elif algebra.kind == "monomial":
        gens = ", ".join(g.traversal_str() for g in algebra.ideal.generators)
        out.append(f"monomial: {gens}")
    else:
        chunks = []
        for rel in algebra.ideal.relations:
            parts = []
            for i, (c, p) in enumerate(rel.terms):
                coeff = Fraction(c)
                mag = abs(coeff)
                body = p.traversal_str() if mag == 1 else f"{mag}*{p.traversal_str()}"
                if i == 0:
                    parts.append(body if coeff > 0 else f"-{body}")
                else:
                    parts.append(("+ " if coeff > 0 else "- ") + body)
            chunks.append(" ".join(parts))
        if algebra.ideal.radical_power_included:
            chunks.append(f"J^{algebra.ideal.nilpotency}")
        out.append("relations: " + ", ".join(chunks))
        out.append(f"nilpotency: {algebra.ideal.nilpotency}")
    out.append(f"field: {algebra.field.name}" if algebra.field.name == "Q"
               else f"field: Fp {algebra.field.char}")
    return "\n".join(out) + "\n"


def parse_split_text(text):
    """Split files for the triangular check: 'gamma:' and 'gamma_bar:' lines."""
    gamma = gamma_bar = None
    for lineno, line in _lines(text):
        if ":" not in line:
            raise ParseError(f"expected 'key: value', got {line!r}", line=lineno)
        key, value = line.split(":", 1)
        key = key.strip()
        if key == "gamma":
            gamma = value.split()
        elif key == "gamma_bar":
            gamma_bar = value.split()
        else:
            raise ParseError(f"unknown key {key!r} in split file", line=lineno)
    if gamma is None or gamma_bar is None:
        raise ParseError("split file needs gamma and gamma_bar lines")
    return gamma, gamma_bar
