"""Module expressions for the CLI.

Grammar:

    EXPR  := TERM ('+' TERM)*
    TERM  := INT '*' ATOM | ATOM
    ATOM  := 'path' '(' dotted-path ')' | 'simple' '(' v ')'
           | 'proj' '(' v ')' | 'inj' '(' v ')'
           | 'rep' '{' dims ';' arrow '=' MATRIX (';' ...)* '}'
           | NAME '(' args ')'          # corpus generator, e.g. M_alpha(1,3)
           | '(' EXPR ')'

A rep literal lists per-vertex dimensions ('v:dim', whitespace separated)
then per-arrow matrices, row-major, entries exact rationals; matrix shape is
(target dimension) x (source dimension).

Expressions evaluate in one of two contexts: 'multiset' (formal path-module
classes, monomial/truncated algebras only; path() and simple() atoms) or
'rep' (concrete representations; all atoms).  Mixing is an error; 'auto'
picks multiset when the algebra supports it and no rep-only atom occurs.
"""

import re

from . import corpus, reps
from .algfile import MAX_MODULE_DIM
from .errors import ParseError, UnsupportedIdeal
from .fields import rational
from .pathmodules import ModuleMultiset, calculus


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        self._skip_ws()
        if not self.text.startswith(ch, self.pos):
            raise ParseError(f"expected {ch!r} at position {self.pos} in module expression")
        self.pos += len(ch)

    def name(self):
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                             or self.text[self.pos] in "_."):
            self.pos += 1
        if start == self.pos:
            raise ParseError(f"expected a name at position {start} in module expression")
        return self.text[start:self.pos]

    def until(self, closing):
        depth = 1
        start = self.pos
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch == closing[0] and depth == 1:
                out = self.text[start:self.pos]
                self.pos += 1
                return out
            if ch in "([{":
                depth += 1
            elif ch in ")]}":
                depth -= 1
                if depth == 0:
                    out = self.text[start:self.pos]
                    self.pos += 1
                    return out
            self.pos += 1
        raise ParseError(f"unbalanced {closing!r} in module expression")

    def integer(self):
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise ParseError(f"expected an integer at position {start}")
        return int(self.text[start:self.pos])

    def at_end(self):
        self._skip_ws()
        return self.pos >= len(self.text)


def parse_expression(text):
    toks = _Tokens(text)
    terms = [_parse_term(toks)]
    while not toks.at_end():
        toks.expect("+")
        terms.append(_parse_term(toks))
    return ("sum", terms)


def _parse_term(toks):
    if toks.peek().isdigit():
        mult = toks.integer()
        toks.expect("*")
        atom = _parse_atom(toks)
        return ("scale", mult, atom)
    return ("scale", 1, _parse_atom(toks))


def _parse_atom(toks):
    if toks.peek() == "(":
        toks.expect("(")
        inner_text = toks.until(")")
        return parse_expression(inner_text)
    name = toks.name()
    if name == "rep":
        toks.expect("{")
        body = toks.until("}")
        return ("rep", body)
    toks.expect("(")
    text = toks.until(")")
    args = [a.strip() for a in text.split(",")] if text.strip() else []
    if "" in args:
        raise ParseError(f"empty argument in {name}({text})")
    return ("call", name, args)


REP_ONLY = {"proj", "inj", "rep"}

# every rep literal's name, shared by all of them: a phi table that catalogs
# two literals keeps them apart by priming the second name
LITERAL_NAME = "rep-literal"


def _uses_rep_atom(node):
    kind = node[0]
    if kind == "sum":
        return any(_uses_rep_atom(t) for t in node[1])
    if kind == "scale":
        return _uses_rep_atom(node[2])
    if kind == "rep":
        return True
    name = node[1]
    return name in REP_ONLY or name in corpus.GENERATORS


def evaluate(text, algebra, context="auto"):
    """Evaluate an expression; returns ('multiset', ModuleMultiset) or
    ('rep', list of (Representation, multiplicity)).  A call atom other
    than the built-in ones names a corpus generator (corpus.GENERATORS)."""
    ast = parse_expression(text)
    if context == "auto":
        if _uses_rep_atom(ast) or not algebra.is_monomial_like:
            context = "rep"
        else:
            context = "multiset"
    if context == "multiset":
        if not algebra.is_monomial_like:
            raise UnsupportedIdeal(
                "formal path-module expressions need a monomial or truncated ideal"
            )
        return "multiset", _eval_multiset(ast, algebra)
    return "rep", _eval_rep(ast, algebra)


def _eval_multiset(node, algebra):
    kind = node[0]
    calc = calculus(algebra)
    if kind == "sum":
        out = ModuleMultiset()
        for t in node[1]:
            out = out.add(_eval_multiset(t, algebra))
        return out
    if kind == "scale":
        return _eval_multiset(node[2], algebra).scale(node[1])
    if kind == "rep":
        raise ParseError("rep{...} literals are not formal path-module expressions")
    name, args = node[1], node[2]
    if name in ATOM_ARGUMENT:
        arg = _atom_arg(algebra, name, args)
    if name == "path":
        return ModuleMultiset([calc.class_of(algebra.path(arg))])
    if name == "simple":
        return ModuleMultiset([calc.simple_class(arg)])
    if name == "proj":
        return ModuleMultiset([calc.projective_class(arg)])
    raise ParseError(f"{name}() is not a formal path-module atom")


# the built-in atoms, each of one argument: what it names
ATOM_ARGUMENT = {"path": "dotted path", "simple": "vertex", "proj": "vertex", "inj": "vertex"}


def _atom_arg(algebra, name, args):
    """The single argument of a built-in atom, a known vertex where one is due."""
    if len(args) != 1:
        raise ParseError(f"{name}() takes one {ATOM_ARGUMENT[name]}, got {len(args)} arguments")
    if ATOM_ARGUMENT[name] == "vertex":
        _check_vertex(algebra, args[0])
    return args[0]


def _check_vertex(algebra, v):
    if v not in algebra.quiver.vertices:
        raise ParseError(f"unknown vertex {v!r}")


def _check_dim(total, what):
    if total > MAX_MODULE_DIM:
        raise ParseError(f"{what} has total dimension {total}, above the cap {MAX_MODULE_DIM}")


def _capped(value):
    """A rep-context value, refused when its total dimension, multiplicities
    included, exceeds MAX_MODULE_DIM."""
    _check_dim(sum(rep.total_dim * mult for rep, mult in value), "module expression")
    return value


def _eval_rep(node, algebra):
    kind = node[0]
    # each term is capped as soon as it exists, so a sum stops at the first
    # term that overflows; atoms check their declared size before allocating
    if kind == "sum":
        out = []
        for t in node[1]:
            out = _capped(out + _eval_rep(t, algebra))
        return out
    if kind == "scale":
        inner = _eval_rep(node[2], algebra)
        return _capped([(rep, mult * node[1]) for rep, mult in inner])
    if kind == "rep":
        return [(_parse_rep_literal(node[1], algebra), 1)]
    name, args = node[1], node[2]
    if name in ATOM_ARGUMENT:
        arg = _atom_arg(algebra, name, args)
    if name == "simple":
        return [(reps.simple(algebra, arg), 1)]
    if name == "proj":
        return [(reps.projective(algebra, arg), 1)]
    if name == "inj":
        return [(reps.injective(algebra, arg), 1)]
    if name == "path":
        calc = calculus(algebra)
        return [(reps.rep_of_class(calc.class_of(algebra.path(arg))), 1)]
    if name in corpus.GENERATORS:
        return [(corpus.GENERATORS[name](algebra, args), 1)]
    raise ParseError(f"unknown module atom {name!r}")


def _parse_rep_literal(body, algebra):
    sections = [s.strip() for s in body.split(";") if s.strip()]
    if not sections:
        raise ParseError("empty rep literal")
    dims = {}
    for tok in sections[0].split():
        if ":" not in tok:
            raise ParseError(f"bad dimension token {tok!r} (want v:dim)")
        v, d = tok.split(":", 1)
        _check_vertex(algebra, v)
        if v in dims:
            raise ParseError(f"vertex {v!r} given twice in rep literal")
        if not (d.isascii() and d.isdigit()):
            raise ParseError(f"bad dimension {d!r}")
        dims[v] = int(d)
    _check_dim(sum(dims.values()), "rep literal")
    mats = {}
    for section in sections[1:]:
        if "=" not in section:
            raise ParseError(f"bad matrix section {section!r}")
        name, mat_text = section.split("=", 1)
        name = name.strip()
        if name not in algebra.quiver.arrow_by_name:
            raise ParseError(f"unknown arrow {name!r} in rep literal")
        if name in mats:
            raise ParseError(f"arrow {name!r} given twice in rep literal")
        mats[name] = _parse_matrix(mat_text.strip())
    try:
        rep = reps.Representation(algebra, dims, mats, name=LITERAL_NAME)
    except ValueError as exc:
        raise ParseError(str(exc))
    rep.check_relations()
    return rep


_ROW = r"\[([^\[\]]*)\]"  # one row; the group is its entries
_MATRIX = re.compile(rf"\[\s*(?:{_ROW}(?:\s*,\s*{_ROW})*)?\s*\]")


def _parse_matrix(text):
    """A matrix literal: rows [e, ...] of rational entries, comma separated,
    inside one pair of brackets ([] has no rows, [[]] one empty row)."""
    text = text.strip()
    if not _MATRIX.fullmatch(text):
        raise ParseError(f"matrix must be [[...],[...]], got {text!r}")
    rows = []
    for body in re.findall(_ROW, text[1:-1]):
        entries = body.split(",") if body.strip() else []
        row = []
        for entry in entries:
            try:
                row.append(rational(entry.strip()))
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"bad matrix entry {entry.strip()!r}")
        rows.append(row)
    return rows
