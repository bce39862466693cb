"""Exact coefficient fields: the rationals and odd prime fields.

Elements are plain Python objects; the field object only supplies the
arithmetic, parsing and formatting.  Over F_p an element is an int reduced
mod p.  Over Q it is an int or a Fraction: the constants, `of`, `inv` and
`div` give a plain int for an integral value and a Fraction otherwise, and
the other operations may also leave an integral Fraction, which equals and
hashes like its int.  No floats ever enter any computation: int / int is a
float, so two ints are divided with `div` or `ratio`, never with `/`.
"""

from fractions import Fraction

from .errors import ParseError


def ratio(a, b):
    """The rational a / b of ints a and b: an int when b divides a, else the
    Fraction.  ZeroDivisionError when b is 0."""
    q, r = divmod(a, b)
    return Fraction(a, b) if r else q


def _canonical(x):
    """The Fraction x as an int when it is integral."""
    return x.numerator if x.denominator == 1 else x


class Rationals:
    """Arbitrary-precision rational field; an integral element may be a
    plain int."""

    name = "Q"
    char = 0

    zero = 0
    one = 1
    # small nonzero integers keep entry growth tame in sampled combinations
    _SMALL = tuple(x for x in range(-5, 6) if x)

    def of(self, x):
        if type(x) is int:
            return x
        return _canonical(x if type(x) is Fraction else Fraction(x))

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return ratio(1, a) if type(a) is int else _canonical(1 / a)

    def div(self, a, b):
        # a / b is a Fraction unless both are ints
        return ratio(a, b) if type(a) is int and type(b) is int else _canonical(a / b)

    def is_zero(self, a):
        return a == 0

    def fmt(self, a):
        return f"{a.numerator}/{a.denominator}" if a.denominator != 1 else str(a.numerator)

    def random(self, rng):
        """A nonzero plain int, one rng.choice over -5..5 without 0, which is
        a field element as it is."""
        return rng.choice(self._SMALL)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField:
    """Integers mod an odd prime p; elements are ints in [0, p)."""

    def __init__(self, p):
        if p < 3 or p % 2 == 0 or not _is_prime(p):
            raise ParseError(f"prime field modulus must be an odd prime, got {p}")
        self.p = p
        self.name = f"F{p}"
        self.char = p
        self.zero = 0
        self.one = 1

    def of(self, x):
        if type(x) is Fraction:
            return self.mul(x.numerator % self.p, self.inv(x.denominator % self.p))
        return x % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        return a % self.p == 0

    def fmt(self, a):
        return str(a % self.p)

    def random(self, rng):
        """A nonzero element, already a plain int."""
        return rng.randrange(1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return self.name


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


QQ = Rationals()


def rational(text):
    """The Fraction an input writes as an integer, a/b or a decimal;
    ValueError on exponent notation, whose value is not bounded by its text
    ('1e999999999' is a billion-digit integer)."""
    if "e" in text or "E" in text:
        raise ValueError(f"exponent notation in {text!r}")
    return Fraction(text)


def field_from_spec(text):
    """Parse a field spec string: 'Q' or 'Fp <prime>'."""
    parts = text.split()
    if parts == ["Q"]:
        return QQ
    if len(parts) == 2 and parts[0] == "Fp":
        try:
            p = int(parts[1])
        except ValueError:
            raise ParseError(f"bad field spec {text!r}")
        return PrimeField(p)
    raise ParseError(f"bad field spec {text!r} (expected 'Q' or 'Fp <prime>')")
