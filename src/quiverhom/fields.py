"""Exact coefficient fields: the rationals and odd prime fields.

Elements are plain Python objects (Fraction, or int reduced mod p); the field
object only supplies the arithmetic, parsing and formatting.  No floats ever
enter any computation.
"""

from fractions import Fraction

from .errors import ParseError


class Rationals:
    """Arbitrary-precision rational field."""

    name = "Q"
    char = 0

    zero = Fraction(0)
    one = Fraction(1)

    def of(self, x):
        return x if type(x) is Fraction else Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return Fraction(1) / a

    def div(self, a, b):
        return a / b

    def is_zero(self, a):
        return a == 0

    def parse(self, text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational scalar {text!r}: {exc}")

    def fmt(self, a):
        return f"{a.numerator}/{a.denominator}" if a.denominator != 1 else str(a.numerator)

    def random(self, rng, spread=5):
        # small nonzero integers keep fraction growth tame in sampled combinations
        return Fraction(rng.choice([x for x in range(-spread, spread + 1) if x != 0]))

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

    def parse(self, text):
        try:
            return self.of(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad scalar {text!r} over {self.name}: {exc}")

    def fmt(self, a):
        return str(a % self.p)

    def random(self, rng, spread=None):
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
