"""Exact scalar arithmetic over the supported coefficient fields.

Three fields are available: the rationals, the Gaussian rationals
(rationals adjoined i), and prime fields GF(p) with p < 2**31.  A
field always comes paired with an involution, either the identity or,
for the Gaussian rationals only, coefficientwise conjugation
a + b*i -> a - b*i.

Scalars are plain immutable values: `Fraction` for the rationals,
`GaussianRational` for Q(i), and an `int` in [0, p) for GF(p), whose
sums and products `Matrix` reduces mod p once per row and whose
inverses come from `FieldSpec.inverse`.  A `GaussianRational` is a
canonical integer triple (a + b*i)/d, d > 0 and gcd(a, b, d) == 1,
whose operators reduce each result by one gcd.  `ModInt` is only an
input value that `coerce` accepts.  Everything here is exact; nothing
rounds.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Callable, Union

Scalar = Union[Fraction, "GaussianRational", int]

_RatLike = Union[int, Fraction]


class FieldKind(enum.Enum):
    RATIONAL = "rational"
    GAUSSIAN_RATIONAL = "gaussian-rational"
    PRIME_FIELD = "prime-field"


class Involution(enum.Enum):
    IDENTITY = "identity"
    CONJUGATION = "conjugate"


class GaussianRational:
    """An element (a + b*i)/d of Q(i), stored as three ints in lowest
    terms: d > 0 and gcd(a, b, d) == 1.  Each operation works on the
    ints and reduces its result by one gcd."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: _RatLike = 0, im: _RatLike = 0):
        re, im = Fraction(re), Fraction(im)
        a = re.numerator * im.denominator
        b = im.numerator * re.denominator
        d = re.denominator * im.denominator
        g = gcd(a, b, d)
        _set_a(self, a // g)
        _set_b(self, b // g)
        _set_d(self, d // g)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        return (_triple, (self._a, self._b, self._d))

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __add__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        d, e = self._d, other._d
        if d == e:
            return _reduced(self._a + other._a, self._b + other._b, d)
        return _reduced(self._a * e + other._a * d,
                        self._b * e + other._b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        d, e = self._d, other._d
        if d == e:
            return _reduced(self._a - other._a, self._b - other._b, d)
        return _reduced(self._a * e - other._a * d,
                        self._b * e - other._b * d, d * e)

    def __rsub__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # (a + b*i)/d / ((c + e*i)/f) = f*(a + b*i)*(c - e*i) / (d*(c² + e²))
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, e, f = self._a, self._b, other._a, other._b, other._d
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f,
                        self._d * n)

    def __rtruediv__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return _triple(-self._a, -self._b, self._d)

    def __pos__(self):
        return self

    def __eq__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        # both sides are in lowest terms
        return (self._a == other._a and self._b == other._b
                and self._d == other._d)

    def __hash__(self):
        # matches hash of the plain rational when im == 0
        if self._b == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self._a or self._b)

    def conjugate(self) -> "GaussianRational":
        return _triple(self._a, -self._b, self._d)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return _gaussian_str(self._a, self._b, self._d)


_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_d = GaussianRational._d.__set__
_new = object.__new__


def _triple(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d from a triple already in lowest terms."""
    x = _new(GaussianRational)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d for d > 0, brought to lowest terms by one gcd."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _triple(a, b, d)


def _rational_str(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0."""
    g = gcd(n, d)
    n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def _gaussian_str(a: int, b: int, d: int) -> str:
    """(a + b*i)/d, d > 0 and not necessarily in lowest terms, in the
    input grammar: 3, i, -2*i, 1/2-3/4*i.  The imaginary coefficient is
    +-1 exactly when |b| == d, so each part is reduced on its own."""
    if b == 0:
        return _rational_str(a, d)
    sign = "+" if b > 0 else "-"
    coeff = "" if abs(b) == d else f"{_rational_str(abs(b), d)}*"
    if a == 0:
        return f"{'-' if b < 0 else ''}{coeff}i"
    return f"{_rational_str(a, d)}{sign}{coeff}i"


def _as_gaussian(x) -> "GaussianRational":
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, int):
        return _triple(x, 0, 1)
    if isinstance(x, Fraction):
        return _triple(x.numerator, 0, x.denominator)
    return NotImplemented


class ModInt:
    """A residue in GF(p) carried with its modulus.  It is an input
    value only: `FieldSpec.coerce` takes it to the plain int that a
    GF(p) matrix stores, and it defines no arithmetic."""

    __slots__ = ("val", "p")

    def __init__(self, val: int, p: int):
        object.__setattr__(self, "val", val % p)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("ModInt is immutable")

    def __reduce__(self):
        return (ModInt, (self.val, self.p))

    def __eq__(self, other):
        if isinstance(other, int):
            return self.val == other % self.p
        if isinstance(other, ModInt):
            return self.p == other.p and self.val == other.val
        return NotImplemented

    def __hash__(self):
        return hash((self.val, self.p))

    def __repr__(self):
        return f"ModInt({self.val}, {self.p})"

    def __str__(self):
        return str(self.val)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: the bases 2, 3, 5 and 7 decide
    every n < 3,215,031,751, which covers the moduli below 2**31."""
    if not isinstance(n, int) or n < 2:
        return False
    for b in (2, 3, 5, 7):
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in (2, 3, 5, 7):
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Which coefficient field is in force, and which involution."""

    kind: FieldKind
    involution: Involution = Involution.IDENTITY
    p: int | None = None

    def __post_init__(self):
        if self.involution is Involution.CONJUGATION:
            if self.kind is not FieldKind.GAUSSIAN_RATIONAL:
                raise ValueError(
                    "conjugation is only valid over the Gaussian rationals"
                )
        if self.kind is FieldKind.PRIME_FIELD:
            if self.p is None:
                raise ValueError("prime field requires a modulus")
            if self.p >= 2**31:
                raise ValueError("prime modulus must be below 2**31")
            if not _is_prime(self.p):
                raise ValueError(f"{self.p} is not prime")
        elif self.p is not None:
            raise ValueError("modulus is only meaningful for a prime field")

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls(FieldKind.RATIONAL)

    @classmethod
    def gaussian(cls, conjugation: bool = True) -> "FieldSpec":
        inv = Involution.CONJUGATION if conjugation else Involution.IDENTITY
        return cls(FieldKind.GAUSSIAN_RATIONAL, inv)

    @classmethod
    def prime_field(cls, p: int) -> "FieldSpec":
        return cls(FieldKind.PRIME_FIELD, Involution.IDENTITY, p)

    # -- element construction ------------------------------------------------

    def zero(self) -> Scalar:
        return self.from_int(0)

    def one(self) -> Scalar:
        return self.from_int(1)

    def imaginary_unit(self) -> Scalar:
        if self.kind is not FieldKind.GAUSSIAN_RATIONAL:
            raise ValueError("i exists only in the Gaussian rationals")
        return GaussianRational(0, 1)

    def from_int(self, n: int) -> Scalar:
        if self.kind is FieldKind.RATIONAL:
            return Fraction(n)
        if self.kind is FieldKind.GAUSSIAN_RATIONAL:
            return _triple(n, 0, 1)
        return n % self.p

    def coerce(self, x) -> Scalar:
        """Bring x into this field; raises ValueError when impossible."""
        if isinstance(x, str):
            return self.parse_scalar(x)
        if self.kind is FieldKind.RATIONAL:
            if isinstance(x, Fraction):
                return x
            if type(x) is int:  # a bool is not a number
                return Fraction(x)
        elif self.kind is FieldKind.GAUSSIAN_RATIONAL:
            if isinstance(x, GaussianRational):
                return x
            if type(x) is int or isinstance(x, Fraction):
                return GaussianRational(x, 0)
        else:
            if isinstance(x, ModInt):
                if x.p != self.p:
                    raise ValueError("mixed moduli")
                return x.val
            if type(x) is int:
                return x % self.p
            if isinstance(x, Fraction):
                # n/d maps to n * d^-1 mod p
                if x.denominator % self.p == 0:
                    raise ValueError("denominator divisible by the modulus")
                return x.numerator * self.inverse(x.denominator) % self.p
        raise ValueError(f"cannot coerce {_quote_token(x)} into {self}")

    def inverse(self, a: Scalar) -> Scalar:
        """1/a in this field; ZeroDivisionError when a is zero."""
        if self.p is None:
            return self.one() / a
        if a % self.p == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return pow(a, -1, self.p)

    # -- involution ----------------------------------------------------------

    def conjugate(self, a: Scalar) -> Scalar:
        if self.involution is Involution.IDENTITY:
            return a
        return a.conjugate()

    # -- text grammar ----------------------------------------------------------
    # rationals: p/q or p; Gaussian: a+b*i / a-b*i (with liberal parsing of
    # i, -i, b*i, bi); prime field: a decimal residue.

    def parse_scalar(self, text: str) -> Scalar:
        x = _reader(self)(text)
        if self.kind is FieldKind.RATIONAL:
            return Fraction(*x)
        if self.kind is FieldKind.GAUSSIAN_RATIONAL:
            return _reduced(*x)
        return x

    def render_scalar(self, a: Scalar) -> str:
        return str(a)

    def __str__(self):
        if self.kind is FieldKind.PRIME_FIELD:
            return f"GF({self.p})"
        name = "Q" if self.kind is FieldKind.RATIONAL else "Q(i)"
        if self.involution is Involution.CONJUGATION:
            return name + " with conjugation"
        return name


@lru_cache(maxsize=256)
def _reader(field: FieldSpec) -> Callable:
    """The reader of one entry over field, as the ints the matrix rows
    are built from: (n, d) over Q and (a, b, d) over Q(i), d > 0 and
    not necessarily in lowest terms, and a residue in [0, p) over
    GF(p).  A string is read by the text grammar, anything else goes
    through coerce, and either raises the ValueError that parse_scalar
    or coerce raises.  One reader is built per field."""
    if field.kind is FieldKind.RATIONAL:
        grammar, ints = _rational_ints, _numerator_denominator
    elif field.kind is FieldKind.GAUSSIAN_RATIONAL:
        grammar, ints = _gaussian_ints, _gaussian_triple
    else:
        p = field.p

        def grammar(s: str) -> int:
            if not _INTEGER_RE.fullmatch(s):
                raise ValueError(s)
            return int(s) % p

        def ints(x: int) -> int:
            return x % p

    def read(x):
        if not isinstance(x, str):
            return ints(x if type(x) is int else field.coerce(x))
        # ASCII whitespace only: str.strip() would also take the
        # Unicode spaces a JSON string can carry, such as U+2003
        s = x.strip(" \t\n\r\f\v")
        try:
            return grammar(s)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"invalid scalar {_quote_token(x)}" if s
                             else "empty scalar") from None

    return read


def _numerator_denominator(x) -> tuple[int, int]:
    return x.numerator, x.denominator


def _gaussian_triple(x) -> tuple[int, int, int]:
    if type(x) is int:
        return x, 0, 1
    return x._a, x._b, x._d


def _quote_token(token) -> str:
    """repr(token) for an error message, cut after 40 characters so
    that a huge token cannot make a huge message."""
    r = repr(token)
    return r if len(r) <= 40 else r[:40] + "…"


# one ASCII integer grammar, for GF(p) tokens and the grid headers,
# and one rational grammar, p or p/q, for Q and both parts of Q(i).
# int() alone also takes "_" separators and any Unicode digit, and
# Fraction decimals and exponents, and with them a short token such as
# 1e999999999 that builds an enormous integer.
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")
_RAT = r"[0-9]+(?:/[0-9]+)?"
_RATIONAL_RE = re.compile(rf"[+-]?{_RAT}")

_GAUSSIAN_RE = re.compile(
    r"^(?:"
    rf"(?P<real>[+-]?{_RAT})"
    rf"|(?P<s0>[+-]?)(?:(?P<c0>{_RAT})\*?)?i"
    rf"|(?P<real1>[+-]?{_RAT})(?P<s1>[+-])(?:(?P<c1>{_RAT})\*?)?i"
    r")$"
)


def _ratio(s: str) -> tuple[int, int]:
    """(n, d) with d > 0 for a token that matched [+-]?_RAT, read with
    int(): Fraction(s) would run its own regex over the token again.
    ZeroDivisionError for a zero denominator, as from Fraction(s)."""
    num, _, den = s.partition("/")
    d = int(den) if den else 1
    if not d:
        raise ZeroDivisionError(s)
    return int(num), d


def _rational_ints(s: str) -> tuple[int, int]:
    if not _RATIONAL_RE.fullmatch(s):
        raise ValueError(s)
    return _ratio(s)


def _gaussian_ints(s: str) -> tuple[int, int, int]:
    """(a, b, d) with d > 0 for a Q(i) token, (a + b*i)/d not
    necessarily in lowest terms; ValueError off the grammar."""
    m = _GAUSSIAN_RE.match(s)
    if m is None:
        raise ValueError(s)
    if m["real"] is not None:
        a, d = _ratio(m["real"])
        return a, 0, d
    if m["real1"] is not None:
        a, d = _ratio(m["real1"])
        sign, coef = m["s1"], m["c1"]
    else:
        a, d = 0, 1
        sign, coef = m["s0"], m["c0"]
    b, e = _ratio(coef) if coef else (1, 1)
    if sign == "-":
        b = -b
    # (a/d) + (b/e)*i = (a*e + b*d*i) / (d*e)
    return a * e, b * d, d * e
