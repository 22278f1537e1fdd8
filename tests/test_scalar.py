"""Field-with-involution scalar layer."""

import copy
import math
import operator
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from congru import (FieldKind, FieldSpec, GaussianRational, Involution,
                    Matrix, ModInt)
from congru.scalar import _is_prime

from conftest import ALL_FIELDS, GAUSSIAN_CONJ, GF7, RATIONALS, scalar_strategy

_small = st.integers(-6, 6)
_gauss = st.builds(
    lambda a, b, c, d: GaussianRational(Fraction(a, c), Fraction(b, d)),
    _small, _small, st.integers(1, 5), st.integers(1, 5))


class TestGaussianRational:
    def test_arithmetic_identities(self):
        x = GaussianRational(Fraction(1, 2), Fraction(-3))
        y = GaussianRational(Fraction(2), Fraction(1, 4))
        assert x + y - y == x
        assert (x * y) / y == x
        assert x * GaussianRational(1, 0) == x

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GaussianRational(1, 1) / GaussianRational(0, 0)

    def test_i_squared(self):
        i = GaussianRational(0, 1)
        assert i * i == GaussianRational(-1, 0)

    def test_hash_matches_fraction_when_real(self):
        assert hash(GaussianRational(Fraction(3, 4), 0)) \
            == hash(Fraction(3, 4))

    def test_immutable(self):
        x = GaussianRational(1, 2)
        with pytest.raises(AttributeError):
            x.re = Fraction(5)

    @given(_gauss, _gauss)
    def test_conjugate_is_ring_involution(self, x, y):
        assert x.conjugate().conjugate() == x
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()

    @given(_gauss)
    def test_norm_via_conjugate(self, x):
        n = x * x.conjugate()
        assert n.im == 0 and n.re >= 0


# A reference for Q(i) that shares no code with the integer triple: a
# pair (re, im) of Fractions and the textbook formulas.

def _ref_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def _ref_sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def _ref_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n,
            (x[1] * y[0] - x[0] * y[1]) / n)


def _ref_str(x):
    re, im = x
    if im == 0:
        return str(re)
    sign = "+" if im > 0 else "-"
    coeff = "" if abs(im) == 1 else f"{abs(im)}*"
    if re == 0:
        return f"{'-' if im < 0 else ''}{coeff}i"
    return f"{re}{sign}{coeff}i"


def _ref_hash(x):
    return hash(x[0]) if x[1] == 0 else hash(x)


_REF_OPS = {"+": (operator.add, _ref_add), "-": (operator.sub, _ref_sub),
            "*": (operator.mul, _ref_mul), "/": (operator.truediv, _ref_div)}

# numerators up to 2**70, denominators of either sign, and zero
_ref_rat = st.builds(Fraction, st.integers(-2**70, 2**70)
                     | st.integers(-9, 9),
                     st.integers(-12, 12).filter(bool))


@st.composite
def _ref_operand(draw):
    """(value, reference pair): a GaussianRational, an int or a
    Fraction."""
    kind = draw(st.sampled_from(["gaussian", "int", "fraction"]))
    if kind == "int":
        n = draw(st.integers(-9, 9))
        return n, (Fraction(n), Fraction(0))
    re = draw(_ref_rat)
    if kind == "fraction":
        return re, (re, Fraction(0))
    im = draw(_ref_rat)
    return GaussianRational(re, im), (re, im)


def _assert_matches(got, ref):
    assert isinstance(got, GaussianRational)
    assert got._d > 0 and math.gcd(got._a, got._b, got._d) == 1
    assert (got.re, got.im) == ref
    assert type(got.re) is Fraction and type(got.im) is Fraction
    assert got == GaussianRational(*ref) and GaussianRational(*ref) == got
    assert hash(got) == _ref_hash(ref)
    assert bool(got) == (bool(ref[0]) or bool(ref[1]))
    assert str(got) == _ref_str(ref)
    if ref[1] == 0:
        assert got == ref[0] and ref[0] == got
        assert hash(got) == hash(ref[0])


class TestGaussianRationalAgainstReference:
    @given(_ref_operand(), _ref_operand(), st.sampled_from(sorted(_REF_OPS)))
    def test_binary_operators(self, x, y, op):
        (x, px), (y, py) = x, y
        assume(isinstance(x, GaussianRational)
               or isinstance(y, GaussianRational))
        apply, ref = _REF_OPS[op]
        if op == "/" and py == (0, 0):
            with pytest.raises(ZeroDivisionError):
                apply(x, y)
            return
        _assert_matches(apply(x, y), ref(px, py))

    @given(_ref_operand())
    def test_unary_operators(self, x):
        x, px = x
        if not isinstance(x, GaussianRational):
            x = GaussianRational(x)
        _assert_matches(x, px)
        _assert_matches(-x, (-px[0], -px[1]))
        _assert_matches(x.conjugate(), (px[0], -px[1]))
        assert +x is x

    @given(_ref_operand(), _ref_operand())
    def test_equality_and_hash(self, x, y):
        (x, px), (y, py) = x, y
        assume(isinstance(x, GaussianRational)
               or isinstance(y, GaussianRational))
        assert (x == y) == (px == py) == (y == x)
        assert (x != y) == (px != py)
        if px == py:
            assert hash(x) == hash(y)

    @pytest.mark.parametrize("x, zero", [
        (GaussianRational(Fraction(-3, 4), 5), 0),
        (GaussianRational(Fraction(-3, 4), 5), Fraction(0)),
        (GaussianRational(Fraction(-3, 4), 5), GaussianRational()),
        (1, GaussianRational()),
        (Fraction(1, 2), GaussianRational(0, 0)),
    ])
    def test_division_by_zero(self, x, zero):
        with pytest.raises(ZeroDivisionError):
            x / zero


class TestModInt:
    def test_negative_lift(self):
        assert ModInt(-1, 7) == 6

    def test_coerces_to_a_plain_residue(self):
        x = GF7.coerce(ModInt(-1, 7))
        assert type(x) is int and x == 6


def _trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


_COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
}


@pytest.mark.parametrize("how", _COPIES)
class TestCopyAndPickle:
    def test_gaussian_rational(self, how):
        x = GaussianRational(Fraction(-3, 4), Fraction(5, 6))
        y = _COPIES[how](x)
        assert type(y) is GaussianRational
        assert y == x and (y.re, y.im) == (x.re, x.im)
        assert (y._a, y._b, y._d) == (x._a, x._b, x._d)
        with pytest.raises(AttributeError, match="immutable"):
            y._a = 0

    def test_mod_int(self, how):
        y = _COPIES[how](ModInt(10, 7))
        assert type(y) is ModInt
        assert (y.val, y.p) == (3, 7)
        with pytest.raises(AttributeError, match="immutable"):
            y.val = 0

    @pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
    def test_matrix(self, how, field):
        c = field.inverse(field.from_int(2))
        if field.kind is FieldKind.GAUSSIAN_RATIONAL:
            c = c * (field.one() + field.imaginary_unit())
        a = Matrix.from_rows(field, [[1, 0, -1], [3, 2, 0]]).scale(c)
        b = _COPIES[how](a)
        assert b == a
        assert b.to_text() == a.to_text()
        assert b.field == a.field


class TestIsPrime:
    def test_agrees_with_a_sieve_below_200000(self):
        limit = 200_000
        sieve = bytearray([1]) * limit
        sieve[0] = sieve[1] = 0
        for d in range(2, int(limit ** 0.5) + 1):
            if sieve[d]:
                sieve[d * d::d] = bytes(len(range(d * d, limit, d)))
        assert [n for n in range(limit) if _is_prime(n)] \
            == [n for n in range(limit) if sieve[n]]

    def test_agrees_with_trial_division_near_2_31(self):
        rng = random.Random(0)
        for n in [2**31 - 1, 2**31 - 19] + [
                rng.randrange(2**31 - 10**6, 2**31) for _ in range(40)]:
            assert _is_prime(n) == _trial_division(n), n

    @pytest.mark.parametrize("n", [2047, 3277, 1373653, 25326001])
    def test_rejects_strong_pseudoprimes(self, n):
        # strong pseudoprimes to base 2; 1373653 also to base 3, and
        # 25326001 to bases 3 and 5
        assert not _trial_division(n)
        assert not _is_prime(n)


class TestFieldSpec:
    def test_conjugation_requires_gaussian(self):
        with pytest.raises(ValueError, match="Gaussian"):
            FieldSpec(FieldKind.RATIONAL, Involution.CONJUGATION)

    def test_prime_field_requires_modulus(self):
        with pytest.raises(ValueError, match="modulus"):
            FieldSpec(FieldKind.PRIME_FIELD)

    def test_modulus_must_be_prime(self):
        for p in (15, 7.0, 11.0):
            with pytest.raises(ValueError, match="not prime"):
                FieldSpec.prime_field(p)

    def test_modulus_bound(self):
        with pytest.raises(ValueError, match="2\\*\\*31"):
            FieldSpec.prime_field(2**31 + 11)

    def test_modulus_only_for_prime_field(self):
        with pytest.raises(ValueError, match="only meaningful"):
            FieldSpec(FieldKind.RATIONAL, p=7)

    def test_identity_involution_over_gaussian_is_legal(self):
        f = FieldSpec.gaussian(conjugation=False)
        x = f.parse_scalar("1+2*i")
        assert f.conjugate(x) == x

    def test_conjugate_flips_imaginary(self):
        x = GAUSSIAN_CONJ.parse_scalar("1+2*i")
        assert GAUSSIAN_CONJ.conjugate(x) == GAUSSIAN_CONJ.parse_scalar(
            "1-2*i")

    def test_coerce_fraction_into_prime_field(self):
        # 1/2 = 2^-1 = 4 in GF(7)
        assert GF7.coerce(Fraction(1, 2)) == 4
        with pytest.raises(ValueError, match="divisible by the modulus"):
            GF7.coerce(Fraction(3, 14))

    @pytest.mark.parametrize("field", [RATIONALS, GF7], ids=str)
    def test_imaginary_unit_only_in_gaussian(self, field):
        with pytest.raises(ValueError, match="only in the Gaussian"):
            field.imaginary_unit()

    def test_coerce_string(self):
        assert RATIONALS.coerce("-3/4") == Fraction(-3, 4)

    def test_coerce_mixed_moduli(self):
        with pytest.raises(ValueError, match="mixed moduli"):
            GF7.coerce(ModInt(1, 11))

    @pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
    def test_inverse_of_zero_raises(self, field):
        with pytest.raises(ZeroDivisionError):
            field.inverse(field.zero())

    def test_prime_field_inverse(self):
        assert GF7.inverse(2) == 4
        assert GF7.coerce(Fraction(3, 5)) == 3 * GF7.inverse(5) % 7


class TestScalarGrammar:
    @pytest.mark.parametrize("text,re_part,im_part", [
        ("i", 0, 1),
        ("-i", 0, -1),
        ("3i", 0, 3),
        ("3*i", 0, 3),
        ("-2/3*i", 0, Fraction(-2, 3)),
        ("1/2-3/4*i", Fraction(1, 2), Fraction(-3, 4)),
        ("1+i", 1, 1),
        ("2-i", 2, -1),
        ("1+2i", 1, 2),
        ("0", 0, 0),
        ("-7/2", Fraction(-7, 2), 0),
    ])
    def test_gaussian_accepted_forms(self, text, re_part, im_part):
        got = GAUSSIAN_CONJ.parse_scalar(text)
        assert got == GaussianRational(Fraction(re_part), Fraction(im_part))

    @pytest.mark.parametrize("bad", [
        "", "x", "1+", "i2", "++i", "1 + i", "1/0", "i*3", "2ii",
        "1_0", "\u0661\u0662", "\uff11\uff12", "1_0+i", "1+\u0662*i",
    ])
    def test_gaussian_rejected_forms(self, bad):
        with pytest.raises(ValueError, match="scalar"):
            GAUSSIAN_CONJ.parse_scalar(bad)

    @pytest.mark.parametrize("bad", [
        "0.5", "1e5", "1e5000", "1e999999999", "1/2e3", ".5", "1_0", "/2",
        "1/", "1 /2", "i", "\u0661\u0662", "\uff11\uff12", "1/\u0662",
    ])
    def test_rational_rejected_forms(self, bad):
        # Q shares the p or p/q grammar of the Q(i) parts: a decimal or
        # exponent literal would let one short token declare a huge bigint
        with pytest.raises(ValueError, match="scalar"):
            RATIONALS.parse_scalar(bad)

    def test_real_gaussian_renders_plain(self):
        assert GAUSSIAN_CONJ.render_scalar(GaussianRational(Fraction(3), 0)) \
            == "3"

    @pytest.mark.parametrize("x,text", [
        (GaussianRational(3, 0), "3"),
        (GaussianRational(0, 1), "i"),
        (GaussianRational(0, -1), "-i"),
        (GaussianRational(0, -2), "-2*i"),
        (GaussianRational(1, -1), "1-i"),
        (GaussianRational(-1, Fraction(5, 3)), "-1+5/3*i"),
        (GaussianRational(Fraction(1, 2), Fraction(-3, 4)), "1/2-3/4*i"),
    ])
    def test_str_is_the_input_grammar(self, x, text):
        # str() and the CLI's matrix writer render Q(i) the same way
        assert str(x) == text
        assert Matrix.from_rows(GAUSSIAN_CONJ, [[x]]).to_text() \
            == f"1 1\n{text}\n"
        assert GAUSSIAN_CONJ.parse_scalar(str(x)) == x

    @pytest.mark.parametrize("bad", [
        "", "x", "0.5", "1e5", "1/2", "i", "+", "1_0", "1_000",
        "\u0661\u0662", "\uff11\uff12", "0x1f",
    ])
    def test_prime_rejected_forms(self, bad):
        # a residue is [+-]?[0-9]+: int() alone would also read "_"
        # separators and every Unicode digit
        with pytest.raises(ValueError, match="scalar"):
            GF7.parse_scalar(bad)

    def test_prime_field_residue(self):
        assert GF7.parse_scalar("13") == 6
        assert GF7.render_scalar(GF7.from_int(13)) == "6"

    @pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
    def test_render_parse_roundtrip_examples(self, field):
        for n in (-5, 0, 1, 3):
            x = field.from_int(n)
            assert field.parse_scalar(field.render_scalar(x)) == x


@pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
@given(data=st.data())
def test_render_parse_roundtrip(field, data):
    x = data.draw(scalar_strategy(field))
    assert field.parse_scalar(field.render_scalar(x)) == x


@pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
@given(data=st.data())
def test_involution_axioms(field, data):
    x = data.draw(scalar_strategy(field))
    y = data.draw(scalar_strategy(field))
    c = field.conjugate
    assert c(c(x)) == x
    assert c(x + y) == c(x) + c(y)
    assert c(x * y) == c(x) * c(y)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
@given(data=st.data())
def test_field_axioms(field, data):
    # the arithmetic Matrix applies: Python operators on the stored
    # entries, reduced mod p over GF(p), and inversion by the field
    def reduce(v):
        return v if field.p is None else v % field.p

    x = data.draw(scalar_strategy(field))
    y = data.draw(scalar_strategy(field))
    assert reduce((x + y) - y) == x
    if x:
        assert reduce(x * field.inverse(x)) == field.one()
