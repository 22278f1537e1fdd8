"""Shared strategies and reference helpers for the tests.

Matrices stay small (side <= 5) so exact elimination keeps hypothesis
runs fast; the acceptance tests cover the larger seeded workloads.
"""

import random

import pytest
from hypothesis import strategies as st

from congru import (FieldKind, FieldSpec, Matrix, direct_sum, jordan_block,
                    rank)

RATIONALS = FieldSpec.rationals()
GAUSSIAN_CONJ = FieldSpec.gaussian()
GAUSSIAN_IDENT = FieldSpec.gaussian(conjugation=False)
GF7 = FieldSpec.prime_field(7)

ALL_FIELDS = (RATIONALS, GAUSSIAN_CONJ, GAUSSIAN_IDENT, GF7)

# tokens near the grammars of every field, valid and not
NEAR_GRAMMAR_TOKENS = [
    "0", "1", "-2", "+3", "7/2", "-1/3", "1/0", "i", "-i", "2i", "1+2*i",
    "1/2-3/4*i", "0.5", "-1.5e3", "1e5000", "1e999999999", "nan", "inf",
    "1+2j", "x", "/", "*i", "1_0", "٣", "\x00",
]

# Numbers outside the input grammars: digits are ASCII 0-9 with no "_",
# headers and JSON rows/cols are integers, true/false is no number, and
# only ASCII whitespace may pad a JSON string entry.  Each is (--field
# value, document), a JSON document as a dict; prime fields read
# modulo 7.  Library readers raise MatrixParseError on each, and the
# CLI exits 1.
MALFORMED_NUMBERS = [
    *((f, f"1 1\n{tok}\n") for f in
      ("rational", "gaussian-rational", "prime-field")
      for tok in ("1_0", "1_000", "\u0661\u0662", "\uff11\uff12")),
    ("rational", "0_1 0_1\n5\n"),
    ("rational", "\u0661 \u0661\n5\n"),
    ("real", "0_1 0_1\n5\n"),
    *(("rational", {"rows": v, "cols": v, "entries": ["1"]})
      for v in (1.9, True, "1")),
    ("complex", {"rows": 1.0, "cols": 1, "entries": [1.0]}),
    *((f, {"rows": 1, "cols": 1, "entries": [b]})
      for f in ("rational", "gaussian-rational", "prime-field", "real",
                "complex") for b in (True, False)),
    # EM SPACE, NO-BREAK SPACE and IDEOGRAPHIC SPACE around a 7
    *((f, {"rows": 1, "cols": 1, "entries": [e]})
      for f in ("rational", "gaussian-rational", "prime-field", "real",
                "complex")
      for e in ("\u20037", "7\u00a0", "\u30007")),
    ("complex", {"rows": 1, "cols": 1, "entries": ["1_0+2*i"]}),
    *((f, f"1 1\n{tok}\n") for f in ("real", "complex")
      for tok in ("1_0", "\u0661\u0662", "\uff11\uff12")),
    # a header integer past the interpreter's int() digit limit
    *(pytest.param(f, "9" * 5000 + " 1\n1\n", id=f"{f}-5000-digit-header")
      for f in ("rational", "real")),
]

_small = st.integers(-4, 4)


def scalar_strategy(field: FieldSpec):
    if field.kind is FieldKind.GAUSSIAN_RATIONAL:
        return st.builds(
            lambda a, b: field.coerce(a) + field.imaginary_unit()
            * field.coerce(b),
            _small, _small)
    return st.builds(field.from_int, _small)


@st.composite
def square_matrix(draw, field: FieldSpec, min_n: int = 0, max_n: int = 5):
    n = draw(st.integers(min_n, max_n))
    sc = scalar_strategy(field)
    rows = [[draw(sc) for _ in range(n)] for _ in range(n)]
    return Matrix.from_rows(field, rows, cols=n)


@st.composite
def singular_matrix(draw, field: FieldSpec, max_n: int = 5):
    """A square matrix guaranteed singular: one row is forced to a
    scalar multiple of another (or zero for side 1)."""
    a = draw(square_matrix(field, min_n=1, max_n=max_n))
    n = a.rows
    rows = [list(a.row(i)) for i in range(n)]
    if n == 1:
        rows[0] = [field.zero()]
    else:
        i, j = draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                    .filter(lambda t: t[0] != t[1]))
        c = draw(scalar_strategy(field))
        rows[i] = [c * x for x in rows[j]]
    return Matrix.from_rows(field, rows, cols=n)


@st.composite
def fielded_square(draw, fields=ALL_FIELDS, max_n: int = 5):
    field = draw(st.sampled_from(fields))
    return draw(square_matrix(field, max_n=max_n))


@st.composite
def m_sequence(draw, max_tau: int = 3, max_m1: int = 4):
    """A valid stage-parameter sequence: even length, non-increasing,
    next-to-last entry positive."""
    tau = draw(st.integers(1, max_tau))
    first = draw(st.integers(1, max_m1))
    seq = [first]
    for _ in range(2 * tau - 2):
        seq.append(draw(st.integers(1, seq[-1])))
    seq.append(draw(st.integers(0, seq[-1])))
    return tuple(seq)


def scrambled_sum(rng: random.Random, field: FieldSpec, b_size: int,
                  jordan_sizes, bound: int = 2):
    """(a, canonical) where a = s.star * canonical * s for a random
    nonsingular integer s, canonical = regular + ascending Jordan
    blocks."""
    from congru.verify import _draw_nonsingular

    blocks = [_draw_nonsingular(rng, field, b_size, bound)]
    blocks.extend(jordan_block(field, k) for k in sorted(jordan_sizes))
    canonical = direct_sum(field, blocks)
    s = _draw_nonsingular(rng, field, canonical.rows, bound)
    return (s.star * canonical) * s, canonical


def lemma6_layout(field: FieldSpec, k: int) -> Matrix:
    """The anti-diagonal Kronecker layout of J_k, written out entry by
    entry from Lemma 6: odd k = 2l-1 is [[0, G^T], [F, 0]] with the
    (l-1) x l blocks F = [I 0] and G = [0 I]; even k = 2l is
    [[0, I_l], [J_l, 0]]."""
    ell = (k + 1) // 2
    if k % 2:
        ones = [(i + 1, ell + i) for i in range(ell - 1)]
        ones += [(ell + i, i) for i in range(ell - 1)]
    else:
        ones = [(i, ell + i) for i in range(ell)]
        ones += [(ell + i, i + 1) for i in range(ell - 1)]
    return Matrix.zero_one(field, k, k, ones)


def nilpotent_jordan_oracle(a: Matrix) -> dict[int, int]:
    """Jordan block sizes of a nilpotent matrix from ranks of its
    powers alone: with r_k = rank(a^k), the number of blocks of size k
    is r_{k-1} - 2 r_k + r_{k+1}.  Raises if some power never hits
    zero."""
    if not a.is_square():
        raise ValueError("oracle requires a square matrix")
    n = a.rows
    ranks = [n]
    power = a
    while ranks[-1]:
        ranks.append(rank(power))
        if len(ranks) > n + 1:
            raise ValueError("not nilpotent")
        power = power * a
    ranks.append(0)
    out = {}
    for k in range(1, len(ranks) - 1):
        mult = ranks[k - 1] - 2 * ranks[k] + ranks[k + 1]
        if mult < 0:
            raise ValueError("not nilpotent")
        if mult:
            out[k] = mult
    return out
