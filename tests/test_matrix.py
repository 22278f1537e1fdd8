"""Exact matrix layer: formats, elimination, invariants, builders."""

import ast
import math
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import congru
from congru import (
    FieldKind,
    FieldSpec,
    GaussianRational,
    Invariants,
    Matrix,
    MatrixParseError,
    assemble,
    check_transform,
    direct_sum,
    full_decomposition,
    invariants,
    inverse,
    jordan_block,
    nullity,
    nullspace,
    rank,
    solve,
)
from congru.float_unitary import _read_float
from congru.matrix import (_SLOTS, _codec, _eliminate, _packing, _Packing,
                           _read_json, _read_text, row_echelon_transform,
                           unit_completion)

from conftest import (ALL_FIELDS, GAUSSIAN_CONJ, GAUSSIAN_IDENT, GF7,
                      MALFORMED_NUMBERS, RATIONALS, fielded_square,
                      scalar_strategy, square_matrix)


def _mat(field, rows):
    return Matrix.from_rows(field, rows)


def _plus_identity(a: Matrix, c) -> Matrix:
    """a + c * I for a square a, entry by entry in the field's scalar
    arithmetic."""
    return Matrix.from_rows(a.field, [
        [x + c if i == j else x for j, x in enumerate(a.row(i))]
        for i in range(a.rows)], cols=a.cols)


class TestConstruction:
    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            _mat(RATIONALS, [[1, 2], [3]])

    def test_zero_rows_needs_cols(self):
        with pytest.raises(ValueError, match="cols"):
            Matrix.from_rows(RATIONALS, [])
        assert Matrix.from_rows(RATIONALS, [], cols=3).shape == (0, 3)
        with pytest.raises(ValueError, match="cols does not match"):
            Matrix.from_rows(RATIONALS, [[1, 2]], cols=3)

    @pytest.mark.parametrize("cols", [-1, True])
    def test_impossible_cols_rejected(self, cols):
        with pytest.raises(ValueError, match="cols must be an int >= 0"):
            Matrix.from_rows(RATIONALS, [], cols=cols)

    def test_from_blocks_dimension_check(self):
        a = Matrix.identity(RATIONALS, 2)
        b = Matrix.zeros(RATIONALS, 1, 1)
        with pytest.raises(ValueError, match="inconsistent block"):
            Matrix.from_blocks(RATIONALS, [[a, b]])
        with pytest.raises(ValueError, match="ragged block grid"):
            Matrix.from_blocks(RATIONALS, [[a, a], [a]])

    def test_zero_dimension_conventions(self):
        assert Matrix.zeros(RATIONALS, 0, 0).is_nonsingular()
        assert Matrix.zeros(RATIONALS, 0, 4).shape == (0, 4)
        s = direct_sum(RATIONALS, [Matrix.zeros(RATIONALS, 2, 0),
                                   Matrix.identity(RATIONALS, 1)])
        assert s.shape == (3, 1)
        assert s[2, 0] == 1


class TestTextFormat:
    def test_worked_example_parse(self):
        a = Matrix.from_text(GAUSSIAN_CONJ, "2 2\n1 -i\ni 1\n")
        assert a[0, 1] == GAUSSIAN_CONJ.parse_scalar("-i")

    def test_missing_header(self):
        with pytest.raises(MatrixParseError) as ei:
            Matrix.from_text(RATIONALS, "")
        assert (ei.value.line, ei.value.column) == (1, 1)

    def test_bad_entry_position(self):
        with pytest.raises(MatrixParseError) as ei:
            Matrix.from_text(RATIONALS, "2 2\n1 2\n3 x\n")
        assert (ei.value.line, ei.value.column) == (3, 3)

    def test_too_many_entries_position(self):
        with pytest.raises(MatrixParseError) as ei:
            Matrix.from_text(RATIONALS, "1 2\n1 2 3\n")
        assert ei.value.line == 2
        assert ei.value.column == 5

    def test_too_few_entries(self):
        with pytest.raises(MatrixParseError) as ei:
            Matrix.from_text(RATIONALS, "1 3\n1 2\n")
        assert ei.value.line == 2

    def test_trailing_content_rejected(self):
        with pytest.raises(MatrixParseError, match="trailing content"):
            Matrix.from_text(RATIONALS, "1 1\n1\njunk\n")

    def test_zero_cols_blank_lines_optional(self):
        # rows without columns are refused at the header, before any
        # line is visited, so a huge row count costs nothing
        for text in ("3 0\n", "3 0\n\n\n\n", "3000000000 0\n"):
            with pytest.raises(MatrixParseError, match="0 columns") as ei:
                Matrix.from_text(RATIONALS, text)
            assert (ei.value.line, ei.value.column) == (1, 1)
        with pytest.raises(MatrixParseError, match="0 columns"):
            Matrix.from_json_dict(
                RATIONALS, {"rows": 3000000000, "cols": 0, "entries": []})

    def test_zero_by_zero(self):
        a = Matrix.from_text(RATIONALS, "0 0\n")
        assert a.shape == (0, 0)
        assert a.to_text() == "0 0\n"


class TestJsonFormat:
    def test_roundtrip_and_idempotence(self):
        a = _mat(GAUSSIAN_CONJ, [["1+2*i", "-i"], ["0", "3/4"]])
        d = a.to_json_dict()
        b = Matrix.from_json_dict(GAUSSIAN_CONJ, d)
        assert b == a
        assert b.to_json_dict() == d

    def test_entry_count_mismatch(self):
        with pytest.raises(MatrixParseError):
            Matrix.from_json_dict(RATIONALS,
                                  {"rows": 2, "cols": 2, "entries": ["1"]})

    def test_missing_keys(self):
        with pytest.raises(MatrixParseError, match="rows, cols, entries"):
            Matrix.from_json_dict(RATIONALS, {"rows": 1})

    @pytest.mark.parametrize("field", [RATIONALS, GAUSSIAN_CONJ, GF7],
                             ids=str)
    def test_string_entries_pad_with_ascii_whitespace(self, field):
        doc = {"rows": 1, "cols": 3, "entries": [" 7 ", "\t7\n", "\r7\f\v"]}
        assert Matrix.from_json_dict(field, doc) == _mat(field, [[7] * 3])


@pytest.mark.parametrize("field_flag, doc", MALFORMED_NUMBERS)
def test_numbers_outside_the_grammar_are_parse_errors(field_flag, doc):
    with pytest.raises(MatrixParseError):
        if field_flag in ("real", "complex"):
            _read_float(_read_json if isinstance(doc, dict) else _read_text,
                        doc, field_flag == "complex")
        else:
            kind = FieldKind(field_flag)
            field = FieldSpec(kind, p=7 if kind is FieldKind.PRIME_FIELD
                              else None)
            read = (Matrix.from_json_dict if isinstance(doc, dict)
                    else Matrix.from_text)
            read(field, doc)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
@given(data=st.data())
@settings(max_examples=40)
def test_text_roundtrip(field, data):
    a = data.draw(square_matrix(field))
    assert Matrix.from_text(field, a.to_text()) == a


@pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
@given(data=st.data())
@settings(max_examples=40)
def test_json_roundtrip(field, data):
    a = data.draw(square_matrix(field))
    assert Matrix.from_json_dict(field, a.to_json_dict()) == a


class TestStar:
    def test_conjugate_transpose(self):
        a = _mat(GAUSSIAN_CONJ, [["i", "1+i"], ["0", "2"]])
        s = a.star
        assert s[0, 0] == GAUSSIAN_CONJ.parse_scalar("-i")
        assert s[1, 0] == GAUSSIAN_CONJ.parse_scalar("1-i")

    @given(data=st.data())
    @settings(max_examples=30)
    def test_star_antiautomorphism(self, data):
        a = data.draw(fielded_square(max_n=3))
        b = data.draw(square_matrix(a.field, min_n=a.rows, max_n=a.rows))
        assert (a * b).star == b.star * a.star
        assert a.star.star == a

    @pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_star_and_transpose_entries(self, field, data):
        rows, cols = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
        sc = scalar_strategy(field)
        a = Matrix.from_rows(
            field, [[data.draw(sc) for _ in range(cols)] for _ in range(rows)],
            cols=cols)
        t, s = a.transpose(), a.star
        assert t.shape == s.shape == (cols, rows)
        for i in range(rows):
            for j in range(cols):
                assert t[j, i] == a[i, j]
                assert s[j, i] == field.conjugate(a[i, j])
        assert t.transpose() == a and s.star == a

    @pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_star_and_transpose_of_empty_shapes(self, field, shape):
        a = Matrix.zeros(field, *shape)
        want = Matrix.zeros(field, shape[1], shape[0])
        assert a.transpose() == want and a.star == want
        assert want.transpose() == a and want.star == a

    @pytest.mark.parametrize("field", [RATIONALS, GAUSSIAN_IDENT, GF7],
                             ids=str)
    def test_star_under_the_identity_is_the_transpose(self, field,
                                                      monkeypatch):
        def no_conjugate(self, x):
            raise AssertionError("star conjugated under the identity")

        rows = [[1, 2, 0], [0, 3, 4]]
        if field is GAUSSIAN_IDENT:
            # entries that a conjugation would change
            c = field.one() + field.imaginary_unit()
            rows = [[c * x for x in row] for row in rows]
        a = _mat(field, rows)
        monkeypatch.setattr(FieldSpec, "conjugate", no_conjugate)
        assert a.star == a.transpose()


class TestTake:
    a = _mat(RATIONALS, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])

    def test_rows_in_the_given_order(self):
        assert self.a.take([2, 0, 2]) == _mat(
            RATIONALS, [[7, 8, 9], [1, 2, 3], [7, 8, 9]])
        assert self.a.take(range(3)) == self.a

    def test_no_rows(self):
        assert self.a.take([]) == Matrix.zeros(RATIONALS, 0, 3)
        assert self.a.take([], [1, None]) == Matrix.zeros(RATIONALS, 0, 2)

    @pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
    def test_none_columns_are_zero(self, field):
        a = _mat(field, [[1, 2], [3, 4]])
        assert a.take([1, 0], [None, 0, None, 1, 1]) == _mat(
            field, [[0, 3, 0, 4, 4], [0, 1, 0, 2, 2]])
        assert a.take([0], []) == Matrix.zeros(field, 1, 0)

    @pytest.mark.parametrize("rows, cols", [
        ([3], None), ([-1], None), ([0], [3]), ([0], [-1]), ([0, 5], [0])])
    def test_out_of_range(self, rows, cols):
        with pytest.raises(ValueError, match="out of range"):
            self.a.take(rows, cols)


class TestArithmetic:
    def test_shape_checks(self):
        a, b = Matrix.identity(RATIONALS, 2), Matrix.zeros(RATIONALS, 2, 3)
        with pytest.raises(ValueError, match="dimension mismatch in product"):
            b * a
        for r0, r1, c0, c1 in ((0, 3, 0, 1), (1, 0, 0, 1), (0, 1, -1, 1)):
            with pytest.raises(ValueError, match="block out of range"):
                b.block(r0, r1, c0, c1)


class TestElimination:
    def test_row_echelon_bottom(self):
        a = _mat(RATIONALS, [[0, 0], [1, 2]])
        t, ta, r = _echelon(a)
        assert r == 1
        assert ta.row(1) == (Fraction(0), Fraction(0))
        assert not ta.row(0) == (Fraction(0), Fraction(0))

    def test_solve_inconsistent(self):
        a = _mat(RATIONALS, [[1, 1], [1, 1]])
        b = _mat(RATIONALS, [[0], [1]])
        with pytest.raises(ValueError, match="inconsistent"):
            solve(a, b)

    @pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
    def test_solve_without_right_hand_side_skips_elimination(
            self, field, monkeypatch):
        def no_elimination(*args):
            raise AssertionError("solve eliminated a zero-column system")

        monkeypatch.setattr("congru.matrix._eliminate", no_elimination)
        a = _mat(field, [[1, 2, 0], [2, 4, 0]])
        x = solve(a, Matrix.zeros(field, 2, 0))
        assert x == Matrix.zeros(field, 3, 0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            solve(a, Matrix.zeros(field, 3, 0))
        other = GF7 if field != GF7 else RATIONALS
        with pytest.raises(ValueError, match="mixed fields"):
            solve(a, Matrix.zeros(other, 2, 0))

    def test_inverse_errors(self):
        with pytest.raises(ValueError, match="singular"):
            inverse(_mat(RATIONALS, [[0]]))
        with pytest.raises(ValueError, match="square"):
            inverse(Matrix.zeros(RATIONALS, 1, 2))

    def test_inverse_zero_dim(self):
        e = Matrix.zeros(RATIONALS, 0, 0)
        assert inverse(e) == e


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_rank_nullity_and_nullspace(data):
    a = data.draw(fielded_square())
    r, nl = rank(a), nullity(a)
    assert r + nl == a.cols
    ns = nullspace(a)
    assert ns.shape == (a.cols, nl)
    assert a * ns == Matrix.zeros(a.field, a.rows, nl)


def _echelon(a: Matrix) -> tuple[Matrix, Matrix, int]:
    """row_echelon_transform(a) = (P, L) checked and returned as
    (T, T*a, rank), T = [unit rows at P; L]: P increasing, L*a = 0, T
    nonsingular, and the top rows of T*a are a[P, :]."""
    field, m = a.field, a.rows
    p, l = row_echelon_transform(a)
    r = len(p)
    assert p == sorted(set(p)) and all(0 <= i < m for i in p)
    assert l.shape == (m - r, m)
    assert l * a == Matrix.zeros(field, m - r, a.cols)
    t = Matrix.from_blocks(field, [
        [Matrix.zero_one(field, r, m, enumerate(p))], [l]])
    assert t.is_nonsingular()
    ta = t * a
    assert ta.block(0, r, 0, a.cols) == a.take(p)
    return t, ta, r


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_row_echelon_transform_properties(data):
    a = data.draw(fielded_square())
    t, ta, r = _echelon(a)
    assert r == rank(a)
    for i in range(r, a.rows):
        assert all(not x for x in ta.row(i))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_row_echelon_transform_keeps_the_pivot_rows(data):
    # T = [unit rows at P; L] keeps the rows of a at P on top
    field = data.draw(st.sampled_from(ALL_FIELDS))
    m, n = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    grid = [[data.draw(scalar_strategy(field)) for _ in range(n)]
            for _ in range(m)]
    if m >= 2 and data.draw(st.booleans()):
        # a multiple of an earlier row lowers the rank
        i = data.draw(st.integers(1, m - 1))
        c = data.draw(scalar_strategy(field))
        grid[i] = [c * x for x in grid[data.draw(st.integers(0, i - 1))]]
    a = Matrix.from_rows(field, grid, cols=n)
    _, ta, r = _echelon(a)
    assert r == rank(a)
    assert ta.block(r, m, 0, n) == Matrix.zeros(field, m - r, n)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_solve_recovers_constructed_solution(data):
    a = data.draw(fielded_square(max_n=4))
    y = data.draw(square_matrix(a.field, min_n=a.rows, max_n=a.rows))
    x = solve(a, a * y)
    assert a * x == a * y


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_inverse_of_nonsingular(data):
    a = data.draw(fielded_square(max_n=4))
    if not a.is_nonsingular():
        a = _plus_identity(a, a.field.from_int(7))
        if not a.is_nonsingular():
            return
    assert a * inverse(a) == Matrix.identity(a.field, a.rows)


class TestInvariants:
    def test_zero_matrix(self):
        assert invariants(Matrix.zeros(RATIONALS, 3, 3)) \
            == Invariants(nu=3, zeta=3, kappa=0, rho=0)

    def test_jordan_2(self):
        assert invariants(jordan_block(RATIONALS, 2)) \
            == Invariants(nu=1, zeta=0, kappa=1, rho=0)

    def test_worked_example_both_involutions(self):
        from conftest import GAUSSIAN_IDENT

        text = "2 2\n1 -i\ni 1\n"
        conj = Matrix.from_text(GAUSSIAN_CONJ, text)
        assert invariants(conj) == Invariants(1, 1, 0, 1)
        ident = Matrix.from_text(GAUSSIAN_IDENT, text)
        assert invariants(ident) == Invariants(1, 0, 1, 0)

    def test_requires_square(self):
        with pytest.raises(ValueError, match="square"):
            invariants(Matrix.zeros(RATIONALS, 1, 2))

    def test_nonsingular_all_regular(self):
        assert invariants(Matrix.identity(RATIONALS, 4)) \
            == Invariants(0, 0, 0, 4)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_invariants_sum_to_dimension(data):
    a = data.draw(fielded_square())
    inv = invariants(a)
    assert inv.nu + inv.kappa + inv.rho == a.rows
    assert inv.kappa == inv.nu - inv.zeta
    assert inv.zeta >= 0 and inv.kappa >= 0


class TestBuilders:
    def test_jordan_block_shape(self):
        j = jordan_block(RATIONALS, 3)
        assert j.to_text() == "3 3\n0 1 0\n0 0 1\n0 0 0\n"

    @pytest.mark.parametrize("builder", [jordan_block])
    def test_block_builders_need_a_positive_size(self, builder):
        with pytest.raises(ValueError, match="requires n >= 1"):
            builder(RATIONALS, 0)

    def test_jordan_block_rejects_a_bool(self):
        # True == 1, but a bool is not a size
        with pytest.raises(ValueError, match="requires n >= 1"):
            jordan_block(RATIONALS, True)

    def test_jordan_block_rejects_a_float(self):
        # a size is an int, as in an m-sequence
        with pytest.raises(ValueError, match="requires n >= 1"):
            jordan_block(RATIONALS, 2.5)

    @pytest.mark.parametrize("build", [
        lambda: Matrix.zeros(RATIONALS, -1, 2),
        lambda: Matrix.zeros(RATIONALS, 2, -1),
        lambda: Matrix.identity(RATIONALS, -3),
        lambda: Matrix.zero_one(RATIONALS, 0, -1, []),
        lambda: Matrix.zeros(RATIONALS, True, 2),
        lambda: Matrix.identity(RATIONALS, True),
    ], ids=["zeros-rows", "zeros-cols", "identity", "zero_one",
            "zeros-bool", "identity-bool"])
    def test_impossible_size_rejected(self, build):
        # True == 1, but a bool is not a size
        with pytest.raises(ValueError, match="sizes must be ints >= 0"):
            build()

    @pytest.mark.parametrize("field, one", [
        (GAUSSIAN_CONJ, (0, 2)),  # past the last column, into im
        (RATIONALS, (0, -1)),  # the denominator slot
        (RATIONALS, (-1, 0)),  # the last row, counted from the end
        (RATIONALS, (5, 5)),  # past the last row
    ], ids=["gaussian-col-2", "col--1", "row--1", "row-5"])
    def test_zero_one_coordinate_out_of_range(self, field, one):
        with pytest.raises(ValueError, match="out of range"):
            Matrix.zero_one(field, 2, 2, [one])

    @pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
    def test_zero_one(self, field):
        m = Matrix.zero_one(field, 2, 3, [(0, 2), (1, 0)])
        z, o = field.zero(), field.one()
        assert m == Matrix.from_rows(field, [[z, z, o], [o, z, z]])
        assert Matrix.zero_one(field, 3, 0, []).shape == (3, 0)
        assert Matrix.identity(field, 3) \
            == Matrix.zero_one(field, 3, 3, [(0, 0), (1, 1), (2, 2)])
        assert Matrix.zeros(field, 2, 2) == Matrix.zero_one(field, 2, 2, [])

    def test_direct_sum_of_blocks(self):
        a = _mat(RATIONALS, [[1, 2]])
        b = _mat(RATIONALS, [[3], [4]])
        assert direct_sum(RATIONALS, [a, b]).to_text() \
            == "3 3\n1 2 0\n0 0 3\n0 0 4\n"
        assert direct_sum(RATIONALS, []) == Matrix.zeros(RATIONALS, 0, 0)
        assert direct_sum(RATIONALS, [Matrix.zeros(RATIONALS, 0, 2), b]) \
            == _mat(RATIONALS, [[0, 0, 3], [0, 0, 4]])

    def test_direct_sum_mixed_fields_rejected(self):
        with pytest.raises(ValueError, match="mixed fields"):
            direct_sum(RATIONALS, [Matrix.identity(RATIONALS, 1),
                                   Matrix.identity(GAUSSIAN_CONJ, 1)])


# -- the eliminations against their definitions -------------------------------
# Every elimination runs through one loop, whose row format depends
# on the field: over Q and Q(i) integer rows with one denominator per
# row, and over GF(p) packed ints.  These properties
# check products and eliminations against a plain Gauss-Jordan
# elimination in the field's own arithmetic, on entries up to 2**70 in
# size over Q and Q(i) and on all of GF(2**31 - 1), with zero rows,
# zero columns and empty shapes.  Over Q they also check that only
# Fraction entries come back out.

_BIG = 2 ** 70
GF_BIG = FieldSpec.prime_field(2 ** 31 - 1)
_q_entry = st.one_of(
    st.just(Fraction(0)),
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, _BIG)))
_ENTRIES = {
    RATIONALS: _q_entry,
    GAUSSIAN_CONJ: st.builds(
        lambda re, im: GAUSSIAN_CONJ.coerce(re)
        + GAUSSIAN_CONJ.imaginary_unit() * GAUSSIAN_CONJ.coerce(im),
        _q_entry, _q_entry),
    GF_BIG: st.one_of(st.integers(0, 3), st.integers(0, 2 ** 31 - 2)),
}


def _stored(field, values) -> list:
    p = field.p
    return list(values) if p is None else [x % p for x in values]


@st.composite
def kernel_matrix(draw, field=RATIONALS, rows=None, cols=None, max_side=4):
    if rows is None:
        rows = draw(st.integers(0, max_side))
    if cols is None:
        cols = draw(st.integers(0, max_side))
    entry = _ENTRIES[field]
    entries = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    zero_rows = draw(st.sets(st.integers(0, max(rows - 1, 0))))
    zero_cols = draw(st.sets(st.integers(0, max(cols - 1, 0))))
    if draw(st.booleans()):
        # a row that repeats a multiple of another lowers the rank
        if rows >= 2:
            f = draw(entry)
            entries[-1] = _stored(field, [f * x for x in entries[0]])
    for i in range(rows):
        for j in range(cols):
            if i in zero_rows or j in zero_cols:
                entries[i][j] = field.zero()
    return Matrix.from_rows(field, entries, cols=cols)


def _entries(m: Matrix) -> list:
    return [x for i in range(m.rows) for x in m.row(i)]


def _all_fractions(*mats: Matrix) -> bool:
    return all(type(x) is Fraction for m in mats for x in _entries(m))


def _reference_rref(field, rows: list, ncols: int) -> tuple[list, list]:
    """Plain Gauss-Jordan elimination in the field's arithmetic with
    first-nonzero pivots: (reduced rows, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        k = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        inv = field.inverse(rows[r][c])
        rows[r] = _stored(field, [x * inv for x in rows[r]])
        for k in range(len(rows)):
            if k != r and rows[k][c]:
                f = rows[k][c]
                rows[k] = _stored(
                    field, [x - f * y for x, y in zip(rows[k], rows[r])])
        pivots.append(c)
    return rows, pivots


def _check_rank_and_row_echelon_transform(a: Matrix) -> tuple:
    _, ref_pivots = _reference_rref(
        a.field, [a.row(i) for i in range(a.rows)], a.cols)
    assert rank(a) == len(ref_pivots)
    t, ta, r = _echelon(a)
    assert r == len(ref_pivots)
    assert t * inverse(t) == Matrix.identity(a.field, a.rows)
    top, _ = _reference_rref(a.field, [ta.row(i) for i in range(r)], a.cols)
    assert all(any(row) for row in top)  # the top r rows independent
    assert all(not x for i in range(r, a.rows) for x in ta.row(i))
    return t, ta


def _check_nullspace(a: Matrix) -> Matrix:
    field = a.field
    ref, pivots = _reference_rref(
        field, [a.row(i) for i in range(a.rows)], a.cols)
    free = [c for c in range(a.cols) if c not in pivots]
    ns = nullspace(a)
    assert ns.shape == (a.cols, len(free))
    assert a * ns == Matrix.zeros(field, a.rows, len(free))
    for k, fc in enumerate(free):
        column = [ns[i, k] for i in range(a.cols)]
        want = [field.zero()] * a.cols
        want[fc] = field.one()
        for r, c in enumerate(pivots):
            want[c] = _stored(field, [-ref[r][fc]])[0]
        assert column == want
    return ns


def _check_solve(a: Matrix, b: Matrix) -> Matrix | None:
    width = a.cols + b.cols
    aug, pivots = _reference_rref(
        a.field, [a.row(i) + b.row(i) for i in range(a.rows)], width)
    if any(c >= a.cols for c in pivots):
        with pytest.raises(ValueError, match="inconsistent"):
            solve(a, b)
        return None
    x = solve(a, b)
    assert x.shape == (a.cols, b.cols)
    assert a * x == b
    for c in range(a.cols):
        if c not in pivots:  # free variables are zero
            assert all(not v for v in x.row(c))
    for r, c in enumerate(pivots):
        assert list(x.row(c)) == aug[r][a.cols:]
    return x


def _check_inverse(a: Matrix, boost) -> Matrix | None:
    n = a.rows
    ident = Matrix.identity(a.field, n)
    if boost is not None:
        # mostly nonsingular: add a large multiple of I
        a = _plus_identity(a, boost)
    _, pivots = _reference_rref(a.field, [a.row(i) for i in range(n)], n)
    if len(pivots) < n:
        with pytest.raises(ValueError, match="singular"):
            inverse(a)
        return None
    inv = inverse(a)
    assert a * inv == ident and inv * a == ident
    return inv


def _check_product(a: Matrix, b: Matrix) -> Matrix:
    field = a.field
    ab = a * b
    assert ab.shape == (a.rows, b.cols)
    for i in range(a.rows):
        for j in range(b.cols):
            assert ab[i, j] == _stored(field, [sum(
                (a[i, k] * b[k, j] for k in range(a.cols)), field.zero())])[0]
    return ab


class TestRationalKernels:
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_product_is_the_sum_of_products(self, data):
        a = data.draw(kernel_matrix())
        b = data.draw(kernel_matrix(rows=a.cols))
        assert _all_fractions(_check_product(a, b))

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_rank_and_row_echelon_transform(self, data):
        a = data.draw(kernel_matrix())
        assert _all_fractions(*_check_rank_and_row_echelon_transform(a))

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_nullspace_is_read_off_the_reduced_form(self, data):
        assert _all_fractions(_check_nullspace(data.draw(kernel_matrix())))

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_solve(self, data):
        a = data.draw(kernel_matrix())
        x = _check_solve(a, data.draw(kernel_matrix(rows=a.rows)))
        assert x is None or _all_fractions(x)

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_inverse(self, data):
        n = data.draw(st.integers(0, 4))
        a = data.draw(kernel_matrix(rows=n, cols=n))
        boost = data.draw(st.one_of(st.none(), st.integers(1, _BIG)))
        inv = _check_inverse(a, boost)
        assert inv is None or _all_fractions(inv)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_shapes(self, shape):
        rows, cols = shape
        a = Matrix.zeros(RATIONALS, rows, cols)
        assert (a * Matrix.zeros(RATIONALS, cols, 2)).shape == (rows, 2)
        assert (Matrix.zeros(RATIONALS, 2, rows) * a).shape == (2, cols)
        assert rank(a) == 0
        assert nullspace(a) == Matrix.identity(RATIONALS, cols)
        assert solve(a, Matrix.zeros(RATIONALS, rows, 1)) \
            == Matrix.zeros(RATIONALS, cols, 1)


@pytest.mark.parametrize("field", [GAUSSIAN_CONJ, GF_BIG], ids=str)
class TestFieldKernels:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_product_is_the_sum_of_products(self, field, data):
        a = data.draw(kernel_matrix(field))
        ab = _check_product(a, data.draw(kernel_matrix(field, rows=a.cols)))
        # stored entries: the field's own type, GF(p) ones in [0, p)
        assert all(type(x) is type(field.zero()) for x in _entries(ab))
        assert _entries(ab) == _stored(field, _entries(ab))

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_rank_and_row_echelon_transform(self, field, data):
        _check_rank_and_row_echelon_transform(
            data.draw(kernel_matrix(field)))

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_nullspace_is_read_off_the_reduced_form(self, field, data):
        _check_nullspace(data.draw(kernel_matrix(field)))

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_solve(self, field, data):
        a = data.draw(kernel_matrix(field))
        _check_solve(a, data.draw(kernel_matrix(field, rows=a.rows)))

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_inverse(self, field, data):
        n = data.draw(st.integers(0, 4))
        a = data.draw(kernel_matrix(field, rows=n, cols=n))
        _check_inverse(a, data.draw(st.one_of(st.none(), _ENTRIES[field])))


def test_prime_products_are_reduced():
    # every term is (p - 1)^2 = 1, far above p before the reduction
    p = GF_BIG.p
    a = _mat(GF_BIG, [[p - 1, p - 1, p - 1]])
    assert a * a.transpose() == _mat(GF_BIG, [[3]])
    assert a.transpose() * a == _mat(GF_BIG, [[1] * 3] * 3)


@pytest.mark.parametrize("field", [RATIONALS, GAUSSIAN_CONJ, GF_BIG], ids=str)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_unit_completion(field, data):
    # the top rows of an echelon form are independent, none included
    a = data.draw(kernel_matrix(field))
    p, _ = row_echelon_transform(a)
    e, r = a.take(p), len(p)
    v, v_inv = unit_completion(e)
    n = e.cols
    ident = Matrix.identity(field, n)
    assert e * v == Matrix.from_blocks(field, [
        [Matrix.identity(field, r), Matrix.zeros(field, r, n - r)]])
    assert v_inv * v == ident and v * v_inv == ident
    assert v == Matrix.from_blocks(field, [
        [solve(e, Matrix.identity(field, r)), nullspace(e)]])


# -- packed GF(p) rows at their slot bound ---------------------------------------
# A GF(p) row is one int of w-byte slots, and w covers the most a slot
# can sum: 2m + 1 terms below p^2 in an elimination of m rows, K terms
# in a product with K = len(B's rows).  The property tests above draw
# at most 4x4, far below the bound.  Here dense full-rank inputs of up
# to 40 rows make every row take the most clears, and every product
# term is (p - 1)^2; each result is checked against plain per-entry
# mod-p elimination and sums.

_SLOT_PRIMES = (2, 3, 2 ** 31 - 1)


def _plain_forward(p: int, rows: list, ncols: int) -> tuple[list, list]:
    """Forward elimination mod p, entry by entry, with first-nonzero
    pivots: (rows, pivot (row, col) list)."""
    rows = [list(r) for r in rows]
    pivots: list = []
    for c in range(ncols):
        r = len(pivots)
        k = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        inv = pow(rows[r][c], -1, p)
        for k in range(r + 1, len(rows)):
            f = rows[k][c] * inv % p
            rows[k] = [(x - f * y) % p for x, y in zip(rows[k], rows[r])]
        pivots.append((r, c))
    return rows, pivots


def _dense_full_rank(p: int, rows: int, cols: int, small: bool) -> Matrix:
    """A seeded rows x cols matrix of row rank `rows`, its entries drawn
    from {0, 1, p - 1} (small) or from all of [0, p)."""
    field = FieldSpec.prime_field(p)
    rng = random.Random(p * 1000 + rows * 10 + cols + small)
    while True:
        entries = [[rng.choice((0, 1, p - 1)) if small else rng.randrange(p)
                    for _ in range(cols)] for _ in range(rows)]
        if len(_plain_forward(p, entries, cols)[1]) == rows:
            return Matrix.from_rows(field, entries)


@pytest.mark.parametrize("small", [True, False], ids=["0-1-(p-1)", "any"])
@pytest.mark.parametrize("shape", [(40, 40), (40, 80)], ids=str)
@pytest.mark.parametrize("p", _SLOT_PRIMES)
def test_slot_bound_eliminations(p, shape, small):
    a = _dense_full_rank(p, *shape, small)
    m, n = shape
    field, ident = a.field, Matrix.identity(a.field, m)
    start = [a.row(i) + ident.row(i) for i in range(m)]
    decode = _codec(field)[1]
    rows, pivots, unpack = _eliminate(a, ident._r, False)
    ref, ref_pivots = _plain_forward(p, start, n)
    assert (list(map(list, decode(unpack(rows)))),
            [c for c, _ in pivots]) == (ref, [c for _, c in ref_pivots])
    rows, pivots, unpack = _eliminate(a, ident._r, True)
    ref, ref_pivots = _reference_rref(field, start, n)
    # a reduced pivot row is its pivot times its reduced echelon row
    rows = [[x * pow(row[c], -1, p) % p for x in row]
            for row, (c, _) in zip(decode(unpack(rows)), pivots)]
    assert (rows, [c for c, _ in pivots]) == (ref, ref_pivots)
    assert rank(a) == m
    basis = nullspace(a)
    assert basis.shape == (n, n - m)
    assert a * basis == Matrix.zeros(field, m, n - m)
    assert rank(basis) == n - m
    v, v_inv = unit_completion(a)
    assert a * v == Matrix.zero_one(field, m, n, [(i, i) for i in range(m)])
    assert v * v_inv == Matrix.identity(field, n)
    square = _dense_full_rank(p, m, m, not small)
    inv = inverse(square)
    assert inv * square == ident and square * inv == ident
    x = solve(square, a)
    ref, _ = _reference_rref(
        field, [square.row(i) + a.row(i) for i in range(m)], m)
    assert [list(x.row(i)) for i in range(m)] == [r[m:] for r in ref]


@pytest.mark.parametrize("p", _SLOT_PRIMES)
def test_slot_bound_product(p):
    # K = 200 terms, each (p - 1)^2, in every entry
    field, k = FieldSpec.prime_field(p), 200
    a = Matrix.from_rows(field, [[p - 1] * k] * 2)
    b = Matrix.from_rows(field, [[p - 1] * 3] * k)
    entry = k * (p - 1) ** 2 % p
    assert a * b == Matrix.from_rows(field, [[entry] * 3] * 2)
    assert b.star * a.star == Matrix.from_rows(field, [[entry] * 2] * 3)


# a (p, t) for each width in _SLOTS that _packing picks it for; each
# width reads a slot through its own pair of struct fields
_WIDTH_CASES = {2: [(3, 5)], 4: [(251, 5)], 8: [(65521, 5), (2 ** 31 - 1, 3)],
                9: [(2 ** 31 - 1, 100)], 10: [(2 ** 31 - 1, 2 ** 10)],
                12: [(2 ** 31 - 1, 2 ** 20)], 16: [(2 ** 31 - 1, 2 ** 34)]}


@pytest.mark.parametrize("w", sorted(_SLOTS))
def test_every_slot_width_unpacks_mod_p(w):
    n = 7
    for p, t in _WIDTH_CASES[w]:
        g = _packing(p, n, t)
        assert g.w == w
        rng = random.Random(p * w)
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(5)]
        assert g.unpack(list(map(g.pack, rows))) == sum(rows, [])
        # any slot value, up to the largest, reads as itself mod p
        slots = [(1 << 8 * w) - 1, 0] + [rng.randrange(1 << 8 * w)
                                         for _ in range(n - 2)]
        packed = sum(v << 8 * w * j for j, v in enumerate(slots))
        assert g.unpack([packed]) == [v % p for v in slots]


# -- Q(i) integer rows against plain GaussianRational arithmetic ----------------
# A Q(i) work row is [re | im | d]: a product adds up to two real terms
# per a_ik, and a clear is N(P)*row_k - (conj(P)*Q)*row_r over the
# row's integer content.  These cases aim at what that format can get
# wrong: denominators, a_ik with no real or no imaginary part, pivots
# whose norm is not 1, rows whose entries share a Gaussian but no
# integer factor, and empty shapes, under both involutions.

_GAUSSIAN_FIELDS = pytest.mark.parametrize(
    "field", [GAUSSIAN_CONJ, GAUSSIAN_IDENT], ids=str)

# L*U with L unit lower triangular: first-nonzero elimination meets the
# pivots 1+i, 2i and 3-4i on U's diagonal
_QI_L = [["1", "0", "0"], ["1/2-i", "1", "0"], ["2+i", "-i", "1"]]
_QI_U = [["1+i", "2", "1/3*i", "1"], ["0", "2*i", "1-i", "1/2"],
         ["0", "0", "3-4*i", "i"]]
# rows 0 and 1 are (1+i) and 2i times [1, 2+i, 3i], row 2 is (2+i) times
# [1, 2-i, 2+i]; no row has an integer factor
_QI_SHARED = [["1+i", "1+3*i", "-3+3*i"], ["2*i", "-2+4*i", "-6"],
              ["2+i", "5", "3+4*i"], ["0", "1/2", "i"]]
# entries purely real, purely imaginary and both, with denominators,
# and a zero row
_QI_MIXED = [["1/2", "i", "2-1/3*i", "0"], ["-3*i", "0", "5/7", "1+i"],
             ["0", "0", "0", "0"], ["7", "-1/2*i", "-2/5+3/5*i", "3"]]


def _qi(field, rows) -> Matrix:
    """A matrix from rows of entries in the input grammar."""
    return Matrix.from_rows(field, [list(map(field.parse_scalar, row))
                                    for row in rows])


def _qi_cases(field) -> list:
    return [_check_product(_qi(field, _QI_L), _qi(field, _QI_U)),
            _qi(field, _QI_SHARED), _qi(field, _QI_MIXED),
            _qi(field, _QI_MIXED).star]


def _naive_eliminate(rows: list, ncols: int, reduce: bool) -> tuple:
    """_eliminate's loop in plain field arithmetic: first-nonzero
    pivots, each clear row_k - (q/pv)*row_r, no row scaled."""
    rows = [list(r) for r in rows]
    pivots: list = []

    def sweep(r, c, others):
        for k in others:
            if rows[k][c]:
                f = rows[k][c] / rows[r][c]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]

    for c in range(ncols):
        r = len(pivots)
        k = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        sweep(r, c, range(r + 1, len(rows)))
        pivots.append(c)
    if reduce:
        for r, c in reversed([*enumerate(pivots)]):
            sweep(r, c, range(r))
    return rows, pivots


@_GAUSSIAN_FIELDS
def test_gaussian_products(field):
    a, b = _qi(field, _QI_MIXED), _qi(field, _QI_U)
    for x, y in [(a, a), (a, a.star), (a.star, a), (b, b.star),
                 (b.star, b), (_qi(field, _QI_SHARED), b)]:
        _check_product(x, y)
    for rows, inner, cols in [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0)]:
        assert (Matrix.zeros(field, rows, inner)
                * Matrix.zeros(field, inner, cols)) \
            == Matrix.zeros(field, rows, cols)


@_GAUSSIAN_FIELDS
@pytest.mark.parametrize("reduce", [False, True])
def test_gaussian_eliminations(field, reduce):
    decode = _codec(field)[1]
    for a in _qi_cases(field):
        ident = Matrix.identity(field, a.rows)
        rows, pivots, unpack = _eliminate(a, ident._r, reduce)
        ref, ref_pivots = _naive_eliminate(
            [a.row(i) + ident.row(i) for i in range(a.rows)], a.cols,
            reduce)
        assert (list(map(list, decode(unpack(rows)))),
                [c for c, _ in pivots]) == (ref, ref_pivots)
    lu = _qi_cases(field)[0]
    rows, pivots, unpack = _eliminate(lu, ((),) * 3, False)
    assert [row[c] for row, (c, _) in zip(decode(unpack(rows)), pivots)] == [
        field.parse_scalar(x) for x in ("1+i", "2*i", "3-4*i")]


@_GAUSSIAN_FIELDS
def test_gaussian_solvers(field):
    for a in _qi_cases(field):
        _check_rank_and_row_echelon_transform(a)
        _check_nullspace(a)
        _check_solve(a, _qi(field, _QI_MIXED).take(range(a.rows)))
        _check_solve(a, a * _qi(field, _QI_SHARED).take(range(a.cols)))
        if a.is_square():
            _check_inverse(a, None)
            _check_inverse(a, field.parse_scalar("3-4*i"))
        p, _ = row_echelon_transform(a)
        e, r = a.take(p), len(p)
        v, v_inv = unit_completion(e)
        assert e * v == Matrix.zero_one(field, r, a.cols,
                                        [(i, i) for i in range(r)])
        assert v_inv * v == Matrix.identity(field, a.cols)
        assert v == Matrix.from_blocks(field, [
            [solve(e, Matrix.identity(field, r)), nullspace(e)]])
    for rows, cols in [(0, 3), (3, 0), (0, 0)]:
        a = Matrix.zeros(field, rows, cols)
        assert rank(a) == 0
        assert nullspace(a) == Matrix.identity(field, cols)
        assert solve(a, Matrix.zeros(field, rows, 1)) \
            == Matrix.zeros(field, cols, 1)
        assert row_echelon_transform(a) == (
            [], Matrix.identity(field, rows))


def test_gaussian_kernels_do_no_entry_arithmetic(monkeypatch):
    # Q(i) products, ranks and echelon transforms run on integer rows;
    # no GaussianRational operator is called
    a = _qi(GAUSSIAN_CONJ, _QI_MIXED)
    b = _qi(GAUSSIAN_CONJ, _QI_SHARED).take(range(4))
    want = (a * b, rank(a), row_echelon_transform(a))

    def no_arithmetic(*args):
        raise AssertionError("a Q(i) kernel did entry arithmetic")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__",
                 "__rsub__", "__truediv__", "__rtruediv__", "__neg__"):
        monkeypatch.setattr(GaussianRational, name, no_arithmetic)
    assert (a * b, rank(a), row_echelon_transform(a)) == want


def test_unit_completion_rejects_dependent_rows():
    with pytest.raises(ValueError, match="independent rows"):
        unit_completion(_mat(RATIONALS, [[1, 2, 3], [2, 4, 6]]))


def _no_entries(monkeypatch):
    """Make every builder of Q and Q(i) entries from stored rows raise."""
    def no_entries(*args):
        raise AssertionError("an entry was built from a stored row")

    for name in ("_q_decode", "_q_fraction", "_qi_decode", "_gaussian"):
        monkeypatch.setattr(congru.matrix, name, no_entries)


def test_rank_reads_only_the_pivots(monkeypatch):
    # rank, and through it nullity, invariants and is_nonsingular,
    # count pivots on the stored rows and build no entry
    h = Fraction(1, 2)
    a = _mat(RATIONALS, [[h, 1, 0], [1, 2, 0], [0, h, Fraction(3, 4)]])
    _no_entries(monkeypatch)
    assert rank(a) == 2 and nullity(a) == 1
    assert invariants(a) == Invariants(nu=1, zeta=0, kappa=1, rho=1)
    assert not a.is_nonsingular()
    assert Matrix.identity(RATIONALS, 3).is_nonsingular()


@pytest.mark.parametrize("field", [RATIONALS, GAUSSIAN_CONJ, GF_BIG], ids=str)
def test_row_echelon_transform_decodes_only_null_rows(field, monkeypatch):
    # P comes from the pivots' source rows, so only L's rows are read
    # out of the elimination: over GF(p) two packed rows are unpacked,
    # and over Q and Q(i) L stays in stored rows and no entry is built
    decoded: list = []
    if field.p is not None:
        real = _Packing.decode
        monkeypatch.setattr(_Packing, "decode",
                            lambda g, xs: decoded.extend(xs) or real(g, xs))
    nonsingular = _mat(field, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    a = _mat(field, [[0, 1, 1], [1, 0, 1], [1, 1, 2], [2, 1, 3]])
    if field.p is None:
        _no_entries(monkeypatch)
    assert row_echelon_transform(nonsingular)[0] == [0, 1, 2]
    assert decoded == []
    p, left = row_echelon_transform(a)
    assert p == [0, 1] and len(decoded) == (2 if field.p else 0)
    assert left.shape == (2, 4)
    assert left * a == Matrix.zeros(field, 2, 3)


class TestNoEmptyElimination:
    # empty and identity inputs go through the one elimination like any
    # other; these pin the values they give
    @pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
    def test_nullspace_without_rows(self, field):
        for cols in (0, 1, 4):
            ns = nullspace(Matrix.zeros(field, 0, cols))
            assert ns == Matrix.identity(field, cols)

    @pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
    def test_inverse_of_identity(self, field):
        for n in (0, 1, 5):
            ident = Matrix.identity(field, n)
            assert inverse(ident) == ident
        near = _mat(field, [[1, 0], [1, 1]])
        assert inverse(near) * near == Matrix.identity(field, 2)


GRID_CODEC = {"_read_json", "_read_text", "_write_json", "_write_text"}


def _modules():
    """(file name, AST) of every congru module."""
    package = os.path.dirname(congru.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read())


def _other_modules():
    """(file name, AST) of every congru module but matrix.py."""
    return ((name, tree) for name, tree in _modules() if name != "matrix.py")


def test_elimination_privates_stay_in_matrix():
    # every elimination goes through congru.matrix's public functions;
    # other modules import from it only public names and the grid codec
    for name, tree in _other_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in (
                    "matrix", "congru.matrix"):
                private = {a.name for a in node.names
                           if a.name.startswith("_")} - GRID_CODEC
                assert not private, f"{name} imports {sorted(private)}"


def test_rows_are_read_and_written_only_in_matrix():
    # the row format is matrix.py's alone: no other module builds a
    # Matrix from raw rows or reads them back
    for name, tree in _other_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                callee = getattr(func, "id", getattr(func, "attr", None))
                assert callee != "Matrix", \
                    f"{name}:{node.lineno} calls Matrix(...)"
            if isinstance(node, ast.Attribute):
                assert node.attr not in ("row", "_r"), \
                    f"{name}:{node.lineno} reads .{node.attr}"


def test_no_assert_statements():
    # invariants are checked by code that survives python -O
    for name, tree in _modules():
        for node in ast.walk(tree):
            assert not isinstance(node, ast.Assert), \
                f"{name}:{node.lineno} has an assert statement"


# -- stored rows -----------------------------------------------------------------
# A matrix stores canonical integer rows: ints over one denominator
# d > 0 with gcd(d, all ints) == 1, as a list, [re | im | d] over Q(i),
# and over GF(p) residues in [0, p) over d = 1.  Every operation must
# return such rows, so that == stays a row comparison, and they must
# decode to what plain Fraction, GaussianRational and mod-p arithmetic
# gives.  Small denominators make rows share factors with their
# denominator, and GF(7) makes pivots vanish; 0-row and 0-column shapes
# are drawn too.

_QI_FIELDS = (GAUSSIAN_CONJ, GAUSSIAN_IDENT)
_frac = st.one_of(_q_entry, st.builds(Fraction, st.integers(-6, 6),
                                      st.integers(1, 6)))


def _frac_entry(field):
    if field.p:
        return st.one_of(st.integers(-8, 8), st.integers())
    if field.kind is FieldKind.RATIONAL:
        return _frac
    return st.builds(GaussianRational, _frac, _frac)


@st.composite
def _frac_matrix(draw, field, rows=None, cols=None):
    rows = draw(st.integers(0, 3)) if rows is None else rows
    cols = draw(st.integers(0, 3)) if cols is None else cols
    entry = _frac_entry(field)
    return Matrix.from_rows(
        field, [[draw(entry) for _ in range(cols)] for _ in range(rows)],
        cols=cols)


def _plain(m: Matrix) -> list:
    return [list(m.row(i)) for i in range(m.rows)]


def _plain_product(field, x: list, y: list, inner: int, cols: int) -> list:
    return [[sum((r[k] * y[k][j] for k in range(inner)), field.zero())
             for j in range(cols)] for r in x]


def _assert_stored(m: Matrix, want: list) -> None:
    """m's rows are canonical integer rows that decode to want, taken
    mod p over GF(p), and m equals the matrix from_rows builds from
    want."""
    h = 2 if m.field.kind is FieldKind.GAUSSIAN_RATIONAL else 1
    p = m.field.p
    want = [_stored(m.field, r) for r in want]
    assert type(m._r) is tuple and len(m._r) == m.rows == len(want)
    for row in m._r:
        assert type(row) is list and len(row) == h * m.cols + 1
        assert all(type(x) is int for x in row)
        assert row[-1] > 0 and math.gcd(*row) == 1
        if p:
            assert row[-1] == 1 and all(0 <= x < p for x in row)
    assert _plain(m) == want
    assert m == Matrix.from_rows(m.field, want, cols=m.cols)


def _plain_basis(field, a: list, n: int, aug: list, w: int) -> tuple:
    """([X | N], free columns, consistent) as _basis_rows defines them,
    read off a plain reduced echelon form of [a | aug]."""
    ref, pivots = _reference_rref(
        field, [r + s for r, s in zip(a, aug)], n)
    free = [c for c in range(n) if c not in pivots]
    out = [[field.zero()] * (w + len(free)) for _ in range(n)]
    for k, fc in enumerate(free):
        out[fc][w + k] = field.one()
    for r, c in enumerate(pivots):
        out[c] = ref[r][n:] + [-ref[r][fc] for fc in free]
    consistent = not any(map(any, (row[n:] for row in ref[len(pivots):])))
    return out, free, consistent


@pytest.mark.parametrize("field", [RATIONALS, *_QI_FIELDS, GF7, GF_BIG],
                         ids=str)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_every_op_stores_canonical_rows(field, data):
    a = data.draw(_frac_matrix(field))
    m, n = a.shape
    pa, zero = _plain(a), field.zero()
    b = data.draw(_frac_matrix(field, n))
    pb = _plain(b)
    if m and n:
        assert (a[-1, -1], a[0, n - 1]) == (pa[-1][-1], pa[0][n - 1])
    with pytest.raises(IndexError):
        a[m, 0]
    _assert_stored(a * b, _plain_product(field, pa, pb, n, b.cols))
    flipped = [[pa[i][j] for i in range(m)] for j in range(n)]
    _assert_stored(a.transpose(), flipped)
    _assert_stored(a.star, [list(map(field.conjugate, r)) for r in flipped])
    _assert_stored(-a, [[-x for x in r] for r in pa])
    picked = data.draw(st.lists(st.integers(0, m - 1), max_size=4)
                       if m else st.just([]))
    cols = data.draw(st.lists(st.one_of(st.none(), st.integers(0, n - 1))
                              if n else st.none(), max_size=4))
    _assert_stored(a.take(picked), [pa[i] for i in picked])
    _assert_stored(a.take(picked, cols), [
        [zero if j is None else pa[i][j] for j in cols] for i in picked])
    r0, r1 = sorted(data.draw(st.lists(st.integers(0, m), min_size=2,
                                       max_size=2)))
    c0, c1 = sorted(data.draw(st.lists(st.integers(0, n), min_size=2,
                                       max_size=2)))
    _assert_stored(a.block(r0, r1, c0, c1), [r[c0:c1] for r in pa[r0:r1]])
    # the same values by two routes: a block of a product, and from_rows
    ab = _plain_product(field, pa, pb, n, b.cols)
    assert (a * b).block(r0, r1, 0, b.cols) == Matrix.from_rows(
        field, ab[r0:r1], cols=b.cols)
    d = data.draw(_frac_matrix(field, cols=n))
    e = data.draw(_frac_matrix(field, d.rows, b.cols))
    pd, pe = _plain(d), _plain(e)
    _assert_stored(Matrix.from_blocks(field, [[a, a * b], [d, e]]),
                   [r + s for r, s in zip(pa + pd, ab + pe)])
    _assert_stored(direct_sum(field, [a, d]),
                   [r + [zero] * d.cols for r in pa]
                   + [[zero] * n + r for r in pd])
    # the eliminations
    ident = [[field.one() if i == j else zero for j in range(m)]
             for i in range(m)]
    basis, free, _ = _plain_basis(field, pa, n, [[]] * m, 0)
    _assert_stored(nullspace(a), basis)
    rhs = data.draw(_frac_matrix(field, m))
    basis, free, consistent = _plain_basis(field, pa, n, _plain(rhs),
                                           rhs.cols)
    if consistent:
        _assert_stored(solve(a, rhs), [r[:rhs.cols] for r in basis])
    else:
        with pytest.raises(ValueError, match="inconsistent"):
            solve(a, rhs)
    basis, free, _ = _plain_basis(field, pa, n, ident, m)
    if m == n and not free:
        _assert_stored(inverse(a), basis)
    p, left = row_echelon_transform(a)
    start = [r + s for r, s in zip(pa, ident)]
    rows, pivots = (_plain_forward(field.p, start, n) if field.p
                    else _naive_eliminate(start, n, False))
    _assert_stored(left, [r[n:] for r in rows[len(pivots):]])
    top = a.take(p)
    v, v_inv = unit_completion(top)
    ident_r = [r[:len(p)] for r in ident[:len(p)]]
    basis, free, _ = _plain_basis(field, _plain(top), n, ident_r, len(p))
    _assert_stored(v, basis)
    _assert_stored(v_inv, _plain(top) + [
        [field.one() if j == fc else zero for j in range(n)] for fc in free])


@pytest.mark.parametrize("field", [RATIONALS, *_QI_FIELDS], ids=str)
def test_decomposition_does_no_entry_arithmetic(field, monkeypatch):
    # the whole pipeline, products, eliminations, stars, blocks, scales
    # and sums, runs on stored integer rows: no Fraction or
    # GaussianRational operator is called between parsing and rendering
    words = ["1/2", "-1", "2/3", "0", "3", "-1/5", "1/4", "7/3"]
    if field.kind is FieldKind.GAUSSIAN_RATIONAL:
        words += ["1/2+i", "-i", "3-1/2*i", "2/7*i"]
    n = 8
    s = Matrix.from_rows(field, [
        [field.parse_scalar(words[(3 * i + j) % len(words)]) if j > i
         else field.from_int(i == j) for j in range(n)] for i in range(n)])
    b = Matrix.from_rows(field, [[Fraction(2), Fraction(1, 3)],
                                 [Fraction(-1, 2), Fraction(5)]])
    jordan = [jordan_block(field, k) for k in (1, 2, 3)]
    a = s.star * direct_sum(field, [b, *jordan]) * s

    def no_arithmetic(*args):
        raise AssertionError("an entry operator was called")

    for cls in (Fraction, GaussianRational):
        for name in ("__add__", "__radd__", "__sub__", "__rsub__",
                     "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                     "__neg__"):
            monkeypatch.setattr(cls, name, no_arithmetic)
    block_sum, x = full_decomposition(a)
    assert dict(block_sum.jordan_multiplicities) == {1: 1, 2: 1, 3: 1}
    assert block_sum.regular_part.rows == 2
    assert check_transform(a, x, assemble(block_sum)).ok
    text = x.to_text()
    monkeypatch.undo()
    assert Matrix.from_text(field, text) == x


# -- row_echelon_transform and rank against a reference --------------------------
# L*a = 0 with T nonsingular holds for every left null basis, and a
# different one changes X.  So P and the exact entries of L are pinned
# to a forward elimination of [a | I] in the field's scalar arithmetic:
# the first nonzero entry of each column is the pivot, rows are swapped
# and never scaled, and a clear is row_k - (q/p)*row_r.  The draws carry
# denominators, zero columns, repeated and negated rows and, over Q and
# Q(i), negative pivots, the last one included.

_FIELDS_WITH_BIG_PRIME = (*ALL_FIELDS, GF_BIG)


def _reference_forward(field, rows: list, ncols: int) -> tuple[list, list]:
    """(rows, sources of the pivot rows in pivot order)."""
    rows = [list(r) for r in rows]
    source = list(range(len(rows)))
    pivots: list = []
    for c in range(ncols):
        r = len(pivots)
        k = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        source[r], source[k] = source[k], source[r]
        inv = field.inverse(rows[r][c])
        for k in range(r + 1, len(rows)):
            f = _stored(field, [rows[k][c] * inv])[0]
            rows[k] = _stored(field,
                              [x - f * y for x, y in zip(rows[k], rows[r])])
        pivots.append(source[r])
    return rows, pivots


@st.composite
def _structured(draw, field):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(0, 6))
    entry = _frac_entry(field)
    entries = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    for j in draw(st.sets(st.integers(0, cols - 1), max_size=2)
                  if cols else st.just(())):
        for row in entries:
            row[j] = field.zero()
    for i, j, sign in draw(st.lists(st.tuples(
            st.integers(0, rows - 1), st.integers(0, rows - 1),
            st.sampled_from([1, -1])), max_size=2)):
        entries[i] = _stored(field, [sign * x for x in entries[j]])
    return Matrix.from_rows(field, entries, cols=cols)


def _check_against_reference(a: Matrix) -> list:
    """Asserts P, L and rank(a); returns the reference pivot values."""
    field, m, n = a.field, a.rows, a.cols
    ident = Matrix.identity(field, m)
    ref, sources = _reference_forward(
        field, [list(a.row(i)) + list(ident.row(i)) for i in range(m)], n)
    p, left = row_echelon_transform(a)
    r = len(sources)
    assert p == sorted(sources)
    assert left.shape == (m - r, m)
    assert [list(left.row(i)) for i in range(m - r)] == [
        row[n:] for row in ref[r:]]
    assert rank(a) == r
    return [next(x for x in row[:n] if x) for row in ref[:r]]


@pytest.mark.parametrize("field", _FIELDS_WITH_BIG_PRIME, ids=str)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_row_echelon_transform_matches_reference(field, data):
    _check_against_reference(data.draw(_structured(field)))


@pytest.mark.parametrize("field", [RATIONALS, GAUSSIAN_CONJ], ids=str)
def test_negative_last_pivot(field):
    # rank 2, with pivots 1 and -3: the second row cleared by the first
    # is [0, -3, -9], and the third row is the sum of the first two
    h = Fraction(1, 2)
    a = _mat(field, [[1, 2, 3, h], [2, 1, -3, 1], [3, 3, 0, 1 + h]])
    assert _check_against_reference(a) == [1, -3]
    # a zero column, denominators, and the third row cleared to the
    # second: pivots 1/2 and -3/2
    b = _mat(field, [[0, h, 1, 2], [0, 1, h, -1], [0, 3 * h, 3 * h, 1]])
    assert _check_against_reference(b) == [h, Fraction(-3, 2)]
