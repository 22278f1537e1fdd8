"""Exact matrix layer: formats, elimination, invariants, builders."""

import ast
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import congru
from congru import (
    FieldKind,
    FieldSpec,
    Invariants,
    Matrix,
    MatrixParseError,
    direct_sum,
    invariants,
    inverse,
    jordan_block,
    nullity,
    nullspace,
    permutation_matrix,
    rank,
    solve,
)
from congru.float_unitary import _read_float
from congru.matrix import (_SLOTS, _eliminate, _packing, _Packing, _read_json,
                           _read_text, f_block, g_block,
                           row_echelon_transform, unit_completion)

from conftest import (ALL_FIELDS, GAUSSIAN_CONJ, GAUSSIAN_IDENT, GF7,
                      MALFORMED_NUMBERS, RATIONALS, fielded_square,
                      scalar_strategy, square_matrix)


def _mat(field, rows):
    return Matrix.from_rows(field, rows)


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

        a = _mat(field, [[1, 2, 0], [0, 3, 4]])
        if field is GAUSSIAN_IDENT:
            a = a.scale(field.imaginary_unit()) + a
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
    @pytest.mark.parametrize("field", ALL_FIELDS, ids=str)
    def test_subtraction(self, field):
        a = _mat(field, [[1, 2, 0], [3, 4, 5]])
        b = _mat(field, [[6, 0, 1], [2, 2, 2]])
        assert (a - a).is_zero()
        assert a - b == a + (-b)
        assert b - a == -(a - b)

    def test_shape_checks(self):
        a, b = Matrix.identity(RATIONALS, 2), Matrix.zeros(RATIONALS, 2, 3)
        for op, what in ((lambda x, y: x + y, "addition"),
                         (lambda x, y: x - y, "subtraction")):
            with pytest.raises(ValueError,
                               match=f"dimension mismatch in {what}"):
                op(a, b)
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
    assert (a * ns).is_zero()


def _echelon(a: Matrix) -> tuple[Matrix, Matrix, int]:
    """row_echelon_transform(a) = (P, L) checked and returned as
    (T, T*a, rank), T = [unit rows at P; L]: P increasing, L*a = 0, T
    nonsingular, and the top rows of T*a are a[P, :]."""
    field, m = a.field, a.rows
    p, l = row_echelon_transform(a)
    r = len(p)
    assert p == sorted(set(p)) and all(0 <= i < m for i in p)
    assert l.shape == (m - r, m) and (l * a).is_zero()
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
    assert ta.block(r, m, 0, n).is_zero()


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
        a = a + Matrix.identity(a.field, a.rows).scale(
            a.field.from_int(7))
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

    def test_f_and_g_blocks(self):
        assert f_block(RATIONALS, 3).to_text() == "2 3\n1 0 0\n0 1 0\n"
        assert g_block(RATIONALS, 3).to_text() == "2 3\n0 1 0\n0 0 1\n"
        assert f_block(RATIONALS, 1).shape == (0, 1)

    @pytest.mark.parametrize("builder", [jordan_block, f_block, g_block])
    def test_block_builders_need_a_positive_size(self, builder):
        with pytest.raises(ValueError, match="requires n >= 1"):
            builder(RATIONALS, 0)

    def test_permutation_matrix_moves_rows(self):
        p = permutation_matrix(RATIONALS, [1, 2, 0])
        a = _mat(RATIONALS, [[1, 0, 0], [2, 0, 0], [3, 0, 0]])
        pa = p * a
        assert [pa[i, 0] for i in range(3)] == [2, 3, 1]

    def test_permutation_validated(self):
        with pytest.raises(ValueError, match="not a permutation"):
            permutation_matrix(RATIONALS, [0, 0])

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
# on the field: over Q integer rows with one denominator per row, over
# Q(i) lists of entries and over GF(p) packed ints.  These properties
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
    assert (a * ns).is_zero()
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
        a = a + ident.scale(boost)
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
    rows, pivots, decode = _eliminate(a, ident._r, False)
    ref, ref_pivots = _plain_forward(p, start, n)
    assert (list(map(list, decode(rows))), [c for c, _ in pivots]) == (
        ref, [c for _, c in ref_pivots])
    rows, pivots, decode = _eliminate(a, ident._r, True)
    ref, ref_pivots = _reference_rref(field, start, n)
    # a reduced pivot row is its pivot times its reduced echelon row
    rows = [[x * pow(row[c], -1, p) % p for x in row]
            for row, (c, _) in zip(decode(rows), pivots)]
    assert (rows, [c for c, _ in pivots]) == (ref, ref_pivots)
    assert rank(a) == m
    basis = nullspace(a)
    assert basis.shape == (n, n - m) and (a * basis).is_zero()
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


def test_unit_completion_rejects_dependent_rows():
    with pytest.raises(ValueError, match="independent rows"):
        unit_completion(_mat(RATIONALS, [[1, 2, 3], [2, 4, 6]]))


def test_rank_reads_only_the_pivots(monkeypatch):
    # rank, and through it nullity, invariants and is_nonsingular,
    # count pivots without decoding the eliminated rows
    h = Fraction(1, 2)
    a = _mat(RATIONALS, [[h, 1, 0], [1, 2, 0], [0, h, Fraction(3, 4)]])

    def no_decode(row):
        raise AssertionError("a rank decoded its rows")

    monkeypatch.setattr("congru.matrix._q_decode", no_decode)
    assert rank(a) == 2 and nullity(a) == 1
    assert invariants(a) == Invariants(nu=1, zeta=0, kappa=1, rho=1)
    assert not a.is_nonsingular()
    assert Matrix.identity(RATIONALS, 3).is_nonsingular()


@pytest.mark.parametrize("field", [RATIONALS, GAUSSIAN_CONJ, GF_BIG], ids=str)
def test_row_echelon_transform_decodes_only_null_rows(field, monkeypatch):
    # P comes from the pivots' source rows, so only L's rows are decoded
    decoded: list = []
    if field.p is not None:
        real = _Packing.decode
        monkeypatch.setattr(_Packing, "decode",
                            lambda g, xs: decoded.extend(xs) or real(g, xs))
    else:
        name = ("_q_decode" if field.kind is FieldKind.RATIONAL
                else "_entry_decode")
        real = getattr(congru.matrix, name)
        monkeypatch.setattr(congru.matrix, name,
                            lambda rows: decoded.extend(rows) or real(rows))
    nonsingular = _mat(field, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert row_echelon_transform(nonsingular)[0] == [0, 1, 2]
    assert decoded == []
    a = _mat(field, [[0, 1, 1], [1, 0, 1], [1, 1, 2], [2, 1, 3]])
    p, left = row_echelon_transform(a)
    assert p == [0, 1] and len(decoded) == 2
    assert (left * a).is_zero() and left.shape == (2, 4)


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


def _other_modules():
    """(file name, AST) of every congru module but matrix.py."""
    package = os.path.dirname(congru.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "matrix.py":
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read())


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
