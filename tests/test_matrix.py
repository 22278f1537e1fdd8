"""Exact matrix layer: formats, elimination, invariants, builders."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from congru import (
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
from congru.matrix import f_block, g_block, row_echelon_transform

from conftest import (ALL_FIELDS, GAUSSIAN_CONJ, GF7, RATIONALS,
                      fielded_square, scalar_strategy, square_matrix)


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

    def test_from_blocks_dimension_check(self):
        a = Matrix.identity(RATIONALS, 2)
        b = Matrix.zeros(RATIONALS, 1, 1)
        with pytest.raises(ValueError, match="inconsistent block"):
            Matrix.from_blocks(RATIONALS, [[a, b]])

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
        a = Matrix.from_text(RATIONALS, "3 0\n")
        assert a.shape == (3, 0)
        b = Matrix.from_text(RATIONALS, "3 0\n\n\n\n")
        assert b.shape == (3, 0)

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


class TestElimination:
    def test_row_echelon_bottom(self):
        a = _mat(RATIONALS, [[0, 0], [1, 2]])
        t, r = row_echelon_transform(a)
        assert r == 1
        ta = t * a
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
        def no_rref(*args):
            raise AssertionError("solve eliminated a zero-column system")

        monkeypatch.setattr("congru.matrix._rref", no_rref)
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


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_row_echelon_transform_properties(data):
    a = data.draw(fielded_square())
    t, r = row_echelon_transform(a)
    assert t.is_nonsingular()
    assert r == rank(a)
    ta = t * a
    for i in range(r, a.rows):
        assert all(not x for x in ta.row(i))


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

    def test_permutation_matrix_moves_rows(self):
        p = permutation_matrix(RATIONALS, [1, 2, 0])
        a = _mat(RATIONALS, [[1, 0, 0], [2, 0, 0], [3, 0, 0]])
        pa = p * a
        assert [pa[i, 0] for i in range(3)] == [2, 3, 1]

    def test_permutation_validated(self):
        with pytest.raises(ValueError, match="not a permutation"):
            permutation_matrix(RATIONALS, [0, 0])

    def test_direct_sum_mixed_fields_rejected(self):
        with pytest.raises(ValueError, match="mixed fields"):
            direct_sum(RATIONALS, [Matrix.identity(RATIONALS, 1),
                                   Matrix.identity(GAUSSIAN_CONJ, 1)])
