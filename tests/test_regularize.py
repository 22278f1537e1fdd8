"""Stage reduction and the regularizing loop."""

import dataclasses
import sys

import pytest
from hypothesis import given, settings, strategies as st

from congru import (
    BlockSum,
    Matrix,
    assemble,
    direct_sum,
    invariants,
    jordan_block,
    multiplicities,
    nullity,
    regularize,
    stage,
)

from conftest import (GAUSSIAN_CONJ, GAUSSIAN_IDENT, RATIONALS,
                      fielded_square, singular_matrix)

WORKED = "2 2\n1 -i\ni 1\n"


class TestStageWorkedExample:
    def test_conjugation_trace(self):
        a = Matrix.from_text(GAUSSIAN_CONJ, WORKED)
        rec = stage(a)
        assert (rec.m_odd, rec.m_even) == (1, 0)
        # one elimination step: row 1 minus i times row 0
        assert rec.transform == Matrix.from_text(GAUSSIAN_CONJ,
                                                 "2 2\n1 0\n-i 1\n")
        form = (rec.transform * a) * rec.transform.star
        assert form == Matrix.from_text(GAUSSIAN_CONJ, "2 2\n1 0\n0 0\n")
        assert form == rec.stage_form()
        assert rec.a_next == Matrix.from_text(GAUSSIAN_CONJ, "1 1\n1\n")
        assert rec.e.shape == (0, 1)

    def test_identity_trace(self):
        a = Matrix.from_text(GAUSSIAN_IDENT, WORKED)
        rec = stage(a)
        assert (rec.m_odd, rec.m_even) == (1, 1)
        form = (rec.transform * a) * rec.transform.star
        assert form == rec.stage_form()
        # blocks: empty regular corner, unit coupling row
        assert rec.a_next.shape == (0, 0)
        assert rec.d.shape == (1, 1)
        assert rec.e.shape == (1, 1)
        assert rec.e[0, 0] != GAUSSIAN_IDENT.zero()

    def test_stage_reports_nonsingular(self):
        # a nonsingular block ends the loop: m_odd == 0, nothing moves;
        # the first pivot of the last one is row 1, so its pivot rows
        # keep their order only once sorted
        for a in (Matrix.identity(RATIONALS, 2),
                  Matrix.zeros(RATIONALS, 0, 0),
                  Matrix.from_rows(RATIONALS,
                                   [[0, 1, 2], [3, 0, 1], [1, 1, 0]])):
            rec = stage(a)
            assert (rec.m_odd, rec.m_even) == (0, 0)
            assert rec.transform == Matrix.identity(RATIONALS, a.rows)
            assert rec.a_next == a
            assert rec.stage_form() == a

    def test_stage_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            stage(Matrix.zeros(RATIONALS, 1, 2))

    def test_stage_on_zero_matrix(self):
        rec = stage(Matrix.zeros(RATIONALS, 3, 3))
        assert (rec.m_odd, rec.m_even) == (3, 0)
        assert rec.a_next.shape == (0, 0)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_stage_identities(data):
    field = data.draw(st.sampled_from(
        (RATIONALS, GAUSSIAN_CONJ, GAUSSIAN_IDENT)))
    a = data.draw(singular_matrix(field))
    rec = stage(a)
    inv = invariants(a)
    assert rec.m_odd == inv.nu == nullity(a)
    assert rec.m_even == inv.kappa
    assert rec.transform.is_nonsingular()
    assert (rec.transform * a) * rec.transform.star == rec.stage_form()
    # the coupling block has full row rank
    from congru import rank
    assert rank(rec.e) == rec.m_even


class TestRegularize:
    def test_worked_example_conjugation(self):
        res = regularize(Matrix.from_text(GAUSSIAN_CONJ, WORKED))
        assert res.tau == 1
        assert res.m == (1, 0)
        assert res.regular_part == Matrix.from_text(GAUSSIAN_CONJ,
                                                    "1 1\n1\n")
        assert dict(multiplicities(res).jordan_multiplicities) == {1: 1}

    def test_worked_example_identity(self):
        res = regularize(Matrix.from_text(GAUSSIAN_IDENT, WORKED))
        assert res.tau == 1
        assert res.m == (1, 1)
        assert res.regular_part.shape == (0, 0)
        assert dict(multiplicities(res).jordan_multiplicities) == {2: 1}

    def test_zero_matrix(self):
        res = regularize(Matrix.zeros(RATIONALS, 3, 3))
        assert res.tau == 1
        assert res.m == (3, 0)
        assert dict(multiplicities(res).jordan_multiplicities) == {1: 3}

    def test_nonsingular_input(self):
        res = regularize(Matrix.identity(RATIONALS, 2))
        assert res.tau == 0
        assert res.m == ()
        assert res.regular_part == Matrix.identity(RATIONALS, 2)
        assert dict(multiplicities(res).jordan_multiplicities) == {}

    def test_jordan_3(self):
        res = regularize(jordan_block(RATIONALS, 3))
        assert res.m == (1, 1, 1, 0)
        assert dict(multiplicities(res).jordan_multiplicities) == {3: 1}

    def test_requires_square(self):
        with pytest.raises(ValueError, match="square"):
            regularize(Matrix.zeros(RATIONALS, 2, 3))

    def test_rising_m_raises(self, monkeypatch):
        # the check is a raise, not an assert, so it holds under -O;
        # the package attribute congru.regularize is the function
        mod = sys.modules["congru.regularize"]
        real = mod.stage
        recs = iter([real(Matrix.zeros(RATIONALS, 1, 1)),
                     real(Matrix.zeros(RATIONALS, 2, 2)),
                     real(Matrix.identity(RATIONALS, 1))])
        monkeypatch.setattr(mod, "stage", lambda work: next(recs))
        with pytest.raises(RuntimeError, match="non-increasing"):
            regularize(Matrix.zeros(RATIONALS, 3, 3))

    def test_increasing_m_is_refused(self, monkeypatch):
        # the exact twin of the float test: the first stage gives
        # m = (1, 2), refused before its a_next is staged
        mod = sys.modules["congru.regularize"]
        real = mod.stage
        recs = iter([
            dataclasses.replace(real(Matrix.zeros(RATIONALS, 1, 1)),
                                m_even=2),
            real(Matrix.identity(RATIONALS, 1))])
        monkeypatch.setattr(mod, "stage", lambda work: next(recs))
        with pytest.raises(RuntimeError,
                           match=r"non-increasing, got \(1, 2\)"):
            regularize(Matrix.zeros(RATIONALS, 3, 3))
        assert next(recs, None) is not None

    def test_run_stages_returns_m(self):
        # the m that run_stages checks is the one it returns: the
        # singular records' (m_odd, m_even), flattened in order
        a = direct_sum(RATIONALS, [Matrix.identity(RATIONALS, 1),
                                   jordan_block(RATIONALS, 1),
                                   jordan_block(RATIONALS, 2),
                                   jordan_block(RATIONALS, 3)])
        run_stages = sys.modules["congru.regularize"].run_stages
        stages, last, m = run_stages(stage(a), stage)
        assert len(stages) == 2
        assert m == tuple(v for rec in stages
                          for v in (rec.m_odd, rec.m_even))
        assert m == regularize(a).m == (3, 2, 1, 0)
        assert last.m_odd == 0


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_regularize_properties(data):
    a = data.draw(fielded_square(max_n=5))
    res = regularize(a)
    assert res.tau == len(res.stages)
    assert len(res.m) == 2 * res.tau
    assert res.regular_part.is_nonsingular()
    assert res.regular_part.rows + sum(res.m) == a.rows
    # the parameter sequence never increases
    assert all(res.m[i] >= res.m[i + 1] for i in range(len(res.m) - 1))
    assert res.m == tuple(v for rec in res.stages
                          for v in (rec.m_odd, rec.m_even))
    mults = multiplicities(res).jordan_multiplicities
    assert all(v > 0 for v in mults.values())
    assert sum(k * v for k, v in mults.items()) == sum(res.m)


class TestAssemble:
    def test_rebuilds_jordan_sum(self):
        bs = BlockSum(Matrix.identity(RATIONALS, 1), {1: 2, 3: 1})
        got = assemble(bs)
        want = direct_sum(RATIONALS, [
            Matrix.identity(RATIONALS, 1),
            jordan_block(RATIONALS, 1), jordan_block(RATIONALS, 1),
            jordan_block(RATIONALS, 3)])
        assert got == want

    def test_negative_multiplicity_rejected(self):
        bs = BlockSum(Matrix.identity(RATIONALS, 1), {2: -1})
        with pytest.raises(ValueError, match="negative multiplicity"):
            assemble(bs)
