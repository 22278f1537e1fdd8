"""Randomized witnesses, transform checking, verification suites."""

import dataclasses
import random
import re

import pytest

import congru.verify as verify_module
from congru import (
    FieldKind,
    FieldSpec,
    Matrix,
    check_transform,
    direct_sum,
    invariance_suite,
    jordan_block,
    rank,
    roundtrip_suite,
)
from congru.cli import main
from congru.regularize import BlockSum
from congru.verify import _ENTRY_BOUND, _draw_matrix, _draw_nonsingular

from conftest import (ALL_FIELDS, GAUSSIAN_CONJ, GF7, RATIONALS,
                      nilpotent_jordan_oracle)


class TestOracle:
    def test_requires_square(self):
        with pytest.raises(ValueError, match="square"):
            nilpotent_jordan_oracle(Matrix.zeros(RATIONALS, 1, 2))

    def test_rejects_nonnilpotent(self):
        with pytest.raises(ValueError, match="not nilpotent"):
            nilpotent_jordan_oracle(Matrix.identity(RATIONALS, 2))

    def test_single_block(self):
        assert nilpotent_jordan_oracle(jordan_block(RATIONALS, 3)) == {3: 1}

    def test_mixed_blocks(self):
        a = direct_sum(GF7, [jordan_block(GF7, 2), jordan_block(GF7, 1)])
        assert nilpotent_jordan_oracle(a) == {2: 1, 1: 1}

    def test_zero_and_empty(self):
        assert nilpotent_jordan_oracle(Matrix.zeros(RATIONALS, 2, 2)) == {
            1: 2}
        assert nilpotent_jordan_oracle(Matrix.zeros(RATIONALS, 0, 0)) == {}


class TestRandomMatrices:
    def test_deterministic(self):
        def draws(seed):
            rng = random.Random(seed)
            return (_draw_matrix(rng, GAUSSIAN_CONJ, 4, 4, _ENTRY_BOUND),
                    _draw_nonsingular(rng, GAUSSIAN_CONJ, 4, _ENTRY_BOUND))

        assert draws(5) == draws(5)

    def test_seed_changes_draw(self):
        a = _draw_matrix(random.Random(1), RATIONALS, 4, 4, _ENTRY_BOUND)
        b = _draw_matrix(random.Random(2), RATIONALS, 4, 4, _ENTRY_BOUND)
        assert a != b

    def test_nonsingular_is_nonsingular(self):
        for seed in range(6):
            s = _draw_nonsingular(random.Random(seed), GF7, 5, _ENTRY_BOUND)
            assert rank(s) == 5

    def test_empty_size(self):
        s = _draw_nonsingular(random.Random(0), RATIONALS, 0, _ENTRY_BOUND)
        assert s.shape == (0, 0)

    @pytest.mark.parametrize("field", [*ALL_FIELDS, FieldSpec.prime_field(2)],
                             ids=str)
    def test_rows_are_the_drawn_entries(self, field):
        # entry by entry, the real part and then, over Q(i), the
        # imaginary part; the stored rows equal from_rows' rows
        for rows, cols in ((0, 3), (3, 0), (3, 4)):
            rng, ref = random.Random(7), random.Random(7)
            a = _draw_matrix(rng, field, rows, cols, _ENTRY_BOUND)
            entries = []
            for _ in range(rows * cols):
                x = field.coerce(ref.randint(-_ENTRY_BOUND, _ENTRY_BOUND))
                if field.kind is FieldKind.GAUSSIAN_RATIONAL:
                    x = x + field.imaginary_unit() * field.coerce(
                        ref.randint(-_ENTRY_BOUND, _ENTRY_BOUND))
                entries.append(x)
            b = Matrix.from_rows(field, [entries[i * cols:(i + 1) * cols]
                                         for i in range(rows)], cols=cols)
            assert a.shape == b.shape and a._r == b._r
            assert rng.random() == ref.random()


class TestCheckTransform:
    def test_accepts_true_congruence(self):
        a = Matrix.from_rows(RATIONALS, [[0, 1], [1, 0]])
        x = Matrix.from_rows(RATIONALS, [[1, 1], [0, 1]])
        target = (x * a) * x.star
        assert check_transform(a, x, target).ok

    def test_rejects_singular_transform(self):
        a = Matrix.identity(RATIONALS, 2)
        x = Matrix.zeros(RATIONALS, 2, 2)
        report = check_transform(a, x, a)
        assert not report.ok
        assert "singular" in report.reason

    def test_reports_first_mismatch(self):
        a = jordan_block(RATIONALS, 2)
        x = Matrix.identity(RATIONALS, 2)
        report = check_transform(a, x, Matrix.zeros(RATIONALS, 2, 2))
        assert not report.ok
        assert "(0, 1)" in report.reason

    def test_dimension_mismatch(self):
        a = Matrix.identity(RATIONALS, 2)
        x = Matrix.identity(RATIONALS, 3)
        with pytest.raises(ValueError, match="dimension"):
            check_transform(a, x, a)


class TestSuites:
    def test_roundtrip_suite_passes(self):
        report = roundtrip_suite(6, seed=3)
        assert report.total == 6
        assert report.passed == 6
        assert report.ok
        assert report.failures == ()

    def test_roundtrip_deterministic(self):
        a = roundtrip_suite(4, seed=11)
        b = roundtrip_suite(4, seed=11)
        assert (a.total, a.passed, a.failures) == (
            b.total, b.passed, b.failures)

    def test_invariance_suite_passes(self):
        a = Matrix.from_rows(GAUSSIAN_CONJ, [[0, 1], [0, 0]])
        report = invariance_suite(a, 5, seed=7)
        assert report.ok and report.total == 5

    def test_invariance_prime_field(self):
        a = jordan_block(GF7, 3)
        assert invariance_suite(a, 4, seed=1).ok

    def test_suite_report_ok_semantics(self):
        bad = roundtrip_suite(0, seed=0)
        assert bad.total == 0 and bad.ok


# full_decomposition with one fault each; the suites must name it
def _extra_block(bs, x):
    mult = dict(bs.jordan_multiplicities)
    mult[1] = mult.get(1, 0) + 1
    return BlockSum(bs.regular_part, mult), x


def _larger_regular(bs, x):
    field = bs.regular_part.field
    return BlockSum(direct_sum(field, [bs.regular_part,
                                       Matrix.identity(field, 1)]),
                    bs.jordan_multiplicities), x


def _doubled_transform(bs, x):
    return bs, Matrix.from_rows(x.field, [[2 * v for v in x.row(i)]
                                          for i in range(x.rows)],
                                cols=x.cols)


@pytest.mark.parametrize("fault, reason", [
    (_extra_block, r"block multiset \{.*\} != \{.*\}"),
    (_larger_regular, r"regular size \d+ != \d+"),
    (_doubled_transform, r"mismatch at \(\d+, \d+\): .+ != .+"),
], ids=lambda v: getattr(v, "__name__", ""))
def test_roundtrip_suite_reports_failures(capsys, monkeypatch, fault, reason):
    real = verify_module.full_decomposition
    monkeypatch.setattr(verify_module, "full_decomposition",
                        lambda a: fault(*real(a)))
    report = roundtrip_suite(3, seed=0)
    assert not report.ok and report.total == 3
    # X scaled by 2 still passes where the assembled matrix is zero
    assert report.passed == (1 if fault is _doubled_transform else 0)
    for i, failure in enumerate(report.failures):
        assert re.fullmatch(rf"trial {i}: {reason}", failure), failure
    assert main(["verify", "--trials", "2"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["suite=roundtrip seed=0 trials=2", "passed 0/2"]
    assert [line[:14] for line in lines[2:]] == [
        "fail: trial 0:", "fail: trial 1:"]


def test_invariance_suite_reports_moved_invariants(monkeypatch):
    a = jordan_block(RATIONALS, 2)
    real = verify_module.regularize

    def longer_m_for_copies(b):
        res = real(b)
        return res if b is a else dataclasses.replace(res, m=res.m + (0, 0))

    monkeypatch.setattr(verify_module, "regularize", longer_m_for_copies)
    report = invariance_suite(a, 2, seed=0)
    assert (report.total, report.passed) == (2, 0)
    for i, failure in enumerate(report.failures):
        assert failure.startswith(
            f"trial {i}: congruence moved invariants from ")
