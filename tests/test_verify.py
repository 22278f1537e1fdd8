"""Randomized witnesses, transform checking, verification suites."""

import pytest

from congru import (
    FieldSpec,
    Matrix,
    check_transform,
    direct_sum,
    invariance_suite,
    jordan_block,
    rank,
    roundtrip_suite,
)
from congru.verify import (RandomSpec, nilpotent_jordan_oracle, random_matrix,
                           random_nonsingular)

from conftest import GAUSSIAN_CONJ, GF7, RATIONALS


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
        spec = RandomSpec(seed=5, size=4, field=GAUSSIAN_CONJ)
        assert random_matrix(spec) == random_matrix(spec)
        assert random_nonsingular(spec) == random_nonsingular(spec)

    def test_seed_changes_draw(self):
        a = random_matrix(RandomSpec(seed=1, size=4, field=RATIONALS))
        b = random_matrix(RandomSpec(seed=2, size=4, field=RATIONALS))
        assert a != b

    def test_nonsingular_is_nonsingular(self):
        for seed in range(6):
            spec = RandomSpec(seed=seed, size=5, field=GF7)
            assert rank(random_nonsingular(spec)) == 5

    def test_empty_size(self):
        spec = RandomSpec(seed=0, size=0, field=RATIONALS)
        assert random_nonsingular(spec).shape == (0, 0)


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
