"""Selfadjoint pencil regularization and Jordan-block replacement."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from congru import (
    FieldSpec,
    Matrix,
    SelfadjointPencil,
    jordan_block,
    pencil_regularize,
)
from congru.pencil import lemma6_permutation, permuted_jordan_target, replace_block

from conftest import GAUSSIAN_CONJ, RATIONALS, scrambled_sum

CONJ = GAUSSIAN_CONJ


def _jordan(field, k):
    return jordan_block(field, k)


class TestPermutation:
    def test_size_one_rejected(self):
        with pytest.raises(ValueError, match="size 2 and up"):
            lemma6_permutation(1)

    def test_frozen_images(self):
        assert lemma6_permutation(2) == (0, 1)
        assert lemma6_permutation(3) == (1, 2, 0)
        assert lemma6_permutation(4) == (0, 2, 1, 3)
        assert lemma6_permutation(5) == (2, 4, 1, 3, 0)

    @pytest.mark.parametrize("k", range(2, 10))
    def test_is_permutation(self, k):
        images = lemma6_permutation(k)
        assert sorted(images) == list(range(k))


class TestTarget:
    @pytest.mark.parametrize("build", [permuted_jordan_target,
                                       replace_block])
    def test_size_zero_rejected(self, build):
        with pytest.raises(ValueError, match="block size must be positive"):
            build(RATIONALS, 0)

    def test_size_one(self):
        t = permuted_jordan_target(CONJ, 1)
        assert t.to_text() == "1 1\n0\n"

    def test_size_two(self):
        assert permuted_jordan_target(CONJ, 2).to_text() == "2 2\n0 1\n0 0\n"

    def test_size_three(self):
        want = "3 3\n0 0 0\n0 0 1\n1 0 0\n"
        assert permuted_jordan_target(CONJ, 3).to_text() == want

    def test_size_four(self):
        want = "4 4\n0 0 1 0\n0 0 0 1\n0 1 0 0\n0 0 0 0\n"
        assert permuted_jordan_target(CONJ, 4).to_text() == want


class TestReplacement:
    @pytest.mark.parametrize("k", range(1, 10))
    def test_witness_routes_jordan_block(self, k):
        rep = replace_block(CONJ, k)
        s = rep.witness
        got = (s * _jordan(CONJ, k)) * s.star
        assert got == rep.constant_part

    @pytest.mark.parametrize("k", range(1, 10))
    def test_lambda_part_is_transpose(self, k):
        # the pencil of J_k presents the Kronecker pair C + lam * C^T
        pd = pencil_regularize(SelfadjointPencil(_jordan(CONJ, k)))
        c, ell = pd.replaced_parts()
        assert c == replace_block(CONJ, k).constant_part
        assert ell == c.transpose()

    def test_kind_by_parity(self):
        assert replace_block(CONJ, 3).kind == "fg"
        assert replace_block(CONJ, 4).kind == "ji"
        assert replace_block(CONJ, 3).ell == 2
        assert replace_block(CONJ, 4).ell == 2


class TestPencil:
    def test_requires_square(self):
        a = Matrix.zeros(CONJ, 1, 2)
        with pytest.raises(ValueError, match="square"):
            SelfadjointPencil(a)

    def test_evaluate(self):
        a = Matrix.from_rows(CONJ, [[0, 1], [0, 0]])
        p = SelfadjointPencil(a)
        lam = CONJ.coerce(2)
        got = p.evaluate(lam)
        assert got == a + a.star.scale(lam)


def _check_roundtrips(pd, a):
    pencil = SelfadjointPencil(a)
    lams = [CONJ.coerce(0), CONJ.coerce(1), CONJ.coerce(-1),
            CONJ.imaginary_unit(), CONJ.coerce(2)]
    x = pd.transform
    y = pd.replaced_transform
    for lam in lams:
        lhs = (x * pencil.evaluate(lam)) * x.star
        assert lhs == pd.jordan_form(lam)
        lhs2 = (y * pencil.evaluate(lam)) * y.star
        assert lhs2 == pd.replaced_form(lam)


class TestPencilRegularize:
    def test_nonsingular_passthrough(self):
        a = Matrix.from_rows(CONJ, [[2, 1], [0, 1]])
        pd = pencil_regularize(SelfadjointPencil(a))
        assert pd.kronecker_blocks == ()
        assert pd.regular.shape == (2, 2)
        _check_roundtrips(pd, a)

    def test_single_jordan_block(self):
        a = _jordan(CONJ, 3)
        pd = pencil_regularize(SelfadjointPencil(a))
        sizes = [(b.size, b.multiplicity) for b in pd.kronecker_blocks]
        assert sizes == [(3, 1)]
        _check_roundtrips(pd, a)

    def test_replaced_parts_shapes(self):
        a = _jordan(CONJ, 2)
        pd = pencil_regularize(SelfadjointPencil(a))
        const, lam = pd.replaced_parts()
        assert const.shape == (2, 2)
        assert lam == const.transpose()
        jc, jl = pd.jordan_parts()
        assert jc == _jordan(CONJ, 2)
        assert jl == _jordan(CONJ, 2).transpose()

    @pytest.mark.parametrize("seed", range(8))
    def test_scrambled_sums(self, seed):
        rng = random.Random(900 + seed)
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(0, 2))]
        b_size = rng.randint(0, 3)
        if b_size + sum(sizes) == 0:
            b_size = 2
        a, _ = scrambled_sum(rng, CONJ, b_size, sizes)
        pd = pencil_regularize(SelfadjointPencil(a))
        got = sorted(
            s for b in pd.kronecker_blocks
            for s in [b.size] * b.multiplicity)
        assert got == sorted(sizes)
        assert pd.regular.shape == (b_size, b_size)
        _check_roundtrips(pd, a)
