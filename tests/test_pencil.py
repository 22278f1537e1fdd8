"""Selfadjoint pencil regularization and Jordan-block replacement."""

import json
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from congru import (
    FieldSpec,
    Matrix,
    direct_sum,
    jordan_block,
    pencil_regularize,
)
from congru.cli import CliConfig, run
from congru.pencil import KroneckerBlock, _witness_order

from conftest import (GAUSSIAN_CONJ, GF7, RATIONALS, lemma6_layout,
                      scrambled_sum)

CONJ = GAUSSIAN_CONJ


def _jordan(field, k):
    return jordan_block(field, k)


class TestPermutation:
    """The witness order of J_k: the inverse of the Lemma 6
    permutation, as a row order."""

    def test_frozen_images(self):
        assert _witness_order(1) == (0,)
        assert _witness_order(2) == (0, 1)
        assert _witness_order(3) == (2, 0, 1)
        assert _witness_order(4) == (0, 2, 1, 3)
        assert _witness_order(5) == (4, 2, 0, 3, 1)

    @pytest.mark.parametrize("k", range(1, 41))
    def test_is_permutation(self, k):
        assert sorted(_witness_order(k)) == list(range(k))


def _target(k):
    # the replaced constant part of the pencil of J_k
    pd = pencil_regularize(_jordan(CONJ, k))
    return pd.replaced_parts()[0]


class TestTarget:
    def test_size_one(self):
        assert _target(1).to_text() == "1 1\n0\n"

    def test_size_two(self):
        assert _target(2).to_text() == "2 2\n0 1\n0 0\n"

    def test_size_three(self):
        want = "3 3\n0 0 0\n0 0 1\n1 0 0\n"
        assert _target(3).to_text() == want

    def test_size_four(self):
        want = "4 4\n0 0 1 0\n0 0 0 1\n0 1 0 0\n0 0 0 0\n"
        assert _target(4).to_text() == want

    @pytest.mark.parametrize("k", range(1, 14))
    def test_lemma6_layout(self, k):
        assert _target(k) == lemma6_layout(CONJ, k)


class TestReplacement:
    @pytest.mark.parametrize("k", range(1, 41))
    def test_witness_routes_jordan_block(self, k):
        order = _witness_order(k)
        assert _jordan(CONJ, k).take(order, order) == lemma6_layout(CONJ, k)

    @pytest.mark.parametrize("k", range(1, 10))
    def test_lambda_part_is_transpose(self, k):
        # the pencil of J_k presents the Kronecker pair C + lam * C^T
        pd = pencil_regularize(_jordan(CONJ, k))
        c, ell = pd.replaced_parts()
        assert c == lemma6_layout(CONJ, k)
        assert ell == c.transpose()

    def test_kind_by_parity(self):
        assert KroneckerBlock(3, 1).kind == "fg"
        assert KroneckerBlock(4, 1).kind == "ji"
        assert KroneckerBlock(3, 1).ell == 2
        assert KroneckerBlock(4, 1).ell == 2


class TestPencil:
    def test_requires_square(self):
        a = Matrix.zeros(CONJ, 1, 2)
        with pytest.raises(ValueError, match="square"):
            pencil_regularize(a)


def _check_roundtrips(pd, a):
    # X carries each coefficient of a + lam * a.star onto its
    # counterpart, so it carries the pencil for every lam
    for x, (c, c_star) in ((pd.transform, pd.jordan_parts()),
                           (pd.replaced_transform, pd.replaced_parts())):
        assert (x * a) * x.star == c
        assert (x * a.star) * x.star == c_star


class TestPencilRegularize:
    def test_nonsingular_passthrough(self):
        a = Matrix.from_rows(CONJ, [[2, 1], [0, 1]])
        pd = pencil_regularize(a)
        assert pd.kronecker_blocks == ()
        assert pd.regular.shape == (2, 2)
        _check_roundtrips(pd, a)

    def test_single_jordan_block(self):
        a = _jordan(CONJ, 3)
        pd = pencil_regularize(a)
        sizes = [(b.size, b.multiplicity) for b in pd.kronecker_blocks]
        assert sizes == [(3, 1)]
        _check_roundtrips(pd, a)

    def test_replaced_parts_shapes(self):
        a = _jordan(CONJ, 2)
        pd = pencil_regularize(a)
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
        pd = pencil_regularize(a)
        got = sorted(
            s for b in pd.kronecker_blocks
            for s in [b.size] * b.multiplicity)
        assert got == sorted(sizes)
        assert pd.regular.shape == (b_size, b_size)
        _check_roundtrips(pd, a)

    @pytest.mark.parametrize("field", [CONJ, RATIONALS, GF7], ids=str)
    def test_replaced_parts_are_the_replacement_sum(self, field):
        # the replaced presentation, assembled summand by summand from
        # the regular part and each size's explicit Lemma 6 layout
        sizes = [1, 2, 2, 3, 5, 5, 6]
        a, _ = scrambled_sum(random.Random(31), field, 2, sizes)
        pd = pencil_regularize(a)
        assert {kb.size: kb.multiplicity for kb in pd.kronecker_blocks} \
            == {1: 1, 2: 2, 3: 1, 5: 2, 6: 1}
        blocks = [pd.regular]
        for kb in pd.kronecker_blocks:
            blocks.extend([lemma6_layout(field, kb.size)] * kb.multiplicity)
        want = direct_sum(field, blocks)
        c, c_star = pd.replaced_parts()
        assert c == want
        assert c_star == want.star
        y = pd.replaced_transform
        assert (y * a) * y.star == want


def _count_calls(monkeypatch, names):
    """Count the calls of each (module, name) pair, through every
    congru module that binds that function."""
    counts = {}
    for module, name in names:
        real = getattr(module, name)
        counts[name] = 0

        def counted(*args, _name=name, _real=real):
            counts[_name] += 1
            return _real(*args)

        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("congru")
                    and getattr(mod, name, None) is real):
                monkeypatch.setattr(mod, name, counted)
    return counts


@pytest.mark.parametrize("json_io", [False, True], ids=["text", "json"])
def test_cli_pencil_builds_each_part_once(json_io, tmp_path, monkeypatch):
    # J1 (+) 2 J2 (+) J3 after a 1x1 regular block: the Jordan sum is
    # assembled once and the replaced order read once per distinct size
    blocks = [Matrix.from_rows(RATIONALS, [[2]]), _jordan(RATIONALS, 1),
              _jordan(RATIONALS, 2), _jordan(RATIONALS, 2),
              _jordan(RATIONALS, 3)]
    a = direct_sum(RATIONALS, blocks)
    path = tmp_path / "a.txt"
    path.write_text(json.dumps(a.to_json_dict()) if json_io else a.to_text())
    counts = _count_calls(monkeypatch, [
        (sys.modules["congru.regularize"], "assemble"),
        (sys.modules["congru.pencil"], "_witness_order")])
    res = run(CliConfig("pencil", str(path), json_io=json_io,
                        emit_transform=True))
    assert res.status == 0, res.err
    assert counts == {"assemble": 1, "_witness_order": 3}
