"""Sparse nilpotent assembly, the coupling cleanup, and the full
decomposition pipeline."""

import hashlib
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from congru import (
    FieldSpec,
    GaussianRational,
    Matrix,
    StageRecord,
    assemble,
    canonical_sparse_form,
    check_transform,
    direct_sum,
    full_decomposition,
    jordan_block,
    rank,
    reduce_cde,
    regularize,
    sparse_nilpotent,
    stage,
)
from congru.sparse_form import _jordan_images

import congru.sparse_form as sparse_form_module
from conftest import (ALL_FIELDS, GAUSSIAN_CONJ, GAUSSIAN_IDENT, RATIONALS,
                      fielded_square, m_sequence, nilpotent_jordan_oracle,
                      scrambled_sum)

WORKED = "2 2\n1 -i\ni 1\n"


class TestSparseNilpotent:
    def test_single_chain_is_jordan_block(self):
        assert sparse_nilpotent(RATIONALS, (1, 1, 1, 0)) \
            == jordan_block(RATIONALS, 3)

    def test_m_2_1(self):
        n = sparse_nilpotent(RATIONALS, (2, 1))
        # blocks top to bottom: m_2 = 1 row, m_1 = 2 rows; one unit
        assert n.to_text() == "3 3\n0 1 0\n0 0 0\n0 0 0\n"

    @pytest.mark.parametrize("bad,msg", [
        ((1,), "even"),
        ((1, -1), "negative"),
        ((1, 2), "non-increasing"),
        ((2, 0, 1, 0), "non-increasing"),
        ((1, 0, 0, 0), "positive"),
    ])
    def test_invalid_m_rejected(self, bad, msg):
        with pytest.raises(ValueError, match="invalid m-sequence"):
            sparse_nilpotent(RATIONALS, bad)

    def test_bool_m_rejected(self):
        # (True, True) == (1, 1), but a bool is not a size
        with pytest.raises(ValueError, match="invalid m-sequence"):
            sparse_nilpotent(RATIONALS, (True, True))

    def test_empty_m(self):
        assert sparse_nilpotent(RATIONALS, ()).shape == (0, 0)


@given(m=m_sequence())
@settings(max_examples=60, deadline=None)
def test_rank_power_formula(m):
    n = sparse_nilpotent(RATIONALS, m)
    two_tau = len(m)
    power = Matrix.identity(RATIONALS, n.rows)
    for k in range(1, two_tau + 1):
        power = power * n
        assert rank(power) == sum(m[k:])
    assert power == Matrix.zeros(RATIONALS, n.rows, n.rows)


@given(m=m_sequence())
@settings(max_examples=60, deadline=None)
def test_jordan_permutation_sorts_chains(m):
    order = _jordan_images(m)
    got = sparse_nilpotent(RATIONALS, m).take(order, order)
    blocks = []
    for k in range(1, len(m) + 1):
        nxt = m[k] if k < len(m) else 0
        blocks.extend(jordan_block(RATIONALS, k)
                      for _ in range(m[k - 1] - nxt))
    assert got == direct_sum(RATIONALS, blocks)


def test_jordan_permutation_frozen_images():
    # m = (2, 1): chains of length 2 and 1; nodes reorder as 2,0,1
    order = _jordan_images((2, 1))
    assert order == [2, 0, 1]
    n = sparse_nilpotent(RATIONALS, (2, 1))
    want = direct_sum(RATIONALS, [jordan_block(RATIONALS, 1),
                                  jordan_block(RATIONALS, 2)])
    assert n.take(order, order) == want
    # identity when the sparse layout is already one chain
    assert _jordan_images((1, 1, 1, 0)) == [0, 1, 2]


def _mat(rows) -> Matrix:
    return Matrix.from_rows(RATIONALS, rows)


class TestReduceCde:
    def test_worked_example_identity_trace(self):
        a = Matrix.from_text(GAUSSIAN_IDENT, WORKED)
        rec = stage(a)
        total = reduce_cde(rec) * rec.transform
        assert total == Matrix.from_text(GAUSSIAN_IDENT,
                                         "2 2\n1/2 -1/2*i\n1/2 1/2*i\n")
        assert (total * a) * total.star \
            == Matrix.from_text(GAUSSIAN_IDENT, "2 2\n0 1\n0 0\n")

    def test_rational_scaling(self):
        # stage form [[0, 2], [0, 0]]: scaling the unit to 1 needs 1/2
        rec = StageRecord(
            m_odd=1, m_even=1, transform=Matrix.identity(RATIONALS, 2),
            a_next=Matrix.zeros(RATIONALS, 0, 0),
            b=Matrix.zeros(RATIONALS, 0, 1),
            c=Matrix.zeros(RATIONALS, 1, 0), d=_mat([[0]]), e=_mat([[2]]))
        form = rec.stage_form()
        assert form == _mat([[0, 2], [0, 0]])
        x = reduce_cde(rec)
        assert (x * form) * x.star == _mat([[0, 1], [0, 0]])

    def test_nothing_to_reduce(self):
        # an empty rank block leaves nothing to clear or normalize, and
        # the block formula gives the identity
        for field in ALL_FIELDS:
            rec = stage(Matrix.zeros(field, 2, 2))
            assert (rec.m_odd, rec.m_even) == (2, 0)
            assert reduce_cde(rec) == Matrix.identity(field, 2)

    def test_clears_c_and_d(self):
        # [[A1, B, 0], [C, D, E], [0, 0, 0]] with nonzero C, D
        rec = StageRecord(
            m_odd=1, m_even=1, transform=Matrix.identity(RATIONALS, 3),
            a_next=_mat([[1]]), b=_mat([[5]]), c=_mat([[3]]),
            d=_mat([[7]]), e=_mat([[2]]))
        form = rec.stage_form()
        assert form == _mat([[1, 5, 0], [3, 7, 2], [0, 0, 0]])
        x = reduce_cde(rec)
        assert (x * form) * x.star == _mat([
            [1, 5, 0],
            [0, 0, 1],
            [0, 0, 0],
        ])


def test_pipeline_reads_stages_without_assembling_them(monkeypatch):
    # the block layout of a stage lives in the record; the reduction
    # reads c, d and e from it and never rebuilds the n x n stage form
    def refuse(self):
        raise AssertionError("StageRecord.stage_form called")

    rng = random.Random(7)
    cases = [Matrix.from_text(GAUSSIAN_IDENT, WORKED),
             scrambled_sum(rng, RATIONALS, 2, [1, 2, 3, 3])[0]]
    monkeypatch.setattr(StageRecord, "stage_form", refuse)
    for a in cases:
        assert any(rec.m_even for rec in regularize(a).stages)
        bs, x = full_decomposition(a)
        rep = check_transform(a, x, assemble(bs))
        assert rep.ok, rep.reason


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_canonical_sparse_form_properties(data):
    a = data.draw(fielded_square(max_n=5))
    sf = canonical_sparse_form(a)
    assert sf.m == regularize(a).m
    assert sf.regular_part.is_nonsingular()
    assert sf.nilpotent == sparse_nilpotent(a.field, sf.m)
    target = direct_sum(a.field, [sf.regular_part, sf.nilpotent])
    rep = check_transform(a, sf.global_transform, target)
    assert rep.ok, rep.reason


def test_canonical_sparse_form_requires_square():
    with pytest.raises(ValueError, match="requires a square matrix"):
        canonical_sparse_form(Matrix.zeros(RATIONALS, 1, 2))


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_full_decomposition_properties(data):
    a = data.draw(fielded_square(max_n=5))
    bs, x = full_decomposition(a)
    rep = check_transform(a, x, assemble(bs))
    assert rep.ok, rep.reason
    sf = canonical_sparse_form(a)
    if sf.nilpotent.rows:
        assert dict(bs.jordan_multiplicities) \
            == nilpotent_jordan_oracle(sf.nilpotent)
    else:
        assert dict(bs.jordan_multiplicities) == {}


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_jordan_permutation_applied_as_a_row_order(data):
    # X is (I (+) P) * global_transform without the product, for P
    # the permutation matrix with P[i, order[i]] = 1
    a = data.draw(fielded_square(max_n=5))
    sf = canonical_sparse_form(a)
    field = a.field
    order = _jordan_images(sf.m)
    p = Matrix.zero_one(field, len(order), len(order), enumerate(order))
    ident = Matrix.identity(field, sf.regular_part.rows)
    assert full_decomposition(a)[1] \
        == direct_sum(field, [ident, p]) * sf.global_transform


def test_scrambled_sums_recovered_exactly():
    rng = random.Random(2024)
    for field in (RATIONALS, GAUSSIAN_CONJ, GAUSSIAN_IDENT):
        for _ in range(6):
            sizes = [rng.randint(1, 4)
                     for _ in range(rng.randint(1, 3))]
            a, canonical = scrambled_sum(rng, field, rng.randint(0, 3),
                                         sizes)
            bs, x = full_decomposition(a)
            want = {k: sizes.count(k) for k in set(sizes)}
            assert dict(bs.jordan_multiplicities) == want
            rep = check_transform(a, x, assemble(bs))
            assert rep.ok, rep.reason


def test_every_level_meets_its_contract(monkeypatch):
    # the pipeline computes only each level's transform F; the stage's
    # own form P = [[a_next, b, 0], [0, 0, [I 0]], [0, 0, 0]], whose
    # a_next the inner transform xg carries to g, is built here as the
    # oracle, and F * P * F.star must be the canonical block that the
    # parameter sequence fixes
    merge = sparse_form_module._merge_level
    levels = []

    def recording(g, xg, bottom_zero, rec):
        f = merge(g, xg, bottom_zero, rec)
        levels.append((g, bottom_zero, rec, f))
        return f

    monkeypatch.setattr(sparse_form_module, "_merge_level", recording)
    rng = random.Random(11)
    seen_bottom_zero = False
    for field in ALL_FIELDS:
        zeros = lambda r, c: Matrix.zeros(field, r, c)  # noqa: E731
        # [1, 2, 3, 3] gives m = (4, 3, 2, 0): its outer level merges
        # with bottom_zero = 2 and m_odd = 4 > m_even = 3
        cases = [[1, 2, 3, 3]] + [[rng.randint(1, 4)
                                   for _ in range(rng.randint(1, 3))]
                                  for _ in range(3)]
        for sizes in cases:
            a, _ = scrambled_sum(rng, field, rng.randint(0, 3), sizes)
            levels.clear()
            sf = canonical_sparse_form(a)
            m, regular = sf.m, sf.regular_part
            assert len(levels) == len(m) // 2
            for k, (g, bottom_zero, rec, f) in zip(
                    reversed(range(len(m) // 2)), levels):
                assert g == direct_sum(field, [
                    regular, sparse_nilpotent(field, m[2 * k + 2:])])
                h, m_odd, m_even = g.rows, rec.m_odd, rec.m_even
                unit = Matrix.from_blocks(field, [[
                    Matrix.identity(field, m_even),
                    zeros(m_even, m_odd - m_even)]])
                p = Matrix.from_blocks(field, [
                    [rec.a_next, rec.b, zeros(h, m_odd)],
                    [zeros(m_even, h), zeros(m_even, m_even), unit],
                    [zeros(m_odd, h), zeros(m_odd, m_even),
                     zeros(m_odd, m_odd)],
                ])
                assert (f * p) * f.star == direct_sum(field, [
                    regular, sparse_nilpotent(field, m[2 * k:])])
                if bottom_zero > 0 and m_odd > m_even:
                    seen_bottom_zero = True
    assert seen_bottom_zero


@pytest.mark.parametrize("p", [2, 3, 7, 2**31 - 1])
def test_prime_field_entries_are_canonical_residues(p):
    # every GF(p) entry the pipeline stores is an int in [0, p), so
    # Matrix.__eq__ (raw tuples) and check_transform see true equality
    field = FieldSpec.prime_field(p)
    rng = random.Random(p)

    def canonical(mat):
        return all(type(v) is int and 0 <= v < p
                   for i in range(mat.rows) for v in mat.row(i))

    for _ in range(4):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        a, _ = scrambled_sum(rng, field, rng.randint(0, 3), sizes)
        bs, x = full_decomposition(a)
        sf = canonical_sparse_form(a)
        blocks = [x, bs.regular_part, sf.regular_part, sf.nilpotent,
                  sf.global_transform]
        for rec in regularize(a).stages:
            blocks += [rec.transform, rec.a_next, rec.b, rec.c, rec.d,
                       rec.e]
        assert all(canonical(b) for b in blocks)
        rep = check_transform(a, x, assemble(bs))
        assert rep.ok, rep.reason


def test_gaussian_entries_keep_the_surface_bench_reads():
    # bench/oracle.py `entry_bits` counts bits of entries of X only when
    # they are GaussianRational values, through `.re` and `.im`; and
    # bench/run.py `_axpy_us` times `a - b * c` on entries of X.  Both
    # read X in the library and as parsed back from its JSON.
    rng = random.Random(5)
    a, _ = scrambled_sum(rng, GAUSSIAN_CONJ, 2, [1, 2, 3])
    _, x = full_decomposition(a)
    parsed = Matrix.from_json_dict(GAUSSIAN_CONJ, x.to_json_dict())
    entries = [v for mat in (x, parsed) for i in range(mat.rows)
               for v in mat.row(i)]
    assert any(v.im for v in entries)
    for v in entries:
        assert isinstance(v, GaussianRational)
        assert type(v.re) is Fraction and type(v.im) is Fraction
        assert v._d > 0 and gcd(v._a, v._b, v._d) == 1
    for _ in range(200):
        e1, e2, e3 = (rng.choice(entries) for _ in range(3))
        assert isinstance(e1 - e2 * e3, GaussianRational)


GF_BIG = FieldSpec.prime_field(2 ** 31 - 1)


def _baseline_input(field) -> Matrix:
    """The baseline recipe at n=26: A = S* (B + J_1 + J_2 + J_3 + J_4 +
    J_5 + J_3 + J_2) S with B (6 x 6) and S drawn by
    _draw_nonsingular(random.Random(0), field, ., 3)."""
    from congru.verify import _draw_nonsingular

    rng = random.Random(0)
    b = _draw_nonsingular(rng, field, 6, 3)
    canonical = direct_sum(field, [b] + [
        jordan_block(field, k) for k in (1, 2, 3, 4, 5, 3, 2)])
    s = _draw_nonsingular(rng, field, 26, 3)
    return (s.star * canonical) * s


@pytest.mark.parametrize("field, scaled, digest", [
    (RATIONALS, False,
     "802bf6ac60b88e13f6038e48a44a6aa87fa0eef2c48d5c1002dbbcd938b1e219"),
    (RATIONALS, True,
     "2d1ce4f7732b458b7f6c46194f6872901b67242e47536dd3d4aaa4be2d54342e"),
    (GAUSSIAN_CONJ, False,
     "610b7ea960734f6ffbebbb475921d7341a3d0c36eb1c3a3ae40aedd714a04e16"),
    (GF_BIG, False,
     "21abb75d695499a191ea913fd9402f5b699e0fcb39b8291ff4a5521340864e42"),
], ids=["integer", "fractional", "gaussian", "prime"])
def test_rational_transform_is_pinned(field, scaled, digest):
    # SHA-256 digests of X's text.  X depends on the completions that
    # the stages and merges choose, such as unit rows over each left
    # null basis, and not on how the exact field arithmetic is carried
    # out.  The fractional
    # input is D A D with D = diag(1 / (1 + i % 7)), a congruence, so
    # it keeps A's Jordan structure while every Q kernel row starts
    # with a denominator.
    a = _baseline_input(field)
    if scaled:
        a = Matrix.from_rows(field, [
            [a[i, j] / ((1 + i % 7) * (1 + j % 7)) for j in range(a.cols)]
            for i in range(a.rows)])
    _, x = full_decomposition(a)
    assert hashlib.sha256(x.to_text().encode()).hexdigest() == digest


def test_worked_example_full_pipeline_conjugation():
    a = Matrix.from_text(GAUSSIAN_CONJ, WORKED)
    bs, x = full_decomposition(a)
    assert dict(bs.jordan_multiplicities) == {1: 1}
    assert bs.regular_part.rows == 1
    assert bs.regular_part.is_nonsingular()
    assert (x * a) * x.star == assemble(bs)


def test_worked_example_full_pipeline_identity():
    a = Matrix.from_text(GAUSSIAN_IDENT, WORKED)
    bs, x = full_decomposition(a)
    assert dict(bs.jordan_multiplicities) == {2: 1}
    assert bs.regular_part.shape == (0, 0)
    assert (x * a) * x.star == jordan_block(GAUSSIAN_IDENT, 2)
