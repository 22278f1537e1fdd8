"""Acceptance gate.

Eight end-to-end contracts, one test per criterion.  Each is seeded and
deterministic; the timed ones use wall-clock budgets generous enough for
a loaded CI runner but tight enough to catch complexity regressions.
"""

import importlib
import random
import time

import numpy as np
import pytest

from congru import (
    FieldSpec,
    FloatMode,
    Matrix,
    check_transform,
    direct_sum,
    float_regularize,
    full_decomposition,
    invariance_suite,
    invariants,
    jordan_block,
    pattern_residual,
    pencil_regularize,
    rank,
    regularize,
    roundtrip_suite,
    sparse_nilpotent,
    unitarity_residual,
)
from congru.cli import main
from congru.pencil import KroneckerBlock, _witness_order
from congru.sparse_form import _jordan_images
from congru.verify import _ENTRY_BOUND, _draw_matrix

from conftest import lemma6_layout

RATIONALS = FieldSpec.rationals()
CONJ = FieldSpec.gaussian(conjugation=True)
IDENT = FieldSpec.gaussian(conjugation=False)

WORKED = "2 2\n1 -i\ni 1\n"


def test_criterion_1_worked_example(capsys, tmp_path):
    start = time.perf_counter()
    a_conj = Matrix.from_text(CONJ, WORKED)
    inv = invariants(a_conj)
    assert (inv.nu, inv.zeta, inv.kappa, inv.rho) == (1, 1, 0, 1)
    blocks, x = full_decomposition(a_conj)
    assert blocks.regular_part.shape == (1, 1)
    assert blocks.jordan_multiplicities == {1: 1}
    assert check_transform(a_conj, x, blocks_to_matrix(blocks)).ok

    a_ident = Matrix.from_text(IDENT, WORKED)
    inv2 = invariants(a_ident)
    assert (inv2.nu, inv2.zeta, inv2.kappa, inv2.rho) == (1, 0, 1, 0)
    blocks2, x2 = full_decomposition(a_ident)
    assert blocks2.regular_part.shape == (0, 0)
    assert blocks2.jordan_multiplicities == {2: 1}
    assert check_transform(a_ident, x2, blocks_to_matrix(blocks2)).ok

    path = tmp_path / "w.txt"
    path.write_text(WORKED)
    assert main(["decompose", "--field", "gaussian-rational",
                 "--involution", "conjugate", str(path)]) == 0
    out_conj = capsys.readouterr().out
    assert out_conj.splitlines()[0] == "regular 1x1; J1 x1"
    assert main(["decompose", "--field", "gaussian-rational",
                 str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "J2 x1"
    assert time.perf_counter() - start < 1.0


def blocks_to_matrix(blocks):
    field = blocks.regular_part.field
    parts = [blocks.regular_part]
    for size in sorted(blocks.jordan_multiplicities):
        parts.extend([jordan_block(field, size)]
                     * blocks.jordan_multiplicities[size])
    return direct_sum(field, parts)


def test_criterion_2_roundtrip_suite():
    start = time.perf_counter()
    report = roundtrip_suite(300, seed=2026)
    assert report.total == 300
    assert report.passed == 300, report.failures[:3]
    assert time.perf_counter() - start < 60.0


def _random_m(rng):
    tau = rng.randint(1, 4)
    seq = [rng.randint(1, 5)]
    for _ in range(2 * tau - 2):
        seq.append(rng.randint(1, seq[-1]))
    seq.append(rng.randint(0, seq[-1]))
    return tuple(seq)


def _m_sequences():
    rng = random.Random(40)
    return [_random_m(rng) for _ in range(100)]


def test_criterion_3_rank_power_formula():
    for m in _m_sequences():
        n = sparse_nilpotent(RATIONALS, m)
        power = Matrix.identity(RATIONALS, n.rows)
        for k in range(1, len(m) + 1):
            power = power * n
            assert rank(power) == sum(m[k:]), (m, k)
        assert power == Matrix.zeros(RATIONALS, n.rows, n.rows)


def test_criterion_4_jordan_permutation():
    for m in _m_sequences():
        order = _jordan_images(m)
        parts = []
        for k in range(1, len(m) + 1):
            nxt = m[k] if k < len(m) else 0
            parts.extend([jordan_block(RATIONALS, k)] * (m[k - 1] - nxt))
        want = direct_sum(RATIONALS, parts)
        assert sparse_nilpotent(RATIONALS, m).take(order, order) == want, m


def test_criterion_5_block_replacement():
    zero_one = {CONJ.coerce(0), CONJ.coerce(1)}
    for k in range(2, 10):
        order = _witness_order(k)
        got = jordan_block(CONJ, k).take(order, order)
        assert got == lemma6_layout(CONJ, k)
        assert KroneckerBlock(k, 1).kind == ("fg" if k % 2 else "ji")
        for i in range(k):
            for j in range(k):
                assert got[i, j] in zero_one


def _random_matrix(seed, field, n):
    return _draw_matrix(random.Random(seed), field, n, n, _ENTRY_BOUND)


def test_criterion_6_pencil_selfadjointness():
    rng = random.Random(60)
    for trial in range(50):
        n = rng.randint(0, 6)
        a = _random_matrix(trial, CONJ, n)
        if n > 1 and trial % 2:
            # force singular input half the time
            i, j = rng.sample(range(n), 2)
            rows = [[a[r, c] for c in range(n)] for r in range(n)]
            rows[i] = rows[j][:]
            a = Matrix.from_rows(CONJ, rows)
        pd = pencil_regularize(a)
        # X * A * X.star == C and X * A.star * X.star == C.star give
        # X * (A + lam A.star) * X.star == C + lam C.star for every lam
        for x, (c, c_star) in ((pd.transform, pd.jordan_parts()),
                               (pd.replaced_transform,
                                pd.replaced_parts())):
            assert (x * a) * x.star == c, trial
            assert (x * a.star) * x.star == c_star, trial


def _integer_matrix(rng, n, complex_entries):
    re = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    im = ([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
          if complex_entries else None)
    # singular structure shows up rarely in raw draws; force some
    if n > 1 and rng.random() < 0.7:
        for _ in range(rng.randint(1, n // 2 + 1)):
            i, j = rng.sample(range(n), 2)
            re[i] = re[j][:]
            if im is not None:
                im[i] = im[j][:]
    return re, im


def _exact_rows(field, re, im):
    if im is None:
        return [[field.from_int(x) for x in row] for row in re]
    iu = field.imaginary_unit()
    return [[field.from_int(a) + iu * field.from_int(b)
             for a, b in zip(ra, rb)] for ra, rb in zip(re, im)]


def test_criterion_7_float_exact_agreement():
    start = time.perf_counter()
    cases = [
        (FloatMode.real_identity(), RATIONALS),
        (FloatMode.complex_identity(), IDENT),
        (FloatMode.complex_conjugation(), CONJ),
    ]
    for mode, field in cases:
        rng = random.Random(70)
        for _ in range(100):
            n = rng.randint(1, 12)
            re, im = _integer_matrix(
                rng, n, complex_entries=mode.dtype == np.complex128)
            exact = Matrix.from_rows(field, _exact_rows(field, re, im))
            a = (np.array(re, dtype=float) if im is None
                 else np.array(re) + 1j * np.array(im))
            rf = float_regularize(a, mode)
            assert rf.m == regularize(exact).m
            assert unitarity_residual(rf.transform) <= 1e-12
            scale = np.abs(a).max()
            assert pattern_residual(rf) <= 1e-10 * scale
    assert time.perf_counter() - start < 30.0


def test_criterion_8_congruence_invariance():
    rng = random.Random(80)
    fields = [RATIONALS, CONJ, IDENT, FieldSpec.prime_field(7)]
    for base in range(20):
        field = fields[base % 4]
        if base % 3 == 0:
            sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
            blocks = [jordan_block(field, s) for s in sizes]
            blocks.append(_random_matrix(base, field, rng.randint(0, 2)))
            a = direct_sum(field, blocks)
        else:
            a = _random_matrix(base, field, rng.randint(1, 6))
        report = invariance_suite(a, 5, seed=base)
        assert report.ok, report.failures


PUBLIC_SURFACE = [
    "BlockSum", "CheckReport", "FieldKind", "FieldSpec", "FloatMode",
    "FloatStageRecord", "GaussianRational", "Invariants", "Involution",
    "KroneckerBlock", "Matrix", "MatrixParseError", "ModInt",
    "PencilDecomposition", "ReducedForm", "RegularizationResult",
    "SparseForm", "StageRecord",
    "SuiteReport", "__version__", "assemble", "canonical_sparse_form",
    "check_transform", "direct_sum", "float_regularize", "float_stage",
    "full_decomposition", "invariance_suite", "invariants", "inverse",
    "jordan_block", "multiplicities", "nullity", "nullspace",
    "parse_float_matrix", "pattern_residual", "pencil_regularize",
    "rank", "reduce_cde",
    "regularize", "render_float_matrix", "roundtrip_suite", "solve",
    "sparse_nilpotent", "stage", "unitarity_residual",
]


def test_public_surface():
    import congru

    assert sorted(congru.__all__) == PUBLIC_SURFACE
    for name in PUBLIC_SURFACE:
        assert getattr(congru, name) is not None
    # test helpers stay in their submodules, out of the package namespace
    for module, name in [("matrix", "row_echelon_transform"),
                         ("pencil", "_witness_order"),
                         ("sparse_form", "_jordan_images"),
                         ("regularize", "block_slices"),
                         ("regularize", "run_stages"),
                         ("float_unitary", "block_slices"),
                         ("float_unitary", "required_zero_mask"),
                         ("verify", "_draw_matrix"),
                         ("verify", "_draw_nonsingular")]:
        assert not hasattr(congru, name)
        assert hasattr(importlib.import_module(f"congru.{module}"), name)
