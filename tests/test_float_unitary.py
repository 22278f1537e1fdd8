"""Floating-point unitary/orthogonal path."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from congru import (
    FieldSpec,
    FloatMode,
    Matrix,
    MatrixParseError,
    float_regularize,
    float_stage,
    parse_float_matrix,
    pattern_residual,
    regularize,
    render_float_matrix,
    unitarity_residual,
)
import congru.float_unitary
from congru.float_unitary import _read_float, block_slices, required_zero_mask
from congru.regularize import run_stages
from congru.matrix import _read_json

from conftest import GAUSSIAN_CONJ, GAUSSIAN_IDENT, RATIONALS

WORKED = np.array([[1, -1j], [1j, 1]])


class TestFloatMode:
    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            FloatMode("quaternionic")

    def test_tol_positive(self):
        for tol in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="positive"):
                FloatMode.real_identity(tol=tol)

    def test_tol_bool_rejected(self):
        # True == 1, but a bool is not a tolerance
        with pytest.raises(ValueError, match="positive"):
            FloatMode("real-identity", True)

    def test_adjoint_per_mode(self):
        a = np.array([[1j]])
        assert FloatMode.complex_conjugation().adjoint(a)[0, 0] == -1j
        assert FloatMode.complex_identity().adjoint(a)[0, 0] == 1j

    def test_dtype(self):
        assert FloatMode.real_identity().dtype == np.float64
        assert FloatMode.complex_identity().dtype == np.complex128


class TestFloatStage:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            float_stage(np.array([[np.nan]]), FloatMode.real_identity())
        with pytest.raises(ValueError, match="finite"):
            float_regularize(np.array([[np.inf]]),
                             FloatMode.real_identity())

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            float_stage(np.zeros((1, 2)), FloatMode.real_identity())

    def test_empty_input(self):
        # a 0x0 input takes the general path: empty SVDs, no split
        for mode in (FloatMode.real_identity(), FloatMode.complex_identity(),
                     FloatMode.complex_conjugation()):
            rec = float_stage(np.zeros((0, 0)), mode)
            assert (rec.m_odd, rec.m_even) == (0, 0)
            for block in (rec.transform, rec.form, rec.a_next):
                assert block.shape == (0, 0)
                assert block.dtype == mode.dtype
            assert rec.warnings == ()

    def test_nonsingular_input_signals_zero(self):
        rec = float_stage(np.eye(3), FloatMode.real_identity())
        assert rec.m_odd == 0

    def test_worked_example_conjugation(self):
        rec = float_stage(WORKED, FloatMode.complex_conjugation())
        assert (rec.m_odd, rec.m_even) == (1, 0)

    def test_worked_example_identity(self):
        rec = float_stage(WORKED, FloatMode.complex_identity())
        assert (rec.m_odd, rec.m_even) == (1, 1)
        t = rec.transform
        assert np.abs(t.conj().T @ t - np.eye(2)).max() < 1e-12


class TestFloatRegularize:
    def test_worked_example_both_involutions(self):
        rf = float_regularize(WORKED, FloatMode.complex_conjugation())
        assert rf.m == (1, 0)
        assert rf.regular_block.shape == (1, 1)
        assert abs(rf.regular_block[0, 0] - 2.0) < 1e-12
        rf2 = float_regularize(WORKED, FloatMode.complex_identity())
        assert rf2.m == (1, 1)
        assert rf2.regular_block.shape == (0, 0)

    def test_transform_reproduces_reduced(self):
        rf = float_regularize(WORKED, FloatMode.complex_identity())
        mode = rf.mode
        got = rf.transform @ WORKED @ mode.adjoint(rf.transform)
        assert np.abs(got - rf.reduced).max() < 1e-12

    def test_zero_matrix(self):
        rf = float_regularize(np.zeros((3, 3)), FloatMode.real_identity())
        assert rf.m == (3, 0)
        assert rf.regular_block.shape == (0, 0)

    def test_fixed_tolerance_coarsens_rank(self):
        a = np.diag([1.0, 1e-9])
        assert float_regularize(a, FloatMode.real_identity()).m == ()
        rf = float_regularize(a, FloatMode.real_identity(tol=1e-6))
        assert rf.m == (1, 0)

    def test_borderline_warning_emitted(self):
        a = np.diag([1.0, 5e-7])
        rf = float_regularize(a, FloatMode.real_identity(tol=1e-6))
        assert any("borderline" in w for w in rf.warnings)


    def test_increasing_m_is_refused(self, monkeypatch):
        # rank n - 1 for the working block and 2 for its n - 1 x 1
        # coupling block: the first stage gives m = (1, 2)
        def increasing(s, shape, mode, scale):
            return (shape[0] - 1 if shape[0] == shape[1] else 2), []

        monkeypatch.setattr("congru.float_unitary._decide_rank", increasing)
        a = np.arange(16.0).reshape(4, 4) + np.eye(4)
        with pytest.raises(RuntimeError,
                           match=r"non-increasing, got \(1, 2\)"):
            float_regularize(a, FloatMode.real_identity())

    def test_run_stages_returns_m(self):
        # the float twin of the exact test: J_1 (+) J_2 (+) J_3 (+) 1
        a = np.zeros((7, 7))
        a[0, 0] = a[2, 3] = a[4, 5] = a[5, 6] = 1.0
        mode = FloatMode.real_identity()
        stages, last, m = run_stages(
            float_stage(a, mode), lambda w: float_stage(w, mode, 1.0))
        assert len(stages) == 2
        assert m == tuple(v for rec in stages
                          for v in (rec.m_odd, rec.m_even))
        assert m == float_regularize(a, mode).m == (3, 2, 1, 0)
        assert last.m_odd == 0

    def test_scale_comes_from_the_first_stage(self, monkeypatch):
        # no second SVD of the input: every stage ranks against the
        # first stage's largest singular value, the input's norm 7,
        # though the later working blocks have norm 2
        b = np.zeros((7, 7))
        b[0, 0] = 2.0
        b[2, 3] = b[4, 5] = b[5, 6] = 7.0
        q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(7, 7)))
        a = q @ b @ q.T
        norm = np.linalg.svd(a, compute_uv=False)[0]
        records = []

        def recorded(*args):
            records.append(real(*args))
            return records[-1]

        def refused(*args, **kwargs):
            raise AssertionError("numpy.linalg.norm called")

        real = congru.float_unitary.float_stage
        monkeypatch.setattr(congru.float_unitary, "float_stage", recorded)
        monkeypatch.setattr(np.linalg, "norm", refused)
        rf = float_regularize(a, FloatMode.real_identity())
        assert rf.m == (3, 2, 1, 0)
        assert len(records) == 3
        for rec in records:
            assert abs(rec.scale - norm) <= 1e-14 * norm


class TestPattern:
    def test_mask_tau_1(self):
        # layout [regular, m_2, m_1]; coupling cell and B cell free
        mask = required_zero_mask(1, (1, 1))
        want = np.array([
            [False, False, True],
            [False, False, False],
            [True, True, True],
        ])
        assert (mask == want).all()

    def test_mask_excludes_regular_corner(self):
        assert not required_zero_mask(2, ()).any()

    def test_block_slices_layout(self):
        slices = block_slices(2, (1, 1, 1, 1))
        labels = [lbl for lbl, _ in slices]
        assert labels == [5, 4, 3, 2, 1]
        assert slices[0][1] == slice(0, 2)

    def test_pattern_residual_flags_violation(self):
        rf = float_regularize(np.zeros((2, 2)), FloatMode.real_identity())
        assert pattern_residual(rf) == 0.0


def _exact_m(rows, field):
    return regularize(Matrix.from_rows(field, rows)).m


def _random_int_rows(rng, n, complex_entries):
    rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
    if complex_entries:
        ims = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        return rows, ims
    return rows, None


def _degrade(rng, rows, ims):
    n = len(rows)
    if n > 1 and rng.random() < 0.8:
        i, j = rng.sample(range(n), 2)
        rows[i] = rows[j][:]
        if ims is not None:
            ims[i] = ims[j][:]


def _check_float_matches_exact(mode_name, field, seed):
    mode = FloatMode(mode_name)
    rng = random.Random(seed)
    for _ in range(25):
        n = rng.randint(1, 7)
        rows, ims = _random_int_rows(
            rng, n, complex_entries=mode.dtype == np.complex128)
        _degrade(rng, rows, ims)
        if ims is None:
            a_float = np.array(rows, dtype=float)
            exact_rows = rows
        else:
            a_float = np.array(rows) + 1j * np.array(ims)
            i_unit = field.imaginary_unit()
            exact_rows = [
                [field.from_int(r) + i_unit * field.from_int(m)
                 for r, m in zip(rr, mm)]
                for rr, mm in zip(rows, ims)]
        rf = float_regularize(a_float, mode)
        assert rf.m == _exact_m(exact_rows, field)
        assert unitarity_residual(rf.transform) <= 1e-12
        scale = max(np.abs(a_float).max(), 1.0)
        assert pattern_residual(rf) <= 1e-10 * scale


@pytest.mark.parametrize("mode_name,field", [
    ("real-identity", RATIONALS),
    ("complex-identity", GAUSSIAN_IDENT),
    ("complex-conjugation", GAUSSIAN_CONJ),
])
def test_float_matches_exact_m_sequence(mode_name, field):
    # a string seed is hashed the same way in every process
    _check_float_matches_exact(mode_name, field, mode_name)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="threshold rank rule, ROADMAP item 1")
def test_float_m_sequence_threshold_rule_defect():
    # one of these 25 real inputs gets a wrong m from the count rule
    _check_float_matches_exact("real-identity", RATIONALS, 29)


class TestFloatTextFormat:
    def test_real_roundtrip(self):
        a = np.array([[1.5, -2.25], [0.0, 3e-3]])
        text = render_float_matrix(a)
        b = parse_float_matrix(text, complex_entries=False)
        assert (a == b).all()

    def test_complex_roundtrip(self):
        a = np.array([[1.5 + 2.0j, -1j], [0.25, -3.5 - 0.5j]])
        text = render_float_matrix(a)
        b = parse_float_matrix(text, complex_entries=True)
        assert (a == b).all()

    def test_complex_token_forms(self):
        a = parse_float_matrix("1 3\n2i 1+0.5*i -1.5e0\n",
                               complex_entries=True)
        assert a[0, 0] == 2j
        assert a[0, 1] == 1 + 0.5j
        assert a[0, 2] == -1.5

    def test_real_mode_rejects_complex_token(self):
        with pytest.raises(MatrixParseError) as ei:
            parse_float_matrix("1 1\n1+2i\n", complex_entries=False)
        assert ei.value.line == 2

    def test_bad_token_position(self):
        with pytest.raises(MatrixParseError) as ei:
            parse_float_matrix("1 2\n1.0 abc\n", complex_entries=False)
        assert (ei.value.line, ei.value.column) == (2, 5)

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_literals_are_ascii_without_separators(self, complex_entries):
        # float() and complex() read all of these; the grammar does not
        for tok in ("1_0", "\u0661\u0662", "\uff11\uff12"):
            with pytest.raises(MatrixParseError) as ei:
                parse_float_matrix(f"1 2\n1.0 {tok}\n",
                                   complex_entries=complex_entries)
            assert (ei.value.line, ei.value.column) == (2, 5)
        strings = ["\u20037", "7\u00a0"] + ["1_0+2*i"] * complex_entries
        for entry in strings:
            doc = {"rows": 1, "cols": 2, "entries": [1.0, entry]}
            with pytest.raises(MatrixParseError) as ei:
                _read_float(_read_json, doc, complex_entries)
            assert (ei.value.line, ei.value.column) == (1, 2)
        doc = {"rows": 1, "cols": 2, "entries": [" 7 ", 7]}
        assert (_read_float(_read_json, doc, complex_entries) == 7).all()

    def test_header_errors(self):
        with pytest.raises(MatrixParseError):
            parse_float_matrix("", complex_entries=False)
        with pytest.raises(MatrixParseError):
            parse_float_matrix("2\n", complex_entries=False)

    @pytest.mark.parametrize("header", ["100000000000000000000 0",
                                        "0 100000000000000000000"])
    def test_huge_zero_width_header(self, header):
        # rows without columns are refused by the header check; a huge
        # width over no rows has no entry to read, but numpy cannot
        # shape an array this large
        expected = {"100000000000000000000 0": "0 columns must have 0 rows",
                    "0 100000000000000000000": "too large"}[header]
        for complex_entries in (False, True):
            with pytest.raises(MatrixParseError, match=expected) as ei:
                parse_float_matrix(header, complex_entries=complex_entries)
            assert (ei.value.line, ei.value.column) == (1, 1)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                          width=64),
                min_size=1, max_size=9))
@settings(max_examples=40)
def test_float_render_parse_roundtrip(values):
    n = int(np.sqrt(len(values)))
    a = np.array(values[:n * n]).reshape(n, n) if n else np.zeros((0, 0))
    text = render_float_matrix(a)
    b = parse_float_matrix(text, complex_entries=False)
    assert (a == b).all()
