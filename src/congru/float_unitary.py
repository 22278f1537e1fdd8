"""Floating-point regularization with unitary or orthogonal stages.

The same two-step reduction as the exact path, but every stage
transform is built from singular value decompositions, so the
accumulated transform stays unitary (complex matrices, either
involution) or real orthogonal.  Rank decisions are made against an
explicit tolerance; borderline calls are reported on a warning
channel rather than hidden, because the parameter sequence is
discontinuous in the input.

This path produces the unitarily reduced block pattern, not a block
diagonal direct sum: splitting off the Jordan blocks requires
non-unitary *congruences and lives in the exact modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .matrix import MatrixParseError, _read_text, _write_text
from .regularize import block_slices, run_stages
from .scalar import _quote_token


class _Numpy:
    """Stands in for numpy until the first attribute read, which
    imports it and rebinds the module global np to the real module.
    The package imports this module eagerly, and the exact path never
    needs numpy, so an exact command does not pay numpy's import."""

    def __getattr__(self, name):
        global np
        import numpy
        np = numpy
        return getattr(numpy, name)


np = _Numpy()

COMPLEX_CONJUGATION = "complex-conjugation"
COMPLEX_IDENTITY = "complex-identity"
REAL_IDENTITY = "real-identity"
_MODES = (COMPLEX_CONJUGATION, COMPLEX_IDENTITY, REAL_IDENTITY)

# borderline rank decisions are flagged when a singular value falls
# within this factor of the threshold
_WARN_FACTOR = 10.0


@dataclass(frozen=True)
class FloatMode:
    """Numerical involution choice plus the rank tolerance.

    tol=None means the standard relative rule: each decision uses
    max(rows, cols) * machine epsilon * largest singular value of the
    matrix being ranked.  A fixed tol is absolute.
    """

    mode: str
    tol: float | None = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        # a bool is not a tolerance
        if self.tol is not None and (isinstance(self.tol, bool) or not (
                math.isfinite(self.tol) and self.tol > 0)):
            raise ValueError("fixed tolerance must be finite and positive")

    @classmethod
    def complex_conjugation(cls, tol: float | None = None) -> "FloatMode":
        return cls(COMPLEX_CONJUGATION, tol)

    @classmethod
    def complex_identity(cls, tol: float | None = None) -> "FloatMode":
        return cls(COMPLEX_IDENTITY, tol)

    @classmethod
    def real_identity(cls, tol: float | None = None) -> "FloatMode":
        return cls(REAL_IDENTITY, tol)

    @property
    def dtype(self):
        return np.float64 if self.mode == REAL_IDENTITY else np.complex128

    def adjoint(self, a: np.ndarray) -> np.ndarray:
        """The active involution applied to a matrix: conjugate
        transpose under conjugation, plain transpose otherwise."""
        if self.mode == COMPLEX_CONJUGATION:
            return a.conj().T
        return a.T


@dataclass(frozen=True, eq=False)
class FloatStageRecord:
    m_odd: int
    m_even: int
    transform: np.ndarray
    form: np.ndarray
    a_next: np.ndarray
    warnings: tuple[str, ...]
    scale: float


@dataclass(frozen=True, eq=False)
class ReducedForm:
    m: tuple[int, ...]
    transform: np.ndarray
    reduced: np.ndarray
    regular_block: np.ndarray
    warnings: tuple[str, ...]
    mode: FloatMode


def _decide_rank(s: np.ndarray, shape: tuple[int, int], mode: FloatMode,
                 scale: float) -> tuple[int, list[str]]:
    # scale is the largest singular value of the original input, not
    # of the block being ranked: a block that is zero up to rounding
    # still has a tiny nonzero spectrum of its own
    if mode.tol is not None:
        tol = mode.tol
    else:
        tol = max(shape) * np.finfo(np.float64).eps * scale
    r = int(np.count_nonzero(s > tol))
    warnings = [
        f"borderline rank decision: singular value {sv:.6e} within a "
        f"factor of {_WARN_FACTOR:g} of tolerance {tol:.6e}"
        for sv in s
        if tol > 0 and tol / _WARN_FACTOR < sv < tol * _WARN_FACTOR
    ]
    return r, warnings


def _coerce(a, mode: FloatMode) -> np.ndarray:
    a = np.asarray(a, dtype=mode.dtype)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("float path requires a square matrix")
    if a.size and not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def float_stage(a, mode: FloatMode, scale: float | None = None,
                ) -> FloatStageRecord:
    """One unitary or orthogonal reduction stage.

    Step 1: with A = U S V^H, the rows of U^H A beyond the numerical
    rank vanish, so U^H plays the row-compression transform for every
    mode.  Step 2: an SVD of the coupling block N, with the row order
    reversed, pushes its rank to the bottom rows.  m_odd = 0 signals a
    numerically nonsingular input (nothing to split off); a 0x0 input
    takes the same path, through empty SVDs.

    scale overrides the reference magnitude for the relative rank
    rule, which is otherwise the largest singular value of a; the
    record keeps the one used.  float_regularize passes the first
    stage's scale, the input's norm, so later, smaller stages do not
    re-zoom into rounding noise.
    """
    a = _coerce(a, mode)
    n = a.shape[0]
    u, s, _ = np.linalg.svd(a)
    if scale is None:
        scale = float(s[0]) if len(s) else 0.0
    r, warnings = _decide_rank(s, a.shape, mode, scale)
    m_odd = n - r
    step1 = u.conj().T
    form1 = step1 @ a @ mode.adjoint(step1)
    n_block = form1[:r, r:]
    u2, s2, _ = np.linalg.svd(n_block)
    m_even, w2 = _decide_rank(s2, n_block.shape, mode, scale)
    warnings += w2
    step2 = u2.conj().T[::-1]  # reversal on top pushes the rank down
    t = np.eye(n, dtype=mode.dtype)
    t[:r, :r] = step2
    t = t @ step1
    form = t @ a @ mode.adjoint(t)
    rho = r - m_even
    return FloatStageRecord(
        m_odd=m_odd, m_even=m_even, transform=t, form=form,
        a_next=form[:rho, :rho], warnings=tuple(warnings), scale=scale)


def float_regularize(a, mode: FloatMode) -> ReducedForm:
    """Iterate float_stage on the shrinking leading block, composing a
    single unitary (orthogonal) transform, and report the reduced
    block pattern with the parameter sequence."""
    a = _coerce(a, mode)
    n = a.shape[0]
    first = float_stage(a, mode)
    stages, last, m = run_stages(
        first, lambda w: float_stage(w, mode, first.scale))
    t_total = np.eye(n, dtype=mode.dtype)
    for rec in stages:
        # each stage acts on the leading rows that the one before kept
        k = rec.transform.shape[0]
        t_total[:k] = rec.transform @ t_total[:k]
    reduced = t_total @ a @ mode.adjoint(t_total)
    rho = n - sum(m)
    return ReducedForm(
        m=m, transform=t_total, reduced=reduced,
        regular_block=reduced[:rho, :rho],
        warnings=tuple(w for rec in (*stages, last) for w in rec.warnings),
        mode=mode)


# -- the reduced block pattern -------------------------------------------------


def _cell_required_zero(a_lbl: int, b_lbl: int, reg: int) -> bool:
    if a_lbl == reg and b_lbl == reg:
        return False
    if a_lbl != reg and b_lbl == a_lbl - 1:
        # the unit-coupling cells: full row rank, never zero
        return False
    if b_lbl % 2 == 1:
        return a_lbl % 2 == 1 or a_lbl > b_lbl
    return a_lbl % 2 == 1 and a_lbl < b_lbl


def required_zero_mask(rho: int, m: tuple[int, ...]) -> np.ndarray:
    """Boolean mask of the cells the reduced pattern forces to zero.
    The unit-coupling blocks on the first block superdiagonal and the
    unconstrained cells are False."""
    n = rho + sum(m)
    mask = np.zeros((n, n), dtype=bool)
    slices = block_slices(rho, m)
    reg = len(m) + 1
    for a_lbl, rs in slices:
        for b_lbl, cs in slices:
            if _cell_required_zero(a_lbl, b_lbl, reg):
                mask[rs, cs] = True
    return mask


def pattern_residual(rf: ReducedForm) -> float:
    """Largest magnitude found in a required-zero cell."""
    rho = rf.reduced.shape[0] - sum(rf.m)
    mask = required_zero_mask(rho, rf.m)
    if not mask.any():
        return 0.0
    return float(np.abs(rf.reduced[mask]).max())


def unitarity_residual(t: np.ndarray) -> float:
    """Max-norm distance of t.conj().T @ t from the identity; the
    check is always with the conjugate transpose, whatever the
    involution, because the stage factors are unitary."""
    n = t.shape[0]
    return float(np.abs(t.conj().T @ t - np.eye(n)).max()) if n else 0.0


# -- text and JSON I/O -----------------------------------------------------------
# The grid format of matrix.py, with decimal floating-point literals;
# complex entries use the a+b*i grammar.  A literal is ASCII without
# `_`: float() and complex() would also read digit separators,
# non-ASCII digits and Unicode whitespace, which the exact fields reject.
# Rows are parsed whole (_row_parser): one ASCII and `_` check and one
# pass of the replacements for the row, then float() or complex() on
# each token.  A row it does not take, one with a JSON number, a bad
# token or a token that splits wrongly, is read one token at a time by
# _real_entry or _complex_entry, which read JSON numbers and report
# every error.


def _real_entry(tok) -> float:
    try:
        if type(tok) is bool or type(tok) is str and (
                "_" in tok or not tok.isascii()):
            raise TypeError  # JSON true/false, or outside the grammar
        return float(tok)  # a decimal literal or a JSON number
    except (TypeError, ValueError):
        raise ValueError(f"invalid real entry {_quote_token(tok)}") from None


def _complex_entry(tok) -> complex | float:
    if type(tok) is float or type(tok) is int:  # a JSON number, not a bool
        return float(tok)
    s = str(tok).replace("*i", "i").replace("*j", "j").replace("i", "j")
    try:
        if "_" in s or not s.isascii():
            raise ValueError
        return complex(s)
    except ValueError:
        raise ValueError(f"invalid complex entry {_quote_token(tok)}") from None


def _row_parser(complex_entries: bool) -> Callable:
    """The parse_row of matrix.py's readers: a row's cols tokens as one
    array, or None where _real_entry or _complex_entry must read them.
    The checks and replacements match theirs token for token, since no
    separator is ASCII-failing, `_` or part of a replaced pattern."""
    convert, dtype = ((complex, np.complex128) if complex_entries
                      else (float, np.float64))

    def parse_row(text: str, sep: str | None, cols: int):
        if "_" in text or not text.isascii():
            return None
        if complex_entries:
            # _complex_entry's chain less its "*j" step: a token where
            # that step would act keeps a "*", which complex() rejects
            text = text.replace("*i", "j").replace("i", "j")
        tokens = text.split(sep)
        if len(tokens) != cols:
            return None
        try:
            return np.fromiter(map(convert, tokens), dtype, cols)
        except ValueError:
            return None

    return parse_row


def _read_float(read, doc, complex_entries: bool,
                square: bool = False) -> np.ndarray:
    """A float array from a grid document; read is _read_text or
    _read_json.  The array is built from the parsed rows, each of which
    holds as many values as its document does, and not from the
    header, which is untrusted."""
    parse = _complex_entry if complex_entries else _real_entry
    rows, cols, grid = read(doc, parse, square, _row_parser(complex_entries))
    dtype = np.complex128 if complex_entries else np.float64
    a = np.array(grid, dtype=dtype)
    try:
        return a.reshape(rows, cols)
    except ValueError:  # no rows: the header's width is too large
        raise MatrixParseError("dimensions too large", 1, 1) from None


def parse_float_matrix(text: str, *, complex_entries: bool) -> np.ndarray:
    return _read_float(_read_text, text, complex_entries)


def render_float_scalar(x) -> str:
    if isinstance(x, complex) or np.iscomplexobj(x):
        x = complex(x)
        sign = "+" if x.imag >= 0 else "-"
        return f"{x.real!r}{sign}{abs(x.imag)!r}*i"
    return repr(float(x))


def render_float_matrix(a: np.ndarray) -> str:
    return _write_text(*a.shape, a, render_float_scalar)
