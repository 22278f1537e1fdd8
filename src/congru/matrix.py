"""Dense exact matrices over a field with involution.

Matrices are immutable, stored row-major, and may have zero rows or
zero columns; a 0x0 matrix counts as nonsingular.  All elimination is
exact with first-nonzero pivoting (magnitude pivoting is meaningless
over Q(i) or GF(p)), so identical inputs always produce identical
transforms.

Over Q the two hot kernels, the product and the elimination, work on
integer rows: a row is a list of ints over one row denominator, so
their inner loops multiply and add plain ints and the elimination
clears a column by the fraction-free update pv*row_k - q*row_r, with
the row's content divided out.  Entries still enter and leave every
Matrix as Fraction, and the values are the ones plain Fraction
arithmetic gives.  Q(i) and GF(p) entries go through the generic
loops.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

from .scalar import FieldKind, FieldSpec, Scalar


class MatrixParseError(ValueError):
    """Text or JSON input rejected; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(message)
        self.line = line
        self.column = column


class Matrix:
    __slots__ = ("field", "rows", "cols", "_r")

    def __init__(self, field: FieldSpec, rows: int, cols: int,
                 row_tuples: tuple):
        # row_tuples must already hold field elements, a GF(p) entry
        # as an int in [0, p); use the classmethods for anything that
        # needs coercion
        self.field = field
        self.rows = rows
        self.cols = cols
        self._r = row_tuples

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: Iterable[Iterable],
                  cols: int | None = None) -> "Matrix":
        data = tuple(tuple(field.coerce(x) for x in row) for row in rows)
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
            cols = width
        elif cols is None:
            raise ValueError("cols is required for a matrix with no rows")
        return cls(field, len(data), cols, data)

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "Matrix":
        z = field.zero()
        return cls(field, rows, cols, tuple((z,) * cols for _ in range(rows)))

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        z, o = field.zero(), field.one()
        return cls(field, n, n, tuple(
            tuple(o if i == j else z for j in range(n)) for i in range(n)))

    @classmethod
    def from_blocks(cls, field: FieldSpec, grid: Sequence[Sequence["Matrix"]],
                    ) -> "Matrix":
        """Assemble from a rectangular grid of blocks with consistent
        row heights and column widths (zero-dimension blocks allowed)."""
        if not grid:
            return cls.zeros(field, 0, 0)
        heights = [row[0].rows for row in grid]
        widths = [b.cols for b in grid[0]]
        for bi, row in enumerate(grid):
            if len(row) != len(widths):
                raise ValueError("ragged block grid")
            for bj, b in enumerate(row):
                if b.field != field:
                    raise ValueError("mixed fields in block grid")
                if b.rows != heights[bi] or b.cols != widths[bj]:
                    raise ValueError("inconsistent block dimensions")
        out = []
        for bi, row in enumerate(grid):
            for i in range(heights[bi]):
                acc: list = []
                for b in row:
                    acc.extend(b._r[i])
                out.append(tuple(acc))
        return cls(field, sum(heights), sum(widths), tuple(out))

    # -- basic queries ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(not x for row in self._r for x in row)

    def __getitem__(self, key) -> Scalar:
        i, j = key
        return self._r[i][j]

    def row(self, i: int) -> tuple:
        return self._r[i]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field == other.field and self.rows == other.rows
                and self.cols == other.cols and self._r == other._r)

    __hash__ = None

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field})"

    # -- arithmetic ------------------------------------------------------------

    def _check_same_field(self, other: "Matrix"):
        if self.field != other.field:
            raise ValueError("mixed fields")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if self.shape != other.shape:
            raise ValueError("dimension mismatch in addition")
        return Matrix(self.field, self.rows, self.cols, tuple(
            _reduced(self.field, [a + b for a, b in zip(ra, rb)])
            for ra, rb in zip(self._r, other._r)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if self.shape != other.shape:
            raise ValueError("dimension mismatch in subtraction")
        return Matrix(self.field, self.rows, self.cols, tuple(
            _reduced(self.field, [a - b for a, b in zip(ra, rb)])
            for ra, rb in zip(self._r, other._r)))

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, self.rows, self.cols, tuple(
            _reduced(self.field, [-a for a in row]) for row in self._r))

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        return Matrix(self.field, self.rows, self.cols, tuple(
            _reduced(self.field, [c * a for a in row]) for row in self._r))

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_same_field(other)
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in product")
        if self.field.kind is FieldKind.RATIONAL:
            return Matrix(self.field, self.rows, other.cols,
                          _mul_q(self._r, other._r, other.cols))
        zero = self.field.zero()
        brows = other._r
        bcols = other.cols
        out = []
        for arow in self._r:
            acc = [zero] * bcols
            for k, aik in enumerate(arow):
                if not aik:
                    continue  # skipping zeros carries the sparse structure
                brow = brows[k]
                for j, bkj in enumerate(brow):
                    if bkj:
                        acc[j] = acc[j] + aik * bkj
            out.append(_reduced(self.field, acc))
        return Matrix(self.field, self.rows, bcols, tuple(out))

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.cols, self.rows, tuple(
            tuple(self._r[i][j] for i in range(self.rows))
            for j in range(self.cols)))

    @property
    def star(self) -> "Matrix":
        """Conjugate transpose under the active involution; the plain
        transpose when the involution is the identity."""
        conj = self.field.conjugate
        return Matrix(self.field, self.cols, self.rows, tuple(
            tuple(conj(self._r[i][j]) for i in range(self.rows))
            for j in range(self.cols)))

    # -- slicing ---------------------------------------------------------------

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        if not (0 <= r0 <= r1 <= self.rows and 0 <= c0 <= c1 <= self.cols):
            raise ValueError("block out of range")
        return Matrix(self.field, r1 - r0, c1 - c0, tuple(
            row[c0:c1] for row in self._r[r0:r1]))

    # -- rank and singularity ----------------------------------------------------

    def is_nonsingular(self) -> bool:
        # 0x0 is nonsingular by convention
        return self.is_square() and rank(self) == self.rows

    # -- text and JSON formats ---------------------------------------------------

    def to_text(self) -> str:
        return _write_text(self.rows, self.cols, self._r,
                           self.field.render_scalar)

    @classmethod
    def from_text(cls, field: FieldSpec, text: str, *,
                  square: bool = False) -> "Matrix":
        """Read a "rows cols" header and one line per row; square=True
        rejects a non-square header before any row is read."""
        return cls._from_grid(
            field, *_read_text(text, field.parse_scalar, square))

    def to_json_dict(self) -> dict:
        return _write_json(self.rows, self.cols, self._r,
                           self.field.render_scalar)

    @classmethod
    def from_json_dict(cls, field: FieldSpec, obj: dict, *,
                       square: bool = False) -> "Matrix":
        """Read {"rows", "cols", "entries"} with the entries row-major;
        square as in from_text."""
        return cls._from_grid(
            field, *_read_json(obj, field.coerce, square))

    @classmethod
    def _from_grid(cls, field: FieldSpec, rows: int, cols: int,
                   entries: list) -> "Matrix":
        return cls(field, rows, cols, tuple(
            tuple(entries[i * cols:(i + 1) * cols]) for i in range(rows)))


# -- the grid format -------------------------------------------------------------
# One codec for every matrix read or written, exact or float.  Text: a
# "rows cols" header line, then one line of cols whitespace-separated
# entries per row (blank or absent when cols is 0).  JSON: an object
# with rows, cols and the row-major list of entries.  The readers take
# the per-entry parser, which raises ValueError (or OverflowError) on a
# bad token, and return (rows, cols, entries) with the entries parsed.
# square=True rejects a non-square header before any entry is read.


def _check_dims(rows: int, cols: int, square: bool) -> None:
    if rows < 0 or cols < 0:
        raise MatrixParseError("negative dimensions", 1, 1)
    if square and rows != cols:
        raise MatrixParseError(
            f"expected a square matrix, found {rows}x{cols}", 1, 1)


def _read_text(text: str, parse: Callable, square: bool = False) -> tuple:
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise MatrixParseError("missing header line", 1, 1)
    header = lines[0].split()
    try:
        if len(header) != 2:
            raise ValueError
        rows, cols = int(header[0]), int(header[1])
    except ValueError:
        raise MatrixParseError(
            "header must be two integers: rows cols", 1, 1) from None
    _check_dims(rows, cols, square)
    # only the lines that exist are visited: the header is untrusted
    body = lines[1:rows + 1]
    if cols and len(body) < rows:
        body.append("")  # the first missing row reports itself below
    entries = []
    for lineno, raw in enumerate(body, start=2):
        tokens = list(re.finditer(r"\S+", raw))
        if len(tokens) != cols:
            if len(tokens) > cols:
                col = tokens[cols].start() + 1
            else:
                col = (tokens[-1].end() + 1) if tokens else 1
            raise MatrixParseError(
                f"expected {cols} entries, found {len(tokens)}", lineno, col)
        for t in tokens:
            try:
                entries.append(parse(t.group()))
            except (ValueError, OverflowError) as exc:
                raise MatrixParseError(
                    str(exc), lineno, t.start() + 1) from None
    for k, extra in enumerate(lines[rows + 1:], start=rows + 2):
        if extra.strip():
            raise MatrixParseError("trailing content after matrix", k, 1)
    return rows, cols, entries


def _read_json(obj, parse: Callable, square: bool = False) -> tuple:
    if not isinstance(obj, dict):
        raise MatrixParseError("expected a JSON object", 1, 1)
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        entries = obj["entries"]
    except (KeyError, TypeError, ValueError, OverflowError):
        raise MatrixParseError(
            "object must carry rows, cols, entries", 1, 1) from None
    _check_dims(rows, cols, square)
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise MatrixParseError("entries must hold rows*cols values", 1, 1)
    parsed = []
    for k, e in enumerate(entries):
        try:
            parsed.append(parse(e))
        except (ValueError, OverflowError) as exc:
            raise MatrixParseError(f"entry {k}: {exc}", 1, k + 1) from None
    return rows, cols, parsed


def _write_text(rows: int, cols: int, grid: Iterable, render: Callable,
                ) -> str:
    lines = [f"{rows} {cols}"]
    lines.extend(" ".join(render(x) for x in row) for row in grid)
    return "\n".join(lines) + "\n"


def _write_json(rows: int, cols: int, grid: Iterable, render: Callable,
                ) -> dict:
    return {"rows": rows, "cols": cols,
            "entries": [render(x) for row in grid for x in row]}


# -- elimination core ----------------------------------------------------------
# Rows are lists of stored entries.  Over GF(p) (p not None) every
# row operation reduces its results into [0, p), so the entries stay
# canonical and compare as plain ints.


def _reduced(field: FieldSpec, values: list) -> tuple:
    """values as stored entries: reduced into [0, p) over GF(p)."""
    p = field.p
    return tuple(values) if p is None else tuple(x % p for x in values)


def _axpy(p, dst: list, f, src: list, start: int = 0) -> None:
    """The one row kernel: dst[j] -= f * src[j] for j >= start."""
    if p is None:
        for j in range(start, len(src)):
            if src[j]:
                dst[j] = dst[j] - f * src[j]
    else:
        dst[start:] = [(d - f * x) % p
                       for d, x in zip(dst[start:], src[start:])]


def _scale(p, row: list, f, start: int = 0) -> None:
    """row[j] *= f for j >= start."""
    if p is None:
        row[start:] = [x * f if x else x for x in row[start:]]
    else:
        row[start:] = [x * f % p for x in row[start:]]


def _forward_eliminate(field: FieldSpec, a: list, t: list) -> list:
    """In-place forward elimination on row lists `a`, mirroring every
    row operation onto `t`.  Pivots are the first nonzero entry in
    each column.  Returns the (row, col, inverse pivot) list."""
    if field.kind is FieldKind.RATIONAL:
        return _eliminate_q(a, t, reduce=False)
    p = field.p
    m = len(a)
    n = len(a[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        k = next((k for k in range(r, m) if a[k][c]), None)
        if k is None:
            continue
        if k != r:
            a[r], a[k] = a[k], a[r]
            t[r], t[k] = t[k], t[r]
        inv = field.inverse(a[r][c])
        for k in range(r + 1, m):
            f = a[k][c]
            if f:
                f = f * inv if p is None else f * inv % p
                _axpy(p, a[k], f, a[r], c)
                _axpy(p, t[k], f, t[r])
        pivots.append((r, c, inv))
        r += 1
    return pivots


def _rref(field: FieldSpec, a: list, t: list) -> list:
    """Continue _forward_eliminate to reduced row echelon form: scale
    each pivot row to a unit pivot, then clear each pivot column above
    its pivot, last pivot first.  Returns the pivot (row, col) list."""
    if field.kind is FieldKind.RATIONAL:
        return [(r, c) for r, c, _ in _eliminate_q(a, t, reduce=True)]
    p = field.p
    pivots = _forward_eliminate(field, a, t)
    for r, c, inv in pivots:
        _scale(p, a[r], inv, c)
        _scale(p, t[r], inv)
    for r, c, _ in reversed(pivots):
        for k in range(r):
            f = a[k][c]
            if f:
                _axpy(p, a[k], f, a[r], c)
                _axpy(p, t[k], f, t[r])
    return [(r, c) for r, c, _ in pivots]


# -- Q kernels on integer rows ---------------------------------------------------
# The values and the pivot choices must stay those of the generic
# loops: transforms are byte-identical whichever path computes them.

_ZERO = Fraction(0)


def _q_fraction(x: int, d: int) -> Fraction:
    if not x:
        return _ZERO
    return Fraction(x) if d == 1 else Fraction(x, d)


def _q_row(row) -> tuple[list, int]:
    """A row of Fractions as (integer numerators, lcm denominator)."""
    d = lcm(*[x.denominator for x in row])
    if d == 1:
        return [x.numerator for x in row], 1
    return [x.numerator * (d // x.denominator) for x in row], d


def _mul_q(arows: tuple, brows: tuple, bcols: int) -> tuple:
    """Rows of A*B over Q.  Each row of B is ints over its own lcm
    denominator d_k, written once and only if A uses it; each row of A
    folds its a_ik / d_k into one row denominator L_i, so the product
    sums plain ints and builds one Fraction per nonzero entry."""
    bint: list = [None] * len(brows)
    zero_row = (_ZERO,) * bcols
    out = []
    for arow in arows:
        terms = []
        for k, a in enumerate(arow):
            if a:
                b = bint[k]
                if b is None:
                    ints, d = _q_row(brows[k])
                    b = bint[k] = ([(j, v) for j, v in enumerate(ints) if v],
                                   d)
                if b[0]:
                    terms.append((a.numerator, a.denominator * b[1], b[0]))
        if not terms:
            out.append(zero_row)
            continue
        den = lcm(*[q for _, q, _ in terms])
        acc = [0] * bcols
        for p, q, nz in terms:
            f = p * (den // q)
            for j, v in nz:
                acc[j] += f * v
        out.append(tuple([_q_fraction(x, den) for x in acc]))
    return tuple(out)


def _q_update(rk: list, dk: int, rr: list, c: int) -> tuple[list, int]:
    """Clear column c of row k with pivot row r: row k is rk / dk, row
    r is rr over any denominator, with pivot pv = rr[c] and zeros
    before column c.  The result (pv * rk - q * rr) / (dk * pv), with
    q = rk[c] and gcd(pv, q) cancelled first, is returned as
    (ints, den) with the content of the row divided out."""
    pv, q = rr[c], rk[c]
    g = gcd(pv, q)
    pv //= g
    q //= g
    if pv == 1:
        head = rk[:c]
    else:
        head = [pv * x for x in rk[:c]]
        dk *= pv
    new = head + [pv * x - q * y for x, y in zip(rk[c:], rr[c:])]
    g = gcd(dk, *new)
    if g != 1:
        new = [x // g for x in new]
        dk //= g
    return new, dk


def _eliminate_q(a: list, t: list, reduce: bool) -> list:
    """_forward_eliminate over Q, continued to _rref's reduced form
    when `reduce`.  Each work row [a_k | t_k] is held as ints plus one
    denominator; the rows go back to Fraction once, on exit.  Same
    pivots and values as the generic path; returns (row, col, inverse
    pivot) with the inverse pivot of forward elimination."""
    m = len(a)
    n = len(a[0]) if m else 0
    rows = [_q_row(ak + tk) for ak, tk in zip(a, t)]
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        k = next((k for k in range(r, m) if rows[k][0][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        rr, dr = rows[r]
        for k in range(r + 1, m):
            rk, dk = rows[k]
            if rk[c]:
                rows[k] = _q_update(rk, dk, rr, c)
        pivots.append((r, c, Fraction(dr, rr[c])))
        r += 1
    if reduce:
        for r, c, _ in pivots:
            # unit pivot: row r scaled by d_r / pv is the same ints
            # over pv, and then over rr[c] once the content is out
            rr = rows[r][0]
            g = gcd(*rr)
            rows[r] = [x // g for x in rr], rr[c] // g
        for r, c, _ in reversed(pivots):
            rr = rows[r][0]
            for k in range(r):
                rk, dk = rows[k]
                if rk[c]:
                    rows[k] = _q_update(rk, dk, rr, c)
    for k, (ints, d) in enumerate(rows):
        row = [_q_fraction(x, d) for x in ints]
        a[k], t[k] = row[:n], row[n:]
    return pivots


def _work_copies(a: Matrix, transform: bool = True) -> tuple[list, list]:
    """The rows of a as lists, and the rows every row operation is
    mirrored onto: those of I, or empty ones when no transform is
    read."""
    work = [list(row) for row in a._r]
    if not transform:
        return work, [[] for _ in work]
    z, o = a.field.zero(), a.field.one()
    ident = [[o if i == j else z for j in range(a.rows)]
             for i in range(a.rows)]
    return work, ident


def row_echelon_transform(a: Matrix) -> tuple[Matrix, int]:
    """A nonsingular T, product of elementary row operations, such that
    T*a has its rank(a) independent rows on top and its zero rows at
    the bottom.  Returns (T, rank)."""
    work, ident = _work_copies(a)
    r = len(_forward_eliminate(a.field, work, ident))
    return Matrix(a.field, a.rows, a.rows,
                  tuple(tuple(row) for row in ident)), r


def rank(a: Matrix) -> int:
    return len(_forward_eliminate(a.field, *_work_copies(a, False)))


def nullity(a: Matrix) -> int:
    return a.cols - rank(a)


def nullspace(a: Matrix) -> Matrix:
    """Columns form a basis of the right null space, one per free
    column of the reduced echelon form, free columns in increasing
    index order."""
    if not a.rows:
        # reduce_cde and _merge_level ask this of their row-less blocks
        return Matrix.identity(a.field, a.cols)
    work, no_transform = _work_copies(a, False)
    pivots = _rref(a.field, work, no_transform)
    pivot_cols = {c: r for r, c in pivots}
    free_cols = [c for c in range(a.cols) if c not in pivot_cols]
    z, o = a.field.zero(), a.field.one()
    basis_rows = [[z] * len(free_cols) for _ in range(a.cols)]
    for k, fc in enumerate(free_cols):
        basis_rows[fc][k] = o
        for c, r in pivot_cols.items():
            if work[r][fc]:
                basis_rows[c][k] = -work[r][fc]
    return Matrix(a.field, a.cols, len(free_cols),
                  tuple(_reduced(a.field, row) for row in basis_rows))


def solve(a: Matrix, b: Matrix) -> Matrix:
    """One exact solution X of a*X = b with all free variables zero;
    ValueError when the system is inconsistent."""
    if a.field != b.field:
        raise ValueError("mixed fields")
    if a.rows != b.rows:
        raise ValueError("dimension mismatch in solve")
    if b.cols == 0:
        # no right-hand side is always consistent; nothing to eliminate
        return Matrix.zeros(a.field, a.cols, 0)
    work, ident = _work_copies(a)
    pivots = _rref(a.field, work, ident)
    t = Matrix(a.field, a.rows, a.rows, tuple(tuple(r) for r in ident))
    rhs = t * b
    for i in range(len(pivots), a.rows):
        if any(rhs._r[i]):
            raise ValueError("inconsistent system")
    z = a.field.zero()
    xrows = [[z] * b.cols for _ in range(a.cols)]
    for r, c in pivots:
        xrows[c] = list(rhs._r[r])
    return Matrix(a.field, a.cols, b.cols, tuple(tuple(r) for r in xrows))


def inverse(a: Matrix) -> Matrix:
    if not a.is_square():
        raise ValueError("inverse requires a square matrix")
    one = a.field.one()
    if all(row[i] == one and not any(row[:i]) and not any(row[i + 1:])
           for i, row in enumerate(a._r)):
        return a  # as _merge_level's V is at the innermost level
    work, ident = _work_copies(a)
    pivots = _rref(a.field, work, ident)
    if len(pivots) != a.rows:
        raise ValueError("matrix is singular")
    return Matrix(a.field, a.rows, a.rows, tuple(tuple(r) for r in ident))


# -- *congruence invariants ------------------------------------------------------


@dataclass(frozen=True)
class Invariants:
    nu: int
    zeta: int
    kappa: int
    rho: int


def invariants(a: Matrix) -> Invariants:
    """nu = nullity, zeta = dim of the common null space of a and its
    conjugate transpose (the nullity of the 2m x m stack), kappa and
    rho the induced complements."""
    if not a.is_square():
        raise ValueError("invariants require a square matrix")
    nu = nullity(a)
    stacked = Matrix.from_blocks(a.field, [[a], [a.star]])
    zeta = nullity(stacked)
    kappa = nu - zeta
    return Invariants(nu, zeta, kappa, a.rows - kappa - nu)


# -- structured constructors ------------------------------------------------------


def direct_sum(field: FieldSpec, blocks: Sequence[Matrix]) -> Matrix:
    """Block-diagonal sum; zero-dimension summands follow the stacking
    conventions (a p x 0 block contributes p zero rows, a 0 x q block
    q zero columns)."""
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    z = field.zero()
    out = []
    c_before = 0
    for b in blocks:
        if b.field != field:
            raise ValueError("mixed fields in direct sum")
        c_after = cols - c_before - b.cols
        for row in b._r:
            out.append((z,) * c_before + row + (z,) * c_after)
        c_before += b.cols
    return Matrix(field, rows, cols, tuple(out))


def jordan_block(field: FieldSpec, n: int) -> Matrix:
    """The n x n singular Jordan block: ones on the first
    superdiagonal, zeros elsewhere."""
    if n < 1:
        raise ValueError("jordan_block requires n >= 1")
    z, o = field.zero(), field.one()
    return Matrix(field, n, n, tuple(
        tuple(o if j == i + 1 else z for j in range(n)) for i in range(n)))


def f_block(field: FieldSpec, n: int) -> Matrix:
    """The (n-1) x n block [I 0]."""
    if n < 1:
        raise ValueError("f_block requires n >= 1")
    z, o = field.zero(), field.one()
    return Matrix(field, n - 1, n, tuple(
        tuple(o if j == i else z for j in range(n)) for i in range(n - 1)))


def g_block(field: FieldSpec, n: int) -> Matrix:
    """The (n-1) x n block [0 I]."""
    if n < 1:
        raise ValueError("g_block requires n >= 1")
    z, o = field.zero(), field.one()
    return Matrix(field, n - 1, n, tuple(
        tuple(o if j == i + 1 else z for j in range(n)) for i in range(n - 1)))


def permutation_matrix(field: FieldSpec, images: Sequence[int]) -> Matrix:
    """P with P[i, images[i]] = 1, so row i of P*A is row images[i]
    of A."""
    n = len(images)
    if sorted(images) != list(range(n)):
        raise ValueError("not a permutation")
    z, o = field.zero(), field.one()
    return Matrix(field, n, n, tuple(
        tuple(o if j == images[i] else z for j in range(n))
        for i in range(n)))
