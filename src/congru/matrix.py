"""Dense exact matrices over a field with involution.

Matrices are immutable, stored row-major, and may have zero rows or
zero columns; a 0x0 matrix counts as nonsingular.  All elimination is
exact with first-nonzero pivoting (magnitude pivoting is meaningless
over Q(i) or GF(p)), so identical inputs always produce identical
transforms.

Every rank, null space, solve, inverse and echelon transform is one
Gauss-Jordan elimination, _eliminate, over [A | the rows the caller
mirrors], and every product, over every field, is one loop, _product.
Only the work row's format depends on the field, and each field has
one decoder from work rows to entries, which both loops use.  An
elimination hands back its rows undecoded, with the row of A each
pivot row started as, so a caller decodes only the rows it reads: a
rank none, an echelon transform only its null rows, and _basis_rows,
the one reader of reduced rows, all of them.  No elimination scales a
row: a reduced pivot row is its pivot times its reduced echelon row,
and _basis_rows divides the entries it reads by that pivot.  Over Q
both loops work on integer rows, lists of ints over one row
denominator: their inner loops add int products, and an elimination
clears a column by the fraction-free pv*row_k - q*row_r and divides
the row's content out.  Entries still enter and leave every Matrix as
Fraction, with the values plain Fraction arithmetic gives.  Over Q(i)
a row is a list of entries.  Over GF(p) a row is one int that packs
its entries into fixed-width slots, wide enough that no slot carries
into the next, so that a row operation is one big-int multiply-add;
rows are unpacked and reduced mod p only when they are decoded.
Every Matrix over GF(p) still stores its entries as ints in [0, p).
"""

from __future__ import annotations

import operator
import re
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

from .scalar import _INTEGER_RE, FieldKind, FieldSpec, Involution, Scalar


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
        return cls.zero_one(field, rows, cols, ())

    @classmethod
    def zero_one(cls, field: FieldSpec, rows: int, cols: int,
                 ones: Iterable[tuple[int, int]]) -> "Matrix":
        """The rows x cols matrix with a 1 at each (i, j) of ones and
        zeros elsewhere: every identity, shift and permutation."""
        z, o = field.zero(), field.one()
        out = [[z] * cols for _ in range(rows)]
        for i, j in ones:
            out[i][j] = o
        return cls(field, rows, cols, tuple(map(tuple, out)))

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        return cls.zero_one(field, n, n, [(i, i) for i in range(n)])

    @classmethod
    def from_blocks(cls, field: FieldSpec, grid: Sequence[Sequence["Matrix"]],
                    ) -> "Matrix":
        """Assemble from a rectangular grid of blocks with consistent
        row heights and column widths (zero-dimension blocks allowed)."""
        heights = [row[0].rows for row in grid]
        widths = [b.cols for b in grid[0]] if grid else []
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

    def _entrywise(self, other: "Matrix", op, what: str) -> "Matrix":
        self._check_same_field(other)
        if self.shape != other.shape:
            raise ValueError(f"dimension mismatch in {what}")
        return Matrix(self.field, self.rows, self.cols, tuple(
            _reduced(self.field, list(map(op, ra, rb)))
            for ra, rb in zip(self._r, other._r)))

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, operator.add, "addition")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, operator.sub, "subtraction")

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

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
        return Matrix(self.field, self.rows, other.cols,
                      _product(self.field, self._r, other._r, other.cols))

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.cols, self.rows,
                      tuple(zip(*self._r)) or ((),) * self.cols)

    @property
    def star(self) -> "Matrix":
        """Conjugate transpose under the active involution; the plain
        transpose when the involution is the identity."""
        t = self.transpose()
        if self.field.involution is Involution.IDENTITY:
            return t
        return Matrix(t.field, t.rows, t.cols, tuple(
            tuple([x.conjugate() for x in row]) for row in t._r))

    # -- slicing ---------------------------------------------------------------

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        if not (0 <= r0 <= r1 <= self.rows and 0 <= c0 <= c1 <= self.cols):
            raise ValueError("block out of range")
        return Matrix(self.field, r1 - r0, c1 - c0, tuple(
            row[c0:c1] for row in self._r[r0:r1]))

    def take(self, rows: Sequence[int],
             cols: Sequence[int | None] | None = None) -> "Matrix":
        """The rows at `rows`, in that order; with cols, column j of
        the result is column cols[j], or zeros where cols[j] is None."""
        picked = [self._r[i] for i in rows if 0 <= i < self.rows]
        if len(picked) != len(rows) or cols is not None and not all(
                c is None or 0 <= c < self.cols for c in cols):
            raise ValueError("take out of range")
        if cols is None:
            return Matrix(self.field, len(picked), self.cols, tuple(picked))
        zero = self.field.zero()
        return Matrix(self.field, len(picked), len(cols), tuple(
            tuple([zero if c is None else row[c] for c in cols])
            for row in picked))

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
# entries per row.  JSON: an object with rows, cols and the row-major
# list of entries.  The readers take the per-entry parser, which raises
# ValueError (or OverflowError) on a bad token, and return (rows, cols,
# entries) with the entries parsed.  square=True rejects a non-square
# header before any entry is read.  A header with rows but no columns
# is rejected: it declares a matrix that no entry bounds.


def _check_dims(rows: int, cols: int, square: bool) -> None:
    if rows < 0 or cols < 0:
        raise MatrixParseError("negative dimensions", 1, 1)
    if square and rows != cols:
        raise MatrixParseError(
            f"expected a square matrix, found {rows}x{cols}", 1, 1)
    if rows and not cols:
        raise MatrixParseError(
            "a matrix with 0 columns must have 0 rows", 1, 1)


def _read_text(text: str, parse: Callable, square: bool = False) -> tuple:
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise MatrixParseError("missing header line", 1, 1)
    header = lines[0].split()
    if len(header) != 2 or not all(map(_INTEGER_RE.fullmatch, header)):
        raise MatrixParseError("header must be two integers: rows cols", 1, 1)
    rows, cols = int(header[0]), int(header[1])
    _check_dims(rows, cols, square)
    # only the lines that exist are visited: the header is untrusted
    body = lines[1:rows + 1]
    if len(body) < rows:
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
    rows, cols = obj.get("rows"), obj.get("cols")
    # JSON integers only: not 1.9, "1" or true
    if (type(rows) is not int or type(cols) is not int
            or "entries" not in obj):
        raise MatrixParseError("object must carry rows, cols, entries", 1, 1)
    entries = obj["entries"]
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


# -- elimination ---------------------------------------------------------------
# One Gauss-Jordan loop serves every field and every caller.  It runs
# on the rows [a | aug], aug holding the columns a caller mirrors the
# row operations onto: b for solve, I for inverse and for a transform,
# nothing for rank and nullspace.  Only the work row's format depends
# on the field: over Q a list of ints with the row denominator
# appended, over Q(i) a list of entries, over GF(p) one packed int (see
# _Packing).  `pivot` gives a pivot row and the factor its clears
# share: the pivot entry, or -1/pivot mod p over GF(p).  A clear reads
# the entry it clears and returns a row whose entry is 0 unchanged.


def _reduced(field: FieldSpec, values: list) -> tuple:
    """values as stored entries: reduced into [0, p) over GF(p)."""
    p = field.p
    return tuple(values) if p is None else tuple(x % p for x in values)


def _eliminate(a: Matrix, aug: tuple, reduce: bool,
               ) -> tuple[list, list, Callable]:
    """Forward elimination on the rows [a | aug], aug a tuple of
    a.rows row tuples, with the first nonzero entry of each column of
    a as its pivot; with `reduce`, each pivot column is also cleared
    above its pivot, last pivot first, so that pivot row i is its
    pivot times row i of the reduced echelon form of a.  Returns the
    eliminated rows, still in the field's work format, one (column,
    source) pair per pivot row, pivot row i being row i and source the
    row of a it was swapped in from, and the field's decoder, which
    turns a list of work rows into tuples of entries."""
    field = a.field
    joined = [x + y for x, y in zip(a._r, aug)]
    m = len(joined)
    if field.kind is FieldKind.RATIONAL:
        rows = list(map(_q_row, joined))
        entry, pivot, clear = operator.getitem, _own_pivot, _q_update
        decode = _q_decode
    elif field.p is None:
        rows = list(map(list, joined))
        entry, pivot, clear = operator.getitem, _own_pivot, _entry_clear
        decode = _entry_decode
    else:
        g = _packing(field.p, len(joined[0]) if joined else 0, 2 * m + 1)
        rows = list(map(g.pack, joined))
        entry, pivot, clear, decode = g.entry, g.pivot, g.clear, g.decode

    def sweep(r: int, c: int, others: Iterable[int]) -> None:
        # clear column c of the rows `others` with pivot row r
        rows[r], f = pivot(rows[r], c)
        rr = rows[r]
        for k in others:
            rows[k] = clear(rows[k], rr, c, f)

    source = list(range(m))
    pivots: list = []
    for c in range(a.cols):
        r = len(pivots)
        if r == m:
            break
        k = next((k for k in range(r, m) if entry(rows[k], c)), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        source[r], source[k] = source[k], source[r]
        sweep(r, c, range(r + 1, m))
        pivots.append((c, source[r]))
    if reduce:
        for r, (c, _) in reversed([*enumerate(pivots)]):
            sweep(r, c, range(r))
    return rows, pivots, decode


def _own_pivot(rr: list, c: int) -> tuple:
    return rr, rr[c]


def _entry_clear(rk: list, rr: list, c: int, pv) -> list:
    """Clear column c of row k in place with pivot row r, which has pv
    at column c and zeros before it."""
    if not rk[c]:
        return rk
    f = rk[c] / pv
    for j in range(c, len(rr)):
        if rr[j]:
            rk[j] = rk[j] - f * rr[j]
    return rk


def _entry_decode(rows: list) -> list:
    """Rows of entries as tuples."""
    return list(map(tuple, rows))


# -- GF(p) kernels on packed rows ------------------------------------------------
# Slot j of a row, bits [8wj, 8w(j+1)), holds a value congruent to entry
# j.  No slot goes negative or reaches 2^8w, so none borrows or carries.
# The bound: a slot that sums at most t terms below p^2 stays below
# t * p^2 < 2^(2 bits(p) + bits(t)), and w = ceil((2 bits(p) + bits(t))
# / 8), rounded up to a width struct reads as two fields.  A product
# slot sums K = len(brows) terms a_ik * b_kj.  An elimination reduces
# each pivot row into [0, p) right before it clears other rows, so a
# clear rk + f * rr with f < p adds less than p^2 to a slot; a row
# takes at most 2m clears, so t = 2m + 1 covers it.

# slot width in bytes -> its low and high field; the low field, half
# the slot or 8 bytes, holds an entry, since 2 bits(p) < 8w and p < 2^31
_SLOTS = {2: "BB", 4: "HH", 8: "II", 9: "QB", 10: "QH", 12: "QI", 16: "QQ"}


class _Packing:
    """Rows of n residues mod p in w-byte slots, w a width in _SLOTS."""

    __slots__ = ("p", "n", "w", "s", "mask", "_in", "_slot", "_high")

    def __init__(self, p: int, n: int, w: int):
        self.p, self.n, self.w = p, n, w
        self.s, self.mask = 8 * w, (1 << 8 * w) - 1
        self._slot = struct.Struct("<" + _SLOTS[w])
        low = struct.calcsize(_SLOTS[w][0])
        self._in = struct.Struct("<" + f"{_SLOTS[w][0]}{w - low}x" * n)
        self._high = 2 ** (8 * low) % p

    def pack(self, row) -> int:
        return int.from_bytes(self._in.pack(*row), "little")

    def unpack(self, xs: list) -> list:
        """The entries of the rows xs, reduced into [0, p), in one list."""
        p, k, size = self.p, self._high, self.n * self.w
        b = b"".join([x.to_bytes(size, "little") for x in xs])
        return [(lo + hi * k) % p for lo, hi in self._slot.iter_unpack(b)]

    def decode(self, xs: list) -> list:
        """The rows xs as tuples of entries, all unpacked at once."""
        n, values = self.n, self.unpack(xs)
        return [tuple(values[i * n:i * n + n]) for i in range(len(xs))]

    def entry(self, x: int, c: int) -> int:
        return (x >> c * self.s & self.mask) % self.p

    def pivot(self, rr: int, c: int) -> tuple:
        """Pivot row rr reduced, and -1/rr[c] mod p."""
        values = self.unpack([rr])
        return self.pack(values), -pow(values[c], -1, self.p) % self.p

    def clear(self, rk: int, rr: int, c: int, f: int) -> int:
        """rk + (q * f mod p) * rr, q the entry of rk at column c."""
        return rk + self.entry(rk, c) * f % self.p * rr


# each packing compiles two struct formats, so one is built per
# (p, n, w) and kept; a decomposition needs up to about two dozen
_packing_of_width = lru_cache(maxsize=256)(_Packing)


def _packing(p: int, n: int, t: int) -> _Packing:
    """The packing of rows of n residues mod p whose slots sum at most
    t terms below p^2, for any t below 2**66."""
    w = (2 * p.bit_length() + t.bit_length() + 7) // 8
    return _packing_of_width(p, n, min(x for x in _SLOTS if x >= w))


# -- Q kernels on integer rows ---------------------------------------------------
# The values and the pivot choices must stay those of plain Fraction
# arithmetic: transforms are byte-identical whichever way Q is computed.

_ZERO = Fraction(0)


def _q_fraction(x: int, d: int) -> Fraction:
    if not x:
        return _ZERO
    return Fraction(x) if d == 1 else Fraction(x, d)


def _q_row(row) -> list:
    """A row of Fractions as integer numerators over their lcm
    denominator, which is appended."""
    d = lcm(*[x.denominator for x in row])
    if d == 1:
        ints = [x.numerator for x in row]
    else:
        ints = [x.numerator * (d // x.denominator) for x in row]
    ints.append(d)
    return ints


def _q_decode(rows: list) -> list:
    """Integer rows, each with its denominator last, as tuples of
    Fractions."""
    return [tuple([_q_fraction(x, row[-1]) for x in row[:-1]])
            for row in rows]


def _product(field: FieldSpec, arows: tuple, brows: tuple, bcols: int,
             ) -> tuple:
    """Rows of A*B.  Each row of B is written once, and only if A uses
    it, as its nonzero (column, value) pairs over a row denominator
    d_k; row i of A folds its a_ik / d_k into one denominator L_i, and
    the loop sums f * v with f = a_ik * L_i / d_k.  Only over Q are
    the values ints over d_k and L_i other than 1.  Over GF(p) a row
    of B is the single pair (0, the row packed), so the loop does one
    big-int multiply-add per nonzero a_ik, and the sums are unpacked
    together at the end."""
    fold = lambda a, d: (a, d)  # noqa: E731
    finish, decode = (lambda acc, den: acc), _entry_decode
    if field.kind is FieldKind.RATIONAL:
        write, start, width, decode = _q_row, 0, bcols, _q_decode
        fold = lambda a, d: (a.numerator, a.denominator * d)  # noqa: E731
        finish = lambda acc, den: [*acc, den]  # noqa: E731
    elif field.p is None:
        write, start, width = (lambda row: [*row, 1]), field.zero(), bcols
    else:
        g = _packing(field.p, bcols, len(brows))
        write, start, width = (lambda row: [g.pack(row), 1]), 0, 1
        finish, decode = (lambda acc, den: acc[0]), g.decode
    bint: list = [None] * len(brows)
    out = []
    for arow in arows:
        terms = []
        for k, a in enumerate(arow):
            if a:
                b = bint[k]
                if b is None:
                    ints = write(brows[k])
                    d = ints.pop()
                    b = bint[k] = ([(j, v) for j, v in enumerate(ints) if v],
                                   d)
                if b[0]:
                    terms.append((*fold(a, b[1]), b[0]))
        den = lcm(*[q for _, q, _ in terms])
        acc = [start] * width
        for p, q, nz in terms:
            f = p if q == den else p * (den // q)
            for j, v in nz:
                acc[j] += f * v
        out.append(finish(acc, den))
    return tuple(decode(out))


def _q_update(rk: list, rr: list, c: int, pv: int) -> list:
    """Clear column c of row k with pivot row r, both ints with their
    denominator last, with pivot pv = rr[c] and zeros before column c
    in rr.  The result (pv * rk - q * rr) / (dk * pv), with q = rk[c]
    and gcd(pv, q) cancelled first, comes back in the same format with
    the content of the row divided out; rk itself when q = 0."""
    q = rk[c]
    if not q:
        return rk
    g = gcd(pv, q)
    pv //= g
    q //= g
    dk = rk[-1]
    if pv == 1:
        head = rk[:c]
    else:
        head = [pv * x for x in rk[:c]]
        dk *= pv
    new = head + [pv * x - q * y for x, y in zip(rk[c:-1], rr[c:-1])]
    g = gcd(dk, *new)
    if g != 1:
        new = [x // g for x in new]
        dk //= g
    new.append(dk)
    return new


# -- the eliminations callers ask for -------------------------------------------


def _basis_rows(a: Matrix, aug: Matrix) -> tuple[tuple, list, list]:
    """The rows of [X | N] read off the reduced echelon form of
    [a | aug]: X solves a*X = aug with every free variable zero, and N
    holds one null-space column per free column of a, free columns in
    increasing order, with its 1 in that column's row.  Returns (rows,
    free columns, the aug parts of the rows that reduced to zero in
    a); a*X = aug has a solution only if those are all zero."""
    field, n = a.field, a.cols
    rows, pivots, decode = _eliminate(a, aug._r, True)
    rows = decode(rows)
    pivot_cols = {c for c, _ in pivots}
    free = [c for c in range(n) if c not in pivot_cols]
    zeros = (field.zero(),) * aug.cols
    unit = Matrix.identity(field, len(free))._r
    out: list = [None] * n
    for k, fc in enumerate(free):
        out[fc] = zeros + unit[k]
    for row, (c, _) in zip(rows, pivots):
        # the pivot row is its reduced echelon row times its pivot
        inv = field.inverse(row[c])
        out[c] = _reduced(field, [x * inv for x in row[n:]]
                          + [-row[fc] * inv for fc in free])
    return tuple(out), free, [row[n:] for row in rows[len(pivots):]]


def row_echelon_transform(a: Matrix) -> tuple[list[int], Matrix]:
    """(P, L) from one forward elimination of [a | I]: P the rank(a)
    rows of a that became pivots, in increasing order, and L the
    eliminated left null basis, L*a = 0, the only rows decoded.
    T = [unit rows at P; L] is nonsingular with T*a = [a[P, :]; 0],
    and a nonsingular a has every row in P."""
    field, m, n = a.field, a.rows, a.cols
    rows, pivots, decode = _eliminate(a, Matrix.identity(field, m)._r, False)
    r = len(pivots)
    return sorted(s for _, s in pivots), Matrix(field, m - r, m, tuple(
        row[n:] for row in decode(rows[r:])))


def rank(a: Matrix) -> int:
    return len(_eliminate(a, ((),) * a.rows, False)[1])


def nullity(a: Matrix) -> int:
    return a.cols - rank(a)


def nullspace(a: Matrix) -> Matrix:
    """Columns form a basis of the right null space, one per free
    column of the reduced echelon form, free columns in increasing
    index order."""
    basis, free, _ = _basis_rows(a, Matrix.zeros(a.field, a.rows, 0))
    return Matrix(a.field, a.cols, len(free), basis)


def solve(a: Matrix, b: Matrix) -> Matrix:
    """One exact solution X of a*X = b with all free variables zero;
    ValueError when the system is inconsistent."""
    a._check_same_field(b)
    if a.rows != b.rows:
        raise ValueError("dimension mismatch in solve")
    if b.cols == 0:
        # no right-hand side is always consistent; nothing to eliminate
        return Matrix.zeros(a.field, a.cols, 0)
    basis, _, null_aug = _basis_rows(a, b)
    if any(map(any, null_aug)):
        raise ValueError("inconsistent system")
    return Matrix(a.field, a.cols, b.cols,
                  tuple(row[:b.cols] for row in basis))


def inverse(a: Matrix) -> Matrix:
    if not a.is_square():
        raise ValueError("inverse requires a square matrix")
    basis, free, _ = _basis_rows(a, Matrix.identity(a.field, a.rows))
    if free:
        raise ValueError("matrix is singular")
    return Matrix(a.field, a.rows, a.rows, basis)


def unit_completion(e: Matrix) -> tuple[Matrix, Matrix]:
    """(V, V^-1) for e with independent rows, from one elimination of
    [e | I]: V = [solve(e, I) | nullspace(e)], so e*V = [I 0], and
    V^-1 is e stacked on the rows of I at e's free columns, since on
    those rows solve's part is zero and the null-space part is I."""
    field, n = e.field, e.cols
    v_rows, free, null_aug = _basis_rows(e, Matrix.identity(field, e.rows))
    if null_aug:
        raise ValueError("unit_completion requires independent rows")
    i_free = Matrix.zero_one(field, len(free), n, enumerate(free))
    return Matrix(field, n, n, v_rows), Matrix(field, n, n, e._r + i_free._r)


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
    """Block-diagonal sum: the blocks on the diagonal of a from_blocks
    grid, zeros elsewhere.  Zero-dimension summands follow the stacking
    conventions (a p x 0 block contributes p zero rows, a 0 x q block
    q zero columns)."""
    return Matrix.from_blocks(field, [
        [b if j == i else Matrix.zeros(field, b.rows, c.cols)
         for j, c in enumerate(blocks)] for i, b in enumerate(blocks)])


def jordan_block(field: FieldSpec, n: int) -> Matrix:
    """The n x n singular Jordan block: ones on the first
    superdiagonal, zeros elsewhere."""
    if n < 1:
        raise ValueError("jordan_block requires n >= 1")
    return Matrix.zero_one(field, n, n, [(i, i + 1) for i in range(n - 1)])


def f_block(field: FieldSpec, n: int) -> Matrix:
    """The (n-1) x n block [I 0]."""
    if n < 1:
        raise ValueError("f_block requires n >= 1")
    return Matrix.zero_one(field, n - 1, n, [(i, i) for i in range(n - 1)])


def g_block(field: FieldSpec, n: int) -> Matrix:
    """The (n-1) x n block [0 I]."""
    if n < 1:
        raise ValueError("g_block requires n >= 1")
    return Matrix.zero_one(field, n - 1, n,
                           [(i, i + 1) for i in range(n - 1)])


def unit_columns(a: Matrix) -> list[int]:
    """The column of the first nonzero entry of each row of a; for
    unit rows, such as a permutation's, the column of each row's 1."""
    return [next(j for j, x in enumerate(row) if x) for row in a._r]


def permutation_matrix(field: FieldSpec, images: Sequence[int]) -> Matrix:
    """P with P[i, images[i]] = 1, so row i of P*A is row images[i]
    of A."""
    n = len(images)
    if sorted(images) != list(range(n)):
        raise ValueError("not a permutation")
    return Matrix.zero_one(field, n, n, enumerate(images))
