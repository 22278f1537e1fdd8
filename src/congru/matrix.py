"""Dense exact matrices over a field with involution.

Matrices are immutable, stored row-major, and may have zero rows or
zero columns; a 0x0 matrix counts as nonsingular.  All elimination is
exact with first-nonzero pivoting (magnitude pivoting is meaningless
over Q(i) or GF(p)), so identical inputs always produce identical
transforms.

Every field has one stored row format, the integer row: a list of
ints over one row denominator d > 0, which is appended, with
gcd(d, all ints) == 1, so that equal rows are equal lists.  Over Q
and GF(p) that is one int per entry, over Q(i) the real parts of the
n entries and then their imaginary parts,
[re_0 ... re_{n-1}, im_0 ... im_{n-1}, d].  Over GF(p) the ints are
residues in [0, p) and d is 1.  The structural operations, blocks,
columns, transposes and block assembly, are the same for every field;
_canonical, which divides a row's content out, also reduces it mod p.
Entries, as Fraction, GaussianRational or int, are built only when
m[i, j] or row(i) asks for one: from_text and from_json_dict build
rows from the ints that scalar._reader reads off each token, from_rows
from the ints of each entry, and to_text and to_json_dict write each
entry from its row's ints.  Everything else works on the stored ints;
where rows with different denominators meet it takes their lcm, and
where a result may share a factor with its denominator it divides the
row's content out.

Every rank, null space, solve, inverse and echelon transform is one
Gauss-Jordan elimination, _eliminate, over [A | the rows the caller
mirrors], and every product is _product.  An elimination hands back
its rows with the row of A each pivot row started as: a rank reads
only the pivots, and an echelon transform and _basis_rows cut the
columns they read out of the rows, still as integer rows.  No
elimination scales a row: a reduced pivot row is its pivot times its
reduced echelon row, and _basis_rows divides the ints it reads by
that pivot.  Over Q the forward clears are Bareiss's fraction-free
updates, which take no gcd (_bareiss): a row keeps a content until a
caller that stores it divides it out.  The upward clears over Q and
every clear over Q(i) divide the row's content out at once: by
pv*row_k - q*row_r over Q, and over Q(i), with P and Q the Gaussian
integers at the pivot and at the entry cleared, by
N(P)*row_k - (conj(P)*Q)*row_r.  The values and pivot choices are
those of plain field arithmetic.  Over GF(p) both kernels work on
one int per row that packs its entries into fixed-width slots, wide
enough that no slot carries into the next, so that a row operation is
one big-int multiply-add; the rows are unpacked into stored rows,
reduced mod p, when the kernel ends.
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

from .scalar import (_INTEGER_RE, FieldKind, FieldSpec, GaussianRational,
                     Involution, Scalar, _gaussian_str, _rational_str,
                     _reader)
from .scalar import _reduced as _gaussian


class MatrixParseError(ValueError):
    """Text or JSON input rejected; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(message)
        self.line = line
        self.column = column


class Matrix:
    __slots__ = ("field", "rows", "cols", "_r")

    def __init__(self, field: FieldSpec, rows: int, cols: int,
                 stored: tuple):
        # stored: a tuple of integer rows, the one format of every
        # field (see the module docstring), never mutated once stored;
        # the classmethods build it from entries
        self.field = field
        self.rows = rows
        self.cols = cols
        self._r = stored

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: Iterable[Iterable],
                  cols: int | None = None) -> "Matrix":
        read = _reader(field)
        data = [[read(x) for x in row] for row in rows]
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
            cols = width
        elif cols is None:
            raise ValueError("cols is required for a matrix with no rows")
        elif type(cols) is not int or cols < 0:  # a bool is not a size
            raise ValueError("cols must be an int >= 0")
        return cls(field, len(data), cols,
                   tuple(map(_codec(field)[0], data)))

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "Matrix":
        return cls.zero_one(field, rows, cols, ())

    @classmethod
    def zero_one(cls, field: FieldSpec, rows: int, cols: int,
                 ones: Iterable[tuple[int, int]]) -> "Matrix":
        """The rows x cols matrix with a 1 at each (i, j) of ones and
        zeros elsewhere: every identity, shift and permutation."""
        if not (type(rows) is type(cols) is int and rows >= 0 and cols >= 0):
            raise ValueError("matrix sizes must be ints >= 0")
        # the zero rows share one list: no stored row is ever mutated
        out = [[0] * (_halves(field) * cols) + [1]] * rows
        for i, j in ones:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"zero_one coordinate {(i, j)} out of range")
            out[i] = out[i].copy()
            out[i][j] = 1
        return cls(field, rows, cols, tuple(out))

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
        h = _halves(field)
        out = [_join(parts, h) for row in grid
               for parts in zip(*[b._r for b in row])]
        return cls(field, sum(heights), sum(widths), tuple(out))

    # -- basic queries ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, key) -> Scalar:
        i, j = key
        # indexed as a tuple of entries would be: IndexError out of
        # range, and a negative index counts from the end
        return self.take([range(self.rows)[i]],
                         [range(self.cols)[j]]).row(0)[0]

    def row(self, i: int) -> tuple:
        return _codec(self.field)[1]([self._r[i]])[0]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        # stored rows are canonical, so equal matrices have equal rows
        return (self.field == other.field and self.rows == other.rows
                and self.cols == other.cols and self._r == other._r)

    __hash__ = None

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field})"

    # -- arithmetic ------------------------------------------------------------

    def _check_same_field(self, other: "Matrix"):
        if self.field != other.field:
            raise ValueError("mixed fields")

    def __neg__(self) -> "Matrix":
        # negating the ints keeps a row's gcd, so it stays canonical;
        # over GF(p) the negated residues are reduced mod p again
        p = self.field.p
        rows = [[-x % p if p else -x for x in row[:-1]] + row[-1:]
                for row in self._r]
        return Matrix(self.field, self.rows, self.cols, tuple(rows))

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
                      _transposed(self, False))

    @property
    def star(self) -> "Matrix":
        """Conjugate transpose under the active involution; the plain
        transpose when the involution is the identity."""
        return Matrix(self.field, self.cols, self.rows, _transposed(
            self, self.field.involution is Involution.CONJUGATION))

    # -- slicing ---------------------------------------------------------------

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        if not (0 <= r0 <= r1 <= self.rows and 0 <= c0 <= c1 <= self.cols):
            raise ValueError("block out of range")
        rows = self._r[r0:r1]
        if c1 - c0 != self.cols:
            rows = _columns(self.field, rows, self.cols, range(c0, c1))
        return Matrix(self.field, r1 - r0, c1 - c0, rows)

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
        return Matrix(self.field, len(picked), len(cols),
                      _columns(self.field, picked, self.cols, cols))

    # -- rank and singularity ----------------------------------------------------

    def is_nonsingular(self) -> bool:
        # 0x0 is nonsingular by convention
        return self.is_square() and rank(self) == self.rows

    # -- text and JSON formats ---------------------------------------------------

    def to_text(self) -> str:
        # each row is rendered to strings at once; str passes them on
        return _write_text(self.rows, self.cols,
                           map(_codec(self.field)[2], self._r), str)

    @classmethod
    def from_text(cls, field: FieldSpec, text: str, *,
                  square: bool = False) -> "Matrix":
        """Read a "rows cols" header and one line per row; square=True
        rejects a non-square header before any row is read."""
        return cls._from_grid(
            field, *_read_text(text, _reader(field), square))

    def to_json_dict(self) -> dict:
        return _write_json(self.rows, self.cols,
                           map(_codec(self.field)[2], self._r), str)

    @classmethod
    def from_json_dict(cls, field: FieldSpec, obj: dict, *,
                       square: bool = False) -> "Matrix":
        """Read {"rows", "cols", "entries"} with the entries row-major;
        square as in from_text."""
        return cls._from_grid(
            field, *_read_json(obj, _reader(field), square))

    @classmethod
    def _from_grid(cls, field: FieldSpec, rows: int, cols: int,
                   entries: list) -> "Matrix":
        build = _codec(field)[0]
        return cls(field, rows, cols, tuple(
            build(entries[i * cols:(i + 1) * cols]) for i in range(rows)))


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
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError:  # past the interpreter's int digit limit
        raise MatrixParseError("header integer too long", 1, 1) from None
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
# on the field: over Q and Q(i) the stored integer row, over GF(p) one
# packed int (see _Packing).  `pivot` gives a pivot row and the factor
# its clears share: over Q the pivot entry's numerator with Bareiss's
# divisor on the way down (_bareiss) and alone on the way up, a pair of
# ints over Q(i), or -1/pivot mod p over GF(p).  A clear reads the
# entry it clears.


def _eliminate(a: Matrix, aug: tuple, reduce: bool,
               ) -> tuple[list, list, Callable]:
    """Forward elimination on the rows [a | aug], aug a tuple of
    a.rows stored rows, with the first nonzero entry of each column of
    a as its pivot; with `reduce`, each pivot column is also cleared
    above its pivot, last pivot first, so that pivot row i is its
    pivot times row i of the reduced echelon form of a.  Returns the
    eliminated rows, in the field's work format, one (column, source)
    pair per pivot row, pivot row i being row i and source the row of
    a it was swapped in from, and the function that turns a list of
    work rows into integer rows, not necessarily in lowest terms."""
    field, m, h = a.field, a.rows, _halves(a.field)
    # an aug row without entries adds nothing
    rows = [x if len(y) < 2 else _join((x, y), h)
            for x, y in zip(a._r, aug)]
    if field.p:
        g = _packing(field.p, len(rows[0]) - 1 if rows else 0, 2 * m + 1)
        rows = [g.pack(row[:-1]) for row in rows]
        entry, pivot, clear, stored = g.entry, g.pivot, g.clear, g.decode
        up = pivot, clear
    elif h == 1:
        entry, stored, up = operator.getitem, list, (_own_pivot, _q_update)
        pivot, clear = _bareiss()
    else:
        entry, pivot, clear, stored = _qi_entry, _qi_pivot, _qi_update, list
        up = pivot, clear

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
        # over Q the upward sweep divides each row's content out
        pivot, clear = up
        for r, (c, _) in reversed([*enumerate(pivots)]):
            sweep(r, c, range(r))
    return rows, pivots, stored


def _own_pivot(rr: list, c: int) -> tuple:
    return rr, rr[c]


def _bareiss() -> tuple[Callable, Callable]:
    """Q's forward pivot and clear, fraction-free (Bareiss, Math. Comp.
    22, 1968).  With P the pivot's int, q the int cleared and L the
    magnitude of the last pivot's (1 before the first), row k becomes
    (P*row_k - q*row_r) / (sign(P)*L), an exact division, over d_k*|P|
    where it was over d_k*L; a row with q = 0 is rescaled alike.  So
    every row below the pivots holds its Schur-complement values, which
    plain arithmetic gives, times d_k*|P| over that, and no gcd is
    taken.  A column with no pivot leaves L as it is, which keeps the
    divisions exact on singular input (Jeffrey, ACM Commun. Comput.
    Algebra 44, 2010)."""
    last = 1

    def pivot(rr: list, c: int) -> tuple:
        nonlocal last
        p = rr[c]
        t = last if p > 0 else -last
        last = abs(p)
        return rr, (p, t)

    def clear(rk: list, rr: list, c: int, f: tuple) -> list:
        p, t = f
        q = rk[c]
        if q:
            new = rk[:c] + [(p * x - q * y) // t
                            for x, y in zip(rk[c:-1], rr[c:-1])]
        elif p == t:
            return rk
        else:
            new = rk[:c] + [p * x // t for x in rk[c:-1]]
        new.append(rk[-1] // abs(t) * abs(p))
        return new

    return pivot, clear


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
        """The rows xs as stored rows, all unpacked at once."""
        n, values = self.n, self.unpack(xs)
        return [values[i * n:i * n + n] + [1] for i in range(len(xs))]

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


# -- stored rows -----------------------------------------------------------------
# The values and the pivot choices must stay those of plain Fraction
# and GaussianRational arithmetic: transforms are byte-identical
# whichever way Q and Q(i) are computed.  The helpers below serve
# every field, an integer row of n entries holding h halves of n ints
# and its denominator; those that make new values take GF(p)'s modulus
# p, None over Q and Q(i), and hand it to _canonical.


def _halves(field: FieldSpec) -> int:
    """The halves of an integer row: 2 over Q(i), 1 over Q and GF(p)."""
    return 2 if field.kind is FieldKind.GAUSSIAN_RATIONAL else 1


def _codec(field: FieldSpec) -> tuple[Callable, Callable, Callable]:
    """(build, decode, render): a row of the ints that scalar._reader
    gives to a stored row, a list of stored rows to tuples of entries,
    which only m[i, j] and row(i) ask for, and a stored row to str of
    each of its entries."""
    if field.p:
        return _gf_build, _gf_decode, _q_render
    if _halves(field) == 1:
        return _q_build, _q_decode, _q_render
    return _qi_build, _qi_decode, _qi_render


def _gf_build(residues: list) -> list:
    return [*residues, 1]


def _gf_decode(rows: list) -> list:
    return [tuple(row[:-1]) for row in rows]


def _canonical(row: list, p: int | None = None) -> list:
    """The canonical form of an integer row whose last int is its
    denominator d > 0: the row divided by the gcd of its ints, or over
    GF(p), with p, the residues of its values over d = 1.  The row
    itself when it is canonical already."""
    d = row[-1]
    if p:
        f = pow(d, -1, p)
        return [x * f % p for x in row] if f != 1 else [x % p for x in row]
    if d != 1:
        g = gcd(*row)
        if g != 1:
            return [x // g for x in row]
    return row


def _join(parts: Sequence[list], h: int) -> list:
    """Integer rows side by side, as one row over the lcm of their
    denominators.  Canonical when the parts are: each prime power of
    the lcm divides some part's denominator, whose part is scaled by a
    factor prime to it and keeps an int that the prime does not
    divide."""
    if len(parts) == 1:
        return parts[0]
    ds = [p[-1] for p in parts]
    d = ds[0]
    if ds.count(d) != len(ds):
        d = lcm(*ds)
    elif h == 1:
        # one denominator: the ints side by side
        out = []
        for p in parts:
            out += p[:-1]
        out.append(d)
        return out
    out: list = []
    for k in range(h):
        for p in parts:
            n, s = (len(p) - 1) // h, d // p[-1]
            seg = p[k * n:(k + 1) * n]
            out += seg if s == 1 else [s * x for x in seg]
    out.append(d)
    return out


def _columns(field: FieldSpec, rows: Sequence, n: int,
             cols: Sequence[int | None]) -> tuple:
    """Stored rows of n columns cut down to the columns cols, in that
    order, with a zero column for each None."""
    h = _halves(field)
    at = [None if c is None else k * n + c for k in range(h) for c in cols]
    at.append(-1)
    return tuple(_canonical([0 if i is None else row[i] for i in at])
                 for row in rows)


def _transposed(a: Matrix, conj: bool) -> tuple:
    """The stored rows of a's transpose, conjugated with conj: column
    j of each row over the lcm of the row denominators, with the
    content divided out."""
    h, n = _halves(a.field), a.cols
    if not a.rows:
        return tuple([1] for _ in range(n))
    d = lcm(*[r[-1] for r in a._r])
    rows = [r if r[-1] == d else [x * (d // r[-1]) for x in r]
            for r in a._r]
    # every row over d, then a row of d's: column j is an integer row
    cols = list(map(list, zip(*rows, [d] * len(rows[0]))))
    if h == 2:
        im = cols[n:-1]
        if conj:
            im = [[-x for x in c[:-1]] + [d] for c in im]
        cols = [re[:-1] + i for re, i in zip(cols, im)]
    # over d = 1 every row is canonical
    return tuple(cols[:n]) if d == 1 else tuple(map(_canonical, cols[:n]))


def _row_times(row: list, a: int, b: int, e: int,
               p: int | None = None) -> list:
    """An integer row times (a + b*i)/e, e > 0; b = 0 over Q and
    GF(p)."""
    if not b:
        return _canonical([a * x for x in row[:-1]] + [e * row[-1]], p)
    n = len(row) >> 1
    re, im = row[:n], row[n:-1]
    return _canonical([a * x - b * y for x, y in zip(re, im)]
                      + [a * y + b * x for x, y in zip(re, im)]
                      + [e * row[-1]])


def _over_pivot(field: FieldSpec, row, c: int, n: int, free: list):
    """The stored row of [X | N] that _basis_rows reads off a reduced
    pivot row with pivot column c: its entries past column n and its
    negated entries at the free columns, divided by the pivot.  An
    integer row's denominator cancels, so the divisor is the pivot's
    numerator P, and 1/P is conj(P)/N(P), or sign(P)/|P| when P is
    real; over GF(p), P is a residue and the row's canonical form
    reads /P as times pow(P, -1, p)."""
    h = _halves(field)
    nn = (len(row) - 1) // h
    ints = [x for k in range(h) for x in row[k * nn + n:(k + 1) * nn]
            + [-row[k * nn + fc] for fc in free]]
    ints.append(1)
    pr, pi = row[c], row[nn + c] if h == 2 else 0
    if pi:
        return _row_times(ints, pr, -pi, pr * pr + pi * pi)
    return _row_times(ints, 1 if pr > 0 else -1, 0, abs(pr), field.p)


def _product(field: FieldSpec, arows: tuple, brows: tuple, bcols: int,
             ) -> tuple:
    """Stored rows of A*B.  Over GF(p) each row of B is packed, and row
    i of A*B is the sum of a_ik times packed row k over the nonzero
    a_ik, one big-int multiply-add each; the sums are unpacked together
    at the end.  Over Q and Q(i) each row k of B is written once, and
    only if A uses it, as its nonzero (column, value) pairs over its
    denominator d_k.  Row i of A is ints over D_i; each nonzero int f
    in it adds the term (f, d_k, pairs), and the row folds the d_k of
    its terms into one denominator L_i, sums f * (L_i / d_k) * v, and
    divides the content out of the sums over L_i * D_i.  Over Q the
    pairs are those of B's integer row.  Over Q(i) the ints of A's row
    are [re | im]: a real part f at column k adds f times the pairs of
    row k of B, [re | im], and an imaginary part adds f times those of
    [-im | re], which are the same pairs with their halves swapped and
    one sign flipped, kept next to them in bint[k]."""
    n, h, swap = len(brows), _halves(field), None
    if field.p:
        g = _packing(field.p, bcols, n)
        packed = [g.pack(row[:-1]) for row in brows]
        # zip stops at the end of packed, before a row's d = 1
        return tuple(g.decode([sum([f * b for f, b in zip(arow, packed) if f])
                               for arow in arows]))
    if h == 2:
        def swap(nz):
            return [(j + bcols, v) if j < bcols else (j - bcols, -v)
                    for j, v in nz]
    bint: list = [None] * n
    out = []
    for arow in arows:
        terms = []
        for k, f in enumerate(arow[:-1]):
            if f:
                half, k = divmod(k, n)
                b = bint[k]
                if b is None:
                    row = brows[k]
                    nz = [(j, v) for j, v in enumerate(row[:-1]) if v]
                    b = bint[k] = (row[-1], nz, swap and swap(nz))
                if b[1]:
                    terms.append((f, b[0], b[1 + half]))
        den = lcm(*[e for _, e, _ in terms])
        acc = [0] * (h * bcols) + [den * arow[-1]]
        for f, e, nz in terms:
            if e != den:
                f *= den // e
            for j, v in nz:
                acc[j] += f * v
        out.append(_canonical(acc))
    return tuple(out)


# -- Q kernels on integer rows ---------------------------------------------------

_ZERO = Fraction(0)


def _q_fraction(x: int, d: int) -> Fraction:
    if not x:
        return _ZERO
    return Fraction(x) if d == 1 else Fraction(x, d)


def _q_build(pairs: list) -> list:
    """Entries (n, d) as a canonical integer row over the lcm of their
    denominators, with the content divided out."""
    d = lcm(*[e for _, e in pairs])
    ints = ([n for n, _ in pairs] if d == 1
            else [n * (d // e) for n, e in pairs])
    ints.append(d)
    return _canonical(ints)


def _q_render(row: list) -> list:
    """str of each entry of a Q or GF(p) stored row, one gcd each."""
    d = row[-1]
    if d == 1:
        return [str(x) for x in row[:-1]]
    return [_rational_str(x, d) for x in row[:-1]]


def _q_decode(rows: list) -> list:
    """Integer rows, each with its denominator last, as tuples of
    Fractions."""
    return [tuple([_q_fraction(x, row[-1]) for x in row[:-1]])
            for row in rows]


def _q_update(rk: list, rr: list, c: int, pv: int) -> list:
    """Clear column c of row k with pivot row r, both ints with their
    denominator last, with pivot pv = rr[c] and zeros before column c
    in rr.  The result (pv * rk - q * rr) / (dk * pv), with q = rk[c],
    gcd(pv, q) cancelled first and the sign put on q, comes back in
    the same format with the content of the row divided out; rk itself
    when q = 0."""
    q = rk[c]
    if not q:
        return rk
    g = gcd(pv, q) if pv > 0 else -gcd(pv, q)
    pv //= g
    q //= g
    dk = rk[-1]
    if pv == 1:
        head = rk[:c]
    else:
        head = [pv * x for x in rk[:c]]
        dk *= pv
    new = head + [pv * x - q * y for x, y in zip(rk[c:-1], rr[c:-1])]
    new.append(dk)
    return _canonical(new)


# -- Q(i) kernels on integer rows ------------------------------------------------
# A row of n entries (re_j + im_j*i)/d is the 2n + 1 ints [re | im | d]:
# the real numerators, then the imaginary ones, then d > 0.

_QI_ZERO = GaussianRational()


def _qi_build(triples: list) -> list:
    """Entries (a, b, d) as a canonical [re | im | d] over the lcm of
    their denominators, with the content divided out."""
    d = lcm(*[t[2] for t in triples])
    if d == 1:
        ints = [t[0] for t in triples] + [t[1] for t in triples]
    else:
        scale = [d // t[2] for t in triples]
        ints = ([t[0] * s for t, s in zip(triples, scale)]
                + [t[1] * s for t, s in zip(triples, scale)])
    ints.append(d)
    return _canonical(ints)


def _qi_render(row: list) -> list:
    """str of each entry of a stored [re | im | d]."""
    n, d = len(row) >> 1, row[-1]
    return [_gaussian_str(x, y, d) for x, y in zip(row[:n], row[n:-1])]


def _qi_decode(rows: list) -> list:
    """Rows [re | im | d] as tuples of GaussianRationals, one gcd per
    nonzero entry."""
    out = []
    for row in rows:
        n, d = len(row) >> 1, row[-1]
        out.append(tuple([_gaussian(x, y, d) if x or y else _QI_ZERO
                          for x, y in zip(row[:n], row[n:-1])]))
    return out


def _qi_entry(row: list, c: int) -> int:
    """Nonzero exactly when the entry at column c is."""
    return row[c] or row[c + (len(row) >> 1)]


def _qi_pivot(rr: list, c: int) -> tuple:
    return rr, (rr[c], rr[c + (len(rr) >> 1)])


def _qi_update(rk: list, rr: list, c: int, pv: tuple) -> list:
    """Clear column c of row k with pivot row r, both [re | im | d],
    with pv the pivot's numerator P = rr[c] + rr[n + c]*i and zeros
    before column c in rr.  With Q the numerator of rk at column c, the
    result (N(P) * rk - (conj(P) * Q) * rr) / (dk * N(P)), with the
    integer gcd of N(P) and conj(P) * Q cancelled first, comes back in
    the same format with the content of the row divided out; rk itself
    when Q = 0."""
    n = len(rk) >> 1
    qr, qi = rk[c], rk[n + c]
    if not (qr or qi):
        return rk
    pr, pi = pv
    fr, fi, nm = pr * qr + pi * qi, pr * qi - pi * qr, pr * pr + pi * pi
    g = gcd(nm, fr, fi)
    if g != 1:
        fr //= g
        fi //= g
        nm //= g
    dk = rk[-1]
    if nm == 1:
        head_re, head_im = rk[:c], rk[n:n + c]
    else:
        head_re = [nm * x for x in rk[:c]]
        head_im = [nm * x for x in rk[n:n + c]]
        dk *= nm
    re_r, im_r = rr[c:n], rr[n + c:-1]
    new = (head_re + [nm * x - fr * y + fi * z
                      for x, y, z in zip(rk[c:n], re_r, im_r)]
           + head_im + [nm * x - fr * z - fi * y
                        for x, y, z in zip(rk[n + c:-1], re_r, im_r)])
    new.append(dk)
    return _canonical(new)


# -- the eliminations callers ask for -------------------------------------------


def _basis_rows(a: Matrix, aug: Matrix) -> tuple[tuple, list, list]:
    """The stored rows of [X | N] read off the reduced echelon form of
    [a | aug]: X solves a*X = aug with every free variable zero, and N
    holds one null-space column per free column of a, free columns in
    increasing order, with its 1 in that column's row.  Returns (rows,
    free columns, for each row that reduced to zero in a whether its
    aug part is nonzero); a*X = aug has a solution only if none is."""
    field, n, w = a.field, a.cols, aug.cols
    h = _halves(field)
    rows, pivots, stored = _eliminate(a, aug._r, True)
    rows = stored(rows)
    pivot_cols = {c for c, _ in pivots}
    free = [c for c in range(n) if c not in pivot_cols]
    unit = Matrix.zero_one(field, len(free), w + len(free),
                           [(k, w + k) for k in range(len(free))])._r
    out: list = [None] * n
    for k, fc in enumerate(free):
        out[fc] = unit[k]
    for row, (c, _) in zip(rows, pivots):
        # the pivot row is its reduced echelon row times its pivot
        out[c] = _over_pivot(field, row, c, n, free)
    nn = n + w
    return tuple(out), free, [
        any(any(row[k * nn + n:(k + 1) * nn]) for k in range(h))
        for row in rows[len(pivots):]]


def row_echelon_transform(a: Matrix) -> tuple[list[int], Matrix]:
    """(P, L) from one forward elimination of [a | I]: P the rank(a)
    rows of a that became pivots, in increasing order, and L the
    eliminated left null basis, L*a = 0, the only rows cut out of the
    elimination.  T = [unit rows at P; L] is nonsingular with
    T*a = [a[P, :]; 0], and a nonsingular a has every row in P."""
    field, m, n = a.field, a.rows, a.cols
    rows, pivots, stored = _eliminate(a, Matrix.identity(field, m)._r, False)
    r = len(pivots)
    return sorted(s for _, s in pivots), Matrix(field, m - r, m, _columns(
        field, stored(rows[r:]), n + m, range(n, n + m)))


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
    basis, free, null_aug = _basis_rows(a, b)
    if any(null_aug):
        raise ValueError("inconsistent system")
    if free:
        basis = _columns(a.field, basis, b.cols + len(free), range(b.cols))
    return Matrix(a.field, a.cols, b.cols, basis)


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
    if type(n) is not int or n < 1:  # a bool is not a size
        raise ValueError("jordan_block requires n >= 1")
    return Matrix.zero_one(field, n, n, [(i, i + 1) for i in range(n - 1)])
